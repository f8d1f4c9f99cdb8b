"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[criterion NN] name: PASS/FAIL` line (run with
`pytest tests/test_acceptance.py -v -s` to see them all).  Criterion 01
is expected to fail on its d = 0.6 um anchor: the exact two-medium
characteristic equation gives n_eff = 1.0190 there, 0.001 below the
target band, which only the scalar LP01 approximation reproduces.
"""

import math
import time

import numpy as np
import pytest

from pcwgprobe.bands import (
    PCWaveguideSpec,
    PlaneWaveSolver,
    defect_profile,
    find_branch,
    phase_match_crossing,
)
from pcwgprobe.coupling import (
    CouplerConfig,
    WaveguideProfile,
    co_transmission,
    contra_transmission,
    ideality_from_reflection,
    fp_reflectivity,
    kappa_overlap,
    lateral_profile,
)
from pcwgprobe.fiber import (FiberSpec, ModeField, TaperProfile, fundamental_neff,
                             neff_and_dbeta_dd)
from pcwgprobe.pipeline import (
    extract_resonances,
    gap_sweep,
    label_branches,
    synthesize_map,
    to_bandstructure,
)
from pcwgprobe.slab import SlabSpec, slab_effective_index


def check(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_fiber_dispersion_anchors():
    t0 = time.perf_counter()
    n_small = fundamental_neff(FiberSpec(0.6), 1.6).n_eff
    n_large = fundamental_neff(FiberSpec(4.0), 1.6).n_eff
    elapsed = time.perf_counter() - t0
    ok_small = abs(n_small - 1.05) <= 0.03
    ok_large = abs(n_large - 1.40) <= 0.02
    check(
        1,
        "fiber dispersion anchors",
        ok_small and ok_large and elapsed < 1.0,
        f"n_eff(0.6um)={n_small:.4f} vs 1.05+-0.03 [{'ok' if ok_small else 'out'}], "
        f"n_eff(4.0um)={n_large:.4f} vs 1.40+-0.02 [{'ok' if ok_large else 'out'}], "
        f"runtime {elapsed * 1e3:.0f} ms",
    )


def test_criterion_02_diameter_sensitivity():
    t0 = time.perf_counter()
    s19 = neff_and_dbeta_dd(FiberSpec(1.9), 1.6)[1]
    s10 = neff_and_dbeta_dd(FiberSpec(1.0), 1.6)[1]
    elapsed = time.perf_counter() - t0
    check(
        2,
        "diameter sensitivity",
        abs(s19 - 0.084) <= 0.2 * 0.084
        and abs(s10 - 0.36) <= 0.2 * 0.36
        and elapsed < 1.0,
        f"dbeta/dd(1.9um)={s19:.4f} (0.084+-20%), dbeta/dd(1.0um)={s10:.4f} "
        f"(0.36+-20%), runtime {elapsed * 1e3:.0f} ms",
    )


def test_criterion_03_slab_effective_index():
    n = slab_effective_index(SlabSpec(t_nm=340.0, n_slab=3.4), 1.6, 0)
    check(3, "slab effective index", abs(n - 2.64) <= 0.05, f"n_eff={n:.4f} vs 2.64+-0.05")


def test_criterion_04_empty_lattice_exactness():
    spec = PCWaveguideSpec(grading=(), supercell_rows=1, r_frac=0.0)
    solver = PlaneWaveSolver(spec)
    worst = 0.0
    for bn in np.linspace(0.025, 0.5, 20):
        beta = bn * 2 * np.pi / spec.lam_z_um
        omega = solver.solve_k(beta, 6)
        kg = solver.g.copy()
        kg[:, 0] += beta
        exact = np.sort(np.hypot(kg[:, 0], kg[:, 1]))[:6] * spec.lam_z_um / (
            2 * np.pi * spec.n_eff
        )
        worst = max(worst, float(np.max(np.abs(omega - exact) / exact)))
    check(4, "empty-lattice exactness", worst < 1e-9, f"max rel err {worst:.2e} on 20 k-points")


def test_criterion_05_phase_matching_design(bands_result):
    res, elapsed = bands_result
    pm = phase_match_crossing(find_branch(res.curves, "TE-1"), FiberSpec(1.5))
    lam_ok = abs(pm.lambda_nm - 1600.0) <= 0.05 * 1600.0
    ng_ok = pm.n_g_branch < 0 and 3.0 <= abs(pm.n_g_branch) <= 8.0
    check(
        5,
        "phase-matching design",
        lam_ok and ng_ok and elapsed < 60.0,
        f"crossing at {pm.lambda_nm:.1f} nm (1600+-5%), n_g={pm.n_g_branch:.2f} "
        f"(|n_g| in [3,8], d omega/d beta < 0), supercell solve {elapsed:.1f} s",
    )


def test_criterion_06_thinning_ordering(default_thinning):
    d1, d2 = default_thinning["TE-1"], default_thinning["TE-2"]
    check(
        6,
        "thinning ordering",
        d2 > d1 > 0,
        f"d_omega(TE-1)={d1:+.5f}, d_omega(TE-2)={d2:+.5f} (TE-2 > TE-1 > 0)",
    )


def test_criterion_07_coupled_mode_identities():
    rng = np.random.default_rng(7)
    kappa = rng.uniform(0.0, 0.5, 10_000)
    length = rng.uniform(1.0, 200.0, 10_000)
    delta = rng.uniform(-0.6, 0.6, 10_000)
    worst = 0.0
    for model in (contra_transmission, co_transmission):
        for i in range(0, 10_000, 2000):
            sl = slice(i, i + 2000)
            t, c = model(kappa[sl], float(length[i]), delta[sl])
            worst = max(worst, float(np.max(np.abs(t + c - 1.0))))
    t3, _ = contra_transmission(3.0 / 60.0, 60.0, 0.0)
    floor_ok = t3 < 0.01 and abs(t3 - 1.0 / math.cosh(3.0) ** 2) < 1e-14
    check(
        7,
        "coupled-mode identities",
        worst <= 1e-12 and floor_ok,
        f"max |T+C-1| = {worst:.2e} over 1e4 points x 2 models, "
        f"T(kL=3) = {t3:.5f} (< 1%)",
    )


def test_criterion_08_ideality(te1):
    rows = gap_sweep(np.arange(250.0, 801.0, 25.0), CouplerConfig(), FiberSpec(1.9), te1,
                     include_loss=True)
    gammas = np.array([r.gamma for r in rows])
    best = int(np.argmax(gammas))
    interior = 0 < best < len(rows) - 1
    gamma_refl = ideality_from_reflection(0.15, 0.20)
    refl_ok = abs(gamma_refl - 0.866) <= 1e-3
    check(
        8,
        "ideality",
        interior and gammas[best] >= 0.95 and refl_ok,
        f"max Gamma={gammas[best]:.4f} at g={rows[best].gap_nm:.0f} nm (interior: "
        f"{interior}), Gamma_refl(0.15, 0.20)={gamma_refl:.4f}",
    )


def test_criterion_09_exponential_gap_law(te1):
    rows = gap_sweep(np.arange(250.0, 801.0, 25.0), CouplerConfig(), FiberSpec(1.9), te1,
                     include_loss=True)
    g = np.array([r.gap_nm for r in rows])
    log_kl = np.log([r.kappa_l for r in rows])
    fit = np.polyval(np.polyfit(g, log_kl, 1), g)
    rms = float(np.sqrt(np.mean((log_kl - fit) ** 2)) / np.mean(np.abs(log_kl)))
    check(9, "exponential gap law", rms < 0.05, f"ln(kappa L) linear fit RMS {rms:.2%}")


def test_criterion_10_lateral_probe(default_spec, default_dispersive, te1, te1_odd):
    coupler = CouplerConfig()
    fiber = FiberSpec(1.0)
    pm = phase_match_crossing(te1, fiber)
    lam_um = pm.lambda_nm * 1e-3
    beta_norm = pm.beta_rad_per_um * default_spec.lam_z_um / (2 * np.pi)

    def profile(curve):
        x, u = defect_profile(default_spec, curve, beta_norm, default_dispersive)
        return WaveguideProfile(
            x_um=x,
            u=u,
            beta_rad_per_um=pm.beta_rad_per_um,
            lam_um=lam_um,
            slab_t_um=0.34,
            eps_bg=default_spec.n_eff**2,
        )

    mode = ModeField(fiber, lam_um)
    wg_even, wg_odd = profile(te1), profile(te1_odd)
    result = lateral_profile(
        mode,
        wg_even,
        400.0,
        coupler.l_c_um,
        np.linspace(-4.0, 4.0, 81),
        kappa_at_center=coupler.kappa_perp(fiber, lam_um, 400.0),
    )
    fwhm_ok = abs(result.fwhm_um - 2.08) <= 0.25 * 2.08
    k_even = kappa_overlap(mode, wg_even, 400.0, 0.0)
    k_odd = kappa_overlap(mode, wg_odd, 400.0, 0.0)
    null_ok = abs(k_odd) < 1e-8 * abs(k_even)
    check(
        10,
        "lateral probe",
        fwhm_ok and null_ok,
        f"FWHM={result.fwhm_um:.3f} um (2.08+-25%), odd/even kappa = "
        f"{abs(k_odd) / abs(k_even):.1e} (< 1e-8)",
    )


def test_criterion_11_bandwidth_ordering(te1, default_taper):
    coupler = CouplerConfig()
    fiber = FiberSpec(1.0)
    scale = 5.5 / np.log(125.0 / 0.6)

    def dip_width(d_center, lam_lo, lam_hi):
        lc = np.linspace(
            scale * np.log((d_center - 0.05) / 0.6),
            scale * np.log((d_center + 0.05) / 0.6),
            9,
        )
        tmap = synthesize_map(
            default_taper,
            [te1],
            coupler,
            fiber,
            wavelengths_nm=np.arange(lam_lo, lam_hi, 0.25),
            lc_mm=lc,
            include_loss=True,
        )
        widths = [p.fit_width_nm for p in extract_resonances(tmap)]
        return float(np.nanmean(widths))

    w10 = dip_width(1.0, 1595.0, 1635.0)
    w19 = dip_width(1.9, 1650.0, 1700.0)
    check(
        11,
        "bandwidth ordering",
        w10 > w19 and 10.0 <= w10 <= 40.0 and 5.0 <= w19 <= 20.0,
        f"dip FWHM {w10:.1f} nm at d~1.0 um (20 nm band), {w19:.1f} nm at "
        f"d~1.9 um (10 nm band)",
    )


def test_criterion_12_pipeline_round_trip(te1, default_taper):
    coupler = CouplerConfig()
    fiber = FiberSpec(1.0)
    lam = np.arange(1565.0, 1625.0 + 1e-9, 0.25)  # 241 columns
    lc = np.linspace(0.20, 0.55, 50)
    t0 = time.perf_counter()
    tmap = synthesize_map(
        default_taper, [te1], coupler, fiber, wavelengths_nm=lam, lc_mm=lc,
        include_loss=True, noise_sigma=0.005, seed=12,
    )
    points = label_branches(extract_resonances(tmap), default_taper)
    te1_points = [p for p in points if p.label == "TE-1"]
    band_points = to_bandstructure(te1_points, default_taper, fiber)
    elapsed = time.perf_counter() - t0

    beta_err = 0.0
    lam_err = 0.0
    for p, bp in zip(te1_points, band_points):
        beta_true = np.interp(bp.lambda_nm, te1.lambda_nm, te1.beta_rad_per_um)
        beta_err = max(beta_err, abs(bp.beta_rad_per_um - beta_true) / beta_true)
        d = float(default_taper.diameter_at(p.lc_mm))
        pm = phase_match_crossing(te1, fiber.with_diameter(d))
        lam_err = max(lam_err, abs(p.lambda_min_nm - pm.lambda_nm))
    check(
        12,
        "pipeline round trip",
        len(te1_points) >= 45 and beta_err < 0.01 and lam_err <= 0.25 and elapsed < 30.0,
        f"{len(te1_points)} points, max beta err {beta_err:.3%} (< 1%), max lambda err "
        f"{lam_err:.3f} nm (<= 0.25 nm grid step), {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_13_fabry_perot_inversion():
    lam = np.linspace(1565.0, 1625.0, 1200)
    worst = 0.0
    for r_sq in np.linspace(0.05, 0.30, 6):
        for length_um in (50.0, 80.0, 120.0):
            finesse_f = 4.0 * r_sq / (1.0 - r_sq) ** 2
            t = 1.0 / (1.0 + finesse_f * np.sin(2 * np.pi * length_um / (lam * 1e-3)) ** 2)
            worst = max(worst, abs(fp_reflectivity(t) - r_sq))
    check(
        13,
        "Fabry-Perot inversion",
        worst <= 0.01,
        f"max |r^2 recovered - injected| = {worst:.4f} over r^2 in [0.05, 0.3] x 3 FSRs",
    )
