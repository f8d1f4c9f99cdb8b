import csv
import io
from fractions import Fraction

import numpy as np
import pytest

from pcwgprobe import config as cfgmod
from pcwgprobe.bands import BandCurve
from pcwgprobe.coupling import CouplerConfig
from pcwgprobe.errors import BandCoverageError, MapFormatError
from pcwgprobe.fiber import FiberSpec, TaperProfile
from pcwgprobe.pipeline import (
    TransmissionMap,
    extract_resonances,
    gap_sweep,
    label_branches,
    synthesize_map,
    to_bandstructure,
)

LAM_NM, LC_MM = cfgmod.build_map_grids(cfgmod.DEFAULTS)  # the default config's map grids


def linear_curve(label, lam_z_um=0.5, omega_at=0.40, slope=-0.25, n=26,
                 b_lo=0.25, b_hi=0.5):
    """Synthetic branch omega_norm = omega_at + slope * beta_norm."""
    beta_norm = np.linspace(b_lo, b_hi, n)
    return BandCurve(
        label, beta_norm * 2 * np.pi / lam_z_um, omega_at + slope * beta_norm, lam_z_um
    )


def main_branch(points):
    """Points of the longest tracked branch (drops stray noise tracks)."""
    from collections import Counter

    if not points:
        return []
    branch = Counter(p.branch for p in points).most_common(1)[0][0]
    return [p for p in points if p.branch == branch]


@pytest.fixture(scope="module")
def small_setup(request):
    taper = TaperProfile.exponential(0.6, 5.5)
    coupler = CouplerConfig()
    fiber = FiberSpec(1.0)
    return taper, coupler, fiber


class TestSynthesis:
    def test_zero_coupling_gives_loss_baseline(self, small_setup):
        taper, coupler, fiber = small_setup
        off = CouplerConfig(kappa_ref_l=0.0)
        lam = np.arange(1565.0, 1580.0, 0.5)
        lc = np.linspace(0.25, 0.35, 5)
        tmap = synthesize_map(taper, [linear_curve("TE-1")], off, fiber,
                              wavelengths_nm=lam, lc_mm=lc, include_loss=True)
        for i, lc_i in enumerate(lc):
            base = off.scattering_transmission(float(taper.diameter_at(lc_i)))
            np.testing.assert_allclose(tmap.t[i], base, rtol=0, atol=1e-12)

    def test_normalized_against_bare_baseline(self, small_setup, te1):
        # dividing by the kappa = 0 baseline removes the broadband loss
        # exactly, leaving the pure two-mode response (off resonance ~ 1)
        taper, coupler, fiber = small_setup
        lam = np.arange(1565.0, 1625.0, 0.5)
        lc = np.linspace(0.25, 0.40, 7)
        with_pc = synthesize_map(taper, [te1], coupler, fiber,
                                 wavelengths_nm=lam, lc_mm=lc, include_loss=True)
        baseline = synthesize_map(taper, [te1], CouplerConfig(kappa_ref_l=0.0),
                                  fiber, wavelengths_nm=lam, lc_mm=lc, include_loss=True)
        pure = synthesize_map(taper, [te1], coupler, fiber,
                              wavelengths_nm=lam, lc_mm=lc, include_loss=False)
        ratio = with_pc.t / baseline.t
        np.testing.assert_allclose(ratio, pure.t, rtol=0, atol=1e-12)
        assert ratio.max(axis=1).min() > 0.99  # off-resonance recovery per row

    def test_dip_moves_monotonically_with_position(self, small_setup, te1):
        taper, coupler, fiber = small_setup
        tmap = synthesize_map(taper, [te1], coupler, fiber, LAM_NM,
                              np.linspace(0.25, 0.45, 9), include_loss=True)
        dip_lam = tmap.wavelengths_nm[np.argmin(tmap.t, axis=1)]
        assert np.all(np.diff(dip_lam) > 0)

    def test_blocked_solve_equals_one_position_at_a_time(self, small_setup, monkeypatch):
        # 7 positions of 5 sub-positions x 241 wavelengths: one coarse-wavelength
        # solve, then blocks of 5 and 2
        from pcwgprobe import pipeline

        taper, coupler, fiber = small_setup
        curves = [linear_curve("A", omega_at=0.4061, slope=-0.25),
                  linear_curve("B", omega_at=0.2168, slope=+0.25)]
        lc = np.linspace(0.25, 0.38, 7)
        solves = []
        he11 = pipeline.he11_neff
        monkeypatch.setattr(pipeline, "he11_neff", lambda *a: solves.append(a) or he11(*a))
        for loss in (False, True):
            blocked = synthesize_map(taper, curves, coupler, fiber, LAM_NM, lc,
                                     include_loss=loss).t
            assert len(solves) == 3
            single = np.vstack([
                synthesize_map(taper, curves, coupler, fiber, LAM_NM, lc[i:i + 1],
                               include_loss=loss).t
                for i in range(lc.size)
            ])
            assert blocked.tobytes() == single.tobytes()
            solves.clear()

    @staticmethod
    def default_map(default_cfg, te1):
        return dict(taper=cfgmod.build_taper(default_cfg), curves=[te1],
                    coupler=cfgmod.build_coupler(default_cfg),
                    fiber=cfgmod.build_fiber(default_cfg), wavelengths_nm=LAM_NM,
                    lc_mm=LC_MM, include_loss=True)

    def test_coarse_start_keeps_the_cold_roots(self, default_cfg, te1, monkeypatch):
        from pcwgprobe import fiber as fibermod, pipeline

        solves = []
        he11 = pipeline.he11_neff
        monkeypatch.setattr(pipeline, "he11_neff",
                            lambda *a: solves.append((a, he11(*a))) or solves[-1][1])
        synthesize_map(**self.default_map(default_cfg, te1))
        started = [(a, n_eff) for a, n_eff in solves if len(a) == 4]
        assert len(solves) == len(started) + 1  # one coarse solve, then the blocks
        # the coarse solve gives its wavelengths' elements, the blocks the others
        assert sum(n_eff.size for _, n_eff in solves) == LC_MM.size * 5 * LAM_NM.size
        for (fiber, lam_um, d_um, *_), n_eff in solves:
            np.testing.assert_allclose(n_eff, he11(fiber, lam_um, d_um), rtol=1e-14, atol=0)
            value, scale = fibermod._char_m1(n_eff, fiber.n_core(lam_um), fiber.clad_index,
                                             np.pi * d_um / lam_um)
            assert np.max(np.abs(value) / scale) < 1e-10

    def test_default_map_takes_few_evaluations_per_element(self, default_cfg, te1,
                                                           monkeypatch):
        # _char_m1 element evaluations over the whole synthesis, coarse solve,
        # bracket ends and residual checks included: 8.90 when every element
        # took its Newton steps from the bracket end
        from pcwgprobe import fiber as fibermod

        sizes = []
        char_m1 = fibermod._char_m1
        monkeypatch.setattr(fibermod, "_char_m1",
                            lambda neff, *a, **k: sizes.append(np.size(neff))
                            or char_m1(neff, *a, **k))
        synthesize_map(**self.default_map(default_cfg, te1))
        assert sum(sizes) / (LC_MM.size * 5 * LAM_NM.size) <= 6.5

    def test_narrow_start_brackets_take_few_evaluations(self, default_cfg, te1, monkeypatch):
        # as above: 5.56 when each started element took the sign test at the
        # whole bracket's ends before its start
        from pcwgprobe import fiber as fibermod

        sizes = []
        char_m1 = fibermod._char_m1
        monkeypatch.setattr(fibermod, "_char_m1",
                            lambda neff, *a, **k: sizes.append(np.size(neff))
                            or char_m1(neff, *a, **k))
        synthesize_map(**self.default_map(default_cfg, te1))
        assert sum(sizes) / (LC_MM.size * 5 * LAM_NM.size) <= 4.8

    @pytest.mark.parametrize("n_nodes", [2, 3, 4, 16])
    def test_start_weights_reproduce_the_node_polynomial(self, n_nodes):
        # a cubic through the four nearest nodes, of lower degree with fewer
        from pcwgprobe.pipeline import _cubic_weights

        x = np.linspace(1.565, 1.625, n_nodes)
        poly = np.polynomial.Polynomial([1.4, -0.3, 2.0, 0.7][:min(n_nodes, 4)])
        xq = np.linspace(x[0], x[-1], 241)
        idx, w = _cubic_weights(x, xq)
        np.testing.assert_allclose(np.sum(w * poly(x)[idx], axis=0), poly(xq), rtol=1e-14)

    def test_curves_sharing_a_label_each_couple(self, small_setup):
        # every curve is its own channel, whatever its label
        taper, coupler, fiber = small_setup
        lc = np.linspace(0.25, 0.38, 4)
        contra = linear_curve("A", omega_at=0.4061, slope=-0.25)
        maps = [synthesize_map(taper, [contra, linear_curve(label, omega_at=0.2168, slope=+0.25)],
                               coupler, fiber, LAM_NM, lc, include_loss=True)
                for label in ("A", "B")]
        assert maps[0].t.tobytes() == maps[1].t.tobytes()
        assert maps[0].meta["branches"] == ["A", "A"]

    def test_band_coverage_validated(self, small_setup):
        taper, coupler, fiber = small_setup
        far = linear_curve("TE-1", omega_at=0.9)  # lambda ~ 560-640 nm
        with pytest.raises(BandCoverageError):
            synthesize_map(taper, [far], coupler, fiber, LAM_NM, LC_MM, include_loss=True)


class TestExtraction:
    @pytest.mark.parametrize("noisy", [True, False], ids=["noisy", "constant"])
    def test_dip_levels_equal_the_per_column_calls(self, noisy):
        from pcwgprobe.pipeline import _dip_levels

        rng = np.random.default_rng(3)
        t = rng.uniform(0.2, 1.0, (40, 241)) if noisy else np.full((40, 241), 0.93)
        baseline, threshold = [], []
        for row in t:
            top = np.quantile(row, 0.75)
            base = float(np.median(row[row >= top]))
            sigma = 1.4826 * float(np.median(np.abs(np.diff(row)))) / np.sqrt(2.0)
            baseline.append(base)
            threshold.append(base - max(3.0 * sigma, 1e-6))
        levels = _dip_levels(t)
        assert levels[0].tobytes() == np.array(baseline).tobytes()
        assert levels[1].tobytes() == np.array(threshold).tobytes()

    @staticmethod
    def exact_quadratic(x, y):
        """The least-squares quadratic's (a2, a1, a0), solved in rationals."""
        x, y = [Fraction(v) for v in x], [Fraction(v) for v in y]
        s = [sum(xi**k for xi in x) for k in range(5)]
        rows = [[s[i + j] for j in range(3)] + [sum(xi**i * yi for xi, yi in zip(x, y))]
                for i in range(3)]
        for i in range(3):
            for k in range(i + 1, 3):
                rows[k] = [a - rows[k][i] / rows[i][i] * b for a, b in zip(rows[k], rows[i])]
        c = [Fraction(0)] * 3
        for i in (2, 1, 0):
            c[i] = (rows[i][3] - sum(rows[i][j] * c[j] for j in range(i + 1, 3))) / rows[i][i]
        return [float(v) for v in c[::-1]]

    @pytest.mark.parametrize("noise_sigma, seed", [(0.0, None), (0.005, 11), (0.02, 3)])
    def test_dip_fits_equal_polyfit(self, default_cfg, te1, monkeypatch, noise_sigma, seed):
        # np.polyfit's own error reaches 5e-12 of a2 on the shallowest
        # windows, so it is met to 1e-12 of the largest coefficient, and the
        # rational solution to 1e-13 per coefficient
        from pcwgprobe import pipeline

        fits = []
        fit = pipeline._quadratic_fit
        monkeypatch.setattr(pipeline, "_quadratic_fit",
                            lambda x, y: fits.append((x, y, fit(x, y))) or fits[-1][2])
        extract_resonances(synthesize_map(**TestSynthesis.default_map(default_cfg, te1),
                                          noise_sigma=noise_sigma, seed=seed))
        assert len(fits) >= 40
        for x, y, coefficients in fits:
            reference = np.polyfit(x, y, 2)
            np.testing.assert_allclose(coefficients, reference, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(reference)))
            np.testing.assert_allclose(coefficients, self.exact_quadratic(x, y), rtol=1e-13,
                                       atol=0)

    def test_quadratic_fit_equals_polyfit_on_random_windows(self):
        from pcwgprobe.pipeline import _quadratic_fit

        rng = np.random.default_rng(8)
        for n in range(3, 12):
            for _ in range(20):
                x = (np.arange(n) - rng.integers(0, n)) * 0.25
                y = 0.3 + rng.uniform(0.1, 2.0) * (x - rng.uniform(-0.2, 0.2)) ** 2
                y += rng.normal(0.0, 0.01, n)
                coefficients = _quadratic_fit(x.tolist(), y.tolist())
                np.testing.assert_allclose(coefficients, np.polyfit(x, y, 2), rtol=1e-12,
                                           atol=0)
                np.testing.assert_allclose(coefficients, self.exact_quadratic(x, y),
                                           rtol=1e-13, atol=0)

    def test_constant_map_yields_no_resonances(self):
        lam = np.arange(1565.0, 1625.0, 0.25)
        tmap = TransmissionMap(lam, np.linspace(0.2, 0.5, 10),
                               np.full((10, lam.size), 0.93))
        assert extract_resonances(tmap) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_noise_saturates_without_overflow(self, small_setup, te1):
        taper, coupler, fiber = small_setup
        t = synthesize_map(taper, [te1], coupler, fiber, LAM_NM, LC_MM[:4], include_loss=True,
                           noise_sigma=6.5e307, seed=4).t
        assert set(np.unique(t)) <= {0.0, 1.0}

    def test_round_trip_recovers_injected_dips(self, small_setup, te1):
        taper, coupler, fiber = small_setup
        lam_step = 0.25
        noisy = main_branch(extract_resonances(
            synthesize_map(taper, [te1], coupler, fiber, LAM_NM, LC_MM, include_loss=True,
                           noise_sigma=0.005, seed=11)
        ))
        clean = main_branch(extract_resonances(
            synthesize_map(taper, [te1], coupler, fiber, LAM_NM, LC_MM, include_loss=True,
                           noise_sigma=0.0)
        ))
        clean_by_lc = {round(p.lc_mm, 9): p.lambda_min_nm for p in clean}
        assert len(noisy) >= 0.9 * len(clean) > 0
        for p in noisy:
            key = round(p.lc_mm, 9)
            if key in clean_by_lc:
                assert abs(p.lambda_min_nm - clean_by_lc[key]) <= lam_step

    def test_two_branch_map_labels_consistent(self, small_setup):
        taper, coupler, fiber = small_setup
        # two synthetic branches: contra (negative slope) and co (positive
        # slope, group index above the fiber's), well separated in lambda
        contra = linear_curve("A", omega_at=0.4061, slope=-0.25)
        co = linear_curve("B", omega_at=0.2168, slope=+0.25)
        lam = np.arange(1540.0, 1700.0, 0.25)
        lc = np.linspace(0.25, 0.38, 20)
        tmap = synthesize_map(taper, [contra, co], coupler, fiber,
                              wavelengths_nm=lam, lc_mm=lc, noise_sigma=0.005,
                              seed=3, include_loss=True)
        points = label_branches(extract_resonances(tmap), taper)
        te1_pts = [p for p in points if p.label == "TE-1"]
        te2_pts = [p for p in points if p.label == "TE-2"]
        assert len(te1_pts) >= 0.9 * len(lc)
        assert len(te2_pts) >= 0.9 * len(lc)
        # TE-1 dips drift to longer wavelength with thicker taper, TE-2 opposite
        s1 = np.polyfit([p.lc_mm for p in te1_pts],
                        [p.lambda_min_nm for p in te1_pts], 1)[0]
        s2 = np.polyfit([p.lc_mm for p in te2_pts],
                        [p.lambda_min_nm for p in te2_pts], 1)[0]
        assert s1 > 0 > s2

    def test_tracking_flags_ambiguity_and_opens_and_ends_tracks(self):
        # A drifts by 0.5 nm per column; B stops after column 2; C starts at
        # column 3 below A; column 4 holds a second dip inside A's jump bound
        lam = np.arange(1490.0, 1600.0, 0.25)
        lc = np.arange(6) * 0.1
        columns = [[1520.0 + 0.5 * i] + ([1560.0] if i < 3 else []) + ([1500.0] if i > 2 else [])
                   + ([1524.5] if i == 4 else []) for i in range(lc.size)]
        t = np.ones((lc.size, lam.size))
        for row, dips in zip(t, columns):
            for centre in dips:
                row -= 0.5 * np.exp(-0.5 * ((lam - centre) / 0.2) ** 2)
        points = extract_resonances(TransmissionMap(lam, lc[::-1], t[::-1]))  # scanned by l_c
        got = [(round(p.lc_mm, 9), p.branch, p.ambiguous) for p in points]
        assert got == [
            (0.0, 0, False), (0.0, 1, False),
            (0.1, 0, False), (0.1, 1, False),
            (0.2, 0, False), (0.2, 1, False),
            (0.3, 0, False), (0.3, 2, False),  # B has ended; C is new, after tracked A
            (0.4, 0, True), (0.4, 2, False), (0.4, 3, False),  # A takes the nearer dip
            (0.5, 0, False), (0.5, 2, False),  # the extra dip's track ends
        ]
        expected_lam = [1520.0, 1560.0, 1520.5, 1560.0, 1521.0, 1560.0, 1521.5, 1500.0,
                        1522.0, 1500.0, 1524.5, 1522.5, 1500.0]
        np.testing.assert_allclose([p.lambda_min_nm for p in points], expected_lam, atol=1e-9)
        assert all(p.label == "unassigned" for p in points)

    def test_extraction_deterministic(self, small_setup, te1):
        taper, coupler, fiber = small_setup
        tmap = synthesize_map(taper, [te1], coupler, fiber, LAM_NM,
                              np.linspace(0.25, 0.40, 8), include_loss=True,
                              noise_sigma=0.005, seed=5)
        a = extract_resonances(tmap)
        b = extract_resonances(tmap)
        # repr-level equality (plain == would choke on NaN widths)
        assert [repr(p.to_dict()) for p in a] == [repr(p.to_dict()) for p in b]


class TestReconstruction:
    def test_round_trip_beta_within_one_percent(self, small_setup, te1):
        taper, coupler, fiber = small_setup
        tmap = synthesize_map(taper, [te1], coupler, fiber, LAM_NM, LC_MM,
                              include_loss=True, noise_sigma=0.005, seed=21)
        points = label_branches(extract_resonances(tmap), taper)
        band_points = to_bandstructure(
            [p for p in points if p.label == "TE-1"], taper, fiber
        )
        assert len(band_points) >= 45
        for bp in band_points:
            beta_true = np.interp(bp.lambda_nm, te1.lambda_nm, te1.beta_rad_per_um)
            assert abs(bp.beta_rad_per_um - beta_true) / beta_true < 0.01

    def test_reconstructed_branch_has_negative_slope(self, small_setup, te1):
        taper, coupler, fiber = small_setup
        tmap = synthesize_map(taper, [te1], coupler, fiber, LAM_NM, LC_MM, include_loss=True)
        points = extract_resonances(tmap)
        band_points = to_bandstructure(points, taper, fiber)
        beta = np.array([b.beta_rad_per_um for b in band_points])
        omega = np.array([b.omega_rad_per_s for b in band_points])
        order = np.argsort(beta)
        assert np.polyfit(beta[order], omega[order], 1)[0] < 0

    def test_grid_refinement_invariance(self, small_setup, te1):
        taper, coupler, fiber = small_setup
        lc = np.linspace(0.25, 0.40, 8)
        betas = {}
        for step in (0.25, 0.125):
            lam = np.arange(1565.0, 1625.0 + 1e-9, step)
            tmap = synthesize_map(taper, [te1], coupler, fiber,
                                  wavelengths_nm=lam, lc_mm=lc, include_loss=True)
            pts = main_branch(extract_resonances(tmap))
            bps = to_bandstructure(pts, taper, fiber)
            betas[step] = {round(b.lc_mm, 9): b.beta_rad_per_um for b in bps}
        assert len(betas[0.25]) >= 7
        for key, b_coarse in betas[0.25].items():
            assert abs(b_coarse - betas[0.125][key]) / b_coarse < 0.002


class TestGapSweep:
    def test_interior_maximum_and_floor(self, te1):
        coupler = CouplerConfig()
        rows = gap_sweep(np.arange(250.0, 801.0, 25.0), coupler, FiberSpec(1.9), te1,
                         include_loss=True)
        gammas = np.array([r.gamma for r in rows])
        best = int(np.argmax(gammas))
        assert 0 < best < len(rows) - 1
        assert gammas[best] >= 0.95
        assert any(r.t_min < 0.01 for r in rows)

    def test_exponential_gap_law(self, te1):
        rows = gap_sweep(np.arange(250.0, 801.0, 25.0), CouplerConfig(),
                         FiberSpec(1.9), te1, include_loss=True)
        g = np.array([r.gap_nm for r in rows])
        log_kl = np.log([r.kappa_l for r in rows])
        fit = np.polyval(np.polyfit(g, log_kl, 1), g)
        rms = np.sqrt(np.mean((log_kl - fit) ** 2))
        assert rms / np.mean(np.abs(log_kl)) < 0.05

    def test_lossless_inference_matches_input(self, te1):
        coupler = CouplerConfig()
        fiber = FiberSpec(1.9)
        from pcwgprobe.bands import phase_match_crossing

        lam_star_um = phase_match_crossing(te1, fiber).lambda_nm * 1e-3
        rows = gap_sweep(np.arange(250.0, 801.0, 50.0), coupler, fiber, te1,
                         include_loss=False)
        for r in rows:
            k_in = coupler.kappa_perp(fiber, lam_star_um, gap_nm=r.gap_nm)
            assert abs(r.kappa_l - k_in * coupler.l_c_um) / (k_in * coupler.l_c_um) < 0.02

    @pytest.mark.parametrize("include_loss", [False, True])
    def test_equals_a_per_gap_reference(self, te1, include_loss):
        from pcwgprobe.bands import phase_match_crossing
        from pcwgprobe.coupling import contra_transmission
        from pcwgprobe.fiber import he11_neff
        from pcwgprobe.pipeline import (
            _GAP_SWEEP_POINTS,
            _GAP_SWEEP_SPAN_NM,
            GapSweepRow,
            _branch_beta_of_lambda,
        )

        coupler, fiber = CouplerConfig(), FiberSpec(1.9)
        gaps = np.array([0.0, 250.0, 475.0, 800.0, 3000.0])
        lam_star = phase_match_crossing(te1, fiber).lambda_nm
        lam_nm = np.linspace(lam_star - _GAP_SWEEP_SPAN_NM / 2, lam_star + _GAP_SWEEP_SPAN_NM / 2,
                             _GAP_SWEEP_POINTS)
        lam_um = lam_nm * 1e-3
        delta = 0.5 * (2.0 * np.pi * he11_neff(fiber, lam_um) / lam_um
                       - _branch_beta_of_lambda(te1, lam_nm))
        reference = []
        for g in gaps.tolist():
            kappa = coupler.kappa_perp(fiber, float(np.mean(lam_um)), g)
            t = contra_transmission(kappa, coupler.l_c_um, delta)[0]
            if include_loss:
                t = t * coupler.scattering_transmission(fiber.d_um, gap_nm=g)
            t_min, t_max = float(np.min(t)), float(np.max(t))
            ratio = min(max(1.0 - t_min / t_max, 0.0), 1.0 - 1e-15)
            reference.append(GapSweepRow(g, t_min, t_max, t_max - t_min,
                                         float(np.arctanh(np.sqrt(ratio)))))
        rows = gap_sweep(gaps, coupler, fiber, te1, include_loss=include_loss)
        assert repr(rows) == repr(reference)

    def test_large_gap_limit(self, te1):
        rows = gap_sweep(np.array([3000.0]), CouplerConfig(), FiberSpec(1.9), te1,
                         include_loss=True)
        assert rows[0].t_min > 0.99 * rows[0].t_max
        assert rows[0].t_max > 0.99
        assert rows[0].gamma < 0.01


class TestMapCsv:
    def test_round_trip_with_sidecar(self, tmp_path, small_setup, te1):
        taper, coupler, fiber = small_setup
        tmap = synthesize_map(taper, [te1], coupler, fiber, LAM_NM,
                              np.linspace(0.25, 0.35, 4), include_loss=True,
                              noise_sigma=0.005, seed=1)
        path = tmp_path / "map.csv"
        meta = tmp_path / "map.meta.json"
        tmap.to_csv(path, meta_path=meta)
        back = TransmissionMap.from_csv(path, meta_path=meta)
        np.testing.assert_array_equal(back.t, tmap.t)
        np.testing.assert_array_equal(back.wavelengths_nm, tmap.wavelengths_nm)
        assert back.meta["gap_nm"] == tmap.meta["gap_nm"]

    def test_bytes_equal_a_csv_writer_rendering(self, tmp_path):
        tmap = TransmissionMap([1565.0, 1565.25, 1565.5, 1565.75, 1566.0], [0.25, 1e22],
                               [[5e-324, 1e-300, 0.1, 1 / 3, 1.0], [1.0, 1 / 3, 0.1, 1e-300, 0.0]])
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["lc_mm\\lambda_nm"] + [repr(float(v)) for v in tmap.wavelengths_nm])
        for lc, row in zip(tmap.lc_mm, tmap.t):
            writer.writerow([repr(float(lc))] + [repr(float(v)) for v in row])
        tmap.to_csv(tmp_path / "map.csv")
        assert (tmp_path / "map.csv").read_bytes() == buf.getvalue().encode()
        assert b"\r\n1e+22,1.0," in buf.getvalue().encode()

    def test_truncated_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "lc_mm\\lambda_nm,1565.0,1565.25,1565.5\n"
            "0.2,0.9,0.9,0.9\n"
            "0.3,0.9,0.9\n"
        )
        with pytest.raises(MapFormatError) as err:
            TransmissionMap.from_csv(path)
        assert err.value.line == 3

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,1565.0\n0.2,0.9\n")
        with pytest.raises(MapFormatError) as err:
            TransmissionMap.from_csv(path)
        assert err.value.line == 1

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lc_mm\\lambda_nm,1565.0,1566.0\n0.2,abc,0.9\n")
        with pytest.raises(MapFormatError):
            TransmissionMap.from_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_reports_line_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text(
            "lc_mm\\lambda_nm,1565.0,1566.0,1567.0\n"
            "0.2,0.9,0.9,0.9\n"
            f"0.3,0.9,0.9,{cell}\n"
        )
        with pytest.raises(MapFormatError) as err:
            TransmissionMap.from_csv(path)
        assert (err.value.line, err.value.column) == (3, 4)

    def test_non_finite_wavelength_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("lc_mm\\lambda_nm,1565.0,nan\n0.2,0.9,0.9\n")
        with pytest.raises(MapFormatError) as err:
            TransmissionMap.from_csv(path)
        assert (err.value.line, err.value.column) == (1, 3)

    PLAIN = ("lc_mm\\lambda_nm,1565.0,1565.25,1565.5\n"
             "0.2,0.9,0.5,0.875\n"
             "0.3,0.25,0.125,1.0\n")

    @pytest.mark.parametrize("variant", {
        "quoted": lambda s: s.replace("0.5,", '"0.5",').replace("1565.25", '"1565.25"'),
        "blank lines": lambda s: s.replace("\n", "\n\n"),
        "crlf": lambda s: s.replace("\n", "\r\n"),
        "no final newline": lambda s: s.rstrip("\n"),
        "all of them": lambda s: s.replace("0.5,", '"0.5",').replace("\n", "\r\n\r\n"),
    }.items(), ids=lambda v: v[0])
    def test_reads_what_csv_reader_reads(self, tmp_path, variant):
        plain, path = tmp_path / "plain.csv", tmp_path / "variant.csv"
        plain.write_text(self.PLAIN, newline="")
        path.write_text(variant[1](self.PLAIN), newline="")
        want, back = TransmissionMap.from_csv(plain), TransmissionMap.from_csv(path)
        for name in ("wavelengths_nm", "lc_mm", "t"):
            assert getattr(back, name).tobytes() == getattr(want, name).tobytes()

    def test_cells_equal_a_per_cell_float_parse(self, tmp_path):
        # shortest reprs, 25 significant digits (which round on reading) and
        # other spellings float() accepts
        rng = np.random.default_rng(5)
        spell = [repr, lambda v: f"{v:.25g}", lambda v: f" {v:.17e}", lambda v: f"+{v:.12f} "]
        cells = [[spell[(i + j) % 4](float(v)) for j, v in enumerate(row)]
                 for i, row in enumerate(rng.uniform(0.0, 1.0, (7, 9)))]
        header = "lc_mm\\lambda_nm," + ",".join(repr(1565.0 + 0.25 * j) for j in range(8))
        path = tmp_path / "map.csv"
        path.write_text("\n".join([header] + [",".join(row) for row in cells]) + "\n")
        back = TransmissionMap.from_csv(path)
        expected = np.array([[float(c) for c in row] for row in cells])
        assert back.lc_mm.tobytes() == expected[:, 0].tobytes()
        assert back.t.tobytes() == expected[:, 1:].tobytes()

    @pytest.mark.parametrize("rows, line, column", [
        (["0.2,0.9,0.9,0.9", "0.3,0.9,abc,0.9", "0.4,nan,0.9,0.9"], 3, None),
        (["0.2,0.9,inf,0.9", "0.3,0.9,abc,0.9"], 2, 3),
        (["0.2,0.9,0.9,0.9", "0.3,0.9,0.9,0.9,0.9"], 3, 5),
        (["0.2,0.9,0.9,0.9", "", "0.3,0.9,0.9"], 4, 3),
        (["0.2", "0.3"], 2, 1),
    ])
    def test_first_bad_cell_is_named(self, tmp_path, rows, line, column):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["lc_mm\\lambda_nm,1565.0,1566.0,1567.0"] + rows) + "\n")
        with pytest.raises(MapFormatError) as err:
            TransmissionMap.from_csv(path)
        assert (err.value.line, err.value.column) == (line, column)

    @pytest.mark.parametrize("text, line", [("", 1), ("\n", 1), ("lc_mm\\lambda_nm,1.0,2.0\n\n", 2)])
    def test_empty_file_header_only_and_blank_body_rejected(self, tmp_path, text, line):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(MapFormatError) as err:
            TransmissionMap.from_csv(path)
        assert err.value.line == line

    def test_failed_write_leaves_old_files(self, tmp_path, monkeypatch):
        old = TransmissionMap([1565.0, 1566.0], [0.2], [[0.9, 0.8]], {"seed": 1})
        new = TransmissionMap([1565.0, 1566.0], [0.2], [[0.5, 0.4]], {"seed": 2})
        path, meta = tmp_path / "map.csv", tmp_path / "map.meta.json"
        old.to_csv(path, meta_path=meta)
        before = path.read_bytes(), meta.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("pcwgprobe.fileio.os.replace", fail)
        with pytest.raises(OSError):
            new.to_csv(path, meta_path=meta)
        assert (path.read_bytes(), meta.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["map.csv", "map.meta.json"]


def test_fiber_dispersion_consistency_with_detuning(small_setup, te1):
    # the dip of a synthesized single-column spectrum sits at the exact
    # phase-match wavelength of the composed dispersions
    taper, coupler, fiber = small_setup
    from pcwgprobe.bands import phase_match_crossing

    lc = np.array([0.30])
    d = float(taper.diameter_at(lc[0]))
    tmap = synthesize_map(taper, [te1], coupler, fiber, LAM_NM, lc, include_loss=True, n_sub=1)
    dip_lam = tmap.wavelengths_nm[int(np.argmin(tmap.t[0]))]
    pm = phase_match_crossing(te1, fiber.with_diameter(d))
    assert abs(dip_lam - pm.lambda_nm) < 0.5
