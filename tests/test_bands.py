import os
from dataclasses import replace

import numpy as np
import pytest

from pcwgprobe import config as cfgmod
from pcwgprobe.bands import (
    _LOCALIZATION_THRESHOLD,
    BandCurve,
    PCWaveguideSpec,
    PlaneWaveSolver,
    _basis,
    _defect_windows,
    _epsilon_table,
    _hole_factor,
    _syevr,
    bulk_bands,
    defect_profile,
    find_branch,
    local_gap,
    phase_match_crossing,
    thinning_shift,
    waveguide_bands,
)
from pcwgprobe.coupling import CouplerConfig, WaveguideProfile, lateral_profile
from pcwgprobe.errors import (
    BandCoverageError,
    ConvergenceError,
    EigensolverError,
    NoDefectModeError,
)
from pcwgprobe.fiber import FiberSpec, ModeField
from pcwgprobe.slab import SlabSpec, slab_effective_index

LAM_REF_UM = cfgmod.DEFAULTS["lattice"]["lam_ref_um"]


def bulk_spec(**kw):
    return PCWaveguideSpec(grading=(), supercell_rows=1, **kw)


def lowest_states(solver, beta, n=42):
    """The states of the lowest ``n`` merged eigenvalues, by sector: a
    window from 0 to just above the n-th one."""
    top = solver.solve_k(beta, n)[-1]
    return solver.solve_k(beta, window=(0.0, top * (1.0 + 1e-9)))


def table_of(spec):
    """The epsilon table and the index of its G = 0 entry."""
    _, mz, mx = _basis(spec)
    return _epsilon_table(spec, mz, mx), (2 * mz[-1], 2 * mx[-1])


class TestEpsilonFourier:
    def test_uniform_lattice_when_r_zero(self):
        spec = bulk_spec(r_frac=0.0)
        table, zero = table_of(spec)
        assert table[zero] == pytest.approx(spec.eps_bg)
        table[zero] = 0.0
        assert np.max(np.abs(table)) < 1e-14

    def test_zero_order_is_area_average(self):
        spec = bulk_spec()
        f = np.sum(np.pi * spec.row_radii_um()**2) / (spec.lam_z_um * spec.width_um)
        expected = f * 1.0 + (1.0 - f) * spec.eps_bg
        table, zero = table_of(spec)
        assert table[zero] == pytest.approx(expected, rel=1e-12)

    def test_table_real_and_even(self):
        table, _ = table_of(PCWaveguideSpec())
        assert table.dtype == np.float64
        np.testing.assert_array_equal(table, table[::-1, :])
        np.testing.assert_array_equal(table, table[:, ::-1])


def assert_bits_equal(a, b):
    np.testing.assert_array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


class TestJ1:
    # the hole factor's J1 is Cephes j1, the code scipy.special.j1 runs
    def test_equals_scipy_bit_for_bit_on_a_dense_grid(self):
        from scipy.special import j1

        from pcwgprobe import bands

        five = [np.nextafter(5.0, 0.0), 5.0, np.nextafter(5.0, 6.0)]
        x = np.concatenate([np.linspace(0.0, 60.0, 600_001), five])
        assert_bits_equal(bands._j1(x), j1(x))

    @pytest.mark.parametrize("pw_per_cell", [7, 13])
    def test_equals_scipy_on_every_epsilon_table_argument(self, default_spec, pw_per_cell,
                                                          monkeypatch):
        from scipy.special import j1

        from pcwgprobe import bands

        spec = replace(default_spec, pw_per_cell=pw_per_cell)
        seen, ours = [], bands._j1
        monkeypatch.setattr(bands, "_j1", lambda x: seen.append(x) or ours(x))
        table_of(spec)
        x = np.concatenate(seen)
        assert x.max() > 2.3 * pw_per_cell  # qR reaches about 17 and 34
        assert_bits_equal(ours(x), j1(x))


class TestBulkBands:
    def test_empty_lattice_exact(self):
        spec = bulk_spec(r_frac=0.0)
        solver = PlaneWaveSolver(spec)
        for bn in np.linspace(0.025, 0.5, 20):
            beta = bn * 2 * np.pi / spec.lam_z_um
            omega = solver.solve_k(beta, 6)
            kg = solver.g.copy()
            kg[:, 0] += beta
            exact = np.sort(np.hypot(kg[:, 0], kg[:, 1]))[:6] * spec.lam_z_um / (
                2 * np.pi * spec.n_eff
            )
            np.testing.assert_allclose(omega, exact, rtol=1e-9)

    def test_band_symmetry_in_beta(self):
        solver = PlaneWaveSolver(bulk_spec())
        beta = 0.37 * 2 * np.pi / 0.5
        np.testing.assert_allclose(
            solver.solve_k(beta, 8), solver.solve_k(-beta, 8), rtol=0, atol=1e-10
        )

    def test_frequencies_real_nonnegative_sorted(self):
        res = bulk_bands(bulk_spec(), num_bands=5)
        for curve in res.curves:
            assert np.all(curve.omega_norm >= 0)
        stack = np.vstack([c.omega_norm for c in res.curves])
        assert np.all(np.diff(stack, axis=0) >= -1e-12)

    def test_gamma_x_stop_band_exists(self):
        res = bulk_bands(bulk_spec())
        assert res.gap_norm is not None
        lo, hi = res.gap_norm
        assert 0 < lo < hi

    def test_local_gap_brackets_te1_frequency(self, te1, default_spec):
        # the k-resolved stop band at the phase-matching point contains
        # the operating frequency near L_z/lambda ~ 0.3125 (1600 nm band)
        bulk = bulk_bands(default_spec.bulk(), num_bands=2)
        pm = phase_match_crossing(te1, FiberSpec(1.5))
        beta_norm = pm.beta_rad_per_um * default_spec.lam_z_um / (2 * np.pi)
        lo, hi = local_gap(bulk, beta_norm)
        assert lo < pm.omega_norm < hi

    def test_cutoff_convergence_band_edges(self):
        res7 = bulk_bands(bulk_spec(pw_per_cell=7), num_bands=2)
        res13 = bulk_bands(bulk_spec(pw_per_cell=13), num_bands=2)
        for a, b in zip(res7.gap_norm, res13.gap_norm):
            assert abs(a - b) / b < 0.005

    def test_rejects_graded_spec(self):
        with pytest.raises(ValueError):
            bulk_bands(PCWaveguideSpec())


class TestWaveguideBands:
    def test_te1_negative_slope_throughout(self, te1):
        assert np.all(np.diff(te1.omega_norm) < 0)
        assert np.all(te1.group_index() < 0)

    def test_te1_parity_even_odd_counterpart_above(self, te1, te1_odd):
        assert te1.parity == "even"
        assert te1_odd.parity == "odd"
        common = np.intersect1d(
            np.round(te1.beta_norm, 9), np.round(te1_odd.beta_norm, 9)
        )
        assert common.size >= 5
        for b in common:
            w_even = te1.omega_norm[np.round(te1.beta_norm, 9) == b][0]
            w_odd = te1_odd.omega_norm[np.round(te1_odd.beta_norm, 9) == b][0]
            assert w_odd > w_even

    def test_defect_state_localization(self, default_spec, te1):
        solver = PlaneWaveSolver(default_spec)
        beta_norm = 0.42
        omega, vecs = lowest_states(solver, beta_norm * 2 * np.pi / default_spec.lam_z_um)["even"]
        target = float(np.interp(beta_norm, te1.beta_norm, te1.omega_norm))
        j = int(np.argmin(np.abs(omega - target)))
        assert solver.localization(vecs[:, j]) > 0.5

    def test_supercell_doubling_converged(self):
        kp = np.array([0.40, 0.44, 0.48])
        r13 = waveguide_bands(PCWaveguideSpec(supercell_rows=13), kpath_norm=kp)
        r27 = waveguide_bands(PCWaveguideSpec(supercell_rows=27), kpath_norm=kp)
        c13, c27 = find_branch(r13.curves, "TE-1"), find_branch(r27.curves, "TE-1")
        common, i13, i27 = np.intersect1d(
            np.round(c13.beta_norm, 9), np.round(c27.beta_norm, 9), return_indices=True
        )
        assert common.size >= 2
        rel = np.abs(c13.omega_norm[i13] - c27.omega_norm[i27]) / c27.omega_norm[i27]
        assert np.max(rel) < 0.002

    def test_no_defect_mode_is_signaled(self):
        # grading equal to the bulk radius produces no defect
        spec = PCWaveguideSpec(grading=(0.35, 0.35, 0.35))
        with pytest.raises(NoDefectModeError):
            waveguide_bands(spec, kpath_norm=np.linspace(0.38, 0.48, 5))

    def test_defect_profile_parity_and_norm(self, default_spec, default_dispersive, te1,
                                            te1_odd):
        x, u = defect_profile(default_spec, te1, 0.40, default_dispersive)
        dx = float(np.mean(np.diff(x)))
        assert np.sum(np.abs(u) ** 2) * dx == pytest.approx(1.0, abs=1e-9)
        sym = np.sum(np.abs(u + u[::-1]) ** 2)
        anti = np.sum(np.abs(u - u[::-1]) ** 2)
        assert sym > 100 * anti  # even branch
        xo, uo = defect_profile(default_spec, te1_odd, 0.40, default_dispersive)
        sym_o = np.sum(np.abs(uo + uo[::-1]) ** 2)
        anti_o = np.sum(np.abs(uo - uo[::-1]) ** 2)
        assert anti_o > 100 * sym_o  # odd branch


class TestThinning:
    def test_ordering_and_zero_cases(self, default_spec, default_thinning):
        from pcwgprobe.bands import thinning_shift
        from pcwgprobe.errors import ModeCutoffError
        from pcwgprobe.slab import SlabSpec

        slab = SlabSpec(340.0)
        shift = default_thinning
        assert shift["TE-2"] > shift["TE-1"] > 0

        same = thinning_shift(default_spec, slab, 340.0, LAM_REF_UM)
        assert same == {"TE-1": 0.0, "TE-2": 0.0}

        with pytest.raises(ModeCutoffError):
            thinning_shift(default_spec, slab, 140.0, LAM_REF_UM)

    @pytest.mark.parametrize("spec", [
        bulk_spec(r_frac=0.25, pw_per_cell=7, n_eff=2.2),
        bulk_spec(r_frac=0.30, pw_per_cell=9, n_eff=3.0),
        bulk_spec(r_frac=0.40, pw_per_cell=7, n_eff=2.6),
    ] + [PCWaveguideSpec().bulk().with_n_eff(slab_effective_index(SlabSpec(t_nm), LAM_REF_UM, 1))
         for t_nm in (340.0, 300.0)])  # the TE-2 edges of the default thinning
    def test_valence_edge_is_band_1_at_x(self, spec):
        # band 1 rises monotonically along Gamma-X: the TE-2 edge needs one solve
        path_max = float(np.max(bulk_bands(spec, num_bands=2).curves[0].omega_norm))
        assert PlaneWaveSolver(spec).solve_k(np.pi / spec.lam_z_um, 2)[0] == path_max


class TestBandCurve:
    def test_group_index_of_linear_branch(self):
        lam_z = 0.5
        beta_norm = np.linspace(0.3, 0.4, 11)
        omega = 0.5 - 0.25 * beta_norm  # n_g = d beta / d omega = -4
        curve = BandCurve("x", beta_norm * 2 * np.pi / lam_z, omega, lam_z)
        np.testing.assert_allclose(curve.group_index(), -4.0, rtol=1e-9)

    def test_json_schema_round_trip(self, te1):
        data = te1.to_dict()
        assert set(data) == {"label", "parity", "samples"}
        assert set(data["samples"][0]) == {
            "beta_rad_per_um",
            "omega_norm",
            "lambda_nm",
            "n_g",
        }
        back = BandCurve.from_dict(data, te1.lam_z_um)
        np.testing.assert_allclose(back.omega_norm, te1.omega_norm)
        assert back.parity == te1.parity

    def test_requires_ordered_beta(self):
        with pytest.raises(ValueError):
            BandCurve("x", np.array([1.0, 0.5]), np.array([0.3, 0.31]), 0.5)


class TestPhaseMatch:
    def test_synthetic_crossing(self):
        # branch omega = 0.40 - 0.25 b, fiber n_eff constant 1.30:
        # crossing at b = 0.40/(1/1.3 + 0.25)
        lam_z = 0.5
        beta_norm = np.linspace(0.25, 0.5, 26)
        omega = 0.40 - 0.25 * beta_norm
        curve = BandCurve("x", beta_norm * 2 * np.pi / lam_z, omega, lam_z)
        fiber = FiberSpec(1.5, core_index=1.444)

        from pcwgprobe.fiber import he11_neff

        pm = phase_match_crossing(curve, fiber)
        lam_um = pm.lambda_nm * 1e-3
        n_f = he11_neff(fiber, np.array([lam_um]))[0]
        beta_fiber = 2 * np.pi * n_f / lam_um
        assert pm.beta_rad_per_um == pytest.approx(beta_fiber, rel=2e-3)

    def test_no_crossing_raises(self):
        lam_z = 0.5
        beta_norm = np.linspace(0.25, 0.5, 10)
        omega = np.full(10, 0.9) - 0.1 * beta_norm  # far above any fiber line
        curve = BandCurve("x", beta_norm * 2 * np.pi / lam_z, omega, lam_z)
        with pytest.raises(BandCoverageError):
            phase_match_crossing(curve, FiberSpec(1.5))


class TestSpecValidation:
    def test_overlapping_holes_rejected(self):
        with pytest.raises(ValueError):
            PCWaveguideSpec(r_frac=0.49, lam_x_nm=520.0, lam_z_nm=500.0)

    def test_even_supercell_rejected(self):
        with pytest.raises(ValueError):
            PCWaveguideSpec(supercell_rows=16)

    def test_too_small_supercell_rejected(self):
        with pytest.raises(ValueError):
            PCWaveguideSpec(grading=(0.25, 0.3, 0.32, 0.34), supercell_rows=9)


def complex_theta(spec, beta):
    """Theta in the full plane-wave basis, built the way the solver did
    before the mirror reduction: complex structure phases, one Hermitian
    matrix."""
    g, mz, mx = _basis(spec)
    dmz = np.arange(-2 * mz[-1], 2 * mz[-1] + 1)
    dmx = np.arange(-2 * mx[-1], 2 * mx[-1] + 1)
    DZ, DX = np.meshgrid(
        dmz * 2 * np.pi / spec.lam_z_um, dmx * 2 * np.pi / spec.width_um, indexing="ij"
    )
    q = np.hypot(DZ, DX)
    table = np.where(q <= 1e-12, spec.eps_bg, 0.0).astype(complex)
    for r_um, x in zip(spec.row_radii_um(), spec.row_positions_um()):
        area = spec.lam_z_um * spec.width_um
        table += (1 - spec.eps_bg) * _hole_factor(q, r_um, area) * np.exp(-1j * DX * x)
    iz, ix = np.divmod(np.arange(g.shape[0]), mx.size)
    eps = table[iz[:, None] - iz[None, :] + 2 * mz[-1], ix[:, None] - ix[None, :] + 2 * mx[-1]]
    eta = np.linalg.inv(eps)
    kg = g + np.array([beta, 0.0])
    theta = (kg @ kg.T) * 0.5 * (eta + eta.conj().T)
    return 0.5 * (theta + theta.conj().T)


class TestSectorSolve:
    @pytest.mark.parametrize("beta_norm", [0.30, 0.41, 0.50])
    def test_sectors_match_full_complex_operator(self, default_spec, beta_norm):
        import scipy.linalg

        beta = beta_norm * 2 * np.pi / default_spec.lam_z_um
        vals = scipy.linalg.eigh(
            complex_theta(default_spec, beta), subset_by_index=(0, 41), eigvals_only=True
        )
        full = np.sqrt(vals) * default_spec.lam_z_um / (2 * np.pi)
        solver = PlaneWaveSolver(default_spec)
        np.testing.assert_allclose(solver.solve_k(beta, 42), full, rtol=1e-12, atol=0)
        states = lowest_states(solver, beta)
        split = np.sort(np.concatenate([states["even"][0], states["odd"][0]]))
        np.testing.assert_allclose(split, full, rtol=1e-12, atol=0)
        assert [v.shape[0] for _, v in states.values()] == [364, 357]

    def test_fixed_index_outputs_equal_complex_solver(self, default_spec, default_thinning):
        # reference values of the complex full-basis solver (same spec)
        bulk = bulk_bands(default_spec.bulk())
        np.testing.assert_allclose(
            bulk.gap_norm, (0.2036085020153604, 0.2844247073689588), rtol=1e-10
        )
        np.testing.assert_allclose(
            [c.omega_norm[20] for c in bulk.curves],
            [0.11767514363475354, 0.3655819742099958, 0.563502097256742,
             0.5704357597558801, 0.5893777296229562, 0.7245462146517634],
            rtol=1e-10,
        )
        res = waveguide_bands(default_spec, kpath_norm=np.linspace(0.30, 0.50, 26))
        expected = {
            "TE-1": [0.3325384326185176, 0.2922412243754883,
                     0.2743203382496572, 0.27087375571139255],
            "TE-1-odd": [0.3417052207329587, 0.30233083212737466,
                         0.2846133432428801, 0.28170560947575546],
        }
        for label, omega in expected.items():
            curve = find_branch(res.curves, label)
            assert curve.beta_norm.size == 26
            np.testing.assert_allclose(curve.omega_norm[[0, 13, 21, 25]], omega, rtol=1e-10)
        shift = default_thinning
        assert shift["TE-1"] == pytest.approx(0.00676761159380856, rel=1e-10)
        assert shift["TE-2"] == pytest.approx(0.07292320983276274, rel=1e-10)

    def test_lateral_fwhm_equals_complex_solver(self, default_spec, default_dispersive, te1):
        # criterion 10's geometry at the phase-match point of the complex solver
        beta, lam_nm = 4.503143398584199, 1613.9727459194082
        x, u = defect_profile(default_spec, te1, beta * default_spec.lam_z_um / (2 * np.pi),
                              default_dispersive)
        assert np.isrealobj(u)
        wg = WaveguideProfile(x_um=x, u=u, beta_rad_per_um=beta, lam_um=lam_nm * 1e-3,
                              slab_t_um=0.34, eps_bg=default_spec.n_eff**2)
        fiber, coupler = FiberSpec(1.0), CouplerConfig()
        result = lateral_profile(
            ModeField(fiber, lam_nm * 1e-3), wg, 400.0, coupler.l_c_um,
            np.linspace(-4.0, 4.0, 81),
            kappa_at_center=coupler.kappa_perp(fiber, lam_nm * 1e-3, 400.0),
        )
        assert result.fwhm_um == pytest.approx(2.4771932421995153, rel=1e-10)

    def test_sensitivity_matches_central_difference(self, default_spec):
        kpath = np.linspace(0.30, 0.50, 26)[14:]
        te1 = find_branch(waveguide_bands(default_spec, kpath_norm=kpath).curves, "TE-1")
        h = 1e-5
        solver, up, down = (
            PlaneWaveSolver(default_spec.with_n_eff(default_spec.n_eff * f))
            for f in (1.0, 1.0 + h, 1.0 - h)
        )
        for beta_norm in (0.42, 0.46, 0.468, 0.5):
            beta = beta_norm * 2 * np.pi / default_spec.lam_z_um
            omega, vecs = lowest_states(solver, beta)["even"]
            j = int(np.argmin(np.abs(omega - np.interp(beta_norm, te1.beta_norm, te1.omega_norm))))
            log_omega = []
            for other in (up, down):
                om, vv = lowest_states(other, beta)["even"]
                log_omega.append(np.log(om[np.argmax(np.abs(vv.T @ vecs[:, j]))]))
            s_fd = -(log_omega[0] - log_omega[1]) / (np.log(1.0 + h) - np.log(1.0 - h))
            s_hf = solver.sensitivity(beta, omega[j], vecs[:, j])
            assert 0.5 < s_hf < 1.0
            assert s_hf == pytest.approx(s_fd, abs=1e-4)

    def test_fixed_index_bands_take_no_sensitivity(self, default_spec, monkeypatch):
        def fail(*args):
            raise AssertionError("sensitivity called without a dispersive index")

        monkeypatch.setattr(PlaneWaveSolver, "sensitivity", fail)
        res = waveguide_bands(default_spec, kpath_norm=np.linspace(0.38, 0.48, 5))
        assert np.isfinite(find_branch(res.curves, "TE-1").omega_norm).all()

    def test_te1_sample_at_the_avoided_crossing(self, te1):
        # beta_norm 0.468 sits at an avoided crossing of TE-1 with another
        # even state; a finite-step sensitivity mixed the two there
        at = np.isclose(te1.beta_norm, 0.468)
        assert at.sum() == 1
        assert te1.lambda_nm[at][0] == pytest.approx(1785.2, abs=0.5)


def sector_blocks(solver, beta):
    """The even and odd Theta blocks at beta by the reference formula
    Theta = K_z eta K_z + K_x eta' K_x in the even basis, eta' the other
    sector's eta (zero on the m = 0 rows for the odd one)."""
    (_, eta_e, _), (pos, eta_o_compact, _) = solver._sectors["even"], solver._sectors["odd"]
    odd = np.ix_(pos, pos)
    eta_o = np.zeros_like(eta_e)
    eta_o[odd] = eta_o_compact
    kz = solver._gz + beta
    kzz, gxx = np.outer(kz, kz), np.outer(solver._gx, solver._gx)
    return {"even": kzz * eta_e + gxx * eta_o, "odd": (kzz * eta_o + gxx * eta_e)[odd]}


class TestSolverSetUp:
    def test_hole_factor_once_per_distinct_radius(self, default_spec, monkeypatch):
        from pcwgprobe import bands

        calls, factor = [], bands._hole_factor
        monkeypatch.setattr(bands, "_hole_factor", lambda *a: calls.append(a) or factor(*a))
        PlaneWaveSolver(default_spec)
        assert len(calls) == 4  # 17 rows, 4 radii

    def test_sectors_equal_the_gathered_formula(self, default_spec):
        # the sector blocks as built with boolean-mask odd blocks and a
        # zero-padded odd eta in the even basis
        from scipy.linalg import lapack

        solver = PlaneWaveSolver(default_spec)
        p, px = solver._mz[-1], solver._mx[-1]
        table = _epsilon_table(default_spec, solver._mz, solver._mx)
        iz, m = np.divmod(np.arange(solver._mz.size * (px + 1)), px + 1)
        dz = iz[:, None] - iz[None, :] + 2 * p
        direct = table[dz, m[:, None] - m[None, :] + 2 * px]
        mirrored = table[dz, m[:, None] + m[None, :] + 2 * px]
        w = np.where(m > 0, 1.0, np.sqrt(0.5))
        odd = np.ix_(m > 0, m > 0)

        def spd(eps):
            inv = lapack.dpotri(lapack.dpotrf(eps)[0])[0]
            return np.triu(inv) + np.triu(inv, 1).T

        eta_o = np.zeros((m.size, m.size))
        eta_o[odd] = spd((direct - mirrored)[odd])
        eta_e = spd(np.outer(w, w) * (direct + mirrored))
        gxx = np.outer(solver._gx, solver._gx)
        expected = {"even": (eta_e, gxx * eta_o), "odd": (eta_o[odd], (gxx * eta_e)[odd])}
        for parity, (eta, x_term) in expected.items():
            _, got_eta, got_x = solver._sectors[parity]
            assert np.array_equal(got_eta, eta) and np.array_equal(got_x, x_term)
            assert got_eta.flags.c_contiguous  # the layout the matrix-vector products had


class TestWindowSolve:
    def test_window_states_equal_the_lowest_42_inside_it(self, default_spec):
        import scipy.linalg

        kpath = np.linspace(0.30, 0.50, 26)  # the default path
        _, windows = _defect_windows(default_spec, kpath)
        solver = PlaneWaveSolver(default_spec)
        for bn, (lo, hi) in zip(kpath, windows):
            beta = bn * 2 * np.pi / default_spec.lam_z_um
            states = solver.solve_k(beta, window=(lo, hi))
            for parity, theta in sector_blocks(solver, beta).items():
                vals, ref = scipy.linalg.eigh(theta, subset_by_index=(0, 41))
                om_ref = np.sqrt(vals) * default_spec.lam_z_um / (2 * np.pi)
                inside = (om_ref > lo) & (om_ref < hi)
                omega, vecs = states[parity]
                assert omega.size == inside.sum() > 0
                np.testing.assert_allclose(omega, om_ref[inside], rtol=1e-12, atol=0)
                overlap = np.abs(np.sum(vecs * ref[:, inside], axis=0))
                np.testing.assert_allclose(overlap, 1.0, rtol=0, atol=1e-10)

    def test_factored_blocks_equal_the_reference_formula(self, default_spec, monkeypatch):
        from pcwgprobe import bands

        kpath = np.linspace(0.30, 0.50, 26)  # the default path
        _, windows = _defect_windows(default_spec, kpath)
        solver = PlaneWaveSolver(default_spec)
        factored = []  # copies: dsyevr overwrites Theta

        def record(a, bounds=None, count=None, query=False):
            if not query:  # not LAPACK's workspace query
                factored.append(a.copy())
            return _syevr(a, bounds, count, query)

        monkeypatch.setattr(bands, "_syevr", record)
        for bn, window in zip(kpath, windows):
            beta = bn * 2 * np.pi / default_spec.lam_z_um
            factored.clear()
            solver.solve_k(beta, window=window)
            ref = sector_blocks(solver, beta)
            assert len(factored) == 2
            for theta, parity in zip(factored, ("even", "odd")):
                assert np.array_equal(theta, ref[parity])

    @pytest.mark.parametrize("one_state", [False, True])
    def test_window_vectors_own_their_memory(self, default_spec, one_state):
        # a view into LAPACK's n x n workspace would keep it alive as long
        # as any kept column
        beta = 0.42 * 2 * np.pi / default_spec.lam_z_um
        _, (window,) = _defect_windows(default_spec, [0.42])
        solver = PlaneWaveSolver(default_spec)
        states = solver.solve_k(beta, window=window)
        if one_state:  # a single column is C- and F-contiguous at once
            w = states["even"][0][0]
            states = solver.solve_k(beta, window=(w * (1 - 1e-9), w * (1 + 1e-9)))
            assert states["even"][1].shape[1] == 1
        for _, vecs in states.values():
            assert vecs.base is None or vecs.flags.owndata

    def test_eps_block_not_positive_definite_raises(self, monkeypatch):
        import pcwgprobe.bands as bands

        table = bands._epsilon_table
        monkeypatch.setattr(bands, "_epsilon_table", lambda *args: -table(*args))
        with pytest.raises(EigensolverError, match="not positive definite"):
            PlaneWaveSolver(PCWaveguideSpec())

    def test_eigenvector_residual_check_raises(self, default_spec):
        beta = 0.42 * 2 * np.pi / default_spec.lam_z_um
        _, (window,) = _defect_windows(default_spec, [0.42])
        solver = PlaneWaveSolver(default_spec)
        # eigh reads one triangle of Theta; a corrupted other triangle is
        # seen only by the residual
        rows, eta, x_term = solver._sectors["even"]
        solver._sectors["even"] = (rows, eta + np.triu(1e-3 * np.abs(eta), 1), x_term)
        with pytest.raises(EigensolverError, match="residual"):
            solver.solve_k(beta, window=window)

    @pytest.mark.parametrize("window", [(0.3, 0.3), (0.31, 0.3)])
    def test_empty_window_raises(self, default_spec, window):
        solver = PlaneWaveSolver(default_spec)
        with pytest.raises(EigensolverError, match="eigensolve failed .*empty"):
            solver.solve_k(0.42 * 2 * np.pi / default_spec.lam_z_um, window=window)

    def test_binding_equals_scipy_eigh_bit_for_bit(self, default_spec):
        # the window solves, and the lowest-count solves of the supercell (42
        # states) and of the bulk bands and the thinning edge (2 and 6)
        import scipy.linalg

        kpath = np.linspace(0.30, 0.50, 26)[::5]  # on the default path
        _, windows = _defect_windows(default_spec, kpath)
        solver, bulk = PlaneWaveSolver(default_spec), PlaneWaveSolver(default_spec.bulk())
        to_omega = default_spec.lam_z_um / (2 * np.pi)
        for bn, window in zip(kpath, windows):
            beta = bn * 2 * np.pi / default_spec.lam_z_um
            lo, hi = (np.asarray(window) / to_omega) ** 2
            for theta in sector_blocks(solver, beta).values():
                ref_vals, ref_vecs = scipy.linalg.eigh(theta, subset_by_value=(lo, hi))
                vals, vecs = _syevr(theta.copy(), (lo, hi))
                assert vals.size > 0
                assert np.array_equal(vals, ref_vals) and np.array_equal(vecs, ref_vecs)
            for blocks, count in ((solver, 42), (bulk, 2), (bulk, 6)):
                for theta in sector_blocks(blocks, beta).values():
                    ref = scipy.linalg.eigh(theta, eigvals_only=True,
                                            subset_by_index=(0, count - 1))
                    vals, vecs = _syevr(theta.copy(), count=count)
                    assert vecs is None and np.array_equal(vals, ref)

    @pytest.mark.parametrize("num_bands", [0, -1])
    def test_no_bands_raises_before_lapack(self, default_spec, num_bands, capfd):
        # LAPACK reports an illegal count on stderr; the solver rejects it first
        solver = PlaneWaveSolver(default_spec.bulk())
        with pytest.raises(EigensolverError, match="eigensolve failed .*at least 1"):
            solver.solve_k(2.0, num_bands)
        assert capfd.readouterr().err == ""

    def test_binding_checks_the_capsule_signature(self):
        import ctypes

        from scipy.linalg import cython_lapack

        from pcwgprobe.bands import _DSYEVR_SIGNATURE, _bind_dsyevr

        assert _bind_dsyevr(cython_lapack.__pyx_capi__["dsyevr"]) is not None
        new = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p,
                                ctypes.c_void_p)(("PyCapsule_New", ctypes.pythonapi))
        target = ctypes.c_int()  # a valid pointer that is never called
        for wrong in (_DSYEVR_SIGNATURE.replace("int *", "long *"),  # 64-bit counts
                      _DSYEVR_SIGNATURE.replace(", int *)", ")"),  # 20 parameters
                      _DSYEVR_SIGNATURE.replace("double *", "float *")):
            name = wrong.encode()  # the capsule keeps only a pointer to its name
            with pytest.raises(EigensolverError, match="signature"):
                _bind_dsyevr(new(ctypes.addressof(target), name, None))

    def test_lowest_eigenvalue_check_raises(self, default_spec):
        solver = PlaneWaveSolver(default_spec.bulk())
        solver._sectors = {parity: (rows, -eta, -x_term)
                           for parity, (rows, eta, x_term) in solver._sectors.items()}
        with pytest.raises(EigensolverError, match="not positive semi-definite"):
            solver.solve_k(2.0, 6)


class TestSectorSelection:
    """A caller that reads one mirror sector solves only that one."""

    @pytest.mark.parametrize("t_nm", [340.0, 300.0])  # both thicknesses of thinning_shift
    def test_even_only_te1_equals_the_two_sector_one(self, default_spec, t_nm):
        from pcwgprobe.bands import _THINNING_KPATH
        from pcwgprobe.slab import slab_effective_index

        spec = default_spec.with_n_eff(slab_effective_index(SlabSpec(t_nm), LAM_REF_UM, 0))
        both = waveguide_bands(spec, kpath_norm=_THINNING_KPATH)
        even = waveguide_bands(spec, kpath_norm=_THINNING_KPATH, parities=("even",))
        assert {c.parity for c in even.curves} == {"even"}
        for name in ("beta_rad_per_um", "omega_norm"):
            assert np.array_equal(getattr(find_branch(even.curves, "TE-1"), name),
                                  getattr(find_branch(both.curves, "TE-1"), name))

    def test_thinning_and_profile_skip_the_unread_sector(self, default_spec, default_dispersive,
                                                          te1, monkeypatch):
        from pcwgprobe import bands

        calls = []  # (rows, windowed) of every eigensolve

        def record(a, bounds=None, count=None, query=False):
            if not query:  # not LAPACK's workspace query
                calls.append((a.shape[0], bounds is not None))
            return _syevr(a, bounds, count, query)

        monkeypatch.setattr(bands, "_syevr", record)
        thinning_shift(default_spec, SlabSpec(340.0), 300.0, LAM_REF_UM)
        assert not any(rows == 357 for rows, _ in calls)  # the odd supercell block
        assert sum(windowed for _, windowed in calls) == 2 * 13  # one even solve per k
        calls.clear()
        defect_profile(default_spec, te1, 0.358, default_dispersive)
        assert [rows for rows, windowed in calls if windowed] == [364]

    @pytest.mark.parametrize("beta_norm", [0.358, 0.40])
    def test_profile_equals_the_state_of_a_two_sector_solve(self, default_spec, default_dispersive,
                                                            te1, te1_odd, beta_norm, monkeypatch):
        one = [defect_profile(default_spec, c, beta_norm, default_dispersive)
               for c in (te1, te1_odd)]
        solve_k = PlaneWaveSolver.solve_k  # every call solves both sectors
        monkeypatch.setattr(PlaneWaveSolver, "solve_k", lambda self, beta, num_bands=None,
                            window=None, parities=None: solve_k(self, beta, num_bands, window))
        for (x, u), curve in zip(one, (te1, te1_odd)):
            x2, u2 = defect_profile(default_spec, curve, beta_norm, default_dispersive)
            assert np.array_equal(x, x2) and np.array_equal(u, u2)


class TestProbeState:
    """The lateral probe reads TE-1: the state defect_profile hands to
    field_profile_x is a defect state by waveguide_bands' rule, at the
    curve's frequency."""

    @pytest.mark.parametrize("at", ["beta_norm 0.358", "default phase match"])
    def test_probe_state_is_on_the_te1_branch(self, default_cfg, default_spec, default_dispersive,
                                              te1, at, monkeypatch):
        beta_norm = 0.358
        if at == "default phase match":
            fiber = cfgmod.build_lateral_probe(default_cfg)[0]
            pm = phase_match_crossing(te1, fiber)
            beta_norm = pm.beta_rad_per_um * default_spec.lam_z_um / (2 * np.pi)
        windows, profiles = [], []  # (solver, states) of window solves; (solver, vec)
        solve_k, field_profile_x = PlaneWaveSolver.solve_k, PlaneWaveSolver.field_profile_x

        def record_solve(self, beta, num_bands=None, window=None, parities=("even", "odd")):
            states = solve_k(self, beta, num_bands, window, parities)
            if window is not None:
                windows.append((self, states))
            return states

        def record_profile(self, vec):
            profiles.append((self, vec))
            return field_profile_x(self, vec)

        monkeypatch.setattr(PlaneWaveSolver, "solve_k", record_solve)
        monkeypatch.setattr(PlaneWaveSolver, "field_profile_x", record_profile)
        defect_profile(default_spec, te1, beta_norm, default_dispersive)
        (solver, states), = windows
        omega, vecs = states["even"]
        probe_solver, vec = profiles[-1]  # the earlier calls are the localization measures
        assert probe_solver is solver
        j, = [j for j in range(omega.size) if np.array_equal(vecs[:, j], vec)]
        assert solver.localization(vec) > _LOCALIZATION_THRESHOLD
        assert abs(omega[j] - np.interp(beta_norm, te1.beta_norm, te1.omega_norm)) < 2e-4


class TestSolveOnCores:
    """waveguide_bands solves its k-points on one thread per usable core."""

    def test_one_worker_gives_the_same_bands(self, default_cfg, monkeypatch):
        import threading

        from pcwgprobe import bands

        spec, dispersive = cfgmod.build_lattice(default_cfg)
        kpath = np.linspace(0.30, 0.50, 26)  # the default path
        sensitivity = PlaneWaveSolver.sensitivity

        def run():
            """Curves, sorted (beta, omega, S) of every sample, solving threads."""
            samples, threads = [], set()

            def record(self, beta, omega, vec):
                threads.add(threading.get_ident())
                value = sensitivity(self, beta, omega, vec)
                samples.append((beta, omega, value))
                return value

            with monkeypatch.context() as patch:
                patch.setattr(PlaneWaveSolver, "sensitivity", record)
                curves = waveguide_bands(spec, kpath_norm=kpath, dispersive=dispersive).curves
            return curves, sorted(samples), threads

        cores = len(os.sched_getaffinity(0))
        runs = {"default": run()}
        with monkeypatch.context() as patch:
            patch.setattr(os, "sched_getaffinity", lambda pid: {0})
            runs["one core"] = run()
        with monkeypatch.context() as patch:
            patch.setattr(bands, "_hold_blas_at_one_thread", lambda: False)
            runs["BLAS not held"] = run()
        curves, samples, threads = runs.pop("default")
        if cores > 1 and bands._hold_blas_at_one_thread():
            assert len(threads) > 1
        for name, (other_curves, other_samples, other_threads) in runs.items():
            assert len(other_threads) == 1, name
            assert other_samples == samples, name
            assert [c.label for c in other_curves] == [c.label for c in curves], name
            for a, b in zip(curves, other_curves):
                assert np.array_equal(a.beta_rad_per_um, b.beta_rad_per_um), name
                assert np.array_equal(a.omega_norm, b.omega_norm), name

    def test_residual_fault_in_a_worker_raises_and_ends_the_threads(self, default_spec,
                                                                    monkeypatch):
        import threading

        init = PlaneWaveSolver.__init__

        def corrupted(self, spec):
            init(self, spec)
            if spec.grading:  # the supercell's odd sector, as the residual test corrupts one
                rows, eta, x_term = self._sectors["odd"]
                self._sectors["odd"] = (rows, eta + np.triu(1e-3 * np.abs(eta), 1), x_term)

        monkeypatch.setattr(PlaneWaveSolver, "__init__", corrupted)
        before = threading.active_count()
        with pytest.raises(EigensolverError, match="residual .*odd sector"):
            waveguide_bands(default_spec, kpath_norm=np.linspace(0.30, 0.50, 26))
        assert threading.active_count() == before

    @pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="no /proc/self/maps")
    def test_blas_is_held_at_one_thread_after_a_solve(self, default_spec, monkeypatch):
        import builtins
        import ctypes

        from pcwgprobe import bands

        PlaneWaveSolver(default_spec.bulk())
        with open("/proc/self/maps") as fh:
            paths = {line.split(maxsplit=5)[5].strip() for line in fh
                     if "libscipy_openblas" in line.split("/")[-1]}
        assert bands._hold_blas_at_one_thread() is bool(paths)
        for path in paths:
            lib = ctypes.CDLL(path)
            getter = getattr(lib, "scipy_openblas_get_num_threads64_", None) or getattr(
                lib, "scipy_openblas_get_num_threads")
            assert getter() == 1, path
        real_open = builtins.open

        def no_maps(path, *args, **kwargs):
            if path == "/proc/self/maps":
                raise FileNotFoundError(path)
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", no_maps)
        assert bands._hold_blas_at_one_thread.__wrapped__() is False


class TestDispersiveFixedPoint:
    # the default dispersive samples of the per-sample brentq fixed point that
    # the array solve replaced (beta_norm 0.30 ... 0.50 in 26 steps)
    PREVIOUS = {
        "TE-1": [
            0.3294667418149444, 0.32673925551018457, 0.32401660400170784,
            0.3213009634203356, 0.31859475766062895, 0.3159007908932474,
            0.313222727430953, 0.3105765862279342, 0.3079149939970397,
            0.3053071919175773, 0.30273464024571584, 0.30013347413999447,
            0.29767640140979396, 0.2952409363394044, 0.29287318962275577,
            0.2906355953494264, 0.2883212941163328, 0.2862458240890935,
            0.28429284288440987, 0.2825007672058757, 0.2809160697027464,
            0.2800813685476548, 0.278302263428818, 0.27747213615306543,
            0.2769565231933684, 0.27678235848559285,
        ],
        "TE-1-odd": [
            0.3370961878859131, 0.33506982779625794, 0.3323691746969362,
            0.3296670780345978, 0.3269724136135035, 0.32428941424555474,
            0.321621953773278, 0.3189741460130204, 0.3163505720465059,
            0.31375636005245655, 0.311197636568472, 0.3086812603558103,
            0.306215574205527, 0.3038075918801263, 0.30147357497478017,
            0.29922330839007083, 0.2970739596680014, 0.2950527495045017,
            0.2931180496812131, 0.2913958334100626, 0.28985398609244567,
            0.288529278325305, 0.28745301832951053, 0.28665495220838205,
            0.2861618043386204, 0.2859950948041047,
        ],
    }

    def test_unbracketed_sample_raises(self, default_spec, default_dispersive, monkeypatch):
        from pcwgprobe import slab

        def tenth_index(membrane, lam_um, vertical_order=0):
            # n(lambda) = n_ref / 10 puts the root near 8x omega_norm
            return np.full(np.shape(lam_um), default_spec.n_eff / 10)

        monkeypatch.setattr(slab, "slab_effective_index", tenth_index)
        with pytest.raises(ConvergenceError, match="no dispersive fixed point for .* at beta = "):
            waveguide_bands(default_spec, kpath_norm=np.linspace(0.38, 0.48, 5),
                            dispersive=default_dispersive)

    def test_bands_are_solved_at_the_spec_index(self, default_spec, monkeypatch):
        # n_ref is spec.n_eff, not the slab's index at a reference wavelength:
        # with n(lambda) = n_ref the fixed point leaves every sample where it is
        from pcwgprobe import slab

        spec, kpath = default_spec.with_n_eff(2.55), np.linspace(0.38, 0.48, 5)
        fixed = waveguide_bands(spec, kpath_norm=kpath).curves
        solved_at, init = [], PlaneWaveSolver.__init__

        def record(self, spec):
            solved_at.append(spec.n_eff)
            init(self, spec)

        def index(membrane, lam_um, vertical_order=0):
            return np.full(np.shape(lam_um), 2.55)

        monkeypatch.setattr(PlaneWaveSolver, "__init__", record)
        monkeypatch.setattr(slab, "slab_effective_index", index)
        curves = waveguide_bands(spec, kpath_norm=kpath, dispersive=SlabSpec(340.0)).curves
        assert solved_at == [2.55, 2.55]  # the bulk stop band, then the supercell
        assert [c.label for c in curves] == [c.label for c in fixed]
        for c, f in zip(curves, fixed):
            np.testing.assert_allclose(c.omega_norm, f.omega_norm, rtol=0, atol=1e-12)

    def test_samples_equal_the_per_sample_solve(self, te1, te1_odd):
        for curve in (te1, te1_odd):
            np.testing.assert_allclose(curve.beta_norm, np.linspace(0.30, 0.50, 26), rtol=1e-12)
            np.testing.assert_allclose(
                curve.omega_norm, self.PREVIOUS[curve.label], rtol=1e-10, atol=0
            )
