import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jv, kve

from pcwgprobe import config as cfgmod
from pcwgprobe import fiber as fibermod
from pcwgprobe.errors import ConvergenceError, NoGuidedModeError, ProfileRangeError
from pcwgprobe.fiber import (
    FiberSpec,
    GuidedModePoint,
    ModeField,
    TaperProfile,
    characteristic_residual,
    dbeta_dd,
    exterior_decay,
    fundamental_neff,
    he11_neff,
    neff_and_dbeta_dd,
    silica_index,
)
from pcwgprobe.roots import bracketed_roots

J01 = 2.404825557695773

# (diameter um, wavelength um, core index) of the fiber solves the other
# tests make; None is fused silica.
TEST_POINTS = [
    (0.6, 1.6, None), (0.6, 1.6, 1.444), (4.0, 1.6, None), (1.3, 1.58, None),
    (1.0, 1.55, None), (1.9, 1.62, None), (1.0, 1.6, None), (1.9, 1.6, None),
    (10.0, 1.6, None), (0.9, 1.6, None), (1.1, 1.55, None), (1.5, 1.6, None),
    (2.0, 1.6, 1.444), (5.0, 1.6, 1.444), (12.0, 1.6, 1.444), (30.0, 1.6, 1.444),
] + [(1.2, lam, None) for lam in np.linspace(1.5, 1.7, 9)]


def default_map_grid(cfg):
    """Every (diameter, wavelength) the default ``map synth`` solves."""
    taper = cfgmod.build_taper(cfg)
    half_mm = 0.5 * cfgmod.build_coupler(cfg).l_c_um * 1e-3
    lc = cfgmod.build_lc_grid(cfg)[:, None] + np.linspace(-half_mm, half_mm, 5)
    d = taper.diameter_at(np.clip(lc, *taper.span_mm)).ravel()
    return d, cfgmod.build_lambda_grid(cfg) * 1e-3


def he11_reference(n1, n2, a_k0, samples=4001):
    """HE11 n_eff without ``bracketed_roots``: the highest sign change of a
    dense sampling of the HE11 bracket, bisected down to adjacent floats."""
    lo, hi = fibermod._he11_bracket(n1, n2, a_k0)
    grid = np.linspace(lo, hi, samples)
    vals = fibermod._char_m1(grid, n1, n2, a_k0)[0]
    j = np.flatnonzero(vals[:-1] * vals[1:] < 0)[-1]
    a, b = grid[j], grid[j + 1]
    while a < (m := 0.5 * (a + b)) < b:
        if fibermod._char_m1(m, n1, n2, a_k0)[0] * vals[j] > 0:
            a = m
        else:
            b = m
    return float(a)


@pytest.mark.parametrize("kwargs", [
    {"d_um": np.inf}, {"d_um": np.nan}, {"d_um": 1.0, "clad_index": np.nan},
    {"d_um": 1.0, "clad_index": np.inf}, {"d_um": 1.0, "core_index": np.nan},
    {"d_um": 1.0, "core_index": np.inf},
])
def test_non_finite_geometry_is_rejected(kwargs):
    with pytest.raises(ValueError, match="finite"):
        FiberSpec(**kwargs)


def test_sellmeier_silica_at_1550():
    assert silica_index(1.55) == pytest.approx(1.444, abs=5e-4)


class TestFundamentalNeff:
    def test_thick_taper_sits_just_above_silica_light_line(self):
        # a 4.0 um taper sits just above the silica light line
        point = fundamental_neff(FiberSpec(4.0), 1.6)
        assert point.n_eff == pytest.approx(1.40, abs=0.02)

    def test_thin_taper_regression_value(self):
        # Frozen against an independent 4x4 boundary-condition determinant
        # solve of the same two-medium problem (agrees to 1e-6).
        point = fundamental_neff(FiberSpec(0.6, core_index=1.444), 1.6)
        assert point.n_eff == pytest.approx(1.019102, abs=2e-5)

    @pytest.mark.xfail(
        strict=True,
        reason="the exact characteristic equation gives n_eff = 1.0190 at "
        "(d=0.6 um, 1.6 um), cross-checked against the raw 4x4 "
        "boundary-condition determinant; the 1.05 +/- 0.03 target band "
        "starts at 1.02 and is reproduced only by the scalar LP01 "
        "approximation, which this solver deliberately does not use",
    )
    def test_thin_taper_nominal_band(self):
        point = fundamental_neff(FiberSpec(0.6), 1.6)
        assert point.n_eff == pytest.approx(1.05, abs=0.03)

    def test_bulk_limit_monotone_to_core_index(self):
        spec = FiberSpec(1.0, core_index=1.444)
        values = [
            fundamental_neff(spec.with_diameter(d), 1.6).n_eff
            for d in (2.0, 5.0, 12.0, 30.0)
        ]
        assert all(np.diff(values) > 0)
        assert values[-1] == pytest.approx(1.444, abs=1e-3)
        assert all(v < 1.444 for v in values)

    def test_point_invariants(self):
        point = fundamental_neff(FiberSpec(1.3), 1.58)
        assert point.beta_rad_per_um == pytest.approx(
            2 * np.pi * point.n_eff / 1.58, rel=1e-15
        )
        assert 1.0 < point.n_eff < FiberSpec(1.3).n_core(1.58)

    def test_residual_below_tolerance(self):
        for d, lam in [(0.6, 1.6), (1.0, 1.55), (1.9, 1.62), (4.0, 1.6)]:
            spec = FiberSpec(d)
            point = fundamental_neff(spec, lam)
            assert characteristic_residual(spec, point) < 1e-10

    def test_neff_monotone_and_continuous_in_diameter(self):
        # dense sweep: strictly increasing, no branch jumps
        ds = np.arange(0.6, 4.0, 0.01)
        prev = None
        for d in ds:
            n = fundamental_neff(FiberSpec(d), 1.6).n_eff
            if prev is not None:
                assert n > prev
                assert n - prev < 0.01
            prev = n

    def test_no_guided_solution_is_distinct(self):
        with pytest.raises(NoGuidedModeError):
            fundamental_neff(FiberSpec(0.12), 1.6)

    def test_dispersion_curve_matches_pointwise(self):
        spec = FiberSpec(1.2)
        lams = np.linspace(1.5, 1.7, 9)
        curve = he11_neff(spec, lams)
        direct = [fundamental_neff(spec, lam).n_eff for lam in lams]
        np.testing.assert_allclose(curve, direct, rtol=1e-12)


class TestArrayKernel:
    def test_thick_fiber_returns_he11_not_the_next_root(self):
        # the scan's top 1e-3 cell holds HE11 and the next m=1 root here, so
        # a scan alone skips HE11 and lands on u = 5.48
        n_eff = fundamental_neff(FiberSpec(36.7), 1.2).n_eff
        assert n_eff == pytest.approx(1.4478370, abs=1e-7)
        assert np.pi * 36.7 / 1.2 * np.sqrt(silica_index(1.2) ** 2 - n_eff**2) < J01

    def test_inverted_bracket_raises_instead_of_refining(self):
        # past d = 448 lambda the bracket's lower end (u = j01) passes n1 - 1e-6;
        # refining it anyway gives 1.4630736 with u = 5.13, not HE11
        with pytest.raises(NoGuidedModeError, match="empty HE11 bracket"):
            fundamental_neff(FiberSpec(500.0), 0.487)

    @pytest.mark.parametrize("spec", [FiberSpec(1e-300), FiberSpec(1.0, core_index=1e300)])
    def test_overflowing_bracket_raises_no_guided_mode(self, spec):
        # (j01 / (a k0))^2 or n1^2 past the float range, with no RuntimeWarning
        with pytest.raises(NoGuidedModeError):
            fundamental_neff(spec, 1.6)

    def test_too_thin_fiber_raises_without_a_larger_evaluation(self, monkeypatch):
        # the bracket spans (1 + 1e-6, 1e3 - 1e-6): a 1e-3 scan of it is 1e6 points
        sizes = []
        char_m1 = fibermod._char_m1

        def spy(neff, *args, **kwargs):
            sizes.append(np.size(neff))
            return char_m1(neff, *args, **kwargs)

        monkeypatch.setattr(fibermod, "_char_m1", spy)
        with pytest.raises(NoGuidedModeError, match="no guided m=1 solution"):
            fundamental_neff(FiberSpec(1e-3, core_index=1e3), 1.6)
        assert sizes and max(sizes) == 1

    def test_continuous_in_diameter_up_to_40um(self):
        # a jump to another root would break the smooth shrinking of the
        # steps by orders of magnitude
        ds = np.arange(0.5, 40.0, 0.005)
        n_eff = he11_neff(FiberSpec(1.0), 1.2, ds)
        steps = np.diff(n_eff)
        assert np.all(steps > 0)
        assert np.all(np.abs(steps[1:] / steps[:-1] - 1.0) < 0.05)
        u = np.pi * ds / 1.2 * np.sqrt(silica_index(1.2) ** 2 - n_eff**2)
        assert np.all(u < J01)

    @pytest.mark.parametrize("d, lam, core", TEST_POINTS)
    def test_matches_scalar_scan_at_test_points(self, d, lam, core):
        spec = FiberSpec(d, core_index=core)
        ref = he11_reference(spec.n_core(lam), 1.0, np.pi * d / lam)
        assert fundamental_neff(spec, lam).n_eff == pytest.approx(ref, rel=1e-12)

    def test_matches_scalar_scan_on_map_grid_sample(self, default_cfg):
        d, lam = default_map_grid(default_cfg)
        spec = cfgmod.build_fiber(default_cfg)
        d, lam = d[::23], lam[::30]
        kernel = he11_neff(spec, lam[None, :], d[:, None])
        ref = [
            [he11_reference(spec.n_core(l), 1.0, np.pi * di / l) for l in lam]
            for di in d
        ]
        np.testing.assert_allclose(kernel, ref, rtol=1e-12, atol=0)

    def test_default_map_grid_residuals_without_fallback(self, default_cfg, monkeypatch):
        calls = []
        monkeypatch.setattr(fibermod, "bracketed_roots",
                            lambda *a: calls.append(a) or bracketed_roots(*a))
        d, lam = default_map_grid(default_cfg)
        spec = cfgmod.build_fiber(default_cfg)
        n_eff = he11_neff(spec, lam[None, :], d[:, None])
        assert len(calls) == 1  # one kernel call for the whole grid
        value, scale = fibermod._char_m1(
            n_eff, silica_index(lam), 1.0, np.pi * d[:, None] / lam
        )
        assert np.max(np.abs(value) / scale) < 1e-10
        for i, j in [(0, 0), (len(d) // 2, 100), (-1, -1)]:
            point = GuidedModePoint(float(lam[j]), float(n_eff[i, j]))
            assert characteristic_residual(spec.with_diameter(d[i]), point) < 1e-10

    @pytest.mark.parametrize("name, value", [("_RESIDUAL_TOL", 0.0), ("_MAX_ITER", 1)])
    def test_unsettled_elements_raise_convergence_error(self, monkeypatch, name, value):
        # a failed residual check or no convergence of a sign-change bracket
        monkeypatch.setattr(fibermod, name, value)
        with pytest.raises(ConvergenceError):
            he11_neff(FiberSpec(1.2), np.array([1.55, 1.6]))

    def test_one_unguided_element_raises(self):
        with pytest.raises(NoGuidedModeError):
            he11_neff(FiberSpec(1.0), 1.6, np.array([1.0, 0.12]))


class TestCharacteristicSlope:
    """The analytic d(value)/d(n_eff) of ``_char_m1`` and the Newton steps it feeds."""

    @staticmethod
    def check_slope(d, lam, where, h):
        n1, a_k0 = np.broadcast_arrays(silica_index(lam), np.pi * d[:, None] / lam)
        lo, hi = fibermod._he11_bracket(n1, 1.0, a_k0)
        if where == "root":
            n_eff = he11_neff(FiberSpec(1.0), lam, d[:, None])
        else:
            n_eff = {"midpoint": 0.5 * (lo + hi), "lower end": lo, "upper end": hi}[where]
        slope = fibermod._char_m1(n_eff, n1, 1.0, a_k0, slope=True)[1]
        centered = (fibermod._char_m1(n_eff + h, n1, 1.0, a_k0)[0]
                    - fibermod._char_m1(n_eff - h, n1, 1.0, a_k0)[0]) / (2 * h)
        np.testing.assert_allclose(slope, centered, rtol=1e-6, atol=0)
        return n_eff

    @pytest.mark.parametrize("where, h", [
        ("root", 1e-6),
        ("midpoint", 1e-6),
        ("upper end", 1e-8),  # n1 - 1e-6, where u -> 0
        ("lower end", 1e-9),  # n2 + 1e-6, where w -> 0 and K0/K1 bends as w ln(1/w)
    ])
    def test_matches_centered_difference_on_default_map_grid(self, default_cfg, where, h):
        n_eff = self.check_slope(*default_map_grid(default_cfg), where, h)
        if where == "lower end":
            assert np.all(n_eff == 1.0 + 1e-6)

    def test_matches_centered_difference_at_the_j01_end(self):
        # thick fibers: the lower bracket end is u = j01, not the light line
        n_eff = self.check_slope(np.array([10.0, 20.0, 36.7]), np.array([1.2, 1.6]),
                                 "lower end", 1e-8)
        assert np.all(n_eff > 1.0 + 1e-6)

    def test_default_map_grid_takes_few_evaluations_per_root(self, default_cfg, monkeypatch):
        # element evaluations of f per root, both bracket ends included;
        # regula falsi without the slope took 16.5
        calls = []
        he11_f = fibermod._he11_f

        def counted(x, *args):
            calls.append(x.size)
            return he11_f(x, *args)

        monkeypatch.setattr(fibermod, "_he11_f", counted)
        d, lam = default_map_grid(default_cfg)
        n_eff = he11_neff(cfgmod.build_fiber(default_cfg), lam[None, :], d[:, None])
        assert sum(calls) / n_eff.size <= 9

    @staticmethod
    def settle(n1, n2, a_k0):
        """The kernel on the HE11 brackets of the elements with a sign change."""
        lo, hi = fibermod._he11_bracket(n1, n2, a_k0)
        valid = lo < hi
        n1, n2, a_k0, lo, hi = (v[valid] for v in (n1, n2, a_k0, lo, hi))
        change = (fibermod._char_m1(lo, n1, n2, a_k0)[0]
                  * fibermod._char_m1(hi, n1, n2, a_k0)[0] < 0)
        args = tuple(v[change] for v in (n1, n2, a_k0))
        roots = bracketed_roots(fibermod._he11_f, lo[change], hi[change], args,
                                fibermod._XTOL, fibermod._RTOL, max_iter=60)
        return roots, args

    # brackets on which Newton steps alone 2-cycle between adjacent floats, each
    # step just over the tolerance and the far end fixed: (n1, d, lambda)
    STALLS = np.array([[2.774430384805461, 0.2503137363417723, 1.6016581769828986],
                       [2.03599634847047, 0.22520772699928365, 1.477407421001307]])

    def test_stalled_newton_brackets_settle(self):
        n1, d, lam = self.STALLS.T
        roots, args = self.settle(n1, np.ones(2), np.pi * d / lam)
        assert roots.size == 2 and not np.isnan(roots).any()
        value, scale = fibermod._char_m1(roots, *args)
        assert np.all(np.abs(value) < 1e-10 * scale)

    def test_every_sign_change_bracket_of_a_random_sample_settles(self):
        rng = np.random.default_rng(2024)
        size = 20_000
        n2 = np.where(rng.random(size) < 0.5, 1.0, rng.uniform(1.0, 2.5, size))
        n1 = n2 + 10 ** rng.uniform(-3.0, 0.7, size)
        d = 10 ** rng.uniform(-1.5, 2.0, size)
        lam = rng.uniform(0.4, 2.0, size)
        n1, d, lam = (np.append(v, s) for v, s in zip((n1, d, lam), self.STALLS.T))
        roots, _ = self.settle(n1, np.append(n2, [1.0, 1.0]), np.pi * d / lam)
        assert roots.size > size // 2
        assert not np.isnan(roots).any()


class TestDiameterSensitivity:
    def test_vector_matches_scalar_centered_difference(self):
        spec = FiberSpec(1.5)
        lams = np.linspace(1.5, 1.7, 7)
        dd = 1.5e-3
        scalar = [
            (fundamental_neff(spec.with_diameter(1.5 + dd), lam).n_eff
             - fundamental_neff(spec.with_diameter(1.5 - dd), lam).n_eff) / (2 * dd)
            for lam in lams
        ]
        vector = dbeta_dd(spec, lams)
        np.testing.assert_allclose(vector, scalar, rtol=1e-9, atol=0)
        assert [dbeta_dd(spec, lam) for lam in lams] == pytest.approx(vector, rel=1e-9)

    def test_one_solve_equals_two(self):
        spec = FiberSpec(1.5)
        lams = np.linspace(1.5, 1.7, 7)
        dd = 1.5e-3
        hi, lo = he11_neff(spec, lams, 1.5 + dd), he11_neff(spec, lams, 1.5 - dd)
        assert np.array_equal(dbeta_dd(spec, lams), (hi - lo) / (2 * dd))
        assert dbeta_dd(spec, 1.6) == float(
            (he11_neff(spec, 1.6, 1.5 + dd) - he11_neff(spec, 1.6, 1.5 - dd)) / (2 * dd))

    def test_index_and_sensitivity_from_one_solve(self, monkeypatch):
        spec, lams = FiberSpec(1.5), np.linspace(1.5, 1.7, 7)
        expected = he11_neff(spec, lams), dbeta_dd(spec, lams)
        solves, roots = [], fibermod._he11_roots
        monkeypatch.setattr(fibermod, "_he11_roots", lambda *a: solves.append(a) or roots(*a))
        n_eff, sens = neff_and_dbeta_dd(spec, lams)
        assert len(solves) == 1
        assert np.array_equal(n_eff, expected[0]) and np.array_equal(sens, expected[1])

    def test_reference_sensitivity_large_taper(self):
        assert dbeta_dd(FiberSpec(1.9), 1.6) == pytest.approx(0.084, rel=0.20)

    def test_reference_sensitivity_small_taper(self):
        assert dbeta_dd(FiberSpec(1.0), 1.6) == pytest.approx(0.36, rel=0.20)

    def test_small_over_large_ratio(self):
        ratio = dbeta_dd(FiberSpec(1.0), 1.6) / dbeta_dd(FiberSpec(1.9), 1.6)
        assert 3.0 <= ratio <= 6.0

    def test_saturates_for_thick_fiber(self):
        assert dbeta_dd(FiberSpec(10.0), 1.6) < 0.01


class TestModeField:
    def test_maximal_and_finite_on_axis(self):
        mode = ModeField(FiberSpec(1.0), 1.6)
        r = np.linspace(0.0, 3.0, 400)
        values = np.abs(mode.radial(r))
        assert np.isfinite(values[0])
        assert np.argmax(values) == 0

    def test_exterior_decay_constant(self):
        spec = FiberSpec(1.0)
        mode = ModeField(spec, 1.6)
        point = fundamental_neff(spec, 1.6)
        gamma_expected = np.sqrt(
            point.beta_rad_per_um**2 - (2 * np.pi / 1.6) ** 2
        )
        assert mode.gamma_per_um == pytest.approx(gamma_expected, rel=1e-12)
        assert exterior_decay(spec, 1.6) == pytest.approx(gamma_expected, rel=1e-12)

    def test_exterior_tail_falls_by_e_squared(self):
        # asymptotic decay: two decay lengths out the field drops by ~e^-2
        # (slowly varying Bessel-K prefactor allowed, so a thick taper where
        # gamma*a is well into the asymptotic regime)
        mode = ModeField(FiberSpec(1.9), 1.6)
        a = 1.9 / 2
        ratio = mode.radial(a + 2.0 / mode.gamma_per_um) / mode.radial(a)
        assert ratio == pytest.approx(np.exp(-2.0), rel=0.30)

    def test_unit_power_flux(self):
        mode = ModeField(FiberSpec(0.9), 1.6)
        total, _ = quad(
            lambda r: 2 * np.pi * r * mode.radial(r) ** 2, 0.0, 40.0, limit=400
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("d_um", [0.9, 1.0, 1.9])
    def test_matches_order_nu_bessel_reference(self, d_um):
        # the cephes J0/J1/K0e/K1e field against one built from scipy's
        # order-nu jv/kve; u stays well below j01, where j0 and jv(0) agree
        mode = ModeField(FiberSpec(d_um), 1.6)
        a, u, w = d_um / 2, mode.u, mode.w
        assert u < 0.9 * J01
        power = np.pi * a**2 * ((jv(1, u) / jv(0, u)) ** 2 + (kve(1, w) / kve(0, w)) ** 2)
        r = np.linspace(0.0, 3.0 * a, 301)
        rho = r / a
        ref = np.where(rho <= 1.0, jv(0, u * rho) / jv(0, u),
                       kve(0, w * rho) / kve(0, w) * np.exp(-w * (rho - 1.0)))
        assert mode.radial(r) == pytest.approx(ref / np.sqrt(power), rel=1e-13, abs=0)

    def test_cartesian_evaluation_is_complex_and_radial(self):
        mode = ModeField(FiberSpec(1.1), 1.55)
        field = mode(np.array([0.3, 0.0]), np.array([0.0, 0.3]))
        assert field.dtype.kind == "c"
        assert field[0] == pytest.approx(field[1])


class TestTaperProfile:
    def test_exact_at_samples_and_bounded_between(self):
        profile = TaperProfile((0.0, 1.0, 2.0), (0.6, 1.1, 2.4))
        for lc, d in zip((0.0, 1.0, 2.0), (0.6, 1.1, 2.4)):
            assert profile.diameter_at(lc) == d
        mid = profile.diameter_at(0.5)
        assert 0.6 < mid < 1.1

    def test_linear_profile_slope_recovery(self):
        lc = np.linspace(0.0, 3.0, 31)
        profile = TaperProfile(tuple(lc), tuple(1.0 + 0.2 * lc))
        query = np.linspace(0.05, 2.95, 97)
        slope = np.polyfit(query, profile.diameter_at(query), 1)[0]
        assert slope == pytest.approx(0.2, abs=1e-9)

    def test_out_of_range(self):
        profile = TaperProfile.exponential(0.6, 5.5)
        with pytest.raises(ProfileRangeError):
            profile.diameter_at(-0.1)
        with pytest.raises(ProfileRangeError):
            profile.diameter_at(5.6)

    @pytest.mark.parametrize("lc", [np.nan, np.array([0.5, np.nan, 1.0])])
    def test_nan_position_is_out_of_range(self, lc):
        with pytest.raises(ProfileRangeError, match="l_c"):
            TaperProfile.exponential(0.6, 5.5).diameter_at(lc)

    def test_validation(self):
        with pytest.raises(ValueError):
            TaperProfile((0.0, 0.0), (1.0, 2.0))  # not strictly increasing
        with pytest.raises(ValueError):
            TaperProfile((0.0, 1.0), (1.0, -2.0))  # non-positive diameter
        with pytest.raises(ValueError):
            TaperProfile((0.0, 1.0, 2.0), (1.0, 2.0, 1.5))  # dips after waist

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "taper.csv"
        path.write_text("l_c_mm,d_um\n0.0,0.6\n1.0,1.2\n2.0,2.0\n")
        profile = TaperProfile.from_csv(path)
        assert profile.diameter_at(1.0) == 1.2

    @pytest.mark.parametrize("text", [
        "a,b\n0.0,0.6\n1.0,1.2\n",  # wrong header
        "l_c_mm,d_um\n0.0,0.6\n1.0,x\n",  # non-numeric cell
        "l_c_mm,d_um\n",  # header only
        "l_c_mm,d_um\n0.0,0.6\n1.0\n",  # short row
        "l_c_mm,d_um\n0.0,0.6\n1.0,nan\n",  # non-finite cell
    ])
    def test_malformed_csv_is_a_value_error(self, tmp_path, text):
        path = tmp_path / "taper.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            TaperProfile.from_csv(path)

    def test_exponential_reaches_full_diameter(self):
        profile = TaperProfile.exponential(0.6, 5.5)
        assert profile.diameter_at(5.5) == pytest.approx(125.0, rel=1e-9)
        assert profile.diameter_at(0.0) == pytest.approx(0.6, rel=1e-12)


def assert_pchip_matches_scipy(lc, d, n):
    """The profile equals scipy's PchipInterpolator bit for bit on ``n``
    points across the span, and is exact at every knot."""
    from scipy.interpolate import PchipInterpolator

    profile = TaperProfile(tuple(lc), tuple(d))
    x = np.linspace(lc[0], lc[-1], n)
    ours, ref = profile.diameter_at(x), PchipInterpolator(np.array(lc), np.array(d))(x)
    np.testing.assert_array_equal(ours, ref)
    assert ours.tobytes() == ref.tobytes()
    assert profile.diameter_at(np.array(lc)).tobytes() == np.array(d, dtype=float).tobytes()
    assert [profile.diameter_at(v) for v in lc] == list(profile.d_um)  # the last knot too


class TestPchipAgainstScipy:
    def test_default_exponential_taper(self, default_taper):
        assert_pchip_matches_scipy(default_taper.l_c_mm, default_taper.d_um, 200_001)

    def test_two_samples_are_the_secant(self):
        assert_pchip_matches_scipy((0.0, 1.5), (1.0, 3.0), 1001)
        assert fibermod._pchip_slopes(np.array([0.0, 1.5]), np.array([1.0, 3.0])).tolist() == [
            4 / 3, 4 / 3]

    def test_flat_segment(self):
        assert_pchip_matches_scipy((0.0, 1.0, 2.0, 3.5, 4.0), (2.0, 1.0, 1.0, 1.5, 4.0), 10_001)

    def test_waist_inside_the_span(self):
        # the secants change sign at the 0.8 um waist: its knot slope is 0
        lc, d = (0.0, 0.3, 1.0, 1.2, 2.0, 3.0), (3.0, 1.5, 0.8, 0.9, 2.0, 5.0)
        assert_pchip_matches_scipy(lc, d, 10_001)
        assert fibermod._pchip_slopes(np.array(lc), np.array(d))[2] == 0.0

    def test_both_branches_of_the_end_rule(self):
        # left end: the three-point estimate 3.5 has the wrong sign, so 0;
        # right end: 6.5 overshoots 3 m0 with the secants of opposite sign, so 3
        lc, d = (0.0, 1.0, 2.0, 3.0), (12.0, 11.0, 1.0, 2.0)
        slopes = fibermod._pchip_slopes(np.array(lc), np.array(d))
        assert (slopes[0], slopes[-1]) == (0.0, 3.0)
        assert_pchip_matches_scipy(lc, d, 10_001)
