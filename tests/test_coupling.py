import math
from dataclasses import replace

import numpy as np
import pytest

from pcwgprobe import coupling
from pcwgprobe.coupling import (
    CouplerConfig,
    WaveguideProfile,
    co_transmission,
    contra_transmission,
    fp_reflectivity,
    ideality_from_reflection,
    ideality_from_transmission,
    kappa_overlap,
    lateral_profile,
)
from pcwgprobe.errors import (
    InsufficientFringesError,
    NonPhysicalContrastError,
    PcwgProbeError,
    UndefinedWidthError,
)
from pcwgprobe.fiber import FiberSpec, ModeField, exterior_decay


class TestContraTransmission:
    def test_power_conservation_at_random_points(self, rng):
        kappa = rng.uniform(0.0, 0.5, 10_000)
        delta = rng.uniform(-0.6, 0.6, 10_000)
        t, c = contra_transmission(kappa, 60.0, delta)
        np.testing.assert_allclose(t + c, 1.0, rtol=0, atol=1e-12)
        t2, c2 = co_transmission(kappa, 60.0, delta)
        np.testing.assert_allclose(t2 + c2, 1.0, rtol=0, atol=1e-12)

    def test_resonant_values_are_hyperbolic(self):
        t, c = contra_transmission(3.0 / 60.0, 60.0, 0.0)
        assert t == pytest.approx(1.0 / math.cosh(3.0) ** 2, rel=1e-12)
        assert c == pytest.approx(math.tanh(3.0) ** 2, rel=1e-12)
        assert t + c == pytest.approx(1.0, abs=1e-12)
        assert t < 0.01  # the on-resonance floor at kappa L = 3

    def test_zero_coupling(self):
        assert contra_transmission(0.0, 60.0, 0.2) == (1.0, 0.0)

    def test_detuning_symmetry(self):
        deltas = np.linspace(0.0, 0.5, 40)
        t_plus, _ = contra_transmission(0.05, 60.0, deltas)
        t_minus, _ = contra_transmission(0.05, 60.0, -deltas)
        np.testing.assert_allclose(t_plus, t_minus, rtol=0, atol=1e-14)

    def test_contra_coupled_power_monotone_in_strength(self):
        kl = np.linspace(0.01, 6.0, 200)
        _, c = contra_transmission(kl / 60.0, 60.0, 0.0)
        assert np.all(np.diff(c) > 0)

    def test_continuity_across_degenerate_detuning(self):
        kappa = 0.05
        eps = 1e-9
        t_lo, _ = contra_transmission(kappa, 60.0, kappa - eps)
        t_at, _ = contra_transmission(kappa, 60.0, kappa)
        t_hi, _ = contra_transmission(kappa, 60.0, kappa + eps)
        assert t_lo == pytest.approx(t_at, rel=1e-6)
        assert t_hi == pytest.approx(t_at, rel=1e-6)

    @pytest.mark.parametrize("kappa, l_um", [
        (356.0 / 60.0, 60.0),  # sinh(sL)^2 past the float range
        (1.34e154 / 60.0, 60.0),  # kappa^2 past it
        (4.0 / 1.17e-249, 1.17e-249),  # kappa^2 past it, kappa L = 4
        (1e308, 60.0),
    ])
    def test_strong_coupling_does_not_overflow(self, kappa, l_um):
        deltas = np.array([0.0, 0.3, 3.0, 1e3])
        t, c = contra_transmission(kappa, l_um, deltas)
        assert np.all(np.isfinite(t)) and np.all(np.isfinite(c))
        np.testing.assert_allclose(t + c, 1.0, rtol=0, atol=1e-15)
        if kappa * l_um > 300:
            assert t[0] == 0.0 and c[0] == 1.0  # the limit T -> 0, exactly

    @pytest.mark.parametrize("l_um", [1e160, 1e300, 1.7e308])
    def test_long_interaction_length_stays_finite(self, l_um):
        # |s| L past the float range: sin^2 takes its mean, sinh^2 its limit
        t, c = contra_transmission(np.array([4.0 / l_um, 1.0]), l_um, np.array([0.3, 0.5]))
        assert np.all(np.isfinite(t)) and np.all(np.isfinite(c))
        np.testing.assert_allclose(t + c, 1.0, rtol=0, atol=1e-15)
        assert t[1] == 0.0  # hyperbolic: the limit T -> 0

    def test_scaled_and_unscaled_coupling_agree(self):
        # T depends on kappa L and Delta L only
        deltas = np.linspace(-0.5, 0.5, 41)
        t, c = contra_transmission(4.0 / 60.0, 60.0, deltas)
        t2, c2 = contra_transmission(4.0 / 1.17e-249, 1.17e-249, deltas * 60.0 / 1.17e-249)
        np.testing.assert_allclose(t2, t, rtol=1e-12)
        np.testing.assert_allclose(c2, c, rtol=1e-12)


class TestCoTransmission:
    def test_full_transfer(self):
        t, c = co_transmission(np.pi / 2 / 60.0, 60.0, 0.0)
        assert c == pytest.approx(1.0, abs=1e-12)
        assert t == pytest.approx(0.0, abs=1e-12)

    def test_zero_coupling(self):
        assert co_transmission(0.0, 60.0, 0.3) == (1.0, 0.0)

    @pytest.mark.parametrize("kappa, delta", [(np.nan, 0.1), (0.1, np.nan)])
    def test_nan_input_propagates(self, kappa, delta):
        # as in contra_transmission: a NaN is not read as "no coupling"
        t, c = co_transmission(kappa, 60.0, delta)
        assert np.isnan(t) and np.isnan(c)
        t, c = co_transmission(np.array([kappa, 0.0]), 60.0, np.array([delta, 0.3]))
        assert np.isnan(t[0]) and np.isnan(c[0]) and (t[1], c[1]) == (1.0, 0.0)

    @pytest.mark.parametrize("kappa, delta", [(1e200, 0.1), (0.1, 1e200), (1e307, 1e307)])
    def test_strong_coupling_does_not_overflow(self, kappa, delta):
        t, c = co_transmission(kappa, 60.0, delta)
        assert np.isfinite(t) and np.isfinite(c)
        assert t + c == pytest.approx(1.0, abs=1e-15)

    def test_scaling_keeps_ordinary_values(self):
        # the unscaled formula, bit for bit, where none of its squares overflows
        rng = np.random.default_rng(20261018)
        kappa = rng.uniform(0.0, 0.5, 1000)
        delta = rng.uniform(-0.6, 0.6, 1000)
        s2 = kappa**2 + delta**2
        c_ref = kappa**2 / s2 * np.sin(60.0 * np.sqrt(s2)) ** 2
        t, c = co_transmission(kappa, 60.0, delta)
        assert np.array_equal(c, c_ref) and np.array_equal(t, 1.0 - c_ref)

    def test_envelope_bound(self, rng):
        kappa = rng.uniform(0.001, 0.3, 500)
        delta = rng.uniform(-0.5, 0.5, 500)
        bound = kappa**2 / (kappa**2 + delta**2)
        for length in rng.uniform(1.0, 300.0, 20):
            _, c = co_transmission(kappa, float(length), delta)
            assert np.all(c <= bound + 1e-12)


def gaussian_profile(x, sigma=0.6, odd=False):
    u = np.exp(-(x**2) / (2 * sigma**2))
    if odd:
        u = x * u
    dx = float(np.mean(np.diff(x)))
    return (u / np.sqrt(np.sum(np.abs(u) ** 2) * dx)).astype(complex)


class TestKappaOverlap:
    x = np.linspace(-3.4, 3.4, 341)

    def make_wg(self, odd=False):
        return WaveguideProfile(
            x_um=self.x,
            u=gaussian_profile(self.x, odd=odd),
            beta_rad_per_um=4.83,
            lam_um=1.6,
        )

    def test_monotone_decay_with_gap(self):
        mode = ModeField(FiberSpec(1.0), 1.6)
        wg = self.make_wg()
        kappas = [kappa_overlap(mode, wg, g) for g in (200.0, 400.0, 600.0, 800.0)]
        assert all(np.diff(kappas) < 0)
        assert all(k > 0 for k in kappas)

    def test_odd_profile_null_on_axis(self):
        mode = ModeField(FiberSpec(1.0), 1.6)
        even = kappa_overlap(mode, self.make_wg(), 400.0, 0.0)
        odd = kappa_overlap(mode, self.make_wg(odd=True), 400.0, 0.0)
        assert abs(odd) < 1e-8 * abs(even)

    def test_log_slope_matches_fiber_decay(self):
        mode = ModeField(FiberSpec(1.0), 1.6)
        wg = self.make_wg()
        gaps = np.linspace(200.0, 800.0, 13)
        kappas = np.array([kappa_overlap(mode, wg, g) for g in gaps])
        slope = np.polyfit(gaps * 1e-3, np.log(kappas), 1)[0]
        gamma = exterior_decay(FiberSpec(1.0), 1.6)
        assert abs(-slope - gamma) / gamma < 0.20
        # exponential law: ln kappa linear in g
        fit = np.polyval(np.polyfit(gaps * 1e-3, np.log(kappas), 1), gaps * 1e-3)
        rms = np.sqrt(np.mean((np.log(kappas) - fit) ** 2))
        assert rms / np.mean(np.abs(np.log(kappas))) < 0.05

    def test_offset_array_equals_scalar_calls(self):
        mode = ModeField(FiberSpec(1.0), 1.6)
        wg = self.make_wg()
        offsets = np.linspace(-2.0, 2.0, 11)
        kappas = kappa_overlap(mode, wg, 400.0, offsets)
        assert kappas.shape == offsets.shape
        assert np.array_equal(kappas, [kappa_overlap(mode, wg, 400.0, d) for d in offsets])
        assert type(kappa_overlap(mode, wg, 400.0, 0.5)) is float

    def test_sweep_longer_than_one_block_equals_scalar_calls(self):
        mode = ModeField(FiberSpec(1.0), 1.6)
        wg = self.make_wg()
        offsets = np.linspace(-2.0, 2.0, coupling._DX_BLOCK + 7)
        kappas = kappa_overlap(mode, wg, 400.0, offsets)
        assert np.array_equal(kappas, [kappa_overlap(mode, wg, 400.0, d) for d in offsets])

    def test_rejects_unnormalized_profile(self):
        mode = ModeField(FiberSpec(1.0), 1.6)
        bad = WaveguideProfile(
            x_um=self.x,
            u=2.0 * gaussian_profile(self.x),
            beta_rad_per_um=4.83,
            lam_um=1.6,
        )
        with pytest.raises(ValueError):
            kappa_overlap(mode, bad, 400.0)

    def test_rejects_a_profile_at_another_wavelength(self):
        mode, wg = ModeField(FiberSpec(1.0), 1.6), self.make_wg()
        with pytest.raises(ValueError, match="wavelength"):
            kappa_overlap(mode, replace(wg, lam_um=1.55), 400.0)
        # one ulp apart still matches
        near = replace(wg, lam_um=np.nextafter(1.6, 2.0))
        assert kappa_overlap(mode, near, 400.0) == kappa_overlap(mode, wg, 400.0)


class TestIdeality:
    def test_from_transmission_values(self):
        assert ideality_from_transmission(0.004, 0.96) == pytest.approx(0.956)
        assert ideality_from_transmission(0.5, 0.5) == 0.0
        assert ideality_from_transmission(0.0, 1.0) == 1.0

    def test_from_transmission_ordering_enforced(self):
        with pytest.raises(ValueError):
            ideality_from_transmission(0.8, 0.5)

    def test_from_reflection_values(self):
        assert ideality_from_reflection(0.15, 0.20) == pytest.approx(
            math.sqrt(0.75), abs=1e-12
        )
        assert ideality_from_reflection(0.2, 0.2) == pytest.approx(1.0)

    def test_from_reflection_warns_above_unity(self):
        with pytest.warns(UserWarning):
            gamma = ideality_from_reflection(0.15, 0.10)
        assert gamma == pytest.approx(math.sqrt(1.5))

    def test_from_reflection_zero_mirror(self):
        with pytest.raises(ValueError):
            ideality_from_reflection(0.1, 0.0)


def airy_transmission(lam_nm, r_sq, optical_length_um):
    """Forward lossless symmetric Fabry-Perot (oracle for the inverse fit)."""
    finesse_f = 4.0 * r_sq / (1.0 - r_sq) ** 2
    phase = 2.0 * np.pi * optical_length_um / (lam_nm * 1e-3)
    return 1.0 / (1.0 + finesse_f * np.sin(phase) ** 2)


class TestFpReflectivity:
    lam = np.linspace(1565.0, 1625.0, 1200)

    @pytest.mark.parametrize("r_sq", [0.05, 0.10, 0.15, 0.20, 0.25, 0.30])
    def test_inverts_forward_airy(self, r_sq):
        t = airy_transmission(self.lam, r_sq, 80.0)
        assert fp_reflectivity(t) == pytest.approx(r_sq, abs=0.01)

    def test_independent_of_free_spectral_range(self):
        for length in (40.0, 80.0, 160.0):
            t = airy_transmission(self.lam, 0.15, length)
            assert fp_reflectivity(t) == pytest.approx(0.15, abs=0.01)

    def test_flat_spectrum(self):
        assert fp_reflectivity(np.full(100, 0.73)) == 0.0

    def test_insufficient_fringes(self):
        with pytest.raises(InsufficientFringesError):
            fp_reflectivity(np.linspace(0.2, 0.9, 50))  # monotone ramp

    def test_non_physical_contrast(self):
        with pytest.raises(NonPhysicalContrastError):
            fp_reflectivity(np.array([1.0, -0.5, 1.0, -0.5, 1.0, -0.5, 1.0]))


class TestLateralProfile:
    def test_symmetry_peak_and_fwhm(self):
        mode = ModeField(FiberSpec(1.0), 1.6)
        x = np.linspace(-3.4, 3.4, 341)
        wg = WaveguideProfile(
            x_um=x, u=gaussian_profile(x), beta_rad_per_um=4.83, lam_um=1.6
        )
        dx = np.linspace(-4.0, 4.0, 81)
        res = lateral_profile(mode, wg, 400.0, 60.0, dx, kappa_at_center=1.82 / 60.0)
        np.testing.assert_allclose(
            res.one_minus_tmin, res.one_minus_tmin[::-1], rtol=0, atol=1e-10
        )
        assert np.argmax(np.abs(res.kappa_per_um)) == len(dx) // 2
        assert res.fwhm_um > 0

    def test_asymmetric_sweep_rejected(self):
        mode = ModeField(FiberSpec(1.0), 1.6)
        x = np.linspace(-3.4, 3.4, 341)
        wg = WaveguideProfile(
            x_um=x, u=gaussian_profile(x), beta_rad_per_um=4.83, lam_um=1.6
        )
        with pytest.raises(ValueError):
            lateral_profile(mode, wg, 400.0, 60.0, np.linspace(-1.0, 2.0, 13))

    @pytest.mark.parametrize("kappa_l", [0.0, 1e-300, 599.0])
    def test_undefined_width_raises(self, kappa_l):
        # an all-zero dip (0 and an underflowing kappa) or one saturated over
        # the whole sweep has no half-maximum crossing to interpolate
        mode = ModeField(FiberSpec(1.0), 1.6)
        x = np.linspace(-3.4, 3.4, 341)
        wg = WaveguideProfile(
            x_um=x, u=gaussian_profile(x), beta_rad_per_um=4.83, lam_um=1.6
        )
        with pytest.raises(UndefinedWidthError):
            lateral_profile(mode, wg, 400.0, 60.0, np.linspace(-4.0, 4.0, 81),
                            kappa_at_center=kappa_l / 60.0)


class TestCouplerConfig:
    def test_kappa_decreases_with_gap_and_diameter_reference(self):
        cfg = CouplerConfig()
        fiber = FiberSpec(1.9)
        k1 = cfg.kappa_perp(fiber, 1.6, 250.0)
        k2 = cfg.kappa_perp(fiber, 1.6, 500.0)
        assert k1 > k2 > 0
        assert k1 * cfg.l_c_um == pytest.approx(cfg.kappa_ref_l)

    def test_batched_kappa_equals_per_diameter_loop(self):
        cfg = CouplerConfig()
        d = np.linspace(0.8, 2.4, 12).reshape(3, 4)
        batched = cfg.kappa_perp(FiberSpec(1.5), 1.595, d_um=d)
        loop = [[cfg.kappa_perp(FiberSpec(float(x)), 1.595) for x in row] for row in d]
        np.testing.assert_allclose(batched, loop, rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            cfg.decay_per_um(FiberSpec(1.5), 1.595, d),
            [[exterior_decay(FiberSpec(float(x)), 1.595) for x in row] for row in d],
            rtol=1e-14, atol=0,
        )

    def test_batched_kappa_over_gaps(self):
        cfg = CouplerConfig()
        gaps = np.arange(250.0, 801.0, 25.0)
        batched = cfg.kappa_perp(FiberSpec(1.9), 1.6, gaps)
        loop = [cfg.kappa_perp(FiberSpec(1.9), 1.6, float(g)) for g in gaps]
        np.testing.assert_allclose(batched, loop, rtol=1e-14, atol=0)
        assert isinstance(loop[0], float)

    def test_scattering_bounded(self):
        cfg = CouplerConfig()
        for d in (0.8, 1.0, 1.9):
            for g in (100.0, 400.0, 900.0):
                assert 0.5 <= cfg.scattering_transmission(d, g) <= 1.0

    @pytest.mark.parametrize("scale", [1e-300, 5e-324])
    def test_tiny_scattering_scales_saturate(self, scale):
        # the loss is clipped to 0.5; its exponents may pass the float range
        for key in ("scatter_g_scale_nm", "scatter_d_scale_um"):
            cfg = CouplerConfig(**{key: scale})
            assert cfg.scattering_transmission(0.9, 300.0) == 0.5
            assert cfg.scattering_transmission(1.9, 900.0) == 1.0

    @pytest.mark.parametrize("field, value", [
        ("scatter_g_scale_nm", 0.0), ("scatter_d_scale_um", -1.0), ("l_c_um", math.inf),
        ("gap_nm", math.nan), ("g_ref_nm", math.inf), ("d_ref_um", -math.inf),
        ("scatter_loss_ref", 1.5), ("g0_nm", 0.0),
    ])
    def test_rejects_invalid_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            CouplerConfig(**{field: value})

    def test_overflowing_kappa_raises(self):
        with pytest.raises(PcwgProbeError, match="overflows"):
            CouplerConfig(g_ref_nm=1e154).kappa_perp(FiberSpec(1.9), 1.6, 250.0)
