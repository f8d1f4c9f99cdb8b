import numpy as np
import pytest

from pcwgprobe.errors import ModeCutoffError
from pcwgprobe.slab import SlabSpec, slab_effective_index


def test_default_membrane_index_at_reference():
    # calibrated patterned-membrane value; 3D-matched design value 2.64 +/- 0.05
    n = slab_effective_index(SlabSpec(340.0), 1.6, 0)
    assert n == pytest.approx(2.60, abs=1e-4)
    assert abs(n - 2.64) <= 0.05


def test_unpatterned_slab_regression():
    # textbook symmetric-slab TE0 for t=340 nm, n=3.4, lambda=1.6 um
    n = slab_effective_index(SlabSpec(340.0, effective_hole_fill=0.0), 1.6, 0)
    assert n == pytest.approx(3.0063, abs=2e-4)


def test_bulk_limit_unpatterned_reaches_slab_index():
    n = slab_effective_index(SlabSpec(50000.0, effective_hole_fill=0.0), 1.6, 0)
    assert n == pytest.approx(3.4, abs=1e-4)


def test_thinner_is_lower():
    slab = SlabSpec(340.0)
    assert slab_effective_index(slab.thinned(300.0), 1.6, 0) < slab_effective_index(
        slab, 1.6, 0
    )


def test_order_one_below_order_zero():
    slab = SlabSpec(340.0)
    assert slab_effective_index(slab, 1.6, 1) < slab_effective_index(slab, 1.6, 0)


def test_order_one_cutoff_is_signaled():
    with pytest.raises(ModeCutoffError):
        slab_effective_index(SlabSpec(150.0), 1.6, 1)


def test_order_one_more_thickness_sensitive():
    slab = SlabSpec(340.0)
    thin = slab.thinned(300.0)
    d0 = slab_effective_index(slab, 1.6, 0) - slab_effective_index(thin, 1.6, 0)
    d1 = slab_effective_index(slab, 1.6, 1) - slab_effective_index(thin, 1.6, 1)
    assert d1 > d0 > 0


def test_normal_dispersion():
    slab = SlabSpec(340.0)
    assert slab_effective_index(slab, 1.55, 0) > slab_effective_index(slab, 1.65, 0)


def test_result_inside_open_interval():
    slab = SlabSpec(340.0)
    n = slab_effective_index(slab, 1.6, 0)
    assert slab.n_clad < n < slab.n_slab


def test_validation():
    with pytest.raises(ValueError):
        SlabSpec(-10.0)
    with pytest.raises(ValueError):
        SlabSpec(340.0, effective_hole_fill=1.5)
    with pytest.raises(ValueError):
        slab_effective_index(SlabSpec(340.0), -1.0, 0)


@pytest.mark.parametrize("order, lam_max", [(0, 2.5), (1, 1.9)])
def test_array_equals_scalar_calls_and_brentq(order, lam_max):
    from scipy.optimize import brentq

    slab = SlabSpec(340.0)
    lams = np.linspace(0.9, lam_max, 24).reshape(4, 6)
    n_eff = slab_effective_index(slab, lams, order)
    assert n_eff.shape == lams.shape
    scalar = [[slab_effective_index(slab, float(lam), order) for lam in row] for row in lams]
    np.testing.assert_array_equal(n_eff, scalar)

    eps, t_um = slab.core_permittivity(), slab.t_nm * 1e-3

    def f(n, k0):
        kappa, gamma = k0 * np.sqrt(eps - n**2), k0 * np.sqrt(n**2 - 1.0)
        return kappa * t_um - order * np.pi - 2.0 * np.arctan2(gamma, kappa)

    lo, hi = 1.0 + 2e-12, np.sqrt(eps) * (1.0 - 1e-12)
    ref = [[brentq(f, lo, hi, args=(2 * np.pi / lam,), xtol=1e-14, rtol=8.9e-16) for lam in row]
           for row in lams]
    np.testing.assert_allclose(n_eff, ref, rtol=1e-14, atol=0)


def test_cutoff_anywhere_in_an_array_is_signaled():
    with pytest.raises(ModeCutoffError, match="lambda=2.0"):
        slab_effective_index(SlabSpec(340.0), np.array([1.5, 2.0]), 1)
