import numpy as np
import pytest

from pcwgprobe.roots import bracketed_roots, opposite_signs


def test_array_of_brackets_solved_at_once():
    c = np.linspace(0.5, 40.0, 30).reshape(5, 6)
    calls = []

    def f(x, c):
        calls.append(x.size)
        return x**3 - c

    roots = bracketed_roots(f, 0.0, 4.0, (c,), xtol=1e-15)
    assert roots.shape == c.shape
    np.testing.assert_allclose(roots, np.cbrt(c), rtol=1e-14)
    assert calls[0] == c.size and max(calls) == c.size  # one call per step for all


def test_scalar_bracket_gives_zero_d_result():
    root = bracketed_roots(lambda x: np.cos(x) - x, 0.0, 1.0, xtol=1e-15)
    assert root.shape == ()
    assert float(root) == pytest.approx(0.7390851332151607, abs=1e-15)


def test_bracket_without_sign_change_is_nan():
    roots = bracketed_roots(lambda x, c: x**2 - c, 0.0, 2.0, (np.array([1.0, -1.0, 9.0]),))
    assert roots[0] == pytest.approx(1.0, abs=1e-11)
    assert np.isnan(roots[1]) and np.isnan(roots[2])


def test_unsettled_element_is_nan():
    roots = bracketed_roots(lambda x: np.tanh(50 * (x - 0.3)), -1.0, 2.0, max_iter=3)
    assert np.isnan(roots)


def tanh_with_slope(x):
    t = 50 * (x - 0.3)
    return np.tanh(t), 50 / np.cosh(t) ** 2


def test_slope_gives_the_same_roots_in_fewer_calls():
    c = np.linspace(0.5, 40.0, 30).reshape(5, 6)
    value_calls, slope_calls = [], []

    def f(x, c):
        value_calls.append(x.size)
        return x**3 - c

    def f_and_slope(x, c):
        slope_calls.append(x.size)
        return x**3 - c, 3 * x**2

    value = bracketed_roots(f, 0.0, 4.0, (c,), xtol=1e-15)
    newton = bracketed_roots(f_and_slope, 0.0, 4.0, (c,), xtol=1e-15)
    np.testing.assert_allclose(newton, value, rtol=1e-14)
    np.testing.assert_allclose(newton, np.cbrt(c), rtol=1e-14)
    assert sum(slope_calls) < sum(value_calls)


def test_newton_step_out_of_the_bracket_bisects():
    # from x = 2 the Newton step is about 1e72 long; every point f sees stays in the bracket
    seen = []

    def f(x):
        seen.append(x.copy())
        return tanh_with_slope(x)

    root = bracketed_roots(f, -1.0, 2.0)
    assert float(root) == pytest.approx(0.3, abs=1e-11)
    seen = np.concatenate(seen)
    assert np.all((seen >= -1.0) & (seen <= 2.0))


def test_slope_path_keeps_the_nan_rule():
    roots = bracketed_roots(
        lambda x, c: (x**2 - c, 2 * x), 0.0, 2.0, (np.array([1.0, -1.0, 9.0]),)
    )
    assert roots[0] == pytest.approx(1.0, abs=1e-11)
    assert np.isnan(roots[1]) and np.isnan(roots[2])
    assert np.isnan(bracketed_roots(tanh_with_slope, -1.0, 2.0, max_iter=3))


# residuals of 1e-200 multiply to an underflowing -0.0, and of 1e300 to an
# overflow; the sign-change test compares signs instead
def tiny(x):
    return 1e-200 * (x - 0.3)


def tiny_with_slope(x):
    return tiny(x), np.full(np.shape(x), 1e-200)


@pytest.mark.parametrize("f", [tiny, tiny_with_slope], ids=["regula_falsi", "newton"])
def test_underflowing_residual_product_keeps_the_root(f):
    assert float(bracketed_roots(f, 0.0, 1.0)) == pytest.approx(0.3, abs=1e-12)


@pytest.mark.parametrize("slope", [False, True], ids=["regula_falsi", "newton"])
def test_large_residuals_raise_no_overflow(slope):
    # the suite turns RuntimeWarning into an error, so an overflow fails here
    def huge(x):
        value = 1e300 * (x - 0.3)
        return (value, np.full(np.shape(x), 1e300)) if slope else value

    assert float(bracketed_roots(huge, 0.0, 1.0)) == pytest.approx(0.3, abs=1e-12)


def test_opposite_signs_ignores_zero_and_nan():
    fa = np.array([-1e-200, 1e300, 0.0, np.nan, 2.0, -0.0])
    fb = np.array([1e-200, -1e300, 1.0, -1.0, 3.0, 1.0])
    assert opposite_signs(fa, fb).tolist() == [True, True, False, False, False, False]
