import numpy as np
import pytest

from pcwgprobe.roots import bracketed_roots


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
