"""The package's one root finder, over arrays of brackets with one vectorized
call per step: safeguarded Newton (rtsafe) given the slope, as for the HE11
index, else Anderson-Bjorck regula falsi (slab index, dispersive fixed point).
"""

from __future__ import annotations

import numpy as np


def opposite_signs(fa, fb):
    """Elementwise: fa and fb are nonzero with opposite signs.  Compares
    signs, so no product under- or overflows; a NaN is no sign change."""
    return np.sign(fa) * np.sign(fb) < 0


def bracketed_roots(f, a, b, args=(), xtol=2e-12, rtol=4 * np.finfo(float).eps, max_iter=60):
    """Roots of ``f(x, *args) = 0`` in the brackets (a, b), elementwise.

    ``a``, ``b`` and ``args`` broadcast to one shape; ``f`` maps an array of
    abscissae and the matching elements of ``args`` to the values, or to a
    ``(value, slope)`` pair.  Each iterate, from ``b`` on, is the newest end
    of a sign-change bracket.  With a slope the step is Newton's, or bisection
    where Newton's would leave the bracket or, as in rtsafe, be longer than
    half the step before last (iterates that shrink slowly or cycle); a Newton
    step of at most ``xtol + rtol * |x|`` settles the element, unevaluated,
    where it lands.  Without one the step is Anderson-Bjorck regula falsi.  An
    element also stops once its bracket is narrower than that or ``f``
    vanishes.  Elements with no sign change, or not settled within
    ``max_iter`` steps, are NaN.
    """
    a, b, *args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, *args)))
    shape = a.shape
    a, b, args = a.ravel(), b.ravel(), [p.ravel() for p in args]
    fa, fb = f(a, *args), f(b, *args)
    if newton := isinstance(fb, tuple):
        (fa, _), (fb, g) = fa, fb
    out = np.full(a.size, np.nan)
    todo = np.flatnonzero(opposite_signs(fa, fb))  # elements refining; b is the newest iterate
    # g is the slope at b (Newton) or the scaled value at a (regula falsi)
    a, b, fb, g = a[todo], b[todo], fb[todo], (g if newton else fa)[todo]
    last = before = np.abs(b - a)  # Newton: the last two step lengths
    for _ in range(max_iter):
        if not todo.size:
            break
        if newton:
            # a zero slope bisects; a step that rounds to b lands inside
            step = np.divide(fb, g, out=np.full(fb.shape, np.inf), where=g != 0)
            size, width = np.abs(step), np.abs(b - a)
            inside = (step * (b - a) >= 0) & (size < width) & (size <= 0.5 * before)
            c = np.where(inside, b - step, 0.5 * (a + b))
            settled = inside & (size <= xtol + rtol * np.abs(c))
            before, last = last, np.where(inside, size, 0.5 * width)
            if settled.any():
                out[todo[settled]] = c[settled]
                todo, a, b, c, fb, before, last = (
                    v[~settled] for v in (todo, a, b, c, fb, before, last))
            if not todo.size:
                break
            fc, g = f(c, *(p[todo] for p in args))
            a = np.where(opposite_signs(fc, fb), b, a)
        else:
            c = b - fb * (b - a) / (fb - g)
            fc = f(c, *(p[todo] for p in args))
            flip = opposite_signs(fc, fb)
            m = 1.0 - fc / fb
            a = np.where(flip, b, a)
            g = np.where(flip, fb, np.where(m > 0, m, 0.5) * g)
        b, fb = c, fc
        done = (fc == 0) | (np.abs(b - a) <= xtol + rtol * np.abs(b))
        if done.any():
            out[todo[done]] = b[done]
            todo, a, b, fb, g, before, last = (
                v[~done] for v in (todo, a, b, fb, g, before, last))
    return out.reshape(shape)
