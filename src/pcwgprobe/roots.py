"""The package's one root finder: Anderson-Bjorck regula falsi over arrays of
brackets, one vectorized function call per step for all of them.  It solves
the fiber's HE11 index, the slab index and the dispersive band fixed point.
"""

from __future__ import annotations

import numpy as np


def bracketed_roots(f, a, b, args=(), xtol=2e-12, rtol=4 * np.finfo(float).eps, max_iter=60):
    """Roots of ``f(x, *args) = 0`` in the brackets (a, b), elementwise.

    ``a``, ``b`` and ``args`` broadcast to one shape; ``f`` maps an array
    of abscissae and the matching elements of ``args`` to the function
    values.  An element stops once its bracket is narrower than
    ``xtol + rtol * |x|`` or ``f`` vanishes.  Elements whose bracket holds
    no sign change, or that do not settle within ``max_iter`` steps, are NaN.
    """
    a, b, *args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, *args)))
    shape = a.shape
    a, b, args = a.ravel(), b.ravel(), [p.ravel() for p in args]
    fa, fb = f(a, *args), f(b, *args)
    out = np.full(a.size, np.nan)
    todo = np.flatnonzero(fa * fb < 0)  # elements still refining; b is the newest iterate
    a, b, fa, fb = a[todo], b[todo], fa[todo], fb[todo]
    for _ in range(max_iter):
        if not todo.size:
            break
        c = b - fb * (b - a) / (fb - fa)
        fc = f(c, *(p[todo] for p in args))
        flip = fc * fb < 0
        m = 1.0 - fc / fb
        a = np.where(flip, b, a)
        fa = np.where(flip, fb, np.where(m > 0, m, 0.5) * fa)
        b, fb = c, fc
        done = (fc == 0) | (np.abs(b - a) <= xtol + rtol * np.abs(b))
        out[todo[done]] = b[done]
        todo, a, b, fa, fb = (v[~done] for v in (todo, a, b, fa, fb))
    return out.reshape(shape)
