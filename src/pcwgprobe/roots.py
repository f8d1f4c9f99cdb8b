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


# A started element's narrow bracket: d = _START_HALF_WIDTH |s| on each side
# of s, 45 times the worst start error of the map's HE11 solve (2.2e-11).
_START_HALF_WIDTH = 1e-9


def _newton_step(a, b, fb, g):
    """Newton's step from ``b`` (value ``fb``, slope ``g``), its length, the
    bracket's width, and whether the step lands inside the bracket (a, b); a
    zero slope does not."""
    step = np.divide(fb, g, out=np.full(fb.shape, np.inf), where=g != 0)
    size, width = np.abs(step), np.abs(b - a)
    return step, size, width, (step * (b - a) >= 0) & (size < width)


def bracketed_roots(f, a, b, args=(), xtol=2e-12, rtol=4 * np.finfo(float).eps, max_iter=60,
                    start=None):
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

    ``start`` (``f`` with a slope; broadcast to that shape) estimates the
    roots.  Each start s in [a, b] is tested first on its narrow bracket,
    s -+ ``_START_HALF_WIDTH`` |s| clipped into [a, b].  Where its ends
    differ in sign a root lies between them, and the Newton steps go on from
    the end with the smaller |f|, the first step free of the half-step rule.
    Elements whose narrow ends do not differ in sign, or whose first step
    would leave them, take the sign test at a and b; their steps go on from
    the narrow end whose value differs in sign from that at a (or b), if one
    does, else from ``b``.  A start outside [a, b], or NaN, costs no
    evaluation.  None, the default: the iterates are those from ``b``.
    """
    a, b, *args = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (a, b, *args)))
    shape = a.shape
    a, b, args = a.ravel(), b.ravel(), [p.ravel() for p in args]
    out = np.full(a.size, np.nan)
    rest, newton = slice(None), start is not None  # the elements for the sign test at a, b
    if newton:
        s = np.broadcast_to(np.asarray(start, dtype=float), shape).ravel()
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        started = (lo <= s) & (s <= hi)  # NaN is not
        near = np.flatnonzero(started)
        take = near if near.size < a.size else slice(None)  # no gather if all started
        half = _START_HALF_WIDTH * np.abs(s[take])
        # the narrow ends, below and above the start: any two points of [a, b]
        # whose values differ in sign bracket a root
        pa, pb = np.maximum(s[take] - half, lo[take]), np.minimum(s[take] + half, hi[take])
        (fpa, gpa), (fpb, gpb) = (f(x, *(p[take] for p in args)) for x in (pa, pb))
        low = np.abs(fpb) <= np.abs(fpa)  # Newton steps from the end with the smaller |f|
        na, nb, nfb, ng = (np.where(low, x, y) for x, y in
                           ((pa, pb), (pb, pa), (fpb, fpa), (gpb, gpa)))
        proved = opposite_signs(fpa, fpb) & _newton_step(na, nb, nfb, ng)[3]
        # the failed started elements, then the unstarted
        unstarted = np.flatnonzero(~started)
        rest = np.concatenate((near[~proved], unstarted))
        narrow = [np.concatenate((v[~proved], np.full(unstarted.size, np.nan)))
                  for v in (pa, pb, fpa, fpb, gpa, gpb)]
    ra, rb, rargs = a[rest], b[rest], [p[rest] for p in args]
    fa = fb = g = np.empty(0)
    if ra.size:
        fa, fb = f(ra, *rargs), f(rb, *rargs)
        if newton := isinstance(fb, tuple):
            (fa, _), (fb, g) = fa, fb
    todo = np.flatnonzero(opposite_signs(fa, fb))  # elements refining; b is the newest iterate
    # g is the slope at b (Newton) or the scaled value at a (regula falsi)
    a, b, fb, g = ra[todo], rb[todo], fb[todo], (g if newton else fa)[todo]
    last = before = np.abs(b - a)  # Newton: the last two step lengths
    if start is not None:
        # a failed started element steps from its narrow end next to the sign
        # change, if that lies outside the narrow bracket
        xa, xb, fxa, fxb, gxa, gxb = (v[todo] for v in narrow)
        below = opposite_signs(fa[todo], fxa)  # between a and the narrow bracket
        above = ~below & opposite_signs(fxb, fb)  # between it and b
        a, b, fb, g = (np.where(below, x, np.where(above, y, z)) for x, y, z in
                       ((a, b, a), (xa, xb, b), (fxa, fxb, fb), (gxa, gxb, g)))
        # the narrow-bracket elements go first, their first step free of the half-step rule
        todo, a, b, fb, g = (np.concatenate((x[proved], y)) for x, y in
                             ((near, rest[todo]), (na, a), (nb, b), (nfb, fb), (ng, g)))
        free = np.count_nonzero(proved)
        last = np.abs(b - a)
        before = np.concatenate((np.full(free, np.inf), last[free:]))
    for _ in range(max_iter):
        if not todo.size:
            break
        if newton:
            # a zero slope bisects; a step that rounds to b lands inside
            step, size, width, inside = _newton_step(a, b, fb, g)
            inside &= size <= 0.5 * before
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
