"""Fundamental-mode dispersion and fields of an air-clad silica fiber taper.

The taper is treated as a two-medium step-index circular waveguide
(silica core, air cladding).  Because the index contrast is large, the
solver uses the exact hybrid-mode characteristic equation (m = 1 family,
of which the HE11 root is the one with the largest propagation
constant), not the weakly-guiding LP01 approximation.

All lengths are in micrometres unless the name says otherwise; angular
propagation constants are rad/um.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULTS
from .errors import ConvergenceError, NoGuidedModeError, ProfileRangeError
from .roots import bracketed_roots, opposite_signs

C_UM_PER_S = 2.99792458e14  # speed of light [um/s]

# Fused-silica Sellmeier coefficients (lambda in um).
_SELLMEIER_B = (0.6961663, 0.4079426, 0.8974794)
_SELLMEIER_L2 = (0.0684043**2, 0.1162414**2, 9.896161**2)

_J01 = 2.404825557695773  # first zero of J0: the HE11 root has u below it
_EDGE = 1e-6  # bracket ends keep this far inside (n2, n1)
_XTOL, _RTOL = 1e-15, 8.9e-16  # root tolerance: _XTOL + _RTOL |n_eff|
_MAX_ITER = 60
_RESIDUAL_TOL = 1e-10
_UNPULLED_UM = 125.0  # standard fiber diameter, where an exponential taper ends


def _even_odd(coef):
    """Horner table for ``_polyval`` of the polynomials whose coefficients,
    lowest power first and an even number of them, are the columns of
    ``coef``.  Each polynomial splits into its even and odd parts, two
    polynomials in x^2 stacked as rows, so one Horner pass over all of them
    takes half the steps."""
    coef = np.array(coef, dtype=float)
    return np.hstack([coef[0::2], coef[1::2]])[::-1, :, None]


def _polyval(table, x):
    """The polynomials of a ``_even_odd`` table at ``x``, stacked on a new
    first axis."""
    shape, x = np.shape(x), np.reshape(x, -1)
    x2 = x * x
    acc = table[0] * x2
    acc += table[1]
    for c in table[2:]:
        acc *= x2
        acc += c
    half = len(acc) // 2
    out = acc[half:]
    out *= x
    out += acc[:half]
    return out.reshape((half,) + shape)


# J0 and J1/(u/2) as polynomials of degree 9 in t = (u/2)^2 on [0, 1.45]
# (u <= 2.408, past j01): Chebyshev fits to their power series (mpmath, 40
# digits), within 5.6e-18 of them; ``_j01`` is within 4.3e-16 of J0 and J1
# (absolute) on [0, j01].  Columns J0, J1/(u/2), lowest power first.
_J_TABLE = _even_odd([
    (1.0, 1.0),
    (-0.9999999999999992, -0.49999999999999994),
    (0.2499999999999824, 0.08333333333333172),
    (-0.027777777777622324, -0.006944444444430243),
    (0.0017361111104136186, 0.00034722222215850514),
    (-6.944444264612283e-05, -1.157407390981359e-05),
    (1.9290095211149184e-06, 2.7557293428670295e-07),
    (-3.936484988252101e-08, -4.920698877775916e-09),
    (6.134981425237796e-10, 6.819863671302219e-11),
    (-7.0620488808534446e-12, -7.109033202455927e-13),
])
# With t = (w/2)^2 and L = ln(w/2): K0 = A0 - L I0 and K1 = 1/w - (w/2)(A1 - L I1),
# where A0 = sum psi(k+1) t^k/k!^2 and A1 = sum (psi(k+1) + psi(k+2))/2 t^k/(k!(k+1)!)
# (Abramowitz & Stegun 9.6.11).  For w <= 2 (t <= 1) the four series are
# polynomials of degree 9, Chebyshev fits as above, within 3.6e-19 of them.
# Columns I0, I1/(w/2), A0, A1, lowest power first.
_K_SERIES = _even_odd([
    (1.0, 1.0, -0.5772156649015329, -0.07721566490153287),
    (1.0, 0.5, 0.4227843350984672, 0.33639216754923357),
    (0.249999999999999, 0.08333333333333325, 0.23069608377461445, 0.0907875834804276),
    (0.027777777777790523, 0.006944444444445599, 0.03489215745646892, 0.009591094919668053),
    (0.0017361111110283252, 0.00034722222221472124, 0.002614787618610217, 0.0005576797459652587),
    (6.944444475322255e-05, 1.1574074102053664e-05, 0.00011848039436836223, 2.071123851351581e-05),
    (1.9290116449015386e-06, 2.7557312873226304e-07, 3.612622452747443e-06, 5.357728046138563e-07),
    (3.936858241069583e-08, 4.92103900873439e-09, 7.935328137352067e-08, 1.0226643974751503e-08),
    (6.142859303643914e-10, 6.827101584780808e-11, 1.3147877336324059e-09, 1.499212334535999e-10),
    (7.982920901751804e-12, 7.946866954119869e-13, 1.8015293331696398e-11, 1.8326071539913413e-12),
])
# sqrt(w) K0e(w) = P0/Q0 and sqrt(w) K1e(w) = P1/Q1 in x = 1/w for w > 2: degree-7
# rationals fitted by iteratively reweighted relative least squares to mpmath
# (40 digits) on 301 Chebyshev nodes of x in [0, 1/2], worst fit error 1.2e-17.
# Every coefficient is positive, so the sums do not cancel.  Columns P0, P1, Q0,
# Q1, lowest power first.  ``_k01e`` is within 1.1e-15 of K0e and K1e (relative)
# on w in [1e-8, 1e3], the worst at w = 2, where the series ends.
_K_RATIONAL = _even_odd([
    (1.2533141373155003, 1.2533141373155003, 1.0, 1.0),
    (17.592761314296308, 17.35326875454869, 14.161992634566937, 13.470905218717188),
    (88.44225037482808, 87.02805994670578, 72.26664267606104, 64.50394343107858),
    (199.77896945405362, 200.78322494699503, 167.51136271501687, 137.48893911013903),
    (208.5619315917384, 224.41969078659565, 183.19112045599354, 133.8246116561793),
    (92.78989067071618, 117.34274522131525, 89.08814555856128, 54.604415871048474),
    (13.856600623357005, 24.96703299879753, 16.119222342951478, 7.267280533881906),
    (0.32533729018919133, 1.4317037568827065, 0.6729948479619087, 0.13560050531109277),
])


def silica_index(lam_um):
    """Refractive index of fused silica from the Sellmeier expansion."""
    lam2 = np.asarray(lam_um, dtype=float) ** 2
    # n^2 < 0 next to the UV and IR resonances gives nan, which no HE11 bracket holds
    with np.errstate(divide="ignore", invalid="ignore"):
        n2 = 1.0 + sum(b * lam2 / (lam2 - l2) for b, l2 in zip(_SELLMEIER_B, _SELLMEIER_L2))
        return np.sqrt(n2)


@dataclass(frozen=True)
class FiberSpec:
    """Air-clad step-index fiber segment of diameter ``d_um``.

    ``core_index=None`` means "fused silica", evaluated from the
    Sellmeier expansion at each operating wavelength.
    """

    d_um: float
    core_index: float | None = None
    clad_index: float = DEFAULTS["fiber"]["clad_index"]

    def __post_init__(self):
        if not 0 < self.d_um < np.inf:
            raise ValueError(f"fiber diameter must be finite and positive, got {self.d_um}")
        if not 1.0 <= self.clad_index < np.inf:
            raise ValueError(f"cladding index must be finite and >= 1, got {self.clad_index}")
        if self.core_index is not None and not self.clad_index < self.core_index < np.inf:
            raise ValueError(f"core index must be finite and exceed the cladding index, "
                             f"got {self.core_index}")

    def n_core(self, lam_um):
        if self.core_index is not None:
            return self.core_index
        return silica_index(lam_um)

    def with_diameter(self, d_um: float) -> "FiberSpec":
        return FiberSpec(d_um=d_um, core_index=self.core_index, clad_index=self.clad_index)


@dataclass(frozen=True)
class GuidedModePoint:
    """One (wavelength, propagation constant) sample of a guided mode."""

    wavelength_um: float
    n_eff: float

    @property
    def beta_rad_per_um(self) -> float:
        return 2.0 * np.pi * self.n_eff / self.wavelength_um


def _j01(u):
    """(J0, J1) at ``u`` on a new first axis: accurate to rounding on
    [0, j01], all that HE11 and ``ModeField`` evaluate, and not beyond."""
    h = 0.5 * np.asarray(u, dtype=float)
    out = _polyval(_J_TABLE, h * h)
    out[1] *= h
    return out


def _k01e(w):
    """(K0e, K1e) = e^w (K0, K1) at ``w`` >= 0 on a new first axis: the log
    series up to w = 2 and the rational fit above, each on its own elements.
    As scipy's, w = 0 gives non-finite values and w = inf zeros."""
    w = np.asarray(w, dtype=float)
    out = np.empty((2,) + w.shape)
    small = w <= 2.0  # NaN goes to the fit, which keeps it
    n_small = np.count_nonzero(small)
    # a region holding every element is indexed by ``...``: no gather or scatter
    small, big = ((..., None) if n_small == w.size else (None, ...) if not n_small
                  else (small, ~small))
    if small is not None:
        ws = w[small]
        h = 0.5 * ws
        with np.errstate(divide="ignore", invalid="ignore"):  # w = 0
            series = _polyval(_K_SERIES, h * h)
            k = series[2:] - np.log(h) * series[:2]  # K0, A1 - L I1
            k[1] *= -h
            k[1] += 1.0 / ws
            k *= np.exp(ws)
            out[:, small] = k
    if big is not None:
        wb = w[big]
        pq = _polyval(_K_RATIONAL, 1.0 / wb)
        ratio = pq[:2] / pq[2:]
        ratio /= np.sqrt(wb)
        out[:, big] = ratio
    return out


def _char_m1(neff, n1, n2, a_k0, slope=False):
    """Exact m=1 hybrid-mode characteristic function and its scale (or slope).

    Roots of ``value`` are the HE1n/EH1n modes.  It is Snyder & Love's
    (J1'/uJ1 + K1'/wK1)(J1'/uJ1 + (n2/n1)^2 K1'/wK1) = (n_eff/n1)^2 (1/u^2 + 1/w^2)^2
    times u^4 w^4, finite at both light lines.  ``scale`` is the magnitude
    of the balanced terms, for a relative residual check; it diverges at
    the poles of J0/J1, so pole crossings fail that check.  With ``slope``
    the pair is (value, d value/d n_eff), from the same Bessel values: with
    r = J0/J1(u) and s = K0/K1(w), the recurrences give dp/du = 2r - u - u r^2
    and dq/dw = w - 2s - w s^2.  With g = d(w^2)/dn_eff = -d(u^2)/dn_eff
    = 2 (a k0)^2 n_eff, d(p w^2)/dn_eff = g (p - w^2 (r/u - (1 + r^2)/2)) and
    d(q u^2)/dn_eff = g (u^2 ((1 - s^2)/2 - s/w) - q); u^2 + w^2 is constant,
    so the right side's slope is 2 n_eff/n1^2 (u^2 + w^2)^2.
    """
    neff = np.asarray(neff, dtype=float)
    # absurd indices or diameters overflow to inf or nan here; such values
    # fail the residual check, and the solve raises
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a2, nsq, n1sq = a_k0**2, neff**2, n1**2
        u2 = a2 * np.maximum(n1sq - nsq, 0.0)
        w2 = a2 * np.maximum(nsq - n2**2, 0.0)
        u, w = np.sqrt(u2), np.sqrt(w2)
        (j0, j1), (k0e, k1e) = _j01(u), _k01e(w)
        r, s = j0 / j1, k0e / k1e  # scaled Ks stay finite
        p, q = u * r - 1.0, -1.0 - w * s  # u^2 J1'/(u J1), w^2 K1'/(w K1)
        pw, qu, c = p * w2, q * u2, (n2 / n1) ** 2
        lhs_a, lhs_b = pw + qu, pw + c * qu
        v4 = (u2 + w2) ** 2
        lhs, rhs = lhs_a * lhs_b, nsq / n1sq * v4
        if not slope:
            return lhs - rhs, np.abs(lhs) + np.abs(rhs)
        dpw = p - w2 * (r / u - 0.5 * (1.0 + r * r))  # d(p w^2)/dn_eff over g
        dqu = u2 * (0.5 * (1.0 - s * s) - s / w) - q  # d(q u^2)/dn_eff over g
        g = 2.0 * a2 * neff
        dvalue = g * ((dpw + dqu) * lhs_b + lhs_a * (dpw + c * dqu)) - 2.0 * neff / n1sq * v4
        return lhs - rhs, dvalue


def _he11_bracket(n1, n2, a_k0):
    """n_eff interval holding HE11 and no other m=1 root: u below j01."""
    with np.errstate(over="ignore", invalid="ignore"):  # absurd inputs: inf or nan ends
        lo = np.maximum(n2 + _EDGE, np.sqrt(np.maximum(n1**2 - (_J01 / a_k0) ** 2, 0.0)))
    return lo, n1 - _EDGE


def _he11_f(neff, n1, n2, a_k0):
    return _char_m1(neff, n1, n2, a_k0, slope=True)


def _he11_roots(n1, n2, a_k0, start=None):
    """HE11 n_eff for broadcast arrays of core index, cladding index and a*k0.

    HE11 is the only root with u below j01, the first zero of J0, so
    n_eff in (sqrt(max(n2^2, n1^2 - (j01/(a k0))^2)), n1) brackets it away
    from every pole.  ``bracketed_roots`` refines them all at once by Newton
    steps on ``_char_m1``'s analytic slope, from ``start`` (broadcast; an
    estimate of the roots) if given, else from the bracket's upper end.  A
    sign change proves the HE11 root: on a start's narrow bracket, which
    lies inside the HE11 one, else on the whole bracket.  Every root must
    pass the relative residual check.  The first element that fails raises:
    NoGuidedModeError for an empty bracket or one with no sign change (too
    thin a fiber), ConvergenceError for a root that did not settle or failed
    the check.
    """
    n1, n2, a_k0 = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (n1, n2, a_k0)))
    a, b = _he11_bracket(n1, n2, a_k0)
    if not np.all(a < b):
        i = np.flatnonzero(~(a < b))[0]
        raise NoGuidedModeError(
            f"empty HE11 bracket in the index window ({n2.flat[i]}, {n1.flat[i]})")
    out = bracketed_roots(_he11_f, a, b, (n1, n2, a_k0), _XTOL, _RTOL, _MAX_ITER, start)
    value, scale = _char_m1(out, n1, n2, a_k0)
    bad = np.flatnonzero(~(np.abs(value) < _RESIDUAL_TOL * scale))
    if bad.size:
        i = bad[0]
        args = n1.flat[i], n2.flat[i], a_k0.flat[i]
        v = args[2] * np.sqrt(args[0] ** 2 - args[1] ** 2)
        fa, fb = (_char_m1(x, *args)[0] for x in (a.flat[i], b.flat[i]))
        if not opposite_signs(fa, fb):
            raise NoGuidedModeError(
                f"no guided m=1 solution bracketed for V={v:.3f} "
                f"(diameter too small for the numerical bracket)")
        raise ConvergenceError(
            f"HE11 root did not settle or failed the residual check (V={v:.3f})")
    return out


def he11_neff(spec: FiberSpec, lam_um, d_um=None, start=None) -> np.ndarray:
    """HE11 n_eff of ``spec`` over broadcast wavelengths and diameters
    (``d_um`` defaults to the spec's own), solved as one array; ``start``
    is an optional first Newton iterate, as in ``_he11_roots``."""
    lam = np.asarray(lam_um, dtype=float)
    d = spec.d_um if d_um is None else np.asarray(d_um, dtype=float)
    a_k0 = np.pi * d / lam  # (d/2) * (2 pi / lambda)
    return _he11_roots(spec.n_core(lam), spec.clad_index, a_k0, start)


def fundamental_neff(spec: FiberSpec, lam_um: float) -> GuidedModePoint:
    """Effective index of the fundamental (HE11) mode: the root of the exact
    characteristic equation with the largest propagation constant.

    Raises NoGuidedModeError if no root is bracketed (diameter too small)
    and ConvergenceError if it cannot be refined to tolerance.
    """
    if lam_um <= 0:
        raise ValueError("wavelength must be positive")
    return GuidedModePoint(wavelength_um=lam_um, n_eff=float(he11_neff(spec, lam_um)))


def characteristic_residual(spec: FiberSpec, point: GuidedModePoint) -> float:
    """Relative residual of the characteristic equation at a solved point."""
    lam = point.wavelength_um
    a_k0 = np.pi * spec.d_um / lam
    value, scale = _char_m1(point.n_eff, spec.n_core(lam), spec.clad_index, a_k0)
    return float(abs(value) / scale)


def neff_and_dbeta_dd(spec: FiberSpec, lam_um):
    """HE11 n_eff of ``spec`` and its diameter sensitivity d(beta)/d(d) in
    units of (omega/c) per um, over wavelengths ``lam_um`` (arrays, or 0-d
    for a scalar), from one solve at d, d + dd and d - dd.

    The sensitivity is a centered finite difference with step
    max(1e-3 um, 1e-3 * d); the step sits above the solver noise floor and
    below truncation error.
    """
    dd = max(1e-3, 1e-3 * spec.d_um)
    d = np.array([spec.d_um, spec.d_um + dd, spec.d_um - dd])
    n_eff, hi, lo = he11_neff(spec, lam_um, d.reshape((3,) + (1,) * np.ndim(lam_um)))
    # beta = n_eff * k0, so (dbeta/dd)/k0 reduces to d(n_eff)/dd.
    return n_eff, (hi - lo) / (2.0 * dd)


def _decay(spec: FiberSpec, lam_um, n_eff):
    """Evanescent decay constant gamma = sqrt(beta^2 - k0^2 n_clad^2) [1/um]
    of the solved index ``n_eff``."""
    return 2.0 * np.pi / np.asarray(lam_um) * np.sqrt(n_eff**2 - spec.clad_index**2)


def exterior_decay(spec: FiberSpec, lam_um, d_um=None):
    """Evanescent decay constant gamma [1/um] of HE11 over broadcast
    wavelengths and diameters, as ``he11_neff``."""
    gamma = _decay(spec, lam_um, he11_neff(spec, lam_um, d_um))
    return float(gamma) if gamma.ndim == 0 else gamma


class ModeField:
    """Dominant transverse electric component of the solved HE11 mode.

    Quasi-linearly-polarized profile: Bessel J0 radial dependence in the
    core, K0 in the cladding, continuous at the boundary, normalized to
    unit power flux (integral of |E|^2 over the cross-section is 1).
    """

    def __init__(self, spec: FiberSpec, lam_um: float):
        self.spec = spec
        self.point = fundamental_neff(spec, lam_um)
        self.a_um = spec.d_um / 2.0
        n1 = spec.n_core(lam_um)
        k0 = 2.0 * np.pi / lam_um
        self.u = self.a_um * k0 * np.sqrt(n1**2 - self.point.n_eff**2)
        self.gamma_per_um = float(_decay(spec, lam_um, self.point.n_eff))
        self.w = self.a_um * self.gamma_per_um
        # Closed-form norm of the piecewise J0/K0 profile with psi(a) = 1:
        #   P = pi a^2 [ (J0^2+J1^2)/J0^2 |_u - 1 + K1^2/K0^2 |_w ]
        (self._j0u, j1u), (self._k0w, k1w) = _j01(self.u), _k01e(self.w)
        power = np.pi * self.a_um**2 * ((j1u / self._j0u) ** 2 + (k1w / self._k0w) ** 2)
        self._amp = 1.0 / np.sqrt(power)

    def radial(self, r_um):
        """Normalized field amplitude at radius r (um)."""
        r = np.asarray(r_um, dtype=float)
        rho = r / self.a_um
        inside = rho <= 1.0
        out = np.empty(r.shape)
        out[inside] = _j01(self.u * rho[inside])[0] / self._j0u
        ro = rho[~inside]
        # K0(w rho)/K0(w) via scaled Bessels to stay finite for large rho.
        out[~inside] = _k01e(self.w * ro)[0] / self._k0w * np.exp(-self.w * (ro - 1.0))
        return self._amp * out


def _pchip_slopes(x, y):
    """Knot slopes of the monotone PCHIP through (x, y), as scipy's
    PchipInterpolator takes them: the weighted harmonic mean of the two
    secants, 0 where they differ in sign or one vanishes, and a one-sided
    three-point estimate at each end, set to 0 or 3 m0 to keep the shape.
    Two knots give the secant at both."""
    h = np.diff(x)
    m = np.diff(y) / h
    if m.size == 1:
        return np.array([m[0], m[0]])
    d = np.zeros_like(y)
    k = np.flatnonzero((np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0) & (m[:-1] != 0))
    w1, w2 = 2 * h[k + 1] + h[k], h[k + 1] + 2 * h[k]
    d[k + 1] = 1.0 / ((w1 / m[k] + w2 / m[k + 1]) / (w1 + w2))
    for end, (h0, h1, m0, m1) in ((0, (h[0], h[1], m[0], m[1])),
                                  (-1, (h[-1], h[-2], m[-1], m[-2]))):
        d[end] = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d[end]) != np.sign(m0):
            d[end] = 0.0
        elif np.sign(m0) != np.sign(m1) and abs(d[end]) > 3.0 * abs(m0):
            d[end] = 3.0 * m0
    return d


def _hermite_cubics(x, y, dydx):
    """Power-basis coefficients (c0, c1, c2, c3) of the cubic Hermite
    interpolant of values ``y`` and slopes ``dydx`` at the knots ``x``: on
    [x_i, x_i+1] it is c0 s^3 + c1 s^2 + c2 s + c3 with s = x - x_i, by
    scipy's CubicHermiteSpline formulas."""
    h = np.diff(x)
    slope = np.diff(y) / h
    t = (dydx[:-1] + dydx[1:] - 2 * slope) / h
    return np.stack((t / h, (slope - dydx[:-1]) / h - t, dydx[:-1], y[:-1]))


def _hermite_eval(x, c, xq):
    """Piecewise cubic ``c`` (from ``_hermite_cubics``) at ``xq``, summed as
    scipy's PPoly sums it, so the values agree bit for bit: intervals are
    [x_i, x_i+1), the last one closed."""
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    s = xq - x[i]
    c0, c1, c2, c3 = c[:, i]
    return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)


@dataclass(frozen=True)
class TaperProfile:
    """Fiber diameter versus position along the taper, d(l_c).

    ``l_c_mm`` must be strictly increasing; the diameter must not
    decrease moving away from the waist (the minimum-diameter point).
    Interpolation is monotone piecewise-cubic (PCHIP), exact at the
    sample points and equal, bit for bit, to scipy's PchipInterpolator,
    in numpy alone.
    """

    l_c_mm: tuple
    d_um: tuple
    name: str = "taper"
    _interp: tuple = field(init=False, repr=False, compare=False)  # knots, PCHIP cubics

    def __post_init__(self):
        lc = np.asarray(self.l_c_mm, dtype=float)
        d = np.asarray(self.d_um, dtype=float)
        if lc.ndim != 1 or lc.size < 2 or lc.shape != d.shape:
            raise ValueError("profile needs matching 1-D l_c and d arrays (>= 2 samples)")
        if not np.all(np.isfinite(lc) & np.isfinite(d)):
            raise ValueError("profile values must be finite")
        if not np.all(np.diff(lc) > 0):
            raise ValueError("l_c samples must be strictly increasing")
        if np.any(d <= 0):
            raise ValueError("diameters must be positive")
        waist = int(np.argmin(d))
        if np.any(np.diff(d[waist:]) < 0) or np.any(np.diff(d[: waist + 1]) > 0):
            raise ValueError("diameter must be non-decreasing away from the waist")
        object.__setattr__(self, "l_c_mm", tuple(float(v) for v in lc))
        object.__setattr__(self, "d_um", tuple(float(v) for v in d))
        object.__setattr__(self, "_interp", (lc, _hermite_cubics(lc, d, _pchip_slopes(lc, d))))

    @property
    def span_mm(self):
        return self.l_c_mm[0], self.l_c_mm[-1]

    def diameter_at(self, l_c_mm) -> float | np.ndarray:
        """Interpolated diameter at l_c (mm); exact at sample points."""
        lc = np.asarray(l_c_mm, dtype=float)
        lo, hi = self.span_mm
        if not np.all((lc >= lo) & (lc <= hi)):  # NaN is outside too
            raise ProfileRangeError(
                f"l_c outside sampled range [{lo}, {hi}] mm"
            )
        val = _hermite_eval(*self._interp, lc)
        return float(val) if np.isscalar(l_c_mm) else val

    @classmethod
    def exponential(cls, waist_um: float, pull_mm: float):
        """Standard heat-and-pull shape: d grows exponentially from the waist,
        sampled at 201 points.

        The decay length is set so the profile reaches the unpulled fiber
        diameter, 125 um, at ``pull_mm``.
        """
        if not 0 < waist_um < _UNPULLED_UM:
            raise ValueError("need 0 < waist diameter < full diameter")
        if pull_mm <= 0:
            raise ValueError("pull length must be positive")
        scale = pull_mm / np.log(_UNPULLED_UM / waist_um)
        lc = np.linspace(0.0, pull_mm, 201)
        return cls(tuple(lc), tuple(waist_um * np.exp(lc / scale)), name="exponential")

    @classmethod
    def from_csv(cls, path, name=None):
        """Read a two-column CSV with header ``l_c_mm,d_um`` sorted in l_c."""
        import csv as _csv

        with open(path, newline="") as fh:
            reader = _csv.reader(fh)
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != ["l_c_mm", "d_um"]:
                raise ValueError(f"{path}: expected header 'l_c_mm,d_um'")
            rows = [r for r in reader if r]
        if any(len(r) != 2 for r in rows):
            raise ValueError(f"{path}: every row needs two cells, l_c_mm and d_um")
        lc, d = np.array(rows, dtype=float).reshape(-1, 2).T
        return cls(tuple(lc), tuple(d), name=name or str(path))
