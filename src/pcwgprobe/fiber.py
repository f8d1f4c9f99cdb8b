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
from scipy.special import j0, j1, k0e, k1e

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
    clad_index: float = 1.0

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


def _char_m1(neff, n1, n2, a_k0, slope=False):
    """Exact m=1 hybrid-mode characteristic function and its scale (or slope).

    Roots of ``value`` are the HE1n/EH1n modes.  It is Snyder & Love's
    (J1'/uJ1 + K1'/wK1)(J1'/uJ1 + (n2/n1)^2 K1'/wK1) = (n_eff/n1)^2 (1/u^2 + 1/w^2)^2
    times u^4 w^4, finite at both light lines.  ``scale`` is the magnitude
    of the balanced terms, for a relative residual check; it diverges at
    the poles of J0/J1, so pole crossings fail that check.  With ``slope``
    the pair is (value, d value/d n_eff), from the same Bessel values: with
    r = J0/J1(u) and s = K0/K1(w), the recurrences give dp/du = 2r - u - u r^2
    and dq/dw = w - 2s - w s^2; d(w^2)/dn_eff = -d(u^2)/dn_eff = 2 (a k0)^2 n_eff,
    and u^2 + w^2 is constant, so the right side's slope is 2 n_eff/n1^2 (u^2 + w^2)^2.
    """
    neff = np.asarray(neff, dtype=float)
    # absurd indices or diameters overflow to inf or nan here; such values
    # fail the residual check, and the solve raises
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u2 = a_k0**2 * np.maximum(n1**2 - neff**2, 0.0)
        w2 = a_k0**2 * np.maximum(neff**2 - n2**2, 0.0)
        u, w = np.sqrt(u2), np.sqrt(w2)
        r, s = j0(u) / j1(u), k0e(w) / k1e(w)  # scaled Ks stay finite
        p, q = u * r - 1.0, -w * s - 1.0  # u^2 J1'/(u J1), w^2 K1'/(w K1)
        lhs_a, lhs_b = p * w2 + q * u2, p * w2 + (n2 / n1) ** 2 * q * u2
        lhs, rhs = lhs_a * lhs_b, (neff / n1) ** 2 * (u2 + w2) ** 2
        if not slope:
            return lhs - rhs, np.abs(lhs) + np.abs(rhs)
        dw2 = 2.0 * a_k0**2 * neff
        dpw = p * dw2 - (2.0 * r - u - u * r**2) * w2 * dw2 / (2.0 * u)  # d(p w^2)/dn_eff
        dqu = (w - 2.0 * s - w * s**2) * u2 * dw2 / (2.0 * w) - q * dw2  # d(q u^2)/dn_eff
        drhs = 2.0 * neff / n1**2 * (u2 + w2) ** 2
        return lhs - rhs, (dpw + dqu) * lhs_b + lhs_a * (dpw + (n2 / n1) ** 2 * dqu) - drhs


def _he11_bracket(n1, n2, a_k0):
    """n_eff interval holding HE11 and no other m=1 root: u below j01."""
    with np.errstate(over="ignore", invalid="ignore"):  # absurd inputs: inf or nan ends
        lo = np.maximum(n2 + _EDGE, np.sqrt(np.maximum(n1**2 - (_J01 / a_k0) ** 2, 0.0)))
    return lo, n1 - _EDGE


def _he11_f(neff, n1, n2, a_k0):
    return _char_m1(neff, n1, n2, a_k0, slope=True)


def _he11_roots(n1, n2, a_k0):
    """HE11 n_eff for broadcast arrays of core index, cladding index and a*k0.

    HE11 is the only root with u below j01, the first zero of J0, so
    n_eff in (sqrt(max(n2^2, n1^2 - (j01/(a k0))^2)), n1) brackets it away
    from every pole.  ``bracketed_roots`` refines them all at once by Newton
    steps on ``_char_m1``'s analytic slope, and every root must pass the
    relative residual check.  The first element that fails raises:
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
    out = bracketed_roots(_he11_f, a, b, (n1, n2, a_k0), _XTOL, _RTOL, _MAX_ITER)
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


def he11_neff(spec: FiberSpec, lam_um, d_um=None) -> np.ndarray:
    """HE11 n_eff of ``spec`` over broadcast wavelengths and diameters
    (``d_um`` defaults to the spec's own), solved as one array."""
    lam = np.asarray(lam_um, dtype=float)
    d = spec.d_um if d_um is None else np.asarray(d_um, dtype=float)
    a_k0 = np.pi * d / lam  # (d/2) * (2 pi / lambda)
    return _he11_roots(spec.n_core(lam), spec.clad_index, a_k0)


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


def dbeta_dd(spec: FiberSpec, lam_um):
    """Diameter sensitivity d(beta)/d(d) in units of (omega/c) per um, as
    ``neff_and_dbeta_dd``; a scalar ``lam_um`` gives a float."""
    sens = neff_and_dbeta_dd(spec, lam_um)[1]
    return float(sens) if sens.ndim == 0 else sens


def exterior_decay(spec: FiberSpec, lam_um, d_um=None):
    """Evanescent decay constant gamma = sqrt(beta^2 - k0^2 n_clad^2) [1/um]
    over broadcast wavelengths and diameters, as ``he11_neff``."""
    n_eff = he11_neff(spec, lam_um, d_um)
    gamma = 2.0 * np.pi / np.asarray(lam_um) * np.sqrt(n_eff**2 - spec.clad_index**2)
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
        self.w = self.a_um * k0 * np.sqrt(self.point.n_eff**2 - spec.clad_index**2)
        self.gamma_per_um = self.w / self.a_um
        # Closed-form norm of the piecewise J0/K0 profile with psi(a) = 1:
        #   P = pi a^2 [ (J0^2+J1^2)/J0^2 |_u - 1 + K1^2/K0^2 |_w ]
        k_ratio = k1e(self.w) / k0e(self.w)
        power = np.pi * self.a_um**2 * ((j1(self.u) / j0(self.u)) ** 2 + k_ratio**2)
        self._amp = 1.0 / np.sqrt(power)

    def radial(self, r_um):
        """Normalized field amplitude at radius r (um)."""
        r = np.asarray(r_um, dtype=float)
        rho = r / self.a_um
        inside = rho <= 1.0
        out = np.empty(r.shape)
        out[inside] = j0(self.u * rho[inside]) / j0(self.u)
        ro = rho[~inside]
        # K0(w rho)/K0(w) via scaled Bessels to stay finite for large rho.
        out[~inside] = k0e(self.w * ro) / k0e(self.w) * np.exp(-self.w * (ro - 1.0))
        return self._amp * out

    def __call__(self, x_um, y_um):
        """Complex field amplitude at transverse position (x, y) from the axis."""
        return self.radial(np.hypot(x_um, y_um)).astype(complex)


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
