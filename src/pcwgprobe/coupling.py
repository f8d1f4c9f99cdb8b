"""Coupled-mode theory of the taper / PCWG junction.

Lossless two-mode transfer functions for contra- and co-directional
coupling, the field-overlap coupling coefficient, the scattering-loss
model, and the efficiency metrics (ideality from transmission and from
back-reflection, Fabry-Perot end reflectivity from fringe contrast).

Conventions: kappa and the detuning Delta are in 1/um, interaction
lengths in um, gaps in nm.  Delta = (beta_fiber - beta_wg)/2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .config import DEFAULTS
from .errors import (
    InsufficientFringesError,
    NonPhysicalContrastError,
    PcwgProbeError,
    UndefinedWidthError,
)
from .fiber import FiberSpec, ModeField, exterior_decay

_COUPLER = DEFAULTS["coupler"]


@dataclass(frozen=True)
class CouplerConfig:
    """Taper-PCWG junction parameters; the defaults are ``config.DEFAULTS["coupler"]``."""

    gap_nm: float = _COUPLER["gap_nm"]
    l_c_um: float = _COUPLER["l_c_um"]
    kappa_ref_l: float = _COUPLER["kappa_ref_l"]
    g_ref_nm: float = _COUPLER["g_ref_nm"]
    d_ref_um: float = _COUPLER["d_ref_um"]
    d_kappa_um: float = _COUPLER["d_kappa_um"]
    g0_nm: float | None = _COUPLER["g0_nm"]  # None: derive 1/gamma from the fiber solve
    # broadband scattering loss: fraction lost at (g = 400 nm, d = 1.0 um),
    # growing exponentially toward small gaps and small diameters
    scatter_loss_ref: float = _COUPLER["scatter_loss_ref"]
    scatter_g_scale_nm: float = _COUPLER["scatter_g_scale_nm"]
    scatter_d_scale_um: float = _COUPLER["scatter_d_scale_um"]

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None and not np.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name in ("l_c_um", "d_kappa_um", "g0_nm", "scatter_g_scale_nm", "scatter_d_scale_um"):
            if getattr(self, name) is not None and not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.gap_nm < 0 or self.kappa_ref_l < 0:
            raise ValueError("need gap_nm >= 0 and kappa_ref_l >= 0")
        if not 0.0 <= self.scatter_loss_ref <= 1.0:
            raise ValueError(f"scatter_loss_ref must lie in [0, 1], got {self.scatter_loss_ref}")

    def decay_per_um(self, fiber: FiberSpec, lam_um: float, d_um=None, gamma_per_um=None):
        """Gap decay rate of kappa: the fiber exterior decay constant,
        over broadcast diameters ``d_um`` (default: the fiber's own), or
        ``gamma_per_um`` where the caller has solved it already."""
        if self.g0_nm is not None:
            return 1e3 / self.g0_nm
        if gamma_per_um is not None:
            return gamma_per_um
        return exterior_decay(fiber, lam_um, d_um)

    def kappa_perp(self, fiber: FiberSpec, lam_um: float, gap_nm=None, d_um=None,
                   gamma_per_um=None):
        """Parametric kappa_perp(g, d) [1/um], broadcast over gaps and diameters.

        kappa = (kappa_ref_l / L_c) e^(-gamma(d) (g - g_ref)) e^(-(d_ref - d)/d_kappa)

        ``gamma_per_um``, the fiber mode's own decay constant (as
        ``ModeField.gamma_per_um``), spares the solve.  A kappa past the
        float range raises PcwgProbeError.
        """
        g = self.gap_nm if gap_nm is None else np.asarray(gap_nm, dtype=float)
        d = fiber.d_um if d_um is None else np.asarray(d_um, dtype=float)
        gamma = self.decay_per_um(fiber, lam_um, d_um, gamma_per_um)
        kappa_ref = self.kappa_ref_l / self.l_c_um
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.exp(-(self.d_ref_um - d) / self.d_kappa_um)
            kappa = kappa_ref * size * np.exp(-gamma * (g - self.g_ref_nm) * 1e-3)
        if not np.all(np.isfinite(kappa)):
            raise PcwgProbeError("coupling coefficient kappa_perp overflows: check the coupler's "
                                 "g_ref_nm, d_ref_um, d_kappa_um and kappa_ref_l")
        return float(kappa) if np.ndim(kappa) == 0 else kappa

    def scattering_transmission(self, d_um, gap_nm=None):
        """Off-resonance power transmission 1 - loss(g, d), broadband, over
        broadcast diameters and gaps; the loss is clipped to [0, 0.5]."""
        g = self.gap_nm if gap_nm is None else np.asarray(gap_nm, dtype=float)
        with np.errstate(over="ignore"):  # a scale near zero: an exponent of +-inf
            a = -(g - 400.0) / self.scatter_g_scale_nm
            b = -(np.asarray(d_um, dtype=float) - 1.0) / self.scatter_d_scale_um
        # far outside the calibration: one summed exponent
        far = np.maximum(np.abs(a), np.abs(b)) > 300.0
        summed = np.clip(np.clip(a, -1e300, 1e300) + np.clip(b, -1e300, 1e300), -800, 700)
        a, b = np.where(far, summed, a), np.where(far, 0.0, b)
        loss = self.scatter_loss_ref * np.exp(a) * np.exp(b)
        t = 1.0 - np.clip(loss, 0.0, 0.5)
        return float(t) if np.ndim(t) == 0 else t


# ---------------------------------------------------------------------------
# Two-mode transfer functions
# ---------------------------------------------------------------------------


def _power_of_two_units(kappa_per_um, delta_per_um):
    """kappa and Delta (broadcast) in units of a power of two near the larger,
    and that unit: exact, and no square of either overflows."""
    kappa, delta = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                         for v in (kappa_per_um, delta_per_um)))
    scale = np.ldexp(1.0, np.frexp(np.maximum(np.abs(kappa), np.abs(delta)))[1] - 1)
    return kappa / scale, delta / scale, scale


def contra_transmission(kappa_per_um, l_um, delta_per_um):
    """Contra-directional (Bragg-mediated) transfer: (T, C) power fractions.

    T = s^2 / (s^2 cosh^2 sL + Delta^2 sinh^2 sL) with s^2 = kappa^2 -
    Delta^2; the oscillatory branch (|Delta| > kappa) is the analytic
    continuation sinh -> sin.  Lossless: with r = kappa^2 sinh^2(sL) / s^2,
    T = 1/(1 + r) and C = 1/(1 + 1/r), so T + C = 1 at every detuning, and
    an r past the float range gives the limit T = 0, C = 1 exactly.
    """
    kappa, delta, scale = _power_of_two_units(kappa_per_um, delta_per_um)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        l_um = l_um * scale  # L in the inverse unit: r keeps its bits
        x = kappa**2 - delta**2  # s^2, either sign
        sl2 = np.abs(x) * l_um**2
        root = np.sqrt(np.sqrt(sl2))  # |s| L enters only via sinh^2/sin^2
        sl = np.where(np.isinf(sl2), np.sqrt(np.abs(x)) * l_um, root * root)
        # q = sinh(sL)^2 / s^2 (hyperbolic), sin(sigma L)^2 / sigma^2 (oscillatory),
        # L^2 at the degenerate point; continuous in x.  A sigma L past the float
        # range takes the mean 1/2 of sin^2: fringes denser than any grid.
        sin2 = np.where(np.isinf(sl), 0.5, np.sin(np.where(np.isinf(sl), 0.0, sl)) ** 2)
        q = np.where(x > 0, np.sinh(sl) ** 2, sin2) / np.where(x != 0, np.abs(x), 1.0)
        r = kappa**2 * np.where(x == 0, l_um**2, q)
        t, c = 1.0 / (1.0 + r), 1.0 / (1.0 + 1.0 / r)
    if t.ndim == 0:
        return float(t), float(c)
    return t, c


def co_transmission(kappa_per_um, l_um, delta_per_um):
    """Co-directional transfer: C = kappa^2/(kappa^2+Delta^2) sin^2(L sqrt(...)),
    with no square overflowing; a phase past the float range takes the mean
    1/2 of sin^2."""
    kappa, delta, scale = _power_of_two_units(kappa_per_um, delta_per_um)
    s2 = kappa**2 + delta**2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        phase = l_um * (np.sqrt(s2) * scale)
        sin2 = np.where(np.isinf(phase), 0.5, np.sin(np.where(np.isinf(phase), 0.0, phase)) ** 2)
        c = np.where(s2 == 0, 0.0, kappa**2 / np.where(s2 == 0, 1.0, s2) * sin2)
    t = 1.0 - c
    if t.ndim == 0:
        return float(t), float(c)
    return t, c


# ---------------------------------------------------------------------------
# Field-overlap coupling coefficient
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WaveguideProfile:
    """Transverse profile of a PCWG branch for overlap integrals.

    ``x_um``/``u`` sample the signed lateral amplitude (unit power:
    integral |u|^2 dx = 1) on a uniform grid; ``beta_rad_per_um`` is the
    branch propagation constant at the wavelength ``lam_um``; the overlap
    spans a slab of thickness ``slab_t_um`` and permittivity ``eps_bg``.
    """

    x_um: np.ndarray
    u: np.ndarray
    beta_rad_per_um: float
    lam_um: float
    slab_t_um: float = DEFAULTS["slab"]["t_nm"] * 1e-3
    eps_bg: float = 2.60**2

    def __post_init__(self):
        x = np.asarray(self.x_um, dtype=float)
        u = np.asarray(self.u)
        object.__setattr__(self, "x_um", x)
        object.__setattr__(self, "u", u)
        if x.shape != u.shape or x.ndim != 1:
            raise ValueError("x and u must be matching 1-D arrays")

    def norm_residual(self) -> float:
        dx = float(np.mean(np.diff(self.x_um)))
        return abs(float(np.sum(np.abs(self.u) ** 2) * dx) - 1.0)


_N_VERTICAL = 9  # depth samples of the overlap across the slab
_DX_BLOCK = 256  # offsets per fiber-tail evaluation: at most ~5 MB of (distance, 9) tail values


def kappa_overlap(fiber_mode: ModeField, wg: WaveguideProfile, gap_nm: float,
                  dx_um=0.0):
    """Coupling coefficient from the field overlap, kappa_perp [1/um].

    Quasi-scalar estimate: kappa ~ (k0^2 / 2 sqrt(beta_f beta_wg)) *
    integral of Delta_eps E_fiber* E_wg over the slab cross-section,
    with the fiber mode displaced laterally by dx and vertically by the
    surface gap.  Both inputs must be power-normalized and taken at the
    same wavelength (to 1e-12 relative), else ValueError.  A scalar
    ``dx_um`` gives a float; a 1-D array gives one kappa per offset,
    ``_DX_BLOCK`` offsets at a time.  The tail depends on x - dx only
    through |x - dx|, so each block evaluates it once per distinct distance
    (1,521 of the 22,032 on the default lateral sweep) and gathers.
    """
    if wg.norm_residual() > 1e-6:
        raise ValueError("waveguide profile is not power-normalized")
    if gap_nm < 0:
        raise ValueError("gap must be >= 0")
    lam = fiber_mode.point.wavelength_um
    if not abs(wg.lam_um - lam) <= 1e-12 * lam:
        raise ValueError(f"waveguide profile wavelength {wg.lam_um} um differs from "
                         f"the fiber mode's {lam} um")
    k0 = 2.0 * np.pi / lam
    beta_f = fiber_mode.point.beta_rad_per_um
    h_um = gap_nm * 1e-3 + fiber_mode.spec.d_um / 2.0  # fiber axis above slab top

    t = wg.slab_t_um
    depth = (np.arange(_N_VERTICAL) + 0.5) * (t / _N_VERTICAL)
    dx_grid = float(np.mean(np.diff(wg.x_um)))
    offsets = np.asarray(dx_um, dtype=float)
    overlap = np.empty(offsets.shape)
    for i in range(0, offsets.size, _DX_BLOCK):
        xx = np.abs(wg.x_um - offsets.ravel()[i:i + _DX_BLOCK, None])  # (block, n_x)
        dist, at = np.unique(xx, return_inverse=True)
        psi_f = fiber_mode.radial(np.hypot(dist[:, None], h_um + depth))  # tail over the slab
        vert = (np.sum(psi_f, axis=-1) * (t / _N_VERTICAL) / np.sqrt(t))[at.reshape(xx.shape)]
        overlap.flat[i:i + _DX_BLOCK] = np.sum(np.real(wg.u) * vert, axis=-1) * dx_grid
    d_eps = wg.eps_bg - 1.0
    kappa = k0**2 / (2.0 * np.sqrt(beta_f * wg.beta_rad_per_um)) * d_eps * overlap
    return float(kappa) if offsets.ndim == 0 else kappa


# ---------------------------------------------------------------------------
# Efficiency metrics
# ---------------------------------------------------------------------------


def ideality_from_transmission(t_min, t_max):
    """Gamma = (1 - T_min) - (1 - T_max): resonant dip minus broadband loss, per element."""
    t_min, t_max = np.broadcast_arrays(np.asarray(t_min, float), np.asarray(t_max, float))
    bad = ~((0.0 <= t_min) & (t_min <= t_max) & (t_max <= 1.0))
    if bad.any():
        raise ValueError(f"need 0 <= T_min <= T_max <= 1, got ({t_min[bad][0]}, {t_max[bad][0]})")
    return float(t_max - t_min) if t_max.ndim == 0 else t_max - t_min


def ideality_from_reflection(r_max: float, r_sq: float) -> float:
    """Gamma = sqrt(R_max / r^2) from peak back-reflection and end reflectivity.

    Values above 1 indicate inconsistent inputs (R_max larger than the
    end mirror can return); they are returned as-is with a warning.
    """
    if r_sq <= 0.0:
        raise ValueError("end reflectivity r^2 must be positive")
    if not 0.0 <= r_max <= 1.0 or r_sq > 1.0:
        raise ValueError("reflectances must lie in [0, 1]")
    gamma = float(np.sqrt(r_max / r_sq))
    if gamma > 1.0:
        warnings.warn(
            f"ideality {gamma:.3f} > 1: R_max={r_max} inconsistent with r^2={r_sq}",
            stacklevel=2,
        )
    return gamma


def _refined_extrema(t: np.ndarray):
    """Strict local extrema with 3-point parabolic value refinement."""
    maxima, minima = [], []
    for j in range(1, len(t) - 1):
        left, mid, right = t[j - 1], t[j], t[j + 1]
        curv = left - 2.0 * mid + right
        if (mid > left and mid > right) or (mid < left and mid < right):
            val = mid - (right - left) ** 2 / (8.0 * curv) if curv != 0 else mid
            (maxima if mid > left else minima).append(val)
    return maxima, minima


def fp_reflectivity(transmission) -> float:
    """End reflectivity r^2 from Fabry-Perot fringe contrast.

    For a lossless symmetric cavity the fringe contrast is
    C = (T_max - T_min)/(T_max + T_min) = 2 r^2 / (1 + r^4), inverted
    here as r^2 = (1 - sqrt(1 - C^2))/C.  Needs at least 3 fringe
    extrema; a flat spectrum returns 0.
    """
    t = np.asarray(transmission, dtype=float)
    if t.ndim != 1 or t.size < 5:
        raise InsufficientFringesError("need a 1-D spectrum with >= 5 samples")
    scale = max(abs(float(np.max(t))), 1e-300)
    if float(np.ptp(t)) <= 1e-9 * scale:
        return 0.0
    maxima, minima = _refined_extrema(t)
    if len(maxima) + len(minima) < 3:
        raise InsufficientFringesError(
            f"found {len(maxima)} maxima + {len(minima)} minima, need >= 3 extrema"
        )
    t_hi = float(np.mean(maxima))
    t_lo = float(np.mean(minima))
    contrast = (t_hi - t_lo) / (t_hi + t_lo)
    if contrast > 1.0:
        raise NonPhysicalContrastError(f"fringe contrast {contrast:.3f} > 1")
    if contrast <= 0.0:
        return 0.0
    return float((1.0 - np.sqrt(1.0 - contrast**2)) / contrast)


# ---------------------------------------------------------------------------
# Lateral probe response
# ---------------------------------------------------------------------------


@dataclass
class LateralProfileResult:
    dx_um: np.ndarray
    kappa_per_um: np.ndarray
    one_minus_tmin: np.ndarray
    fwhm_um: float


def lateral_profile(
    fiber_mode: ModeField,
    wg: WaveguideProfile,
    gap_nm: float,
    l_c_um: float,
    dx_um,
    kappa_at_center: float | None = None,
) -> LateralProfileResult:
    """Coupling versus lateral taper offset, and the FWHM of 1 - T_min.

    1 - T_min(dx) = tanh^2(kappa(dx) L_c) with kappa(dx) from the field
    overlap; when ``kappa_at_center`` is given the overlap shape is
    rescaled to that amplitude at dx = 0 (calibrated strength, computed
    shape).  The sweep must be symmetric about 0; the FWHM is read off
    by linear interpolation between samples.
    """
    dx = np.asarray(dx_um, dtype=float)
    if dx.ndim != 1 or dx.size < 5:
        raise ValueError("need a 1-D sweep with >= 5 offsets")
    if np.max(np.abs(dx + dx[::-1])) > 1e-9:
        raise ValueError("sweep must be symmetric about dx = 0")
    kappa = kappa_overlap(fiber_mode, wg, gap_nm, dx)
    if kappa_at_center is not None:
        center = kappa[np.argmin(np.abs(dx))]
        if center != 0:
            kappa = kappa * (kappa_at_center / center)
    dip = np.tanh(np.abs(kappa) * l_c_um) ** 2
    return LateralProfileResult(dx, kappa, dip, _fwhm(dx, dip))


def _fwhm(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum, interpolated across steps rising strictly past it."""
    peak = int(np.argmax(y))
    half = y[peak] / 2.0
    left = right = np.nan
    for j in range(peak, 0, -1):
        if y[j - 1] <= half < y[j]:
            frac = (half - y[j - 1]) / (y[j] - y[j - 1])
            left = x[j - 1] + frac * (x[j] - x[j - 1])
            break
    for j in range(peak, len(y) - 1):
        if y[j + 1] <= half < y[j]:
            frac = (y[j] - half) / (y[j] - y[j + 1])
            right = x[j] + frac * (x[j + 1] - x[j])
            break
    if np.isnan(left) or np.isnan(right):
        raise UndefinedWidthError("profile does not fall to half maximum inside the sweep")
    return float(right - left)
