"""Vertical confinement of the patterned membrane: TE slab effective index.

The 2D in-plane bandstructure model folds the vertical direction into a
scalar effective index per vertical mode order.  The membrane here is
perforated by the hole lattice, so the vertical problem is solved for a
homogenized core whose permittivity is reduced by an *effective* air
fill (smaller than the geometric ~0.31 fill, since the guided field
concentrates in the dielectric veins).  The default fill is the one
free calibration constant of the 2D reduction: it lands the fundamental
vertical index of the 340 nm membrane at 2.60 at 1600 nm, consistent
with the 2.64 +/- 0.05 used by matched 3D calculations of this
structure.  With it the composed model puts the TE-1 crossing of the
d = 1.5 um fiber curve at 1659.8 nm for a 500 nm pitch (1666.7 nm at a
fixed index), within 5% of the production design's 1600 nm; the offset
comes neither from the plane-wave cutoff nor from the fiber model.  Set
``effective_hole_fill=0`` for an unpatterned slab (textbook
symmetric-slab equation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ModeCutoffError
from .roots import bracketed_roots

# Mode-weighted air fill of the perforated membrane; see module docstring
# for the calibration (order-0 index 2.6000 at t=340 nm, n_Si=3.4, 1.6 um).
DEFAULT_EFFECTIVE_HOLE_FILL = 0.238287


@dataclass(frozen=True)
class SlabSpec:
    """Suspended (air-clad) membrane of thickness ``t_nm``."""

    t_nm: float
    n_slab: float = 3.4
    n_clad: float = 1.0
    effective_hole_fill: float = DEFAULT_EFFECTIVE_HOLE_FILL

    def __post_init__(self):
        if self.t_nm <= 0:
            raise ValueError("slab thickness must be positive")
        if not 0.0 <= self.effective_hole_fill < 1.0:
            raise ValueError("effective hole fill must be in [0, 1)")
        if self.core_permittivity() <= self.n_clad**2:
            raise ValueError("homogenized core index must exceed the cladding index")

    def core_permittivity(self) -> float:
        eps_slab = self.n_slab**2
        eps_clad = self.n_clad**2
        return eps_slab - self.effective_hole_fill * (eps_slab - eps_clad)

    def thinned(self, t_nm: float) -> "SlabSpec":
        return SlabSpec(t_nm=t_nm, n_slab=self.n_slab, n_clad=self.n_clad,
                        effective_hole_fill=self.effective_hole_fill)


def slab_effective_index(slab: SlabSpec, lam_um, vertical_order: int = 0):
    """TE effective index of the symmetric slab, given vertical mode order.

    Solves kappa*t = m*pi + 2*atan(gamma/kappa) on the homogenized core
    (see module docstring); the left side is strictly decreasing in
    n_eff, so the root is unique.  ``lam_um`` may be an array: all
    wavelengths are solved at once.

    Raises
    ------
    ModeCutoffError
        If the requested order is below cutoff at this thickness
        (V = k0 t sqrt(n_core^2 - n_clad^2) <= m*pi).
    """
    lam = np.asarray(lam_um, dtype=float)
    if not np.all(lam > 0):
        raise ValueError("wavelength must be positive")
    if vertical_order < 0:
        raise ValueError("vertical order must be >= 0")
    m = int(vertical_order)
    t_um = slab.t_nm * 1e-3
    k0 = 2.0 * np.pi / lam
    eps_core = slab.core_permittivity()
    n_core = np.sqrt(eps_core)
    n_clad = slab.n_clad

    v = k0 * t_um * np.sqrt(eps_core - n_clad**2)
    if np.any(v <= m * np.pi):
        i = np.argmin(v)
        raise ModeCutoffError(
            f"TE order {m} below cutoff at t={slab.t_nm} nm, lambda={lam.flat[i]} um "
            f"(V={v.flat[i]:.3f} <= {m}*pi)"
        )

    def f(n_eff, k0):
        kappa = k0 * np.sqrt(eps_core - n_eff**2)
        gamma = k0 * np.sqrt(n_eff**2 - n_clad**2)
        return kappa * t_um - m * np.pi - 2.0 * np.arctan2(gamma, kappa)

    lo = n_clad * (1.0 + 1e-12) + 1e-12
    hi = n_core * (1.0 - 1e-12)
    n_eff = bracketed_roots(f, lo, hi, (k0,), xtol=1e-14, rtol=8.9e-16)
    if np.any(np.isnan(n_eff)):
        raise ConvergenceError(f"slab index did not converge at t={slab.t_nm} nm")
    return float(n_eff) if n_eff.ndim == 0 else n_eff
