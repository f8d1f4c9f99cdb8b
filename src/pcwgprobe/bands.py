"""2D plane-wave bandstructure of the compressed square lattice and its
graded-defect waveguide modes.

TE polarization (in-plane electric field) in the out-of-plane magnetic
field scalar formulation:

    -div( (1/eps) grad H ) = (w/c)^2 H,
    Theta[i,j] = (k+G_i).(k+G_j) * inv(EPS)[i,j],

where EPS[i,j] = eps_hat(G_i - G_j) is built from the analytic
circular-hole Fourier factor and inverted numerically (the Ho-style
inverse rule, which converges much faster for TE than a direct Fourier
expansion of 1/eps).

The waveguide is a line defect along Gamma-X (the z axis, period L_z)
formed by laterally grading the hole radius; defect modes are computed
in a 1 x N-row supercell and identified by their field-energy
localization on the graded rows.

The rows are mirror-symmetric about the waveguide axis, so Theta is real
and splits into even and odd blocks (the symmetry reduction of Johnson &
Joannopoulos, Opt. Express 8, 173 (2001)): every state has an exact
lateral parity, and its sensitivity to the background index follows from
its own eigenvector by the Hellmann-Feynman theorem (see PlaneWaveSolver).

Units: lengths in um internally, frequencies reported both normalized
(L_z/lambda) and absolute (rad/s); beta in rad/um.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import j1

from .errors import BandCoverageError, ConvergenceError, EigensolverError, NoDefectModeError
from .fiber import C_UM_PER_S, he11_neff
from .roots import bracketed_roots
from .slab import SlabSpec, slab_effective_index

_NEG_EIG_TOL = 1e-8
_EIG_RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class PCWaveguideSpec:
    """Compressed square lattice with a laterally graded line defect.

    ``grading`` lists per-row hole radii (fractions of the transverse
    lattice constant) from the center row outward; rows beyond it carry
    the bulk radius ``r_frac``.  The physical row list is symmetric
    about the center row by construction.
    """

    lam_z_nm: float = 500.0
    lam_x_nm: float = 400.0
    r_frac: float = 0.35
    grading: tuple = (0.31, 0.325, 0.34)
    supercell_rows: int = 17
    n_eff: float = 2.60
    pw_per_cell: int = 7

    def __post_init__(self):
        if self.lam_z_nm <= 0 or self.lam_x_nm <= 0:
            raise ValueError("lattice constants must be positive")
        radii = (self.r_frac,) + tuple(self.grading)
        if any(not 0.0 <= r < 0.5 for r in radii):
            raise ValueError("hole radii must lie in [0, 0.5) of the transverse pitch")
        # holes must not overlap along z either
        if any(2 * r * self.lam_x_nm >= self.lam_z_nm for r in radii):
            raise ValueError("holes overlap along the waveguide axis")
        if self.supercell_rows % 2 == 0 or self.supercell_rows < 1:
            raise ValueError("supercell_rows must be odd and positive")
        needed = 2 * len(self.grading) + 3 if self.grading else 1
        if self.supercell_rows < needed:
            raise ValueError(
                f"supercell_rows={self.supercell_rows} too small: the graded block "
                f"plus 4 buffer rows needs at least {needed}"
            )
        if self.n_eff <= 1.0:
            raise ValueError("in-plane effective index must exceed 1")
        if self.pw_per_cell % 2 == 0 or self.pw_per_cell < 3:
            raise ValueError("pw_per_cell must be odd and >= 3")

    @property
    def lam_z_um(self):
        return self.lam_z_nm * 1e-3

    @property
    def lam_x_um(self):
        return self.lam_x_nm * 1e-3

    @property
    def width_um(self):
        return self.supercell_rows * self.lam_x_um

    @property
    def eps_bg(self):
        return self.n_eff**2

    def bulk(self) -> "PCWaveguideSpec":
        """Uniform-lattice copy (no grading, single-row cell)."""
        return replace(self, grading=(), supercell_rows=1)

    def with_n_eff(self, n_eff: float) -> "PCWaveguideSpec":
        return replace(self, n_eff=n_eff)

    def row_radii_um(self) -> np.ndarray:
        """Hole radius per supercell row, center row first in the middle."""
        n = self.supercell_rows
        dist = np.minimum(np.abs(np.arange(n) - (n - 1) // 2), len(self.grading))
        return np.array(tuple(self.grading) + (self.r_frac,))[dist] * self.lam_x_um

    def row_positions_um(self) -> np.ndarray:
        n = self.supercell_rows
        return (np.arange(n) - (n - 1) / 2.0) * self.lam_x_um

    def graded_halfwidth_um(self) -> float:
        """Half-width of the graded block (for the localization measure)."""
        if not self.grading:
            return 0.0
        return (len(self.grading) - 0.5) * self.lam_x_um

    def fill_fraction(self) -> float:
        """Area fraction of air in the supercell."""
        radii = self.row_radii_um()
        return float(np.sum(np.pi * radii**2) / (self.lam_z_um * self.width_um))


@dataclass
class BandCurve:
    """One labeled dispersion branch omega(beta) with derived group index."""

    label: str
    beta_rad_per_um: np.ndarray
    omega_norm: np.ndarray  # L_z / lambda
    lam_z_um: float
    parity: str = "none"

    def __post_init__(self):
        self.beta_rad_per_um = np.asarray(self.beta_rad_per_um, dtype=float)
        self.omega_norm = np.asarray(self.omega_norm, dtype=float)
        if self.beta_rad_per_um.shape != self.omega_norm.shape:
            raise ValueError("beta and omega sample arrays must match")
        if np.any(np.diff(self.beta_rad_per_um) <= 0):
            raise ValueError("samples must be ordered in beta")
        if np.any(self.omega_norm < 0):
            raise ValueError("frequencies must be non-negative")

    @property
    def beta_norm(self):
        return self.beta_rad_per_um * self.lam_z_um / (2.0 * np.pi)

    @property
    def lambda_nm(self):
        return 1e3 * self.lam_z_um / self.omega_norm

    def group_index(self) -> np.ndarray:
        """n_g = c d(beta)/d(omega), centered differences of the samples."""
        bn = self.beta_norm
        return np.gradient(bn, edge_order=1) / np.gradient(self.omega_norm, edge_order=1)

    def mean_slope(self) -> float:
        """Mean d(omega)/d(beta) sign indicator (normalized units)."""
        return float(np.polyfit(self.beta_norm, self.omega_norm, 1)[0])

    def to_dict(self) -> dict:
        ng = self.group_index()
        return {
            "label": self.label,
            "parity": self.parity,
            "samples": [
                {
                    "beta_rad_per_um": float(b),
                    "omega_norm": float(o),
                    "lambda_nm": float(l),
                    "n_g": float(g),
                }
                for b, o, l, g in zip(
                    self.beta_rad_per_um, self.omega_norm, self.lambda_nm, ng
                )
            ],
        }

    @classmethod
    def from_dict(cls, data: dict, lam_z_um: float) -> "BandCurve":
        samples = data["samples"]
        return cls(
            label=data["label"],
            beta_rad_per_um=np.array([s["beta_rad_per_um"] for s in samples]),
            omega_norm=np.array([s["omega_norm"] for s in samples]),
            lam_z_um=lam_z_um,
            parity=data.get("parity", "none"),
        )


# ---------------------------------------------------------------------------
# Fourier coefficients and the plane-wave operator
# ---------------------------------------------------------------------------


def _basis(spec: PCWaveguideSpec):
    """Reciprocal vectors of the supercell, cutoff scaled per unit cell."""
    p = (spec.pw_per_cell - 1) // 2
    mz = np.arange(-p, p + 1)
    px = p * spec.supercell_rows
    mx = np.arange(-px, px + 1)
    gz = 2.0 * np.pi / spec.lam_z_um
    gx = 2.0 * np.pi / spec.width_um
    MZ, MX = np.meshgrid(mz, mx, indexing="ij")
    g = np.stack([MZ.ravel() * gz, MX.ravel() * gx], axis=-1)
    return g, mz, mx


def _hole_factor(q, radius_um, cell_area_um2):
    """Fourier factor of one circular hole: 2 f J1(qR)/(qR); f at q=0."""
    f = np.pi * radius_um**2 / cell_area_um2
    qr = q * radius_um
    out = np.full(np.shape(qr), f, dtype=float)
    nz = qr > 1e-12
    out[nz] = 2.0 * f * j1(qr[nz]) / qr[nz]
    return out


def _epsilon_table(spec: PCWaveguideSpec, mz, mx):
    """eps_hat(G_i - G_j) indexed [dm_z + 2 max(mz), dm_x + 2 max(mx)].

    G = 0 holds the area average; elsewhere the analytic circular-hole
    factor of every row.  The rows sit symmetrically about x = 0, so their
    phases pair into cosines: the table is real and even in both indices.
    """
    dmz = np.arange(-2 * mz[-1], 2 * mz[-1] + 1)
    dmx = np.arange(-2 * mx[-1], 2 * mx[-1] + 1)
    gz = 2.0 * np.pi / spec.lam_z_um
    gx = 2.0 * np.pi / spec.width_um
    DZ, DX = np.meshgrid(dmz * gz, dmx * gx, indexing="ij")
    q = np.hypot(DZ, DX)

    area = spec.lam_z_um * spec.width_um
    table = np.zeros(q.shape)
    table[q <= 1e-12] = spec.eps_bg
    radii = spec.row_radii_um()
    # one factor per distinct radius (4 for 17 default rows), summed row by row
    factor = {r: (1.0 - spec.eps_bg) * _hole_factor(q, r, area)
              for r in np.unique(radii[radii > 0])}
    for r_um, x in zip(radii, spec.row_positions_um()):
        if r_um > 0:
            table += factor[r_um] * np.cos(DX * x)
    return table


def _spd_inverse(eps, parity):
    """Inverse of a sector's EPS block from its Cholesky factor, which fails
    (EigensolverError) unless the block is positive definite."""
    from scipy.linalg import lapack

    chol, info = lapack.dpotrf(eps)
    inv, info = lapack.dpotri(chol) if info == 0 else (None, info)
    if info != 0:
        raise EigensolverError(f"{parity}-sector EPS block is not positive definite")
    return np.triu(inv) + np.triu(inv, 1).T


class PlaneWaveSolver:
    """Dense TE plane-wave solver for one lattice/supercell geometry.

    EPS is real and commutes with the mirror (m_z, m_x) -> (m_z, -m_x).
    The solver works in the mirror-adapted basis, ordered m_z-major: the
    even sector holds (m_z, 0) and [(m_z, m) + (m_z, -m)]/sqrt(2) for
    m > 0, the odd sector the differences (364 and 357 vectors for the
    default supercell); EPS is inverted once per sector.  With
    K = diag(k + G) and eta = inv(EPS), Theta = K_z eta K_z + K_x eta K_x,
    and K_x flips the parity (d/dx of an even field is odd), so the x
    term of each sector's block takes the other sector's eta.

    EPS is inverted by Cholesky, which fails unless each block is positive
    definite; each Theta block, a sum of Hadamard products of rank-1 PSD
    matrices with PD eta blocks, is then PSD by the Schur product theorem.

    The holes are air, so EPS = I + (eps_bg - 1) C with C independent of
    eps_bg, and d(eta)/d(eps_bg) = (eta^2 - eta)/(eps_bg - 1); ``sensitivity``
    takes x^T (eta^2 - eta) x as |eta x|^2 - x^T eta x (eta is symmetric).
    """

    def __init__(self, spec: PCWaveguideSpec):
        self.spec = spec
        self.g, self._mz, self._mx = _basis(spec)
        p, px = self._mz[-1], self._mx[-1]
        table = _epsilon_table(spec, self._mz, self._mx)
        nz, nm = self._mz.size, px + 1
        n, n_odd = nz * nm, nz * (nm - 1)
        iz, m = np.divmod(np.arange(n), nm)
        # EPS between the (m_z, m >= 0) plane waves and the (m_z, +-m) ones,
        # indexed [iz, m, iz', m']
        dz = iz[:, None] - iz[None, :] + 2 * p
        direct = table[dz, m[:, None] - m[None, :] + 2 * px].reshape(nz, nm, nz, nm)
        mirrored = table[dz, m[:, None] + m[None, :] + 2 * px].reshape(nz, nm, nz, nm)
        odd = np.s_[:, 1:, :, 1:]  # the odd sector's block (m, m' > 0) of a 4-D array
        eta_o = _spd_inverse((direct[odd] - mirrored[odd]).reshape(n_odd, n_odd), "odd")
        w = np.where(m > 0, 1.0, np.sqrt(0.5))
        eta_e = _spd_inverse(np.outer(w, w) * (direct + mirrored).reshape(n, n), "even")
        self._gz = (iz - p) * (2.0 * np.pi / spec.lam_z_um)
        self._gx = m * (2.0 * np.pi / spec.width_um)
        gxx = np.outer(self._gx, self._gx).reshape(nz, nm, nz, nm)
        # the x term takes the other sector's eta, which for the even sector
        # is the odd eta padded with zeros on the m = 0 rows and columns
        x_even = np.zeros_like(gxx)
        x_even[odd] = gxx[odd] * eta_o.reshape(x_even[odd].shape)
        x_odd = gxx[odd] * eta_e.reshape(gxx.shape)[odd]
        # per sector: its rows of the even basis (odd: m > 0), its eta and its
        # x term, which does not depend on beta
        self._sectors = {"even": (slice(None), eta_e, x_even.reshape(n, n)),
                         "odd": (m > 0, eta_o, x_odd.reshape(n_odd, n_odd))}
        # |m_x| amplitudes of one m_z row -> H(x), keyed by the sector's
        # vector length (odd omits the global factor i)
        n_x = 16 * spec.supercell_rows
        self._x = (np.arange(n_x) + 0.5 - n_x / 2.0) * (spec.width_um / n_x)
        arg = np.outer(np.arange(px + 1) * (2.0 * np.pi / spec.width_um), self._x)
        self._phase = {
            m.size: np.sqrt(2.0) * w[: px + 1, None] * np.cos(arg),
            m.size - self._mz.size: np.sqrt(2.0) * np.sin(arg[1:]),
        }

    @property
    def n_pw(self):
        return self.g.shape[0]

    def solve_k(self, beta_rad_per_um: float, num_bands: int | None = None, window=None,
                parities=("even", "odd")):
        """Eigenfrequencies (normalized L_z/lambda) at k = (beta, 0).

        Only the mirror sectors named in ``parities`` are solved; the
        sectors are independent, so leaving one out changes nothing in the
        other.  With ``num_bands``: the lowest ``num_bands`` of the solved
        sectors, merged and sorted; a negative lowest eigenvalue raises
        EigensolverError.  With ``window=(lo, hi)``, 0 <= lo < hi: only the
        states with lo < omega < hi (LAPACK syevr computes just those), as
        {parity: (omega, vecs)} per solved sector with the eigenvectors as
        columns in the sector basis.  A window cannot see the lowest
        eigenvalue, but Theta is PSD by construction (see the class notes);
        each vector must satisfy |Theta v - w^2 v| <= 1e-9 w^2.
        """
        import scipy.linalg

        kz = self._gz + beta_rad_per_um
        to_omega = self.spec.lam_z_um / (2.0 * np.pi)
        found = {}
        for parity in parities:
            rows, eta, x_term = self._sectors[parity]
            theta = np.outer(kz[rows], kz[rows]) * eta + x_term
            where = f"at beta={beta_rad_per_um:.6f} rad/um ({parity} sector, n_pw={self.n_pw})"
            try:
                if window is None:
                    vals = scipy.linalg.eigh(theta, eigvals_only=True, subset_by_index=(
                        0, min(num_bands, theta.shape[0]) - 1))
                else:  # ValueError: not lo < hi, a stop band closed to rounding
                    bounds = (np.asarray(window) / to_omega) ** 2
                    vals, vecs = scipy.linalg.eigh(theta, subset_by_value=tuple(bounds))
            except (scipy.linalg.LinAlgError, ValueError) as exc:
                raise EigensolverError(f"eigensolve failed {where}: {exc}") from exc
            if window is None:
                scale = max(abs(vals[-1]), 1.0)
                if vals[0] < -_NEG_EIG_TOL * scale:
                    raise EigensolverError(f"operator not positive semi-definite {where}: "
                                           f"min eigenvalue {vals[0]:.3e} (scale {scale:.3e})")
                found[parity] = np.sqrt(np.clip(vals, 0.0, None)) * to_omega
                continue
            omega = np.sqrt(vals) * to_omega
            keep = (omega > window[0]) & (omega < window[1])  # syevr's interval is half-open
            # compress copies the kept columns out of LAPACK's n x n
            # workspace, which a view would keep alive as long as the vectors
            vals, vecs = vals[keep], vecs.compress(keep, axis=1)
            # one product per state: numpy has an OpenBLAS of its own, and a matrix
            # product (Theta @ V) wakes its threads, which slow scipy's eigensolves
            res = [np.linalg.norm(theta @ v - w * v) / w for w, v in zip(vals, vecs.T)]
            if not all(r <= _EIG_RESIDUAL_TOL for r in res):
                raise EigensolverError(f"eigenvector residual {max(res):.3e} {where}")
            found[parity] = (omega[keep], vecs)
        if window is not None:
            return found
        return np.sort(np.concatenate(list(found.values())))[:num_bands]

    def sensitivity(self, beta_rad_per_um: float, omega_norm: float, vec) -> float:
        """S = -d ln(omega)/d ln(n_eff) of one eigenstate (a column of
        ``solve_k``) at fixed beta, by Hellmann-Feynman:
        d(w^2)/d(eps_bg) = v^T (dTheta/d eps_bg) v with w = omega/c.
        """
        own, other = ("even", "odd") if vec.size == self._gz.size else ("odd", "even")
        v = np.zeros(self._gz.size)
        v[self._sectors[own][0]] = vec
        d_eig = 0.0  # (eps_bg - 1) d(w^2)/d(eps_bg); K_x v lives in the other sector
        for x, (rows, eta, _) in (((self._gz + beta_rad_per_um) * v, self._sectors[own]),
                                  (self._gx * v, self._sectors[other])):
            eta_x = eta @ x[rows]
            d_eig += eta_x @ eta_x - x[rows] @ eta_x
        eig = (2.0 * np.pi * omega_norm / self.spec.lam_z_um) ** 2
        return float(-self.spec.eps_bg * d_eig / ((self.spec.eps_bg - 1.0) * eig))

    # -- real-space diagnostics ------------------------------------------

    def field_profile_x(self, vec: np.ndarray):
        """|H|^2 integrated over z, on a symmetric transverse grid."""
        amp = vec.reshape(self._mz.size, -1) @ self._phase[vec.size]
        return self._x, np.sum(amp**2, axis=0), amp

    def localization(self, vec: np.ndarray) -> float:
        """Fraction of |H|^2 energy inside the graded rows."""
        x, energy, _ = self.field_profile_x(vec)
        half = self.spec.graded_halfwidth_um()
        total = float(np.sum(energy))
        if total <= 0 or half <= 0:
            return 0.0
        return float(np.sum(energy[np.abs(x) <= half]) / total)


# ---------------------------------------------------------------------------
# Bulk bands
# ---------------------------------------------------------------------------


@dataclass
class BulkBandsResult:
    curves: list
    gap_norm: tuple | None  # (valence edge, conduction edge) in L_z/lambda


def bulk_bands(spec: PCWaveguideSpec, kpath_norm=None, num_bands: int = 6) -> BulkBandsResult:
    """TE bands of the uniform lattice along Gamma-X (normalized beta
    ``kpath_norm``, default 41 points from 0 to 0.5), plus the first stop band.

    The spec must be uniform (use ``spec.bulk()`` to strip a grading).
    """
    if spec.grading:
        raise ValueError("bulk_bands needs a uniform lattice; use spec.bulk()")
    kpath_norm = np.linspace(0.0, 0.5, 41) if kpath_norm is None else np.asarray(kpath_norm, float)
    solver = PlaneWaveSolver(spec)
    omega = np.empty((kpath_norm.size, num_bands))
    for i, bn in enumerate(kpath_norm):
        omega[i] = solver.solve_k(bn * 2.0 * np.pi / spec.lam_z_um, num_bands)

    beta = kpath_norm * 2.0 * np.pi / spec.lam_z_um
    order = np.argsort(beta)
    curves = [BandCurve(f"bulk-{b + 1}", beta[order], omega[order, b], spec.lam_z_um)
              for b in range(num_bands)]
    gap = None
    if num_bands >= 2:
        lo = float(np.max(omega[:, 0]))
        hi = float(np.min(omega[:, 1]))
        if hi > lo:
            gap = (lo, hi)
    return BulkBandsResult(curves=curves, gap_norm=gap)


def local_gap(bulk: BulkBandsResult, beta_norm: float) -> tuple:
    """k-resolved stop band (band-1 edge, band-2 edge) at one Gamma-X point.

    The donor defect branch detaches below the *local* conduction-band
    edge, which disperses along the path; this is the window that
    brackets the TE-1 frequency at the phase-matching point.
    """
    b1, b2 = bulk.curves[0], bulk.curves[1]
    lo = float(np.interp(beta_norm, b1.beta_norm, b1.omega_norm))
    hi = float(np.interp(beta_norm, b2.beta_norm, b2.omega_norm))
    return lo, hi


def _defect_windows(spec: PCWaveguideSpec, kpath_norm):
    """The bulk stop band, and the window of the defect search at each k:
    the local stop band, its upper edge pulled in by 1e-9 relative so that
    a state on that edge is not taken."""
    bulk = bulk_bands(spec.bulk(), kpath_norm=np.linspace(0.0, 0.5, 26), num_bands=2)
    if bulk.gap_norm is None:
        raise NoDefectModeError("uniform lattice shows no Gamma-X stop band")
    gaps = (local_gap(bulk, bn) for bn in kpath_norm)
    return bulk.gap_norm, [(lo, hi * (1.0 - 1e-9)) for lo, hi in gaps]


# ---------------------------------------------------------------------------
# Supercell waveguide bands
# ---------------------------------------------------------------------------


@dataclass
class WaveguideBandsResult:
    curves: list  # labeled defect BandCurves
    gap_norm: tuple | None

    def curve(self, label: str) -> BandCurve:
        for c in self.curves:
            if c.label == label:
                return c
        raise KeyError(f"no branch labeled {label!r}; have {[c.label for c in self.curves]}")


@dataclass(frozen=True)
class DispersiveIndex:
    """Wavelength-dependent slab effective index for the 2D model.

    The vertical mode of the membrane is strongly dispersive (its group
    index is well above its phase index), which flattens the in-plane
    defect branches.  Solving the 2D bands self-consistently with
    n_eff(lambda) restores that flattening; a fixed-index solve
    systematically overestimates the defect-mode group velocity.
    """

    slab: SlabSpec
    lam_ref_um: float

    def n(self, lam_um):
        """Order-0 slab index at scalar or array wavelengths."""
        return slab_effective_index(self.slab, lam_um)

    @property
    def n_ref(self) -> float:
        return self.n(self.lam_ref_um)


_LOCALIZATION_THRESHOLD = 0.5  # |H|^2 fraction on the graded rows of a defect state


def _track_branches(cand_per_k):
    """Greedy eigenvector-overlap tracking of one sector's candidates across k.

    ``cand_per_k``: list over k of lists of (omega_norm, vec, sensitivity).
    Returns the branches, each a list of (ik, omega_norm, sensitivity).
    """
    branches = []  # each: [samples, last vector]
    for ik, cands in enumerate(cand_per_k):
        free = list(range(len(cands)))
        # extend existing branches first, best overlap wins
        for br in branches:
            if br[0][-1][0] != ik - 1 or not free:
                continue
            ov, j = max((abs(np.dot(br[1], cands[j][1])), j) for j in free)
            if ov > 0.35:
                br[0].append((ik, cands[j][0], cands[j][2]))
                br[1] = cands[j][1]
                free.remove(j)
        branches += [[[(ik, cands[j][0], cands[j][2])], cands[j][1]] for j in free]
    return [samples for samples, _ in branches]


def waveguide_bands(
    spec: PCWaveguideSpec,
    kpath_norm,
    dispersive: DispersiveIndex | None = None,
    parities=("even", "odd"),
) -> WaveguideBandsResult:
    """Supercell bands with the graded-defect branches identified and labeled.

    Defect branches are eigenstates inside the bulk stop band with more
    than half of their |H|^2 energy on the graded rows, tracked across k
    by eigenvector overlap within their mirror sector; each k solves only
    the states in its local stop band (``_defect_windows``).  The even branch
    with negative group velocity (connected to the conduction-band edge)
    is labeled TE-1; its odd counterpart, when present, TE-1-odd.  Only
    the sectors in ``parities`` are solved: tracking and labeling stay
    within a sector, so each branch of a solved sector is the same as with
    both (``("even",)`` gives the same TE-1 and no odd branch).

    With ``dispersive`` given, the bands are solved at its reference
    index and each defect sample then solves the fixed point
    omega = omega_ref (n_ref / n_eff(lambda(omega)))^S, with
    S = -d ln(omega)/d ln(n_eff) from its own eigenvector
    (``PlaneWaveSolver.sensitivity``).
    """
    if dispersive is not None:
        spec = spec.with_n_eff(dispersive.n_ref)
    if not spec.grading:
        raise ValueError("waveguide_bands needs a graded defect")
    kpath_norm = np.asarray(kpath_norm, dtype=float)
    gap, windows = _defect_windows(spec, kpath_norm)

    solver = PlaneWaveSolver(spec)
    cand_per_k = {parity: [] for parity in parities}
    for bn, window in zip(kpath_norm, windows):
        beta = bn * 2.0 * np.pi / spec.lam_z_um
        for parity, (omega, vecs) in solver.solve_k(beta, window=window, parities=parities).items():
            cand_per_k[parity].append([
                (w, v, solver.sensitivity(beta, w, v) if dispersive is not None else np.nan)
                for w, v in zip(omega, vecs.T)
                if solver.localization(v) > _LOCALIZATION_THRESHOLD
            ])

    branches = sorted(  # by first k-point, then frequency
        ((parity, samples) for parity, cands in cand_per_k.items()
         for samples in _track_branches(cands) if len(samples) >= 3),
        key=lambda b: b[1][0][:2],
    )
    if not branches:
        raise NoDefectModeError(
            "no localized branch found inside the gap "
            f"({gap[0]:.4f}, {gap[1]:.4f}); grading too weak"
        )

    curves, sensitivities = [], []
    for parity, samples in branches:
        ik, om, s = (np.array(v) for v in zip(*samples))
        beta = kpath_norm[ik] * 2.0 * np.pi / spec.lam_z_um
        order = np.argsort(beta)
        curves.append(BandCurve("defect", beta[order], om[order], spec.lam_z_um, parity))
        sensitivities.append(s[order])

    _label_defect_curves(curves)
    if dispersive is not None:
        n_ref = dispersive.n_ref
        w1, sens = np.concatenate([c.omega_norm for c in curves]), np.concatenate(sensitivities)

        def fixed_point(w, w1, s):
            return w - w1 * (n_ref / dispersive.n(spec.lam_z_um / w)) ** s

        # all samples of all curves at once
        w = bracketed_roots(fixed_point, 0.6 * w1, 1.6 * w1, (w1, sens), xtol=1e-13)
        ends = np.cumsum([c.omega_norm.size for c in curves])[:-1]
        for curve, part in zip(curves, np.split(w, ends)):
            if np.isnan(part).any():
                j = np.flatnonzero(np.isnan(part))[0]
                raise ConvergenceError(f"no dispersive fixed point for {curve.label} at "
                                       f"beta = {curve.beta_rad_per_um[j]:.6f} rad/um")
            curve.omega_norm = part
    return WaveguideBandsResult(curves, gap)


def _label_defect_curves(curves):
    """Assign TE-1 / TE-1-odd labels by slope sign and lateral parity."""
    for parity, first in (("even", "TE-1"), ("odd", "TE-1-odd")):
        neg = [c for c in curves if c.mean_slope() < 0 and c.parity == parity]
        for i, c in enumerate(sorted(neg, key=lambda c: float(np.mean(c.omega_norm))), 1):
            c.label = first if i == 1 else f"TE-1-{parity}-{i}"
    rest = [c for c in curves if c.label == "defect"]
    for i, c in enumerate(rest, start=1):
        c.label = f"defect-{i}"


def defect_profile(spec: PCWaveguideSpec, curve: BandCurve, beta_norm: float):
    """Signed lateral amplitude of a defect branch at one k-point.

    Returns (x_um, u) with u the m_z = 0 harmonic of H (the component
    that phase-matches a co-reduced external wave), normalized to unit
    power: integral |u|^2 dx = 1.  The state is the localized one of the
    curve's own mirror sector (odd for an odd curve, even otherwise), the
    only sector solved, inside the stop-band window of ``waveguide_bands``,
    nearest the curve's frequency; u keeps the lateral sign, so odd
    branches yield an antisymmetric profile.
    """
    _, (window,) = _defect_windows(spec, [beta_norm])
    solver = PlaneWaveSolver(spec)
    parity = "odd" if curve.parity == "odd" else "even"
    states = solver.solve_k(beta_norm * 2.0 * np.pi / spec.lam_z_um, window=window,
                            parities=(parity,))
    omega, vecs = states[parity]
    target = float(np.interp(beta_norm, curve.beta_norm, curve.omega_norm))
    # 0.4, not _LOCALIZATION_THRESHOLD: at the default probe point (beta_norm 0.358) the nearest
    # state is one of a near-degenerate even pair, localized 0.48 (taken) and 0.91
    localized = [j for j in range(omega.size) if solver.localization(vecs[:, j]) >= 0.4]
    if not localized:
        raise NoDefectModeError(f"no localized {curve.parity} state at beta_norm={beta_norm:.4f}")
    best = min(localized, key=lambda j: abs(omega[j] - target))
    x, _, amp = solver.field_profile_x(vecs[:, best])
    u = amp[(solver._mz.size - 1) // 2]
    # fix the arbitrary sign so u is positive at its peak
    u = u * np.sign(u[np.argmax(np.abs(u))])
    return x, u / np.sqrt(np.sum(u**2) * spec.width_um / x.size)


# ---------------------------------------------------------------------------
# Phase matching against the fiber
# ---------------------------------------------------------------------------


@dataclass
class PhaseMatchPoint:
    beta_rad_per_um: float
    lambda_nm: float
    omega_norm: float
    n_g_branch: float
    fiber_d_um: float


def phase_match_crossing(curve: BandCurve, fiber_spec) -> PhaseMatchPoint:
    """Crossing of a PCWG branch with the fiber dispersion curve.

    Solves beta_fiber(lambda) = beta_branch(lambda) on the branch's
    sampled interval; both curves are exact, the branch linearly
    interpolated between samples.

    Raises
    ------
    BandCoverageError
        If no crossing lies on the sampled interval.
    """
    lam_um = curve.lam_z_um / curve.omega_norm
    beta_fiber = 2.0 * np.pi * he11_neff(fiber_spec, lam_um) / lam_um
    diff = curve.beta_rad_per_um - beta_fiber
    sign = np.where(np.sign(diff[:-1]) != np.sign(diff[1:]))[0]
    if sign.size == 0:
        raise BandCoverageError(
            f"branch {curve.label!r} does not cross the d={fiber_spec.d_um} um "
            f"fiber curve on its sampled interval"
        )
    i = int(sign[0])
    t = diff[i] / (diff[i] - diff[i + 1])
    beta = float((1 - t) * curve.beta_rad_per_um[i] + t * curve.beta_rad_per_um[i + 1])
    omega = float((1 - t) * curve.omega_norm[i] + t * curve.omega_norm[i + 1])
    ng = curve.group_index()
    ng_star = float((1 - t) * ng[i] + t * ng[i + 1])
    return PhaseMatchPoint(
        beta_rad_per_um=beta,
        lambda_nm=1e3 * curve.lam_z_um / omega,
        omega_norm=omega,
        n_g_branch=ng_star,
        fiber_d_um=fiber_spec.d_um,
    )


# ---------------------------------------------------------------------------
# Slab-thinning response
# ---------------------------------------------------------------------------


@dataclass
class ThinningShift:
    """Per-branch frequency shift when the membrane is thinned."""

    d_omega_norm: dict  # label -> shift in L_z/lambda units
    lam_z_um: float

    def d_omega_rad_per_s(self, label: str) -> float:
        return 2.0 * np.pi * C_UM_PER_S * self.d_omega_norm[label] / self.lam_z_um


_THINNING_KPATH = np.linspace(0.34, 0.5, 13)  # normalized beta of the TE-1 comparison


def thinning_shift(
    spec: PCWaveguideSpec, slab: SlabSpec, t_thin_nm: float, lam_um: float
) -> ThinningShift:
    """Band shifts for thinning the membrane from slab.t_nm to t_thin_nm,
    with the slab indices taken at ``lam_um``.

    TE-1: mean shift of the supercell defect branch, recomputed with the
    order-0 effective index of each thickness; TE-1 is even, so only the
    even sector is solved.  TE-2 is hosted by the
    second-order vertical band; its shift is tracked on the (bulk)
    valence band edge at X computed with the order-1 index, which is
    what sets how fast it moves with thickness.  Raises ModeCutoffError
    if order 1 is below cutoff at either thickness.
    """
    if t_thin_nm == slab.t_nm:
        return ThinningShift({"TE-1": 0.0, "TE-2": 0.0}, spec.lam_z_um)

    thin = slab.thinned(t_thin_nm)
    n0_thick = slab_effective_index(slab, lam_um, 0)
    n0_thin = slab_effective_index(thin, lam_um, 0)
    n1_thick = slab_effective_index(slab, lam_um, 1)
    n1_thin = slab_effective_index(thin, lam_um, 1)

    te1 = {}
    for tag, n_eff in (("thick", n0_thick), ("thin", n0_thin)):
        res = waveguide_bands(spec.with_n_eff(n_eff), kpath_norm=_THINNING_KPATH,
                              parities=("even",))
        te1[tag] = res.curve("TE-1")
    k_thick, k_thin = (np.round(te1[tag].beta_norm, 9) for tag in ("thick", "thin"))
    common, i_thick, i_thin = np.intersect1d(k_thick, k_thin, return_indices=True)
    if common.size == 0:
        raise NoDefectModeError("TE-1 branches at the two thicknesses share no k-points")
    shift_te1 = float(np.mean(te1["thin"].omega_norm[i_thin] - te1["thick"].omega_norm[i_thick]))

    # band 1 rises monotonically along Gamma-X, so its edge is the one solve at X
    edge = [float(PlaneWaveSolver(spec.bulk().with_n_eff(n)).solve_k(np.pi / spec.lam_z_um, 2)[0])
            for n in (n1_thick, n1_thin)]
    shift_te2 = edge[1] - edge[0]

    return ThinningShift({"TE-1": shift_te1, "TE-2": shift_te2}, spec.lam_z_um)
