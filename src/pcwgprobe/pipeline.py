"""Forward synthesis of taper transmission maps T(lambda, l_c) and the
inverse analysis: resonance extraction and bandstructure reconstruction.

The forward model composes the exact fiber dispersion at the local taper
diameter with the PCWG branch dispersion (linearized between samples),
feeds the detuning through the lossless two-mode transfer functions
(contra-directional for negative-group-velocity branches, co-directional
otherwise), averages over the diameter variation across the interaction
length, and applies the broadband scattering loss.  The inverse path
never sees the forward model's internals: dips are located per column,
refined sub-grid, tracked across columns into branches, and mapped to
(beta, omega) points through the fiber solver.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bands import BandCurve, phase_match_crossing
from .coupling import (CouplerConfig, co_transmission, contra_transmission,
                       ideality_from_transmission)
from .errors import BandCoverageError, MapFormatError
from .fiber import C_UM_PER_S, FiberSpec, TaperProfile, he11_neff
from .fileio import atomic_write, write_json

MAP_HEADER_CELL = "lc_mm\\lambda_nm"


@dataclass
class TransmissionMap:
    """T on a (l_c x wavelength) grid at fixed gap and lateral offset."""

    wavelengths_nm: np.ndarray
    lc_mm: np.ndarray
    t: np.ndarray  # shape (n_lc, n_lambda)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.wavelengths_nm = np.asarray(self.wavelengths_nm, dtype=float)
        self.lc_mm = np.asarray(self.lc_mm, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        if self.t.shape != (self.lc_mm.size, self.wavelengths_nm.size):
            raise ValueError(
                f"T shape {self.t.shape} does not match grids "
                f"({self.lc_mm.size}, {self.wavelengths_nm.size})"
            )
        if np.any(self.t < -1e-12) or np.any(self.t > 1.0 + 1e-12):
            raise ValueError("transmission values must lie in [0, 1]")

    def to_csv(self, path, meta_path=None):
        """The map as CSV: each cell the shortest repr of its float, rows
        ended by ``"\\r\\n"``, as ``csv.writer`` writes them (no cell needs
        quoting)."""
        lines = [",".join([MAP_HEADER_CELL, *map(repr, self.wavelengths_nm.tolist())])]
        lines += [",".join(map(repr, row))
                  for row in np.column_stack([self.lc_mm, self.t]).tolist()]
        atomic_write(path, "\r\n".join(lines) + "\r\n")
        if meta_path is not None:
            write_json(meta_path, self.meta)

    @classmethod
    def from_csv(cls, path, meta_path=None):
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise MapFormatError(f"{path}: not a text file: {exc}") from exc
        if not rows:
            raise MapFormatError(f"{path}: empty file", line=1)
        header = rows[0]
        if not header or header[0] != MAP_HEADER_CELL:
            raise MapFormatError(
                f"{path}: first cell must be {MAP_HEADER_CELL!r}", line=1, column=1
            )
        try:
            wavelengths = np.array(_finite_cells(path, header[1:], line=1, first_column=2))
        except ValueError as exc:
            raise MapFormatError(f"{path}: bad wavelength header: {exc}", line=1) from exc
        if wavelengths.size < 2 or np.any(np.diff(wavelengths) <= 0):
            raise MapFormatError(
                f"{path}: wavelength grid must be increasing with >= 2 points", line=1
            )
        body = [(i, row) for i, row in enumerate(rows[1:], start=2) if row]
        if not body:
            raise MapFormatError(f"{path}: no data rows", line=2)
        # the whole body in one conversion; only a failed one goes cell by cell
        # to name the first bad cell
        n_cells = wavelengths.size + 1
        try:
            cells = np.array([row for _, row in body], dtype=float)
            whole = cells.shape == (len(body), n_cells) and np.isfinite(cells).all()
        except ValueError:  # a non-numeric cell, or rows of unequal length
            whole = False
        if not whole:
            cells = np.array([_row_cells(path, row, i, n_cells) for i, row in body])
        meta = {}
        if meta_path is not None:
            try:
                meta = json.loads(Path(meta_path).read_text())
            except ValueError as exc:  # also UnicodeDecodeError
                raise MapFormatError(f"{meta_path}: not a JSON sidecar: {exc}") from exc
        try:
            return cls(wavelengths, cells[:, 0], cells[:, 1:], meta)
        except ValueError as exc:
            raise MapFormatError(f"{path}: {exc}") from exc


def _row_cells(path, row, line, n_cells):
    """A map row's ``n_cells`` cells as floats, or the MapFormatError that
    names its first bad cell."""
    if len(row) != n_cells:
        raise MapFormatError(
            f"{path}: expected {n_cells} cells, got {len(row)}", line=line, column=len(row)
        )
    try:
        return _finite_cells(path, row, line=line)
    except ValueError as exc:
        raise MapFormatError(f"{path}: non-numeric cell: {exc}", line=line) from exc


def _finite_cells(path, cells, line, first_column=1):
    """Cells as floats; a NaN or infinite cell is a MapFormatError."""
    values = [float(v) for v in cells]
    for j, v in enumerate(values):
        if not math.isfinite(v):
            raise MapFormatError(
                f"{path}: non-finite cell {cells[j]!r}", line=line, column=first_column + j
            )
    return values


@dataclass
class ResonancePoint:
    lc_mm: float
    lambda_min_nm: float
    t_min: float
    label: str = "unassigned"
    fit_width_nm: float = float("nan")
    branch: int = -1
    ambiguous: bool = False

    def to_dict(self):
        return asdict(self)


@dataclass
class BandPoint:
    beta_rad_per_um: float
    omega_rad_per_s: float
    lambda_nm: float
    lc_mm: float
    label: str = "unassigned"

    def to_dict(self):
        return asdict(self)


# ---------------------------------------------------------------------------
# Forward synthesis
# ---------------------------------------------------------------------------


def _branch_beta_of_lambda(curve: BandCurve, lam_nm_grid: np.ndarray):
    """Branch beta(lambda) on the scan grid, linearized beyond its samples.

    The branch must actually reach the scan window (expanded by half its
    width); otherwise composing a detuning would be silent extrapolation.
    """
    lam = curve.lambda_nm
    beta = curve.beta_rad_per_um
    order = np.argsort(lam)
    lam, beta = lam[order], beta[order]
    lo, hi = lam_nm_grid[0], lam_nm_grid[-1]
    span = hi - lo
    if lam[-1] < lo - 0.5 * span or lam[0] > hi + 0.5 * span:
        raise BandCoverageError(
            f"branch {curve.label!r} samples ({lam[0]:.0f}-{lam[-1]:.0f} nm) do not "
            f"reach the scan window ({lo:.0f}-{hi:.0f} nm)"
        )
    out = np.interp(lam_nm_grid, lam, beta)
    # linear extension with the end slopes (linearized composition)
    lo_slope = (beta[1] - beta[0]) / (lam[1] - lam[0])
    hi_slope = (beta[-1] - beta[-2]) / (lam[-1] - lam[-2])
    below = lam_nm_grid < lam[0]
    above = lam_nm_grid > lam[-1]
    out[below] = beta[0] + lo_slope * (lam_nm_grid[below] - lam[0])
    out[above] = beta[-1] + hi_slope * (lam_nm_grid[above] - lam[-1])
    return out


_MAP_BLOCK = 6144  # (position, sub-position, wavelength) elements per fiber solve
# The map's fiber solve first solves every _COARSE_STRIDE-th wavelength and the
# last one; a cubic through the nearest four of those roots starts each
# element's Newton steps.
_COARSE_STRIDE = 16


def _cubic_weights(x, xq):
    """Rows of node indices into the increasing ``x`` and the matching
    weights: sum(w * y[idx]) is the cubic through the four nodes (all of
    them if ``x`` has fewer) around each ``xq``."""
    p = min(4, x.size)
    first = np.clip(np.searchsorted(x, xq) - p // 2, 0, x.size - p)
    idx = first + np.arange(p)[:, None]
    nodes = x[idx]
    w = np.ones(idx.shape)
    for i in range(p):
        for j in range(p):
            if j != i:
                w[i] *= (xq - nodes[j]) / (nodes[i] - nodes[j])
    return idx, w


def _lossless_transmission(kappa, l_c_um, beta_f, branches):
    """Product of each branch's transfer T at Delta = (beta_f - beta_branch)/2,
    broadcast over ``kappa`` and ``beta_f``.  ``branches`` holds
    ``(beta_of_lambda, transfer)`` pairs."""
    t = np.ones(np.broadcast_shapes(np.shape(kappa), np.shape(beta_f)))
    for beta, transfer in branches:
        t = t * transfer(kappa, l_c_um, 0.5 * (beta_f - beta))[0]
    return t


def synthesize_map(taper: TaperProfile, curves: list, coupler: CouplerConfig, fiber: FiberSpec,
                   wavelengths_nm, lc_mm, *, include_loss: bool, noise_sigma: float = 0.0,
                   seed: int | None = None, n_sub: int = 5) -> TransmissionMap:
    """Synthesize T(lambda, l_c) on the wavelength (nm) and taper-position
    (mm) grids for a taper scanned along the PCWG.

    At each (lambda, l_c): the fiber propagation constant at the local
    diameter sets the detuning against every branch; branches with
    negative group velocity couple contra-directionally, the rest
    co-directionally; channels multiply.  The diameter variation across
    the interaction length is modeled by averaging the transfer over
    ``n_sub`` sub-positions.  ``include_loss`` applies the broadband
    scattering loss.  Noise is additive Gaussian with standard deviation
    ``noise_sigma * T``.
    """
    wavelengths_nm = np.asarray(wavelengths_nm, dtype=float)
    lc_mm = np.asarray(lc_mm, dtype=float)
    if wavelengths_nm.size < 2 or lc_mm.size < 1:
        raise ValueError("need >= 2 wavelengths and >= 1 taper position")

    lam_um = wavelengths_nm * 1e-3
    branches = [(_branch_beta_of_lambda(c, wavelengths_nm),
                 contra_transmission if c.mean_slope() < 0 else co_transmission) for c in curves]

    lo, hi = taper.span_mm
    half_lc_mm = 0.5 * coupler.l_c_um * 1e-3
    offsets = np.linspace(-half_lc_mm, half_lc_mm, n_sub) if n_sub > 1 else np.array([0.0])
    lam_mid_um = float(np.mean(lam_um))

    d_sub = taper.diameter_at(np.clip(lc_mm[:, None] + offsets, lo, hi))  # (lc, sub-position)
    kappa = coupler.kappa_perp(fiber, lam_mid_um, d_um=d_sub)[..., None]  # one solve for all
    scatter = np.ones(lc_mm.size)
    if include_loss:
        scatter = coupler.scattering_transmission(taper.diameter_at(lc_mm))
    # one coarse-wavelength solve for every diameter gives those wavelengths'
    # roots and starts the solves of the others
    coarse = np.zeros(lam_um.size, bool)
    coarse[::_COARSE_STRIDE] = coarse[-1] = True
    n_coarse = he11_neff(fiber, lam_um[coarse], d_sub[..., None])
    idx, w = _cubic_weights(lam_um[coarse], lam_um[~coarse])
    t = np.empty((lc_mm.size, wavelengths_nm.size))
    rows = max(1, _MAP_BLOCK // (offsets.size * lam_um.size))
    for i in range(0, lc_mm.size, rows):
        blk = slice(i, i + rows)
        # one (position x sub-position x wavelength) fiber solve per block
        n_eff = np.empty(d_sub[blk].shape + lam_um.shape)
        n_eff[..., coarse] = n_coarse[blk]
        start = np.sum(w * n_coarse[blk][..., idx], axis=-2)
        n_eff[..., ~coarse] = he11_neff(fiber, lam_um[~coarse], d_sub[blk, :, None], start)
        beta_f = 2.0 * np.pi * n_eff / lam_um
        t_sub = _lossless_transmission(kappa[blk], coupler.l_c_um, beta_f, branches)
        t[blk] = t_sub.sum(axis=1) / offsets.size * scatter[blk, None]

    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        with np.errstate(over="ignore"):  # a huge sigma: the clips saturate T at 0 or 1
            noise = np.clip(noise_sigma * rng.standard_normal(t.shape), -1.0, 1e300)
        t = t * (1.0 + noise)
    t = np.clip(t, 0.0, 1.0)

    meta = {
        "gap_nm": coupler.gap_nm,
        "taper_id": taper.name,
        "normalization": "relative to the bare-taper transmission",
        "noise_sigma": noise_sigma,
        "seed": seed,
        "branches": sorted(c.label for c in curves),
        "include_loss": include_loss,
    }
    return TransmissionMap(wavelengths_nm, lc_mm, t, meta)


# ---------------------------------------------------------------------------
# Inverse analysis
# ---------------------------------------------------------------------------


# Dip detection: a dip lies _DEPTH_SIGMAS noise sigmas below the baseline over
# at least _MIN_RUN samples; a dip shallower than _SIDELOBE_DEPTH_FRAC of a
# deeper one within _SIDELOBE_WINDOW_NM is that one's sidelobe.  Tracking
# joins dips of neighboring columns at most _MAX_JUMP_NM apart.
_DEPTH_SIGMAS = 3.0
_MIN_RUN = 2
_SIDELOBE_WINDOW_NM = 20.0
_SIDELOBE_DEPTH_FRAC = 0.25
_MAX_JUMP_NM = 5.0


def _dip_levels(t):
    """Baseline and dip threshold of each row of ``t``, all rows at once:
    the baseline is the median of the row's top quartile, the threshold
    baseline - max(3 sigma, floor), with sigma the noise that the median
    sample-to-sample step implies."""
    top = np.quantile(t, 0.75, axis=1)
    baseline = np.nanmedian(np.where(t >= top[:, None], t, np.nan), axis=1)
    sigma = 1.4826 * np.median(np.abs(np.diff(t, axis=1)), axis=1) / np.sqrt(2.0)
    return baseline, baseline - np.maximum(_DEPTH_SIGMAS * sigma, 1e-6)


def _quadratic_fit(x, y):
    """``np.polyfit(x, y, 2)`` in closed form, on Python floats.

    The least squares run on the centred abscissae u = x - mean(x), over the
    orthogonal basis 1, u and w = u^2 - S2/n - (S3/S2) u (Sk the sum of
    u^k), so each coefficient is one projection.
    """
    n = len(x)
    xm, ym = sum(x) / n, sum(y) / n
    u = [xi - xm for xi in x]
    dy = [yi - ym for yi in y]
    s2 = sum(ui * ui for ui in u)
    s3 = sum(ui * ui * ui for ui in u)
    w = [ui * ui - s2 / n - s3 / s2 * ui for ui in u]
    c2 = sum(wi * di for wi, di in zip(w, dy)) / sum(wi * wi for wi in w)
    c1 = (sum(ui * di for ui, di in zip(u, dy)) - s3 * c2) / s2
    c0 = ym - s2 / n * c2
    # c2 u^2 + c1 u + c0 in powers of x
    return c2, c1 - 2.0 * c2 * xm, c0 - c1 * xm + c2 * xm * xm


def _column_dips(lam_nm, t, baseline, runs):
    """Local minima of the ``runs`` (first, stop) of samples below the
    threshold, sub-grid refined.  ``lam_nm`` and ``t`` are one column's
    wavelengths and transmissions as lists of floats.

    The two-mode transfer function carries oscillatory sidelobes around each
    resonance; a dip much shallower than a deeper dip nearby is one of
    those and is suppressed rather than reported as its own resonance.
    """
    dips = []
    for j, stop in runs:
        k = stop - 1  # the run below threshold is j..k
        m = min(range(j, k + 1), key=t.__getitem__)
        lam_min, t_min = lam_nm[m], t[m]
        # sub-grid refinement: quadratic fit over the quarter-depth
        # window (a 3-point vertex is noise-limited on wide dips);
        # the window stays inside this run so a shallow noise run on a
        # shoulder cannot swallow a neighboring dip
        limit = t[m] + 0.25 * (baseline - t[m])
        lo_w = m
        while lo_w > j and t[lo_w - 1] <= limit:
            lo_w -= 1
        hi_w = m
        while hi_w < k and t[hi_w + 1] <= limit:
            hi_w += 1
        if hi_w - lo_w >= 2:
            xs = [x - lam_nm[m] for x in lam_nm[lo_w : hi_w + 1]]
            a2, a1, a0 = _quadratic_fit(xs, t[lo_w : hi_w + 1])
            if a2 > 0:
                vertex = -a1 / (2.0 * a2)
                if abs(vertex) <= max(abs(xs[0]), abs(xs[-1])):
                    lam_min = lam_nm[m] + vertex
                    t_min = a0 - a1**2 / (4.0 * a2)
        half = baseline - 0.5 * (baseline - t_min)
        left = right = math.nan
        for p in range(m - 1, -1, -1):  # first sample at/above the half level
            if t[p] >= half:
                fr = (half - t[p + 1]) / (t[p] - t[p + 1])
                left = lam_nm[p + 1] - fr * (lam_nm[p + 1] - lam_nm[p])
                break
        for p in range(m + 1, len(t)):
            if t[p] >= half:
                fr = (half - t[p - 1]) / (t[p] - t[p - 1])
                right = lam_nm[p - 1] + fr * (lam_nm[p] - lam_nm[p - 1])
                break
        dips.append((lam_min, t_min, right - left))

    keep = []
    for lam, tmin, width in dips:
        depth = baseline - tmin
        shadowed = any(
            abs(lam - lam2) <= _SIDELOBE_WINDOW_NM
            and depth < _SIDELOBE_DEPTH_FRAC * (baseline - tmin2)
            for lam2, tmin2, _ in dips
            if (lam2, tmin2) != (lam, tmin)
        )
        if not shadowed:
            keep.append((lam, tmin, width))
    return keep


def extract_resonances(tmap: TransmissionMap) -> list:
    """Per-column dip detection and cross-column branch tracking.

    Dips are tracked into branches by nearest-wavelength association
    with a per-step jump bound; a second candidate inside the bound
    flags the point as ambiguous.  Labels stay "unassigned" here; see
    ``label_branches``.  An empty result is valid (constant map).
    """
    baseline, threshold = _dip_levels(tmap.t)
    # runs below threshold of every column: +1 opens a run, -1 ends it; runs
    # shorter than _MIN_RUN samples are noise
    edges = np.diff((tmap.t < threshold[:, None]).astype(np.int8), axis=1, prepend=0, append=0)
    column, first = np.nonzero(edges > 0)
    stop = np.nonzero(edges < 0)[1]
    long = stop - first >= _MIN_RUN
    column, runs = column[long], list(zip(first[long].tolist(), stop[long].tolist()))
    bounds = np.searchsorted(column, np.arange(tmap.lc_mm.size + 1)).tolist()
    baseline, lam_nm = baseline.tolist(), tmap.wavelengths_nm.tolist()
    points: list[ResonancePoint] = []
    open_tracks: list[tuple] = []  # (branch, wavelength of its last dip)
    next_branch = 0
    for i in np.argsort(tmap.lc_mm).tolist():
        dips = _column_dips(lam_nm, tmap.t[i].tolist(), baseline[i],
                            runs[bounds[i]:bounds[i + 1]])
        assigned = {}  # dip index -> (branch, ambiguous): tracked dips, then new ones
        for branch, lam0 in open_tracks:
            cands = sorted((abs(dips[j][0] - lam0), j) for j in range(len(dips))
                           if j not in assigned and abs(dips[j][0] - lam0) <= _MAX_JUMP_NM)
            if cands:
                assigned[cands[0][1]] = (branch, len(cands) > 1)
        for j in range(len(dips)):
            if j not in assigned:
                assigned[j] = (next_branch, False)
                next_branch += 1
        for j, (branch, ambiguous) in assigned.items():
            lam, tmin, width = dips[j]
            points.append(ResonancePoint(lc_mm=float(tmap.lc_mm[i]), lambda_min_nm=lam,
                                         t_min=tmin, fit_width_nm=width, branch=branch,
                                         ambiguous=ambiguous))
        open_tracks = [(branch, dips[j][0]) for j, (branch, _) in assigned.items()]
    return points


def label_branches(points: list, taper: TaperProfile) -> list:
    """Assign TE-1 / TE-2 labels from the dip drift against diameter.

    The contra-coupled (negative group velocity) branch phase-matches at
    longer wavelength as the taper gets thicker; a co-coupled branch
    with group index above the fiber's drifts the other way.
    """
    by_branch: dict[int, list[ResonancePoint]] = {}
    for p in points:
        by_branch.setdefault(p.branch, []).append(p)
    for branch_points in by_branch.values():
        if len(branch_points) < 3:
            continue
        lc = np.array([p.lc_mm for p in branch_points])
        lam = np.array([p.lambda_min_nm for p in branch_points])
        d = taper.diameter_at(lc)
        if np.ptp(d) <= 0:
            continue
        slope = np.polyfit(d, lam, 1)[0]
        if abs(slope) < 1.0:  # nm per um of diameter: too flat to call
            label = "unassigned"
        else:
            label = "TE-1" if slope > 0 else "TE-2"
        for p in branch_points:
            p.label = label
    return points


def to_bandstructure(points: list, taper: TaperProfile, fiber: FiberSpec) -> list:
    """Resonances -> (beta, omega) samples through one fiber solve."""
    lam_um = np.array([p.lambda_min_nm for p in points]) * 1e-3
    d = taper.diameter_at(np.array([p.lc_mm for p in points]))
    beta = 2.0 * np.pi * he11_neff(fiber, lam_um, d) / lam_um
    return [
        BandPoint(
            beta_rad_per_um=float(b),
            omega_rad_per_s=2.0 * np.pi * C_UM_PER_S / lam,
            lambda_nm=p.lambda_min_nm,
            lc_mm=p.lc_mm,
            label=p.label,
        )
        for p, lam, b in zip(points, lam_um.tolist(), beta)
    ]


# ---------------------------------------------------------------------------
# Gap sweep
# ---------------------------------------------------------------------------


@dataclass
class GapSweepRow:
    gap_nm: float
    t_min: float
    t_max: float
    gamma: float
    kappa_l: float


_GAP_SWEEP_SPAN_NM, _GAP_SWEEP_POINTS = 150.0, 601  # wavelength grid of each gap


def gap_sweep(
    gaps_nm, coupler: CouplerConfig, fiber: FiberSpec, curve: BandCurve, *, include_loss: bool
) -> list:
    """On/off-resonance transmission, ideality, and inferred coupling per gap.

    The wavelength grid is centered on the phase-matching point of
    ``curve`` for this fiber diameter; ``include_loss`` applies the
    broadband scattering loss.  The inferred coupling strength
    is kappa_perp L_c = artanh(sqrt(1 - T_min/T_max)), which undoes the
    contra-directional transfer exactly in the lossless case.
    """
    pm = phase_match_crossing(curve, fiber)
    half_span = _GAP_SWEEP_SPAN_NM / 2.0
    lam_nm = np.linspace(pm.lambda_nm - half_span, pm.lambda_nm + half_span, _GAP_SWEEP_POINTS)
    lam_um = lam_nm * 1e-3
    beta_f = 2.0 * np.pi * he11_neff(fiber, lam_um) / lam_um
    branches = [(_branch_beta_of_lambda(curve, lam_nm), contra_transmission)]

    gaps_nm = np.asarray(gaps_nm, dtype=float)
    kappa = coupler.kappa_perp(fiber, float(np.mean(lam_um)), gaps_nm)[:, None]  # row per gap
    t = _lossless_transmission(kappa, coupler.l_c_um, beta_f, branches)
    if include_loss:
        t = t * coupler.scattering_transmission(fiber.d_um, gap_nm=gaps_nm)[:, None]
    t_min, t_max = np.min(t, axis=1), np.max(t, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):  # T_max = 0: ratio 1
        ratio = np.where(t_max > 0, np.maximum(1.0 - t_min / t_max, 0.0), 1.0)
    kappa_l = np.arctanh(np.sqrt(np.minimum(ratio, 1.0 - 1e-15)))
    columns = (gaps_nm, t_min, t_max, ideality_from_transmission(t_min, t_max), kappa_l)
    return [GapSweepRow(*row) for row in zip(*(c.tolist() for c in columns))]
