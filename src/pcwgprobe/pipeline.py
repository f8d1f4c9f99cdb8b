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
import io
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bands import BandCurve, phase_match_crossing
from .coupling import CouplerConfig, co_transmission, contra_transmission
from .errors import BandCoverageError, MapFormatError
from .fiber import C_UM_PER_S, FiberSpec, TaperProfile, he11_neff

MAP_HEADER_CELL = "lc_mm\\lambda_nm"


def atomic_write(path, text: str):
    """Write ``text`` to ``path`` through a temporary file and ``os.replace``,
    so readers see either the old file or the complete new one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow([MAP_HEADER_CELL] + [repr(float(v)) for v in self.wavelengths_nm])
        for lc, row in zip(self.lc_mm, self.t):
            writer.writerow([repr(float(lc))] + [repr(float(v)) for v in row])
        atomic_write(path, buf.getvalue())
        if meta_path is not None:
            atomic_write(meta_path, json.dumps(self.meta, indent=2, sort_keys=True) + "\n")

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
        lc, data = [], []
        for i, row in enumerate(rows[1:], start=2):
            if not row:
                continue
            if len(row) != wavelengths.size + 1:
                raise MapFormatError(
                    f"{path}: expected {wavelengths.size + 1} cells, got {len(row)}",
                    line=i,
                    column=len(row),
                )
            try:
                values = _finite_cells(path, row, line=i)
            except ValueError as exc:
                raise MapFormatError(f"{path}: non-numeric cell: {exc}", line=i) from exc
            lc.append(values[0])
            data.append(values[1:])
        if not data:
            raise MapFormatError(f"{path}: no data rows", line=2)
        meta = {}
        if meta_path is not None:
            try:
                meta = json.loads(Path(meta_path).read_text())
            except ValueError as exc:  # also UnicodeDecodeError
                raise MapFormatError(f"{meta_path}: not a JSON sidecar: {exc}") from exc
        try:
            return cls(np.array(wavelengths), np.array(lc), np.array(data), meta)
        except ValueError as exc:
            raise MapFormatError(f"{path}: {exc}") from exc


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
    t = np.empty((lc_mm.size, wavelengths_nm.size))
    rows = max(1, _MAP_BLOCK // (offsets.size * lam_um.size))
    for i in range(0, lc_mm.size, rows):
        blk = slice(i, i + rows)
        # one (position x sub-position x wavelength) fiber solve per block
        beta_f = 2.0 * np.pi * he11_neff(fiber, lam_um, d_sub[blk, :, None]) / lam_um
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


def _column_dips(lam_nm, t_row):
    """Local minima below baseline - max(3 sigma, floor), sub-grid refined.

    Runs shorter than ``_MIN_RUN`` samples are treated as noise.  The
    two-mode transfer function carries oscillatory sidelobes around each
    resonance; a dip much shallower than a deeper dip nearby is one of
    those and is suppressed rather than reported as its own resonance.
    """
    top = np.quantile(t_row, 0.75)
    baseline = float(np.median(t_row[t_row >= top]))
    diffs = np.abs(np.diff(t_row))
    sigma = 1.4826 * float(np.median(diffs)) / np.sqrt(2.0)
    threshold = baseline - max(_DEPTH_SIGMAS * sigma, 1e-6)

    edges = np.diff(np.concatenate(([0], t_row < threshold, [0])))  # +1 opens a run, -1 ends it
    dips = []
    for j, stop in zip(np.flatnonzero(edges > 0).tolist(), np.flatnonzero(edges < 0).tolist()):
        k = stop - 1  # the run below threshold is j..k
        if k - j + 1 >= _MIN_RUN:
            seg = slice(j, k + 1)
            m = j + int(np.argmin(t_row[seg]))
            lam_min, t_min = lam_nm[m], t_row[m]
            # sub-grid refinement: quadratic fit over the quarter-depth
            # window (a 3-point vertex is noise-limited on wide dips);
            # the window stays inside this run so a shallow noise run on a
            # shoulder cannot swallow a neighboring dip
            depth0 = baseline - t_row[m]
            lo_w = m
            while lo_w > j and t_row[lo_w - 1] <= t_row[m] + 0.25 * depth0:
                lo_w -= 1
            hi_w = m
            while hi_w < k and t_row[hi_w + 1] <= t_row[m] + 0.25 * depth0:
                hi_w += 1
            if hi_w - lo_w >= 2:
                xs = lam_nm[lo_w : hi_w + 1] - lam_nm[m]
                ys = t_row[lo_w : hi_w + 1]
                a2, a1, a0 = np.polyfit(xs, ys, 2)
                if a2 > 0:
                    vertex = -a1 / (2.0 * a2)
                    if abs(vertex) <= max(abs(xs[0]), abs(xs[-1])):
                        lam_min = lam_nm[m] + vertex
                        t_min = float(a0 - a1**2 / (4.0 * a2))
            half = baseline - 0.5 * (baseline - t_min)
            left = right = np.nan
            for p in range(m - 1, -1, -1):  # first sample at/above the half level
                if t_row[p] >= half:
                    fr = (half - t_row[p + 1]) / (t_row[p] - t_row[p + 1])
                    left = lam_nm[p + 1] - fr * (lam_nm[p + 1] - lam_nm[p])
                    break
            for p in range(m + 1, len(t_row)):
                if t_row[p] >= half:
                    fr = (half - t_row[p - 1]) / (t_row[p] - t_row[p - 1])
                    right = lam_nm[p - 1] + fr * (lam_nm[p] - lam_nm[p - 1])
                    break
            width = (
                right - left if np.isfinite(left) and np.isfinite(right) else float("nan")
            )
            dips.append((float(lam_min), float(t_min), float(width)))

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
    order = np.argsort(tmap.lc_mm)
    points: list[ResonancePoint] = []
    open_tracks: list[tuple] = []  # (branch, wavelength of its last dip)
    next_branch = 0
    for i in order:
        dips = _column_dips(tmap.wavelengths_nm, tmap.t[i])
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
    return [GapSweepRow(*row) for row in
            zip(gaps_nm.tolist(), t_min.tolist(), t_max.tolist(), (t_max - t_min).tolist(),
                kappa_l.tolist())]
