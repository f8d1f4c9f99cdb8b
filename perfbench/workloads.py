"""Workloads of the pcwgprobe benchmark and the checks on their outputs.

A workload is a list of CLI commands run in order, closed loop, one
client: each command starts after the previous one returns.  Each
command has an output check that turns a wrong answer into a failed
operation.  The checks use the invariants of the acceptance gate
(tests/test_acceptance.py) with the gate's own bounds, and compare
against the program's own outputs of the same run, so the output
changes ROADMAP items 2-4 plan still pass.

Import this module only after ``pcwgprobe`` is importable.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pcwgprobe import config as cfgmod
from pcwgprobe.bands import BandCurve, phase_match_crossing
from pcwgprobe.fiber import fundamental_neff

# Fiber diameters of the probe_sweeps workload (um): the taper range the
# map scans, plus the gap-sweep (1.9 um) and lateral-probe (1.0 um) tapers.
PROBE_DIAMETERS_UM = (0.8, 1.0, 1.2, 1.5, 1.9, 2.4)

MAP_HEADER_CELL = "lc_mm\\lambda_nm"


NAMES = ("bands_cold", "map_roundtrip", "probe_sweeps")


@dataclass
class Command:
    label: str  # per-command metric name: cli.<label>.s
    argv: list  # arguments after the global --out/--seed flags
    subdir: str = "."  # output directory inside the pass directory
    cache: bool = False  # the command consults the bands cache
    check: object = None  # check(out_dir, ctx) -> list of error strings


def commands(name, pass_dir: Path) -> list:
    """The workload's commands for one pass writing under ``pass_dir``."""
    if name == "bands_cold":
        return [
            Command("bands", ["bands"], cache=True, check=check_bands),
            Command("bands_thinned", ["bands", "--thinned", "300"], cache=True,
                    check=check_thinning),
        ]
    if name == "map_roundtrip":
        return [
            Command("map_synth", ["map", "synth"], cache=True, check=check_map),
            Command("map_analyze", ["map", "analyze", "--in", str(pass_dir / "map.csv")],
                    check=check_round_trip),
        ]
    if name == "probe_sweeps":
        fibers = [
            Command("fiber", ["fiber", "--d-um", repr(d)], subdir=f"fiber_{d}",
                    check=check_fiber)
            for d in PROBE_DIAMETERS_UM
        ]
        return fibers + [
            Command("couple_gap", ["couple", "--sweep", "gap"], cache=True,
                    check=check_gap_sweep),
            Command("couple_lateral", ["couple", "--sweep", "lateral"], cache=True,
                    check=check_lateral),
        ]
    raise KeyError(name)


class Context:
    """What the checks compare against: the default config and the TE-1
    branch of the program's own ``bands.json`` for this run."""

    def __init__(self, bands_json: Path | None = None):
        self.cfg = cfgmod.load_config(None)
        self.te1 = None
        if bands_json is not None:
            self.te1 = te1_from_bands(json.loads(bands_json.read_text()))


def te1_from_bands(payload):
    lam_z_um = payload["lam_z_nm"] * 1e-3
    for curve in payload["curves"]:
        if curve["label"] == "TE-1":
            return BandCurve.from_dict(curve, lam_z_um)
    return None


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:] if row]


# -- bands_cold ---------------------------------------------------------------


def check_bands(out_dir: Path, ctx) -> list:
    """Criterion 05: TE-1 and TE-1-odd exist; TE-1 crosses the d = 1.5 um
    fiber at 1600 nm +- 5% with negative n_g, 3 <= |n_g| <= 8."""
    payload = json.loads((out_dir / "bands.json").read_text())
    errors = []
    labels = {c["label"] for c in payload["curves"]}
    for want in ("TE-1", "TE-1-odd"):
        if want not in labels:
            errors.append(f"bands.json has no {want} branch (labels {sorted(labels)})")
    pm = payload.get("phase_match")
    if not pm:
        return errors + ["bands.json has no phase-match point"]
    lam, ng = pm["lambda_nm"], pm["n_g_branch"]
    if not abs(lam - 1600.0) <= 0.05 * 1600.0:
        errors.append(f"crossing at {lam:.1f} nm, outside 1600 nm +- 5%")
    if not (ng < 0 and 3.0 <= abs(ng) <= 8.0):
        errors.append(f"n_g = {ng:.3f} at the crossing, need negative with |n_g| in [3, 8]")
    return errors


def check_thinning(out_dir: Path, ctx) -> list:
    """Criterion 06: thinning to 300 nm shifts TE-2 > TE-1 > 0."""
    errors = check_bands(out_dir, ctx)
    shift = (json.loads((out_dir / "bands.json").read_text()).get("thinning") or {})
    d = shift.get("d_omega_norm") or {}
    d1, d2 = d.get("TE-1"), d.get("TE-2")
    if d1 is None or d2 is None or not d2 > d1 > 0:
        errors.append(f"thinning shifts TE-1={d1}, TE-2={d2}, need TE-2 > TE-1 > 0")
    return errors


# -- map_roundtrip --------------------------------------------------------------


def check_map(out_dir: Path, ctx) -> list:
    """The map has the configured grid and every cell is finite in [0, 1]."""
    header, rows = _read_csv(out_dir / "map.csv")
    errors = []
    if header[0] != MAP_HEADER_CELL:
        errors.append(f"map.csv first cell is {header[0]!r}")
    n_lam = cfgmod.build_lambda_grid(ctx.cfg).size
    n_lc = cfgmod.build_lc_grid(ctx.cfg).size
    if len(header) != n_lam + 1 or len(rows) != n_lc:
        errors.append(f"map.csv is {len(rows)} x {len(header) - 1}, want {n_lc} x {n_lam}")
    bad = sum(
        1 for row in rows for v in row[1:] if not (math.isfinite(v) and 0.0 <= v <= 1.0)
    )
    if bad:
        errors.append(f"{bad} map cells are not finite values in [0, 1]")
    return errors


def check_round_trip(out_dir: Path, ctx) -> list:
    """Criterion 12: at least 45 TE-1 points, max beta error < 1%, max
    lambda error <= 0.25 nm against the TE-1 branch the map was made from."""
    points = json.loads((out_dir / "resonances.json").read_text())
    bandpoints = json.loads((out_dir / "bandpoints.json").read_text())
    if len(points) != len(bandpoints):
        return [f"{len(points)} resonances but {len(bandpoints)} band points"]
    te1 = ctx.te1
    taper = cfgmod.build_taper(ctx.cfg)
    fiber = cfgmod.build_fiber(ctx.cfg)
    pairs = [(p, b) for p, b in zip(points, bandpoints) if p["label"] == "TE-1"]
    beta_err = lam_err = 0.0
    for p, bp in pairs:
        beta_true = np.interp(bp["lambda_nm"], te1.lambda_nm, te1.beta_rad_per_um)
        beta_err = max(beta_err, abs(bp["beta_rad_per_um"] - beta_true) / beta_true)
        d = float(taper.diameter_at(p["lc_mm"]))
        pm = phase_match_crossing(te1, fiber.with_diameter(d))
        lam_err = max(lam_err, abs(p["lambda_min_nm"] - pm.lambda_nm))
    errors = []
    if len(pairs) < 45:
        errors.append(f"{len(pairs)} TE-1 points, need >= 45")
    if not beta_err < 0.01:
        errors.append(f"max beta error {beta_err:.3%}, need < 1%")
    if not lam_err <= 0.25:
        errors.append(f"max lambda error {lam_err:.3f} nm, need <= 0.25 nm")
    return errors


# -- probe_sweeps ---------------------------------------------------------------

FIBER_HEADER = "lambda_nm,d_um,n_eff,beta_rad_per_um,dbeta_dd_omega_over_c_per_um"
FIBER_NEFF_RTOL = 1e-9


def check_fiber(out_dir: Path, ctx) -> list:
    """The CSV covers the wavelength grid, and n_eff matches a fresh
    ``fundamental_neff`` solve at sampled wavelengths."""
    header, rows = _read_csv(out_dir / "fiber_dispersion.csv")
    errors = []
    if ",".join(header) != FIBER_HEADER:
        errors.append(f"fiber_dispersion.csv header is {','.join(header)!r}")
    lam_grid = cfgmod.build_lambda_grid(ctx.cfg)
    if len(rows) != lam_grid.size:
        return errors + [f"{len(rows)} fiber rows, want {lam_grid.size}"]
    if not all(math.isfinite(v) for row in rows for v in row):
        errors.append("non-finite value in fiber_dispersion.csv")
    d_um = rows[0][1]
    fiber = cfgmod.build_fiber(ctx.cfg, d_um=d_um)
    for i in sorted({0, len(rows) // 4, len(rows) // 2, 3 * len(rows) // 4, len(rows) - 1}):
        lam_nm, d, n_eff, beta, _ = rows[i]
        lam_um = lam_nm * 1e-3
        ref = fundamental_neff(fiber, lam_um).n_eff
        if d != d_um or abs(lam_nm - lam_grid[i]) > 1e-9:
            errors.append(f"row {i}: lambda/d columns {lam_nm}, {d} are off the grid")
        if not abs(n_eff - ref) <= FIBER_NEFF_RTOL * ref:
            errors.append(f"row {i}: n_eff {n_eff!r} vs fundamental_neff {ref!r}")
        if not abs(beta - 2.0 * np.pi * n_eff / lam_um) <= 1e-12 * beta:
            errors.append(f"row {i}: beta {beta!r} is not 2 pi n_eff / lambda")
    return errors


def check_gap_sweep(out_dir: Path, ctx) -> list:
    """Criterion 08: ideality peaks inside the gap sweep at >= 0.95."""
    header, rows = _read_csv(out_dir / "gap_sweep.csv")
    gamma = [row[header.index("gamma")] for row in rows]
    n_gap = cfgmod.build_gap_grid(ctx.cfg).size
    if len(gamma) != n_gap:
        return [f"{len(gamma)} gap rows, want {n_gap}"]
    best = int(np.argmax(gamma))
    errors = []
    if not 0 < best < len(gamma) - 1:
        errors.append(f"ideality peaks at the sweep edge (row {best})")
    if not gamma[best] >= 0.95:
        errors.append(f"max ideality {gamma[best]:.4f}, need >= 0.95")
    return errors


def check_lateral(out_dir: Path, ctx) -> list:
    """Criterion 10: lateral FWHM of 1 - T_min is 2.08 um +- 25%."""
    fwhm = json.loads((out_dir / "lateral_summary.json").read_text())["fwhm_um"]
    if not abs(fwhm - 2.08) <= 0.25 * 2.08:
        return [f"lateral FWHM {fwhm:.3f} um, outside 2.08 um +- 25%"]
    return []
