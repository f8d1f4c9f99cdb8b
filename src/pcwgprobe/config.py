"""Run configuration: YAML document with documented defaults.

Sections ``fiber``, ``slab``, ``lattice``, ``coupler``, ``grids``,
``io``; every physical quantity carries its unit in the key name.
Unknown keys are rejected, and every value is checked at load against
the kind of its default (see ``OPTIONAL_KINDS``); missing keys fall back
to the defaults below (echo the merged result with
--print-effective-config).  ``DEFAULTS`` is the one place a default is
written: the field defaults of the spec dataclasses read it.
"""

from __future__ import annotations

import copy
import json
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError

if TYPE_CHECKING:  # each builder imports its class when it is called
    from .coupling import CouplerConfig
    from .fiber import FiberSpec, TaperProfile
    from .slab import SlabSpec

DEFAULTS = {
    "fiber": {
        "core_index": None,  # null: fused-silica Sellmeier at each wavelength
        "clad_index": 1.0,
        "d_um": 1.5,
        "taper_waist_um": 0.6,
        "taper_pull_mm": 5.5,
        "taper_csv": None,  # overrides the exponential profile when given
    },
    "slab": {
        "t_nm": 340.0,
        "n_si": 3.4,
        "n_clad": 1.0,
        # mode-weighted air fill of the perforated membrane; see the slab
        # module's docstring for the calibration (order-0 index 2.6000 at
        # t=340 nm, n_Si=3.4, 1.6 um)
        "effective_hole_fill": 0.238287,
    },
    "lattice": {
        "lam_z_nm": 500.0,
        "lam_x_nm": 400.0,
        "r_frac": 0.35,
        "grading": [0.31, 0.325, 0.34],
        "supercell_rows": 17,
        "pw_per_cell": 7,
        "n_eff_override": None,  # null: order-0 slab solve at lam_ref
        "lam_ref_um": 1.6,
        "dispersive": True,
        "k_start": 0.30,
        "k_stop": 0.50,
        "k_points": 26,
    },
    "coupler": {
        "gap_nm": 700.0,
        "l_c_um": 60.0,
        # kappa_perp * L_c = 4.0 at the reference point (g = 250 nm gap,
        # d = 1.9 um taper), which puts the on-resonance transmission floor
        # well below 1% there.  The gap law away from the reference follows
        # the fiber mode's own evanescent decay constant; the diameter
        # factor exp(-(d_ref - d)/d_kappa) is calibrated so a 1.0 um taper
        # at g = 400 nm reaches a resonant dip of ~0.9 (kappa L_c = 1.82).
        "kappa_ref_l": 4.0,
        "g_ref_nm": 250.0,
        "d_ref_um": 1.9,
        "d_kappa_um": 2.0393,
        "g0_nm": None,  # null: use the fiber evanescent decay constant
        "scatter_loss_ref": 0.10,
        "scatter_g_scale_nm": 250.0,
        "scatter_d_scale_um": 0.55,
        "include_loss": True,
    },
    "grids": {
        "lambda_start_nm": 1565.0,
        "lambda_stop_nm": 1625.0,
        "lambda_step_nm": 0.25,
        "lc_start_mm": 0.20,
        "lc_stop_mm": 0.55,
        "lc_points": 50,
        "gap_start_nm": 250.0,
        "gap_stop_nm": 800.0,
        "gap_step_nm": 25.0,
        "gap_sweep_d_um": 1.9,
        "lateral_d_um": 1.0,
        "lateral_gap_nm": 400.0,
        "dx_span_um": 4.0,
        "dx_points": 81,
        "noise_sigma": 0.005,
    },
    "io": {
        "out_dir": "out",
        "cache": True,
    },
}


# The kinds of the keys whose default is null.  Every other key takes the
# kind of its default: a real (float), a whole number (int), a switch
# (bool), a path (str) or a list of reals (list).
OPTIONAL_KINDS = {
    "fiber.core_index": float,
    "fiber.taper_csv": str,
    "lattice.n_eff_override": float,
    "coupler.g0_nm": float,
}
_KIND_NAMES = {float: "a real number", int: "a whole number", bool: "true or false",
               str: "a path", list: "a list of real numbers"}


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _typed(here: str, kind: type, value):
    """``value`` as a ``kind``, else ConfigError naming ``here``.  A real
    may be a YAML integer; a whole number may be a float with an integral
    value; a path holds no NUL byte (no file name does)."""
    try:
        if kind is float and _is_real(value):
            return float(value)
        if kind is int and (type(value) is int or isinstance(value, float) and value.is_integer()):
            return int(value)
        if kind is list and isinstance(value, list) and all(map(_is_real, value)):
            return [float(v) for v in value]
        if kind is bool and isinstance(value, bool):
            return value
        if kind is str and isinstance(value, str) and "\0" not in value:
            return value
    except OverflowError:  # an integer past the float range
        pass
    raise ConfigError(f"config {here!r} must be {_KIND_NAMES[kind]}, got {value!r}")


def _merge_validate(defaults: dict, user: dict, path: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here!r}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here!r} must be a mapping")
            merged[key] = _merge_validate(default, value, here)
        elif default is None:
            merged[key] = None if value is None else _typed(here, OPTIONAL_KINDS[here], value)
        else:
            merged[key] = _typed(here, type(default), value)
    return merged


def load_config(path=None) -> dict:
    """Load a YAML config, check each value's kind, and merge it over the defaults."""
    if path is None:
        return copy.deepcopy(DEFAULTS)
    import yaml

    try:
        with open(path, encoding="utf-8") as fh:
            user = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    except RecursionError as exc:  # PyYAML composes nested nodes recursively
        raise ConfigError(f"config {path} is nested too deeply") from exc
    # ValueError: a scalar PyYAML cannot construct (a date 2001-13-01, an
    # integer past Python's digit limit)
    except (yaml.YAMLError, ValueError) as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: top level must be a mapping of sections")
    return _merge_validate(DEFAULTS, user)


def effective_config_yaml(cfg: dict) -> str:
    import yaml

    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)


# Bump whenever the bands a config yields change: older caches are then not read.
BANDS_CACHE_VERSION = 3


def bands_cache_key(cfg: dict) -> str:
    """Stable short hash of everything the cached bands depend on."""
    import hashlib  # only the commands that read or write the bands cache hash

    payload = {"version": BANDS_CACHE_VERSION, "slab": cfg["slab"], "lattice": cfg["lattice"]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


# -- builders: range and cross-key checks -------------------------------------

# Most points of any one grid: far above every default (at most 241), far
# below a grid whose arrays no longer fit in memory.
MAX_GRID_POINTS = 100_000
# Most cells of the transmission map (taper positions x wavelengths): far
# above the default 12,050, small enough that each map array (80 MB) fits.
MAX_MAP_CELLS = 10_000_000


def _check_points(count: float, keys: str) -> None:
    """ConfigError naming ``keys`` unless ``count`` is at most MAX_GRID_POINTS."""
    if not count <= MAX_GRID_POINTS:
        raise ConfigError(f"config {keys}: more than {MAX_GRID_POINTS} grid points")


def _section(name: str):
    """Decorates a builder: a value it rejects becomes a ConfigError naming the section."""

    def decorate(build):
        def checked(*args, **kwargs):
            try:
                return build(*args, **kwargs)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"config section {name!r}: {exc}") from exc

        checked.__name__, checked.__doc__ = build.__name__, build.__doc__
        return checked

    return decorate


@_section("fiber")
def build_fiber(cfg: dict, d_um=None) -> FiberSpec:
    from .fiber import FiberSpec

    f = cfg["fiber"]
    return FiberSpec(d_um=f["d_um"] if d_um is None else d_um, core_index=f["core_index"],
                     clad_index=f["clad_index"])


@_section("fiber")
def build_taper(cfg: dict) -> TaperProfile:
    from .fiber import TaperProfile

    f = cfg["fiber"]
    if f["taper_csv"] is not None:
        return TaperProfile.from_csv(f["taper_csv"])
    return TaperProfile.exponential(f["taper_waist_um"], f["taper_pull_mm"])


@_section("slab")
def build_slab(cfg: dict) -> SlabSpec:
    from .slab import SlabSpec

    s = cfg["slab"]
    return SlabSpec(t_nm=s["t_nm"], n_slab=s["n_si"], n_clad=s["n_clad"],
                    effective_hole_fill=s["effective_hole_fill"])


@_section("lattice")
def build_lattice(cfg: dict):
    """PCWaveguideSpec, and the membrane whose dispersion its bands follow
    (None for fixed-index bands)."""
    from .bands import PCWaveguideSpec
    from .slab import slab_effective_index

    lat = cfg["lattice"]
    if not lat["grading"]:
        raise ConfigError("config 'lattice.grading' must list the radius of at least one "
                          "graded row: the waveguide is the graded defect")
    slab = build_slab(cfg)
    # an override fixes the index, and the dispersive correction stays off:
    # it is 1 at lam_ref only where n_eff is the slab's own index there
    if lat["n_eff_override"] is not None:
        n_eff, dispersive = lat["n_eff_override"], None
    else:
        n_eff = slab_effective_index(slab, lat["lam_ref_um"], 0)
        dispersive = slab if lat["dispersive"] else None
    spec = PCWaveguideSpec(
        lam_z_nm=lat["lam_z_nm"],
        lam_x_nm=lat["lam_x_nm"],
        r_frac=lat["r_frac"],
        grading=tuple(lat["grading"]),
        supercell_rows=lat["supercell_rows"],
        n_eff=n_eff,
        pw_per_cell=lat["pw_per_cell"],
    )
    return spec, dispersive


@_section("lattice")
def build_kpath(cfg: dict):
    from .bands import MIN_BRANCH_SAMPLES

    lat = cfg["lattice"]
    _check_points(lat["k_points"], "'lattice.k_points'")
    if lat["k_points"] < MIN_BRANCH_SAMPLES:
        raise ConfigError(f"config 'lattice.k_points' must be at least {MIN_BRANCH_SAMPLES}, "
                          f"the fewest samples of a kept branch, got {lat['k_points']}")
    kpath = np.linspace(lat["k_start"], lat["k_stop"], lat["k_points"])
    # beta = 2 pi k / L_z rounds twice, so k-points a few ulps apart can share a beta
    if not np.all(np.diff(np.sort(kpath)) > 8 * np.spacing(np.max(np.abs(kpath), initial=0.0))):
        raise ConfigError(f"config 'lattice.k_start/k_stop/k_points': the {kpath.size} k-points "
                          f"from {lat['k_start']!r} to {lat['k_stop']!r} are not all distinct")
    return kpath


@_section("coupler")
def build_coupler(cfg: dict) -> CouplerConfig:
    from .coupling import CouplerConfig

    return CouplerConfig(**{k: v for k, v in cfg["coupler"].items() if k != "include_loss"})


@_section("grids")
def build_lambda_grid(cfg: dict) -> np.ndarray:
    g = cfg["grids"]
    start, stop, step = g["lambda_start_nm"], g["lambda_stop_nm"], g["lambda_step_nm"]
    if not (step > 0 and stop > start > 0):
        raise ConfigError(
            f"wavelength grid needs 0 < start < stop and step > 0: "
            f"start={start}, stop={stop}, step={step}"
        )
    _check_points((stop - start) / step + 1, "'grids.lambda_start_nm/stop_nm/step_nm'")
    return np.arange(start, stop + 1e-9, step)


@_section("grids")
def build_lc_grid(cfg: dict) -> np.ndarray:
    g = cfg["grids"]
    n = g["lc_points"]
    _check_points(n, "'grids.lc_points'")
    if n < 1 or g["lc_stop_mm"] <= g["lc_start_mm"]:
        raise ConfigError("empty taper-position grid")
    return np.linspace(g["lc_start_mm"], g["lc_stop_mm"], n)


def build_map_grids(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Wavelength (nm) and taper-position (mm) grids of the map, capped in cell count."""
    lam_nm, lc_mm = build_lambda_grid(cfg), build_lc_grid(cfg)
    if lam_nm.size < 2:
        raise ConfigError("config 'grids.lambda_start_nm/stop_nm/step_nm': the map needs "
                          f">= 2 wavelengths, got {lam_nm.size}")
    if lam_nm.size * lc_mm.size > MAX_MAP_CELLS:
        raise ConfigError(
            f"config 'grids.lc_points' x 'grids.lambda_start_nm/stop_nm/step_nm': "
            f"{lc_mm.size * lam_nm.size:.3g} map cells, over {MAX_MAP_CELLS}"
        )
    return lam_nm, lc_mm


def build_noise_sigma(cfg: dict) -> float:
    """Relative noise of a synthesized map: finite and >= 0."""
    sigma = cfg["grids"]["noise_sigma"]
    if not 0 <= sigma < np.inf:
        raise ConfigError(f"config 'grids.noise_sigma' must be a finite number >= 0, "
                          f"got {sigma!r}")
    return sigma


@_section("grids")
def build_gap_grid(cfg: dict) -> np.ndarray:
    g = cfg["grids"]
    start, stop, step = g["gap_start_nm"], g["gap_stop_nm"], g["gap_step_nm"]
    if step <= 0 or stop <= start:
        raise ConfigError("empty gap grid")
    _check_points((stop - start) / step + 1, "'grids.gap_start_nm/stop_nm/step_nm'")
    return np.arange(start, stop + 1e-9, step)


@_section("grids")
def build_sweep_fiber(cfg: dict, key: str) -> FiberSpec:
    """The fiber at the sweep diameter ``grids.<key>`` (um)."""
    if not cfg["grids"][key] > 0:
        raise ConfigError(f"config 'grids.{key}': fiber diameter must be positive")
    return build_fiber(cfg, d_um=cfg["grids"][key])


@_section("grids")
def build_lateral_probe(cfg: dict) -> tuple[FiberSpec, float, np.ndarray]:
    """Fiber, surface gap (nm) and lateral offsets (um) of the lateral sweep."""
    g = cfg["grids"]
    gap_nm, span = g["lateral_gap_nm"], g["dx_span_um"]
    if not 0.0 <= gap_nm < np.inf:
        raise ConfigError(f"config 'grids.lateral_gap_nm' must be finite and >= 0, got {gap_nm}")
    n = g["dx_points"]
    _check_points(n, "'grids.dx_points'")
    if n < 5 or not 0.0 < span < np.inf:
        raise ConfigError("lateral sweep needs a finite span > 0 and >= 5 points")
    n += 1 - n % 2  # odd: dx = 0 on the grid and the sweep symmetric
    return build_sweep_fiber(cfg, "lateral_d_um"), gap_nm, np.linspace(-span, span, n)
