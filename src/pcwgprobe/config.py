"""Run configuration: YAML document with documented defaults.

Sections ``fiber``, ``slab``, ``lattice``, ``coupler``, ``grids``,
``io``; every physical quantity carries its unit in the key name.
Unknown keys are rejected; missing keys fall back to the defaults
below (echo the merged result with --print-effective-config).
"""

from __future__ import annotations

import copy
import hashlib
import json

import yaml

from .bands import DispersiveIndex, PCWaveguideSpec
from .coupling import (
    D_KAPPA_UM,
    D_REF_UM,
    G_REF_NM,
    KAPPA_REF_L,
    CouplerConfig,
)
from .errors import ConfigError
from .fiber import FiberSpec, TaperProfile
from .slab import DEFAULT_EFFECTIVE_HOLE_FILL, SlabSpec, slab_effective_index

import numpy as np

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
        "effective_hole_fill": DEFAULT_EFFECTIVE_HOLE_FILL,
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
        "kappa_ref_l": KAPPA_REF_L,
        "g_ref_nm": G_REF_NM,
        "d_ref_um": D_REF_UM,
        "d_kappa_um": D_KAPPA_UM,
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


def _merge_validate(defaults: dict, user: dict, path: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        here = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {here!r}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{here!r} must be a mapping")
            merged[key] = _merge_validate(defaults[key], value, here)
        else:
            merged[key] = value
    return merged


def load_config(path=None) -> dict:
    """Load a YAML config and merge it over the defaults."""
    if path is None:
        return copy.deepcopy(DEFAULTS)
    try:
        with open(path) as fh:
            user = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError(f"{path}: top level must be a mapping of sections")
    return _merge_validate(DEFAULTS, user)


def effective_config_yaml(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=True, default_flow_style=False)


# Bump whenever the bands a config yields change: older caches are then not read.
BANDS_CACHE_VERSION = 3


def bands_cache_key(cfg: dict) -> str:
    """Stable short hash of everything the cached bands depend on."""
    payload = {"version": BANDS_CACHE_VERSION, "slab": cfg["slab"], "lattice": cfg["lattice"]}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


# -- typed builders ----------------------------------------------------------

# Most points of any one grid: far above every default (at most 241), far
# below a grid whose arrays no longer fit in memory.
MAX_GRID_POINTS = 100_000
# Most cells of the transmission map (taper positions x wavelengths): far
# above the default 12,050, small enough that each map array (80 MB) fits.
MAX_MAP_CELLS = 10_000_000


def _check_points(count: float, keys: str) -> None:
    """ConfigError naming ``keys`` unless ``count`` is at most MAX_GRID_POINTS."""
    if not count <= MAX_GRID_POINTS:
        raise ConfigError(f"config {keys}: {count:.3g} grid points, over {MAX_GRID_POINTS}")


def switch(cfg: dict, section: str, key: str) -> bool:
    """The on/off value of ``section.key``: a YAML boolean, else ConfigError."""
    value = cfg[section][key]
    if not isinstance(value, bool):
        raise ConfigError(f"config '{section}.{key}' must be true or false, got {value!r}")
    return value


def _count(cfg: dict, section: str, key: str) -> int:
    """The whole number at ``section.key``: an integer, or a float with an
    integral value; a boolean, a string or a fraction is a ConfigError."""
    value = cfg[section][key]
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"config '{section}.{key}' must be a whole number, got {value!r}")
    return int(value)


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
    f = cfg["fiber"]
    return FiberSpec(
        d_um=float(d_um if d_um is not None else f["d_um"]),
        core_index=None if f["core_index"] is None else float(f["core_index"]),
        clad_index=float(f["clad_index"]),
    )


@_section("fiber")
def build_taper(cfg: dict) -> TaperProfile:
    f = cfg["fiber"]
    if f["taper_csv"]:
        return TaperProfile.from_csv(f["taper_csv"])
    return TaperProfile.exponential(float(f["taper_waist_um"]), float(f["taper_pull_mm"]))


@_section("slab")
def build_slab(cfg: dict) -> SlabSpec:
    s = cfg["slab"]
    return SlabSpec(
        t_nm=float(s["t_nm"]),
        n_slab=float(s["n_si"]),
        n_clad=float(s["n_clad"]),
        effective_hole_fill=float(s["effective_hole_fill"]),
    )


@_section("lattice")
def build_lattice(cfg: dict):
    """PCWaveguideSpec plus the dispersive-index handle (or None)."""
    lat = cfg["lattice"]
    slab = build_slab(cfg)
    lam_ref = float(lat["lam_ref_um"])
    dispersive_on = switch(cfg, "lattice", "dispersive")
    if lat["n_eff_override"] is not None:
        n_eff = float(lat["n_eff_override"])
        dispersive = None
    else:
        n_eff = slab_effective_index(slab, lam_ref, 0)
        dispersive = DispersiveIndex(slab, lam_ref) if dispersive_on else None
    spec = PCWaveguideSpec(
        lam_z_nm=float(lat["lam_z_nm"]),
        lam_x_nm=float(lat["lam_x_nm"]),
        r_frac=float(lat["r_frac"]),
        grading=tuple(float(v) for v in lat["grading"]),
        supercell_rows=_count(cfg, "lattice", "supercell_rows"),
        n_eff=float(n_eff),
        pw_per_cell=_count(cfg, "lattice", "pw_per_cell"),
    )
    return spec, dispersive


@_section("lattice")
def build_kpath(cfg: dict):
    lat = cfg["lattice"]
    n = _count(cfg, "lattice", "k_points")
    _check_points(n, "'lattice.k_points'")
    return np.linspace(float(lat["k_start"]), float(lat["k_stop"]), n)


@_section("coupler")
def build_coupler(cfg: dict) -> CouplerConfig:
    c = cfg["coupler"]
    return CouplerConfig(
        gap_nm=float(c["gap_nm"]),
        l_c_um=float(c["l_c_um"]),
        kappa_ref_l=float(c["kappa_ref_l"]),
        g_ref_nm=float(c["g_ref_nm"]),
        d_ref_um=float(c["d_ref_um"]),
        d_kappa_um=float(c["d_kappa_um"]),
        g0_nm=None if c["g0_nm"] is None else float(c["g0_nm"]),
        scatter_loss_ref=float(c["scatter_loss_ref"]),
        scatter_g_scale_nm=float(c["scatter_g_scale_nm"]),
        scatter_d_scale_um=float(c["scatter_d_scale_um"]),
    )


@_section("grids")
def build_lambda_grid(cfg: dict) -> np.ndarray:
    g = cfg["grids"]
    start, stop, step = (
        float(g["lambda_start_nm"]),
        float(g["lambda_stop_nm"]),
        float(g["lambda_step_nm"]),
    )
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
    n = _count(cfg, "grids", "lc_points")
    _check_points(n, "'grids.lc_points'")
    if n < 1 or float(g["lc_stop_mm"]) <= float(g["lc_start_mm"]):
        raise ConfigError("empty taper-position grid")
    return np.linspace(float(g["lc_start_mm"]), float(g["lc_stop_mm"]), n)


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


@_section("grids")
def build_noise_sigma(cfg: dict) -> float:
    """Relative noise of a synthesized map: finite and >= 0."""
    sigma = cfg["grids"]["noise_sigma"]
    if isinstance(sigma, bool) or not isinstance(sigma, (int, float)) or not 0 <= sigma < np.inf:
        raise ConfigError(f"config 'grids.noise_sigma' must be a finite number >= 0, "
                          f"got {sigma!r}")
    return float(sigma)


@_section("grids")
def build_gap_grid(cfg: dict) -> np.ndarray:
    g = cfg["grids"]
    start, stop, step = (float(g[k]) for k in ("gap_start_nm", "gap_stop_nm", "gap_step_nm"))
    if step <= 0 or stop <= start:
        raise ConfigError("empty gap grid")
    _check_points((stop - start) / step + 1, "'grids.gap_start_nm/stop_nm/step_nm'")
    return np.arange(start, stop + 1e-9, step)


@_section("grids")
def build_sweep_fiber(cfg: dict, key: str) -> FiberSpec:
    """The fiber at the sweep diameter ``grids.<key>`` (um)."""
    if not float(cfg["grids"][key]) > 0:
        raise ConfigError(f"config 'grids.{key}': fiber diameter must be positive")
    return build_fiber(cfg, d_um=cfg["grids"][key])


@_section("grids")
def build_lateral_probe(cfg: dict) -> tuple[FiberSpec, float, np.ndarray]:
    """Fiber, surface gap (nm) and lateral offsets (um) of the lateral sweep."""
    g = cfg["grids"]
    gap_nm, span = float(g["lateral_gap_nm"]), float(g["dx_span_um"])
    if not 0.0 <= gap_nm < np.inf:
        raise ConfigError(f"config 'grids.lateral_gap_nm' must be finite and >= 0, got {gap_nm}")
    n = _count(cfg, "grids", "dx_points")
    _check_points(n, "'grids.dx_points'")
    if n < 5 or not 0.0 < span < np.inf:
        raise ConfigError("lateral sweep needs a finite span > 0 and >= 5 points")
    n += 1 - n % 2  # odd: dx = 0 on the grid and the sweep symmetric
    return build_sweep_fiber(cfg, "lateral_d_um"), gap_nm, np.linspace(-span, span, n)
