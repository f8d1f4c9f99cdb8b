"""Command-line front end.

Subcommands: fiber (taper dispersion CSV), bands (waveguide bandstructure
JSON + gap report), couple (gap sweep / lateral profile data), map
(transmission-map synthesis and analysis).  All output is plot-ready
CSV/JSON written atomically under --out.

Exit codes: 0 success, 2 input/config error, 3 computation failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .bands import (
    BandCurve,
    defect_profile,
    phase_match_crossing,
    thinning_shift,
    waveguide_bands,
)
from .coupling import lateral_profile, WaveguideProfile
from .errors import ConfigError, MapFormatError, PcwgProbeError, ProfileRangeError
from .fiber import ModeField, TaperProfile, neff_and_dbeta_dd
from .pipeline import (
    TransmissionMap,
    atomic_write,
    extract_resonances,
    gap_sweep,
    label_branches,
    synthesize_map,
    to_bandstructure,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3


def _write_csv(path: Path, header: str, rows):
    lines = [header]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")


def _write_json(path: Path, payload):
    atomic_write(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


# -- bands computation with on-disk cache ------------------------------------


def _bands_payload(cfg):
    spec, dispersive = cfgmod.build_lattice(cfg)
    res = waveguide_bands(spec, kpath_norm=cfgmod.build_kpath(cfg), dispersive=dispersive)
    return {
        "lam_z_nm": spec.lam_z_nm,
        "n_eff": spec.n_eff,
        "gap_norm": list(res.gap_norm) if res.gap_norm else None,
        "curves": [c.to_dict() for c in res.curves],
    }


def _bands_cached(cfg, out_dir: Path, use_cache: bool):
    key = cfgmod.bands_cache_key(cfg)
    cache_file = out_dir / ".cache" / f"bands_{key}.json"
    if use_cache and cache_file.exists():
        payload = _read_cache(cache_file)
        if payload is not None:
            return payload
        print(f"bands cache {cache_file} is corrupt; recomputing", file=sys.stderr)
    payload = _bands_payload(cfg)
    if use_cache:
        atomic_write(cache_file, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _read_cache(cache_file: Path):
    """The cached bands payload, or None if the file does not hold one."""
    try:
        payload = json.loads(cache_file.read_text())
    except (OSError, ValueError):
        return None
    keys = {"lam_z_nm", "n_eff", "gap_norm", "curves"}
    return payload if isinstance(payload, dict) and keys <= payload.keys() else None


def _curves_from_payload(payload):
    lam_z_um = payload["lam_z_nm"] * 1e-3
    return [BandCurve.from_dict(d, lam_z_um) for d in payload["curves"]]


def _te1(curves):
    """The TE-1 curve; PcwgProbeError if the bands hold none."""
    te1 = next((c for c in curves if c.label == "TE-1"), None)
    if te1 is None:
        raise PcwgProbeError("bands contain no TE-1 branch")
    return te1


# -- subcommands --------------------------------------------------------------


def cmd_fiber(cfg, args, out_dir: Path) -> int:
    lam_nm = cfgmod.build_lambda_grid(cfg)
    if args.profile:
        if args.lc_mm is None:
            raise ConfigError("--profile needs --lc-mm to pick the position")
        try:
            taper = TaperProfile.from_csv(args.profile)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"taper profile: {exc}") from exc
        d_um = float(taper.diameter_at(args.lc_mm))
    else:
        d_um = args.d_um if args.d_um is not None else cfg["fiber"]["d_um"]
    fiber = cfgmod.build_fiber(cfg, d_um=d_um)

    lam_um = lam_nm * 1e-3
    neff, sens = neff_and_dbeta_dd(fiber, lam_um)
    beta = 2.0 * np.pi * neff / lam_um
    d_um = np.full(lam_nm.shape, fiber.d_um)
    _write_csv(
        out_dir / "fiber_dispersion.csv",
        "lambda_nm,d_um,n_eff,beta_rad_per_um,dbeta_dd_omega_over_c_per_um",
        zip(lam_nm, d_um, neff, beta, sens),
    )
    return EXIT_OK


def cmd_bands(cfg, args, out_dir: Path, use_cache: bool) -> int:
    if args.thinned is not None and not (np.isfinite(args.thinned) and args.thinned > 0):
        raise ConfigError(f"--thinned T_NM must be a finite thickness > 0 nm, got {args.thinned}")
    payload = _bands_cached(cfg, out_dir, use_cache)
    curves = _curves_from_payload(payload)
    fiber = cfgmod.build_fiber(cfg)
    try:
        pm = phase_match_crossing(_te1(curves), fiber)
        payload["phase_match"] = {
            "fiber_d_um": fiber.d_um,
            "lambda_nm": pm.lambda_nm,
            "beta_rad_per_um": pm.beta_rad_per_um,
            "n_g_branch": pm.n_g_branch,
        }
        print(
            f"TE-1 crosses the d={fiber.d_um} um fiber curve at "
            f"{pm.lambda_nm:.1f} nm (n_g = {pm.n_g_branch:.2f})"
        )
    except PcwgProbeError as exc:
        payload["phase_match"] = None
        print(f"no phase match: {exc}", file=sys.stderr)
    if payload["gap_norm"]:
        lo, hi = payload["gap_norm"]
        print(f"Gamma-X stop band (L_z/lambda): {lo:.4f} - {hi:.4f}")

    if args.thinned is not None:
        spec, _ = cfgmod.build_lattice(cfg)
        lam_ref_um = float(cfg["lattice"]["lam_ref_um"])
        shift = thinning_shift(spec, cfgmod.build_slab(cfg), float(args.thinned), lam_ref_um)
        payload["thinning"] = {
            "t_thin_nm": float(args.thinned),
            "d_omega_norm": shift.d_omega_norm,
        }
        for label, val in sorted(shift.d_omega_norm.items()):
            print(f"thinning shift {label}: {val:+.5f} (L_z/lambda)")

    _write_json(out_dir / "bands.json", payload)
    return EXIT_OK


def cmd_couple(cfg, args, out_dir: Path, use_cache: bool) -> int:
    # every input is checked before the bands solve
    coupler = cfgmod.build_coupler(cfg)
    if args.sweep == "gap":
        fiber, gaps_nm = cfgmod.build_sweep_fiber(cfg, "gap_sweep_d_um"), cfgmod.build_gap_grid(cfg)
        include_loss = cfgmod.switch(cfg, "coupler", "include_loss")
    else:
        fiber, gap_nm, dx_um = cfgmod.build_lateral_probe(cfg)
        spec, _ = cfgmod.build_lattice(cfg)
    payload = _bands_cached(cfg, out_dir, use_cache)
    te1 = _te1(_curves_from_payload(payload))

    if args.sweep == "gap":
        rows = gap_sweep(gaps_nm, coupler, fiber, te1, include_loss=include_loss)
        _write_csv(
            out_dir / "gap_sweep.csv",
            "gap_nm,t_min,t_max,gamma,kappa_l",
            [(r.gap_nm, r.t_min, r.t_max, r.gamma, r.kappa_l) for r in rows],
        )
        best = max(rows, key=lambda r: r.gamma)
        print(f"max ideality Gamma = {best.gamma:.4f} at g = {best.gap_nm:.0f} nm")
        return EXIT_OK

    # lateral sweep at the near-field probe geometry
    pm = phase_match_crossing(te1, fiber)
    beta_norm = pm.beta_rad_per_um * spec.lam_z_um / (2.0 * np.pi)
    x, u = defect_profile(spec, te1, beta_norm)
    wg = WaveguideProfile(
        x_um=x,
        u=u,
        beta_rad_per_um=pm.beta_rad_per_um,
        lam_um=pm.lambda_nm * 1e-3,
        slab_t_um=cfg["slab"]["t_nm"] * 1e-3,
        eps_bg=spec.n_eff**2,
    )
    mode = ModeField(fiber, pm.lambda_nm * 1e-3)
    result = lateral_profile(
        mode,
        wg,
        gap_nm,
        coupler.l_c_um,
        dx_um,
        kappa_at_center=coupler.kappa_perp(fiber, pm.lambda_nm * 1e-3, gap_nm),
    )
    _write_csv(
        out_dir / "lateral_profile.csv",
        "dx_um,one_minus_tmin",
        list(zip(result.dx_um, result.one_minus_tmin)),
    )
    _write_csv(
        out_dir / "lateral_kappa.csv",
        "dx_um,kappa_per_um",
        list(zip(result.dx_um, result.kappa_per_um)),
    )
    _write_json(
        out_dir / "lateral_summary.json",
        {
            "fwhm_um": result.fwhm_um,
            "gap_nm": gap_nm,
            "d_um": fiber.d_um,
            "lambda_nm": pm.lambda_nm,
        },
    )
    print(f"lateral FWHM of 1-T_min: {result.fwhm_um:.3f} um")
    return EXIT_OK


def cmd_map(cfg, args, out_dir: Path, use_cache: bool, seed) -> int:
    if args.mode == "synth":
        lam_nm, lc_mm = cfgmod.build_map_grids(cfg)
        include_loss = cfgmod.switch(cfg, "coupler", "include_loss")
        noise_sigma = cfgmod.build_noise_sigma(cfg)
        payload = _bands_cached(cfg, out_dir, use_cache)
        te1 = _te1(_curves_from_payload(payload))
        taper = cfgmod.build_taper(cfg)
        coupler = cfgmod.build_coupler(cfg)
        fiber = cfgmod.build_fiber(cfg)
        tmap = synthesize_map(
            taper,
            [te1],
            coupler,
            fiber,
            lam_nm,
            lc_mm,
            include_loss=include_loss,
            noise_sigma=noise_sigma,
            seed=seed,
        )
        map_path = out_dir / "map.csv"
        tmap.to_csv(map_path, meta_path=out_dir / "map.meta.json")
        print(f"wrote {map_path}")
        print(f"wrote {out_dir / 'map.meta.json'}")
        return EXIT_OK

    # analyze
    if args.input is None:
        raise ConfigError("map analyze needs --in PATH")
    meta_path = Path(args.input).with_suffix("").with_suffix(".meta.json")
    tmap = TransmissionMap.from_csv(
        args.input, meta_path=meta_path if meta_path.exists() else None
    )
    taper = cfgmod.build_taper(cfg)
    fiber = cfgmod.build_fiber(cfg)
    points = extract_resonances(tmap)
    label_branches(points, taper)
    bandpoints = to_bandstructure(points, taper, fiber)
    _write_json(out_dir / "resonances.json", [p.to_dict() for p in points])
    _write_json(out_dir / "bandpoints.json", [b.to_dict() for b in bandpoints])
    print(f"found {len(points)} resonance points")
    return EXIT_OK


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcwgprobe",
        description="Fiber-taper probing of photonic-crystal waveguides: "
        "bandstructures, coupled-mode spectra, transmission maps.",
    )
    parser.add_argument("--config", metavar="PATH", help="YAML run configuration")
    parser.add_argument("--out", metavar="DIR", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="noise seed")
    parser.add_argument("--no-cache", action="store_true", help="bypass the disk cache")
    parser.add_argument(
        "--print-effective-config",
        action="store_true",
        help="echo the merged configuration before running",
    )
    sub = parser.add_subparsers(dest="command")

    p_fiber = sub.add_parser("fiber", help="taper dispersion CSV")
    p_fiber.add_argument("--d-um", type=float, default=None, help="fiber diameter")
    p_fiber.add_argument("--profile", metavar="CSV", help="taper profile table")
    p_fiber.add_argument("--lc-mm", type=float, default=None, help="position on profile")

    p_bands = sub.add_parser("bands", help="bandstructure JSON + gap report")
    p_bands.add_argument(
        "--thinned", type=float, default=None, metavar="T_NM",
        help="also report shifts for a thinned membrane",
    )

    p_couple = sub.add_parser("couple", help="gap sweep / lateral profile")
    p_couple.add_argument("--sweep", choices=("gap", "lateral"), default="gap")

    p_map = sub.add_parser("map", help="transmission map synth/analyze")
    p_map.add_argument("mode", choices=("synth", "analyze"))
    p_map.add_argument("--in", dest="input", metavar="CSV", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        cfg = cfgmod.load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if args.print_effective_config:
        print(cfgmod.effective_config_yaml(cfg), end="")
    if args.command is None:
        if args.print_effective_config:
            return EXIT_OK
        parser.print_usage(sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out if args.out is not None else cfg["io"]["out_dir"])

    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        use_cache = cfgmod.switch(cfg, "io", "cache") and not args.no_cache
        if args.command == "fiber":
            return cmd_fiber(cfg, args, out_dir)
        if args.command == "bands":
            return cmd_bands(cfg, args, out_dir, use_cache)
        if args.command == "couple":
            return cmd_couple(cfg, args, out_dir, use_cache)
        if args.command == "map":
            return cmd_map(cfg, args, out_dir, use_cache, args.seed)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, MapFormatError, ProfileRangeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PcwgProbeError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    raise SystemExit(main())
