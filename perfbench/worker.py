"""Runs one pcwgprobe benchmark workload in-process.

Started by run.py in a process of its own, so its peak resident memory
is the workload's.  It calls the real ``pcwgprobe.cli.main`` for each
command of a pass, checks every command's outputs, and writes its
measurements as JSON to ``--result``.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --work DIR --result FILE

For a warm workload ``--work`` holds ``warm/``, the output directory of
the set-up ``pcwgprobe bands`` run with its bands cache; every pass
starts from a copy of that cache.

With ``--trace 0`` it repeats passes while another pass, as long as the
last one, still ends within ``--seconds``; it always makes at least one.
With ``--trace 1`` it runs one untraced and one traced pass with the
same seed, requires byte-identical outputs from the two, and reports
per-layer self times and counts from the traced pass.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import pcwgprobe  # noqa: E402

if not Path(pcwgprobe.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"pcwgprobe imported from {pcwgprobe.__file__}, not {SRC}")

from pcwgprobe import cli  # noqa: E402
from pcwgprobe.fiber import GuidedModePoint, characteristic_residual  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, wrapper_cost_s  # noqa: E402

LOCALIZATION_THRESHOLD = 0.5  # waveguide_bands' default acceptance threshold
CLI_COMMANDS = list(dict.fromkeys(
    c.label for name in workloads.NAMES for c in workloads.commands(name, Path("."))
))


# -- hooks: counts computed at the span boundaries ------------------------------
# Each hook gets the call's arguments by parameter name (see Tracer).


def _on_solve_k(tracer, a, result):
    tracer.count("bands.solve_k.n3_sum", a["self"].n_pw ** 3)


def _on_localization(tracer, a, result):
    tracer.count("bands.localization.accepted", int(result > LOCALIZATION_THRESHOLD))


def _on_dispersion_curve(tracer, a, result):
    lam = _ravel(a["lam_um"])
    tracer.count("fiber.dispersion_curve.points", lam.size)
    tracer.kept.append((a["spec"], lam, _ravel(result)))


def _on_fundamental_neff(tracer, a, result):
    tracer.kept.append((a["spec"], [result.wavelength_um], [result.n_eff]))


def _on_extract_resonances(tracer, a, result):
    tracer.count("pipeline.extract_resonances.points", len(result))


def _on_label_branches(tracer, a, result):
    tracer.count("pipeline.label_branches.points", len(result))
    tracer.count(
        "pipeline.label_branches.labeled",
        sum(1 for p in result if p.label != "unassigned"),
    )


def _ravel(values):
    return np.asarray(values, dtype=float).ravel()


def full_tracer():
    return Tracer(hooks={
        "bands.solve_k": _on_solve_k,
        "bands.localization": _on_localization,
        "fiber.dispersion_curve": _on_dispersion_curve,
        "fiber.fundamental_neff": _on_fundamental_neff,
        "pipeline.extract_resonances": _on_extract_resonances,
        "pipeline.label_branches": _on_label_branches,
    })


# -- one pass ---------------------------------------------------------------------


def run_command(argv, label, tracer):
    """Run one CLI command in-process; returns (seconds, cpu_seconds, error)."""
    sink = io.StringIO()
    error = None
    cpu0 = os.times()
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.active = True
        tracer.open(f"cli.{label}")
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        if code != 0:
            error = f"exit code {code}"
    except (Exception, SystemExit) as exc:  # a traceback is a failed command
        error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.close()
            tracer.active = False
    seconds = time.perf_counter() - t0
    cpu1 = os.times()
    cpu = (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)
    return seconds, cpu, error


def cache_state(out_dir: Path) -> dict:
    """Identity of each bands cache file: a rewrite changes it."""
    cache = out_dir / ".cache"
    if not cache.is_dir():
        return {}
    return {
        p.name: (st.st_ino, st.st_mtime_ns, st.st_size)
        for p in cache.iterdir() for st in [p.stat()]
    }


def run_check(cmd, out_dir, ctx) -> list:
    try:
        return cmd.check(out_dir, ctx)
    except Exception as exc:  # missing or malformed output: a failed operation
        return [f"output check raised {type(exc).__name__}: {exc}"]


def run_pass(name, seed, pass_dir: Path, warm_dir, ctx, tracer):
    """One pass through the workload's commands, each checked after it runs.

    Only the commands are timed; copying the warm cache in and checking
    outputs are not.
    """
    if pass_dir.exists():
        shutil.rmtree(pass_dir)
    pass_dir.mkdir(parents=True)
    if warm_dir is not None:
        shutil.copytree(warm_dir / ".cache", pass_dir / ".cache")
    gc.collect()  # start each pass from a collected heap, as a fresh CLI process does
    out = {"wall_s": 0.0, "cpu_s": 0.0, "attempted": 0, "failed": 0, "errors": [],
           "cache_used": 0, "cache_hit": 0}
    for cmd in workloads.commands(name, pass_dir):
        out_dir = pass_dir / cmd.subdir
        argv = ["--out", str(out_dir), "--seed", str(seed)] + cmd.argv
        before = cache_state(out_dir)
        seconds, cpu, error = run_command(argv, cmd.label, tracer)
        out["wall_s"] += seconds
        out["cpu_s"] += cpu
        out["attempted"] += 1
        # A miss computes the bands and writes them to the cache; a command
        # that leaves no cache file behind did not use one either.
        after = cache_state(out_dir)
        missed = cmd.cache and (after != before or not after)
        if cmd.cache:
            out["cache_used"] += 1
            out["cache_hit"] += int(not missed)
        errors = [error] if error else run_check(cmd, out_dir, ctx)
        if missed and warm_dir is not None:
            errors.append("bands cache miss on a warm workload")
        if errors:
            out["failed"] += 1
            out["errors"].extend(f"{cmd.label}: {e}" for e in errors)
    return out


def same_outputs(a: Path, b: Path) -> list:
    """Relative paths whose bytes differ between two output trees."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diff = sorted(str(p) for p in files_a ^ files_b)
    for rel in sorted(files_a & files_b):
        if (a / rel).read_bytes() != (b / rel).read_bytes():
            diff.append(str(rel))
    return diff


def max_rel_residual(roots) -> float:
    worst = 0.0
    for spec, lams, neffs in roots:
        for lam, n in zip(lams, neffs):
            point = GuidedModePoint(wavelength_um=float(lam), n_eff=float(n))
            worst = max(worst, characteristic_residual(spec, point))
    return worst


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    threads = {}
    for path in sorted(p for p in libs if p.endswith(".so")):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads


def environment() -> dict:
    blas = {}
    for module in (np, scipy):
        dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas[module.__name__] = f"{dep.get('name')} {dep.get('version')}"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# -- modes ------------------------------------------------------------------------


def measure(name, seed, seconds, work: Path, warm_dir, ctx):
    passes = []
    start = time.perf_counter()
    last = 0.0
    while not passes or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        passes.append(run_pass(name, seed, work / "pass", warm_dir, ctx, None))
        last = time.perf_counter() - t0
    return {
        "pass_wall_s": [p["wall_s"] for p in passes],
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "errors": [e for p in passes for e in p["errors"]],
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_metrics(tracer, traced, untraced) -> dict:
    m = {}
    for span, _, _ in TARGETS:
        m[f"{span}.calls"] = (tracer.calls(span), "count")
        m[f"{span}.self_s"] = (tracer.self_s(span), "s")
    c = tracer.counters
    m["bands.solve_k.n3_sum"] = (c.get("bands.solve_k.n3_sum", 0), "computed")
    n_loc = tracer.calls("bands.localization")
    m["bands.localization.accept_frac"] = (
        c.get("bands.localization.accepted", 0) / n_loc if n_loc else 0.0, "frac")
    m["fiber.dispersion_curve.points"] = (c.get("fiber.dispersion_curve.points", 0), "count")
    m["fiber.max_rel_residual"] = (max_rel_residual(tracer.kept), "ratio")
    m["pipeline.extract_resonances.points"] = (
        c.get("pipeline.extract_resonances.points", 0), "count")
    n_lab = c.get("pipeline.label_branches.points", 0)
    m["pipeline.labeled_frac"] = (
        c.get("pipeline.label_branches.labeled", 0) / n_lab if n_lab else 0.0, "frac")
    cli_self = 0.0
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = (tracer.stats.get(f"cli.{cmd}", (0, 0.0, 0.0))[1], "s")
        cli_self += tracer.self_s(f"cli.{cmd}")
    m["cli.self_s"] = (cli_self, "s")
    m["cli.cache_hit_frac"] = (
        traced["cache_hit"] / traced["cache_used"] if traced["cache_used"] else 0.0, "frac")
    m["cli.cpu_s"] = (untraced["cpu_s"], "s")
    m["trace.wall_s"] = (traced["wall_s"], "s")
    m["trace.untraced_wall_s"] = (untraced["wall_s"], "s")
    overhead_s = tracer.total_calls() * wrapper_cost_s()
    m["trace.overhead_frac"] = (overhead_s / traced["wall_s"], "frac")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def trace(name, seed, work: Path, warm_dir, ctx):
    untraced = run_pass(name, seed, work / "untraced", warm_dir, ctx, None)
    tracer = full_tracer()
    tracer.install()
    traced = run_pass(name, seed, work / "traced", warm_dir, ctx, tracer)
    tracer.uninstall()
    errors = untraced["errors"] + traced["errors"]
    failed = untraced["failed"] + traced["failed"]
    diff = same_outputs(work / "untraced", work / "traced")
    if diff:
        errors.append(f"traced and untraced outputs differ: {diff}")
        failed += 1
    # A program that stops using the cache altogether leaves the cache files
    # as they were; on a warm workload the span count still shows it.
    if warm_dir is not None and tracer.calls("bands.waveguide_bands"):
        errors.append("waveguide_bands ran on a warm workload")
        failed += 1
    return {
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": failed,
        "errors": errors,
        "tracer_errors": tracer.errors,
        "metrics": layer_metrics(tracer, traced, untraced),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    warm_dir = args.work / "warm" if (args.work / "warm").is_dir() else None
    ctx = workloads.Context(warm_dir / "bands.json" if warm_dir is not None else None)
    if args.trace:
        result = trace(args.workload, args.seed, args.work, warm_dir, ctx)
    else:
        result = measure(args.workload, args.seed, args.seconds, args.work, warm_dir, ctx)
    result["env"] = environment()
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
