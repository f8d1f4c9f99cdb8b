"""pcwgprobe benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; it works on the source tree it sits in (``src/``),
and writes only under ``.perfbench_work/`` of that tree: a per-run
directory it removes again, and the warm bands cache it keeps for the
next run.  Workloads: bands_cold, map_roundtrip, probe_sweeps (see
perfbench/README.md for why each exists).

A run has a set-up phase and a measured phase:

* set-up: warm workloads get their bands cache from the program's own
  ``pcwgprobe bands`` command, run once per checkout and source digest.
  ``setup_s`` is then the median of SETUP_REPEATS fresh
  ``python -m pcwgprobe.cli`` processes that do what every CLI call pays
  before its work: interpreter start, import, config load and, on warm
  workloads, the cache read of a warm ``bands``.
* measured: worker.py, in a process of its own, runs passes of the
  workload's commands in-process and checks their outputs.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (wall_s, setup_s, peak_rss_mb,
ok_frac); with ``--trace 1`` the per-layer ones from a traced pass.
The line before it records the environment.  Exit code 0 means a
result was printed; anything that prevents one (no source tree, a
crash, the time limit) exits 1 without printing it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("bands_cold", "map_roundtrip", "probe_sweeps")
WARM = ("map_roundtrip", "probe_sweeps")
SETUP_REPEATS = 7
TIME_LIMIT_S = 170.0


class RunError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def run_child(cmd, deadline, stdout=subprocess.DEVNULL):
    """Run a child process to completion within the run's deadline."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("time limit reached before " + " ".join(map(str, cmd)))
    try:
        proc = subprocess.run(
            [str(c) for c in cmd], cwd=ROOT, env=child_env(), stdout=stdout,
            stderr=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"time limit reached in {' '.join(map(str, cmd))}") from exc
    if proc.returncode != 0:
        raise RunError(
            f"{' '.join(map(str, cmd))} exited {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return proc


def cli_cmd(*args):
    return [sys.executable, "-m", "pcwgprobe.cli", *args]


def warm_cache(deadline) -> Path:
    """Output directory of a `pcwgprobe bands` run on this source tree.

    Built once per checkout by the program's own command and shared by
    the warm runs made in it; the directory name carries a digest of the
    source, so a changed program never reads another program's cache.
    """
    shared = WORK / f"warm-{source_digest()}"
    if (shared / "bands.json").is_file():
        return shared
    tmp = WORK / f"warm-build-{os.getpid()}"
    try:
        run_child(cli_cmd("--out", tmp, "bands"), deadline)
        if not any((tmp / ".cache").glob("bands_*.json")):
            raise RunError("`pcwgprobe bands` left no bands cache to warm the workload")
        try:
            os.rename(tmp, shared)
        except OSError:  # another run finished the same build first
            pass
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return shared


def setup(workload, work: Path, deadline, repeat: int):
    """Give warm workloads their cache; return fresh-process set-up times."""
    warm = work / "warm"
    if workload in WARM:
        shutil.copytree(warm_cache(deadline), warm)
        probe = cli_cmd("--out", warm, "bands")
    else:
        probe = cli_cmd("--print-effective-config")
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        run_child(probe, deadline)
        times.append(time.perf_counter() - t0)
    return times


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "pcwgprobe").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pcwgprobe benchmark, one run")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pcwgprobe" / "cli.py").is_file():
        print(f"no pcwgprobe source tree at {SRC}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + TIME_LIMIT_S
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        setup_times = setup(
            args.workload, work, deadline, 0 if args.trace else SETUP_REPEATS
        )
        result_file = work / "result.json"
        run_child(
            [sys.executable, HERE / "worker.py", "--workload", args.workload,
             "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace,
             "--work", work, "--result", result_file],
            deadline, stdout=sys.stderr,
        )
        result = json.loads(result_file.read_text())
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in result["errors"][:20]:
        print(f"check failed: {error}", file=sys.stderr)
    env = dict(result["env"], commit=git_commit(), src_sha256=source_digest(),
               workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace)
    if args.trace:
        # A hook that failed leaves its computed count short; the program's
        # outputs are unaffected, so this is not a failed operation.
        for error in result["tracer_errors"]:
            print(f"tracer error: {error}", file=sys.stderr)
        env["tracer_errors"] = len(result["tracer_errors"])
        metrics = result["metrics"]
    else:
        env["pass_wall_s"] = result["pass_wall_s"]
        env["setup_runs_s"] = setup_times
        metrics = {
            "wall_s": {"value": statistics.median(result["pass_wall_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {
                "value": 1.0 - result["failed"] / result["attempted"], "unit": "frac"
            },
        }
    print(json.dumps({"env": env}))
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
