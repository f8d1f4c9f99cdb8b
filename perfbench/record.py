"""Repeat the benchmark over seeds and summarize each end-to-end metric.

    python3 perfbench/record.py [--append LABEL]

For each workload of BENCHMARK.json it runs ``perfbench/run.py`` once
per seed (seeds 1..RUNS, workloads interleaved within a seed), and
prints per metric the median, the quartiles from
``statistics.quantiles(values, n=4)``, and the spread (q3 - q1) / median
next to the metric's bound.  With ``--append`` it also makes one traced
run per workload and appends the summary, the per-layer metrics and the
environment to perfbench/trajectory.json as a trajectory point named
LABEL.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
FIRST_SEED = 1


def run_once(bench, workload, seed, trace):
    cmd = list(bench["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "n": len(values),
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--append", metavar="LABEL")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in names}
    env = None
    for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
        for workload in names:
            env, result = run_once(bench, workload, seed, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: outputs failed their checks", file=sys.stderr)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            passes = " ".join(f"{v:.3f}" for v in env["pass_wall_s"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f"  passes [{passes}]", flush=True)

    summary = {}
    for workload in names:
        summary[workload] = {}
        for name, vals in values[workload].items():
            s = summarize(vals)
            summary[workload][name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:14s} {name:12s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['spread']:.4f}  bound {bounds[name]}{flag}")

    if args.append:
        layers = {}
        for workload in names:
            _, result = run_once(bench, workload, FIRST_SEED, 1)
            if not result["correct"]:
                print(f"{workload} traced run: outputs failed their checks", file=sys.stderr)
            layers[workload] = {k: v["value"] for k, v in result["metrics"].items()}
        path = HERE / "trajectory.json"
        points = json.loads(path.read_text()) if path.exists() else []
        env = {k: v for k, v in env.items()
               if k not in ("workload", "seed", "pass_wall_s", "setup_runs_s", "trace")}
        points.append({
            "label": args.append,
            "date": datetime.date.today().isoformat(),
            "env": env,
            "seeds": [FIRST_SEED, FIRST_SEED + RUNS - 1],
            "run_seconds": bench["run_seconds"],
            "end_to_end": summary,
            "per_layer": layers,
        })
        path.write_text(json.dumps(points, indent=1) + "\n")
        print(f"appended trajectory point {args.append!r} to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
