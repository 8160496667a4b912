"""Measure every workload over several seeds and record the baseline.

    python3 perfbench/record_baseline.py --seeds 10 --out perfbench/baseline.json

Runs the command in BENCHMARK.json once per (workload, seed) with `--trace 0`
and `--seconds` from `run_seconds`, then once per workload with `--trace 1`.
For each end-to-end metric it prints the median over seeds and the spread
(distance between the first and third quartile, as a share of the median)
next to the metric's bound.  The output file holds those numbers, the
per-run values, the RMSE tables, the traced per-layer metrics, the
environment facts, each workload's reason and the layer map.  Exits non-zero
if any run failed a correctness check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# layer metric -> (end-to-end metric it should move, workloads where it should)
LAYER_MAP = {
    "dynamics.*": ("ticks_per_s, wall_s", "true_400hz (dominant), sweep; gp_n250 slightly"),
    "trajectory.evaluate.*": ("ticks_per_s", "true_400hz (one call per tick), all"),
    "trajectory.sample_reference.s, trajectory.build_training_set.s":
        ("setup_s", "gp_n250, sweep"),
    "gpr.fit.s, gpr.stable_cholesky.calls, gpr.cholesky_attempts_per_factor, gpr.n_train":
        ("setup_s", "gp_n250 (dominant), sweep; no calls on true_400hz"),
    "gpr.predict.*": ("ticks_per_s", "gp_n250, sweep; zero calls on true_400hz"),
    "control.tick.*, control.design_lyapunov.s": ("ticks_per_s", "all three"),
    "harness.train_gp.s": ("setup_s", "gp_n250, sweep"),
    "harness.run_tracking.*": ("ticks_per_s, wall_s", "all three"),
    "harness.write.*": ("wall_s, peak_rss_mb", "sweep only; the others write nothing"),
    "trace.overhead_s": ("none: traced minus untraced wall_s", "all three"),
}


def quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def bench(bench_json, workload, seed, trace):
    cmd = [*bench_json["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench_json["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    rmse = {}
    env = None
    for line in lines[:-1]:
        name, _, rest = line.partition(" ")
        if name.startswith("rmse_"):
            rmse[name] = float(rest.split()[0])
        elif name == "env":
            env = json.loads(rest)
    return result, rmse, env, lines[:-1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    parser.add_argument("--out", default=None, help="write the baseline JSON here")
    args = parser.parse_args(argv)

    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench_json["end_to_end"]}
    names = [w["name"] for w in bench_json["workloads"]]
    out = {"environment": None,
           "workloads": {w["name"]: {"why": w["why"]} for w in bench_json["workloads"]},
           "layer_map": {k: {"moves": v[0], "on": v[1]} for k, v in LAYER_MAP.items()}}
    all_correct = True
    for workload in names:
        runs = []
        for seed in range(1, args.seeds + 1):
            result, rmse, env, _ = bench(bench_json, workload, seed, 0)
            out["environment"] = env
            all_correct &= result["correct"]
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": values, "rmse_deg": rmse})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
        entry = out["workloads"][workload]
        entry["runs"] = runs
        entry["median"], entry["spread"] = {}, {}
        for name in bounds:
            vals = [r["metrics"][name] for r in runs]
            entry["median"][name] = statistics.median(vals)
            if len(vals) >= 2:
                entry["spread"][name] = quartile_spread(vals)
                print(f"  {name}: median {entry['median'][name]:.6g}, spread "
                      f"{entry['spread'][name]:.4f} (bound {bounds[name]}, "
                      f"a third {bounds[name] / 3:.4f})", flush=True)
        result, _, _, lines = bench(bench_json, workload, 1, 1)
        all_correct &= result["correct"]
        entry["traced_seed_1"] = {k: v["value"] for k, v in result["metrics"].items()}
        print("\n".join(f"  {line}" for line in lines), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
