"""gpfl benchmark: one workload per call, end-to-end or traced per-layer metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 36 --trace 0

Each repetition runs in a fresh interpreter (`workload.py`), one after the
other: a closed loop with a single caller, so `import gpfl` is part of every
repetition's wall and set-up time and `peak_rss_mb` is that process's own
peak.  The evaluation seeds are drawn from `--seed`; repetition i uses the
(i mod K)-th of them, and repetitions continue while the next one is expected
to finish within `--seconds` (at least one per evaluation seed).  The RMSE of
each (controller, seed) must be bit-identical across repetitions, and the
paper's checks must hold; a run that breaks either counts as failed.

Each end-to-end metric is the median over the run's repetitions of the
repetition's value as timed; every repetition's values are printed too.

With `--trace 0` the result's metrics are the end-to-end ones; with
`--trace 1` each repetition is paired with a traced one on the same seed
(which side runs first alternates), and the metrics are the
per-layer ones from the traced repetitions (medians) plus `trace.overhead_s`,
the median over those pairs of traced minus untraced `wall_s`.
Human-readable lines come first; the last line of standard output is the
JSON result.  The exit code is 0 only if every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
from tracer import PER_LAYER_UNITS, VARIANTS  # noqa: E402


class Workload(NamedTuple):
    eval_seeds: int  # evaluation seeds per run; repetitions cycle through them
    config: dict  # ExperimentConfig overrides


# The sweep's robust_gp < 0.5 * gp check is a claim about the mean over
# seeds: 1 of 45 single seeds measured breaks it, none of the 14190 triples.
WORKLOADS = {
    "sweep": Workload(3, {}),
    "true_400hz": Workload(2, {"control_rate": 400.0, "controllers": ("true",)}),
    "gp_n250": Workload(1, {"downsample": 20, "controllers": ("gp", "robust_gp")}),
}
TRAINING_SEED = 1000  # ExperimentConfig default; evaluation seeds must avoid it
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "ticks_per_s": "ticks/s",
                    "peak_rss_mb": "MB"}
TRUE_RMSE_LIMIT_DEG = 5.0
ROBUST_TO_GP_LIMIT = 0.5
REP_TIMEOUT_S = 170.0
# One BLAS thread unless the caller sets otherwise: with two, a fit stalls
# whenever the other CPU is busy, which made set-up times vary five-fold.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def eval_seeds_for(workload: str, seed: int) -> list:
    rng = random.Random(seed)
    seeds = []
    while len(seeds) < WORKLOADS[workload].eval_seeds:
        s = rng.randrange(1_000_000)
        if s != TRAINING_SEED and s not in seeds:
            seeds.append(s)
    return seeds


def run_rep(workload: str, eval_seeds, trace: bool, duration=None) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--eval-seeds", ",".join(str(s) for s in eval_seeds),
           "--trace", str(int(trace))]
    if duration is not None:
        cmd += ["--duration", repr(duration)]
    if trace:
        cmd += ["--spans-out", str(OUT_ROOT / f"spans_{workload}.csv")]
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S,
                          env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool, duration=None):
    """Run repetitions; returns (untraced reps, traced reps, evaluation seeds)."""
    OUT_ROOT.mkdir(exist_ok=True)
    seeds = eval_seeds_for(workload, seed)
    # warm-up: compiles bytecode and loads numpy/scipy into the page cache
    run_rep(workload, seeds[:1], False, duration=2.0 if duration is None else duration)
    plain, traced = [], []
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i < len(seeds) or time.perf_counter() - start + last <= seconds:
        rep_start = time.perf_counter()
        eval_seed = [seeds[i % len(seeds)]]
        if trace and i % 2:  # alternate which side of a pair runs first
            traced.append(run_rep(workload, eval_seed, True, duration))
        plain.append(run_rep(workload, eval_seed, False, duration))
        if trace and not i % 2:
            traced.append(run_rep(workload, eval_seed, True, duration))
        last = time.perf_counter() - rep_start
        i += 1
    return plain, traced, seeds


def check_runs(workload: str, reps: list, seeds: list):
    """Correctness checks; returns (attempted, failed, report lines, RMSE table)."""
    runs = [tuple(run) for rep in reps for run in rep["runs"]]
    failed = set()
    lines = []
    first = {}
    for idx, (controller, seed, status, rmse) in enumerate(runs):
        if status != "ok" or rmse is None or not math.isfinite(rmse):
            failed.add(idx)
            lines.append(f"check run_ok: {controller} seed {seed}: status {status!r}, "
                         f"rmse {rmse}: FAIL")
            continue
        ref = first.setdefault((controller, seed), rmse)
        if rmse != ref:
            failed.add(idx)
            lines.append(f"check deterministic: {controller} seed {seed}: rmse {rmse!r} "
                         f"!= {ref!r} from an earlier repetition: FAIL")
    ok_runs = len(runs) - len(failed)
    lines.append(f"check run_ok+deterministic: {ok_runs}/{len(runs)} runs have status ok, "
                 "a finite RMSE, and the same RMSE in every repetition")

    controllers = sorted({c for c, _ in first}, key=VARIANTS.index)
    table = {c: statistics.fmean(first[(c, s)] for s in seeds if (c, s) in first)
             for c in controllers if any((c, s) in first for s in seeds)}

    def fail_where(pred):
        for idx, run in enumerate(runs):
            if pred(run):
                failed.add(idx)

    if workload == "true_400hz":
        for s in seeds:
            if (("true", s)) not in first:
                continue
            v = first[("true", s)]
            good = v < TRUE_RMSE_LIMIT_DEG
            lines.append(f"check true_floor: seed {s}: rmse_true {v:.6f} deg < "
                         f"{TRUE_RMSE_LIMIT_DEG:g}: {'ok' if good else 'FAIL'}")
            if not good:
                fail_where(lambda r, s=s: r[1] == s)
    elif workload == "gp_n250":
        for s in seeds:
            if ("gp", s) not in first or ("robust_gp", s) not in first:
                continue
            rob, gp = first[("robust_gp", s)], first[("gp", s)]
            good = rob < gp
            lines.append(f"check robust_beats_gp: seed {s}: robust_gp {rob:.4f} < "
                         f"gp {gp:.4f} deg: {'ok' if good else 'FAIL'}")
            if not good:
                fail_where(lambda r, s=s: r[1] == s)
    elif workload == "sweep" and len(table) == len(VARIANTS):
        t, n, g, rob = (table[v] for v in ("true", "nominal", "gp", "robust_gp"))
        order = t < rob < g < n
        ratio = rob / g
        lines.append(f"check ordering: mean over seeds {seeds}: true {t:.4f} < robust_gp "
                     f"{rob:.4f} < gp {g:.4f} < nominal {n:.4f} deg: "
                     f"{'ok' if order else 'FAIL'}")
        lines.append(f"check robust_vs_gp: robust_gp/gp {ratio:.4f} < {ROBUST_TO_GP_LIMIT:g}: "
                     f"{'ok' if ratio < ROBUST_TO_GP_LIMIT else 'FAIL'}")
        if not (order and ratio < ROBUST_TO_GP_LIMIT):
            fail_where(lambda r: True)
    return len(runs), len(failed), lines, table


def end_to_end(reps: list) -> tuple:
    """Each end-to-end metric's median over the repetitions, and its
    per-repetition values, all as timed."""
    per_rep = {"wall_s": [r["wall_s"] for r in reps],
               "setup_s": [r["setup_s"] for r in reps],
               "ticks_per_s": [r["ticks"] / r["tracking_s"] for r in reps],
               "peak_rss_mb": [r["peak_rss_mb"] for r in reps]}
    return {name: statistics.median(vals) for name, vals in per_rep.items()}, per_rep


def layers(plain: list, traced: list) -> dict:
    out = {name: statistics.median(rep["layers"][name] for rep in traced)
           for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
    out["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    return out


def benchmark(workload: str, seed: int, seconds: float, trace: bool, duration=None):
    """Run one workload; returns (result dict for the last line, report lines)."""
    plain, traced, seeds = collect(workload, seed, seconds, trace, duration)
    attempted, failed, lines, table = check_runs(workload, plain + traced, seeds)
    medians, per_rep = end_to_end(plain)
    report = [f"workload {workload} seed {seed} eval_seeds {seeds} "
              f"repetitions {len(plain)} traced {len(traced)}",
              f"env {json.dumps(plain[0]['env'], sort_keys=True)}",
              f"ticks per repetition {[r['ticks'] for r in plain]}"]
    for name, unit in END_TO_END_UNITS.items():
        vals = per_rep[name]
        report.append(f"{name} {medians[name]:.6g} {unit} (median of {len(vals)} "
                      f"repetitions: {', '.join(f'{v:.6g}' for v in vals)})")
    for controller, value in table.items():
        report.append(f"rmse_{controller}_deg {value:.6f} deg (mean over seeds {seeds})")
    report.append(f"runs_failed_frac {failed / attempted:.6g} ({failed} failed of "
                  f"{attempted} attempted)")
    report += lines
    if trace:
        metrics = layers(plain, traced)
        units = PER_LAYER_UNITS
        report += [f"{name} {value:.6g} {units[name]}" for name, value in metrics.items()]
        pairs = [t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)]
        report.append(f"trace.overhead_s per pair: {', '.join(f'{v:.4g}' for v in pairs)} s")
    else:
        metrics, units = medians, END_TO_END_UNITS
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gpfl" / "__init__.py").is_file():
        print(f"perfbench: gpfl sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result, report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
