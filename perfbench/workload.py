"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload sweep --eval-seeds 4711 [--trace 1]

The clock starts before `import gpfl`, so `wall_s` and `setup_s` include the
import; set-up ends where the first `run_tracking` call starts.  The last
line of standard output is one JSON object with the repetition's timings as
measured, its per-run RMSE rows, the environment facts and, with
`--trace 1`, the per-layer metrics from the recorded spans.  `run.py` starts
this script once per repetition and aggregates what it prints.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
sys.path.insert(0, str(ROOT / "src"))

import gpfl  # noqa: E402
import scipy.linalg  # noqa: E402
from gpfl import dynamics, gpr, harness  # noqa: E402

import tracer as tracing  # noqa: E402
from run import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def make_config(workload: str, eval_seeds, duration=None, out_dir="results"):
    overrides = dict(WORKLOADS[workload].config)
    if duration is not None:
        overrides["duration"] = duration
    return gpfl.ExperimentConfig(eval_seeds=tuple(eval_seeds), out_dir=str(out_dir),
                                 **overrides)


def run_workload(workload: str, eval_seeds, duration=None):
    """Run one repetition; returns (results, end time, bytes written, files written)."""
    if workload == "sweep":
        OUT_ROOT.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix="sweep_", dir=OUT_ROOT))
        try:
            config = make_config(workload, eval_seeds, duration, out)
            summary = harness.run_experiment(config, out_dir=out)
            end = time.perf_counter()
            files = [p for p in out.rglob("*") if p.is_file()]
            n_bytes = sum(p.stat().st_size for p in files)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return summary.results, end, n_bytes, len(files)

    config = make_config(workload, eval_seeds, duration)
    model = config.make_model()
    nominal = config.make_nominal(model)
    gp = lyapunov = None
    if workload == "gp_n250":
        gp, _, _ = harness.train_gp(config, model, nominal)
        lyapunov = harness.design_lyapunov(config.make_gains(), model.n_joints)
    results = [harness.run_tracking(config, controller, seed, model=model,
                                    nominal=nominal, gp=gp, lyapunov=lyapunov)
               for seed in config.eval_seeds for controller in config.controllers]
    return results, time.perf_counter(), 0, 0


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else "unknown"
        sha = ref
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_sha": sha,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--eval-seeds", required=True,
                        help="comma-separated evaluation seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--duration", type=float, default=None,
                        help="override the run duration (self-tests only)")
    parser.add_argument("--spans-out", default=None,
                        help="write the recorded spans to this CSV")
    args = parser.parse_args(argv)
    eval_seeds = [int(s) for s in args.eval_seeds.split(",")]

    tracer = tracing.Tracer()
    restore = tracing.install(tracer, harness, gpr, dynamics, scipy.linalg,
                              layers=bool(args.trace))
    try:
        results, end, n_bytes, n_files = run_workload(
            args.workload, eval_seeds, args.duration)
    finally:
        restore()

    tracking = [(start, stop) for name, start, stop, _ in tracer.spans
                if name == "harness.run_tracking"]
    out = {
        "wall_s": end - T0,
        "setup_s": tracking[0][0] - T0,
        "tracking_s": sum(stop - start for start, stop in tracking),
        "ticks": sum(r.trace.n_ticks for r in results if r.trace is not None),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "runs": [[r.controller, r.seed, r.status, r.rmse_avg_deg] for r in results],
        "env": environment(),
    }
    if args.trace:
        layers = tracing.layer_metrics(tracer)
        layers["harness.write.bytes"] = n_bytes
        layers["harness.write.files"] = n_files
        out["layers"] = layers
        if args.spans_out:
            tracer.write_csv(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
