"""In-memory span recorder wrapped around the layer boundaries of gpfl.

Spans are recorded from the benchmark's side only: `install` replaces the
module attributes that gpfl resolves at call time (the names `harness`
imported from the other modules, plus `gpr.predict` and
`gpr.stable_cholesky`) with timing wrappers, and `layer_metrics` reduces the
recorded spans to the per-layer metrics.  The RK4 steps `simulate` takes
(`dynamics._rk4_step`) and the `scipy.linalg.cholesky` attempts inside
`stable_cholesky` are counted, not timed.  `dynamics._accel` is deliberately
not wrapped: it runs millions of times per sweep and its cost is already
`dynamics.simulate.self_s / dynamics.substeps`.

Everything gpfl does is synchronous in one thread, so no layer ever waits
for another and there are no wait metrics to report.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

VARIANTS = ("true", "nominal", "gp", "robust_gp")

# attribute of gpfl.harness -> span name; `fit` and `build_tick_controller`
# are wrapped separately in `install`
HARNESS_SPANS = {
    "simulate": "dynamics.simulate",
    "evaluate": "trajectory.evaluate",
    "sample_reference": "trajectory.sample_reference",
    "build_training_set": "trajectory.build_training_set",
    "design_lyapunov": "control.design_lyapunov",
    "inverse_dynamics": "dynamics.inverse_dynamics",
    "mismatch_target": "gpr.mismatch_target",
    "train_gp": "harness.train_gp",
    "run_tracking": "harness.run_tracking",
    "write_trace_csv": "harness.write",
    "write_plotdata": "harness.write",
    "write_summary_csv": "harness.write",
    "write_summary_txt": "harness.write",
}
# attribute of gpfl.gpr -> span name
GPR_SPANS = {
    "predict": "gpr.predict",
    "stable_cholesky": "gpr.stable_cholesky",
    "save_dataset_csv": "harness.write",
    "save_model_txt": "harness.write",
}

PER_LAYER_UNITS = {
    "dynamics.simulate.calls": "count",
    "dynamics.simulate.self_s": "s",
    "dynamics.substeps": "count",
    "dynamics.us_per_substep": "us",
    "trajectory.evaluate.calls": "count",
    "trajectory.evaluate.s": "s",
    "trajectory.sample_reference.s": "s",
    "trajectory.build_training_set.s": "s",
    "gpr.fit.s": "s",
    "gpr.stable_cholesky.calls": "count",
    "gpr.cholesky_attempts_per_factor": "count",
    "gpr.n_train": "count",
    "gpr.predict.calls": "count",
    "gpr.predict.s": "s",
    "gpr.predict.us_per_call": "us",
    **{f"control.tick.calls.{v}": "count" for v in VARIANTS},
    **{f"control.tick.self_us.{v}": "us" for v in VARIANTS},
    "control.design_lyapunov.s": "s",
    "harness.train_gp.s": "s",
    "harness.run_tracking.calls": "count",
    "harness.run_tracking.s": "s",
    "harness.write.s": "s",
    "harness.write.bytes": "bytes",
    "harness.write.files": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Spans as [name, start, end, parent index]; parent -1 marks a root."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @property
    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent}\n")


def install(tracer: Tracer, harness, gpr, dynamics, scipy_linalg, layers: bool = True):
    """Replace the traced attributes; returns a callable that restores them.

    With `layers=False` only `harness.run_tracking` is wrapped: its spans are
    all the end-to-end clock needs (set-up ends where the first one starts).
    """
    saved = []

    def patch(module, attr, replacement):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    if not layers:
        patch(harness, "run_tracking", tracer.wrap("harness.run_tracking", harness.run_tracking))
        return restore

    for attr, name in HARNESS_SPANS.items():
        patch(harness, attr, tracer.wrap(name, getattr(harness, attr)))
    for attr, name in GPR_SPANS.items():
        patch(gpr, attr, tracer.wrap(name, getattr(gpr, attr)))

    fit = harness.fit

    def counted_fit(dataset, *args, **kwargs):
        tracer.counts["gpr.n_train"] = dataset.n_samples
        return fit(dataset, *args, **kwargs)

    patch(harness, "fit", tracer.wrap("gpr.fit", counted_fit))

    build = harness.build_tick_controller

    def traced_build(variant, *args, **kwargs):
        return tracer.wrap(f"control.tick.{variant}", build(variant, *args, **kwargs))

    patch(harness, "build_tick_controller", traced_build)

    # counted, not spanned: a span per RK4 step would cost as much as the
    # step's own bookkeeping and would hide simulate's self time
    rk4_step = dynamics._rk4_step

    def counted_rk4_step(*args, **kwargs):
        if tracer.current == "dynamics.simulate":
            tracer.counts["rk4_steps"] += 1
        return rk4_step(*args, **kwargs)

    patch(dynamics, "_rk4_step", counted_rk4_step)

    cholesky = scipy_linalg.cholesky

    def counted_cholesky(*args, **kwargs):
        if tracer.current == "gpr.stable_cholesky":
            tracer.counts["cholesky_attempts"] += 1
        return cholesky(*args, **kwargs)

    patch(scipy_linalg, "cholesky", counted_cholesky)
    return restore


def layer_metrics(tracer: Tracer) -> dict:
    """Reduce the spans to the per-layer metrics (all but trace.overhead_s)."""
    spans = tracer.spans
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
    for i, (name, _, _, parent) in enumerate(spans):
        calls[name] += 1
        total[name] += dur[i]
        self_s[name] += dur[i] - child[i]

    def per_call_us(seconds, n):
        return seconds / n * 1e6 if n else 0.0

    substeps = tracer.counts["rk4_steps"]
    factorizations = calls["gpr.stable_cholesky"]
    metrics = {
        "dynamics.simulate.calls": calls["dynamics.simulate"],
        "dynamics.simulate.self_s": self_s["dynamics.simulate"],
        "dynamics.substeps": substeps,
        "dynamics.us_per_substep": per_call_us(self_s["dynamics.simulate"], substeps),
        "trajectory.evaluate.calls": calls["trajectory.evaluate"],
        "trajectory.evaluate.s": total["trajectory.evaluate"],
        "trajectory.sample_reference.s": total["trajectory.sample_reference"],
        "trajectory.build_training_set.s": total["trajectory.build_training_set"],
        "gpr.fit.s": total["gpr.fit"],
        "gpr.stable_cholesky.calls": factorizations,
        "gpr.cholesky_attempts_per_factor": (tracer.counts["cholesky_attempts"] / factorizations
                                             if factorizations else 0.0),
        "gpr.n_train": tracer.counts["gpr.n_train"],
        "gpr.predict.calls": calls["gpr.predict"],
        "gpr.predict.s": total["gpr.predict"],
        "gpr.predict.us_per_call": per_call_us(total["gpr.predict"], calls["gpr.predict"]),
        "control.design_lyapunov.s": total["control.design_lyapunov"],
        "harness.train_gp.s": total["harness.train_gp"],
        "harness.run_tracking.calls": calls["harness.run_tracking"],
        "harness.run_tracking.s": total["harness.run_tracking"],
        "harness.write.s": total["harness.write"],
    }
    for v in VARIANTS:
        name = f"control.tick.{v}"
        metrics[f"control.tick.calls.{v}"] = calls[name]
        metrics[f"control.tick.self_us.{v}"] = per_call_us(self_s[name], calls[name])
    return metrics
