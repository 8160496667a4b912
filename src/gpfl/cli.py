"""Command-line entry point: train / run / experiment / validate."""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import gpr
from .config import ExperimentConfig, load_config, save_config
from .control import VARIANTS
from .harness import (run_experiment, run_tracking, train_gp, validate,
                      write_trace_csv)


def _load(args) -> ExperimentConfig:
    if args.config == "default":
        config = ExperimentConfig()
    else:
        config = load_config(args.config)
    # replace() reruns __post_init__, so an override is validated like the file;
    # run's --seed is its one evaluation seed, validate's an RNG seed
    overrides = {"out_dir": getattr(args, "out", None),
                 "eval_seeds": (args.seed,) if args.command == "run" else None}
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpfl",
        description="GP-compensated robust feedback linearization experiments "
                    "on a planar two-link arm")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="build the mismatch dataset and fit the GP")
    p_run = sub.add_parser("run", help="single tracking run, emit a trace CSV")
    p_run.add_argument("--seed", type=int, default=0, help="evaluation seed")
    p_run.add_argument("--controller", default="robust_gp", choices=VARIANTS)

    p_exp = sub.add_parser("experiment", help="full seeds x controllers sweep")
    p_val = sub.add_parser("validate", help="run the invariant suites")
    p_val.add_argument("--seed", type=int, default=0, help="RNG seed for the checks")
    for p in (p_train, p_run, p_exp, p_val):
        p.add_argument("--config", default="default", help="config file path, or 'default'")
    # validate writes nothing, so only the commands that write take --out
    for p in (p_train, p_run, p_exp):
        p.add_argument("--out", default=None, help="output directory")

    args = parser.parse_args(argv)
    try:
        config = _load(args)
    except (OSError, ValueError) as exc:
        print(f"gpfl: bad config: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "train":
            return _cmd_train(config)
        if args.command == "run":
            return _cmd_run(config, config.eval_seeds[0], args.controller)
        if args.command == "experiment":
            return _cmd_experiment(config)
        if args.command == "validate":
            return _cmd_validate(config, args.seed)
    except (OSError, ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"gpfl: {exc}", file=sys.stderr)
        return 1
    return 2


def _cmd_train(config: ExperimentConfig) -> int:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gp, dataset, _ = train_gp(config)
    gpr.save_dataset_csv(dataset, out / "gp_dataset.csv")
    gpr.save_model_txt(gp, out / "gp_model.txt", dataset_ref="gp_dataset.csv")
    save_config(config, out / "config.txt")
    print(f"trained GP on {dataset.n_samples} samples "
          f"({dataset.input_dim} input dims, {dataset.n_outputs} outputs)")
    for i, p in enumerate(gp.params, start=1):
        print(f"  output {i}: lambda={p.lam:.6g}, "
              f"lengthscales={np.array2string(p.lengthscales, precision=4)}")
    print(f"wrote {out / 'gp_dataset.csv'} and {out / 'gp_model.txt'}")
    return 0


def _cmd_run(config: ExperimentConfig, seed: int, controller: str) -> int:
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    result = run_tracking(config, controller, seed)
    if result.status != "ok":
        print(f"gpfl: run failed: {result.status}", file=sys.stderr)
        return 1
    path = out / f"trace_{controller}_{seed}.csv"
    write_trace_csv(path, result)
    print(f"{controller} seed {seed}: rmse per joint "
          f"{result.rmse_joints_deg[0]:.3f} / {result.rmse_joints_deg[1]:.3f} deg, "
          f"avg {result.rmse_avg_deg:.3f} deg")
    print(f"wrote {path}")
    return 0


def _cmd_experiment(config: ExperimentConfig) -> int:
    summary = run_experiment(config)
    out = Path(config.out_dir)
    # summary.txt holds the table and a FAILED line per aborted run
    print((out / "summary.txt").read_text(), end="")
    print(f"wrote {out / 'summary.csv'} and traces under {out}/")
    return 1 if any(r.status != "ok" for r in summary.results) else 0


def _cmd_validate(config: ExperimentConfig, seed: int) -> int:
    if seed < 0:
        raise ValueError(f"--seed must be >= 0, got {seed}")
    checks = validate(config, seed=seed)
    n_failed = 0
    for name, passed, detail in checks:
        tag = "ok" if passed else "FAIL"
        print(f"{tag:>4}  {name:<26} {detail}")
        n_failed += 0 if passed else 1
    print(f"{len(checks) - n_failed}/{len(checks)} invariant suites passed")
    return 0 if n_failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
