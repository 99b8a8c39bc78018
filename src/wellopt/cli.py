"""Command-line entry points: optimize, compare, evaluate, gen-grid."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .config import RunConfig
from .harness import (BUNDLED_GRID_SEED, batch_summary_text, build_problem,
                      comparison_report_text, compare_optimizers, run_batch,
                      run_line, run_single)
from .wells.grid import generate_synthetic_grid


def _cmd_optimize(args) -> int:
    config = RunConfig.load(args.config)
    out_dir = args.out or config.output_dir
    if args.seed is not None:
        print(run_line(run_single(config, args.seed, out_dir)))
    else:
        result = run_batch(config, out_dir)
        print(batch_summary_text(result), end="")
    print(f"outputs written to {out_dir}")
    return 0


def _cmd_compare(args) -> int:
    config = RunConfig.load(args.config)
    out_dir = args.out or config.output_dir
    result = compare_optimizers(config, out_dir)
    print(comparison_report_text(result), end="")
    print(f"outputs written to {out_dir}")
    return 0


def _cmd_evaluate(args) -> int:
    config = (RunConfig.load(args.config) if args.config
              else RunConfig({"kind": "well_placement"}))
    if config.problem["kind"] != "well_placement":
        print("evaluate requires a well_placement problem", file=sys.stderr)
        return 2
    problem = build_problem(config).well_problem
    genome = np.array([float(v) for v in args.genome.split(",")])
    if genome.shape != (problem.dim,):
        print(f"genome must have {problem.dim} comma-separated values",
              file=sys.stderr)
        return 2
    print(json.dumps(problem.evaluate_detail(genome), indent=2))
    return 0


def _cmd_gen_grid(args) -> int:
    grid = generate_synthetic_grid(args.seed)
    grid.save_json(args.out)
    print(f"grid {grid.dims} written to {args.out} (seed {args.seed})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="wellopt",
        description="Constrained, surrogate-assisted CMA-ES with a "
                    "well-placement demonstration problem")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="run one seed or a whole batch")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_optimize)

    p = sub.add_parser("compare", help="matched-seed optimizer comparison")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_compare)

    p = sub.add_parser("evaluate",
                       help="score one well-placement genome (CSV values)")
    p.add_argument("--genome", required=True,
                   help="comma-separated genome values")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("gen-grid", help="write a synthetic reservoir grid")
    p.add_argument("--seed", type=int, default=BUNDLED_GRID_SEED)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_gen_grid)

    args = parser.parse_args(argv)
    if (getattr(args, "seed", None) or 0) < 0:   # numpy seeds from ints >= 0
        sub.choices[args.command].error(
            f"argument --seed: must be non-negative; got {args.seed}")
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
