"""Command-line entry points for reconstruction runs, suites, and exports."""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .export import write_field
from .forward import assemble_vb, save_vb_cache
from .grid import Grid
from .harness import ExperimentConfig, coarse_problem, run_experiment, run_suite
from .phantoms import PhantomSpec, make_phantom


def _load_config(path):
    return ExperimentConfig.from_json(path)


def _cmd_reconstruct(args):
    config = _load_config(args.config)
    if args.output is not None:
        config.output_dir = args.output
    result = run_experiment(config)
    print(f"solver={result.solver} n_error={result.n_error:.4e} "
          f"times={{simulate: {result.wall_times['simulate']:.2f}s, "
          f"assembly: {result.wall_times['assembly']:.2f}s, "
          f"solve: {result.wall_times['solve']:.2f}s}}")
    return 0


def _cmd_suite(args):
    with open(args.config, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise ValueError("suite config must be a JSON list of experiment configs")
    configs = [ExperimentConfig.from_dict(entry) for entry in data]
    out = Path(args.output or ".")
    out.mkdir(parents=True, exist_ok=True)
    for i, config in enumerate(configs):
        if config.output_dir is None:
            config.output_dir = str(out / f"run{i:03d}")
    rows, _ = run_suite(configs, csv_path=out / "results.csv")
    for row in rows:
        print(" | ".join(str(row[c]) for c in row))
    return 0


def _cmd_assemble(args):
    config = _load_config(args.config)
    coarse, medium, receivers = coarse_problem(config)
    vb = assemble_vb(coarse, medium, receivers)
    out = Path(config.output_dir or ".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "vb.cache"
    save_vb_cache(path, vb, coarse, medium, receivers)
    print(f"wrote {path} ({vb.shape[0]}x{vb.shape[1]})")
    return 0


def _cmd_phantom(args):
    spec_data = json.loads(args.spec)
    spec = PhantomSpec(**spec_data)
    grid = Grid(dim=args.dim, n_per_axis=args.n, half_width=args.half_width)
    mu = make_phantom(spec, grid)
    real_block = mu[: grid.num_nodes]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    csv_path = write_field(out, grid, real_block)[0]
    print(f"wrote {csv_path} ({int(np.count_nonzero(real_block))} nonzero cells)")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="sparsescat",
                                     description="Sparse acoustic source reconstruction from boundary data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="run a single experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None, help="override the output directory")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("suite", help="run a list of experiments and write results.csv")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_suite)

    p = sub.add_parser("assemble", help="assemble and cache the measurement operator only")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_assemble)

    p = sub.add_parser("phantom", help="render a phantom to CSV and PGM")
    p.add_argument("--spec", required=True, help="JSON phantom spec, e.g. '{\"kind\": \"peaks\", \"count\": 4}'")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--half-width", type=float, default=1.0, dest="half_width")
    p.set_defaults(func=_cmd_phantom)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
