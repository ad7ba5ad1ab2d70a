"""End-to-end experiment driver.

Synthetic data are generated on a fine grid and inverted on a coarser,
non-nested grid (different discretizations guard against the inverse
crime).  All randomness flows through one seeded 64-bit permuted
congruential generator (PCG64), so a config + seed reproduces every
artifact byte-for-byte.
"""

import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .alm import AlmOptions, solve_alm
from .export import write_field, write_jsonl
from .forward import assemble_vb, load_vb_cache, save_vb_cache, source_to_measurement
from .grid import Grid, boundary_receivers, default_receiver_count
from .phantoms import PhantomSpec, make_medium, make_phantom
from .pda import PdaOptions, solve_pda
from .prox import RegParams
from .ssn import SsnOptions, solve_ssn

RNG_NAME = "pcg64"
SOLVER_OPTIONS = {"alm": AlmOptions, "ssn": SsnOptions, "pda": PdaOptions}


class ExperimentError(RuntimeError):
    """Failure of one pipeline phase, tagged with the phase name."""

    def __init__(self, phase, cause):
        self.phase = phase
        super().__init__(f"experiment failed in phase {phase!r}: {cause}")


@dataclass
class ExperimentConfig:
    solver: str
    alpha: float
    alpha0: float
    phantom: PhantomSpec
    dim: int = 2
    wavenumber: float = 6.0
    fine_n: int = 96
    coarse_n: int = 64
    half_width: float = 1.0
    receivers: int = None  # None: 4*n (2D) / 6*n^2 capped at 600 (3D) on the coarse grid
    inhomogeneous: bool = False
    noise_level: float = 0.01
    seed: int = 0
    solver_options: dict = field(default_factory=dict)
    output_dir: str = None
    label: str = None

    def __post_init__(self):
        if self.solver not in SOLVER_OPTIONS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.fine_n == self.coarse_n:
            raise ValueError("inverse-crime guard: fine and coarse grids must differ")
        if self.noise_level < 0:
            raise ValueError("noise level must be nonnegative")

    @classmethod
    def from_dict(cls, data):
        """Build from a JSON-style dict, rejecting unknown keys at every level."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        phantom = data.pop("phantom")
        if isinstance(phantom, dict):
            pknown = {f.name for f in fields(PhantomSpec)}
            punknown = set(phantom) - pknown
            if punknown:
                raise ValueError(f"unknown phantom keys: {sorted(punknown)}")
            if "positions" in phantom and phantom["positions"] is not None:
                phantom["positions"] = tuple(tuple(p) for p in phantom["positions"])
            phantom = PhantomSpec(**phantom)
        cfg = cls(phantom=phantom, **data)
        _validate_solver_options(cfg.solver, cfg.solver_options)
        return cfg

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def to_dict(self):
        return asdict(self)


def _validate_solver_options(solver, options):
    unknown = set(options) - {f.name for f in fields(SOLVER_OPTIONS[solver])}
    if unknown:
        raise ValueError(f"unknown {solver} options: {sorted(unknown)}")
    SOLVER_OPTIONS[solver](**options)  # raises ValueError on an out-of-range value


@dataclass
class ExperimentResult:
    n_error: float
    wall_times: dict
    solver: str
    iterations: int
    converged: bool
    stop_reason: str
    mu_rec: np.ndarray = field(repr=False)
    mu_exact: np.ndarray = field(repr=False)
    records: list = field(repr=False)
    seed: int = 0
    rng: str = RNG_NAME
    output_paths: dict = field(default_factory=dict)


def add_noise(u_b, delta, seed):
    """Additive complex Gaussian noise scaled to delta * ||u_b||.

    Draws the real block first, then the imaginary block, from a PCG64
    generator, so noise streams are reproducible bit-for-bit.
    """
    u_b = np.asarray(u_b, dtype=float)
    if delta < 0:
        raise ValueError("noise level must be nonnegative")
    if delta == 0:
        return u_b.copy()
    m = u_b.shape[0] // 2
    rng = np.random.Generator(np.random.PCG64(seed))
    n_re = rng.standard_normal(m)
    n_im = rng.standard_normal(m)
    return u_b + delta * np.linalg.norm(u_b) * np.concatenate([n_re, n_im])


def n_error(mu_rec, mu_exact):
    """Relative L2 reconstruction error against the exact source."""
    mu_exact = np.asarray(mu_exact, dtype=float)
    denom = np.linalg.norm(mu_exact)
    if denom == 0:
        raise ValueError("exact source is zero; relative error undefined")
    return float(np.linalg.norm(np.asarray(mu_rec, dtype=float) - mu_exact) / denom)


def restrict_to_coarse(mu_fine, fine_grid, coarse_grid):
    """Mass-preserving cell-average restriction of a realified source field.

    Fine cells are binned by the coarse cell containing their center; the
    coarse density is the binned mass divided by the coarse cell volume,
    so integrals (and hence point-source strengths) are preserved.
    """
    if fine_grid.dim != coarse_grid.dim or fine_grid.half_width != coarse_grid.half_width:
        raise ValueError("grids must describe the same box")
    bins = np.clip(
        np.floor((fine_grid.axis_centers() + coarse_grid.half_width) / coarse_grid.spacing),
        0,
        coarse_grid.n_per_axis - 1,
    ).astype(int)
    scale = (fine_grid.spacing / coarse_grid.spacing) ** fine_grid.dim
    n_fine = fine_grid.num_nodes

    def restrict_block(block):
        out = np.zeros(coarse_grid.shape)
        idx = np.meshgrid(*([bins] * fine_grid.dim), indexing="ij")
        np.add.at(out, tuple(idx), block.reshape(fine_grid.shape))
        return scale * out.ravel()

    mu_fine = np.asarray(mu_fine, dtype=float)
    return np.concatenate([restrict_block(mu_fine[:n_fine]), restrict_block(mu_fine[n_fine:])])


def _run_solver(config, vb, u_b):
    """Run the configured solver and return its `SolveResult`."""
    # looked up at call time, so that rebinding harness.solve_* (as a tracer does) takes effect
    solve = {"alm": solve_alm, "ssn": solve_ssn, "pda": solve_pda}[config.solver]
    reg = RegParams(alpha=config.alpha, alpha0=config.alpha0)
    return solve(vb, u_b, reg, options=SOLVER_OPTIONS[config.solver](**config.solver_options))


def _export(config, result, coarse_grid):
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"diagnostics": out / "diagnostics.jsonl"}
    write_jsonl(paths["diagnostics"], result.records)
    paths["mu_csv"], paths["mu_pgm"], *_ = write_field(
        out / "mu_rec", coarse_grid, result.mu_rec[: coarse_grid.num_nodes])
    with open(out / "result.json", "w", encoding="utf-8") as f:
        json.dump(
            {
                "n_error": result.n_error,
                "wall_times": result.wall_times,
                "solver": result.solver,
                "iterations": result.iterations,
                "converged": result.converged,
                "stop_reason": result.stop_reason,
                "seed": result.seed,
                "rng": result.rng,
            },
            f,
            indent=2,
            sort_keys=True,
        )
    paths["result"] = out / "result.json"
    result.output_paths = {k: str(v) for k, v in paths.items()}


def coarse_problem(config):
    """The coarse grid, its medium and the receivers of `config`: the inputs of `assemble_vb`."""
    coarse = Grid(dim=config.dim, n_per_axis=config.coarse_n, half_width=config.half_width)
    receivers = boundary_receivers(coarse, config.receivers or default_receiver_count(coarse))
    return coarse, make_medium(coarse, config.wavenumber, config.inhomogeneous), receivers


def run_experiment(config):
    """Simulate, add noise, assemble (or load) the operator, solve, and score."""
    fine = Grid(dim=config.dim, n_per_axis=config.fine_n, half_width=config.half_width)
    coarse, medium_coarse, receivers = coarse_problem(config)
    times = {}

    try:
        mu_exact_fine = make_phantom(config.phantom, fine)
        medium_fine = make_medium(fine, config.wavenumber, config.inhomogeneous)
        t0 = time.perf_counter()
        u_b = source_to_measurement(fine, medium_fine, receivers, mu_exact_fine)
        times["simulate"] = time.perf_counter() - t0
    except Exception as exc:
        raise ExperimentError("simulate", exc) from exc

    u_noisy = add_noise(u_b, config.noise_level, config.seed)

    try:
        t0 = time.perf_counter()
        vb = None
        cache_path = Path(config.output_dir) / "vb.cache" if config.output_dir else None
        if cache_path is not None and cache_path.exists():
            vb = load_vb_cache(cache_path, coarse, medium_coarse, receivers)
        if vb is None:
            vb = assemble_vb(coarse, medium_coarse, receivers)
            if cache_path is not None:
                cache_path.parent.mkdir(parents=True, exist_ok=True)
                save_vb_cache(cache_path, vb, coarse, medium_coarse, receivers)
        times["assembly"] = time.perf_counter() - t0
    except Exception as exc:
        raise ExperimentError("assembly", exc) from exc

    try:
        t0 = time.perf_counter()
        solved = _run_solver(config, vb, u_noisy)
        times["solve"] = time.perf_counter() - t0
    except Exception as exc:
        raise ExperimentError("solve", exc) from exc

    try:
        mu_exact_coarse = restrict_to_coarse(mu_exact_fine, fine, coarse)
        err = n_error(solved.mu, mu_exact_coarse)
    except Exception as exc:
        raise ExperimentError("metric", exc) from exc

    result = ExperimentResult(
        n_error=err,
        wall_times=times,
        solver=config.solver,
        iterations=solved.iterations,
        converged=solved.converged,
        stop_reason=solved.stop_reason,
        mu_rec=solved.mu,
        mu_exact=mu_exact_coarse,
        records=solved.records,
        seed=config.seed,
    )
    if config.output_dir:
        try:
            _export(config, result, coarse)
        except Exception as exc:
            raise ExperimentError("export", exc) from exc
    return result


SUITE_COLUMNS = ("Method", "Source", "Medium", "Time(s)", "N-Error")


def _source_label(config):
    if config.label:
        return config.label
    p = config.phantom
    return f"{p.kind}:{p.count}" if p.kind == "peaks" else p.kind


def _suite_row(config):
    label = {
        "Method": config.solver.upper(),
        "Source": _source_label(config),
        "Medium": "inhomo" if config.inhomogeneous else "homo",
    }
    try:
        result = run_experiment(config)
    except Exception as exc:
        return {**label, "Time(s)": "", "N-Error": f"FAILED: {exc}"}, None
    total = result.wall_times["assembly"] + result.wall_times["solve"]
    row = {**label, "Time(s)": format(total, ".2f"), "N-Error": format(result.n_error, ".2e")}
    return row, result


def run_suite(configs, csv_path=None, workers=1):
    """Run a list of experiments and tabulate Method/Source/Medium/Time/N-Error.

    Per-row failures are recorded in the table and do not stop the suite.
    Rows keep the order of the input configs; with workers > 1 the
    independent experiments run on a thread pool (solvers release the GIL
    inside BLAS/FFT calls).
    """
    if workers > 1 and len(configs) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_suite_row, configs))
    else:
        outcomes = [_suite_row(config) for config in configs]
    rows = [row for row, _ in outcomes]
    results = [result for _, result in outcomes]
    if csv_path is not None:
        write_suite_csv(csv_path, rows)
    return rows, results


def write_suite_csv(path, rows):
    with open(path, "w", encoding="ascii", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=SUITE_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def read_suite_csv(path):
    with open(path, "r", encoding="ascii", newline="") as f:
        return list(csv.DictReader(f))
