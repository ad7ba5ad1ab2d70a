"""End-to-end experiment driver.

Synthetic data are generated on a fine grid and inverted on a coarser,
non-nested grid (different discretizations guard against the inverse
crime).  All randomness flows through one seeded 64-bit permuted
congruential generator (PCG64), so a config + seed reproduces
`diagnostics.jsonl`, the `mu_rec` files and `vb.cache` byte for byte at
a fixed BLAS thread count (the rounding of some products depends on it);
`result.json` differs only in its wall times, and `config.json` in its
output_dir.
"""

import ctypes
import json
import os
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import scipy

from .alm import AlmOptions, solve_alm
from .export import write_field, write_json, write_jsonl, write_suite_csv
from .forward import assemble_vb, fft_backend, load_vb_cache, save_vb_cache, source_to_measurement
from .grid import Grid, boundary_receivers, check_bool, check_finite, check_integer
from .phantoms import PhantomSpec, make_medium, make_phantom
from .pda import PdaOptions, solve_pda
from .prox import RegParams, SolveResult
from .realfield import complex_dim
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
    """One experiment.  `phantom` may be given as a dict of `PhantomSpec` fields and
    `solver_options` as a dict of the solver's options fields; each is built into its
    object, and checked, when the config is; so are the fine grid, `RegParams` and `coarse_problem`,
    which check the other values (what one solver needs, as SSN alpha0 > 0, is left to its solve)."""

    solver: str
    alpha: float
    alpha0: float
    phantom: PhantomSpec
    dim: int = 2
    wavenumber: float = 6.0
    fine_n: int = 96
    coarse_n: int = 64
    half_width: float = 1.0
    receivers: int = None  # None: the default count of `boundary_receivers` on the coarse grid
    inhomogeneous: bool = False
    noise_level: float = 0.01
    seed: int = 0
    solver_options: AlmOptions | SsnOptions | PdaOptions = field(default_factory=dict)
    output_dir: str = None  # given as any path (str or os.PathLike), kept as its string

    def __post_init__(self):
        if self.solver not in SOLVER_OPTIONS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.fine_n == self.coarse_n:
            raise ValueError("inverse-crime guard: fine and coarse grids must differ")
        check_finite("noise_level", self.noise_level, "nonnegative")
        check_integer("seed", self.seed, 0)
        check_bool("inhomogeneous", self.inhomogeneous)
        if not isinstance(self.output_dir, (str, os.PathLike, type(None))):
            raise ValueError(f"output_dir must be a path or None, got {self.output_dir!r}")
        self.output_dir = None if self.output_dir is None else os.fspath(self.output_dir)
        self.phantom = _build(PhantomSpec, self.phantom, "phantom keys")
        self.solver_options = _build(SOLVER_OPTIONS[self.solver], self.solver_options, f"{self.solver} options")
        Grid(dim=self.dim, n_per_axis=self.fine_n, half_width=self.half_width)
        RegParams(alpha=self.alpha, alpha0=self.alpha0)
        coarse_problem(self)

    @classmethod
    def from_dict(cls, data):
        """Build from a JSON-style dict, rejecting unknown keys at every level."""
        return _build(cls, data, "config keys")

    @classmethod
    def from_json(cls, path):
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def to_dict(self):
        """The config as JSON-style values, every option included: `from_dict` rebuilds an equal config."""
        return asdict(self)


def _build(cls, value, what):
    """`value` as an instance of the dataclass `cls`: as it is if it is one, else built from the dict
    `value`, which must name every field of `cls` without a default and no other (the others are `what`)."""
    if isinstance(value, cls):
        return value
    if not isinstance(value, dict):
        raise ValueError(f"expected a {cls.__name__} or a dict, got {type(value).__name__}")
    unknown = set(value) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {what}: {sorted(unknown)}")
    missing = [f.name for f in fields(cls)
               if f.name not in value and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {what}: {missing}")
    return cls(**value)


@dataclass
class ExperimentResult:
    """The N-Error of a run, its phase wall times, the exact source on the coarse grid, the
    solver's own `SolveResult` and the paths of the files `run_experiment` wrote."""

    n_error: float
    wall_times: dict
    solved: SolveResult = field(repr=False)
    mu_exact: np.ndarray = field(repr=False)
    output_paths: dict = field(default_factory=dict)


def add_noise(u_b, delta, seed):
    """Additive complex Gaussian noise scaled to delta * ||u_b||.

    Draws one standard normal per realified component from a PCG64
    generator seeded with `seed`, so noise streams are reproducible
    bit-for-bit.  u_b must be a realified vector (`realfield.complex_dim`).
    """
    u_b = np.asarray(u_b, dtype=float)
    check_finite("noise level", delta, "nonnegative")
    complex_dim(u_b)  # rejects all but a 1-D vector of even length
    if delta == 0:
        return u_b.copy()
    rng = np.random.Generator(np.random.PCG64(seed))
    return u_b + delta * np.linalg.norm(u_b) * rng.standard_normal(u_b.size)


def n_error(mu_rec, mu_exact):
    """Relative L2 reconstruction error against the exact source; both must be 1-D of one length."""
    mu_rec, mu_exact = np.asarray(mu_rec, dtype=float), np.asarray(mu_exact, dtype=float)
    if mu_rec.ndim != 1 or mu_rec.shape != mu_exact.shape:
        raise ValueError(f"mu_rec and mu_exact must be 1-D of one length, "
                         f"got shapes {mu_rec.shape} and {mu_exact.shape}")
    denom = np.linalg.norm(mu_exact)
    if denom == 0:
        raise ValueError("exact source is zero; relative error undefined")
    return float(np.linalg.norm(mu_rec - mu_exact) / denom)


def restrict_to_coarse(mu_fine, fine_grid, coarse_grid):
    """Mass-preserving cell-average restriction of a realified source field.

    Fine cells are binned by the coarse cell containing their center; the
    coarse density is the binned mass divided by the coarse cell volume,
    so integrals (and hence point-source strengths) are preserved.
    `mu_fine` must have shape (2 * fine_grid.num_nodes,).
    """
    if fine_grid.dim != coarse_grid.dim or fine_grid.half_width != coarse_grid.half_width:
        raise ValueError("grids must describe the same box")
    mu_fine = np.asarray(mu_fine, dtype=float)
    n_fine = fine_grid.num_nodes
    if mu_fine.shape != (2 * n_fine,):
        raise ValueError(f"mu_fine must have shape ({2 * n_fine},) to match the fine grid, got {mu_fine.shape}")
    bins = np.clip(
        np.floor((fine_grid.axis_centers() + coarse_grid.half_width) / coarse_grid.spacing),
        0,
        coarse_grid.n_per_axis - 1,
    ).astype(int)
    scale = (fine_grid.spacing / coarse_grid.spacing) ** fine_grid.dim

    def restrict_block(block):
        out = np.zeros(coarse_grid.shape)
        idx = np.meshgrid(*([bins] * fine_grid.dim), indexing="ij")
        np.add.at(out, tuple(idx), block.reshape(fine_grid.shape))
        return scale * out.ravel()

    return np.concatenate([restrict_block(mu_fine[:n_fine]), restrict_block(mu_fine[n_fine:])])


def _run_solver(config, vb, u_b):
    """Run the configured solver and return its `SolveResult`."""
    # looked up at call time, so that rebinding harness.solve_* (as a tracer does) takes effect
    solve = {"alm": solve_alm, "ssn": solve_ssn, "pda": solve_pda}[config.solver]
    reg = RegParams(alpha=config.alpha, alpha0=config.alpha0)
    return solve(vb, u_b, reg, options=config.solver_options)


def _export(config, result, coarse_grid):
    out = Path(config.output_dir)
    paths = {"config": out / "config.json", "diagnostics": out / "diagnostics.jsonl"}
    write_json(paths["config"], config.to_dict())
    solved = result.solved
    write_jsonl(paths["diagnostics"], solved.records)
    paths["mu_csv"], paths["mu_pgm"], *slices = write_field(out / "mu_rec", coarse_grid, solved.mu[: coarse_grid.num_nodes])
    paths.update((p.stem, p) for p in slices)  # 3D: the slices after z000, keyed mu_rec_z001, ...
    paths["result"] = out / "result.json"
    write_json(
        paths["result"],
        {
            "n_error": result.n_error,
            "wall_times": result.wall_times,
            "solver": config.solver,
            **{key: getattr(solved, key) for key in ("iterations", "converged", "stop_reason", "gap", "bound")},
            "seed": config.seed,
            "rng": RNG_NAME,
            "versions": {"numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas_libraries(),
                         "fft": fft_backend()},
        },
    )
    result.output_paths = {k: str(v) for k, v in paths.items()}


# the symbol that reports the thread count of numpy's OpenBLAS (64-bit integers, suffixed) and scipy's
_BLAS_THREAD_SYMBOLS = {"numpy": "scipy_openblas_get_num_threads64_", "scipy": "scipy_openblas_get_num_threads"}


def _blas_libraries():
    """The BLAS library of numpy and that of scipy: {"library": "<name> <version>", "threads": count}.

    They are two libraries, each with its own thread pool: the wheels of
    numpy and scipy each bring their own OpenBLAS.  The thread count is
    read from the OpenBLAS mapped into this process by the symbol of
    `_BLAS_THREAD_SYMBOLS`, and is None where none exports it.
    """
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")})
    except OSError:  # not Linux
        paths = []
    libraries = [ctypes.CDLL(path) for path in paths]
    versions = {}
    for module in (np, scipy):
        symbol = _BLAS_THREAD_SYMBOLS[module.__name__]
        getters = [getattr(lib, symbol) for lib in libraries if hasattr(lib, symbol)]
        threads = None
        if getters:
            getters[0].argtypes, getters[0].restype = [], ctypes.c_int
            threads = getters[0]()
        library = "{name} {version}".format(**module.show_config(mode="dicts")["Build Dependencies"]["blas"])
        versions[module.__name__] = {"library": library, "threads": threads}
    return versions


def coarse_problem(config):
    """The coarse grid, its medium and the receivers of `config`: the inputs of `assemble_vb`."""
    coarse = Grid(dim=config.dim, n_per_axis=config.coarse_n, half_width=config.half_width)
    receivers = boundary_receivers(coarse, config.receivers)
    return coarse, make_medium(coarse, config.wavenumber, config.inhomogeneous), receivers


def load_or_assemble(config, coarse, medium, receivers):
    """The operator of `config`: loaded from `<output_dir>/vb.cache` when that cache is valid,
    otherwise assembled and, when there is an output directory, saved there atomically."""
    cache_path = Path(config.output_dir) / "vb.cache" if config.output_dir else None
    vb = None if cache_path is None else load_vb_cache(cache_path, coarse, medium, receivers)
    if vb is None:
        vb = assemble_vb(coarse, medium, receivers)
        if cache_path is not None:
            save_vb_cache(cache_path, vb, coarse, medium, receivers)
    return vb


@contextmanager
def _phase(name, times=None):
    """Record the phase's wall time in `times` (when given); re-raise its failure as ExperimentError."""
    t0 = time.perf_counter()
    try:
        yield
    except Exception as exc:
        raise ExperimentError(name, exc) from exc
    if times is not None:
        times[name] = time.perf_counter() - t0


def run_experiment(config):
    """Simulate, add noise, assemble (or load) the operator, solve, and score."""
    fine = Grid(dim=config.dim, n_per_axis=config.fine_n, half_width=config.half_width)
    coarse, medium_coarse, receivers = coarse_problem(config)
    times = {}
    with _phase("simulate", times):
        mu_exact_fine = make_phantom(config.phantom, fine)
        medium_fine = make_medium(fine, config.wavenumber, config.inhomogeneous)
        u_b = source_to_measurement(fine, medium_fine, receivers, mu_exact_fine)
    u_noisy = add_noise(u_b, config.noise_level, config.seed)
    with _phase("assembly", times):
        vb = load_or_assemble(config, coarse, medium_coarse, receivers)
    with _phase("solve", times):
        solved = _run_solver(config, vb, u_noisy)
    with _phase("metric"):
        mu_exact_coarse = restrict_to_coarse(mu_exact_fine, fine, coarse)
        err = n_error(solved.mu, mu_exact_coarse)
    result = ExperimentResult(n_error=err, wall_times=times, solved=solved, mu_exact=mu_exact_coarse)
    if config.output_dir:
        with _phase("export"):
            _export(config, result, coarse)
    return result


def _source_label(config):
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
    """Run a list of experiments in order and tabulate Method/Source/Medium/Time/N-Error.

    Per-row failures are recorded in the table and do not stop the suite.
    The experiments run one after another; `workers` must be 1.
    """
    if workers != 1:
        raise ValueError(f"run_suite runs its experiments sequentially; workers must be 1, got {workers}")
    outcomes = [_suite_row(config) for config in configs]
    rows = [row for row, _ in outcomes]
    results = [result for _, result in outcomes]
    if csv_path is not None:
        write_suite_csv(csv_path, rows)
    return rows, results
