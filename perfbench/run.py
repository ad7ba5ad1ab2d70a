"""Reconstruction benchmark: runs the real sparsescat pipeline and times it.

    python3 perfbench/run.py --workload desk-homo-alm --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each

Each repetition calls `sparsescat.harness.run_suite(configs, workers=1)`:
fine-grid simulate, coarse-grid assembly or cache load, solve, N-Error,
export.  With --trace 0 the run prints the end-to-end metrics; with
--trace 1 it runs untraced repetitions, then one repetition with the
layer functions wrapped (see layers.py), and prints the per-layer
metrics.  The last line of standard output is one JSON object; the full
record of the run goes to .perfbench/results/.  See README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# neither module imports numpy, which must load only after main() has applied --threads
import layers
from tracer import Tracer, span_cost

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
PHASES = ("simulate", "assembly", "solve")

# Criterion-7 desk geometry: one Dirac peak centred on a fine-grid node.
ALIGNED = 94.5 / 192.0
DESK = dict(
    alpha=9e-4, alpha0=1e-7, dim=2, wavenumber=6.0, fine_n=192, coarse_n=64, half_width=3.0,
    noise_level=0.01,
    phantom=dict(kind="peaks", count=1, amplitude=4.0, dirac_scaling=True, positions=((ALIGNED, ALIGNED),)),
)
ALM = dict(solver="alm", alpha=9e-4, alpha0=1e-7)
SSN = dict(solver="ssn", alpha=9e-4, alpha0=1e-7)
PDA = dict(solver="pda", alpha=9e-5, alpha0=1e-12, solver_options={"sigma": 0.005, "iters": 5000})

ALM_GATE = 0.15  # criterion 7
PDA_GATE = 0.2  # criterion 7
# No criterion covers M = 64; at noise seed 123 SSN reads 0.225711 and ALM 0.220785.
M64_GATE = 0.25

END_TO_END = {
    "recon_s": "s", "suite_time_s": "s", "n_error.alm": "ratio", "n_error.worst": "ratio",
    "peak_rss_mb": "MB", "setup_s": "s", "pass_rate": "ratio",
}


@dataclass(frozen=True)
class Workload:
    receivers: int
    inhomogeneous: bool
    runs: tuple
    gates: dict
    primed: bool  # True: one vb.cache written in setup and shared; False: empty dir per repetition
    expect: tuple  # per-layer metrics that must be nonzero in the traced repetition


_ALWAYS = ("forward.kernel_points", "forward.receiver_potential_s", "alm.newton_steps", "export.bytes")
WORKLOADS = {
    "desk-homo-alm": Workload(
        256, False, (ALM,), {"alm": ALM_GATE}, False,
        _ALWAYS + ("forward.cache_misses", "forward.cache_save_s"),
    ),
    "desk-bump-alm": Workload(
        256, True, (ALM,), {"alm": ALM_GATE}, False,
        _ALWAYS + ("forward.cache_misses", "forward.cache_save_s", "forward.gmres_solves", "forward.fft_matvecs"),
    ),
    "m64-solvers-warm": Workload(
        64, False, (SSN, ALM, PDA), {"ssn": M64_GATE, "alm": M64_GATE, "pda": PDA_GATE}, True,
        _ALWAYS + ("forward.cache_hits", "ssn.newton_solves", "pda.iterations"),
    ),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0,
                   help="workload seed; recorded only, the configs are fixed (see README.md)")
    p.add_argument("--noise-seed", type=int, default=123, help="seed of the measurement noise")
    p.add_argument("--seconds", type=float, default=38.0, help="time budget of the measured repetitions")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=None,
                   help="set every BLAS/OpenMP thread-count variable (default: library default)")
    return p.parse_args(argv)


def import_sparsescat():
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "sparsescat" / "__init__.py").is_file():
        raise ImportError(f"no sparsescat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import sparsescat.harness as harness

    if Path(harness.__file__).resolve().parent != SRC / "sparsescat":
        raise ImportError(f"sparsescat imported from {harness.__file__}, not from {SRC}")
    return harness


def environment():
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line and line.rstrip().endswith(".so")})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                threads = fn()
                break
        if threads is not None:
            break
    return {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}", "blas_threads": threads, "nproc": os.cpu_count(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS if v in os.environ},
    }


def make_configs(harness, workload, noise_seed, out_dir):
    configs = []
    for run in workload.runs:
        fields = {**DESK, **run, "receivers": workload.receivers, "inhomogeneous": workload.inhomogeneous,
                  "seed": noise_seed, "output_dir": str(out_dir)}
        configs.append(harness.ExperimentConfig.from_dict(json.loads(json.dumps(fields))))
    return configs


def prime_cache(config):
    """Write the vb.cache that run_experiment will load for `config` (same grid, medium, receivers)."""
    from sparsescat.forward import assemble_vb, save_vb_cache
    from sparsescat.grid import Grid, boundary_receivers
    from sparsescat.phantoms import make_medium

    coarse = Grid(dim=config.dim, n_per_axis=config.coarse_n, half_width=config.half_width)
    medium = make_medium(coarse, config.wavenumber, config.inhomogeneous)
    receivers = boundary_receivers(coarse, config.receivers)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_vb_cache(out / "vb.cache", assemble_vb(coarse, medium, receivers), coarse, medium, receivers)


def set_up(workload, configs, out_dir):
    """One set-up: a fresh interpreter importing the package, then the work directory (and cache)."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import sparsescat.harness"], check=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    shutil.rmtree(out_dir, ignore_errors=True)
    if workload.primed:
        prime_cache(configs[0])
    return time.perf_counter() - t0


def repetition(harness, workload, configs, out_dir):
    """Run the workload's configs through run_suite once; returns timings, N-Errors and failures."""
    cache = out_dir / "vb.cache"
    if not workload.primed:
        shutil.rmtree(out_dir, ignore_errors=True)
    before = cache.stat() if workload.primed else None
    t0 = time.perf_counter()
    rows, results = harness.run_suite(configs, workers=1)
    recon = time.perf_counter() - t0
    rep = {"recon_s": recon, "suite_time_s": 0.0, "phases": dict.fromkeys(PHASES, 0.0),
           "n_error": {}, "failures": []}  # failures: [solver, reason]
    for config, row, result in zip(configs, rows, results):
        if result is None:
            rep["failures"].append([config.solver, row["N-Error"]])
            continue
        for phase in PHASES:
            rep["phases"][phase] += result.wall_times[phase]
        rep["suite_time_s"] += result.wall_times["assembly"] + result.wall_times["solve"]
        rep["n_error"][config.solver] = result.n_error
        gate = workload.gates[config.solver]
        if result.n_error > gate:
            rep["failures"].append([config.solver, f"N-Error {result.n_error!r} above gate {gate}"])
    # the first run of a repetition is the one that loads (primed) or writes (fresh) vb.cache
    after = cache.stat() if cache.exists() else None
    if workload.primed and (after is None or (after.st_mtime_ns, after.st_size) != (before.st_mtime_ns, before.st_size)):
        rep["failures"].append([configs[0].solver, "vb.cache was rewritten: the primed cache missed"])
    if not workload.primed and after is None:
        rep["failures"].append([configs[0].solver, "vb.cache was not written"])
    return rep


def failed_runs(reps):
    return sum(len({solver for solver, _ in rep["failures"]}) for rep in reps)


def check_determinism(reps):
    """Every N-Error must repeat bit for bit across the repetitions of one run."""
    first = {}
    for rep in reps:
        for solver, value in rep["n_error"].items():
            ref = first.setdefault(solver, value)
            if value != ref:
                rep["failures"].append([solver, f"N-Error {value!r} differs from first repetition {ref!r}"])


def measure(harness, workload, configs, out_dir, seconds):
    """Repeat while one more repetition of the mean length still fits in `seconds` (at least once)."""
    reps = []
    t0 = time.perf_counter()
    while True:
        reps.append(repetition(harness, workload, configs, out_dir))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def end_to_end(reps, setup_times, attempted, failed):
    # a run without any N-Error (all raised) scores 1.0, the error of a zero reconstruction
    worst = [max(rep["n_error"].values()) for rep in reps if rep["n_error"]] or [1.0]
    alm = [rep["n_error"]["alm"] for rep in reps if "alm" in rep["n_error"]] or [1.0]
    return {
        "recon_s": statistics.median(rep["recon_s"] for rep in reps),
        "suite_time_s": statistics.median(rep["suite_time_s"] for rep in reps),
        "n_error.alm": statistics.median(alm),
        "n_error.worst": statistics.median(worst),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
        "pass_rate": 1.0 - failed / attempted,
    }


def traced_repetition(harness, workload, configs, out_dir):
    """One repetition with every layer wrapped; fails if a wrapper survives or an expected layer is silent."""
    with Tracer() as tracer:
        layers.install(tracer)
        rep = repetition(harness, workload, configs, out_dir)
    if not layers.originals_restored():
        raise RuntimeError("a wrapped attribute was not restored after the traced repetition")
    metrics = layers.traced_metrics(tracer)
    silent = [name for name in workload.expect if not metrics[name]]
    if silent:
        raise RuntimeError(f"expected layers recorded zero calls: {', '.join(silent)}")
    return rep, metrics, tracer


def per_layer(harness, workload, configs, out_dir, seconds, record):
    """Untraced repetitions for half the time, then one traced repetition."""
    set_up(workload, configs, out_dir)
    reps = measure(harness, workload, configs, out_dir, seconds / 2)
    traced, metrics, tracer = traced_repetition(harness, workload, configs, out_dir)
    recon = statistics.median(rep["recon_s"] for rep in reps)
    for phase in PHASES:
        metrics[f"harness.{phase}_s"] = statistics.median(rep["phases"][phase] for rep in reps)
    metrics["harness.other_s"] = recon - sum(metrics[f"harness.{phase}_s"] for phase in PHASES)
    metrics["trace.recon_s"] = traced["recon_s"]
    metrics["trace.overhead_s"] = traced["recon_s"] - recon
    metrics["trace.span_cost_us"] = 1e6 * span_cost()
    record["span_summary"] = tracer.summary()
    record["spans"] = [span[:4] for span in tracer.spans]  # name, start, end, parent index
    return reps + [traced], {key: metrics[key] for key in layers.PER_LAYER}


def run_workload(args):
    name = args.workload
    workload = WORKLOADS[name]
    t_import = time.perf_counter()
    harness = import_sparsescat()
    t_import = time.perf_counter() - t_import
    env = environment()
    out_dir = WORK / "work" / f"{name}-{os.getpid()}"
    configs = make_configs(harness, workload, args.noise_seed, out_dir)
    record = {"workload": name, "seed": args.seed, "noise_seed": args.noise_seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "in_process_import_s": t_import}
    try:
        if args.trace:
            reps, metrics = per_layer(harness, workload, configs, out_dir, args.seconds, record)
            units = layers.PER_LAYER
        else:
            record["setup_times"] = [set_up(workload, configs, out_dir) for _ in range(SETUP_REPEATS)]
            reps = measure(harness, workload, configs, out_dir, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    check_determinism(reps)
    attempted, failed = len(reps) * len(workload.runs), failed_runs(reps)
    if not args.trace:
        metrics = end_to_end(reps, record["setup_times"], attempted, failed)
    record.update(reps=reps, metrics=metrics)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{name}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, default=str)

    print(f"workload {name}: {len(reps)} repetitions, noise seed {args.noise_seed}, "
          f"BLAS {env['blas']} with {env['blas_threads']} threads, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"python {env['python']}, {env['nproc']} cpus")
    for rep in reps:
        for solver, value in rep["n_error"].items():
            print(f"  n_error.{solver} {value!r}")
        for solver, reason in rep["failures"]:
            print(f"  FAILED {solver}: {reason}")
    for key, unit in units.items():
        print(f"{key} {metrics[key]!r} {unit}")
    print(f"fail_rate {failed / attempted!r} ratio")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def run_all(args):
    """Run every workload in its own process (peak RSS is per process) and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--noise-seed", str(args.noise_seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.threads is not None:
            cmd += ["--threads", str(args.threads)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{key}": value for key, value in result["metrics"].items()})
    return merged


def main(argv=None):
    args = parse_args(argv)
    if args.threads is not None:
        os.environ.update({var: str(args.threads) for var in THREAD_VARS})
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    except (ImportError, LookupError, RuntimeError, OSError, subprocess.CalledProcessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
