"""Which functions of sparsescat the traced run wraps, and the per-layer metrics.

Functions that a module imports by name (`assemble_vb`, `solve_*`,
the cache functions and `_export` in `harness`) are wrapped in the
namespace that calls them; functions called through their own module's
globals are wrapped there.  This module imports no numpy, so that the
benchmark can set BLAS thread counts before numpy loads.
"""

import importlib
import math
import os


def _kernel_points(args, kwargs, result):
    return int((args[1] if len(args) > 1 else kwargs["r"]).size)


def _active_cols(args, kwargs, result):
    y, lam, sigma, vb, reg = args[:5]
    vt_y = kwargs.get("vt_y")
    if vt_y is None:
        vt_y = vb.T @ y
    active = int((abs(lam + sigma * vt_y) > sigma * reg.alpha).sum())
    return active, vb.shape[0]


def _nbytes(args, kwargs, result):
    return 0 if result is None else int(result.nbytes)


def _alm_result(args, kwargs, result):
    beta = kwargs["options"].beta  # the harness always passes AlmOptions
    steps = [r["step"] for r in result.records if r.get("kind") == "inner"]
    backtracks = sum(round(math.log(s) / math.log(beta)) for s in steps)
    return {"outer_iters": result.outer_iters, "backtracks": backtracks}


def _ssn_result(args, kwargs, result):
    return max((r["active"] for r in result.records), default=0)


def _b_bytes(args, kwargs, result):
    return int(result.matrix.nbytes + result.factor[0].nbytes)


def _export_bytes(args, kwargs, result):
    return sum(os.path.getsize(p) for p in args[1].output_paths.values())


# (module, attribute, span name, note computed from (args, kwargs, result))
WRAPS = (
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "assemble_vb", "forward.assemble_vb", _nbytes),
    ("harness", "load_vb_cache", "forward.load_vb_cache", _nbytes),
    ("harness", "save_vb_cache", "forward.save_vb_cache", None),
    ("harness", "solve_alm", "alm.solve_alm", _alm_result),
    ("harness", "solve_ssn", "ssn.solve_ssn", _ssn_result),
    ("harness", "solve_pda", "pda.solve_pda", lambda a, k, r: r.iterations),
    ("harness", "_export", "export.write", _export_bytes),
    ("forward", "fundamental_solution", "forward.fundamental_solution", _kernel_points),
    ("forward", "evaluate_potential_at", "forward.evaluate_potential_at", None),
    ("forward", "_gmres_solve", "forward.gmres_solve", None),
    ("forward", "volume_potential_fft", "forward.volume_potential_fft", None),
    ("alm", "newton_step", "alm.newton_step", None),
    ("alm", "newton_matrix", "alm.newton_matrix", _active_cols),
    ("alm", "armijo_search", "alm.armijo_search", None),
    ("alm", "lagrangian_value", "alm.lagrangian_value", None),
    ("ssn", "build_b_operator", "ssn.build_b_operator", _b_bytes),
    ("ssn", "path_follow", "ssn.path_follow", None),
    ("ssn", "ssn_newton_solve", "ssn.ssn_newton_solve", None),
    ("pda", "default_steps", "pda.default_steps", None),
    ("pda", "pda_dual_step", "pda.pda_dual_step", None),
    ("pda", "pda_primal_step", "pda.pda_primal_step", None),
)

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "harness.simulate_s": "s", "harness.assembly_s": "s", "harness.solve_s": "s", "harness.other_s": "s",
    "forward.kernel_s": "s", "forward.kernel_points": "count", "forward.receiver_potential_s": "s",
    "forward.gmres_solves": "count", "forward.gmres_s": "s", "forward.fft_matvecs": "count",
    "forward.fft_s": "s", "forward.fft_per_solve": "count", "forward.assemble_s": "s",
    "forward.cache_hits": "count", "forward.cache_misses": "count", "forward.cache_load_s": "s",
    "forward.cache_save_s": "s", "forward.operator_bytes": "bytes",
    "alm.solve_s": "s", "alm.outer_iters": "count", "alm.newton_steps": "count",
    "alm.newton_step_s": "s", "alm.newton_matrix_s": "s", "alm.active_cols_sum": "count",
    "alm.active_cols_max": "count", "alm.gram_flops": "flop", "alm.line_search_s": "s",
    "alm.backtracks": "count", "alm.lagrangian_evals": "count",
    "ssn.solve_s": "s", "ssn.build_b_s": "s", "ssn.path_s": "s", "ssn.newton_solves": "count",
    "ssn.newton_solve_s": "s", "ssn.active_max": "count", "ssn.b_bytes": "bytes",
    "pda.solve_s": "s", "pda.iterations": "count", "pda.iter_us": "us", "pda.step_size_s": "s",
    "pda.dual_step_s": "s", "pda.primal_step_s": "s",
    "export.write_s": "s", "export.bytes": "bytes",
    "trace.recon_s": "s", "trace.overhead_s": "s", "trace.spans": "count", "trace.span_cost_us": "us",
}

# exact counts: two traced runs of one workload must agree on these
COUNTS = (
    "forward.kernel_points", "forward.gmres_solves", "forward.fft_matvecs", "alm.newton_steps",
    "alm.active_cols_sum", "ssn.newton_solves", "pda.iterations",
)


def install(tracer, package="sparsescat"):
    """Wrap every function in WRAPS; on a missing attribute, undo and re-raise."""
    try:
        for module, attr, name, note in WRAPS:
            tracer.wrap(importlib.import_module(f"{package}.{module}"), attr, name, note)
    except LookupError:
        tracer.restore()
        raise


def originals_restored(package="sparsescat"):
    """True when no WRAPS attribute is still a Tracer wrapper."""
    return not any(
        hasattr(getattr(importlib.import_module(f"{package}.{module}"), attr), "span_name")
        for module, attr, _, _ in WRAPS
    )


def traced_metrics(tracer):
    """Per-layer metrics of the spans in `tracer` (the harness.* and trace.* ones excepted)."""
    summary = tracer.summary()

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    actives = tracer.notes("alm.newton_matrix")
    alm_runs = tracer.notes("alm.solve_alm")
    operators = tracer.notes("forward.assemble_vb") + [n for n in tracer.notes("forward.load_vb_cache") if n]
    pda_iters = sum(tracer.notes("pda.solve_pda"))
    gmres = calls("forward.gmres_solve")
    return {
        "forward.kernel_s": total("forward.fundamental_solution"),
        "forward.kernel_points": sum(tracer.notes("forward.fundamental_solution")),
        "forward.receiver_potential_s": total("forward.evaluate_potential_at"),
        "forward.gmres_solves": gmres,
        "forward.gmres_s": total("forward.gmres_solve"),
        "forward.fft_matvecs": calls("forward.volume_potential_fft"),
        "forward.fft_s": total("forward.volume_potential_fft"),
        "forward.fft_per_solve": (
            tracer.count_children("forward.volume_potential_fft", "forward.gmres_solve") / gmres if gmres else 0.0
        ),
        "forward.assemble_s": total("forward.assemble_vb"),
        "forward.cache_hits": sum(1 for n in tracer.notes("forward.load_vb_cache") if n),
        "forward.cache_misses": calls("forward.assemble_vb"),
        "forward.cache_load_s": total("forward.load_vb_cache"),
        "forward.cache_save_s": total("forward.save_vb_cache"),
        "forward.operator_bytes": max(operators, default=0),
        "alm.solve_s": total("alm.solve_alm"),
        "alm.outer_iters": sum(r["outer_iters"] for r in alm_runs),
        "alm.newton_steps": calls("alm.newton_step"),
        "alm.newton_step_s": total("alm.newton_step"),
        "alm.newton_matrix_s": total("alm.newton_matrix"),
        "alm.active_cols_sum": sum(a for a, _ in actives),
        "alm.active_cols_max": max((a for a, _ in actives), default=0),
        "alm.gram_flops": sum(2 * m2 * m2 * a for a, m2 in actives),
        "alm.line_search_s": total("alm.armijo_search"),
        "alm.backtracks": sum(r["backtracks"] for r in alm_runs),
        "alm.lagrangian_evals": calls("alm.lagrangian_value"),
        "ssn.solve_s": total("ssn.solve_ssn"),
        "ssn.build_b_s": total("ssn.build_b_operator"),
        "ssn.path_s": total("ssn.path_follow"),
        "ssn.newton_solves": calls("ssn.ssn_newton_solve"),
        "ssn.newton_solve_s": total("ssn.ssn_newton_solve"),
        "ssn.active_max": max(tracer.notes("ssn.solve_ssn"), default=0),
        "ssn.b_bytes": max(tracer.notes("ssn.build_b_operator"), default=0),
        "pda.solve_s": total("pda.solve_pda"),
        "pda.iterations": pda_iters,
        "pda.iter_us": (
            1e6 * (total("pda.solve_pda") - total("pda.default_steps")) / pda_iters if pda_iters else 0.0
        ),
        "pda.step_size_s": total("pda.default_steps"),
        "pda.dual_step_s": total("pda.pda_dual_step"),
        "pda.primal_step_s": total("pda.pda_primal_step"),
        "export.write_s": total("export.write"),
        "export.bytes": sum(tracer.notes("export.write")),
        "trace.spans": len(tracer.spans),
    }
