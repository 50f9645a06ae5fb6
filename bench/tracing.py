"""Span tracing of the dds layers, installed from outside the package.

The loops look their collaborators up as module attributes at call time,
so replacing those attributes with timing wrappers traces every call
without changing a file of the package. Each span records its name, start,
end, parent span and the time its child spans cover; self time is the
duration minus that child time. Spans stay in memory and are reduced to
per-layer metrics after each operation. ``installed`` restores every
replaced attribute on exit.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from types import ModuleType

# (module, attribute, span name); the loops resolve these at call time.
MODULE_HOOKS = (
    ("operators", "fft2", "tensor.fft"),
    ("operators", "ifft2", "tensor.fft"),
    ("operators", "check_finite", "tensor.finite_check"),
    ("operators", "sense_apply", "operators.forward"),
    ("operators", "radon_apply", "operators.forward"),
    ("operators", "sense_adjoint", "operators.adjoint"),
    ("operators", "radon_adjoint", "operators.adjoint"),
    ("operators", "diff_z_apply", "operators.diff_z"),
    ("operators", "diff_z_adjoint", "operators.diff_z"),
    ("samplers", "cg", "krylov.cg"),
    ("samplers", "pseudo_inverse_apply", "samplers.pinv"),
    ("samplers", "ddnm_step", "samplers.ddnm_step"),
    ("samplers", "vp_ddim_step", "diffusion.ddim"),
    ("samplers", "ve_ddim_step", "diffusion.ddim"),
    ("samplers", "estimate_noise", "samplers.estimate_noise"),
    ("admm", "cg", "krylov.cg"),
    ("admm", "admm_tv_dc", "admm.sweep"),
    ("admm", "diff_z_apply", "operators.diff_z"),
    ("admm", "diff_z_adjoint", "operators.diff_z"),
    ("admm", "vp_ddim_step", "diffusion.ddim"),
    ("admm", "ve_ddim_step", "diffusion.ddim"),
    ("experiments", "dds_reconstruct", "samplers.loop"),
    ("experiments", "dds_3d_reconstruct", "samplers.loop"),
    ("experiments", "evaluate", "experiments.evaluate"),
    ("experiments", "build_problem", "experiments.build_problem"),
    ("experiments", "make_mask", "operators.make_mask"),
    ("experiments", "make_coil_maps", "operators.coil_maps"),
    ("dtf", "write_dtf", "dtf.write"),
)

# Data-consistency spans: their time counts in samplers.dc_s when the loop
# itself called them.
DC_SPANS = ("krylov.cg", "samplers.ddnm_step", "samplers.pinv", "admm.sweep")

# Count metrics: exact for a given seed, compared between two runs of one
# operation.
COUNT_SUFFIXES = ("_calls", "_iterations", "sweeps", "_bytes", "matvecs", "_solves")


def _cg_outcome(args, kwargs, out):
    """(iterations, solved with a tolerance, tolerance reached) of one cg call."""
    tol = kwargs.get("tol", args[4] if len(args) > 4 else 0.0)
    report = out[1]
    return report.iterations, tol > 0, tol > 0 and report.residual_norms[-1] <= tol


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, child seconds, outcome]
        self._stack = []

    def wrap(self, name, fn, outcome=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
                if parent >= 0:
                    spans[parent][4] += span[2] - span[1]
            if outcome is not None:
                span[5] = outcome(args, kwargs, out)
            return out

        return traced

    def take(self):
        spans, self.spans = self.spans, []
        return spans


_MISSING = object()


@contextmanager
def installed(tracer: Tracer, dds, problem=None):
    """Wrap the layer entry points of ``dds`` (and of ``problem``) for the block.

    ``dds`` maps module names to the imported dds modules. With a problem,
    its operator's apply/adjoint (the matvecs), its denoiser and its prior's
    distance are wrapped on the instances.
    """
    restore = []

    def hook(owner, attr, name, outcome=None):
        restore.append((owner, attr, vars(owner).get(attr, _MISSING)))
        wrapped = tracer.wrap(name, getattr(owner, attr), outcome)
        if isinstance(owner, (type, ModuleType)):
            setattr(owner, attr, wrapped)
        else:  # reaches frozen dataclasses (the priors) too
            object.__setattr__(owner, attr, wrapped)

    try:
        for module, attr, name in MODULE_HOOKS:
            hook(dds[module], attr, name, _cg_outcome if attr == "cg" else None)
        hook(dds["samplers"].SamplerTrace, "to_csv", "samplers.trace_csv")
        if problem is not None:
            hook(problem.a, "apply", "linear_map.apply")
            hook(problem.a, "adjoint", "linear_map.adjoint")
            hook(problem.denoiser, "denoise", "diffusion.denoise")
            hook(problem.prior, "distance", "samplers.prior_distance")
        yield tracer
    finally:
        for owner, attr, saved in reversed(restore):
            if saved is _MISSING:
                object.__delattr__(owner, attr)
            else:
                setattr(owner, attr, saved)


def _totals(spans):
    """name -> [calls, inclusive seconds, self seconds]."""
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for name, start, end, _parent, child, _outcome in spans:
        t = totals[name]
        t[0] += 1
        t[1] += end - start
        t[2] += end - start - child
    return totals


def operation_metrics(spans, dtf_bytes: int) -> dict:
    """Per-layer metrics of one traced operation."""
    tot = _totals(spans)
    loops = {i for i, s in enumerate(spans) if s[0] == "samplers.loop"}
    dc_s = trace_s = 0.0
    iterations = tol_solves = tol_reached = 0
    for name, start, end, parent, _child, outcome in spans:
        if parent in loops and name in DC_SPANS:
            dc_s += end - start
        # trace bookkeeping: noise estimate, subspace distance, and the
        # residual's forward apply, which the loop makes itself
        if name in ("samplers.estimate_noise", "samplers.prior_distance") or (
                parent in loops and name == "linear_map.apply"):
            trace_s += end - start
        if outcome is not None:
            iterations += outcome[0]
            tol_solves += outcome[1]
            tol_reached += outcome[2]
    matvecs = tot["linear_map.apply"][0] + tot["linear_map.adjoint"][0]
    # tensor.*, operators.* and *_self_s times are self times (a SENSE
    # apply's FFT counts in tensor.fft_s only); the other times include
    # their children.
    return {
        "tensor.fft_calls": tot["tensor.fft"][0],
        "tensor.fft_s": tot["tensor.fft"][2],
        "tensor.finite_check_calls": tot["tensor.finite_check"][0],
        "tensor.finite_check_s": tot["tensor.finite_check"][2],
        "operators.matvecs": matvecs,
        "operators.forward_calls": tot["operators.forward"][0],
        "operators.adjoint_calls": tot["operators.adjoint"][0],
        "operators.forward_s": tot["operators.forward"][2],
        "operators.adjoint_s": tot["operators.adjoint"][2],
        "operators.diff_z_calls": tot["operators.diff_z"][0],
        "operators.diff_z_s": tot["operators.diff_z"][2],
        "krylov.cg_calls": tot["krylov.cg"][0],
        "krylov.cg_iterations": iterations,
        "krylov.cg_s": tot["krylov.cg"][1],
        "krylov.cg_self_s": tot["krylov.cg"][2],
        "krylov.cg_tol_solves": tol_solves,
        "krylov.cg_tol_reached_ratio": tol_reached / tol_solves if tol_solves else 0.0,
        "diffusion.denoise_calls": tot["diffusion.denoise"][0],
        "diffusion.denoise_s": tot["diffusion.denoise"][1],
        "diffusion.ddim_calls": tot["diffusion.ddim"][0],
        "diffusion.ddim_s": tot["diffusion.ddim"][1],
        "samplers.loop_self_s": tot["samplers.loop"][2],
        "samplers.dc_s": dc_s,
        "samplers.pinv_calls": tot["samplers.pinv"][0],
        "samplers.pinv_s": tot["samplers.pinv"][1],
        "samplers.trace_s": trace_s,
        "samplers.trace_csv_s": tot["samplers.trace_csv"][1],
        "admm.sweeps": tot["admm.sweep"][0],
        "admm.sweep_s": tot["admm.sweep"][1],
        "admm.self_s": tot["admm.sweep"][2],
        "experiments.evaluate_s": tot["experiments.evaluate"][1],
        "dtf.write_s": tot["dtf.write"][1],
        "dtf.write_bytes": dtf_bytes,
    }


def setup_metrics(spans) -> dict:
    """Per-layer metrics of one traced set-up."""
    tot = _totals(spans)
    return {
        "experiments.build_problem_s": tot["experiments.build_problem"][1],
        "operators.make_mask_s": tot["operators.make_mask"][1],
        "operators.coil_maps_s": tot["operators.coil_maps"][1],
    }


def counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}


def scaled(metrics: dict, factor: float) -> dict:
    """Times (the ``_s`` metrics) multiplied by ``factor``; counts unchanged."""
    return {k: v * factor if k.endswith("_s") else v for k, v in metrics.items()}


def median_metrics(per_op: list[dict]) -> dict:
    return {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
