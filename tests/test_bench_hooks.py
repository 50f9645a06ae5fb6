"""The benchmark's tracer hooks dds module attributes by name.

bench/tracing.py replaces each (module, attribute) pair of MODULE_HOOKS
with a timing wrapper on every benchmark run, so a refactor that drops or
renames one of them breaks the benchmark. These tests keep the names
resolvable and check that the loops really call through them.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dds.experiments import (
    ExperimentConfig,
    Problem,
    build_problem,
    run_reconstruction,
    sampler_config,
    tv_config,
)
from dds.tensor import RngStream

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("admm", "dtf", "errors", "experiments", "operators", "samplers", "tensor")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracing = _load_tracing()
DDS = {name: importlib.import_module(f"dds.{name}") for name in MODULES}


def test_every_module_hook_resolves():
    missing = [f"{m}.{a}" for m, a, _ in tracing.MODULE_HOOKS
               if not callable(getattr(DDS[m], a, None))]
    assert missing == []
    assert callable(DDS["samplers"].SamplerTrace.to_csv)


MRI_CFG = """
[phantom]
shape = 16 16
seed = 7

[prior]
dim = 4
seed = 11

[operator]
coils = 2
mask_kind = uniform1d
acceleration = 2

[sampler]
nfe = 4
eta = 0.0
cg_steps = 2
dc = {dc}
"""

CT_CFG = """
[problem]
kind = ct3d

[phantom]
shape = 2 8 8
seed = 1

[prior]
dim = 3
seed = 2
complex = false

[operator]
kind = radon3d
angles = 5

[sampler]
nfe = {nfe}
mode = {mode}
"""


def _traced_run(text):
    cfg = ExperimentConfig(text)
    problem = build_problem(cfg)
    tracer = tracing.Tracer()
    tv = tv_config(cfg) if problem.kind == "ct3d" else None
    with tracing.installed(tracer, DDS, problem):
        res = run_reconstruction(problem, sampler_config(cfg, 0), tv=tv, rng=RngStream(0))
    return problem, res, tracer.take()


def _traced_spans(text):
    problem, _, spans = _traced_run(text)
    return problem, spans


def _traced_span_names(text):
    _, spans = _traced_spans(text)
    loops = {i for i, s in enumerate(spans) if s[0] == "samplers.loop"}
    return {s[0] for s in spans}, {s[0] for s in spans if s[3] in loops}


@pytest.mark.parametrize("text, in_loop", [
    (MRI_CFG.format(dc="dds-cg"), {"krylov.cg", "diffusion.ddim", "diffusion.denoise"}),
    (MRI_CFG.format(dc="ddnm"), {"samplers.ddnm_step", "diffusion.ddim"}),
    (MRI_CFG.format(dc="projection"), {"samplers.ddnm_step", "diffusion.ddim"}),
    (MRI_CFG.format(dc="dds-proximal-cg"),
     {"krylov.cg", "diffusion.ddim", "diffusion.denoise"}),
    # gradient and dps apply A and A* from the loop itself, through no hooked helper
    (MRI_CFG.format(dc="gradient"),
     {"linear_map.apply", "linear_map.adjoint", "diffusion.ddim", "diffusion.denoise"}),
    (MRI_CFG.format(dc="dps"),
     {"linear_map.apply", "linear_map.adjoint", "diffusion.ddim", "diffusion.denoise"}),
    (CT_CFG.format(nfe=4, mode="vp"), {"admm.sweep", "diffusion.ddim", "diffusion.denoise"}),
    (CT_CFG.format(nfe=6, mode="ve"), {"admm.sweep", "krylov.cg", "diffusion.ddim"}),
], ids=["mri2d-dds-cg", "mri2d-ddnm", "mri2d-projection", "mri2d-dds-proximal-cg",
        "mri2d-gradient", "mri2d-dps", "ct3d-vp", "ct3d-ve"])
def test_loops_call_through_hooked_attributes(text, in_loop):
    names, loop_children = _traced_span_names(text)
    assert "samplers.loop" in names and "samplers.estimate_noise" in names
    assert in_loop <= loop_children


@pytest.mark.parametrize("text, nfe, slices", [
    (MRI_CFG.format(dc="dds-cg"), 4, 1),
    (MRI_CFG.format(dc="dps"), 4, 1),
    (CT_CFG.format(nfe=4, mode="vp"), 4, 2),
    (CT_CFG.format(nfe=6, mode="ve"), 6, 2),
], ids=["mri2d-dds-cg", "mri2d-dps", "ct3d-vp", "ct3d-ve"])
def test_instance_hooks_on_the_prior_count_every_call(text, nfe, slices):
    # the problem's denoiser is its prior, so the tracer wraps denoise and
    # distance on one object: one denoise per step (per slice of a volume),
    # and one subspace distance per step of a 2-D run, none on a volume
    problem, spans = _traced_spans(text)
    assert problem.denoiser is problem.prior
    names = [s[0] for s in spans]
    assert names.count("diffusion.denoise") == nfe * slices
    assert names.count("samplers.prior_distance") == (nfe if slices == 1 else 0)


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "bench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclass resolves annotations through it
    spec.loader.exec_module(mod)
    return mod.WORKLOADS


# (forward, adjoint, denoiser calls, CG iterations, ADMM sweeps) per run
WORKLOAD_LEDGERS = {
    "mri2d-dds": (295, 245, 50, 245, 0),   # 49 steps of 6 forwards and 5 adjoints, + x0's
    "mri2d-pinv": (3820, 3800, 20, 3800, 0),  # 19 pseudo-inverse solves of 200 steps, + x0's
    "ct3d-admm": (115, 95, 160, 95, 8),    # 8 slices denoised per call; ADMM below t = 10
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_LEDGERS))
def test_run_ledger_equals_the_tracer_counts_on_each_workload(name):
    # the package counts its own work; on each benchmark workload its ledger
    # must agree with the counts the tracer takes through its hooks
    _, res, spans = _traced_run(_load_workloads()[name].config_text(1))
    m = tracing.operation_metrics(spans, 0)
    ledger = res.ledger
    counts = (ledger.forward, ledger.adjoint, ledger.denoiser_calls, ledger.cg_iterations,
              ledger.admm_sweeps)
    assert counts == (m["operators.forward_calls"], m["operators.adjoint_calls"],
                      m["diffusion.denoise_calls"], m["krylov.cg_iterations"], m["admm.sweeps"])
    assert counts == WORKLOAD_LEDGERS[name]
    assert ledger.forward + ledger.adjoint == m["operators.matvecs"]
    assert ledger.jacobian_products == 0


def test_problem_denoiser_is_its_prior_under_a_second_name():
    # the tracer hooks problem.denoiser; it used to be a second field that
    # had to be built holding the same object as prior
    problem = build_problem(ExperimentConfig(MRI_CFG.format(dc="dds-cg")))
    assert "denoiser" not in {f.name for f in dataclasses.fields(Problem)}
    assert problem.denoiser is problem.prior


def _descends_from(spans, i, names):
    while i >= 0:
        if spans[i][0] in names:
            return True
        i = spans[i][3]
    return False


def test_sense_fft_path_runs_through_the_hooked_fft_names():
    # tensor.fft_calls/fft_s exist only because sense_apply/sense_adjoint
    # reach operators.fft2/ifft2 by name: 8 of 16 columns takes the FFT path
    problem, spans = _traced_spans(MRI_CFG.format(dc="ddnm"))
    assert problem.a.plan.dft is None
    ops = [i for i, s in enumerate(spans)
           if s[0] in ("operators.forward", "operators.adjoint")]
    assert {spans[i][0] for i in ops} == {"operators.forward", "operators.adjoint"}
    ffts = [s[3] for s in spans if s[0] == "tensor.fft"]
    assert sorted(ffts) == ops


def test_sense_column_path_runs_no_fft_in_the_loop():
    # gaussian1d 4x samples 4 of 16 columns, under W/3: matmuls, no FFT
    text = MRI_CFG.format(dc="ddnm").replace(
        "mask_kind = uniform1d\nacceleration = 2", "mask_kind = gaussian1d\nacceleration = 4")
    problem, spans = _traced_spans(text)
    assert problem.a.plan.dft is not None
    loop = {"samplers.loop"}
    assert any(_descends_from(spans, i, loop) for i, s in enumerate(spans)
               if s[0] == "operators.forward")
    assert not any(_descends_from(spans, i, loop) for i, s in enumerate(spans)
                   if s[0] == "tensor.fft")
