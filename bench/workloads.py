"""Benchmark workloads: fixed operators, seed-driven phantoms and sampler streams.

Each workload is a flat INI experiment config, as `dds reconstruct` reads
it. The operator (mask, coil maps, Radon geometry) and the prior are part
of the workload's definition and never change. The ``{phantom_seed}`` slot
is filled with seeds drawn from the benchmark seed: one per set-up and one
per operation. Why each workload was chosen is in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    setups: int            # set-ups per run; setup_s is their median
    rel_error_gate: float  # an operation above this relative error fails

    def config_text(self, phantom_seed: int) -> str:
        return self.config.replace("{phantom_seed}", str(phantom_seed))


# Each rel_error gate is about twice the largest per-operation relative error
# measured before the gates were set (mri2d-dds: 0.095 over 120 operations;
# mri2d-pinv: 0.034 over 40; ct3d-admm: 0.021 over 40; every operation on
# its own phantom and sampler seed).
WORKLOADS = {w.name: w for w in (
    Workload(
        name="mri2d-dds",
        setups=15,
        rel_error_gate=0.19,
        config="""
[problem]
kind = mri2d

[phantom]
kind = subspace-random
shape = 64 64
seed = {phantom_seed}

[prior]
kind = affine
dim = 16
complex = true
seed = 11

[operator]
kind = sense
coils = 8
mask_kind = gaussian1d
acceleration = 4
mask_seed = 3
maps_seed = 5

[sampler]
nfe = 50
mode = vp
dc = dds-cg
cg_steps = 5
""",
    ),
    Workload(
        name="mri2d-pinv",
        setups=3,
        rel_error_gate=0.07,
        config="""
[problem]
kind = mri2d

[phantom]
kind = subspace-random
shape = 32 32
seed = {phantom_seed}

[prior]
kind = affine
dim = 8
complex = true
seed = 11

[operator]
kind = sense
coils = 4
mask_kind = poisson-disk-vd
acceleration = 4
mask_seed = 3
maps_seed = 5

[sampler]
nfe = 20
mode = vp
dc = ddnm
""",
    ),
    Workload(
        name="ct3d-admm",
        setups=15,
        rel_error_gate=0.042,
        config="""
[problem]
kind = ct3d

[phantom]
kind = subspace-random
shape = 8 32 32
seed = {phantom_seed}

[prior]
kind = affine
dim = 8
smooth = 3
complex = false
seed = 11

[operator]
kind = radon3d
angles = 12

[sampler]
nfe = 20
mode = ve

[tv]
lam = 10.0
rho = 0.04
cg_steps = 5
""",
    ),
)}
