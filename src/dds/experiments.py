"""Batch experiment harness: config files, problem synthesis, sweeps, CSV/PGM output.

Config files are flat INI key-value sections (diffable, hand-editable); a
config plus the command-line seed reproduces every output byte for byte.
Rejection sampling reruns with derived seeds (run_reconstruction).
"""

from __future__ import annotations

import configparser
import math
import time
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .admm import TvConfig, dds_3d_reconstruct
from .diffusion import (
    AffineSubspacePrior,
    GmmPrior,
    Schedule,
    smooth_random_field,
)
from .errors import ConfigError
from .metrics import estimate_noise, middle_slice, psnr, ssim
from .operators import (
    LinearMap,
    MaskSpec,
    RadonGeometry,
    make_coil_maps,
    make_mask,
    radon_operator,
    sense_operator,
)
from .phantoms import shepp_logan_2d, shepp_logan_3d
from .samplers import ReconResult, SamplerConfig, dds_reconstruct, make_dc
from .tensor import COMPLEX, REAL, RngStream, check_finite


# ---------------------------------------------------------------------------
# Config file

@dataclass
class NoiseOffsetConfig:
    """The noise-offset study's ``[noise_offset]`` section (see run_noise_offset_experiment)."""
    trials: int = 50
    sigma_gt: float = 0.07
    shape: tuple[int, ...] = (32, 32)
    prior_dim: int = 8
    angles: int = 40
    smooth: float = 5.0
    phantom_scale: float = 3.0

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        for key in ("sigma_gt", "smooth"):
            value = getattr(self, key)
            if not 0 <= value < math.inf:  # NaN fails every comparison
                raise ConfigError(f"[noise_offset] {key} = {value} must be finite and >= 0")
        if not abs(self.phantom_scale) < math.inf:  # either sign
            raise ConfigError(f"[noise_offset] phantom_scale = {self.phantom_scale} must be finite")


# the sections that ExperimentConfig.read builds a dataclass from
SECTION_CLASSES = {"sampler": SamplerConfig, "tv": TvConfig, "noise_offset": NoiseOffsetConfig}

# Every section and key that some command reads; anything else is a typo.
# The keys of a SECTION_CLASSES section are its dataclass fields, less the
# sampler seed (from --seed) and plus max_retries (rejection budget).
CONFIG_KEYS = {section: set(keys.split()) for section, keys in {
    "problem": "kind noise_sigma noise_seed",
    "phantom": "kind seed shape",
    "prior": "kind seed complex smooth dim offset_scale components tau",
    "operator": "kind mask_kind acceleration acs_fraction mask_seed coils maps_seed "
                "angles detector_bins",
    "sweep": "axis values repeats",
}.items()} | {section: {f.name for f in fields(cls)} for section, cls in SECTION_CLASSES.items()}
CONFIG_KEYS["sampler"] = CONFIG_KEYS["sampler"] - {"seed"} | {"max_retries"}


def annotation_cast(kind):
    """How a config string becomes a field annotated ``kind``: ints for a
    tuple, else the type itself (X for X | None); ExperimentConfig.get reads
    a bool by configparser's spellings."""
    if typing.get_origin(kind) is tuple:
        return lambda raw: tuple(int(v) for v in raw.split())
    return next(t for t in typing.get_args(kind) or (kind,) if t is not type(None))


class ExperimentConfig:
    """Typed view over a flat INI config; keeps raw text for byte-exact copies.

    Keys in unknown sections, unknown keys and a ``[DEFAULT]`` section are
    rejected, so a misspelt or misplaced name cannot silently leave a
    default in force.
    """

    def __init__(self, text: str):
        self.text = text
        # no interpolation: a value is read as written, "%" included
        self._cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        try:
            self._cp.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"bad config file: {exc}") from exc
        # configparser copies [DEFAULT] keys into every section there is
        if self._cp.defaults():
            raise ConfigError("config section [DEFAULT] is not supported: "
                              "name the section each key belongs to")
        for section in self._cp.sections():
            for key in self._cp.options(section):  # an empty section sets nothing
                if section not in CONFIG_KEYS:
                    raise ConfigError(f"unknown config section [{section}]")
                if key not in CONFIG_KEYS[section]:
                    raise ConfigError(f"unknown config key [{section}] {key}")

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: config file is not UTF-8 text: {exc}") from exc
        return cls(text)

    def get(self, section: str, key: str, default=None, cast=str):
        if not self._cp.has_option(section, key):
            if default is None:
                raise ConfigError(f"config missing [{section}] {key}")
            return default
        raw = self._cp.get(section, key)
        try:
            if cast is bool:  # 1/yes/true/on or 0/no/false/off, any case
                return self._cp.getboolean(section, key)
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"config [{section}] {key}={raw!r}: {exc}") from exc

    def get_ints(self, section, key, default=None):
        return self.get(section, key, default, annotation_cast(tuple[int, ...]))

    def has(self, section, key) -> bool:
        return self._cp.has_option(section, key)

    def read(self, section: str, cls, **overrides):
        """``cls`` built from ``[section]``: each key present is cast by its
        field's annotation, absent keys keep the field default, and
        ``overrides`` replace what was read. A field that is not a key of the
        section (the sampler seed) is never read."""
        hints = typing.get_type_hints(cls)
        kwargs = {f.name: self.get(section, f.name, cast=annotation_cast(hints[f.name]))
                  for f in fields(cls)
                  if f.name in CONFIG_KEYS[section] and self.has(section, f.name)}
        return cls(**(kwargs | overrides))


# ---------------------------------------------------------------------------
# Problem synthesis

@dataclass
class Problem:
    kind: str
    a: LinearMap
    y: np.ndarray
    x_true: np.ndarray
    prior: object
    noise_sigma: float

    # bench/tracing.py hooks denoise under this name
    denoiser = property(lambda self: self.prior)


def _at_least(cfg: ExperimentConfig, section: str, key: str, default, cast=float, low=0):
    """``[section] key`` cast by ``cast`` and >= ``low``; a float must be
    finite too (NaN fails the comparison)."""
    v = cfg.get(section, key, default, cast)
    if not low <= v < math.inf:
        finite = "finite and " if cast is float else ""
        raise ConfigError(f"[{section}] {key} = {v} must be {finite}>= {low}")
    return v


def build_prior(cfg: ExperimentConfig, signal_shape):
    kind = cfg.get("prior", "kind", "affine")
    seed = cfg.get("prior", "seed", 0, int)
    use_complex = cfg.get("prior", "complex", True, bool)
    smooth = _at_least(cfg, "prior", "smooth", 0.0)
    # every key is checked, also where this kind ignores it
    dim = _at_least(cfg, "prior", "dim", 8, int, low=1)
    offs = _at_least(cfg, "prior", "offset_scale", 0.0)
    k = _at_least(cfg, "prior", "components", 3, int, low=1)
    tau = _at_least(cfg, "prior", "tau", 0.1)
    if not 0 < tau * tau < math.inf:  # the mixture's variance
        raise ConfigError(f"[prior] tau = {tau} must have tau^2 > 0 and finite")
    dtype = COMPLEX if use_complex else REAL
    if kind == "affine":
        return AffineSubspacePrior.random(signal_shape, dim, seed=seed, dtype=dtype,
                                          offset_scale=offs, smooth=smooth)
    if kind == "gmm":
        rng = RngStream(seed)
        means = np.stack([smooth_random_field(rng, signal_shape, smooth, dtype)
                          for _ in range(k)])
        weights = np.full(k, 1.0 / k)
        return GmmPrior(weights=weights, means=means, tau2=tau * tau)
    raise ConfigError(f"unknown prior kind {kind!r}")


def build_phantom(cfg: ExperimentConfig, prior):
    kind = cfg.get("phantom", "kind", "subspace-random")
    seed = cfg.get("phantom", "seed", 0, int)
    shape = cfg.get_ints("phantom", "shape")
    rng = RngStream(seed)
    if kind == "shepp-logan-2d":
        return shepp_logan_2d(shape[-1])
    if kind == "shepp-logan-3d":
        return shepp_logan_3d(shape)
    if kind in ("subspace-random", "gmm-draw"):
        if len(shape) == len(prior.signal_shape):
            return prior.sample(rng)
        if len(shape) == 3 and len(prior.signal_shape) == 2:
            return np.stack([prior.sample(rng) for _ in range(shape[0])])
        raise ConfigError("phantom shape incompatible with the prior")
    raise ConfigError(f"unknown phantom kind {kind!r}")


def build_operator(cfg: ExperimentConfig, signal_shape):
    kind = cfg.get("operator", "kind", "sense")
    # every key is checked, also where this kind ignores it
    spec = MaskSpec(
        kind=cfg.get("operator", "mask_kind", "uniform1d"),
        acceleration=cfg.get("operator", "acceleration", 4.0, float),
        acs_fraction=cfg.get("operator", "acs_fraction", 0.08, float),
        seed=_at_least(cfg, "operator", "mask_seed", 0, int),
    )
    coils = _at_least(cfg, "operator", "coils", 1, int, low=1)
    maps_seed = _at_least(cfg, "operator", "maps_seed", 0, int)
    geom = RadonGeometry.uniform(
        signal_shape[-1],
        _at_least(cfg, "operator", "angles", 12, int, low=1),
        cfg.get("operator", "detector_bins", signal_shape[-1], int),
    )
    if kind == "sense":
        mask = make_mask(spec, signal_shape[-2:])
        return sense_operator(make_coil_maps(coils, signal_shape[-2:], seed=maps_seed), mask)
    if kind == "radon3d":
        if len(signal_shape) != 3:
            raise ConfigError("radon3d needs a 3-D phantom shape")
        return radon_operator(geom, signal_shape[0])
    raise ConfigError(f"unknown operator kind {kind!r}")


def build_problem(cfg: ExperimentConfig) -> Problem:
    kind = cfg.get("problem", "kind", "mri2d")
    if kind not in ("mri2d", "mri2d-noisy", "ct3d"):
        raise ConfigError(f"unknown problem kind {kind!r}")
    shape = cfg.get_ints("phantom", "shape")
    ndim = 3 if kind == "ct3d" else 2
    given = f"[phantom] shape = {' '.join(map(str, shape))}"
    if len(shape) != ndim or min(shape) < 1:
        raise ConfigError(f"{given}: {kind} needs {ndim} positive sizes")
    # math.prod is exact where numpy's product of the sizes wraps past int64
    if math.prod(shape) * np.dtype(COMPLEX).itemsize > np.iinfo(np.intp).max:
        raise ConfigError(f"{given}: {math.prod(shape)} complex entries are past numpy's "
                          "size limit")
    prior_shape = shape[-2:] if kind == "ct3d" else shape
    prior = build_prior(cfg, prior_shape)
    x_true = build_phantom(cfg, prior)
    a = build_operator(cfg, shape)
    if x_true.shape != a.domain_shape:
        raise ConfigError(
            f"phantom shape {x_true.shape} does not match operator domain {a.domain_shape}"
        )
    if a.domain_dtype == REAL and cfg.get("prior", "complex", True, bool):
        # the cast below would drop the phantom's imaginary part
        raise ConfigError(f"[prior] complex = true needs a complex operator domain; "
                          f"{a.name} is real: set [prior] complex = false")
    y = a.apply(x_true.astype(a.domain_dtype))
    sigma = _at_least(cfg, "problem", "noise_sigma", 0.0)
    noise_seed = _at_least(cfg, "problem", "noise_seed", 0, int)  # also with no noise drawn
    if kind == "mri2d-noisy" and sigma == 0.0:
        sigma = 0.05
    if sigma > 0:
        # drawn over the data (k-space for SENSE), then mapped into the range:
        # only measured entries carry noise
        nrng = RngStream(noise_seed)
        e = a.embedding
        y = y + e.adjoint(sigma * nrng.randn(e.range_shape, dtype=e.range_dtype))
    return Problem(kind=kind, a=a, y=y, x_true=x_true, prior=prior, noise_sigma=sigma)


def sampler_config(cfg: ExperimentConfig, seed: int, **overrides) -> SamplerConfig:
    return cfg.read("sampler", SamplerConfig, seed=seed, **overrides)


def tv_config(cfg: ExperimentConfig, **overrides) -> TvConfig:
    return cfg.read("tv", TvConfig, **overrides)


def run_reconstruction(problem: Problem, scfg: SamplerConfig, tv: TvConfig | None = None,
                       rng: RngStream | None = None, max_retries: int = 1) -> ReconResult:
    """One reconstruction: its sampling attempts, their acceptance and their wall time.

    With no ``rejection_tau``, or ``max_retries`` = 1, one attempt runs on
    ``rng``; otherwise attempt k runs on ``rng.child(k)`` and the run stops
    at the first residual <= tau. With none cleared, the lowest-residual
    attempt (the earliest on a tie) returns, not accepted. ``accepted`` is
    None without a tau, ``attempts`` counts the attempts made and
    ``wall_seconds`` times them all.
    """
    if max_retries < 1:
        raise ConfigError(f"[sampler] max_retries must be >= 1, got {max_retries}")
    t_start = time.perf_counter()
    rng = rng if rng is not None else RngStream(scfg.seed)
    tau = scfg.rejection_tau
    streams = [rng] if tau is None or max_retries == 1 else map(rng.child, range(max_retries))
    best = None
    for attempts, stream in enumerate(streams, 1):
        if problem.kind == "ct3d":
            res = dds_3d_reconstruct(problem.a, problem.y, problem.prior, scfg,
                                     tv if tv is not None else TvConfig(),
                                     rng=stream, x_true=problem.x_true)
        else:
            res = dds_reconstruct(problem.a, problem.y, problem.prior, scfg,
                                  rng=stream, x_true=problem.x_true)
        if best is None or res.residual < best.residual:
            best = res
        if tau is not None and res.residual <= tau:
            break
    best.accepted = None if tau is None else best.residual <= tau
    best.attempts = attempts
    best.wall_seconds = time.perf_counter() - t_start
    return best


# ---------------------------------------------------------------------------
# Metrics rows and sweeps

@dataclass
class MetricsRow:
    """One metrics CSV row: the fields are the columns, in order."""
    run_id: str
    strategy: str
    nfe: int
    cg_steps: int
    eta: float
    psnr: float
    ssim: float
    residual: float
    wall_seconds: float = 0.0

    def as_list(self, timing: bool = False) -> list:
        return [getattr(self, name) for name in (MET_COLUMNS if timing else MET_HEADER)]


# wall_seconds is written only under --timing: it breaks byte reproducibility
MET_COLUMNS = [f.name for f in fields(MetricsRow)]
MET_HEADER = MET_COLUMNS[:MET_COLUMNS.index("wall_seconds")]


def magnitude_ssim(mx: np.ndarray, mref: np.ndarray) -> float:
    """SSIM of two magnitude images, on the middle axial slice of volumes;
    NaN when the image is smaller than the SSIM window."""
    try:
        return ssim(middle_slice(mx), middle_slice(mref))
    except ConfigError:
        return math.nan


def evaluate(problem: Problem, res: ReconResult, run_id: str,
             scfg: SamplerConfig, tv: TvConfig | None = None) -> MetricsRow:
    """Metrics on magnitude images: PSNR over the whole signal, SSIM on the
    (middle axial slice of the) 2-D magnitude. ``cg_steps`` is the count the
    run used: tv.cg_steps for a volume run given its TvConfig."""
    mx = np.abs(res.x0)
    mref = np.abs(problem.x_true)
    return MetricsRow(
        run_id=run_id, strategy=scfg.dc, nfe=scfg.nfe,
        cg_steps=scfg.cg_steps if tv is None else tv.cg_steps,
        eta=scfg.resolved_eta(), psnr=psnr(mx, mref),
        ssim=magnitude_ssim(mx, mref), residual=res.residual, wall_seconds=res.wall_seconds,
    )


# each sweep axis and the (section, field) it sets; a value is cast by the
# field's annotation. A volume run's CG count is [tv] cg_steps, so on ct3d
# the cg-steps axis sets that instead.
SWEEP_AXES = {"eta": ("sampler", "eta"), "nfe": ("sampler", "nfe"),
              "cg-steps": ("sampler", "cg_steps"), "lambda": ("tv", "lam")}


def run_sweep(cfg: ExperimentConfig, axis: str, values, repeats: int, seed: int,
              jobs: int = 1) -> list[MetricsRow]:
    """Cartesian sweep over one axis; one MetricsRow per (value, repeat).

    Runs are independent with per-run derived streams keyed by run index, so
    the result is identical regardless of ``jobs``. Each run honours
    ``[sampler] max_retries`` as ``dds reconstruct`` does. Rows come back
    ordered by run index, followed by per-value mean/std summary rows. A
    value repeated after the cast, jobs < 1 or a [tv] axis off ct3d raises ConfigError.
    """
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ConfigError("sweep needs at least one value")
    if repeats < 1:
        raise ConfigError(f"sweep needs repeats >= 1, got {repeats}")
    if jobs < 1:
        raise ConfigError(f"sweep needs jobs >= 1, got {jobs}")
    section, name = SWEEP_AXES[axis]
    cast = annotation_cast(typing.get_type_hints(SECTION_CLASSES[section])[name])
    parsed = []
    for val in values:
        try:
            value = cast(val)
        except (TypeError, ValueError):
            raise ConfigError(f"sweep axis {axis}: bad value {val!r}") from None
        if value in parsed:
            raise ConfigError(f"sweep axis {axis}: value {val!r} repeats "
                              f"{values[parsed.index(value)]!r}")
        parsed.append(value)
    problem = build_problem(cfg)
    if section == "tv" and problem.kind != "ct3d":
        raise ConfigError(f"sweep axis {axis} sets [tv] {name}, which {problem.kind} ignores")
    if (axis, problem.kind) == ("cg-steps", "ct3d"):
        section = "tv"
    retries = cfg.get("sampler", "max_retries", 1, int)
    base_rng = RngStream(seed)
    tasks = list(enumerate((val, value, rep) for val, value in zip(values, parsed)
                           for rep in range(repeats)))

    def one(task):
        idx, (val, value, rep) = task
        sets = {section: {name: value}}
        scfg = sampler_config(cfg, seed, **sets.get("sampler", {}))
        tv = tv_config(cfg, **sets.get("tv", {}))  # checked also where a 2-D run ignores it
        res = run_reconstruction(problem, scfg, tv=tv, rng=base_rng.child(idx),
                                 max_retries=retries)
        return evaluate(problem, res, f"{axis}={val}:rep={rep}", scfg,
                        tv=tv if problem.kind == "ct3d" else None)

    with ThreadPoolExecutor(max_workers=jobs) as pool:  # map keeps the task order
        rows = list(pool.map(one, tasks))

    # per-value mean/std rows over repeats; value i ran tasks i*repeats onwards
    out = list(rows)
    for i, val in enumerate(values):
        grp = rows[i * repeats:(i + 1) * repeats]
        for stat, fn in (("mean", np.mean), ("std", np.std)):
            out.append(replace(grp[0], run_id=f"{axis}={val}:{stat}", wall_seconds=0.0, **{
                k: float(fn([getattr(g, k) for g in grp])) for k in ("psnr", "ssim", "residual")
            }))
    return out


# ---------------------------------------------------------------------------
# Noise-offset experiment (one DC step per strategy on noisy images)

NOISE_OFFSET_STRATEGIES = ("no-process", "projection", "gradient", "dps", "ddnm", "dds-cg")


# a non-finite phantom ends in one NumericalError, with no numpy warnings first
@np.errstate(over="ignore", invalid="ignore")
def run_noise_offset_experiment(cfg: NoiseOffsetConfig, seed: int):
    """Apply one DC step per strategy to noisy images; measure the noise offset.

    Per trial: a fresh smooth real-valued affine-subspace phantom, Gaussian
    image noise of level cfg.sigma_gt, and clean consistent sparse-view
    tomography measurements y = A x*. Each DC step is the sampler's own
    (make_dc), applied once at its natural point: range replacement
    (projection), the fixed unit-step gradient, the projected gradient (VE
    form, step 1), and the 5-step CG all act on the noisy image; the
    pseudo-inverse replacement also runs from the analytic denoised
    estimate, its in-sampler convention. Smooth phantoms matter (the
    wavelet-MAD estimator must see the added noise, not texture), and the
    tomography operator matters: its non-unit norm and smoothing normal
    operator are what separate the strategies' noise disturbance, as in the
    full-scale protocol. Reported per strategy: sigma_est after the step and
    |sigma_est - sigma_est-np|; a non-finite output raises NumericalError
    before it becomes a row. Returns (rows, mean_offsets, dds_wins).
    """
    shape = cfg.shape
    base = RngStream(seed)
    geom = RadonGeometry.uniform(shape[-1], cfg.angles)
    a = radon_operator(geom)
    sched = Schedule.ve(10, sigma_max=1.0)
    t_mid = 5
    rows = []
    offsets = {s: [] for s in NOISE_OFFSET_STRATEGIES}
    dds_wins = 0
    for trial in range(cfg.trials):
        rng = base.child(trial)
        prior = AffineSubspacePrior.random(shape, cfg.prior_dim, seed=rng.child(0).seed,
                                           dtype=REAL, smooth=cfg.smooth)
        x_true = cfg.phantom_scale * prior.sample(rng.child(1))
        y = a.apply(x_true)
        x_noisy = x_true + cfg.sigma_gt * rng.child(2).randn(shape)
        sigma_np = estimate_noise(x_noisy)
        x_den = prior.denoise(x_noisy, t_mid, sched)

        dc = {s: make_dc(SamplerConfig(dc=s, cg_steps=5), a, y, sched, prior)
              for s in ("ddnm", "gradient", "dps", "dds-cg")}
        outs = {
            "no-process": x_noisy,
            "projection": dc["ddnm"](x_noisy, t_mid)[0],
            "gradient": dc["gradient"](x_noisy, t_mid)[0],
            "dps": dc["dps"](x_den, t_mid)[0],
            "ddnm": dc["ddnm"](x_den, t_mid)[0],
            "dds-cg": dc["dds-cg"](x_noisy, t_mid)[0],
        }
        trial_off = {}
        for strat in NOISE_OFFSET_STRATEGIES:
            s_est = estimate_noise(np.real(check_finite(outs[strat], f"noise-offset {strat}")))
            off = abs(s_est - sigma_np)
            trial_off[strat] = off
            offsets[strat].append(off)
            rows.append([trial, strat, s_est, off])
        rivals = [v for k, v in trial_off.items() if k not in ("no-process", "dds-cg")]
        if trial_off["dds-cg"] < min(rivals):
            dds_wins += 1
    mean_offsets = {s: float(np.mean(v)) for s, v in offsets.items()}
    for strat in NOISE_OFFSET_STRATEGIES:
        rows.append(["mean", strat, math.nan, mean_offsets[strat]])
    return rows, mean_offsets, dds_wins


NOISE_OFFSET_HEADER = ["trial", "strategy", "sigma_est", "offset"]


# ---------------------------------------------------------------------------
# Image emitter

def emit_image(x: np.ndarray, path) -> None:
    """Write a min-max normalized 8-bit binary PGM; constant images emit 128."""
    x = np.asarray(x, dtype=REAL)
    if x.ndim != 2:
        raise ConfigError("emit_image expects a 2-D real tensor")
    lo, hi = float(x.min()), float(x.max())
    if hi > lo:
        pix = np.rint((x - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        pix = np.full(x.shape, 128, dtype=np.uint8)
    header = f"P5\n{x.shape[1]} {x.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(pix.tobytes())
