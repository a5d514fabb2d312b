"""Command-line front end: config ingestion, orchestration, CSV output.

A run is fully determined by one YAML config document (grammar in the
README; every run must carry an explicit 64-bit seed, there is no ambient
entropy).  Work is split into fixed-size chunks; the stream for chunk k
of phase `tag` is PCG64 seeded by

    SeedSequence(seed, spawn_key=(sha256(tag)[0:16] as 4 uint32, k)),

so the output is byte-identical for any worker count: each component of
the chunk results is merged by one `np.sum(axis=0)` in chunk-index order.

Each chunk is one job `(fn, args, seed, tag, k)`, which returns
`fn(*args, rng)` on that stream.  By experiment, fn is
`deviations.tail_hit_counts` (tail, and cdf-H from its H counts),
`_cf_sums` (cf-V), `deviations.iid_hit_counts` (baseline) or
`_martingale_sums` (martingale), all through `_chunk_sums`, and
`deviations.lemma_bounds` (bounds, one job per x).
fixed-point and ode-residual draw from the single stream 0 of their tag.

Exit codes: 0 success, 2 config error, 3 an admissibility warning was
raised (results still written), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import os
import sys
import time
from dataclasses import MISSING, dataclass, field, fields
from functools import cached_property

import numpy as np
import yaml

from . import deviations, limits
from .initial_data import AsymmetricPareto, SymmetricPareto, power_or_inf
from .kernels import (
    CASE_UNRESTRICTED,
    CollisionKernel,
    DeterministicKernel,
    DiscreteKernel,
    KacKernel,
    RegimeUnavailableError,
    classify_regime,
    rescale_factor,
    spectral,
)
from .processes import YULE_T_MAX, alpha_sums, forest_statistics, law_sums
from .weights import grow_weights_batch, mean_weight_norm

EXPERIMENTS = ("tail", "cdf-H", "cf-V", "fixed-point", "bounds",
               "baseline", "ode-residual", "martingale")

SCHEMAS = {
    "tail": ("t", "x", "N", "hits_V", "hits_H", "p_V", "se_V", "p_H", "se_H",
             "ratio_paper", "ratio_max"),
    "bounds": ("n", "x", "epsilon", "gamma", "lower", "upper", "max_lower",
               "max_upper", "mc", "mc_se"),
    "baseline": ("n", "x", "N", "p_sum", "se_sum", "p_max", "se_max",
                 "ratio_paper", "ratio_max"),
    "martingale": ("n", "N", "mean", "se"),
    "fixed-point": ("iteration", "pool_size", "mean", "se", "variance"),
    "cdf-H": ("t", "x", "N", "pool_size", "cdf_empirical", "se", "cdf_limit"),
    "cf-V": ("t", "xi", "N", "pool_size", "re_empirical", "im_empirical",
             "re_limit", "im_limit", "abs_error"),
    "ode-residual": ("t", "x", "delta", "N", "residual", "se"),
}


class ConfigError(Exception):
    """Carries every validation problem found, not just the first."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


def _field(kind, needs, default=MISSING, shape="one", ok=None, rule="finite"):
    """A config field's one declaration: its value is cast to `kind` in
    `shape` ("one", "many": one or a list, "list"), must be finite and pass
    `ok`, the range worded by `rule`, and is read by the `needs`
    experiments, which must give it if no default."""
    required = default is MISSING
    return field(default=None if required else default, metadata=dict(
        kind=kind, shape=shape, needs=needs, ok=ok, rule=rule, required=required))


_TIMED = ("tail", "cdf-H", "cf-V", "ode-residual")
_POOLED = ("cdf-H", "cf-V", "fixed-point")
_CHUNKED = ("tail", "cdf-H", "cf-V", "baseline", "martingale")
_POSITIVE = {"ok": lambda v: v >= 1, "rule": ">= 1"}


@dataclass
class ExperimentConfig:
    """A validated config.  `kernel` and `initial` hold the kernel and law
    built from their blocks.  Each later field is declared once, by
    `_field`; `_read_fields` and the README config reference follow it."""

    experiment: str
    seed: int
    kernel: CollisionKernel
    initial: AsymmetricPareto
    t: list[float] = _field(
        float, _TIMED, shape="many", ok=lambda ts: all(0 <= t <= YULE_T_MAX for t in ts),
        rule=f"non-negative and at most {YULE_T_MAX:g} (leaf counts overflow int64 beyond it)")
    xs: list[float] = _field(float, ("tail", "cdf-H", "cf-V", "bounds", "baseline"), shape="many")
    N: int = _field(int, _TIMED + ("bounds", "baseline", "martingale"), **_POSITIVE)
    pool_size: int = _field(int, _POOLED, 100_000, **_POSITIVE)
    iterations: int = _field(int, _POOLED, 60, **_POSITIVE)
    pool_init: str = _field(str, ("fixed-point",), "ones",
                            ok=lambda v: v in ("ones", "exponential"),
                            rule="'ones' or 'exponential'")
    n: list[int] = _field(int, ("bounds", "baseline", "martingale"), shape="many",
                          ok=lambda ns: all(n >= 1 for n in ns), rule=">= 1")
    b: list[float] | None = _field(float, ("bounds",), None, shape="list",
                                   ok=lambda b: all(w >= 0 for w in b) and any(b),
                                   rule="finite, >= 0 and not all 0")
    x: float | None = _field(float, ("ode-residual",), ok=lambda v: v != 0,
                             rule="finite and nonzero")
    delta: float = _field(float, ("ode-residual",), 0.01, ok=lambda v: 0 < v <= 0.1,
                          rule="in (0, 0.1]")
    epsilon: float = _field(float, ("bounds",), 0.5, ok=lambda v: 0 < v < 1, rule="in (0, 1)")
    gamma: float = _field(float, ("bounds",), 0.75, ok=lambda v: v > 0, rule="finite and > 0")
    workers: int = _field(int, _CHUNKED + ("bounds",), 1, **_POSITIVE)
    chunk_size: int = _field(int, _CHUNKED, 16384, **_POSITIVE)
    output: str = _field(str, EXPERIMENTS, "results.csv")

    @cached_property
    def regime(self):
        """The kernel's regime at the law's alpha, classified on first use;
        RegimeUnavailableError when it has none."""
        return classify_regime(self.kernel, self.initial.alpha)


def derive_stream(seed: int, tag: str, chunk: int) -> np.random.Generator:
    """Documented splitting function: stream for chunk `chunk` of `tag`."""
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[i:i + 4], "little") for i in (0, 4, 8, 12))
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(*words, int(chunk)))
    return np.random.default_rng(ss)


def _cast(value, kind):
    """value as `kind`; only a str is a string, a bool is no number, and an
    int takes no fraction."""
    if (not isinstance(value, str) if kind is str else isinstance(value, bool)) or \
            kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return kind(value)


def _finite(value, name):
    """A kernel or initial-law number: value through _cast as a finite float."""
    try:
        number = _cast(value, float)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


# the keys each kind of kernel and initial block takes, besides `kind`
KERNEL_KEYS = {"deterministic": ("l", "r"), "kac": (), "discrete-mixture": ("atoms", "probs")}
LAW_KEYS = {"symmetric-pareto": ("alpha", "xmin"),
            "asymmetric-pareto": ("alpha", "c_plus", "c_minus", "xmin")}


def _block(doc, name, kinds, build, errors):
    """`build` of doc's `name` block (a kernel or a law), or None; appends an
    error for a missing block, for each key its kind (in `kinds`) does not
    take, and for a block that `build` refuses, an unknown kind among them."""
    block = doc.get(name)
    if not isinstance(block, dict):
        errors.append(f"{name} block is required")
        return None
    kind = block.get("kind")
    keys = kinds.get(kind) if isinstance(kind, str) else None
    if keys is not None:
        takes = ", ".join(keys) or "no keys"
        errors.extend(f"unknown key '{name}.{key}': {name} kind {kind!r} takes {takes}"
                      for key in block if key not in ("kind", *keys))
    try:
        return build(block)
    except (KeyError, TypeError, ValueError) as exc:
        errors.append(f"{name} block invalid: {exc}")
        return None


def build_kernel(block):
    kind = block.get("kind")
    if kind == "deterministic":
        return DeterministicKernel(*(_finite(block[k], f"kernel.{k}") for k in "lr"))
    if kind == "kac":
        return KacKernel()
    if kind == "discrete-mixture":
        atoms = tuple((_finite(l, "kernel.atoms"), _finite(r, "kernel.atoms"))
                      for l, r in block["atoms"])
        return DiscreteKernel(atoms, tuple(_finite(p, "kernel.probs") for p in block["probs"]))
    raise ValueError(f"unknown kernel kind {kind!r}")


def build_law(block):
    kind = block.get("kind")
    if kind not in ("symmetric-pareto", "asymmetric-pareto"):
        raise ValueError(f"unknown initial law kind {kind!r}")
    alpha = _finite(block["alpha"], "initial.alpha")
    if kind == "symmetric-pareto":
        return SymmetricPareto(alpha, _finite(block.get("xmin", 1.0), "initial.xmin"))
    xmin = block.get("xmin")
    return AsymmetricPareto(alpha, _finite(block["c_plus"], "initial.c_plus"),
                            _finite(block["c_minus"], "initial.c_minus"),
                            None if xmin is None else _finite(xmin, "initial.xmin"))


def _read_fields(doc, experiment, errors):
    """The declared fields given in doc, cast and in range, as
    ExperimentConfig keywords.  A null leaves the default.  A value that
    does not cast or is out of range, and a field that `experiment` needs
    but is not given, are reported in errors."""
    values = {}
    for f in [f for f in fields(ExperimentConfig) if f.metadata]:
        m, v = f.metadata, doc.get(f.name)
        kind, shape = m["kind"], m["shape"]
        if v is not None:
            listed = isinstance(v, list) and shape != "one"
            try:
                if shape == "list" and not listed:
                    raise TypeError(v)
                items = [_cast(e, kind) for e in (v if listed else [v])]
            except (TypeError, ValueError, OverflowError):
                one, many = {int: ("an integer", "integers"), float: ("a number", "numbers"),
                             str: ("a string", "strings")}[kind]
                want = {"one": one, "many": f"{one} or a list of {many}",
                        "list": f"a list of {many}"}
                errors.append(f"{f.name} must be {want[shape]}, got {v!r}")
                continue
            value = items[0] if shape == "one" else items
            finite = kind is not float or all(map(math.isfinite, items))
            if not finite or m["ok"] and not m["ok"](value):
                errors.append(f"{f.name} must be {m['rule']}, got {v!r}")
                continue
            values[f.name] = value
        if m["required"] and experiment in m["needs"] and values.get(f.name) in (None, []):
            errors.append(f"experiment {experiment!r} requires field {f.name!r}")
    return values


def _load_yaml(text, what):
    """yaml.safe_load(text); malformed YAML is a ConfigError naming `what`."""
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"{what} is not valid YAML: {exc}"]) from exc


def _threshold_power_errors(experiment, xs, a):
    """The powers x^e of each threshold x > 0 that the experiment takes
    must be finite and nonzero floats; one error per x where one is not.
    cf-V takes |xi|^alpha of every xi, which need only be finite: where it
    underflows to 0 the limit's characteristic function is 1 to rounding."""
    name, e = ("-alpha", -a) if experiment == "cdf-H" else ("alpha", a)
    cf = experiment == "cf-V"
    errors = []
    for x in xs:
        base = abs(x) if cf else x
        value = power_or_inf(base, e) if base > 0 else 1.0
        if value == math.inf or value == 0.0 and not cf:
            errors.append(f"xs: x = {x!r} gives {'|x|' if cf else 'x'}^({name}) = {value!r} "
                          f"at alpha = {a:g}; experiment {experiment!r} needs it finite"
                          + ("" if cf else " and nonzero"))
    return errors


def _log_weight_norm(q, n):
    """log m_n(alpha) = log Gamma(n + Q) - log Gamma(n) - log Gamma(Q + 1)
    in O(1), where `mean_weight_norm` takes O(n); Q log n - log Gamma(Q + 1),
    its leading term, for an n beyond the float range."""
    try:
        return math.lgamma(n + q) - math.lgamma(n) - math.lgamma(q + 1.0)
    except OverflowError:
        return q * math.log(n) - math.lgamma(q + 1.0)


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; collects every error found."""
    doc = _load_yaml(text, "config")
    if not isinstance(doc, dict):
        raise ConfigError(["config must be a mapping"])
    names = {f.name for f in fields(ExperimentConfig)}
    errors = [f"unknown key {key!r}: not a config field" for key in doc if key not in names]

    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        errors.append(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")
        experiment = None

    seed = doc.get("seed")
    if seed is None:
        errors.append("seed is required (runs must be reproducible from the config alone)")
    elif isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        errors.append("seed must be an integer in [0, 2^64)")

    kernel = _block(doc, "kernel", KERNEL_KEYS, build_kernel, errors)
    law = _block(doc, "initial", LAW_KEYS, build_law, errors)

    block_errors = len(errors)
    cfg = ExperimentConfig(experiment=experiment or "tail",
                           seed=seed if isinstance(seed, int) else 0,
                           kernel=kernel, initial=law,
                           **_read_fields(doc, experiment, errors))
    if kernel is not None and law is not None:
        try:
            cfg.regime
        except RegimeUnavailableError as exc:
            errors.insert(block_errors, f"kernel has no regime at alpha = {law.alpha:g}: {exc}")
        else:  # timed runs rescale by e^(-mu(alpha) t) or grow weights on its inverse scale
            for t in cfg.t or () if experiment in _TIMED else ():
                try:
                    rescale_factor(kernel, law.alpha, t)
                except ValueError as exc:
                    errors.append(f"t: {exc}")
            if experiment == "martingale":  # it divides by m_n(alpha), a float
                q = spectral(kernel, law.alpha)
                for n in cfg.n or ():
                    log_m = _log_weight_norm(q, n)
                    if log_m > math.log(sys.float_info.max):
                        errors.append(f"n: n = {n} gives m_n(alpha) = e^{log_m:.6g} with "
                                      f"Q(alpha) = {q!r} from the kernel at alpha = "
                                      f"{law.alpha:g}; it must be a finite float")

    # the rules that join fields
    least_n = {"tail": 10_000, "ode-residual": 2}.get(experiment, 1)
    if cfg.N is not None and cfg.N < least_n:
        errors.append(f"experiment {experiment!r} requires N >= {least_n}")
    if experiment in ("tail", "baseline", "bounds") and cfg.xs and min(cfg.xs) <= 0:
        errors.append(f"experiment {experiment!r} requires every x in xs to be > 0")
    if experiment in ("bounds", "baseline") and len(cfg.n or ()) > 1:
        errors.append(f"experiment {experiment!r} takes a single n")
    if experiment == "bounds" and cfg.b is not None and cfg.n and len(cfg.b) != cfg.n[0]:
        errors.append("bounds weight list b must have length n")
    if law is not None and experiment in ("tail", "baseline", "cdf-H", "cf-V"):
        errors += _threshold_power_errors(experiment, cfg.xs or (), law.alpha)
    if experiment == "bounds" and law is not None:
        # the default flat weights n^(-1/alpha) give B = 1 up to rounding
        b = np.asarray(cfg.b or [1.0], dtype=float)
        for x in [x for x in cfg.xs or () if x > 0]:
            try:
                deviations.sandwich(b, law, x, cfg.epsilon, cfg.gamma, 1.0)
            except ValueError as exc:
                errors += [e for e in str(exc).splitlines() if e not in errors]

    if errors:
        raise ConfigError(errors)
    return cfg


# ---- chunk jobs (top level so they pickle) ----

def _job(task):
    """One chunk: `fn(*args, rng)` on the stream of chunk `k` of phase `tag`."""
    fn, args, seed, tag, k = task
    return fn(*args, derive_stream(seed, tag, k))


def _run_jobs(cfg, tag, fn, chunk_args):
    """Results of `fn(*args, rng)` for each chunk's `args`, in chunk order."""
    tasks = [(fn, args, cfg.seed, tag, k) for k, args in enumerate(chunk_args)]
    processes = min(cfg.workers, len(tasks), os.cpu_count() or 1)
    if processes <= 1:
        return [_job(t) for t in tasks]
    import multiprocessing  # ~10 ms to import, paid only by parallel runs

    with multiprocessing.Pool(processes) as pool:
        return pool.map(_job, tasks)


def _chunk_sums(cfg, tag, fn, args, per_chunk):
    """Each component of `fn(*args, m, rng)` over chunks of m <= per_chunk
    of the N paths or rows, on the streams of `tag`, summed in chunk order."""
    sizes = [min(per_chunk, cfg.N - i) for i in range(0, cfg.N, per_chunk)]
    parts = _run_jobs(cfg, tag, fn, [(*args, m) for m in sizes])
    return [np.sum(part, axis=0) for part in zip(*parts)]


def _cf_sums(kernel, law, t, xis, size, rng):
    """Per-chunk sums of exp(i xi V) over the paths' rescaled V, for cf-V,
    as the one component of the chunk's result."""
    f = rescale_factor(kernel, law.alpha, t)
    v = forest_statistics(kernel, t, size, rng, law_sums(law)).stats[0] * f
    # a path whose phase xi v overflows adds 0: its phase carries no
    # information, and the characteristic function tends to 0 there
    with np.errstate(over="ignore"):
        phases = [xi * v for xi in xis]
    sums = np.array([np.exp(1j * p[np.isfinite(p)]).sum() for p in phases], dtype=complex)
    return (sums,)


def _martingale_sums(kernel, n, alpha, m_n, size, rng):
    """Per-chunk (sum T, sum T^2) of T = M_n(alpha) / m_n over `size` trees of
    n leaves, as the one component of the chunk's result.  One array keeps
    both: NumPy adds a (chunks, 2) stack column by column in chunk order."""
    flat, starts, _ = grow_weights_batch(kernel, np.full(size, n, dtype=np.int64), rng)
    tm = alpha_sums(alpha)(flat, starts, rng)[0] / m_n
    return (np.array([tm.sum(), (tm ** 2).sum()]),)


# ---- experiment runners: each returns its rows ----

def _path_sums(cfg, fn):
    """(t, sums) per t: `fn(kernel, law, t, xs, m, rng)` on each chunk of m
    of the N paths, on the streams of "{experiment}/{index of t}", summed
    componentwise in chunk order."""
    for it, t in enumerate(cfg.t):
        yield t, _chunk_sums(cfg, f"{cfg.experiment}/{it}", fn,
                             (cfg.kernel, cfg.initial, t, cfg.xs), cfg.chunk_size)


def _run_tail(cfg):
    ratio_cols = SCHEMAS["tail"][-6:]
    rows = []
    for t, (hits_v, hits_h) in _path_sums(cfg, deviations.tail_hit_counts):
        ratios = deviations.tail_ratios(cfg.initial, cfg.xs, cfg.N, hits_v, hits_h)
        rows += [{"t": t, "x": x, "N": cfg.N, "hits_V": hv, "hits_H": hh,
                  **dict(zip(ratio_cols, r))}
                 for x, hv, hh, r in zip(cfg.xs, hits_v, hits_h, ratios)]
    return rows


def _run_martingale(cfg):
    alpha, rows = cfg.initial.alpha, []
    for ni, n in enumerate(cfg.n):
        m_n = mean_weight_norm(spectral(cfg.kernel, alpha), n)
        [(total, total_sq)] = _chunk_sums(cfg, f"martingale/{ni}", _martingale_sums,
                                          (cfg.kernel, n, alpha, m_n),
                                          max(1, cfg.chunk_size // max(1, n // 64)))
        mean = total / cfg.N
        var = max(total_sq / cfg.N - mean ** 2, 0.0)
        rows.append({"n": n, "N": cfg.N, "mean": mean, "se": math.sqrt(var / cfg.N)})
    return rows


def _run_baseline(cfg):
    law, n = cfg.initial, cfg.n[0]
    thresholds = [x * n ** (1.0 / law.alpha) for x in cfg.xs]
    hits_sum, hits_max = _chunk_sums(cfg, "baseline", deviations.iid_hit_counts,
                                     (law, n, thresholds),
                                     max(1, cfg.chunk_size * 256 // max(n, 1)))
    ratios = deviations.tail_ratios(law, cfg.xs, cfg.N, hits_sum, hits_max)
    return [{"n": n, "x": x, "N": cfg.N, **dict(zip(SCHEMAS["baseline"][-6:], r))}
            for x, r in zip(cfg.xs, ratios)]


def _run_bounds(cfg):
    law, n = cfg.initial, cfg.n[0]
    b = np.asarray(cfg.b, dtype=float) if cfg.b is not None \
        else np.full(n, n ** (-1.0 / law.alpha))
    reports = _run_jobs(cfg, "bounds", deviations.lemma_bounds,
                        [(b, law, x, cfg.epsilon, cfg.gamma, cfg.N) for x in cfg.xs])
    return [{c: getattr(r, c) for c in SCHEMAS["bounds"]} for r in reports]


def _run_fixed_point(cfg):
    rng = derive_stream(cfg.seed, "fixed-point", 0)
    z = rng.standard_exponential(cfg.pool_size) if cfg.pool_init == "exponential" \
        else np.ones(cfg.pool_size)
    pool = limits.ZPool.from_samples(z, cfg.initial.alpha)

    # the pool mean is a martingale whose step j adds about var_j / n to its variance
    rows, var_sum = [], 0.0
    for i in range(cfg.iterations + 1):
        pool = limits.zpool_iterate(pool, cfg.kernel, rng) if i else pool
        z = pool.samples
        var = float(z.var(ddof=1)) if z.size > 1 else 0.0
        var_sum += var
        rows.append({"iteration": i, "pool_size": z.size, "mean": float(z.mean()),
                     "se": math.sqrt(var_sum / z.size), "variance": var})
    return rows


def _zpool_for_limit(cfg):
    rng = derive_stream(cfg.seed, "limit-pool", 0)
    pool = limits.ZPool.ones(cfg.pool_size, cfg.initial.alpha)
    return limits.zpool_iterate(pool, cfg.kernel, rng, iterations=cfg.iterations)


def _run_cdf_h(cfg):
    pool = _zpool_for_limit(cfg)
    rows = []
    # N - #{H > x} is #{H <= x} unless an H is NaN, which takes a weight
    # that overflowed to inf times a zero kernel coefficient
    for t, (_, hits_h) in _path_sums(cfg, deviations.tail_hit_counts):
        for x, hh in zip(cfg.xs, hits_h):
            p = (cfg.N - hh) / cfg.N
            rows.append({"t": t, "x": x, "N": cfg.N, "pool_size": cfg.pool_size,
                         "cdf_empirical": p,
                         "se": deviations.binom_se(p, cfg.N),
                         "cdf_limit": limits.cdf_H_infinity(x, pool, cfg.initial)})
    return rows


def _run_cf_v(cfg):
    pool = _zpool_for_limit(cfg)
    rows = []
    for t, (cf_sums,) in _path_sums(cfg, _cf_sums):
        for xi, s in zip(cfg.xs, cf_sums):
            emp = s / cfg.N
            lim = limits.cf_V_infinity(xi, pool, cfg.initial)
            rows.append({"t": t, "xi": xi, "N": cfg.N, "pool_size": cfg.pool_size,
                         "re_empirical": emp.real, "im_empirical": emp.imag,
                         "re_limit": lim.real, "im_limit": lim.imag,
                         "abs_error": abs(emp - lim)})
    return rows


def _run_ode_residual(cfg):
    rng = derive_stream(cfg.seed, "ode-residual", 0)
    rows = []
    for t in cfg.t:
        res, se = deviations.max_ode_residual(cfg.kernel, cfg.initial, t, cfg.x,
                                              cfg.delta, cfg.N, rng)
        rows.append({"t": t, "x": cfg.x, "delta": cfg.delta, "N": cfg.N,
                     "residual": res, "se": se})
    return rows


_RUNNERS = {
    "tail": _run_tail,
    "martingale": _run_martingale,
    "baseline": _run_baseline,
    "bounds": _run_bounds,
    "fixed-point": _run_fixed_point,
    "cdf-H": _run_cdf_h,
    "cf-V": _run_cf_v,
    "ode-residual": _run_ode_residual,
}


def run(cfg: ExperimentConfig):
    """Returns (rows, exit_status, (regime, messages)): each row maps the
    SCHEMAS columns to values, and the messages are the warnings and notes
    to print.  A tail run outside the unrestricted regime warns, which
    makes the exit status 3; a tail row with fewer than 20 expected hits
    N c0 / x^alpha adds a note, which is informational only."""
    regime, law = cfg.regime, cfg.initial
    rows = _RUNNERS[cfg.experiment](cfg)
    warnings, notes = [], []
    if cfg.experiment == "tail":
        if regime.case_id != CASE_UNRESTRICTED:
            warnings.append(
                f"regime {regime.case_id!r} restricts admissible schedules; a single "
                "(t, x) row cannot certify x_t -> infinity against h(t)")
        for r in rows:
            expected = cfg.N * law.c0 / r["x"] ** law.alpha
            if expected < 20:
                notes.append(f"low precision at t={r['t']:g}, x={r['x']:g}: "
                             f"expected hits {expected:.1f} < 20")
    return rows, 3 if warnings else 0, (regime, warnings + notes)


def _fmt(v):
    """An integer as itself, a float as its shortest round-trip decimal."""
    return str(int(v)) if isinstance(v, (int, np.integer)) else repr(float(v))


def write_csv(rows, experiment, stream):
    cols = SCHEMAS[experiment]
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(cols)
    for row in rows:
        w.writerow([_fmt(row[c]) for c in cols])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kactails",
        description="Seeded Monte Carlo experiments on Yule-tree weighted sums",
    )
    parser.add_argument("--config", required=True, help="path to the YAML config")
    parser.add_argument("--output", help="CSV output path (overrides config)")
    parser.add_argument("--workers", type=int, help="worker count (overrides config)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config entry, dotted keys allowed; repeatable")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4
    except UnicodeDecodeError as exc:
        print(f"config error: config is not valid UTF-8: {exc}", file=sys.stderr)
        return 2

    try:
        doc = _load_yaml(text, "config")
        if not isinstance(doc, dict):
            raise ConfigError(["config must be a mapping"])
        for item in args.override:
            if "=" not in item:
                raise ConfigError([f"override {item!r} is not KEY=VALUE"])
            key, _, raw = item.partition("=")
            node = doc
            parts = key.split(".")
            for p in parts[:-1]:
                node = node.setdefault(p, {})
                if not isinstance(node, dict):
                    raise ConfigError([f"override {key!r} does not address a mapping"])
            node[parts[-1]] = _load_yaml(raw, f"override {item!r}")
        if args.workers is not None:
            doc["workers"] = args.workers
        if args.output is not None:
            doc["output"] = args.output
        cfg = parse_config(yaml.safe_dump(doc))
    except ConfigError as exc:
        for e in exc.errors:
            print(f"config error: {e}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    rows, status, (regime, warns) = run(cfg)
    took = time.perf_counter() - start

    print(f"regime: case={regime.case_id} S(a)={regime.S_alpha:.6g} "
          f"S(2a)={regime.S_2alpha:.6g} mu(a)={regime.mu_alpha:.6g} "
          f"mu(2a)={regime.mu_2alpha:.6g}")
    for wmsg in warns:
        print(f"warning: {wmsg}", file=sys.stderr)

    try:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            write_csv(rows, cfg.experiment, fh)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 4
    print(f"wrote {len(rows)} rows to {cfg.output} ({took:.2f}s)")
    return status


if __name__ == "__main__":
    sys.exit(main())
