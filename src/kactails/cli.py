"""Command-line front end: config ingestion, orchestration, CSV output.

A run is fully determined by one YAML config document (grammar in the
README; every run must carry an explicit 64-bit seed, there is no ambient
entropy).  Work is split into fixed-size chunks; the stream for chunk k
of phase `tag` is PCG64 seeded by

    SeedSequence(seed, spawn_key=(sha256(tag)[0:16] as 4 uint32, k)),

so the output is byte-identical for any worker count: chunk results are
merged in chunk-index order and all merges are associative.

Each chunk is one job `(fn, args, seed, tag, k)`, which returns
`fn(*args, rng)` on that stream.  By experiment, fn is
`deviations.tail_hit_counts` (tail), `deviations.iid_hit_counts`
(baseline), `_paths_task` (cdf-H, cf-V) or `_martingale_sum_task`
(martingale), with chunk results summed componentwise, and
`deviations.lemma_bounds` (bounds, one job per x).  fixed-point and
ode-residual draw from the single stream 0 of their tag.

Exit codes: 0 success, 2 config error, 3 an admissibility warning was
raised (results still written), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import math
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cached_property

import numpy as np
import yaml

from . import deviations, limits
from .initial_data import AsymmetricPareto, SymmetricPareto
from .kernels import (
    CASE_UNRESTRICTED,
    CollisionKernel,
    DeterministicKernel,
    DiscreteKernel,
    KacKernel,
    RegimeUnavailableError,
    classify_regime,
)
from .processes import YULE_T_MAX, forest_statistics
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


def _field(kind, needs, default=MISSING, shape="one", ok=None, rule="finite", error=None):
    """A config field's one declaration: its value is cast to `kind` in
    `shape` ("one", "many": one or a list, "list"), must be finite and pass
    `ok`, the range worded by `rule` (or `error`, the whole message), and
    is read by the `needs` experiments, which must give it if no default."""
    required = default is MISSING
    return field(default=None if required else default, metadata=dict(
        kind=kind, shape=shape, needs=needs, ok=ok, rule=rule, error=error, required=required))


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
                             rule="finite and nonzero",
                             error="ode-residual requires a finite nonzero x")
    delta: float = _field(float, ("ode-residual",), 0.01, ok=lambda v: 0 < v <= 0.1,
                          rule="in (0, 0.1]")
    epsilon: float = _field(float, ("bounds",), 0.5, ok=lambda v: 0 < v < 1, rule="in (0, 1)")
    gamma: float = _field(float, ("bounds",), 0.75, ok=lambda v: v > 0, rule="finite and > 0")
    workers: int = _field(int, _CHUNKED + ("bounds",), 1, **_POSITIVE)
    chunk_size: int = _field(int, _CHUNKED, 16384, **_POSITIVE)
    output: str = _field(str, EXPERIMENTS, "results.csv")
    format: str = _field(str, EXPERIMENTS, "csv", ok=lambda v: v == "csv", rule="'csv'")

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
    """value as `kind`; a bool is no number, and an int takes no fraction."""
    if kind is not str and isinstance(value, bool) or \
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


def _unknown_block_keys(name, block, kinds):
    """An error for each key of the `name` block that its kind does not
    take; none when the kind itself is unknown (build_* reports that)."""
    kind = block.get("kind")
    keys = kinds.get(kind) if isinstance(kind, str) else None
    if keys is None:
        return []
    takes = ", ".join(keys) or "no keys"
    return [f"unknown key '{name}.{key}': {name} kind {kind!r} takes {takes}"
            for key in block if key not in ("kind", *keys)]


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
    alpha = _finite(block["alpha"], "initial.alpha")
    if kind == "symmetric-pareto":
        return SymmetricPareto(alpha, _finite(block.get("xmin", 1.0), "initial.xmin"))
    if kind == "asymmetric-pareto":
        xmin = block.get("xmin")
        return AsymmetricPareto(alpha, _finite(block["c_plus"], "initial.c_plus"),
                                _finite(block["c_minus"], "initial.c_minus"),
                                None if xmin is None else _finite(xmin, "initial.xmin"))
    raise ValueError(f"unknown initial law kind {kind!r}")


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
                one, many = ("an integer", "integers") if kind is int else ("a number", "numbers")
                want = {"one": one, "many": f"{one} or a list of {many}",
                        "list": f"a list of {many}"}
                errors.append(f"{f.name} must be {want[shape]}, got {v!r}")
                continue
            value = items[0] if shape == "one" else items
            finite = kind is not float or all(map(math.isfinite, items))
            if not finite or m["ok"] and not m["ok"](value):
                errors.append(m["error"] or f"{f.name} must be {m['rule']}, got {v!r}")
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


def _threshold_power_errors(experiment, xs, a, gamma):
    """The powers x^e of each threshold x > 0 that the experiment takes
    must be finite and nonzero floats; one error per x where one is not.
    cf-V takes |xi|^alpha of every xi, which need only be finite: where it
    underflows to 0 the limit's characteristic function is 1 to rounding."""
    powers = {"tail": {"alpha": a}, "baseline": {"alpha": a}, "cdf-H": {"-alpha": -a},
              "cf-V": {"alpha": a},
              "bounds": {"alpha": a, "(2 - alpha)(1 - gamma)": (2 - a) * (1 - gamma),
                         "alpha (2 gamma - 1)": a * (2 * gamma - 1),
                         "2 - alpha + 2 (alpha - 1) gamma": 2 - a + 2 * (a - 1) * gamma}}
    given = f"alpha = {a:g}" + (f", gamma = {gamma:g}" if experiment == "bounds" else "")
    cf = experiment == "cf-V"
    errors = []
    for x in xs:
        base = abs(x) if cf else x
        for name, e in powers[experiment].items():
            try:
                value = base ** e if base > 0 else 1.0
            except OverflowError:
                value = math.inf
            if value == math.inf or value == 0.0 and not cf:
                errors.append(f"xs: x = {x!r} gives {'|x|' if cf else 'x'}^({name}) = {value!r} "
                              f"at {given}; experiment {experiment!r} needs it finite"
                              + ("" if cf else " and nonzero"))
                break
    return errors


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

    kernel = law = None
    kernel_block = doc.get("kernel")
    if not isinstance(kernel_block, dict):
        errors.append("kernel block is required")
    else:
        errors += _unknown_block_keys("kernel", kernel_block, KERNEL_KEYS)
        try:
            kernel = build_kernel(kernel_block)
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"kernel block invalid: {exc}")

    initial_block = doc.get("initial")
    if not isinstance(initial_block, dict):
        errors.append("initial block is required")
    else:
        errors += _unknown_block_keys("initial", initial_block, LAW_KEYS)
        alpha = initial_block.get("alpha")
        if isinstance(alpha, bool) or not isinstance(alpha, (int, float)) or not 0 < alpha < 2:
            errors.append("initial.alpha must lie in the open interval (0, 2)")
        elif alpha == 1 and initial_block.get("c_plus") not in \
                (None, initial_block.get("c_minus")):
            errors.append("alpha = 1 requires c_plus = c_minus (limit-theorem hypothesis)")
        else:
            try:
                law = build_law(initial_block)
            except (KeyError, TypeError, ValueError) as exc:
                errors.append(f"initial block invalid: {exc}")

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
    if law is not None and experiment in ("tail", "baseline", "bounds", "cdf-H", "cf-V"):
        errors += _threshold_power_errors(experiment, cfg.xs or (), law.alpha, cfg.gamma)

    if errors:
        raise ConfigError(errors)
    return cfg


def _chunks(total, chunk_size):
    return [min(chunk_size, total - i) for i in range(0, total, chunk_size)]


# ---- chunk jobs (top level so they pickle) ----

def _job(task):
    """One chunk: `fn(*args, rng)` on the stream of chunk `k` of phase `tag`."""
    fn, args, seed, tag, k = task
    return fn(*args, derive_stream(seed, tag, k))


def _run_jobs(cfg, tag, fn, chunk_args):
    """Results of `fn(*args, rng)` for each chunk's `args`, in chunk order."""
    tasks = [(fn, args, cfg.seed, tag, k) for k, args in enumerate(chunk_args)]
    if cfg.workers <= 1 or len(tasks) <= 1:
        return [_job(t) for t in tasks]
    import multiprocessing  # ~10 ms to import, paid only by parallel runs

    with multiprocessing.Pool(min(cfg.workers, len(tasks))) as pool:
        return pool.map(_job, tasks)


def _summed_jobs(cfg, tag, fn, chunk_args):
    """Each component of the chunk results, summed in chunk order."""
    return [np.sum(part, axis=0) for part in zip(*_run_jobs(cfg, tag, fn, chunk_args))]


def _paths_task(kernel, law, t, mu, xs, xis, size, rng):
    """Per-chunk path statistics for cdf-H / cf-V: counts and CF sums."""
    stats = forest_statistics(kernel, t, size, rng, law=law)
    f = math.exp(-mu * t)
    h = stats.H * f
    v = stats.V * f
    counts = np.array([(h <= x).sum() for x in xs], dtype=np.int64)
    # a path whose phase xi v overflows adds 0: its phase carries no
    # information, and the characteristic function tends to 0 there
    with np.errstate(over="ignore"):
        phases = [xi * v for xi in xis]
    cf_sums = np.array([np.exp(1j * p[np.isfinite(p)]).sum() for p in phases], dtype=complex)
    return counts, cf_sums


def _martingale_sum_task(kernel, n, alpha, m_n, size, rng):
    flat, starts, _ = grow_weights_batch(kernel, np.full(size, n, dtype=np.int64), rng)
    tm = np.add.reduceat(flat ** alpha, starts) / m_n
    return float(tm.sum()), float((tm ** 2).sum()), tm.size


# ---- experiment runners: each returns its rows ----

def _run_tail(cfg):
    law = cfg.initial
    c0 = law.c0_plus + law.c0_minus
    rows = []
    for it, t in enumerate(cfg.t):
        hits_v, hits_h = _summed_jobs(
            cfg, f"tail/{it}", deviations.tail_hit_counts,
            [(cfg.kernel, law, t, cfg.regime.mu_alpha, cfg.xs, m)
             for m in _chunks(cfg.N, cfg.chunk_size)])
        rows += map(asdict, deviations.assemble_tail_estimates(
            t, cfg.xs, cfg.N, hits_v, hits_h, law.alpha, c0))
    return rows


def _run_martingale(cfg):
    rows = []
    for ni, n in enumerate(cfg.n):
        m_n = mean_weight_norm(cfg.regime.S_alpha, n).m
        sizes = _chunks(cfg.N, max(1, cfg.chunk_size // max(1, n // 64)))
        parts = _run_jobs(cfg, f"martingale/{ni}", _martingale_sum_task,
                          [(cfg.kernel, int(n), cfg.initial.alpha, m_n, m) for m in sizes])
        total, total_sq, count = map(sum, zip(*parts))
        mean = total / count
        var = max(total_sq / count - mean ** 2, 0.0)
        rows.append({"n": int(n), "N": count, "mean": mean,
                     "se": math.sqrt(var / count)})
    return rows


def _run_baseline(cfg):
    law, n = cfg.initial, cfg.n[0]
    thresholds = [x * n ** (1.0 / law.alpha) for x in cfg.xs]
    rows_per_chunk = max(1, cfg.chunk_size * 256 // max(n, 1))
    hits_sum, hits_max = _summed_jobs(
        cfg, "baseline", deviations.iid_hit_counts,
        [(law, n, thresholds, m) for m in _chunks(cfg.N, rows_per_chunk)])
    return [asdict(est) for est in deviations.assemble_baseline_estimates(
        n, cfg.xs, cfg.N, hits_sum, hits_max, law.alpha, law.c0_plus + law.c0_minus)]


def _run_bounds(cfg):
    law, n = cfg.initial, cfg.n[0]
    b = np.asarray(cfg.b, dtype=float) if cfg.b is not None \
        else np.full(n, n ** (-1.0 / law.alpha))
    reports = _run_jobs(cfg, "bounds", deviations.lemma_bounds,
                        [(b, law, x, cfg.epsilon, cfg.gamma, cfg.N) for x in cfg.xs])
    return [{"n": r.n, "x": r.x, "epsilon": r.epsilon, "gamma": r.gamma,
             "lower": r.lower, "upper": r.upper,
             "max_lower": r.max_lower, "max_upper": r.max_upper,
             "mc": r.mc_estimate, "mc_se": r.mc_se} for r in reports]


def _run_fixed_point(cfg):
    rng = derive_stream(cfg.seed, "fixed-point", 0)
    alpha, s_alpha = cfg.initial.alpha, cfg.regime.S_alpha
    if cfg.pool_init == "exponential":
        pool = limits.ZPool.from_samples(rng.standard_exponential(cfg.pool_size),
                                         alpha, s_alpha)
    else:
        pool = limits.ZPool.ones(cfg.pool_size, alpha, s_alpha)

    def row(i, p):
        z = p.samples
        var = float(z.var(ddof=1)) if z.size > 1 else 0.0
        return {"iteration": i, "pool_size": z.size, "mean": float(z.mean()),
                "se": math.sqrt(var / z.size), "variance": var}

    rows = [row(0, pool)]
    for i in range(1, cfg.iterations + 1):
        pool = limits.zpool_iterate(pool, cfg.kernel, rng)
        rows.append(row(i, pool))
    return rows


def _zpool_for_limit(cfg):
    rng = derive_stream(cfg.seed, "limit-pool", 0)
    pool = limits.ZPool.ones(cfg.pool_size, cfg.initial.alpha, cfg.regime.S_alpha)
    return limits.zpool_iterate(pool, cfg.kernel, rng, iterations=cfg.iterations)


def _run_cdf_h(cfg):
    law = cfg.initial
    pool = _zpool_for_limit(cfg)
    c0 = law.c0_plus + law.c0_minus
    rows = []
    for it, t in enumerate(cfg.t):
        counts, _ = _summed_jobs(
            cfg, f"cdf-H/{it}", _paths_task,
            [(cfg.kernel, law, t, cfg.regime.mu_alpha, cfg.xs, (), m)
             for m in _chunks(cfg.N, cfg.chunk_size)])
        for x, c in zip(cfg.xs, counts):
            p = c / cfg.N
            rows.append({"t": t, "x": x, "N": cfg.N, "pool_size": cfg.pool_size,
                         "cdf_empirical": p,
                         "se": math.sqrt(max(p * (1 - p), 0) / cfg.N),
                         "cdf_limit": limits.cdf_H_infinity(x, pool, c0, law.alpha)})
    return rows


def _run_cf_v(cfg):
    law = cfg.initial
    pool = _zpool_for_limit(cfg)
    params = limits.stable_params(law.c0_plus, law.c0_minus, law.alpha,
                                  gamma0=law.gamma0 or 0.0)
    rows = []
    for it, t in enumerate(cfg.t):
        _, cf_sums = _summed_jobs(
            cfg, f"cf-V/{it}", _paths_task,
            [(cfg.kernel, law, t, cfg.regime.mu_alpha, (), cfg.xs, m)
             for m in _chunks(cfg.N, cfg.chunk_size)])
        for xi, s in zip(cfg.xs, cf_sums):
            emp = s / cfg.N
            lim = limits.cf_V_infinity(xi, pool, params)
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
    adds a note, which is informational only."""
    regime, law = cfg.regime, cfg.initial
    rows = _RUNNERS[cfg.experiment](cfg)
    warnings = []
    if cfg.experiment == "tail" and regime.case_id != CASE_UNRESTRICTED:
        warnings.append(
            f"regime {regime.case_id!r} restricts admissible schedules; a single "
            "(t, x) row cannot certify x_t -> infinity against h(t)")
    c0 = law.c0_plus + law.c0_minus
    notes = [f"low precision at t={r['t']:g}, x={r['x']:g}: expected hits "
             f"{cfg.N * c0 / r['x'] ** law.alpha:.1f} < 20"
             for r in rows if r.get("low_precision")]
    return rows, 3 if warnings else 0, (regime, warnings + notes)


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


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
