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
import multiprocessing
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import yaml

from . import deviations, limits
from .initial_data import AsymmetricPareto, SymmetricPareto
from .kernels import (
    CASE_UNRESTRICTED,
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


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int
    kernel: dict
    initial: dict
    t: list[float] = field(default_factory=list)
    xs: list[float] = field(default_factory=list)
    N: int = 0
    pool_size: int = 100_000
    iterations: int = 60
    pool_init: str = "ones"
    n: list[int] = field(default_factory=list)
    b: list[float] | None = None
    x: float | None = None
    delta: float = 0.01
    epsilon: float = 0.5
    gamma: float = 0.75
    eta: float = 0.1
    workers: int = 1
    chunk_size: int = 16384
    output: str = "results.csv"
    format: str = "csv"


def derive_stream(seed: int, tag: str, chunk: int) -> np.random.Generator:
    """Documented splitting function: stream for chunk `chunk` of `tag`."""
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[i:i + 4], "little") for i in (0, 4, 8, 12))
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(*words, int(chunk)))
    return np.random.default_rng(ss)


def build_kernel(block):
    kind = block.get("kind")
    if kind == "deterministic":
        return DeterministicKernel(float(block["l"]), float(block["r"]))
    if kind == "kac":
        return KacKernel()
    if kind == "discrete-mixture":
        atoms = tuple((float(l), float(r)) for l, r in block["atoms"])
        return DiscreteKernel(atoms, tuple(float(p) for p in block["probs"]))
    raise ValueError(f"unknown kernel kind {kind!r}")


def build_law(block):
    kind = block.get("kind")
    alpha = float(block["alpha"])
    if kind == "symmetric-pareto":
        return SymmetricPareto(alpha, float(block.get("xmin", 1.0)))
    if kind == "asymmetric-pareto":
        xmin = block.get("xmin")
        return AsymmetricPareto(alpha, float(block["c_plus"]), float(block["c_minus"]),
                                None if xmin is None else float(xmin))
    raise ValueError(f"unknown initial law kind {kind!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a config document; collects every error found."""
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"config is not valid YAML: {exc}"]) from exc
    if not isinstance(doc, dict):
        raise ConfigError(["config must be a mapping"])
    errors = []

    experiment = doc.get("experiment")
    if experiment not in EXPERIMENTS:
        errors.append(f"experiment must be one of {EXPERIMENTS}, got {experiment!r}")

    seed = doc.get("seed")
    if seed is None:
        errors.append("seed is required (runs must be reproducible from the config alone)")
    elif not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        errors.append("seed must be an integer in [0, 2^64)")

    kernel_block = doc.get("kernel")
    if not isinstance(kernel_block, dict):
        errors.append("kernel block is required")
        kernel_block = {}
    else:
        try:
            build_kernel(kernel_block)
        except (KeyError, TypeError, ValueError) as exc:
            errors.append(f"kernel block invalid: {exc}")

    initial_block = doc.get("initial")
    if not isinstance(initial_block, dict):
        errors.append("initial block is required")
        initial_block = {}
    else:
        alpha = initial_block.get("alpha")
        if not isinstance(alpha, (int, float)) or not 0 < float(alpha) < 2:
            errors.append("initial.alpha must lie in the open interval (0, 2)")
        elif float(alpha) == 1.0:
            cp = initial_block.get("c_plus")
            cm = initial_block.get("c_minus")
            if cp is not None and cp != cm:
                errors.append("alpha = 1 requires c_plus = c_minus "
                              "(limit-theorem hypothesis)")
        if not errors or all("alpha" not in e and "c_plus" not in e for e in errors):
            try:
                build_law(initial_block)
            except (KeyError, TypeError, ValueError) as exc:
                errors.append(f"initial block invalid: {exc}")

    def listify(v, cast):
        if v is None:
            return []
        if isinstance(v, (list, tuple)):
            return [cast(e) for e in v]
        return [cast(v)]

    cfg = ExperimentConfig(
        experiment=experiment if experiment in EXPERIMENTS else "tail",
        seed=int(seed) if isinstance(seed, int) else 0,
        kernel=kernel_block,
        initial=initial_block,
        t=listify(doc.get("t"), float),
        xs=listify(doc.get("xs"), float),
        N=int(doc.get("N", 0)),
        pool_size=int(doc.get("pool_size", 100_000)),
        iterations=int(doc.get("iterations", 60)),
        pool_init=str(doc.get("pool_init", "ones")),
        n=listify(doc.get("n"), int),
        b=None if doc.get("b") is None else [float(v) for v in doc["b"]],
        x=None if doc.get("x") is None else float(doc["x"]),
        delta=float(doc.get("delta", 0.01)),
        epsilon=float(doc.get("epsilon", 0.5)),
        gamma=float(doc.get("gamma", 0.75)),
        eta=float(doc.get("eta", 0.1)),
        workers=int(doc.get("workers", 1)),
        chunk_size=int(doc.get("chunk_size", 16384)),
        output=str(doc.get("output", "results.csv")),
        format=str(doc.get("format", "csv")),
    )

    if cfg.format != "csv":
        errors.append(f"unsupported output format {cfg.format!r}")
    if cfg.workers < 1:
        errors.append("workers must be >= 1")
    if cfg.chunk_size < 1:
        errors.append("chunk_size must be >= 1")
    if cfg.pool_init not in ("ones", "exponential"):
        errors.append("pool_init must be 'ones' or 'exponential'")
    for t in cfg.t:
        if not 0 <= t <= YULE_T_MAX:
            errors.append(f"t must be non-negative and at most {YULE_T_MAX:g} "
                          f"(leaf counts overflow int64 beyond it), got {t!r}")

    needs = {
        "tail": ("t", "xs", "N"),
        "cdf-H": ("t", "xs", "N", "pool_size"),
        "cf-V": ("t", "xs", "N", "pool_size"),
        "fixed-point": ("pool_size", "iterations"),
        "bounds": ("n", "xs", "N"),
        "baseline": ("n", "xs", "N"),
        "ode-residual": ("t", "x", "delta", "N"),
        "martingale": ("n", "N"),
    }
    if experiment in needs:
        for name in needs[experiment]:
            v = getattr(cfg, name)
            if v is None or (isinstance(v, (list, tuple)) and not v) \
                    or (name in ("N", "pool_size", "iterations") and int(v) < 1):
                errors.append(f"experiment {experiment!r} requires field {name!r}")
        if experiment == "tail" and cfg.N and cfg.N < 10_000:
            errors.append("tail experiment requires N >= 1e4")
        if experiment in ("bounds", "baseline") and len(cfg.n) > 1:
            errors.append(f"experiment {experiment!r} takes a single n")
        if experiment == "bounds":
            if not 0 < cfg.epsilon < 1:
                errors.append("bounds experiment requires epsilon in (0, 1)")
            if cfg.b is not None and cfg.n and len(cfg.b) != cfg.n[0]:
                errors.append("bounds weight list b must have length n")
        if experiment == "ode-residual" and not 0 < cfg.delta <= 0.1:
            errors.append("ode-residual requires delta in (0, 0.1]")

    if errors:
        raise ConfigError(errors)
    return cfg


def _chunks(total, chunk_size):
    sizes = []
    left = int(total)
    while left > 0:
        sizes.append(min(chunk_size, left))
        left -= sizes[-1]
    return sizes


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
    with multiprocessing.Pool(min(cfg.workers, len(tasks))) as pool:
        return pool.map(_job, tasks)


def _summed_jobs(cfg, tag, fn, chunk_args):
    """Each component of the chunk results, summed in chunk order."""
    return [np.sum(part, axis=0) for part in zip(*_run_jobs(cfg, tag, fn, chunk_args))]


def _paths_task(kernel, law, t, alpha, mu, xs, xis, size, rng):
    """Per-chunk path statistics for cdf-H / cf-V: counts and CF sums."""
    stats = forest_statistics(kernel, t, (alpha,), size, rng, law=law)
    f = math.exp(-mu * t)
    h = stats.H * f
    v = stats.V * f
    counts = np.array([(h <= x).sum() for x in xs], dtype=np.int64)
    cf_sums = np.array([np.exp(1j * xi * v).sum() for xi in xis], dtype=complex)
    return counts, cf_sums


def _martingale_sum_task(kernel, n, alpha, m_n, size, rng):
    flat, starts, _ = grow_weights_batch(kernel, np.full(size, n, dtype=np.int64), rng)
    tm = np.add.reduceat(flat ** alpha, starts) / m_n
    return float(tm.sum()), float((tm ** 2).sum()), tm.size


# ---- experiment runners ----

def _run_tail(cfg, kernel, law, regime, warnings_out, notes_out):
    if regime is not None and regime.case_id != CASE_UNRESTRICTED:
        warnings_out.append(
            f"regime {regime.case_id!r} restricts admissible schedules; a single "
            "(t, x) row cannot certify x_t -> infinity against h(t)")
    c0 = law.c0_plus + law.c0_minus
    rows = []
    for it, t in enumerate(cfg.t):
        hits_v, hits_h = _summed_jobs(
            cfg, f"tail/{it}", deviations.tail_hit_counts,
            [(kernel, law, t, regime.mu_alpha, cfg.xs, m)
             for m in _chunks(cfg.N, cfg.chunk_size)])
        for est in deviations.assemble_tail_estimates(
                t, cfg.xs, cfg.N, hits_v, hits_h, law.alpha, c0):
            if est.low_precision:
                notes_out.append(
                    f"low precision at t={t:g}, x={est.x:g}: expected hits "
                    f"{cfg.N * c0 / est.x ** law.alpha:.1f} < 20")
            rows.append(asdict(est))
    return rows


def _run_martingale(cfg, kernel, law, regime, warnings_out, notes_out):
    rows = []
    for ni, n in enumerate(cfg.n):
        m_n = mean_weight_norm(regime.S_alpha, n).m
        sizes = _chunks(cfg.N, max(1, cfg.chunk_size // max(1, n // 64)))
        parts = _run_jobs(cfg, f"martingale/{ni}", _martingale_sum_task,
                          [(kernel, int(n), law.alpha, m_n, m) for m in sizes])
        total, total_sq, count = map(sum, zip(*parts))
        mean = total / count
        var = max(total_sq / count - mean ** 2, 0.0)
        rows.append({"n": int(n), "N": count, "mean": mean,
                     "se": math.sqrt(var / count)})
    return rows


def _run_baseline(cfg, kernel, law, regime, warnings_out, notes_out):
    n = cfg.n[0]
    thresholds = [x * n ** (1.0 / law.alpha) for x in cfg.xs]
    rows_per_chunk = max(1, cfg.chunk_size * 256 // max(n, 1))
    hits_sum, hits_max = _summed_jobs(
        cfg, "baseline", deviations.iid_hit_counts,
        [(law, n, thresholds, m) for m in _chunks(cfg.N, rows_per_chunk)])
    return [asdict(est) for est in deviations.assemble_baseline_estimates(
        n, cfg.xs, cfg.N, hits_sum, hits_max, law.alpha, law.c0_plus + law.c0_minus)]


def _run_bounds(cfg, kernel, law, regime, warnings_out, notes_out):
    n = cfg.n[0]
    b = np.asarray(cfg.b, dtype=float) if cfg.b is not None \
        else np.full(n, n ** (-1.0 / law.alpha))
    reports = _run_jobs(cfg, "bounds", deviations.lemma_bounds,
                        [(b, law, x, cfg.epsilon, cfg.gamma, cfg.N) for x in cfg.xs])
    return [{"n": r.n, "x": r.x, "epsilon": r.epsilon, "gamma": r.gamma,
             "lower": r.lower, "upper": r.upper,
             "max_lower": r.max_lower, "max_upper": r.max_upper,
             "mc": r.mc_estimate, "mc_se": r.mc_se} for r in reports]


def _run_fixed_point(cfg, kernel, law, regime, warnings_out, notes_out):
    rng = derive_stream(cfg.seed, "fixed-point", 0)
    alpha = law.alpha
    if cfg.pool_init == "exponential":
        pool = limits.ZPool.from_samples(rng.standard_exponential(cfg.pool_size),
                                         alpha, regime.S_alpha)
    else:
        pool = limits.ZPool.ones(cfg.pool_size, alpha, regime.S_alpha)

    def row(i, p):
        z = p.samples
        var = float(z.var(ddof=1)) if z.size > 1 else 0.0
        return {"iteration": i, "pool_size": z.size, "mean": float(z.mean()),
                "se": math.sqrt(var / z.size), "variance": var}

    rows = [row(0, pool)]
    for i in range(1, cfg.iterations + 1):
        pool = limits.zpool_iterate(pool, kernel, rng)
        rows.append(row(i, pool))
    return rows


def _zpool_for_limit(cfg, kernel, law, regime):
    rng = derive_stream(cfg.seed, "limit-pool", 0)
    pool = limits.ZPool.ones(cfg.pool_size, law.alpha, regime.S_alpha)
    return limits.zpool_iterate(pool, kernel, rng, iterations=cfg.iterations)


def _run_cdf_h(cfg, kernel, law, regime, warnings_out, notes_out):
    pool = _zpool_for_limit(cfg, kernel, law, regime)
    c0 = law.c0_plus + law.c0_minus
    rows = []
    for it, t in enumerate(cfg.t):
        counts, _ = _summed_jobs(
            cfg, f"cdf-H/{it}", _paths_task,
            [(kernel, law, t, law.alpha, regime.mu_alpha, cfg.xs, (), m)
             for m in _chunks(cfg.N, cfg.chunk_size)])
        for x, c in zip(cfg.xs, counts):
            p = c / cfg.N
            rows.append({"t": t, "x": x, "N": cfg.N, "pool_size": cfg.pool_size,
                         "cdf_empirical": p,
                         "se": math.sqrt(max(p * (1 - p), 0) / cfg.N),
                         "cdf_limit": limits.cdf_H_infinity(x, pool, c0, law.alpha)})
    return rows


def _run_cf_v(cfg, kernel, law, regime, warnings_out, notes_out):
    pool = _zpool_for_limit(cfg, kernel, law, regime)
    params = limits.stable_params(law.c0_plus, law.c0_minus, law.alpha,
                                  gamma0=law.gamma0 or 0.0)
    rows = []
    for it, t in enumerate(cfg.t):
        _, cf_sums = _summed_jobs(
            cfg, f"cf-V/{it}", _paths_task,
            [(kernel, law, t, law.alpha, regime.mu_alpha, (), cfg.xs, m)
             for m in _chunks(cfg.N, cfg.chunk_size)])
        for xi, s in zip(cfg.xs, cf_sums):
            emp = s / cfg.N
            lim = limits.cf_V_infinity(xi, pool, params)
            rows.append({"t": t, "xi": xi, "N": cfg.N, "pool_size": cfg.pool_size,
                         "re_empirical": emp.real, "im_empirical": emp.imag,
                         "re_limit": lim.real, "im_limit": lim.imag,
                         "abs_error": abs(emp - lim)})
    return rows


def _run_ode_residual(cfg, kernel, law, regime, warnings_out, notes_out):
    rng = derive_stream(cfg.seed, "ode-residual", 0)
    rows = []
    for t in cfg.t:
        res, se = deviations.max_ode_residual(kernel, law, t, cfg.x, cfg.delta,
                                              cfg.N, rng)
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
    SCHEMAS columns to values, regime is None when unavailable, and the
    messages are the warnings and notes to print."""
    kernel = build_kernel(cfg.kernel)
    law = build_law(cfg.initial)
    regime = None
    warnings_out = []
    try:
        regime = classify_regime(kernel, law.alpha, eta=cfg.eta)
    except RegimeUnavailableError as exc:
        warnings_out.append(f"regime unavailable: {exc}")
    notes_out = []
    rows = _RUNNERS[cfg.experiment](cfg, kernel, law, regime, warnings_out, notes_out)
    # only admissibility-class warnings change the exit status; notes are
    # informational and printed alongside
    status = 3 if warnings_out else 0
    return rows, status, (regime, warnings_out + notes_out)


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
        doc = yaml.safe_load(text)
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
            node[parts[-1]] = yaml.safe_load(raw)
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

    if rows and regime is not None:
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
