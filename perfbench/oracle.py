"""Correctness oracle for the benchmark's CSV outputs.

Reference rows were recorded from kactails at seeds of their own
(`workloads.REFERENCE_NAMESPACE`), pooled over several runs, and are kept
in `reference.json`.  A row of a benchmark run fails when

- its key columns (t, x, N, ...) differ from the reference row's;
- a derived column (p from hits, a standard error, a ratio) does not
  match its formula to REL_TOL;
- a binomial column is more than K_SE combined standard errors,
  sqrt(se_run^2 + se_ref^2), from its reference;
- a stochastic column without a reported SE is more than K_SE reference
  standard deviations (plus REL_TOL) from its reference mean.

A wrong header, row count or exit status fails every row.  Bytes are not
compared with the reference: faster samplers may change the RNG streams.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable

K_SE = 5.0
REL_TOL = 1e-9

INT_COLUMNS = {"N", "n", "hits_V", "hits_H", "pool_size"}


def _se(p, n):
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _tail_derived(r, alpha, c0):
    n = r["N"]
    p_v, p_h = r["hits_V"] / n, r["hits_H"] / n
    return {"p_V": p_v, "se_V": _se(p_v, n), "p_H": p_h, "se_H": _se(p_h, n),
            "ratio_paper": r["x"] ** alpha * p_v / c0,
            "ratio_max": p_v / p_h if r["hits_H"] > 0 else math.nan}


def _cdf_derived(r, alpha, c0):
    return {"se": _se(r["cdf_empirical"], r["N"])}


def _baseline_derived(r, alpha, c0):
    n = r["N"]
    return {"se_sum": _se(r["p_sum"], n), "se_max": _se(r["p_max"], n),
            "ratio_paper": r["x"] ** alpha * r["p_sum"] / c0,
            "ratio_max": r["p_sum"] / r["p_max"] if r["p_max"] > 0 else math.nan}


@dataclass(frozen=True)
class Spec:
    keys: tuple[str, ...]
    binomial: dict[str, str]        # probability column -> its SE column
    spread: tuple[str, ...]         # stochastic columns with no SE column
    derive: Callable                # row -> expected derived columns
    counts: dict[str, str]          # probability column -> hit-count column


SPECS = {
    "tail": Spec(("t", "x", "N"), {"p_V": "se_V", "p_H": "se_H"}, (),
                 _tail_derived, {"p_V": "hits_V", "p_H": "hits_H"}),
    "cdf-H": Spec(("t", "x", "N", "pool_size"), {"cdf_empirical": "se"},
                  ("cdf_limit",), _cdf_derived, {}),
    "baseline": Spec(("n", "x", "N"), {"p_sum": "se_sum", "p_max": "se_max"}, (),
                     _baseline_derived, {}),
}


def parse_csv(text):
    lines = list(csv.reader(io.StringIO(text)))
    if not lines:
        return [], []
    header = lines[0]
    return header, [dict(zip(header, map(float, line))) for line in lines[1:]]


def format_csv(header, rows):
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    for r in rows:
        w.writerow([str(int(r[c])) if c in INT_COLUMNS else repr(float(r[c]))
                    for c in header])
    return out.getvalue()


def _close(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1e-300)


def row_errors(spec, row, ref, alpha, c0):
    """Reasons this row fails against its reference row (empty: it passes)."""
    errors = [f"{k}={row[k]!r} != {ref['keys'][k]!r}"
              for k in spec.keys if row[k] != ref["keys"][k]]
    errors += [f"{c}={row[c]!r} != formula {v!r}"
               for c, v in spec.derive(row, alpha, c0).items() if not _close(row[c], v)]
    for col, se_col in spec.binomial.items():
        mean, se_ref = ref["binomial"][col]
        limit = K_SE * math.hypot(row[se_col], se_ref)
        if not abs(row[col] - mean) <= limit:
            errors.append(f"{col}={row[col]!r} is {abs(row[col] - mean) / limit * K_SE:.1f}"
                          f" combined SEs from {mean!r}")
    for col in spec.spread:
        mean, sd = ref["spread"][col]
        if not abs(row[col] - mean) <= K_SE * sd + REL_TOL * max(abs(mean), 1.0):
            errors.append(f"{col}={row[col]!r} is off its reference {mean!r} (sd {sd!r})")
    return errors


def check(reference, text, status, alpha, c0):
    """Per-row failure reasons of one run's CSV, one list per reference row."""
    spec = SPECS[reference["experiment"]]
    n_rows = len(reference["rows"])
    if status != reference["status"]:
        return [[f"exit status {status} != {reference['status']}"]] * n_rows
    try:
        header, rows = parse_csv(text)
    except ValueError as exc:
        return [[f"unparsable CSV: {exc}"]] * n_rows
    if header != reference["header"] or len(rows) != n_rows:
        return [["CSV schema or row count differs from the reference"]] * n_rows
    return [row_errors(spec, r, ref, alpha, c0) for r, ref in zip(rows, reference["rows"])]


def shifted(reference, text, k, alpha, c0):
    """The same CSV with every binomial column moved up by k combined SEs,
    derived columns recomputed so only the distance check can catch it."""
    spec = SPECS[reference["experiment"]]
    header, rows = parse_csv(text)
    for r, ref in zip(rows, reference["rows"]):
        for col, se_col in spec.binomial.items():
            delta = k * math.hypot(r[se_col], ref["binomial"][col][1])
            if col in spec.counts:
                r[spec.counts[col]] += math.ceil(delta * r["N"])
            else:
                r[col] += delta
        r.update(spec.derive(r, alpha, c0))
    return format_csv(header, rows)


def make_reference(experiment, status, texts):
    """Pool CSVs of independent runs of one config shape into reference rows."""
    spec = SPECS[experiment]
    parsed = [parse_csv(t) for t in texts]
    header = parsed[0][0]
    if any(h != header or len(rows) != len(parsed[0][1]) for h, rows in parsed):
        raise ValueError("reference runs disagree on the CSV schema")
    out = []
    for i, first in enumerate(parsed[0][1]):
        runs = [rows[i] for _, rows in parsed]
        ref = {"keys": {k: first[k] for k in spec.keys}, "binomial": {}, "spread": {}}
        for col in spec.binomial:
            p = math.fsum(r[col] for r in runs) / len(runs)
            ref["binomial"][col] = [p, _se(p, first["N"] * len(runs))]
        for col in spec.spread:
            vals = [r[col] for r in runs]
            mean = math.fsum(vals) / len(vals)
            sd = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
            ref["spread"][col] = [mean, sd]
        out.append(ref)
    return {"experiment": experiment, "status": status, "header": header,
            "runs": len(texts), "rows": out}
