"""The benchmark workloads: kactails CLI config documents built from a seed.

Each workload is one experiment run through `cli.parse_config`, `cli.run`
and `cli.write_csv` with `workers: 1`, one experiment at a time (a closed
loop of one client).  The benchmark seed only picks the config's 64-bit
seed; everything else in the document is fixed here.
"""

from __future__ import annotations

import hashlib
import json

ALPHA = 1.5
C0 = 1.0  # symmetric Pareto with xmin = 1: c0+ = c0- = 1/2

_PARETO = {"kind": "symmetric-pareto", "alpha": ALPHA}
# configs/tail_demo.yaml: l = r = 2^(-2/3), so Q(1.5) = 0
_DET = {"kind": "deterministic", "l": 0.6299605249474366, "r": 0.6299605249474366}

WORKLOADS = {
    # headline estimator on the main sampling path; t moves the chunk
    # working set from ~45k leaves (t = 1) to ~2.4M leaves (t = 5)
    "tail-kac": {
        "experiment": "tail", "kernel": {"kind": "kac"}, "initial": _PARETO,
        "t": [1.0, 3.0, 5.0], "xs": [10.0, 20.0, 50.0], "N": 32768,
    },
    # the only workload through `limits`; kernel draws are np.full here,
    # so it bypasses any kernel-draw optimisation
    "cdf-H-det": {
        "experiment": "cdf-H", "kernel": _DET, "initial": _PARETO,
        "t": [5.0], "xs": [0.5, 1.0, 2.0, 5.0], "N": 16384,
        "pool_size": 1_000_000, "iterations": 60,
    },
    # i.i.d. rows of check 09's length: initial-law draws and the
    # deviations row-block loop, no trees at all
    "baseline-iid": {
        "experiment": "baseline", "kernel": {"kind": "kac"}, "initial": _PARETO,
        "n": [10_000], "xs": [2.0, 5.0, 10.0], "N": 2_500,
    },
}

BENCH_NAMESPACE = "perfbench"
REFERENCE_NAMESPACE = "perfbench-reference"


def config_seed(workload: str, seed: int, namespace: str = BENCH_NAMESPACE) -> int:
    """64-bit config seed; the reference namespace never shares a stream."""
    digest = hashlib.sha256(f"{namespace}/{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def config_doc(workload: str, seed: int, output: str,
               namespace: str = BENCH_NAMESPACE, **overrides) -> dict:
    doc = dict(WORKLOADS[workload])
    doc.update(seed=config_seed(workload, seed, namespace), workers=1, output=output)
    doc.update(overrides)
    return doc


def config_text(doc: dict) -> str:
    """JSON is a YAML subset, so the CLI parser reads it as is."""
    return json.dumps(doc, sort_keys=True)
