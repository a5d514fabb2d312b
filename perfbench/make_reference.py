"""Record `reference.json`: pooled reference rows for every workload.

    python3 perfbench/make_reference.py

Runs each workload RUNS times at seeds from the reference namespace (never
a benchmark seed) and pools the CSVs with `oracle.make_reference`.  Rerun
only when a workload's config changes; a faster sampler needs no new
reference, because the oracle compares values within their standard
errors, not bytes.
"""

from __future__ import annotations

import json

from oracle import make_reference
from run import HERE, OUT, run_sample
from workloads import REFERENCE_NAMESPACE, WORKLOADS, config_doc

RUNS = 8


def main():
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / "reference.csv"
    reference = {}
    for workload, shape in WORKLOADS.items():
        texts, statuses = [], set()
        for k in range(RUNS):
            doc = config_doc(workload, k, str(csv_path), namespace=REFERENCE_NAMESPACE)
            statuses.add(run_sample(doc)["status"])
            texts.append(csv_path.read_text(encoding="utf-8"))
        if len(statuses) != 1:
            raise SystemExit(f"{workload}: reference runs disagree on exit status")
        reference[workload] = make_reference(shape["experiment"], statuses.pop(), texts)
        print(f"{workload}: {RUNS} runs pooled")
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
