"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

1. The oracle passes a fresh run, and its failure share rises to 1 as the
   CSV's probabilities are moved by more standard errors; a wrong exit
   status or header fails every row.
2. Each workload at reduced size writes the same CSV bytes with workers
   1 and 2 (the CLI's worker-count invariance).
3. The count cross-check holds with the tracer installed and fails when
   one import site of `forest_statistics` is left unwrapped.
4. BENCHMARK.json names exactly the metrics run.py prints.

Exits 1 if any step fails.
"""

from __future__ import annotations

import json
import sys

from oracle import check, shifted
from run import LAYERS, OUT, PER_LAYER, ROOT, HERE, run_sample
from workloads import ALPHA, C0, WORKLOADS, config_doc

# reduced sizes with several chunks each, so workers 2 really splits work
SMALL = {
    "tail-kac": {"N": 20_000, "chunk_size": 4096},
    "cdf-H-det": {"N": 8192, "chunk_size": 2048, "pool_size": 10_000},
    "baseline-iid": {"N": 400, "chunk_size": 4096},
}

failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def oracle_steps(reference):
    OUT.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        path = OUT / f"selftest-{workload}.csv"
        status = run_sample(config_doc(workload, 0, str(path)))["status"]
        text = path.read_text(encoding="utf-8")
        ref = reference[workload]
        fracs = []
        for k in (0.0, 3.0, 6.0, 10.0, 20.0):
            rows = check(ref, shifted(ref, text, k, ALPHA, C0), status, ALPHA, C0)
            fracs.append(sum(bool(r) for r in rows) / len(rows))
        print(f"     {workload}: failed_frac at shifts 0, 3, 6, 10, 20 SE = {fracs}")
        expect(fracs[0] == 0.0 and fracs[-1] == 1.0 and fracs == sorted(fracs),
               f"{workload}: failed_frac rises from 0 to 1 with the shift")
        expect(all(check(ref, text, status + 1, ALPHA, C0)),
               f"{workload}: a wrong exit status fails every row")
        expect(all(check(ref, text.replace(",", ";", 1), status, ALPHA, C0)),
               f"{workload}: a wrong header fails every row")


def worker_invariance():
    for workload, small in SMALL.items():
        texts = []
        for workers in (1, 2):
            path = OUT / f"selftest-{workload}-w{workers}.csv"
            run_sample(config_doc(workload, 0, str(path), **small, workers=workers))
            texts.append(path.read_bytes())
        expect(texts[0] == texts[1], f"{workload}: workers 1 and 2 give identical CSV bytes")


def cross_check():
    sys.path.insert(0, str(ROOT / "src"))
    import kactails.cli as cli
    import kactails.deviations as deviations
    from tracer import Tracer, count_mismatches

    cfg = cli.parse_config(json.dumps(config_doc(
        "tail-kac", 0, str(OUT / "selftest-trace.csv"), **SMALL["tail-kac"])))
    tracer = Tracer()
    tracer.install()
    cli.run(cfg)
    expect(count_mismatches(tracer.summary(), cfg) == [],
           "count cross-check holds with every import site wrapped")

    tracer.spans.clear()
    deviations.forest_statistics = deviations.forest_statistics.__wrapped__
    cli.run(cfg)
    found = count_mismatches(tracer.summary(), cfg)
    expect(bool(found), f"count cross-check catches an unwrapped import site: {found}")


def metric_names():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    expect([(m["name"], m["unit"]) for m in bench["per_layer"]] == list(PER_LAYER),
           "BENCHMARK.json per_layer matches run.PER_LAYER")
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    expect(len(LAYERS) == sum(n.endswith(".self_frac") for n, _ in PER_LAYER),
           "every layer has a self_frac metric")


def main():
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    oracle_steps(reference)
    worker_invariance()
    cross_check()
    metric_names()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
