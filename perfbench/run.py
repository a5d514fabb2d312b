"""kactails benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload tail-kac --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each sample is a fresh interpreter
(`sample.py`) that imports kactails from `src`, parses the workload's
config and runs it through the CLI entry points with `workers: 1`, as a
user's `kactails` invocation would.  Samples run one after another (a
closed loop of one client) until `--seconds` have passed, and every
sample's CSV is checked by `oracle.py` against `reference.json` and
against the first sample's bytes.

--trace 0 prints the end-to-end metrics (medians over the samples);
--trace 1 alternates untraced and traced samples and prints the
per-layer metrics.  The last stdout line is the result object; the line
before it records the environment, and `.perfbench_out/` keeps the
result with every sample's raw figures, the last CSV and its spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from oracle import check, shifted
from workloads import ALPHA, C0, WORKLOADS, config_doc, config_seed, config_text

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SAMPLE_TIMEOUT_S = 60
MIN_SAMPLES = 3        # untraced samples per run, and traced ones with --trace 1
SHIFT_SE = 20.0        # the oracle must reject outputs moved this far

# (metric, unit) reported with --trace 1, in BENCHMARK.json order
LAYERS = ("kernels", "initial_data", "weights", "processes", "limits", "deviations", "cli")
PER_LAYER = (
    ("kernels.sample.ns_per_draw", "ns"),
    ("kernels.sample.draws", "count"),
    ("initial_data.sample.ns_per_draw", "ns"),
    ("initial_data.sample.draws", "count"),
    ("weights.grow_weights_batch.self_ns_per_leaf", "ns"),
    ("weights.grow_weights_batch.leaves", "count"),
    ("processes.forest_statistics.self_ns_per_leaf", "ns"),
    ("processes.forest_statistics.paths", "count"),
    ("processes.sample_yule.ns_per_path", "ns"),
    ("limits.zpool_iterate.self_ns_per_update", "ns"),
    ("limits.zpool_iterate.updates", "count"),
    ("limits.cdf_H_infinity.s", "s"),
    ("deviations.tail_hit_counts.self_ns_per_path", "ns"),
    ("deviations.iid_hit_counts.self_ns_per_draw", "ns"),
    ("cli.parse_config.s", "s"),
    ("cli.run.self_s", "s"),
    ("cli.write_csv.s", "s"),
    *((f"{layer}.self_frac", "frac") for layer in LAYERS),
    ("trace.coverage_frac", "frac"),
    ("trace.overhead_frac", "frac"),
)


class SampleError(RuntimeError):
    pass


def run_sample(doc, *flags):
    """Run sample.py once on a config document; returns its JSON report."""
    cmd = [sys.executable, str(HERE / "sample.py"), config_text(doc), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SAMPLE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SampleError(f"sample exited with {proc.returncode}:\n{proc.stderr}")
    report = json.loads(proc.stdout.splitlines()[-1])
    if Path(report["kactails"]).resolve().parent.parent.parent != ROOT:
        raise SampleError(f"kactails was imported from {report['kactails']}, not {ROOT}/src")
    return report


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def per_layer(traced, untraced):
    names = {}
    for s in traced:
        for name, entry in s["trace"]["names"].items():
            acc = names.setdefault(name, {})
            for key, value in entry.items():
                acc[key] = acc.get(key, 0) + value

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    n = len(traced)
    run_total = sum(s["run_s"] for s in traced)
    leaves = get("weights.grow_weights_batch", "leaves")
    m = {
        "kernels.sample.ns_per_draw":
            ratio(get("kernels.sample", "total_ns"), get("kernels.sample", "draws")),
        "kernels.sample.draws": get("kernels.sample", "draws") / n,
        "initial_data.sample.ns_per_draw":
            ratio(get("initial_data.sample", "total_ns"), get("initial_data.sample", "draws")),
        "initial_data.sample.draws": get("initial_data.sample", "draws") / n,
        "weights.grow_weights_batch.self_ns_per_leaf":
            ratio(get("weights.grow_weights_batch", "self_ns"), leaves),
        "weights.grow_weights_batch.leaves": leaves / n,
        "processes.forest_statistics.self_ns_per_leaf":
            ratio(get("processes.forest_statistics", "self_ns"), leaves),
        "processes.forest_statistics.paths": get("processes.forest_statistics", "paths") / n,
        "processes.sample_yule.ns_per_path":
            ratio(get("processes.sample_yule", "total_ns"), get("processes.sample_yule", "paths")),
        "limits.zpool_iterate.self_ns_per_update":
            ratio(get("limits.zpool_iterate", "self_ns"), get("limits.zpool_iterate", "updates")),
        "limits.zpool_iterate.updates": get("limits.zpool_iterate", "updates") / n,
        "limits.cdf_H_infinity.s": get("limits.cdf_H_infinity", "total_ns") / 1e9 / n,
        "deviations.tail_hit_counts.self_ns_per_path":
            ratio(get("deviations.tail_hit_counts", "self_ns"),
                  get("deviations.tail_hit_counts", "paths")),
        "deviations.iid_hit_counts.self_ns_per_draw":
            ratio(get("deviations.iid_hit_counts", "self_ns"),
                  get("deviations.iid_hit_counts", "draws")),
        "cli.parse_config.s": get("cli.parse_config", "total_ns") / 1e9 / n,
        "cli.run.self_s": get("cli.run", "self_ns") / 1e9 / n,
        "cli.write_csv.s": get("cli.write_csv", "total_ns") / 1e9 / n,
    }
    covered = 0.0
    for layer in LAYERS:
        self_s = sum(e["self_ns"] for name, e in names.items()
                     if name.split(".")[0] == layer and name != "cli.parse_config") / 1e9
        m[f"{layer}.self_frac"] = self_s / run_total
        covered += self_s
    m["trace.coverage_frac"] = covered / run_total
    m["trace.overhead_frac"] = (statistics.median(s["run_s"] for s in traced)
                                / statistics.median(s["run_s"] for s in untraced) - 1.0)
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kactails" / "__init__.py").is_file():
        print(f"error: no kactails sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    csv_path = Path(f"{stem}.csv")
    doc = config_doc(args.workload, args.seed, str(csv_path))

    try:
        warm = run_sample(doc, "--setup-only")  # byte-compiles and warms the file cache
        samples = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(samples) % 2 == 1
            s = run_sample(doc, *(("--trace",) if traced else ()))
            s["traced"] = traced
            s["csv"] = csv_path.read_text(encoding="utf-8")
            samples.append(s)
            untraced = [x for x in samples if not x["traced"]]
            enough = len(untraced) >= MIN_SAMPLES and (
                not args.trace or len(samples) - len(untraced) >= MIN_SAMPLES)
            if enough and time.perf_counter() - start >= args.seconds:
                break
    except (SampleError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    first = samples[0]["csv"].splitlines()
    attempted = failed = 0
    for k, s in enumerate(samples):
        reasons = check(reference, s["csv"], s["status"], ALPHA, C0)
        lines = s["csv"].splitlines()
        for i, errs in enumerate(reasons):
            if len(lines) != len(first) or lines[i + 1:i + 2] != first[i + 1:i + 2]:
                errs = [*errs, "CSV bytes differ from the first sample at this seed"]
            for mismatch in s.get("mismatches", []):
                errs = [*errs, f"count cross-check: {mismatch}"]
            attempted += 1
            if errs:
                failed += 1
                print(f"sample {k} row {i}: " + "; ".join(errs), file=sys.stderr)

    # the oracle itself must reject a passing CSV moved by SHIFT_SE SEs
    oracle_ok = failed > 0 or all(check(
        reference, shifted(reference, samples[0]["csv"], SHIFT_SE, ALPHA, C0),
        reference["status"], ALPHA, C0))
    if not oracle_ok:
        print("error: oracle accepted a CSV shifted by "
              f"{SHIFT_SE:g} standard errors", file=sys.stderr)

    untraced = [s for s in samples if not s["traced"]]
    if args.trace:
        metrics = per_layer([s for s in samples if s["traced"]], untraced)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "run_s": statistics.median(s["run_s"] for s in untraced),
            "setup_s": statistics.median(s["setup_s"] for s in untraced),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in untraced),
            "pass_frac": 1.0 - failed / attempted,
        }
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "frac"}

    env = {
        "python": platform.python_version(),
        "numpy": warm["numpy"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "config_seed": config_seed(args.workload, args.seed),
        "sizes": {k: v for k, v in WORKLOADS[args.workload].items()
                  if k not in ("kernel", "initial")},
        "workers": doc["workers"],
        "samples": len(samples),
        "traced_samples": len(samples) - len(untraced),
    }
    result = {
        "correct": failed == 0 and oracle_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result,
                   "samples": [{k: v for k, v in s.items() if k != "csv"}
                               for s in samples]}, fh, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
