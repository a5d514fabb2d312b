"""One benchmark sample, in a fresh interpreter.

    python3 perfbench/sample.py CONFIG_JSON [--trace | --setup-only]

Imports kactails from the checkout's `src`, parses the config, runs it and
writes its CSV, the way the `kactails` CLI does.  Prints one JSON line:
`setup_s` (import + parse), `run_s` (`cli.run` + CSV write), the run's
exit status, peak RSS, the numpy version and, with --trace, the span
summary and the count cross-check.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv):
    text, flags = argv[0], set(argv[1:])
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import kactails.cli as cli
    if "--trace" in flags:
        from tracer import Tracer, count_mismatches
        tracer = Tracer()
        tracer.install()
    cfg = cli.parse_config(text)
    t1 = time.perf_counter()
    out = {"setup_s": t1 - t0, "kactails": cli.__file__}
    if "--setup-only" not in flags:
        records, status, _ = cli.run(cfg)
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
            cli.write_csv(records, cfg.experiment, fh)
        out["run_s"] = time.perf_counter() - t1
        out["status"] = status
    import numpy
    out["numpy"] = numpy.__version__
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "--trace" in flags:
        out["trace"] = tracer.summary()
        out["mismatches"] = count_mismatches(out["trace"], cfg)
        with open(cfg.output + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
