"""The benchmark's layer tracer still reads the library as it expects.

perfbench/tracer.py wraps kactails functions at every import site and
cross-checks the counts of each layer (leaves grown against law draws
inside forest_statistics, paths against N per t, ...).  A refactor that
moves a draw out of its span, renames a traced function or changes what
a count reads from its result shows up here as a count mismatch.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Tracer.install rebinds kactails attributes process-wide, so each run
# gets an interpreter of its own
_TRACED_RUN = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import kactails.cli as cli
from tracer import Tracer, count_mismatches
from workloads import config_doc

workload, small = sys.argv[3], json.loads(sys.argv[4])
cfg = cli.parse_config(json.dumps(config_doc(workload, 0, "unused.csv", **small)))
tracer = Tracer()
tracer.install()
cli.run(cfg)
print(json.dumps(count_mismatches(tracer.summary(), cfg)))
"""

# small copies of the benchmark workloads, each over several chunks
SMALL = {
    "tail-kac": {"N": 10_000, "chunk_size": 4096},
    "cdf-H-det": {"N": 1024, "chunk_size": 512, "pool_size": 10_000},
    "baseline-iid": {"N": 40, "chunk_size": 16},
}


@pytest.mark.parametrize("workload", list(SMALL))
def test_tracer_counts_agree_across_layers(workload):
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(ROOT / "perfbench"), str(ROOT / "src"),
         workload, json.dumps(SMALL[workload])],
        capture_output=True, text=True, check=True, cwd=ROOT)
    assert json.loads(proc.stdout) == []
