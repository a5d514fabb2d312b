"""Compare two source trees of kactails run by run on one config matrix.

    python tools/byte_identity.py PARENT_TREE CHANGE_TREE

Each run is `python -m kactails.cli --config cfg.yaml` with
`PYTHONPATH=<tree>/src`, in a fresh directory per tree, writing
`out.csv` there.  A run matches when both trees give the same CSV sha256,
exit code, stderr, and stdout with the elapsed time masked.  The matrix:

- the 8 experiments x Kac, deterministic (0.6, 0.7) and discrete-mixture
  kernels x symmetric Pareto 1.5 and asymmetric Pareto 1.2 x seeds 1, 2
  x workers 1, 2, at small sizes with several chunks each;
- the conservative kernel of `configs/tail_demo.yaml` (l = r = 2^(-2/3),
  so Q(1.5) = 0 and the pool iteration draws no Theta) x symmetric
  Pareto 1.5 through fixed-point, cdf-H and cf-V x seeds 1, 2 x workers
  1, 2, and fixed-point once more from the all-ones pool (`pool_init:
  ones`, the constant pool that is iterated as one number);
- the law branches the matrix above misses, symmetric Pareto alpha 1
  (K1 from gamma0 and trunc_mean_dev) with an explicit xmin 2 and
  asymmetric Pareto alpha 0.8 (below 1, no shift), x Kac kernel through
  bounds, baseline and tail x seeds 1, 2 x workers 1, 2;
- runs that cross the transform blocks of the Pareto samplers
  (`initial_data._BLOCK` draws) and the i.i.d. row blocks
  (`deviations._ROW_BUDGET` draws): baseline and bounds at n = 1000 with
  three row blocks per chunk or job, the last one partial, and a tail
  run at t = 3 whose sub-batches hold more leaves than a transform
  block, x Kac kernel x both laws of the first matrix x seeds 1, 2 x
  workers 1, 2;
- both `configs/` demos, each read from its own tree;
- a tail run that warns (exit 3), a run with `--override` flags, and a
  cf-V run at alpha 1 whose xi = 1e308 overflows its phases.

Prints each mismatch and a summary line; exits 1 on any mismatch.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

KERNELS = {
    "kac": "{kind: kac}",
    "det": "{kind: deterministic, l: 0.6, r: 0.7}",
    "mix": "{kind: discrete-mixture, atoms: [[0.9, 0.3], [0.5, 0.8]], probs: [0.4, 0.6]}",
}
LAWS = {
    "sym1.5": "{kind: symmetric-pareto, alpha: 1.5}",
    "asym1.2": "{kind: asymmetric-pareto, alpha: 1.2, c_plus: 0.7, c_minus: 0.3}",
}
EDGE_LAWS = {
    "sym1.0-xmin2": "{kind: symmetric-pareto, alpha: 1.0, xmin: 2.0}",
    "asym0.8": "{kind: asymmetric-pareto, alpha: 0.8, c_plus: 0.7, c_minus: 0.3}",
}
CONSERVATIVE = ("cons", "{kind: deterministic, l: 0.6299605249474366, r: 0.6299605249474366}")
# small sizes with several chunks (or jobs) each, so workers 2 splits the work
SIZES = {
    "tail": "t: [0.5, 1.0]\nxs: [2.0, 5.0]\nN: 10000\nchunk_size: 4096",
    "cdf-H": "t: 1.0\nxs: [0.5, 2.0]\nN: 6000\nchunk_size: 2048\npool_size: 2000\niterations: 3",
    "cf-V": "t: 1.0\nxs: [0.5, 2.0]\nN: 6000\nchunk_size: 2048\npool_size: 2000\niterations: 3",
    "fixed-point": "pool_size: 2000\niterations: 3\npool_init: exponential",
    "bounds": "n: 4\nxs: [5.0, 10.0]\nN: 5000",
    "baseline": "n: 100\nxs: [2.0, 5.0]\nN: 2000\nchunk_size: 128",
    "ode-residual": "t: 1.0\nx: 2.0\nN: 3000",
    "martingale": "n: [16, 256]\nN: 3000\nchunk_size: 512",
}
# the conservative kernel's fixed point Z = 1 as the starting pool
ONES_POOL = "pool_size: 2000\niterations: 3\npool_init: ones"
# sizes whose draws cross the sampler's transform blocks and row blocks
BLOCKED_SIZES = {
    "bounds": "n: 1000\nxs: [5.0, 10.0]\nN: 10000",
    "baseline": "n: 1000\nxs: [2.0, 5.0]\nN: 10000\nchunk_size: 65536",
    "tail": "t: 3.0\nxs: [2.0, 5.0]\nN: 10000\nchunk_size: 4096",
}
CF_OVERFLOW = """experiment: cf-V
seed: 3
kernel: {kind: kac}
initial: {kind: symmetric-pareto, alpha: 1.0}
t: 1.0
xs: [1.0e+308, 0.5]
N: 2000
pool_size: 1000
iterations: 3
"""
WARNED = """experiment: tail
seed: 5
kernel: {kind: deterministic, l: 0.3968502629920499, r: 0.3968502629920499}
initial: {kind: symmetric-pareto, alpha: 1.5}
t: 1.0
xs: [10.0]
N: 20000
"""
_ELAPSED = re.compile(r"\(\d+\.\d+s\)")


def matrix():
    """(name, config text or None, tree-relative config path or None, extra args)."""
    runs = []
    for exp, (kn, kernel), (ln, law), seed, workers in itertools.chain(
            itertools.product(SIZES, KERNELS.items(), LAWS.items(), (1, 2), (1, 2)),
            itertools.product(("fixed-point", "cdf-H", "cf-V"), [CONSERVATIVE],
                              [("sym1.5", LAWS["sym1.5"])], (1, 2), (1, 2)),
            itertools.product(("bounds", "baseline", "tail"), [("kac", KERNELS["kac"])],
                              EDGE_LAWS.items(), (1, 2), (1, 2))):
        text = (f"experiment: {exp}\nseed: {seed}\nkernel: {kernel}\ninitial: {law}\n"
                f"{SIZES[exp]}\nworkers: {workers}\n")
        runs.append((f"{exp}/{kn}/{ln}/seed{seed}/w{workers}", text, None, []))
    for (exp, size), (ln, law), seed, workers in itertools.product(
            BLOCKED_SIZES.items(), LAWS.items(), (1, 2), (1, 2)):
        text = (f"experiment: {exp}\nseed: {seed}\nkernel: {KERNELS['kac']}\n"
                f"initial: {law}\n{size}\nworkers: {workers}\n")
        runs.append((f"blocked/{exp}/kac/{ln}/seed{seed}/w{workers}", text, None, []))
    for seed, workers in itertools.product((1, 2), (1, 2)):
        text = (f"experiment: fixed-point\nseed: {seed}\nkernel: {CONSERVATIVE[1]}\n"
                f"initial: {LAWS['sym1.5']}\n{ONES_POOL}\nworkers: {workers}\n")
        runs.append((f"fixed-point-ones/cons/sym1.5/seed{seed}/w{workers}", text, None, []))
    for demo in ("tail_demo", "martingale_demo"):
        runs.append((f"configs/{demo}", None, f"configs/{demo}.yaml", []))
    runs.append(("warned-exit-3", WARNED, None, []))
    runs.append(("cf-V-alpha1-overflow", CF_OVERFLOW, None, []))
    runs.append(("override", None, "configs/tail_demo.yaml",
                 ["--override", "seed=7", "--override", "xs=[5.0]",
                  "--override", "N=40000", "--workers", "2"]))
    return runs


def run_one(tree, text, config, args):
    """(csv sha256 or None, exit code, stdout with elapsed masked, stderr)."""
    with tempfile.TemporaryDirectory() as work:
        cfg = Path(work) / "cfg.yaml"
        cfg.write_text(text if text is not None else (tree / config).read_text())
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "kactails.cli", "--config", str(cfg),
             "--output", "out.csv", *args],
            cwd=work, env=env, capture_output=True, text=True)
        out = Path(work) / "out.csv"
        digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
        return digest, proc.returncode, _ELAPSED.sub("(*s)", proc.stdout), proc.stderr


def compare(parent, change, run):
    name, text, config, args = run
    a = run_one(parent, text, config, args)
    b = run_one(change, text, config, args)
    labels = ("csv sha256", "exit code", "stdout", "stderr")
    return name, [f"{label}: {x!r} != {y!r}" for label, x, y in zip(labels, a, b) if x != y]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    runs = matrix()
    mismatches = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for name, diffs in pool.map(lambda r: compare(parent, change, r), runs):
            for d in diffs:
                print(f"MISMATCH {name}: {d}")
            mismatches += bool(diffs)
    print(f"{len(runs)} runs, {mismatches} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
