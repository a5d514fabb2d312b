"""Compare two source trees of kactails run by run on one config matrix.

    python tools/byte_identity.py PARENT_TREE CHANGE_TREE

Each run is `python -m kactails.cli --config cfg.yaml` with
`PYTHONPATH=<tree>/src`, in a fresh directory per tree, writing
`out.csv` there.  A run matches when both trees give the same CSV sha256,
exit code, stderr, and stdout with the elapsed time masked, and the
change tree's stderr holds no Python warning line (`<file>:<line>:
<Name>Warning: ...`), so a new overflow or NaN warning fails the run even
where the parent printed it too.  The CLI's own lowercase `warning:` lines
do not count.  The matrix:

- the 8 experiments x Kac, deterministic (0.6, 0.7) and discrete-mixture
  kernels x symmetric Pareto 1.5 and asymmetric Pareto 1.2 x seeds 1, 2
  x workers 1, 2, at small sizes with several chunks each;
- the conservative kernel of `configs/tail_demo.yaml` (l = r = 2^(-2/3),
  so Q(1.5) = 0 and the pool iteration draws no Theta) x symmetric
  Pareto 1.5 through fixed-point, cdf-H and cf-V x seeds 1, 2 x workers
  1, 2, and fixed-point once more from the all-ones pool (`pool_init:
  ones`, the constant pool that is iterated as one number);
- the law branches the matrix above misses, symmetric Pareto alpha 1
  (K1 = 0) with an explicit xmin 2 and
  asymmetric Pareto alpha 0.8 (below 1, no shift), x Kac kernel through
  bounds, baseline and tail x seeds 1, 2 x workers 1, 2;
- runs that cross the transform blocks of the Pareto samplers
  (`initial_data._BLOCK` draws) and the i.i.d. row blocks
  (`deviations._ROW_BUDGET` draws): baseline and bounds at n = 1000 with
  77 row blocks of 131 rows per chunk or job, the last one partial, and
  a tail run at t = 3 whose sub-batches hold more leaves than a
  transform block, x Kac kernel x both laws of the first matrix x seeds
  1, 2 x workers 1, 2;
- both `configs/` demos, each read from its own tree;
- a tail run that warns (exit 3) in the `mu-up` case, a tail run whose
  x = 1e4 row prints a low-precision note on stderr, a run with
  `--override` flags, and a cf-V run at alpha 1 whose xi = 1e308
  overflows its phases;
- a tail run in each of the two flat regime cases, which warn (exit 3)
  too: a deterministic kernel with l = r = u^(2/3) at alpha 1.5, where
  u = 1 - sqrt(2)/2 gives `mu-flat-moderate` and u = 1 + sqrt(2)/2
  gives `mu-flat-positive`;
- a cf-V run with one xi on the Kac kernel x symmetric Pareto 1.5 x
  workers 1, 2, in 12 chunks, where each chunk's sums are one complex
  number and NumPy adds the chunks pairwise;
- a cdf-H run at x < 0, x = 0 and t = 0 on a discrete-mixture kernel
  with an R = 0 atom and asymmetric Pareto 1.2, x workers 1, 2, where
  P{H <= x} is N less the count of {H > x}, over N;
- cdf-H and cf-V at two t and x < 0 on the Kac kernel x asymmetric
  Pareto 1.2 (a skewed limit) x workers 1, 2, where each x's limit is
  one pool average written in the rows of both t;
- a bounds run near the float range of its bound terms (one weight
  b = 1e50, x = 1e-3 and 1) on the Kac kernel x symmetric Pareto 1.5 and
  asymmetric Pareto 0.8, where K0^2 B^2 / x^alpha is finite but large;
- deep growth: tail (N = 10000, the least it takes, in chunks of 4096)
  and cdf-H (N = 4096) at t = 5 x the three kernels of the first matrix
  x symmetric Pareto 1.5, so the largest tree of a chunk grows for about
  1,000 steps, each drawing its own kernel pairs; and martingale at
  n = 5000 (N = 420, two chunks of 210 trees, ~1M leaves each) x the same
  kernels, whose alpha-sums run over several row blocks;
- limit values whose exponent scale or exponent leaves the float range:
  cf-V at alpha 1 with xmin 2 and xi = +/-1e308, where c0+ pi |xi|
  overflows; cf-V at alpha 1.5 and xi = 3e205, where |xi|^alpha lambda
  overflows, on a kernel with an L = R = 0 atom, so the pool has mass at
  zero; and cdf-H with xmin 2 at x = 1e-205 on a kernel with an R = 0
  atom, where c0 x^-alpha is finite but c0 x^-alpha Z overflows;
- a tail, a cdf-H and an ode-residual run whose rescale factor
  e^(-mu(alpha) t) underflows to 0 (mu(0.5) = 2e100 at t = 3, on a
  discrete-mixture kernel with a 1e200 atom), which are config errors
  (exit 2);
- bounds at n = 1000 with an explicit b whose every seventh weight is 0,
  b_1 among them, so the weighted rows cross row blocks and b(n) |X_1|
  comes from an unweighted entry, x Kac kernel x symmetric Pareto 1.5;
- ode-residual at x = 2 and x = -2 on a discrete-mixture kernel with
  atoms (0.9, 0), (0, 0.7) and (0.6, 0.8), where F(x / 0) is 1 and 0;
- seven config errors (exit 2): a deterministic kernel that lacks `r`
  and has an unknown key `q`, alpha 2, alpha 1 with c+ 0.5 and c- 0.3,
  ode-residual at x = 0, fixed-point with `pool_init: [ones]`,
  martingale at n = 2000 on the deterministic kernel l = r = 100, where
  m_n(1.5) = e^2767 leaves the float range, and martingale at n = 2^60,
  whose n float64s no array can hold.

That is 299 runs.  Prints each mismatch and a summary line; exits 1 on any mismatch.
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
# one xi in 12 chunks: the one merge that NumPy sums pairwise
ONE_XI_CF = "t: 1.0\nxs: [0.5]\nN: 6000\nchunk_size: 512\npool_size: 2000\niterations: 3"
# the conservative kernel's fixed point Z = 1 as the starting pool
ONES_POOL = "pool_size: 2000\niterations: 3\npool_init: ones"
# sizes whose draws cross the sampler's transform blocks and row blocks:
# 10000 rows of n = 1000 per chunk or job, in 77 row blocks
BLOCKED_SIZES = {
    "bounds": "n: 1000\nxs: [5.0, 10.0]\nN: 10000",
    "baseline": "n: 1000\nxs: [2.0, 5.0]\nN: 10000\nchunk_size: 65536",
    "tail": "t: 3.0\nxs: [2.0, 5.0]\nN: 10000\nchunk_size: 4096",
}
# t = 5: the largest of 4096 Yule trees has ~1,000 leaves; martingale at
# n = 5000: two chunks of 210 trees, each ~1M leaves in 5000 slot rows of
# 210, over eight row blocks (at most processes._ROW_BLOCK leaves each)
DEEP_SIZES = {
    "tail": "t: 5.0\nxs: [10.0, 50.0]\nN: 10000\nchunk_size: 4096",
    "cdf-H": "t: 5.0\nxs: [0.5, 2.0]\nN: 4096\npool_size: 2000\niterations: 3",
    "martingale": "n: [5000]\nN: 420",
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
# exponent scales s of the limits' pool average E[exp(-s Z)] that overflow,
# or whose products s Z do
LIMIT_EDGES = {
    "cf-V-alpha1-xmin2-overflow": """experiment: cf-V
seed: 3
kernel: {kind: kac}
initial: {kind: symmetric-pareto, alpha: 1.0, xmin: 2.0}
t: 1.0
xs: [1.0e+308, -1.0e+308, 0.5]
N: 2000
pool_size: 1000
iterations: 3
""",
    "cf-V-scale-overflow-mass-at-zero": """experiment: cf-V
seed: 3
kernel: {kind: discrete-mixture, atoms: [[0.0, 0.0], [1.0, 0.5]], probs: [0.2, 0.8]}
initial: {kind: symmetric-pareto, alpha: 1.5}
t: 1.0
xs: [3.0e+205, 0.5]
N: 2000
pool_size: 2000
iterations: 3
""",
    "cdf-H-xmin2-product-overflow": """experiment: cdf-H
seed: 3
kernel: {kind: discrete-mixture, atoms: [[0.0, 0.0], [1.0, 0.9]], probs: [0.2, 0.8]}
initial: {kind: symmetric-pareto, alpha: 1.5, xmin: 2.0}
t: 1.0
xs: [1.0e-205, 2.0]
N: 2000
pool_size: 2000
iterations: 3
""",
}
# mu(0.5) = 2e100: e^(-mu t) is 0 at t = 3, which used to give all-zero hit counts
RESCALE_UNDERFLOW = """seed: 3
kernel: {kind: discrete-mixture, atoms: [[1.0e+200, 1.0e+200], [0.5, 0.0]], probs: [0.5, 0.5]}
initial: {kind: symmetric-pareto, alpha: 0.5}
t: 3.0
xs: [10.0]
N: 10000
"""
# n = 1000 weights, every seventh 0 (b_1 too): 77 row blocks of 131 rows
ZERO_WEIGHTS = ("n: 1000\nb: [" + ", ".join("0.0" if j % 7 == 0 else f"0.0{1 + j % 3}"
                                            for j in range(1000))
                + "]\nxs: [5.0, 10.0]\nN: 10000")
# an L = 0 and an R = 0 atom, so the gain term meets F(x / 0)
ZERO_ATOMS = "{kind: discrete-mixture, atoms: [[0.9, 0.0], [0.0, 0.7], [0.6, 0.8]], " \
    "probs: [0.3, 0.3, 0.4]}"
# symmetric Pareto 1.5: B = 1e75, K0^2 B^2 = 4e150 over x^a = 3.2e-5 at x = 1e-3
BOUNDS_EDGE = "n: 1\nb: [1.0e+50]\nxs: [1.0e-3, 1.0]\nN: 5000"
# P{H <= x} at x <= 0 and t = 0, over paths some of whose weights are 0
CDF_EDGE = """experiment: cdf-H
seed: 11
kernel: {kind: discrete-mixture, atoms: [[0.9, 0.0], [0.5, 0.8]], probs: [0.4, 0.6]}
initial: {kind: asymmetric-pareto, alpha: 1.2, c_plus: 0.7, c_minus: 0.3}
t: [0.0, 1.0, 2.5]
xs: [-1.0, 0.0, 0.5, 2.0]
N: 6000
chunk_size: 2048
pool_size: 2000
iterations: 3
"""

# two t over one pool, so each x's limit is written under both t
TWO_T_LIMITS = ("t: [0.5, 1.5]\nxs: [-1.0, 0.5, 2.0]\nN: 6000\nchunk_size: 2048\n"
                "pool_size: 2000\niterations: 3")


def warned_tail(l):
    """A tail run on the deterministic kernel l = r, outside the
    unrestricted case for the l given here, so it warns (exit 3)."""
    return f"""experiment: tail
seed: 5
kernel: {{kind: deterministic, l: {l!r}, r: {l!r}}}
initial: {{kind: symmetric-pareto, alpha: 1.5}}
t: 1.0
xs: [10.0]
N: 20000
"""


# l^1.5 = 1/4: mu(3) > mu(1.5)
WARNED = warned_tail(0.3968502629920499)
# l = r = u^(2/3) with u = 1 -/+ sqrt(2)/2 gives mu(3) = mu(1.5) exactly
FLAT_KERNELS = {
    "mu-flat-moderate": 0.4410348192075107,
    "mu-flat-positive": 1.4283691389251392,
}
# expected hits N c0 / x^a: 632 at x = 10, 0.02 at x = 1e4 (a note)
LOW_PRECISION = """experiment: tail
seed: 13
kernel: {kind: kac}
initial: {kind: symmetric-pareto, alpha: 1.5}
t: 1.0
xs: [10.0, 1.0e+4]
N: 20000
"""
# (experiment, kernel, law, sizes) of runs that are config errors
CONFIG_ERRORS = {
    "kernel-missing-r-unknown-q": ("tail", "{kind: deterministic, l: 0.6, q: 0.7}",
                                   LAWS["sym1.5"], SIZES["tail"]),
    "alpha-2": ("tail", KERNELS["kac"], "{kind: symmetric-pareto, alpha: 2.0}", SIZES["tail"]),
    "alpha-1-asym": ("tail", KERNELS["kac"],
                     "{kind: asymmetric-pareto, alpha: 1.0, c_plus: 0.5, c_minus: 0.3}",
                     SIZES["tail"]),
    "ode-residual-x0": ("ode-residual", KERNELS["kac"], LAWS["sym1.5"], "t: 1.0\nx: 0\nN: 3000"),
    "pool-init-list": ("fixed-point", KERNELS["kac"], LAWS["sym1.5"],
                       "pool_size: 2000\niterations: 3\npool_init: [ones]"),
    # Q(1.5) = 1999: m_n = e^2767 at n = 2000, while the weights stay finite
    "martingale-m_n-overflow": ("martingale", "{kind: deterministic, l: 100.0, r: 100.0}",
                                LAWS["sym1.5"], "n: [2000]\nN: 4"),
    # 2^60 leaves: 2^63 bytes, past the largest array NumPy can address
    "martingale-n-2^60": ("martingale", KERNELS["kac"], LAWS["sym1.5"],
                          "n: [1152921504606846976]\nN: 4"),
}
_ELAPSED = re.compile(r"\(\d+\.\d+s\)")
_PY_WARNING = re.compile(r"^.*:\d+: \w*Warning: ", re.M)


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
    for (exp, size), (kn, kernel) in itertools.product(DEEP_SIZES.items(), KERNELS.items()):
        text = (f"experiment: {exp}\nseed: 1\nkernel: {kernel}\n"
                f"initial: {LAWS['sym1.5']}\n{size}\n")
        runs.append((f"deep/{exp}/{kn}/sym1.5", text, None, []))
    for demo in ("tail_demo", "martingale_demo"):
        runs.append((f"configs/{demo}", None, f"configs/{demo}.yaml", []))
    runs.append(("warned-exit-3", WARNED, None, []))
    for case, l in FLAT_KERNELS.items():
        runs.append((f"warned-exit-3/{case}", warned_tail(l), None, []))
    runs.append(("low-precision-note", LOW_PRECISION, None, []))
    runs.append(("cf-V-alpha1-overflow", CF_OVERFLOW, None, []))
    for workers in (1, 2):
        text = (f"experiment: cf-V\nseed: 1\nkernel: {KERNELS['kac']}\n"
                f"initial: {LAWS['sym1.5']}\n{ONE_XI_CF}\nworkers: {workers}\n")
        runs.append((f"cf-V-one-xi/kac/sym1.5/w{workers}", text, None, []))
        runs.append((f"cdf-H-edge/w{workers}", f"{CDF_EDGE}workers: {workers}\n", None, []))
        runs += [(f"two-t/{exp}/kac/asym1.2/w{workers}",
                  f"experiment: {exp}\nseed: 2\nkernel: {KERNELS['kac']}\n"
                  f"initial: {LAWS['asym1.2']}\n{TWO_T_LIMITS}\nworkers: {workers}\n", None, [])
                 for exp in ("cdf-H", "cf-V")]
    for ln, law in (("sym1.5", LAWS["sym1.5"]), ("asym0.8", EDGE_LAWS["asym0.8"])):
        text = (f"experiment: bounds\nseed: 3\nkernel: {KERNELS['kac']}\n"
                f"initial: {law}\n{BOUNDS_EDGE}\n")
        runs.append((f"bounds-edge/kac/{ln}", text, None, []))
    runs += [(name, text, None, []) for name, text in LIMIT_EDGES.items()]
    # ode-residual reads its one x from `x` and ignores `xs`
    runs += [(f"rescale-underflow/{exp}", f"experiment: {exp}\n{RESCALE_UNDERFLOW}{extra}",
              None, [])
             for exp, extra in (("tail", ""), ("cdf-H", ""), ("ode-residual", "x: 10.0\n"))]
    runs.append(("bounds-zero-weights/kac/sym1.5", f"experiment: bounds\nseed: 3\nkernel: "
                 f"{KERNELS['kac']}\ninitial: {LAWS['sym1.5']}\n{ZERO_WEIGHTS}\n", None, []))
    runs += [(f"ode-residual-zero-atoms/x{x}", f"experiment: ode-residual\nseed: 3\nkernel: "
              f"{ZERO_ATOMS}\ninitial: {LAWS['sym1.5']}\nt: 1.0\nx: {x}\nN: 3000\n", None, [])
             for x in (2.0, -2.0)]
    runs += [(f"config-error/{name}",
              f"experiment: {exp}\nseed: 3\nkernel: {kernel}\ninitial: {law}\n{size}\n", None, [])
             for name, (exp, kernel, law, size) in CONFIG_ERRORS.items()]
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
    diffs = [f"{label}: {x!r} != {y!r}" for label, x, y in zip(labels, a, b) if x != y]
    warned = _PY_WARNING.search(b[3])
    if warned:
        diffs.append(f"change stderr has a Python warning: {warned.group(0)!r}")
    return name, diffs


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
