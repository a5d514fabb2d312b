import contextlib
import dataclasses
import errno
import io
import math
import multiprocessing
import os
import pathlib
import re
import string
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import kactails as kt
import kactails.cli as cli
from kactails import weights
from kactails.kernels import spectral
from kactails.processes import forest_statistics, law_sums
from kactails.weights import grow_weights_batch, mean_weight_norm

MINIMAL = """
experiment: tail
seed: 42
kernel: {kind: kac}
initial: {kind: symmetric-pareto, alpha: 1.5}
t: 3.0
xs: [10.0]
N: 100000
"""


def test_parse_minimal_config():
    cfg = cli.parse_config(MINIMAL)
    assert cfg.experiment == "tail"
    assert cfg.seed == 42
    assert cfg.t == [3.0] and cfg.xs == [10.0] and cfg.N == 100_000
    assert cfg.workers == 1


def test_parse_collects_every_error():
    bad = """
experiment: mystery
kernel: {kind: nope}
initial: {kind: symmetric-pareto, alpha: 2.0}
"""
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(bad)
    msgs = "\n".join(exc.value.errors)
    assert len(exc.value.errors) >= 4
    assert "experiment" in msgs
    assert "seed" in msgs
    assert "kernel" in msgs
    assert "alpha" in msgs


def test_parse_rejects_alpha_one_asymmetry():
    bad = """
experiment: tail
seed: 1
kernel: {kind: kac}
initial: {kind: asymmetric-pareto, alpha: 1.0, c_plus: 0.5, c_minus: 0.3}
t: 1.0
xs: [10.0]
N: 10000
"""
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(bad)
    assert exc.value.errors == ["initial block invalid: alpha = 1 requires c_plus = c_minus"]


def test_parse_rejects_alpha_two():
    bad = MINIMAL.replace("alpha: 1.5", "alpha: 2")
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(bad)
    assert exc.value.errors == ["initial block invalid: alpha must lie in (0, 2)"]


@pytest.mark.parametrize("block, text, error", [
    ("kernel", "3", "kernel block is required"),
    ("kernel", "{kind: nope}", "kernel block invalid: unknown kernel kind 'nope'"),
    ("kernel", "{kind: kac, l: 0.5}", "unknown key 'kernel.l': kernel kind 'kac' takes no keys"),
    ("kernel", "{kind: deterministic, l: 0.5}", "kernel block invalid: 'r'"),
    ("kernel", "{kind: deterministic, l: abc, r: 0.5}",
     "kernel block invalid: kernel.l must be a finite number, got 'abc'"),
    ("initial", "[1.5]", "initial block is required"),
    # an unknown kind without alpha read as a missing or out-of-range alpha
    ("initial", "{kind: nope}", "initial block invalid: unknown initial law kind 'nope'"),
    ("initial", "{kind: symmetric-pareto, alpha: 1.5, x_min: 2.0}",
     "unknown key 'initial.x_min': initial kind 'symmetric-pareto' takes alpha, xmin"),
    ("initial", "{kind: asymmetric-pareto, alpha: 1.2, c_plus: 0.5}",
     "initial block invalid: 'c_minus'"),
    ("initial", "{kind: symmetric-pareto, alpha: 1.5, xmin: abc}",
     "initial block invalid: initial.xmin must be a finite number, got 'abc'"),
    # each of these read "initial.alpha must lie in the open interval (0, 2)"
    ("initial", "{kind: symmetric-pareto, alpha: abc}",
     "initial block invalid: initial.alpha must be a finite number, got 'abc'"),
    ("initial", "{kind: symmetric-pareto}", "initial block invalid: 'alpha'"),
    # a stray c_plus at alpha = 1 also read "alpha = 1 requires c_plus = c_minus"
    ("initial", "{kind: symmetric-pareto, alpha: 1.0, c_plus: 0.5}",
     "unknown key 'initial.c_plus': initial kind 'symmetric-pareto' takes alpha, xmin"),
])
def test_kernel_and_initial_blocks_report_exact_errors(block, text, error):
    default = {"kernel": "{kind: kac}", "initial": "{kind: symmetric-pareto, alpha: 1.5}"}
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(MINIMAL.replace(f"{block}: {default[block]}", f"{block}: {text}"))
    assert exc.value.errors == [error]


def test_quoted_alpha_is_read_like_every_block_number():
    cfg = cli.parse_config(MINIMAL.replace("alpha: 1.5", 'alpha: "1.5"'))
    assert cfg.initial.alpha == 1.5


@pytest.mark.parametrize("key, value, shown", [
    ("output", "[1, 2]", "[1, 2]"), ("output", "{a: 1}", "{'a': 1}"),
    ("output", "true", "True"), ("pool_init", "[ones]", "['ones']")])
def test_string_fields_take_only_strings(key, value, shown):
    # str() used to turn any value into a string: output [1, 2] wrote a file named '[1, 2]'
    text = MINIMAL.replace("experiment: tail", "experiment: fixed-point") + f"{key}: {value}\n"
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(text)
    assert exc.value.errors == [f"{key} must be a string, got {shown}"]


def test_parse_requires_experiment_fields():
    bad = """
experiment: bounds
seed: 3
kernel: {kind: kac}
initial: {kind: symmetric-pareto, alpha: 1.5}
"""
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(bad)
    joined = " ".join(exc.value.errors)
    assert "'n'" in joined and "'xs'" in joined and "'N'" in joined


def test_derive_stream_is_stable_and_distinct():
    a = cli.derive_stream(7, "tail/0", 3).random(4)
    b = cli.derive_stream(7, "tail/0", 3).random(4)
    c = cli.derive_stream(7, "tail/0", 4).random(4)
    d = cli.derive_stream(7, "tail/1", 3).random(4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def _run_to_csv(tmp_path, text, name, workers=None):
    path = tmp_path / f"{name}.yaml"
    out = tmp_path / f"{name}.csv"
    path.write_text(text + f"\noutput: {out}\n"
                    + (f"workers: {workers}\n" if workers else ""))
    code = cli.main(["--config", str(path)])
    return code, out.read_bytes() if out.exists() else None


def test_run_martingale_and_mean_close_to_one(tmp_path):
    text = """
experiment: martingale
seed: 11
kernel: {kind: kac}
initial: {kind: symmetric-pareto, alpha: 1.0}
n: [16, 64]
N: 4000
"""
    code, data = _run_to_csv(tmp_path, text, "mart")
    assert code == 0
    lines = data.decode().strip().splitlines()
    assert lines[0] == "n,N,mean,se"
    for row in lines[1:]:
        n, N, mean, se = row.split(",")
        assert abs(float(mean) - 1.0) <= 4 * float(se)


def test_martingale_row_sums_its_chunks_in_chunk_order():
    # 24 chunks of 128 trees: NumPy's pairwise sum would add them in another order
    cfg = cli.parse_config("""
experiment: martingale
seed: 7
kernel: {kind: kac}
initial: {kind: symmetric-pareto, alpha: 1.5}
n: [256]
N: 3000
chunk_size: 512
""")
    (row,), _, _ = cli.run(cfg)
    n, a = 256, cfg.initial.alpha
    m_n = mean_weight_norm(spectral(cfg.kernel, a), n)
    total = total_sq = 0.0
    for k, start in enumerate(range(0, cfg.N, 128)):
        size = min(128, cfg.N - start)
        rng = cli.derive_stream(cfg.seed, "martingale/0", k)
        flat, _, _ = grow_weights_batch(cfg.kernel, np.full(size, n), rng)
        # trees of one size: slot r of tree j is flat[r * size + j], and
        # the sum down each column adds the slots in order
        tm = (flat ** a).reshape(n, size).sum(axis=0) / m_n
        total += float(tm.sum())
        total_sq += float((tm ** 2).sum())
    mean = total / cfg.N
    assert k + 1 == 24
    assert row["N"] == cfg.N
    assert row["mean"] == mean
    assert row["se"] == math.sqrt(max(total_sq / cfg.N - mean ** 2, 0.0) / cfg.N)


def test_determinism_across_worker_counts(tmp_path):
    text = """
experiment: tail
seed: 99
kernel: {kind: kac}
initial: {kind: symmetric-pareto, alpha: 1.5}
t: 1.0
xs: [5.0, 10.0]
N: 40000
chunk_size: 8192
"""
    _, bytes1 = _run_to_csv(tmp_path, text, "w1", workers=1)
    _, bytes2 = _run_to_csv(tmp_path, text, "w2", workers=2)
    _, bytes3 = _run_to_csv(tmp_path, text, "w3", workers=3)
    assert bytes1 == bytes2 == bytes3
    # and rerunning with the same worker count is byte-identical too
    _, bytes1b = _run_to_csv(tmp_path, text, "w1b", workers=1)
    assert bytes1 == bytes1b


def test_worker_processes_never_outnumber_cpus(tmp_path, monkeypatch):
    # workers had no upper bound: workers 5000 with 5000 chunks started 5000 processes
    text = MINIMAL.replace("t: 3.0", "t: 1.0").replace("N: 100000", "N: 10000\nchunk_size: 1000")
    _, serial = _run_to_csv(tmp_path, text, "w1", workers=1)
    started = []

    class SerialPool:
        """multiprocessing.Pool's stand-in: records its process count, maps in order."""

        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    code, capped = _run_to_csv(tmp_path, text, "w5000", workers=5000)
    assert code == 0 and started == [2] and capped == serial


def test_seed_changes_output(tmp_path):
    text = MINIMAL.replace("N: 100000", "N: 20000").replace("t: 3.0", "t: 1.0")
    _, b1 = _run_to_csv(tmp_path, text, "s42")
    _, b2 = _run_to_csv(tmp_path, text.replace("seed: 42", "seed: 43"), "s43")
    assert b1 != b2


def test_override_flag(tmp_path):
    path = tmp_path / "cfg.yaml"
    out = tmp_path / "out.csv"
    path.write_text(MINIMAL.replace("N: 100000", "N: 20000")
                    .replace("t: 3.0", "t: 0.0") + f"output: {out}\n")
    code = cli.main(["--config", str(path), "--override", "seed=7",
                     "--override", "xs=[5.0]"])
    assert code == 0
    header, row = out.read_text().strip().splitlines()
    assert row.split(",")[1] == "5.0"


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("experiment: tail\n")
    assert cli.main(["--config", str(path)]) == 2
    assert cli.main(["--config", str(tmp_path / "missing.yaml")]) == 4


@pytest.mark.parametrize("text, override", [
    ("experiment: tail\nkernel: {kind: kac\n", []),
    (MINIMAL, ["--override", "N=[1"]),
])
def test_malformed_yaml_is_a_config_error(tmp_path, capsys, text, override):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert cli.main(["--config", str(path), *override]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "is not valid YAML" in err and "Traceback" not in err


@pytest.mark.parametrize("x", ["0", "-0.0", ".nan", ".inf"])
def test_ode_residual_rejects_zero_or_nonfinite_x(tmp_path, capsys, x):
    # x = 0 used to raise inside the run; x = nan printed residual -100, se 0
    text = MINIMAL.replace("experiment: tail", "experiment: ode-residual") + f"x: {x}\n"
    error = f"x must be finite and nonzero, got {x.lstrip('.')}"
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(text)
    assert exc.value.errors == [error]
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert cli.main(["--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {error}\n"


def test_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    # a Latin-1 byte used to raise UnicodeDecodeError from the read, exit 1
    path = tmp_path / "cfg.yaml"
    path.write_bytes(b"experiment: tail\nseed: 1\n# caf\xe9\n")
    assert cli.main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config is not valid UTF-8: ")
    assert err.count("\n") == 1


def test_io_error_exit_code(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL.replace("N: 100000", "N: 20000")
                    .replace("t: 3.0", "t: 0.0")
                    + f"output: {tmp_path}/no/such/dir/out.csv\n")
    assert cli.main(["--config", str(path)]) == 4


@pytest.mark.parametrize("refusal", [OSError(errno.ENOMEM, os.strerror(errno.ENOMEM)),
                                     OverflowError("Python int too large to convert to C ssize_t")],
                         ids=["ENOMEM", "past-2^63-bytes"])
def test_unmappable_leaf_array_is_one_error_line_and_exit_4(refusal, tmp_path, capsys,
                                                            monkeypatch):
    # at t = 20 one 32-tree sub-batch expects ~32 e^20 leaves (~124 GB), and
    # mmap refuses lengths past 2^63 - 1 bytes (t = 40) with OverflowError;
    # the mapping is refused here without asking for any memory
    def refuse(n):
        raise refusal

    monkeypatch.setattr(weights, "leaf_array", refuse)
    path, out = tmp_path / "cfg.yaml", tmp_path / "out.csv"
    path.write_text(MINIMAL.replace("t: 3.0", "t: 20.0").replace("N: 100000", "N: 10000")
                    + f"workers: 1\noutput: {out}\n")
    assert cli.main(["--config", str(path)]) == 4
    leaves = int(kt.sample_yule(20.0, cli.derive_stream(42, "tail/0", 0), 32).sum())
    err = capsys.readouterr().err
    assert err == (f"error: cannot map the leaf array of a sub-batch at t = 20: {leaves} "
                   f"leaves, {8 * leaves} bytes ({refusal})\n")
    assert not out.exists()


def test_low_precision_note_does_not_change_exit_code(tmp_path, capsys):
    # expected hits N c0 / x^a: 632 at x = 10, 0.02 at x = 1e4
    text = """
experiment: tail
seed: 13
kernel: {kind: kac}
initial: {kind: symmetric-pareto, alpha: 1.5}
t: 1.0
xs: [10.0, 10000.0]
N: 20000
"""
    code, data = _run_to_csv(tmp_path, text, "lowprec")
    assert code == 0  # informational note only; admissibility fine here
    assert data is not None and data.count(b"\n") == 3
    err = capsys.readouterr().err
    assert "warning: low precision at t=1, x=10000: expected hits 0.0 < 20" in err
    assert "x=10:" not in err


def test_admissibility_warning_exit_code(tmp_path):
    # mu-up kernel: tail run carries a schedule warning, results written
    text = """
experiment: tail
seed: 5
kernel: {kind: deterministic, l: 0.3968502629920499, r: 0.3968502629920499}
initial: {kind: symmetric-pareto, alpha: 1.5}
t: 1.0
xs: [10.0]
N: 20000
"""
    code, data = _run_to_csv(tmp_path, text, "warned")
    assert code == 3
    assert data is not None and data.startswith(b"t,x,N")


def test_tail_at_time_zero_through_cli(tmp_path):
    text = """
experiment: tail
seed: 21
kernel: {kind: kac}
initial: {kind: symmetric-pareto, alpha: 1.5}
t: 0.0
xs: [10.0]
N: 100000
"""
    code, data = _run_to_csv(tmp_path, text, "t0")
    assert code == 0
    header, row = data.decode().strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    p_v = float(cols["p_V"])
    se = float(cols["se_V"])
    assert abs(float(cols["ratio_paper"]) - 1.0) <= 4 * se * 10 ** 1.5
    assert cols["hits_V"] == cols["hits_H"]


def test_fixed_point_experiment(tmp_path):
    text = """
experiment: fixed-point
seed: 31
kernel: {kind: deterministic, l: 0.6299605249474366, r: 0.6299605249474366}
initial: {kind: symmetric-pareto, alpha: 1.5}
pool_size: 20000
iterations: 10
pool_init: exponential
"""
    code, data = _run_to_csv(tmp_path, text, "fp")
    assert code == 0
    lines = data.decode().strip().splitlines()
    assert lines[0] == "iteration,pool_size,mean,se,variance"
    assert len(lines) == 12  # header + initial state + 10 iterations
    var = [float(r.split(",")[4]) for r in lines[1:]]
    assert var[-1] < var[0] / 100  # geometric collapse under the halving map


@pytest.mark.parametrize("kernel, pool_init", [
    ("{kind: kac}", "ones"),
    ("{kind: discrete-mixture, atoms: [[0.6, 0.7], [0.9, 0.3]], probs: [0.5, 0.5]}",
     "exponential"),
], ids=["kac-ones", "discrete-exponential"])
def test_fixed_point_se_matches_replicate_sd(kernel, pool_init):
    # the pool mean is a martingale whose variance accumulates every step's
    # var_j / n; the current pool's var / n alone is 4-25x too small here
    means, ses = [], []
    for seed in range(80):
        cfg = cli.parse_config(
            f"experiment: fixed-point\nseed: {seed}\nkernel: {kernel}\n"
            "initial: {kind: symmetric-pareto, alpha: 1.5}\n"
            f"pool_size: 2000\niterations: 20\npool_init: {pool_init}\n")
        last = cli.run(cfg)[0][-1]
        means.append(last["mean"])
        ses.append(last["se"])
    ratio = np.std(means, ddof=1) / np.mean(ses)
    assert 0.7 <= ratio <= 1.4, ratio


def test_bounds_experiment_schema(tmp_path):
    text = """
experiment: bounds
seed: 41
kernel: {kind: kac}
initial: {kind: symmetric-pareto, alpha: 1.5}
n: 4
xs: [10.0, 20.0]
N: 50000
"""
    code, data = _run_to_csv(tmp_path, text, "bounds")
    assert code == 0
    lines = data.decode().strip().splitlines()
    assert lines[0] == "n,x,epsilon,gamma,lower,upper,max_lower,max_upper,mc,mc_se"
    assert len(lines) == 3
    for row in lines[1:]:
        vals = dict(zip(lines[0].split(","), map(float, row.split(","))))
        assert vals["lower"] <= vals["mc"] + 3 * vals["mc_se"]
        assert vals["mc"] <= vals["upper"] + 3 * vals["mc_se"]


def test_run_returns_rows_regime_and_status():
    cfg = cli.parse_config(MINIMAL.replace("N: 100000", "N: 20000")
                           .replace("t: 3.0", "t: 0.0"))
    rows, status, (regime, messages) = cli.run(cfg)
    assert status == 0 and messages == []
    assert len(rows) == 1 and set(cli.SCHEMAS["tail"]) <= set(rows[0])
    assert rows[0]["t"] == 0.0 and rows[0]["x"] == 10.0 and rows[0]["N"] == 20000
    assert regime.case_id == "unrestricted"


# small runs with several chunks (or jobs) each, so workers 2 splits the work
SMALL_RUNS = {
    "tail": "t: [0.5, 1.0]\nxs: [2.0, 5.0]\nN: 10000\nchunk_size: 4096",
    "cdf-H": "t: 1.0\nxs: [0.5, 2.0]\nN: 6000\nchunk_size: 2048\npool_size: 2000\niterations: 3",
    "cf-V": "t: 1.0\nxs: [0.5, 2.0]\nN: 6000\nchunk_size: 2048\npool_size: 2000\niterations: 3",
    "fixed-point": "pool_size: 2000\niterations: 3",
    "bounds": "n: 4\nxs: [5.0, 10.0]\nN: 5000",
    "baseline": "n: 100\nxs: [2.0, 5.0]\nN: 2000\nchunk_size: 128",
    "ode-residual": "t: 1.0\nx: 2.0\nN: 3000",
    "martingale": "n: [16, 256]\nN: 3000\nchunk_size: 512",
}


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_every_experiment_is_byte_identical_across_worker_counts(tmp_path, experiment):
    text = (f"experiment: {experiment}\nseed: 5\nkernel: {{kind: kac}}\n"
            f"initial: {{kind: symmetric-pareto, alpha: 1.5}}\n{SMALL_RUNS[experiment]}\n")
    code1, bytes1 = _run_to_csv(tmp_path, text, "w1", workers=1)
    code2, bytes2 = _run_to_csv(tmp_path, text, "w2", workers=2)
    assert code1 == code2 == 0
    assert bytes1 == bytes2
    assert bytes1.count(b"\n") > 1


def test_console_entry_point(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    out = tmp_path / "out.csv"
    cfg.write_text(MINIMAL.replace("N: 100000", "N: 20000")
                   .replace("t: 3.0", "t: 0.0") + f"output: {out}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "kactails.cli", "--config", str(cfg)],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "regime: case=unrestricted" in proc.stdout
    assert out.exists()


@pytest.mark.parametrize("t", ["-1.0", "44.0", "800.0", "[1.0, -0.5]", ".inf", ".nan"])
def test_parse_rejects_negative_or_underflowing_t(tmp_path, t):
    text = MINIMAL.replace("t: 3.0", f"t: {t}")
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(text)
    assert any(e.startswith("t must be non-negative") for e in exc.value.errors)
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert cli.main(["--config", str(path)]) == 2


@pytest.mark.parametrize("key, value", [
    ("N", "abc"), ("N", "1e6"), ("pool_size", "x"), ("xs", "[a]"), ("t", "[a]"),
    ("delta", "abc"), ("b", "3"), ("x", "[1]"), ("seed", "true"),
    ("initial.alpha", "true"), ("workers", "2.5"), ("n", "[2.5]")])
def test_values_of_the_wrong_type_are_config_errors(tmp_path, capsys, key, value):
    # a value of the wrong type is a config error: no traceback, no silent cast
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL)
    code = cli.main(["--config", str(path), "--output", str(tmp_path / "out.csv"),
                     "--override", f"{key}={value}"])
    assert code == 2
    err = capsys.readouterr().err
    if key == "initial.alpha":  # the law reads its own numbers
        assert err == ("config error: initial block invalid: "
                       "initial.alpha must be a finite number, got True\n")
    else:
        assert f"config error: {key} must" in err


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.text(string.printable, max_size=6))


_DET = {"kind": "deterministic", "l": 0.6, "r": 0.7}
_ASYM = {"kind": "asymmetric-pareto", "alpha": 1.2, "c_plus": 0.5, "c_minus": 0.5}
# a nested key and the block it is drawn in
_BLOCK_OF = {"initial.alpha": {"kind": "symmetric-pareto", "alpha": 1.5},
             "initial.xmin": {"kind": "symmetric-pareto", "alpha": 1.5},
             "kernel.l": _DET, "kernel.r": _DET,
             "initial.c_plus": _ASYM, "initial.c_minus": _ASYM}


@settings(max_examples=400, deadline=None)
@given(key=st.sampled_from([f.name for f in dataclasses.fields(cli.ExperimentConfig)]
                           + list(_BLOCK_OF)),
       value=st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3)),
       experiment=st.sampled_from(cli.EXPERIMENTS))
def test_any_field_value_parses_or_is_a_config_error(key, value, experiment):
    doc = yaml.safe_load(MINIMAL)
    doc.update(experiment=experiment, n=[4], x=1.0)
    if key in _BLOCK_OF:
        block, leaf = key.split(".")
        node = doc[block] = dict(_BLOCK_OF[key])
    else:
        node, leaf = doc, key
    node[leaf] = value
    try:
        cli.parse_config(yaml.safe_dump(doc))
    except cli.ConfigError:
        pass


@pytest.mark.parametrize("experiment, overrides, code, named", [
    # each of these ran into a traceback, a NaN, a complex ratio or a silent value
    ("tail", ["xs=[0]"], 2, "xs"),
    ("tail", ["xs=[-1.0]"], 2, "xs"),
    ("baseline", ["xs=[-1.0]"], 2, "xs"),
    ("baseline", ["n=0"], 2, "n"),
    ("bounds", ["n=0"], 2, "n"),
    ("martingale", ["n=0"], 2, "n"),
    ("tail", ["eta=-1"], 2, "eta"),
    ("tail", ["format=csv"], 2, "format"),
    ("bounds", ["gamma=0"], 2, "gamma"),
    ("bounds", ["n=3", "b=[-1, 1, 1]"], 2, "b"),
    ("ode-residual", ["N=1"], 2, "N"),
    ("tail", ["N=9999"], 2, "N"),
    ("cdf-H", ["iterations=-1"], 2, "iterations"),
    ("tail", ["kernel={kind: deterministic, l: .inf, r: 0.5}"], 2, "kernel.l"),
    ("tail", ["kernel={kind: deterministic, l: true, r: 0.5}"], 2, "kernel.l"),
    ("tail", ["initial.xmin=.inf"], 2, "initial.xmin"),
    ("tail", ["initial={kind: asymmetric-pareto, alpha: 1.2, c_plus: .inf, c_minus: 0.5}"],
     2, "initial.c_plus"),
    ("tail", ["kernel={kind: deterministic, l: 1.0e+200, r: 0.5}"], 2, "kernel"),
    ("tail", ["kernel={kind: discrete-mixture, atoms: [[1.0e+200, 0.5], [0.5, 0.5]], "
                "probs: [0.5, 0.5]}"], 2, "kernel"),
    ("fixed-point", ["kernel={kind: deterministic, l: 1.0e-300, r: 1.0e-300}"], 2, "kernel"),
    # in-range edges that run
    ("baseline", ["n=1"], 0, None),
    ("martingale", ["n=[1]"], 0, None),
    ("ode-residual", ["N=2"], 0, None),
    ("cdf-H", ["xs=[0.0]"], 0, None),
    ("cf-V", ["xs=[-1.0]"], 0, None),
    # thresholds whose powers leave the float range: OverflowError or ZeroDivisionError
    ("tail", ["xs=[1.0e+300]"], 2, "xs"),
    ("tail", ["xs=[1.0e-300]"], 2, "xs"),
    ("baseline", ["xs=[1.0e+300]"], 2, "xs"),
    ("bounds", ["xs=[1.0e-300]"], 2, "xs"),
    ("bounds", ["xs=[2.0]", "gamma=1000"], 2, "gamma"),
    ("cdf-H", ["xs=[1.0e-300]"], 2, "xs"),
    # tail constants out of the float range: c0 = 0 gave NaN or all-zero rows
    ("tail", ["initial.xmin=1.0e-300"], 2, "xmin"),
    ("bounds", ["initial.xmin=1.0e-300"], 2, "xmin"),
    ("tail", ["initial={kind: asymmetric-pareto, alpha: 0.1, c_plus: 1.0e+300, "
              "c_minus: 1.0e+300}"], 2, "xmin"),
    # bounds constants out of the float range: NaN bounds or an OverflowError
    ("bounds", ["n=2", "b=[1.0e+300, 1.0]"], 2, "b"),
    ("bounds", ["n=1", "b=[1.0e+103]"], 2, "b"),
    ("bounds", ["initial.xmin=1.0e+103", "xs=[1.0e+110]"], 2, "initial"),
    # misspelt top-level keys used to be ignored, running with the defaults
    ("cdf-H", ["pool_sise=1000000"], 2, "pool_sise"),
    ("cdf-H", ["iteration=200"], 2, "iteration"),
    # misspelt keys inside the kernel and initial blocks used to be ignored too
    ("fixed-point", ["kernel.l=0.5"], 2, "kernel.l"),
    ("fixed-point", ["initial.x_min=2.0"], 2, "initial.x_min"),
    ("fixed-point", ["initial={kind: asymmetric-pareto, alpha: 1.2, c_plus: 0.5, "
                     "c_minus: 0.5, cplus: 0.7}"], 2, "initial.cplus"),
    # |xi|^alpha overflowed in cf_V_infinity: RuntimeWarnings and a zero limit
    ("cf-V", ["xs=[1.0e+300]"], 2, "xs"),
    ("cf-V", ["xs=[-1.0e+300]"], 2, "xs"),
    ("cf-V", ["xs=[0.0, 1.0e-300, -1.0e+200]"], 0, None),
    # |xi|^alpha lambda Z overflowed in cf_V_infinity: RuntimeWarnings
    ("cf-V", ["xs=[2.0e+205]"], 0, None),
    # bounds constants each finite but K0^2 B^2 and K1 B^2 not: -inf and inf bounds
    ("bounds", ["n=1", "b=[1.0e+100]", "initial.xmin=1.0e+50", "xs=[1.0e+110]"], 2,
     "b and initial"),
    # constants and products finite but K0^2 B^2 / x^a not: -inf and inf bounds
    ("bounds", ["n=1", "b=[1.0e+100]", "xs=[1.0e-100]"], 2, "xs"),
    # u^(-1/alpha) overflowed for two thirds of the rows: NaN row sums, mc < max_mc
    ("bounds", ["initial={kind: symmetric-pareto, alpha: 0.002}", "xs=[1.0, 10.0]",
                "N=1000", "seed=7"], 2, "initial"),
    # the largest draw times sum_j b_j overflowed: inf row sums in the hit counts
    ("bounds", ["initial={kind: symmetric-pareto, alpha: 0.1}", "n=2",
                "b=[1.0e+300, 1.0e+300]", "xs=[1.0e+300, 1.0e+305]", "N=1000", "seed=7"],
     2, "b"),
    # mu(0.5) = 2e100, so e^(-mu t) underflowed to 0: tail wrote hits_V = hits_H = 0,
    # cdf-H cdf_empirical = 1 and cf-V re_empirical 0.39 against a limit of 1
    *[(experiment, ["kernel={kind: discrete-mixture, atoms: [[1.0e+200, 1.0e+200], "
                    "[0.5, 0.0]], probs: [0.5, 0.5]}",
                    "initial={kind: symmetric-pareto, alpha: 0.5}", "t=3", "seed=3"], 2, named)
      for experiment, named in (("tail", "t"), ("cdf-H", "kernel"), ("cf-V", "t"))],
    # the same kernel: ode-residual's weights overflowed to inf and inf x 0 = NaN made
    # some H NaN, so it wrote residual 0.2417 with four RuntimeWarnings
    ("ode-residual", ["kernel={kind: discrete-mixture, atoms: [[1.0e+200, 1.0e+200], "
                      "[0.5, 0.0]], probs: [0.5, 0.5]}",
                      "initial={kind: symmetric-pareto, alpha: 0.5}", "t=3", "x=10",
                      "N=10000", "seed=3"], 2, "t"),
    # Q(1.5) = 1999 gives log m_n = 2767 at n = 2000, while the weights stay
    # finite: an OverflowError traceback from mean_weight_norm
    ("martingale", ["kernel={kind: deterministic, l: 100.0, r: 100.0}", "n=[2000]", "N=4"],
     2, "n"),
    ("martingale", ["kernel={kind: deterministic, l: 100.0, r: 100.0}", "n=[5]", "N=4"],
     0, None),
    # n float64s that no array can hold: ValueError tracebacks from NumPy
    ("martingale", ["n=[100000000000000000000]"], 2, "n"),
    ("martingale", ["n=[1152921504606846976]"], 2, "n"),
    ("baseline", ["n=1152921504606846976"], 2, "n"),
    ("bounds", ["n=1152921504606846976"], 2, "n"),
])
def test_out_of_range_configs_exit_2_and_edges_run(tmp_path, capsys, experiment,
                                                   overrides, code, named):
    path = tmp_path / "cfg.yaml"
    path.write_text(f"experiment: {experiment}\nseed: 5\nkernel: {{kind: kac}}\n"
                    f"initial: {{kind: symmetric-pareto, alpha: 1.5}}\n"
                    f"{SMALL_RUNS[experiment]}\noutput: {tmp_path / 'out.csv'}\n")
    args = ["--config", str(path)]
    for item in overrides:
        args += ["--override", item]
    assert cli.main(args) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if named is None:
        assert "config error" not in err and (tmp_path / "out.csv").exists()
    else:
        assert err.startswith("config error: ")
        assert re.search(rf"(?<![\w.]){re.escape(named)}(?![\w])", err), err


@pytest.mark.parametrize("q", [-0.5, 0.3, 2.0, 1999.0])
def test_parse_time_log_weight_norm_matches_the_recurrence(q):
    # the O(1) form of log m_n that parse_config checks against the float
    # range, next to the O(n) recurrence that martingale divides by
    from kactails.weights import mean_weight_norm

    for n in (1, 2, 17, 100):
        assert cli._log_weight_norm(q, n) == pytest.approx(
            math.log(mean_weight_norm(q, n)), rel=1e-12, abs=1e-12)
    # an n beyond the float range takes the leading term, Q log n
    assert cli._log_weight_norm(q, 10 ** 400) == pytest.approx(
        q * 400 * math.log(10) - math.lgamma(q + 1.0))


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.0, 2.0, exclude_min=True, exclude_max=True),
       xmin=_log_uniform(-300, 300),
       b=st.lists(_log_uniform(-300, 300), min_size=1, max_size=3),
       xs=st.lists(_log_uniform(-300, 300), min_size=1, max_size=2),
       epsilon=_log_uniform(-300, 0).filter(lambda e: e < 1),
       gamma=_log_uniform(-300, 300))
def test_every_accepted_bounds_config_gives_finite_bounds(alpha, xmin, b, xs, epsilon, gamma):
    doc = dict(experiment="bounds", seed=3, kernel={"kind": "kac"},
               initial={"kind": "symmetric-pareto", "alpha": alpha, "xmin": xmin},
               n=len(b), b=b, xs=xs, epsilon=epsilon, gamma=gamma, N=20)
    try:
        cfg = cli.parse_config(yaml.safe_dump(doc))
    except cli.ConfigError:
        return
    rows, _, _ = cli.run(cfg)
    for row in rows:
        assert all(math.isfinite(row[c]) for c in cli.SCHEMAS["bounds"]), (doc, row)


@pytest.mark.parametrize("xmin", [1.0, 2.0])
def test_cf_v_alpha_one_overflowing_phase_adds_zero(tmp_path, xmin):
    # xi v and c0+ pi |xi| Z overflowed at xi = 1e308: RuntimeWarnings and
    # NaN in the empirical columns; at xmin 2, c0+ pi |xi| itself overflows.
    # The 0.5 row is the same run without the 1e308 one
    text = ("experiment: cf-V\nseed: 5\nkernel: {kind: kac}\n"
            f"initial: {{kind: symmetric-pareto, alpha: 1.0, xmin: {xmin}}}\n"
            "t: 1.0\nN: 2000\npool_size: 1000\niterations: 3\n")
    code, both = _run_to_csv(tmp_path, text + "xs: [1.0e+308, 0.5]", "both")
    assert code == 0
    header, big, half = both.decode().splitlines()
    assert "nan" not in big and "inf" not in big
    assert [float(v) for v in big.split(",")[6:8]] == [0.0, 0.0]
    code, alone = _run_to_csv(tmp_path, text + "xs: [0.5]", "alone")
    assert code == 0 and alone.decode().splitlines() == [header, half]


def test_cdf_h_equals_direct_counts_of_h_at_most_x():
    # cdf-H writes (N - #{H > x}) / N from tail_hit_counts; recount {H <= x}
    # on each chunk's stream, x <= 0 and t = 0 included, over paths some
    # of whose weights are 0
    cfg = cli.parse_config(
        "experiment: cdf-H\nseed: 9\n"
        "kernel: {kind: discrete-mixture, atoms: [[0.9, 0.0], [0.5, 0.8]], probs: [0.4, 0.6]}\n"
        "initial: {kind: asymmetric-pareto, alpha: 1.2, c_plus: 0.7, c_minus: 0.3}\n"
        "t: [0.0, 1.5]\nxs: [-1.0, 0.0, 0.5, 2.0]\nN: 5000\nchunk_size: 2048\n"
        "pool_size: 500\niterations: 2\n")
    expected = []
    for it, t in enumerate(cfg.t):
        counts = np.zeros(len(cfg.xs), dtype=np.int64)
        for k, start in enumerate(range(0, cfg.N, cfg.chunk_size)):
            rng = cli.derive_stream(cfg.seed, f"cdf-H/{it}", k)
            _, h = forest_statistics(cfg.kernel, t, min(cfg.chunk_size, cfg.N - start), rng,
                                     law_sums(cfg.initial)).stats
            h = h * math.exp(-cfg.regime.mu_alpha * t)
            counts += [(h <= x).sum() for x in cfg.xs]
        expected += [(c / cfg.N).hex() for c in counts]
    rows, _, _ = cli.run(cfg)
    assert [float(r["cdf_empirical"]).hex() for r in rows] == expected
    assert expected[:2] == [0.0.hex()] * 2 and len(set(expected)) > 3


_CDF_H_RESIDENT_PEAK = """
import resource, sys
sys.path.insert(0, sys.argv[1])
import kactails.cli as cli
from kactails.processes import sample_yule

cfg = cli.parse_config(
    "experiment: cdf-H\\nseed: 8\\n"
    "kernel: {kind: deterministic, l: 0.6299605249474366, r: 0.6299605249474366}\\n"
    "initial: {kind: symmetric-pareto, alpha: 1.5}\\n"
    "t: 5.0\\nxs: [0.5, 1.0, 2.0, 5.0]\\nN: 16384\\npool_size: 1000000\\niterations: 3\\n")
leaves = int(sample_yule(5.0, cli.derive_stream(cfg.seed, "cdf-H/0", 0), cfg.N).sum())
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
cli.run(cfg)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
print(1024 * grown / (8 * leaves))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_cdf_h_resident_peak_holds_the_pool_or_a_leaf_array():
    # cdf-H grows its one-chunk forest (~2.4M leaves, 19 MB) before it
    # builds the 8 MB pool, so the peak over the post-parse floor is the
    # leaf array or the pool with its exponent array, not both at once
    # (1.52 leaf arrays with the pool built first and kept through the forest)
    src = pathlib.Path(cli.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _CDF_H_RESIDENT_PEAK, str(src)],
                          capture_output=True, text=True, check=True)
    assert float(proc.stdout) <= 1.45, proc.stdout


def test_readme_config_reference_follows_the_field_declarations():
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config reference", 1)[1].split("\n#", 1)[0]
    table = [[c.strip() for c in line.strip("|").split("|")]
             for line in section.splitlines() if line.startswith("|")]
    needed = table[0].index("needed by")
    rows = {cells[0].strip("`"): cells for cells in table[2:]}
    for f in dataclasses.fields(cli.ExperimentConfig):
        assert f.name in rows, f"README config reference has no row for {f.name!r}"
        if f.metadata:
            cell = rows[f.name][needed]
            listed = set(cli.EXPERIMENTS) if cell == "all" else set(re.findall(r"`([^`]+)`", cell))
            assert listed == set(f.metadata["needs"]), f.name


def test_readme_library_example_runs(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # every warning, not only RuntimeWarning
        exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.count("\n") == 2  # one line per x


_OVERRIDE_KEYS = st.one_of(
    st.sampled_from([f.name for f in dataclasses.fields(cli.ExperimentConfig)]
                    + list(_BLOCK_OF) + ["kernel.kind", "initial.kind", "kernel.atoms"]),
    st.lists(st.text(string.ascii_letters + "_.", max_size=6), min_size=1, max_size=3)
    .map(".".join))
_YAML_TEXTS = st.one_of(
    st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3))
    .map(lambda v: yaml.safe_dump(v, default_flow_style=True)),
    st.text(string.printable, max_size=8))


@settings(max_examples=300, deadline=None)
@given(overrides=st.lists(st.tuples(_OVERRIDE_KEYS, _YAML_TEXTS), min_size=1, max_size=3),
       experiment=st.sampled_from(cli.EXPERIMENTS))
def test_any_override_exits_0_2_or_3(overrides, experiment):
    # main's override path: no input gives a traceback; run is stubbed out
    def no_experiment(cfg):
        return [], 0, (cfg.regime, [])

    with tempfile.TemporaryDirectory() as work:
        path = pathlib.Path(work) / "cfg.yaml"
        path.write_text(MINIMAL.replace("experiment: tail", f"experiment: {experiment}")
                        + "n: [4]\nx: 1.0\n")
        args = ["--config", str(path), "--output", str(pathlib.Path(work) / "out.csv")]
        for key, raw in overrides:
            args += ["--override", f"{key}={raw}"]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "run", no_experiment), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(args)
    assert code in (0, 2, 3), err.getvalue()
