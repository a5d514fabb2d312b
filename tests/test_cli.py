import contextlib
import dataclasses
import io
import pathlib
import re
import string
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import kactails.cli as cli

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
    assert any("c_plus = c_minus" in e for e in exc.value.errors)


def test_parse_rejects_alpha_two():
    bad = MINIMAL.replace("alpha: 1.5", "alpha: 2")
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(bad)
    assert any("alpha" in e for e in exc.value.errors)


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
    with pytest.raises(cli.ConfigError) as exc:
        cli.parse_config(text)
    assert exc.value.errors == ["ode-residual requires a finite nonzero x"]
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert cli.main(["--config", str(path)]) == 2
    assert "config error: ode-residual requires a finite nonzero x" in capsys.readouterr().err


def test_io_error_exit_code(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(MINIMAL.replace("N: 100000", "N: 20000")
                    .replace("t: 3.0", "t: 0.0")
                    + f"output: {tmp_path}/no/such/dir/out.csv\n")
    assert cli.main(["--config", str(path)]) == 4


def test_low_precision_note_does_not_change_exit_code(tmp_path):
    text = """
experiment: tail
seed: 13
kernel: {kind: kac}
initial: {kind: symmetric-pareto, alpha: 1.5}
t: 1.0
xs: [10000.0]
N: 20000
"""
    code, data = _run_to_csv(tmp_path, text, "lowprec")
    assert code == 0  # informational note only; admissibility fine here
    assert data is not None


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
    assert f"config error: {key} must" in capsys.readouterr().err


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
    ("bounds", ["gamma=0"], 2, "gamma"),
    ("bounds", ["n=3", "b=[-1, 1, 1]"], 2, "b"),
    ("ode-residual", ["N=1"], 2, "N"),
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


def test_cf_v_alpha_one_overflowing_phase_adds_zero(tmp_path):
    # xi v and c0+ pi |xi| Z overflowed at xi = 1e308: RuntimeWarnings and
    # NaN in the empirical columns; the 0.5 row is the same run without it
    text = ("experiment: cf-V\nseed: 5\nkernel: {kind: kac}\n"
            "initial: {kind: symmetric-pareto, alpha: 1.0}\n"
            "t: 1.0\nN: 2000\npool_size: 1000\niterations: 3\n")
    code, both = _run_to_csv(tmp_path, text + "xs: [1.0e+308, 0.5]", "both")
    assert code == 0
    header, big, half = both.decode().splitlines()
    assert "nan" not in big and "inf" not in big
    assert [float(v) for v in big.split(",")[6:8]] == [0.0, 0.0]
    code, alone = _run_to_csv(tmp_path, text + "xs: [0.5]", "alone")
    assert code == 0 and alone.decode().splitlines() == [header, half]


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
