"""The byte audit's moved-row summary (tools/byte_identity.py)."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "byte_identity.py"
_SPEC = importlib.util.spec_from_file_location("byte_identity", _PATH)
byte_identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(byte_identity)

TAIL = "t,x,N,hits_V,hits_H,p_V,se_V,p_H,se_H,ratio_paper,ratio_max\n"
CF = "t,xi,N,pool_size,re_empirical,im_empirical,re_limit,im_limit,abs_error\n"


def test_moved_tail_row_reports_its_two_sample_z():
    a = TAIL + "1.0,2.0,10000,100,90,0.01,0.0009,0.009,0.0009,1.1,1.0\n"
    b = TAIL + "1.0,2.0,10000,112,90,0.0112,0.0012,0.009,0.0009,1.2,1.0\n"
    # |0.0112 - 0.01| / sqrt(0.0009^2 + 0.0012^2) = 0.0012 / 0.0015
    summary = byte_identity.cell_summary(a.encode(), b.encode())
    assert summary.endswith("integer cells CHANGED, largest |z| 0.80")


def test_estimates_that_differ_with_no_spread_are_infinitely_far():
    a = {"mean": "1.0", "se": "0.0"}
    assert byte_identity.row_z(a, {"mean": "2.0", "se": "0.0"}) == float("inf")
    assert byte_identity.row_z(a, dict(a)) == 0.0
    assert byte_identity.row_z({"n": "4"}, {"n": "5"}) is None


def test_cf_z_takes_the_se_bound_of_each_part():
    # sqrt((1 - 0.6^2) / 100) = 0.08 on both sides: z = 1.2 / (0.08 sqrt 2)
    a = {"N": "100", "re_empirical": "0.6", "im_empirical": "0.0"}
    b = {"N": "100", "re_empirical": "-0.6", "im_empirical": "0.0"}
    assert abs(byte_identity.row_z(a, b) - 1.2 / (0.08 * 2 ** 0.5)) < 1e-12


def test_phase_free_cf_cells_are_checked_by_magnitude_only():
    a = CF + "1.0,1e+308,2000,1000,0.0115,0.02,0.0,0.0,0.03\n"
    moved = CF + "1.0,1e+308,2000,1000,0.0239,-0.01,0.0,0.0,0.02\n"
    summary = byte_identity.cell_summary(a.encode(), moved.encode())
    assert summary == ("0 cell(s) changed, largest relative float change 0, integer cells "
                       "unchanged, 3 phase-free cf cell(s) not compared by value, |cf| <= 1 holds")
    too_long = CF + "1.0,1e+308,2000,1000,0.9,0.9,0.0,0.0,1.3\n"
    summary = byte_identity.cell_summary(a.encode(), too_long.encode())
    assert summary.endswith("|cf| <= 1 FAILS")
