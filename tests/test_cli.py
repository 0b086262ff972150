from __future__ import annotations

import importlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import recur_moments
from recur_moments import (AtomicDist, PetalChain, build_two_state,
                           first_passage_law, law_from_csv, save_kernel_json)
from recur_moments import cli
from recur_moments.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# fpt


def test_fpt_stdout_matches_library(capsys):
    rc, out, err = run_cli(capsys, "fpt", "--builtin", "two-state:0.5",
                           "--from", "1", "--to", "1", "--horizon", "64")
    assert rc == 0 and err == ""
    got = law_from_csv(io.StringIO(out))
    want = first_passage_law(build_two_state(0.5), 1, 1, 64)
    np.testing.assert_array_equal(got.log_pmf, want.log_pmf)
    assert got.log_tail == want.log_tail
    assert got.tail_cert == want.tail_cert


def test_fpt_rerun_is_byte_identical(capsys):
    argv = ("fpt", "--builtin", "two-state:0.3", "--from", "0", "--to", "1",
            "--horizon", "40")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_fpt_output_file(tmp_path, capsys):
    out_file = tmp_path / "law.csv"
    rc, out, _ = run_cli(capsys, "fpt", "--builtin", "two-state:0.5",
                         "--from", "1", "--to", "1", "--horizon", "32",
                         "--output", str(out_file))
    assert rc == 0 and out == ""  # payload went to the file, not stdout
    rc2, stdout_text, _ = run_cli(capsys, "fpt", "--builtin", "two-state:0.5",
                                  "--from", "1", "--to", "1", "--horizon", "32")
    assert out_file.read_text() == stdout_text


def test_fpt_kernel_file_and_state_names(tmp_path, capsys, kernel3):
    path = tmp_path / "kernel.json"
    save_kernel_json(kernel3, path)
    rc, out, _ = run_cli(capsys, "fpt", "--kernel", str(path),
                         "--from", "a", "--to", "c", "--horizon", "30")
    assert rc == 0
    got = law_from_csv(io.StringIO(out))
    want = first_passage_law(kernel3, "a", "c", 30)
    np.testing.assert_array_equal(got.log_pmf, want.log_pmf)


def test_fpt_petal_builtin(tmp_path, capsys):
    spec = tmp_path / "petal.json"
    spec.write_text(json.dumps({"p": 0.5, "u1": {"3": 0.5, "5": 0.5},
                                "u2": {"4": 1.0}}))
    rc, out, _ = run_cli(capsys, "fpt", "--builtin", f"petal:{spec}",
                         "--from", "1", "--to", "1", "--horizon", "50")
    assert rc == 0
    chain = PetalChain(AtomicDist.from_pairs({3: 0.5, 5: 0.5}),
                       AtomicDist.from_pairs({4: 1.0}), 0.5)
    want = first_passage_law(chain.kernel(), "1", "1", 50)
    got = law_from_csv(io.StringIO(out))
    np.testing.assert_array_equal(got.log_pmf, want.log_pmf)


def test_fpt_structurally_impossible_law_exits_3(capsys):
    # state 1 always exits through 0: no return avoiding 0 exists
    rc, out, err = run_cli(capsys, "fpt", "--builtin", "two-state:0.5",
                           "--from", "1", "--to", "0",
                           "--mode", "return-avoiding", "--horizon", "10")
    assert rc == 3 and out == ""
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# classify


def test_classify_power_function(capsys):
    rc, out, _ = run_cli(capsys, "classify", "--function", "power:2")
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdict"] == "SatisfiesC"
    assert payload["function"] == "power:2"
    assert set(payload) == {"function", "verdict", "detail", "rate", "witnesses"}


def test_classify_burst_function(capsys):
    rc, out, _ = run_cli(capsys, "classify", "--function", "burst:default")
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdict"] == "ViolatesC_i"
    assert len(payload["witnesses"]) > 0
    w = payload["witnesses"][0]
    assert set(w) == {"x", "y", "log_defect"} and w["log_defect"] > 0


@pytest.mark.parametrize("function, k_text", [("power:2000", "e^1386.29"),
                                               ("logpow:5000", "e^1975.51")])
def test_classify_huge_exponent_satisfies(capsys, function, k_text):
    # the constant K overflowed a float: exit 1 with an OverflowError
    rc, out, err = run_cli(capsys, "classify", "--function", function)
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["verdict"] == "SatisfiesC"
    assert f"f(x+y) <= {k_text} f(x) f(y)" in payload["detail"]


def test_classify_has_no_profile_flag(capsys):
    rc, out, err = run_cli(capsys, "classify", "--function", "exp:0.5", "--profile-n", "5")
    assert rc == 2 and out == ""
    assert "unrecognized arguments: --profile-n 5" in err


# ---------------------------------------------------------------------------
# moment


def test_moment_exact_json_contract(capsys):
    rc, out, _ = run_cli(capsys, "moment", "--builtin", "two-state:0.5",
                         "--from", "0", "--to", "0", "--function", "power:1",
                         "--horizon", "16")
    assert rc == 0
    assert "-Infinity" in out  # complete law: tail bound is exactly zero
    payload = json.loads(out)
    assert set(payload) == {"log_partial_sum", "log_tail_bound", "verdict", "N"}
    assert payload["verdict"] == "converged" and payload["N"] == 16
    assert payload["log_partial_sum"] == pytest.approx(math.log(1.5), abs=1e-12)


def test_moment_diverged_exits_zero(capsys):
    rc, out, _ = run_cli(capsys, "moment", "--builtin", "two-state:0.5",
                         "--from", "1", "--to", "1", "--function", "exp:1.0",
                         "--horizon", "200")
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdict"] == "diverged"
    assert payload["log_tail_bound"] is None


def test_moment_infinite_log_f_diverges(capsys):
    # log f(n) = 1e308 n is +inf from n = 2 on; the partial sum is +inf,
    # which logsumexp used to turn into NaN, reported as converged
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc, out, err = run_cli(capsys, "moment", "--builtin", "two-state:0.5",
                               "--from", "0", "--to", "0", "--function", "exp:1e308")
    assert rc == 0 and err == ""
    assert '"log_partial_sum": Infinity' in out
    assert json.loads(out)["verdict"] == "diverged"


def test_moment_mc_deterministic(capsys):
    argv = ("moment", "--method", "mc", "--builtin", "two-state:0.5",
            "--from", "1", "--to", "1", "--function", "power:1",
            "--samples", "65536", "--cap", "1000")
    rc, first, _ = run_cli(capsys, *argv)
    assert rc == 0
    payload = json.loads(first)
    assert set(payload) == {"log_mean", "se_log", "n_samples", "n_censored", "cap"}
    assert payload["n_samples"] == 65536
    assert payload["log_mean"] == pytest.approx(math.log(3.0), abs=0.05)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_moment_mc_takes_state_indices_like_exact(tmp_path, capsys):
    # --from/--to resolve once for both methods: index 0 names state "a"
    path = tmp_path / "ab.json"
    path.write_text('{"states": ["a", "b"], "rows": [[["a", 0.5], ["b", 0.5]], [["a", 1.0]]]}')
    common = ("moment", "--kernel", str(path), "--function", "power:1",
              "--method", "mc", "--samples", "4096", "--cap", "100")
    by_name = run_cli(capsys, *common, "--from", "a", "--to", "b")
    by_index = run_cli(capsys, *common, "--from", "0", "--to", "1")
    assert by_name[0] == 0 and by_name[2] == ""
    assert by_index == by_name


def test_moment_converges_only_with_a_tail_certificate(capsys):
    base = ("moment", "--builtin", "two-state:0.5", "--from", "1", "--to", "1",
            "--function", "power:1", "--horizon", "100")
    _, strict, _ = run_cli(capsys, *base)
    assert json.loads(strict)["verdict"] == "converged"  # registered bound
    # the certificate bounds every step past the horizon, however short
    _, short, _ = run_cli(capsys, *base[:-1], "12")
    assert json.loads(short)["verdict"] == "converged"
    # e^0.7 times the certified rate 0.5 is past 1: the tail bound does not close
    _, fast, _ = run_cli(capsys, *base[:8], "exp:0.7", *base[9:])
    assert json.loads(fast)["verdict"] == "inconclusive"
    assert json.loads(fast)["log_tail_bound"] is None


@pytest.mark.parametrize("function", ["power:100000", "exp:800"])
def test_moment_overflowing_growth_ratio_is_inconclusive(capsys, function):
    # gamma = (1 + 1/N)^p and e^delta overflow a float: exit 1 with an
    # OverflowError.  An unbounded gamma bounds no tail, so the verdict is
    # never converged (the partial sum, past the threshold, says diverged)
    rc, out, err = run_cli(capsys, "moment", "--builtin", "two-state:0.5",
                           "--from", "1", "--to", "1", "--function", function,
                           "--horizon", "100")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["verdict"] != "converged"
    assert payload["log_tail_bound"] is None


def test_moment_has_no_threshold_flag(capsys):
    rc, out, err = run_cli(capsys, "moment", "--builtin", "two-state:0.5", "--from", "1",
                           "--to", "1", "--function", "power:1", "--threshold-log", "30")
    assert rc == 2 and out == "" and "unrecognized arguments" in err


# ---------------------------------------------------------------------------
# demo


def test_moment_past_underflow_horizon_is_not_converged(tmp_path, capsys):
    # survival 2^-(n-1) underflows near n = 1075; e^0.6935 * 0.5 > 1, so the
    # moment is infinite and must not be certified from a zero tail
    path = tmp_path / "k.json"
    path.write_text('{"states":["a","b"],"rows":[[["b",1.0]],[["b",0.5],["a",0.5]]]}')
    rc, out, _ = run_cli(capsys, "moment", "--kernel", str(path), "--from", "a",
                         "--to", "a", "--function", "exp:0.6935", "--horizon", "1100")
    assert rc == 0
    assert json.loads(out)["verdict"] == "inconclusive"


def test_demo_output_dir_writes_report_and_trace(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "demo", "sharp",
                         "--output-dir", str(tmp_path))
    assert rc == 0 and out == ""
    report = json.loads((tmp_path / "demo_sharp.json").read_text())
    assert report["succeeded"] is True
    trace = (tmp_path / "demo_sharp_trace.csv").read_text().splitlines()
    assert trace[0] == "k,log_term,log_partial"
    assert len(trace) == report["series"]["n_terms"] + 1


def test_demo_trace_flag(tmp_path, capsys):
    trace_file = tmp_path / "t.csv"
    rc, out, _ = run_cli(capsys, "demo", "exponential",
                         "--trace", str(trace_file))
    assert rc == 0
    assert json.loads(out)["succeeded"] is True
    assert trace_file.read_text().startswith("k,log_term,log_partial")


@pytest.mark.parametrize("delta, ratio_text", [("800", "e^799.712"),
                                                ("1e308", "e^1e+308")])
def test_demo_exponential_huge_delta(capsys, delta, ratio_text):
    # the term ratio e^delta (1-p) overflowed a float in the detail text:
    # exit 1 with an OverflowError
    rc, out, err = run_cli(capsys, "demo", "exponential", "--delta", delta)
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert report["succeeded"] is True
    assert report["notes"].endswith(f"exp(delta)(1-p) = {ratio_text}")


def test_demo_unreached_verdict_exits_3(capsys):
    rc, out, _ = run_cli(capsys, "demo", "sharp", "--k-max", "3")
    assert rc == 3
    assert json.loads(out)["succeeded"] is False  # report still emitted


def test_demo_sharp_past_int64_witnesses_exits_3(capsys):
    # the burst midpoint for k = 53 is about 1.3e19, past the int64 range
    rc, out, err = run_cli(capsys, "demo", "sharp", "--k-max", "53")
    assert rc == 3 and out == ""
    assert err.startswith("error:") and "int64" in err


def test_demo_precondition_failure_exits_3(capsys):
    rc, out, err = run_cli(capsys, "demo", "exponential",
                           "--delta", "0.1", "--p", "0.5")
    assert rc == 3 and out == ""
    assert "error:" in err


# ---------------------------------------------------------------------------
# error handling


@pytest.mark.parametrize("argv", [
    ("fpt", "--builtin", "ring:3", "--from", "0", "--to", "0", "--horizon", "5"),
    ("fpt", "--builtin", "two-state:2.0", "--from", "0", "--to", "0", "--horizon", "5"),
    ("fpt", "--builtin", "two-state:abc", "--from", "0", "--to", "0", "--horizon", "5"),
    ("fpt", "--kernel", "/nonexistent/kernel.json", "--from", "0", "--to", "0",
     "--horizon", "5"),
    ("fpt", "--from", "0", "--to", "0", "--horizon", "5"),  # no chain given
    ("fpt", "--builtin", "two-state:0.5", "--from", "zz", "--to", "0",
     "--horizon", "5"),
    ("moment", "--builtin", "two-state:0.5", "--from", "0", "--to", "0",
     "--function", "power:-1", "--horizon", "5"),
    ("classify", "--function", "power:inf"),
    ("classify", "--function", "logpow:inf"),
    ("classify", "--function", "exp:inf"),
    ("moment", "--builtin", "two-state:0.5", "--from", "1", "--to", "1",
     "--function", "exp:inf", "--horizon", "5"),
    ("moment", "--builtin", "two-state:0.5", "--from", "1", "--to", "1",
     "--function", "power:1", "--method", "mc", "--seed", "-1"),
    ("moment", "--builtin", "two-state:0.5", "--from", "1", "--to", "1",
     "--function", "power:1", "--horizon", "0"),
    ("demo", "sharp", "--threshold-log", "nan"),
    ("demo", "exponential", "--threshold-log", "inf"),
])
def test_invalid_input_exits_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv)
    assert rc == 2 and out == ""
    assert err.startswith("error:")


_MOMENT_2STATE = ("moment", "--builtin", "two-state:0.5", "--from", "1", "--to", "1",
                  "--function", "power:1", "--horizon", "5")


@pytest.mark.parametrize("argv, flag, value", [
    (_MOMENT_2STATE, "--horizon", "-1e3"),
    (_MOMENT_2STATE, "--samples", "-1E+3"),
    (("demo", "sharp"), "--threshold-log", "-1e3"),
    (("demo", "sharp"), "--p", "-1e3"),
    (("demo", "exponential"), "--delta", "-1e3"),
    (("demo", "exponential"), "--p", "-.5e1"),
])
def test_signed_exponent_value_reads_as_a_number(capsys, argv, flag, value):
    separate = run_cli(capsys, *argv, flag, value)
    attached = run_cli(capsys, *argv, f"{flag}={value}")
    assert separate == attached
    assert "expected one argument" not in separate[2]


@pytest.mark.parametrize("argv", [("demo", "exponential"), ("demo", "sharp")])
def test_negative_infinite_threshold_exits_2(capsys, argv):
    rc, out, err = run_cli(capsys, *argv, "--threshold-log", "-inf")
    assert rc == 2 and out == ""
    assert err.startswith("error: divergence threshold must be finite")


def test_out_of_memory_exits_2(capsys, monkeypatch):
    # the real repro, fpt --horizon 100000000000, asks numpy for 745 GiB;
    # raising here keeps the test from allocating anything
    def too_big(*_):
        raise MemoryError("Unable to allocate 745. GiB for an array with "
                          "shape (100000000000,) and data type float64")

    monkeypatch.setitem(cli._LAW_MODES, "passage", too_big)
    rc, out, err = run_cli(capsys, "fpt", "--builtin", "two-state:0.5",
                           "--from", "0", "--to", "1", "--horizon", "100000000000")
    assert rc == 2 and out == ""
    assert err == ("error: out of memory: Unable to allocate 745. GiB for an array "
                   "with shape (100000000000,) and data type float64\n")


@pytest.mark.parametrize("rows, prefix", [
    (5, "error: bad chain rows:"),
    ([5], "error: bad chain rows:"),
    ([[["a", "x"]]], "error: bad chain rows:"),
    ([[["a", None]]], "error: bad chain rows:"),
    ([[["a"]]], "error: bad chain rows:"),
    ([[["b", 1.0]]], "error: unknown target state 'b'"),
    ([[]], "error: invalid chain: 1 row sum(s)"),
    ([[["a", math.nan]]], "error: invalid chain: 1 probability(ies)"),
    ([[["a", 1.0]], []], "error: rows and states disagree in length"),
])
def test_kernel_rows_error_messages(tmp_path, capsys, rows, prefix):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"states": ["a"], "rows": rows}))
    rc, out, err = run_cli(capsys, "fpt", "--kernel", str(path),
                           "--from", "a", "--to", "a", "--horizon", "5")
    assert rc == 2 and out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


def test_both_chain_flags_rejected(tmp_path, capsys):
    path = tmp_path / "k.json"
    save_kernel_json(build_two_state(0.5), path)
    rc, _, err = run_cli(capsys, "fpt", "--kernel", str(path),
                         "--builtin", "two-state:0.5",
                         "--from", "0", "--to", "0", "--horizon", "5")
    assert rc == 2 and "not both" in err


def test_bad_petal_file_exits_2(tmp_path, capsys):
    spec = tmp_path / "petal.json"
    spec.write_text("not json at all")
    rc, _, err = run_cli(capsys, "fpt", "--builtin", f"petal:{spec}",
                         "--from", "1", "--to", "1", "--horizon", "5")
    assert rc == 2 and "petal" in err


@pytest.mark.parametrize("rows", [
    5,
    [5],
    [[["a", "x"]]],
    [[["a", None]]],
    [[["a", True]]],  # float() reads true and "1" alike as 1.0
    [[["a", "1"]]],
])
def test_malformed_kernel_rows_exit_2(tmp_path, capsys, rows):
    path = tmp_path / "k.json"
    path.write_text(json.dumps({"states": ["a"], "rows": rows}))
    rc, out, err = run_cli(capsys, "fpt", "--kernel", str(path),
                           "--from", "a", "--to", "a", "--horizon", "5")
    assert rc == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("field, value", [("p", "0.5"), ("u1", {"3": True}),
                                          ("u2", {"5": "1"})])
def test_petal_probability_that_is_not_a_json_number_exits_2(tmp_path, capsys, field, value):
    spec = tmp_path / "petal.json"
    petal = {"p": 0.5, "u1": {"3": 1.0}, "u2": {"5": 1.0}, field: value}
    spec.write_text(json.dumps(petal))
    rc, out, err = run_cli(capsys, "fpt", "--builtin", f"petal:{spec}",
                           "--from", "1", "--to", "1", "--horizon", "5")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "petal" in err


_DEEP = "[" * 5000 + "]" * 5000
_HUGE = "1" + "0" * 399  # an integer past the float range


@pytest.mark.parametrize("flag, text, message", [
    ("--kernel", '{"states": ["a"], "rows": [[["a", %s]]]}' % _HUGE,
     "bad chain rows: int too large to convert to float"),
    ("--kernel", '{"states": ["a"], "rows": [%s]}' % _DEEP, "is not valid JSON: nested too deeply"),
    ("--builtin", '{"p": 0.5, "u1": [1, 2], "u2": {"2": 1.0}}',
     "'u1' is not an object of length: probability pairs"),
    ("--builtin", '{"p": 0.5, "u1": {"1%s": 1.0}, "u2": {"2": 1.0}}' % ("0" * 29,),
     f"atom must be at most {2 ** 63 - 1}, got 1"),
    ("--builtin", '{"p": %s, "u1": {"2": 1.0}, "u2": {"2": 1.0}}' % _HUGE,
     "int too large to convert to float"),
    ("--builtin", _DEEP, "is not valid JSON: nested too deeply"),
], ids=["kernel-400-digit-p", "kernel-deep", "petal-u1-list", "petal-30-digit-atom",
        "petal-400-digit-p", "petal-deep"])
def test_file_past_a_range_or_nested_deeply_exits_2(tmp_path, capsys, flag, text, message):
    # each ended in a traceback with exit 1 (OverflowError, RecursionError
    # or AttributeError), not in one error line
    path = tmp_path / "chain.json"
    path.write_text(text)
    rc, out, err = run_cli(capsys, "fpt", flag, f"{'petal:' if flag == '--builtin' else ''}{path}",
                           "--from", "0", "--to", "1", "--horizon", "5")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (("fpt", "--horizon", str(10 ** 30)), f"horizon must be at most {2 ** 60 - 1}"),
    (("moment", "--function", "power:1", "--method", "mc", "--samples", str(10 ** 30)),
     f"n_samples must be at most {2 ** 63 - 1}"),
    (("moment", "--function", "power:1", "--method", "mc", "--cap", str(10 ** 30)),
     f"cap must be at most {2 ** 63 - 1}"),
], ids=["horizon", "samples", "cap"])
def test_count_past_int64_exits_2(capsys, argv, message):
    # numpy's ValueError or an OverflowError, each a traceback with exit 1
    rc, out, err = run_cli(capsys, *argv, "--builtin", "two-state:0.5", "--from", "0", "--to", "1")
    assert rc == 2 and out == ""
    assert err == f"error: {message}, got {10 ** 30}\n"


@pytest.mark.parametrize("ref", ["--1", "\u00b2"], ids=["double-minus", "superscript-two"])
def test_state_ref_that_int_cannot_read_exits_2(capsys, ref):
    # each passed the digit test of the state resolver, then ended in int()'s
    # ValueError, a traceback with exit 1
    rc, out, err = run_cli(capsys, "fpt", "--builtin", "two-state:0.5", f"--from={ref}",
                           "--to", "1", "--horizon", "5")
    assert rc == 2 and out == ""
    assert err == f"error: unknown state {ref!r}\n"


@pytest.mark.parametrize("flag, prefix", [("--kernel", ""), ("--builtin", "petal:")])
def test_non_utf8_json_file_exits_2(tmp_path, capsys, flag, prefix):
    path = tmp_path / "chain.json"
    path.write_bytes(b"\xff\xfe{}")
    rc, out, err = run_cli(capsys, "fpt", flag, f"{prefix}{path}",
                           "--from", "0", "--to", "0", "--horizon", "5")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "not valid JSON" in err


def test_short_burst_schedule_row_exits_2(tmp_path, capsys):
    path = tmp_path / "sched.csv"
    path.write_text("i,s,u\n1,2,2\n2,16\n3,72,24\n")
    rc, out, err = run_cli(capsys, "classify", "--function", f"burst:file={path}")
    assert rc == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("command", [("classify",),
                                     ("moment", "--builtin", "two-state:0.5",
                                      "--from", "0", "--to", "0")])
def test_non_utf8_burst_schedule_exits_2(tmp_path, capsys, command):
    # a UnicodeDecodeError traceback and exit 1
    path = tmp_path / "sched.csv"
    path.write_bytes(b"\xff\xfe1,2,2\n")
    rc, out, err = run_cli(capsys, *command, "--function", f"burst:file={path}")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and str(path) in err


def test_finite_burst_schedule_satisfies(tmp_path, capsys):
    # past its last burst g stays flat, so f <= e^(sum u) = e^3586; the grid
    # scans read the eight bursts as a growing defect and printed ViolatesC_i
    path = tmp_path / "finite8.csv"
    path.write_text("".join(f"{i},{i * i << i},{i << i}\n" for i in range(1, 9)))
    rc, out, err = run_cli(capsys, "classify", "--function", f"burst:file={path}")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["verdict"] == "SatisfiesC"
    assert "f(x+y) <= e^3586 f(x) f(y)" in payload["detail"]


def test_usage_error_returns_argparse_code(capsys):
    rc, _, err = run_cli(capsys, "fpt", "--builtin", "two-state:0.5")
    assert rc == 2  # argparse: missing required arguments
    assert "required" in err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SCRIPT = "recur-moments"


def run_script_target():
    """Run the ``[project.scripts]`` target as pip's generated script would.

    The child imports ``recur_moments`` from the same directory as this
    test, so it runs this checkout whether or not the package is installed.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][SCRIPT]
    module, sep, attr = target.partition(":")
    assert sep and module and attr.isidentifier(), target
    assert callable(getattr(importlib.import_module(module), attr))
    src = str(Path(recur_moments.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return subprocess.run([sys.executable, "-c", code, "--help"], env=env,
                          capture_output=True, text=True, timeout=60)


def test_console_script_wired():
    proc = run_script_target()
    assert proc.returncode == 0
    assert "fpt" in proc.stdout and "classify" in proc.stdout
    assert proc.stdout.startswith(f"usage: {SCRIPT}")


@pytest.mark.skipif(shutil.which(SCRIPT) is None,
                    reason=f"{SCRIPT} not installed on PATH")
def test_installed_console_script_matches_tree():
    installed = subprocess.run([SCRIPT, "--help"], capture_output=True,
                               text=True, timeout=60)
    tree = run_script_target()
    assert (installed.returncode, installed.stdout) == (tree.returncode,
                                                        tree.stdout)


def test_cli_digest_script_runs_its_commands(tmp_path):
    # tests/cli_digest.py keeps running: a slice of its command set covers
    # each subcommand, every command exits 0 with output or 2/3 with an
    # error line, and the slice digests the same twice
    import cli_digest

    cmds = cli_digest.commands()[::5]
    assert {argv[0] for argv in cmds} == {"fpt", "moment", "demo", "classify"}
    cli_digest.write_inputs(str(tmp_path))
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        results = [cli_digest.run(argv) for argv in cmds]
    finally:
        os.chdir(cwd)
    for argv, (code, out, err) in zip(cmds, results):
        assert (code == 0 and out and not err) or (
            code in (2, 3) and err.startswith(("error: ", "usage: "))), argv
    assert cli_digest.digest(cmds, str(tmp_path)) == cli_digest.digest(cmds, str(tmp_path))


def test_cli_digest_compare_names_the_commands_that_moved(tmp_path):
    # tests/cli_digest.py says which commands moved: records of a slice
    # compared with themselves pass; a copy with one number nudged lists
    # that command with its relative change and exits 0, and a copy with
    # one exit code changed, or one command gone, exits 1
    import cli_digest

    cmds = [argv for argv in cli_digest.commands() if "two-state:0.5" in argv][:40:8]
    cli_digest.write_inputs(str(tmp_path))
    lines = [cli_digest.record(*pair)
             for pair in zip(cmds, cli_digest.results(cmds, str(tmp_path)))]
    records = [json.loads(line) for line in lines]
    old = tmp_path / "old.jsonl"
    old.write_text("".join(line + "\n" for line in lines))
    out = io.StringIO()
    assert cli_digest.compare(str(old), str(old), out) == 0
    assert "0 exit codes changed, 0 outputs changed" in out.getvalue()
    target = next(r for r in records if ",0.5," in r["stdout"])
    nudged = target["stdout"].replace(",0.5,", ",0.5000000000001,", 1)
    for change, code in (({"stdout": nudged}, 0), ({"code": 3}, 1)):
        moved = tmp_path / "moved.jsonl"
        moved.write_text("".join(json.dumps({**r, **change} if r is target else r) + "\n"
                                 for r in records))
        out = io.StringIO()
        assert cli_digest.compare(str(old), str(moved), out) == code
        assert " ".join(target["argv"]) in out.getvalue()
        assert ("largest relative change 2e-13" in out.getvalue()) == (code == 0)
    assert cli_digest._largest_change("a 1\n", "b 1\n") == "text"
    (tmp_path / "short.jsonl").write_text("".join(line + "\n" for line in lines[1:]))
    assert cli_digest.main(["--compare", str(old), str(tmp_path / "short.jsonl")]) == 1


def test_law_digest_compare_flags_a_raised_bound(tmp_path):
    # tests/law_digest.py keeps its records checkable: a slice of its laws
    # compared with itself passes, and against a copy with one upper bound
    # raised, or one verdict changed, it exits 1 and names what moved
    import law_digest

    fns = [(spec, recur_moments.parse_function_spec(spec)) for spec in law_digest.FUNCTIONS]
    lines = [law_digest.record(key, law, spec, recur_moments.f_moment(law, f))
             for key, law in law_digest.small_laws(sizes=(3, 4), seeds=(0,), horizons=(60,))
             if not isinstance(law, Exception) for spec, f in fns]
    old = tmp_path / "old.jsonl"
    old.write_text("".join(line + "\n" for line in lines))
    out = io.StringIO()
    assert law_digest.compare(str(old), str(old), out) == 0
    assert "0 verdict changes, 0 lost certificates" in out.getvalue()
    records = [json.loads(line) for line in lines]
    bounded = [r for r in records if r["log_upper_bound"] not in (None, -math.inf)]
    assert bounded
    for field, value in (("log_upper_bound", bounded[0]["log_upper_bound"] + 1e-9),
                         ("verdict", "diverged")):
        changed = tmp_path / f"{field}.jsonl"
        changed.write_text("".join(json.dumps({**r, field: value} if r is bounded[0] else r) + "\n"
                                   for r in records))
        out = io.StringIO()
        assert law_digest.compare(str(old), str(changed), out) == 1
        assert bounded[0]["key"] in out.getvalue()
        assert law_digest.main(["--compare", str(changed), str(changed)]) == 0
