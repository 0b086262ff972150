"""The command line on inputs drawn from a grammar and then broken: kernel
JSON, petal JSON and burst-schedule CSV, mutated by wrong types, floats
where integers belong, extreme numbers, deep nesting and truncation.  Every
integer flag is also tried at 0, -1, 2.5, 2^63 and 10^30, and every float
flag and function parameter at 0, -0.0, -1, 2.5, 1e308, 1e-320, NaN and
the infinities.

Whatever the input, ``cli.main`` returns 0, 2 or 3 and raises nothing.  On
2 or 3 it writes one ``error:`` line, with two exceptions: argparse's usage
message for a flag value argparse itself refuses, and a demonstration that
falls short of its verdict, which prints its report and exits 3.  A kernel
file it accepts passes the reference validator of ``tests/helpers.py``.

Every size the package accepts stays small: horizons, sample counts and
caps of at most 2 000, loop lengths of at most 20.  Only values refused
before anything is allocated are large."""

from __future__ import annotations

import contextlib
import io
import json
import os
import tempfile

from helpers import reference_report
from hypothesis import given, settings
from hypothesis import strategies as st

from recur_moments import cli

_EDGE_INTS = ["0", "-1", "2.5", str(2 ** 63), str(10 ** 30)]
_WEIRD = [None, True, "1", [], {}, 1.5, -1, 0, 2 ** 63, 10 ** 30, 10 ** 400, 1e308,
          -0.0, float("nan"), float("inf")]
_WEIRD_KEYS = ["0", "-1", "2.5", "1e3", "x", str(2 ** 63), str(10 ** 30)]
_WEIRD_CELLS = ["", "0", "-1", "2.5", "1e3", "x", str(2 ** 63), str(10 ** 30)]
_BAD_STATES = ["2", "9", "-1", "--1", "²", "x"]
_EDGE_FLOATS = ["0", "-0.0", "-1", "2.5", "1e308", "1e-320", "nan", "inf", "-inf"]


def _rarely(n):
    """True about one time in ``n``."""
    return st.sampled_from([False] * (n - 1) + [True])


@st.composite
def _flag(draw, least, most):
    """An integer flag's value: one of the edges one time in six, else a
    valid value from ``least`` to ``most``."""
    if draw(_rarely(6)):
        return draw(st.sampled_from(_EDGE_INTS))
    return str(draw(st.integers(least, most)))


def _paths(node, at=()):
    """The path of every node of a JSON tree, leaves first, the root last."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, (*at, key))
    yield at


def _replaced(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replaced(node[path[0]], path[1:], value)
    return copy


@st.composite
def _number(draw, *good):
    """A float flag's value: one of the edges one time in six, else one of
    ``good``."""
    return draw(st.sampled_from(_EDGE_FLOATS if draw(_rarely(6)) else [str(x) for x in good]))


@st.composite
def _function(draw):
    """A function spec: burst:default, or a power, log-power or exponential
    of a drawn parameter."""
    kind = draw(st.sampled_from(["power", "logpow", "exp", "burst"]))
    if kind == "burst":
        return "burst:default"
    return f"{kind}:{draw(_number(0.01, 0.1, 0.69, 1, 2, 6))}"


@st.composite
def _state(draw, kernel):
    """A state name or index of a kernel file's chain if ``kernel``, else of
    a petal or two-state chain; one that no chain here has one time in six."""
    good = ["0", "1", "a", "b"] if kernel else ["0", "1"]
    return draw(st.sampled_from(_BAD_STATES if draw(_rarely(6)) else good))


@st.composite
def _broken_text(draw, tree):
    """``tree`` as JSON text, with at most one node replaced by a wrong type
    or an extreme number, then maybe truncated or nested 3 000 deep."""
    if draw(_rarely(3)):
        paths = list(_paths(tree))
        tree = _replaced(tree, draw(st.sampled_from(paths)), draw(st.sampled_from(_WEIRD)))
    text = json.dumps(tree)
    cut = draw(st.sampled_from(["none"] * 4 + ["truncate", "nest"]))
    if cut == "truncate":
        return text[:draw(st.integers(0, len(text)))]
    return "[" * 3000 + text + "]" * 3000 if cut == "nest" else text


@st.composite
def _kernel_tree(draw):
    n = draw(st.integers(2, 4))
    names = [chr(ord("a") + i) for i in range(n)]
    rows = []
    for i in range(n):
        targets = sorted({(i + 1) % n} | set(draw(st.lists(st.integers(0, n - 1), max_size=2))))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(targets), max_size=len(targets)))
        rows.append([[names[t], w / sum(weights)] for t, w in zip(targets, weights)])
    return {"states": names, "rows": rows}


@st.composite
def _loop_law(draw):
    law = draw(st.dictionaries(st.integers(1, 20).map(str), st.integers(1, 9),
                               min_size=1, max_size=3))
    law = {k: w / sum(law.values()) for k, w in law.items()}
    if draw(_rarely(8)):  # an atom no reader may take, never one it would build
        law[draw(st.sampled_from(_WEIRD_KEYS))] = law.pop(next(iter(law)))
    return law


@st.composite
def _petal_tree(draw):
    return {"p": draw(st.sampled_from([0.25, 0.5])), "u1": draw(_loop_law()),
            "u2": draw(_loop_law())}


@st.composite
def _schedule_text(draw):
    n = draw(st.integers(1, 5))
    rows = [[str(i), str(i * i << i), str(i << i)] for i in range(1, n + 1)]
    if draw(_rarely(3)):
        row = draw(st.sampled_from(rows))
        col = draw(st.integers(0, 2))
        if draw(st.booleans()):
            row[col] = draw(st.sampled_from(_WEIRD_CELLS))
        else:
            del row[col:]
    text = "i,s,u\n" + "".join(",".join(row) + "\n" for row in rows)
    return text[:draw(st.integers(0, len(text)))] if draw(_rarely(6)) else text


@st.composite
def _case(draw):
    """(files, argv): the input files by name, and the command line."""
    kind = draw(st.sampled_from(["fpt-kernel", "fpt-petal", "moment-kernel", "mc",
                                 "classify", "moment-schedule", "demo-sharp", "demo-exp"]))
    horizon = ["--horizon", draw(_flag(1, 2000))]
    ends = [f"{flag}={draw(_state(kind.endswith('kernel')))}" for flag in ("--from", "--to")]
    function = ["--function", draw(_function())]
    files = {}
    if kind in ("fpt-kernel", "moment-kernel"):
        files["kernel.json"] = draw(_broken_text(draw(_kernel_tree())))
    if kind in ("fpt-petal", "mc"):
        files["petal.json"] = draw(_broken_text(draw(_petal_tree())))
    if kind in ("classify", "moment-schedule"):
        files["sched.csv"] = draw(_schedule_text())
    if kind == "fpt-kernel":
        argv = ["fpt", "--kernel", "kernel.json", *ends, *horizon, "--mode",
                draw(st.sampled_from(sorted(cli._LAW_MODES)))]
    elif kind == "fpt-petal":
        argv = ["fpt", "--builtin", "petal:petal.json", *ends, *horizon]
    elif kind == "moment-kernel":
        argv = ["moment", "--kernel", "kernel.json", *ends, *function, *horizon]
    elif kind == "mc":
        chain = draw(st.sampled_from(["petal:petal.json", f"two-state:{draw(_number(0.1, 0.5, 0.9))}"]))
        argv = ["moment", "--builtin", chain, *ends, *function, "--method", "mc",
                "--samples", draw(_flag(2, 2000)),
                "--cap", draw(_flag(1, 2000)),
                "--seed", draw(_flag(0, 2 ** 32))]
    elif kind == "classify":
        argv = ["classify", "--function", "burst:file=sched.csv"]
    elif kind == "moment-schedule":
        argv = ["moment", "--builtin", "two-state:0.5", "--from", "0", "--to", "0",
                "--function", "burst:file=sched.csv", *horizon]
    elif kind == "demo-sharp":
        argv = ["demo", "sharp", "--k-max", draw(_flag(3, 10)), "--p", draw(_number(0.1, 0.5, 0.9))]
    else:
        argv = ["demo", "exponential", "--delta", draw(_number(0.1, 0.5, 1.0)),
                "--p", draw(_number(0.1, 0.25, 0.5))]
    if kind.startswith("demo"):
        argv += ["--threshold-log", draw(_number(1.0, 13.8, 50.0))]
    return files, argv


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _reference_accepts(text: str) -> bool:
    """Whether the reference validator, reading the file with stdlib json,
    finds the chain valid."""
    obj = json.loads(text)
    index = {str(name): i for i, name in enumerate(obj["states"])}
    rows = [[(index[target], p) for target, p in row] for row in obj["rows"]]
    return len(index) == len(rows) and reference_report(list(index), rows).ok


@settings(max_examples=300)
@given(_case())
def test_any_input_ends_in_exit_0_2_or_3_with_one_error_line(case):
    files, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            code, out, err = _run(argv)
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3), (argv, err)
    if code == 0 and "kernel.json" in files:
        assert _reference_accepts(files["kernel.json"]), files
    if code and not err:  # a demonstration that fell short prints its report and exits 3
        assert code == 3 and argv[0] == "demo" and json.loads(out)["succeeded"] is False
    elif code:
        lines = err.splitlines()
        one_line = len(lines) == 1 and err.startswith("error: ") and err.endswith("\n")
        usage = code == 2 and err.startswith("usage: ") and ": error: " in lines[-1]
        assert one_line or usage, (argv, err)
