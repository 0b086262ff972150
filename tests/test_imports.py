"""Which scipy subpackages each entry point loads, each probed in a fresh
interpreter: this test process has scipy.sparse.csgraph loaded already
(helpers imports it), so an in-process check would see nothing.  No entry
point of the package loads scipy.linalg or scipy.sparse.linalg."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import recur_moments
from recur_moments import random_kernel, save_kernel_json

_PROBE = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(code: str) -> set[str]:
    """The scipy modules loaded once ``code`` has run in a fresh interpreter
    that imports the package from the same tree as these tests."""
    src = str(Path(recur_moments.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code + _PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def loaded(mods: set[str], package: str) -> bool:
    return any(m == package or m.startswith(package + ".") for m in mods)


def test_package_and_cli_import_loads_no_scipy():
    assert scipy_modules_after("import recur_moments, recur_moments.cli") == set()


def test_classify_loads_no_scipy():
    mods = scipy_modules_after(
        "import contextlib, io\n"
        "from recur_moments.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    assert main(['classify', '--function', 'burst:default']) == 0\n"
        "assert 'ViolatesC_i' in out.getvalue()\n")
    assert mods == set()


def test_law_and_moment_load_only_scipy_sparse():
    mods = scipy_modules_after(
        "import numpy as np\n"
        "from recur_moments import first_passage_law, f_moment, power_fn, random_kernel\n"
        "law = first_passage_law(random_kernel(6, np.random.default_rng(0)), 0, 1, 300)\n"
        "assert f_moment(law, power_fn(2)).verdict == 'converged'\n")
    assert loaded(mods, "scipy.sparse")
    assert not loaded(mods, "scipy.linalg")
    assert not loaded(mods, "scipy.sparse.csgraph")
    assert not loaded(mods, "scipy.sparse.linalg")


def test_kernel_validation_loads_no_scipy(tmp_path):
    path = tmp_path / "reducible.json"
    path.write_text('{"states": ["a", "b", "c"], '
                    '"rows": [[["b", 1.0]], [["a", 1.0]], [["c", 1.0]]]}')
    mods = scipy_modules_after(
        "from recur_moments import InvalidInput, load_kernel_json\n"
        "try:\n"
        f"    load_kernel_json({str(path)!r})\n"
        "except InvalidInput as exc:\n"
        "    assert 'not irreducible (2 strong components)' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('a reducible chain was accepted')\n")
    assert mods == set()


@pytest.mark.parametrize("argv", [
    ["fpt", "--from", "0", "--to", "1", "--horizon", "50"],
    ["moment", "--from", "0", "--to", "0", "--function", "power:2", "--horizon", "600"],
], ids=["fpt", "moment"])
def test_kernel_file_commands_load_no_csgraph_or_linalg(tmp_path, argv):
    path = tmp_path / "kernel8.json"
    save_kernel_json(random_kernel(8, np.random.default_rng(8)), path)
    mods = scipy_modules_after(
        "import contextlib, io\n"
        "from recur_moments.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({[*argv, '--kernel', str(path)]!r}) == 0\n")
    for package in ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg"):
        assert not loaded(mods, package), package


def test_dense_compound_loads_no_scipy_linalg():
    mods = scipy_modules_after(
        "import numpy as np\n"
        "from recur_moments import PassageLaw, geometric_compound\n"
        "u = PassageLaw.dense([0.0, 1.0], 0.0)\n"
        "v = PassageLaw.dense([1.0], 0.0)\n"
        "c = geometric_compound(u, v, 0.5, horizon=400)\n"
        "want = np.zeros(400)\n"
        "want[0::2] = 0.5 ** np.arange(1, 201)\n"
        "assert np.allclose(c.pmf_array(), want, rtol=1e-12, atol=0.0)\n")
    assert not loaded(mods, "scipy.linalg")
    assert not loaded(mods, "scipy.sparse.csgraph")


def test_return_time_decomposition_loads_no_scipy_linalg():
    # the chain of calls behind one decomposition benchmark item: the
    # compound of the excursion laws is the direct law, the avoid/cross
    # mixture is the return law, and the crossing law dominates
    mods = scipy_modules_after(
        "import numpy as np\n"
        "import recur_moments as rm\n"
        "k, i, j, h = rm.random_kernel(5, np.random.default_rng(0)), 0, 2, 600\n"
        "pi = rm.hit_before_return_prob(k, i, j)\n"
        "u = rm.conditioned_return_law(k, i, j, h)\n"
        "v = rm.conditioned_hit_law(k, i, j, h)\n"
        "cross = rm.crossing_return_law(k, i, j, h)\n"
        "comp = rm.geometric_compound(u, v, pi, horizon=h)\n"
        "direct = rm.first_passage_law(k, i, j, h)\n"
        "assert np.abs(comp.pmf_array() - direct.pmf_array()).max() <= 1e-10\n"
        "mix = rm.mixture([u, cross], [1.0 - pi, pi])\n"
        "ret = rm.first_passage_law(k, i, i, h)\n"
        "assert np.abs(mix.pmf_array() - ret.pmf_array()).max() <= 1e-10\n"
        "back = rm.first_passage_law(k, j, i, h)\n"
        "assert rm.stochastic_dominates(cross, v, tol=1e-10).dominates\n"
        "assert rm.stochastic_dominates(cross, back, tol=1e-10).dominates\n")
    assert loaded(mods, "scipy.sparse")
    assert not loaded(mods, "scipy.linalg")
    assert not loaded(mods, "scipy.sparse.csgraph")


def _scan(hit) -> set[str]:
    """``module.function`` of the innermost function around each node of the
    package's code, docstrings aside, for which ``hit(node)`` holds
    (``module.<module>`` outside functions)."""
    found = set()
    for path in sorted(Path(recur_moments.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)}

        def visit(node, where):
            if isinstance(node, ast.FunctionDef):
                where = f"{path.stem}.{node.name}"
            if id(node) not in docstrings and hit(node):
                found.add(where)
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, f"{path.stem}.<module>")
    return found


def _code_references(name: str) -> set[str]:
    """Where the package's code mentions ``name``: in an import, a name, an
    attribute or a string that is not a docstring."""
    def mentions(node) -> bool:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            text = " ".join([getattr(node, "module", None) or "",
                             *(alias.name for alias in node.names)])
        elif isinstance(node, ast.Constant):
            text = node.value if isinstance(node.value, str) else ""
        else:
            text = getattr(node, "attr", None) or getattr(node, "id", "")
        return name in text

    return _scan(mentions)


def _callers(name: str, *first) -> set[str]:
    """Where the package's code calls ``name``, bare or as an attribute,
    with the constants ``first`` as its leading arguments if any are given."""
    return _scan(lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))
        and [getattr(arg, "value", arg) for arg in node.args[:len(first)]] == list(first))


def test_scipy_private_products_are_bound_in_one_function():
    # scipy's private _sparsetools is reached only through passage._products,
    # which checks the in-place update lifted steps rely on
    assert _code_references("_sparsetools") == {"passage._products"}
    assert _code_references("_products") >= {"passage._propagate", "passage._log_hold",
                                              "passage._checked_ratio"}


def test_each_job_is_done_in_one_place():
    # one integer reader, chain._count, and one horizon check for every law
    # mode and the calculus, one builder of every propagated law, each Monte
    # Carlo stream made when its chunk is reached, every file opened by
    # chain._opened
    assert _callers("index") == {"chain._count"}
    assert _callers("_count", "horizon") == {"passage._check_horizon"}
    assert _callers("_propagate") == {"passage._law"}
    assert _callers("spawn") == set()
    assert _callers("open") == {"chain._opened"}


def test_the_crossing_flag_is_read_in_one_operator():
    # the visited flag's rule, mass entering (flag, 0) lands on (flag, 1),
    # lives in passage._taboo_operator; the step loop reads the flag only
    # for its start slot and the pairs it returns, and no lift, hold bound,
    # dense operator or certificate takes it
    names = {"flag", "fslot", "flag_slot"}
    found = _scan(lambda node: getattr(node, "id", None) in names
                  or (isinstance(node, (ast.arg, ast.keyword)) and node.arg in names))
    assert {where for where in found if where.startswith("passage.")} == {
        "passage._taboo_operator", "passage._propagate"}
