from __future__ import annotations

import importlib
import inspect
import re
import shlex
from pathlib import Path

import recur_moments
from recur_moments.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_commands_parse():
    # parse only: a flag removed or renamed in the CLI must not linger here
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [shlex.split(line, comments=True) for block in blocks
                for line in block.splitlines() if line.startswith("recur-moments ")]
    assert len(commands) >= 10
    for argv in commands:
        build_parser().parse_args(argv[1:])


def _entry_points(text: str) -> list[tuple[str, str]]:
    """(module, name) for each backticked identifier, bare or called, in
    README's "Key entry points" list; an item's first one names its module."""
    block = text.split("Key entry points", 1)[1].split("\n\n", 2)[1]
    pairs = []
    for item in re.split(r"^- ", block, flags=re.M)[1:]:
        module, *names = re.findall(r"`([A-Za-z_]\w*)(?:\([^`]*\))?`", item)
        pairs += [(module, name) for name in names] or [(module, None)]
    return pairs


def _resolves(module, name: str) -> bool:
    """Whether ``name`` is in ``module``, or on one of its public classes:
    an attribute, an annotated field, or an attribute its methods set."""
    if hasattr(module, name):
        return True
    for cls_name, cls in inspect.getmembers(module, inspect.isclass):
        if cls_name.startswith("_") or cls.__module__ != module.__name__:
            continue
        if (hasattr(cls, name) or name in getattr(cls, "__annotations__", {})
                or re.search(rf"\bself\.{name}\b", inspect.getsource(cls))):
            return True
    return False


def _unresolved(text: str) -> list[str]:
    out = []
    for module_name, name in _entry_points(text):
        module = importlib.import_module(f"recur_moments.{module_name}")
        if name is not None and not _resolves(module, name):
            out.append(f"{module_name}.{name}")
    return out


def test_readme_entry_points_resolve():
    text = README.read_text()
    assert len(_entry_points(text)) >= 30
    assert _unresolved(text) == []
    # a name the package no longer has fails the check
    stale = text.replace("`classify(f)`", "`submult_scan`, `classify(f)`", 1)
    assert _unresolved(stale) == ["momentfn.submult_scan"]


def test_package_all_resolves():
    assert [name for name in recur_moments.__all__ if not hasattr(recur_moments, name)] == []
