from __future__ import annotations

import re
import shlex
from pathlib import Path

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
