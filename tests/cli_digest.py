"""Print one sha256 digest over the results of a fixed set of CLI commands,
to show that two commits give the same command-line output.

Usage, from the root of a checkout:

    python3 tests/cli_digest.py

The set writes its input files into a temporary directory and runs there,
in-process through ``cli.main``, so that file names read the same on every
run.  The files are the seeded 5- and 8-state ``random_kernel`` chains as
JSON, a petal chain, burst schedules (one good, and one for each fault a
schedule file can have) and a file that is not JSON.  The commands:

* ``fpt`` in all four modes at horizons 1, 2, 50, 130, 600 and 1500, and
  ``moment`` with power:1, power:2, exp:0.1, exp:0.69, logpow:2 and
  burst:default at horizons 600, 1500 and 2048, on two-state chains of p =
  0.3, 0.5 and 0.9 and on the two kernel files, three state pairs each;
* ``demo sharp`` at k_max 8, 20, 50 and 53 and at p 0.1 and 0.9, and ``demo
  exponential`` at delta 0.5 and 0.1;
* ``moment --method mc`` on two-state, petal and kernel chains;
* ``classify`` of each function family and schedule file;
* ``fpt`` and ``moment`` on the petal chain;
* the verdict order of ``moment``: the sixth moment of the slow two-state
  chain's return time (p = 0.1), finite but past the divergence threshold,
  at horizons 60, 600 and 1024, where a certified bracket outranks the
  threshold, and ``exp:1.0`` at p = 0.5, whose moment is infinite and
  whose partial sum crosses it; a change of that order changes the digest;
* error cases, which exit 2 or 3.

The digest covers each command's argv, exit code, standard output and the
first line of its standard error.  The package is imported from the
``src`` directory of the checkout that holds this file, so to compare two
commits run the script in each checkout (copy it into one that predates
it).  The count of commands goes to standard error.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

import recur_moments as rm  # noqa: E402
from recur_moments import cli  # noqa: E402

MODES = ("passage", "return-avoiding", "hit-first", "return-crossing")
FPT_HORIZONS = (1, 2, 50, 130, 600, 1500)
FUNCTIONS = ("power:1", "power:2", "exp:0.1", "exp:0.69", "logpow:2", "burst:default")
MOMENT_HORIZONS = (600, 1500, 2048)
TWO_STATE = ("0.3", "0.5", "0.9")
KERNELS = {"kernel5.json": 5, "kernel8.json": 8}
SCHEDULES = {  # file name -> rows i,s_i,u_i
    "schedule.csv": ((1, 4, 2), (2, 16, 4), (3, 64, 8)),
    "start_below_1.csv": ((1, 0, 1), (2, 5, 2), (3, 10, 3)),
    "length_below_1.csv": ((1, 1, 1), (2, 5, 0), (3, 10, 3)),
    "starts_not_increasing.csv": ((1, 1, 1), (2, 1, 2), (3, 10, 3)),
    "overrun.csv": ((1, 1, 5), (2, 3, 6), (3, 20, 7)),
    "lengths_not_increasing.csv": ((1, 1, 3), (2, 10, 2), (3, 20, 4)),
}
MC = ("--method", "mc", "--samples", "2000", "--cap", "500", "--seed", "7")


def write_inputs(directory: str) -> None:
    """The files the commands read, written into ``directory``."""
    for name, n in KERNELS.items():
        rm.save_kernel_json(rm.random_kernel(n, np.random.default_rng([n, 0])),
                            os.path.join(directory, name))
    with open(os.path.join(directory, "petal.json"), "w") as fh:
        json.dump({"p": 0.4, "u1": {"3": 0.5, "7": 0.5}, "u2": {"2": 0.25, "5": 0.75}}, fh)
    for name, rows in SCHEDULES.items():
        with open(os.path.join(directory, name), "w") as fh:
            fh.write("i,s,u\n" + "".join(f"{i},{s},{u}\n" for i, s, u in rows))
    with open(os.path.join(directory, "not_json.json"), "w") as fh:
        fh.write("{'states': \n")


def _chains():
    """(chain args, three state pairs) of each chain the law commands use."""
    for p in TWO_STATE:
        yield ["--builtin", f"two-state:{p}"], (("0", "1"), ("1", "0"), ("1", "1"))
    for name, n in KERNELS.items():
        yield ["--kernel", name], (("0", "1"), ("2", "2"), (str(n - 1), "0"))


def commands() -> list[list[str]]:
    """The argv of every command, in a fixed order."""
    out = []
    for chain, pairs in _chains():
        for src, tgt in pairs:
            for mode in MODES:
                for h in FPT_HORIZONS:
                    out.append(["fpt", *chain, "--from", src, "--to", tgt,
                                "--horizon", str(h), "--mode", mode])
            for f in FUNCTIONS:
                for h in MOMENT_HORIZONS:
                    out.append(["moment", *chain, "--from", src, "--to", tgt,
                                "--function", f, "--horizon", str(h)])
    for extra in (["--k-max", "8"], ["--k-max", "20"], ["--k-max", "50"], ["--k-max", "53"],
                  ["--p", "0.1"], ["--p", "0.9"]):
        out.append(["demo", "sharp", *extra])
    for delta in ("0.5", "0.1"):
        out.append(["demo", "exponential", "--delta", delta])
    out += [
        ["moment", "--builtin", "two-state:0.5", "--from", "1", "--to", "1",
         "--function", "power:1", *MC],
        ["moment", "--builtin", "two-state:0.5", "--from", "0", "--to", "1",
         "--function", "exp:0.1", *MC],
        ["moment", "--builtin", "petal:petal.json", "--from", "1", "--to", "1",
         "--function", "power:2", *MC],
        ["moment", "--kernel", "kernel5.json", "--from", "0", "--to", "1",
         "--function", "power:2", *MC],
        ["fpt", "--builtin", "petal:petal.json", "--from", "1", "--to", "1", "--horizon", "50"],
        ["fpt", "--builtin", "petal:petal.json", "--from", "1", "--to", "0", "--horizon", "50",
         "--mode", "return-crossing"],
        ["moment", "--builtin", "petal:petal.json", "--from", "1", "--to", "1",
         "--function", "power:1", "--horizon", "600"],
    ]
    for h in ("60", "600", "1024"):
        out.append(["moment", "--builtin", "two-state:0.1", "--from", "1", "--to", "1",
                    "--function", "power:6", "--horizon", h])
    out.append(["moment", "--builtin", "two-state:0.5", "--from", "1", "--to", "1",
                "--function", "exp:1.0", "--horizon", "200"])
    for f in ("power:2", "power:0.5", "logpow:3", "exp:0.5", "burst:default",
              *(f"burst:file={name}" for name in SCHEDULES)):
        out.append(["classify", "--function", f])
    for name in SCHEDULES:
        out.append(["moment", "--kernel", "kernel5.json", "--from", "0", "--to", "1",
                    "--function", f"burst:file={name}", "--horizon", "600"])
    law = ["--from", "0", "--to", "1", "--horizon", "50"]
    out += [
        ["fpt", *law],
        ["fpt", "--kernel", "kernel5.json", "--builtin", "two-state:0.5", *law],
        ["fpt", "--builtin", "three-state:0.5", *law],
        ["fpt", "--builtin", "two-state:x", *law],
        ["fpt", "--builtin", "two-state:1.5", *law],
        ["fpt", "--kernel", "not_json.json", *law],
        ["fpt", "--kernel", "missing.json", *law],
        ["fpt", "--kernel", "kernel5.json", "--from", "0", "--to", "9", "--horizon", "50"],
        ["fpt", "--kernel", "kernel5.json", "--from", "0", "--to", "1", "--horizon", "0"],
        ["fpt", "--kernel", "kernel5.json", *law, "--mode", "sideways"],
        ["moment", "--kernel", "kernel5.json", *law, "--function", "cube:3"],
        ["demo", "sharp", "--threshold-log", "-inf"],
        ["demo", "sharp", "--p", "1.5"],
        ["demo", "sharp", "--k-max", "2"],
    ]
    return out


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, first line of stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue().partition("\n")[0]


def digest(cmds: list[list[str]], directory: str) -> str:
    """The sha256 over the results of ``cmds``, run in ``directory`` (which
    holds the files of :func:`write_inputs`)."""
    h = hashlib.sha256()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in cmds:
            h.update(repr((argv, *run(argv))).encode())
    finally:
        os.chdir(cwd)
    return h.hexdigest()


def main() -> None:
    cmds = commands()
    with tempfile.TemporaryDirectory() as directory:
        write_inputs(directory)
        print(digest(cmds, directory))
    print(f"{len(cmds)} commands", file=sys.stderr)


if __name__ == "__main__":
    main()
