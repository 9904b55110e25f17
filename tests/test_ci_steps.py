"""The workflow's solve and oracle steps, run in-process through cli.main, and
one run of the module entry point, `python -m qapga.cli`.

Each test builds the same input file as its step in .github/workflows/tests.yml
and passes the same arguments.  It checks exit 0 and that the printed cost is
the cost of the printed permutation.
"""

import io
import os
import subprocess
import sys

import numpy as np
import pytest

import qapga
from qapga import evaluate_cost, parse_qaplib, random_instance, render_qaplib
from qapga.cli import main

from conftest import QAPLIB_DIR


def printed_lines(text: str) -> dict:
    """The printed `key: value` lines as a dict."""
    return dict(line.split(": ", 1) for line in text.splitlines())


def invoke(argv) -> dict:
    """Exit 0 asserted; the printed lines as a dict."""
    out, err = io.StringIO(), io.StringIO()
    assert main(argv, out=out, err=err) == 0, err.getvalue()
    return printed_lines(out.getvalue())


def assert_cost_is_evaluated(path, perm_1based: str, cost: str):
    inst = parse_qaplib(path.read_bytes())
    perm = np.array([int(v) - 1 for v in perm_1based.split()])
    assert evaluate_cost(inst, perm) == int(cost)


def instance_file(tmp_path, source):
    """The shipped nug12, or the step's random_instance(n, 100, rng=default_rng(1)) file,
    with CRLF line ends and tabs if asked."""
    if source == "nug12":
        return QAPLIB_DIR / "nug12.dat"
    n, crlf_tabs = source
    text = render_qaplib(random_instance(n, 100, rng=np.random.default_rng(1)))
    if crlf_tabs:
        text = text.replace(" ", "\t").replace("\n", "\r\n")
    path = tmp_path / f"rand{n}.dat"
    path.write_bytes(text.encode())
    return path


@pytest.mark.parametrize("source, argv", [
    # no crossover and every child mutated: each child is priced by a swap delta
    ("nug12", ["--generations", "50", "--cx-rate", "0", "--mut-rate", "1", "--seed", "1"]),
    # the parser's token bounds and np.fromstring on CRLF line ends and tabs
    ((100, True), ["--generations", "5", "--seed", "1"]),
    # n=256: the largest n whose cost kernel runs in one facility block
    # (n * n = _CHUNK_CELLS), and the largest QAPLIB size (tai256c)
    ((256, False), ["--generations", "3", "--seed", "1"]),
], ids=["nug12-swap-only", "rand100-crlf-tabs", "rand256"])
def test_solve_step(tmp_path, source, argv):
    path = instance_file(tmp_path, source)
    printed = invoke(["solve", str(path), *argv])
    assert_cost_is_evaluated(path, printed["best permutation"], printed["cost"])


def test_oracle_step_on_random_n10(tmp_path):
    path = instance_file(tmp_path, (10, False))
    printed = invoke(["oracle", str(path)])
    assert_cost_is_evaluated(path, printed["argmin"], printed["optimum"])


def test_module_entry_point_solves_nug12():
    # the one thing the in-process tests skip: `if __name__ == "__main__"` in cli.py
    src = os.path.dirname(os.path.dirname(qapga.__file__))
    path = QAPLIB_DIR / "nug12.dat"
    argv = ["solve", str(path), "--generations", "20", "--seed", "1"]
    done = subprocess.run([sys.executable, "-m", "qapga.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    printed = printed_lines(done.stdout)
    assert_cost_is_evaluated(path, printed["best permutation"], printed["cost"])
