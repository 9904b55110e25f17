"""The CLI cases: every `solve` and `oracle` case that tier-1 or CI runs, with its
instance recipe, its arguments and its pinned output lines, in one table.

Tier-1 runs each case in-process through cli.main: exit 0, each pinned line printed,
and the printed cost equal to the cost of the printed permutation.  The CI workflow
runs only what tier-1 cannot, the installed console script, on a case of the table.
"""

import io
import os
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

import qapga
from qapga import Instance, evaluate_cost, parse_qaplib, random_instance, render_qaplib
from qapga.cli import main

from conftest import REPO_ROOT

WORKFLOW = REPO_ROOT / ".github" / "workflows" / "tests.yml"
# flow[0, 0] = 2**50 puts the worst-case cost past int64, so the costs and the swap
# deltas run on the instance's Python-integer copies
OVER30 = dict(n=30, top=2**50, tier=object)
# flow[0, 0] = 2**24 puts the worst-case cost past int32 but not past int64, so the
# costs and the swap deltas run on int64 operands
WIDE30 = dict(n=30, top=2**24, tier=np.int64)

# id: (recipe, argv, pinned lines).  A recipe holds the keyword arguments of
# write_random, which writes the file that argv names; None means argv names a
# file shipped in the repo, relative to its root.
CASES = {
    # the workflow's console-script step runs this case
    "nug12": (None, "solve data/qaplib/nug12.dat --generations 20 --seed 1",
              ["cost: 636", "evaluations: 1752"]),
    # no crossover and every child mutated: each child is priced by a swap delta
    "nug12-swap-only": (None, "solve data/qaplib/nug12.dat --generations 50 --cx-rate 0 "
                        "--mut-rate 1 --seed 1", ["cost: 600", "evaluations: 5100"]),
    # the parser's bulk read (one np.fromstring) on CRLF line ends and tabs
    "rand100-crlf-tabs": (dict(n=100, tier=np.int32, crlf_tabs=True),
                          "solve rand100.dat --generations 5 --seed 1",
                          ["cost: 24771956", "evaluations: 525"]),
    # n=256: the largest n whose cost kernel runs in one facility block
    # (n * n = _CHUNK_CELLS), and the largest QAPLIB size (tai256c)
    "rand256": (dict(n=256, tier=np.int32), "solve rand256.dat --generations 3 --seed 1",
                ["cost: 163122675", "evaluations: 346"]),
    # n=10 is the oracle's default limit, where each block has its deepest prefix
    "rand10": (dict(n=10, tier=np.int32), "oracle rand10.dat",
               ["optimum: 233737", "argmin: 5 4 2 3 1 7 9 10 6 8", "explored: 3628800"]),
    "over30": (OVER30, "solve over30.dat --generations 20 --seed 1",
               ["cost: 3377699722773340", "evaluations: 1763"]),
    "over30-swap-only": (OVER30, "solve over30.dat --generations 20 --seed 1 --cx-rate 0 "
                         "--mut-rate 1", ["cost: 3377699722767826", "evaluations: 2100"]),
    "wide30": (WIDE30, "solve wide30.dat --generations 20 --seed 1",
               ["cost: 52569015", "evaluations: 1763"]),
    "wide30-swap-only": (WIDE30, "solve wide30.dat --generations 20 --seed 1 --cx-rate 0 "
                         "--mut-rate 1", ["cost: 52558566", "evaluations: 2100"]),
}


def write_random(path, n, tier, top=None, crlf_tabs=False):
    """random_instance(n, 100, rng=default_rng(1)) with flow[0, 0] = top if given, its
    exact operands asserted to be in tier, written with CRLF line ends and tabs if asked"""
    inst = random_instance(n, 100, rng=np.random.default_rng(1))
    if top is not None:
        flow = inst.flow.copy()
        flow[0, 0] = top
        inst = Instance(inst.name, n, flow, inst.dist)
    assert inst._exact[0].dtype == tier
    text = render_qaplib(inst)
    if crlf_tabs:
        text = text.replace(" ", "\t").replace("\n", "\r\n")
    path.write_bytes(text.encode())


def check_printed(text, command, pins, path):
    """Each pinned line printed, and the printed cost the cost of the printed permutation"""
    lines = text.splitlines()
    assert [pin for pin in pins if pin not in lines] == []
    printed = dict(line.split(": ", 1) for line in lines)
    keys = ("best permutation", "cost") if command == "solve" else ("argmin", "optimum")
    perm = np.array([int(v) - 1 for v in printed[keys[0]].split()])
    assert evaluate_cost(parse_qaplib(path.read_bytes()), perm) == int(printed[keys[1]])


def run_case(tmp_path, name):
    recipe, argv, pins = CASES[name]
    command, file, *options = argv.split()
    path = REPO_ROOT / file if recipe is None else tmp_path / file
    if recipe is not None:
        write_random(path, **recipe)
    out, err = io.StringIO(), io.StringIO()
    assert main([command, str(path), *options], out=out, err=err) == 0, err.getvalue()
    check_printed(out.getvalue(), command, pins, path)


@pytest.mark.parametrize("name", [name for name, case in CASES.items()
                                  if case[1].startswith("solve ")])
def test_solve_step(tmp_path, name):
    run_case(tmp_path, name)


def test_oracle_step_on_random_n10(tmp_path):
    run_case(tmp_path, "rand10")


def test_module_entry_point_solves_nug12():
    # the one thing the in-process tests skip: `if __name__ == "__main__"` in cli.py
    _, argv, pins = CASES["nug12"]
    src = os.path.dirname(os.path.dirname(qapga.__file__))
    done = subprocess.run([sys.executable, "-m", "qapga.cli", *argv.split()], capture_output=True,
                          text=True, cwd=REPO_ROOT, env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    check_printed(done.stdout, "solve", pins, REPO_ROOT / argv.split()[1])


def workflow_calls(text):
    """Each `qapga solve` or `qapga oracle` line of the workflow text, read without a
    YAML parser, as its argv and the `grep -x` pins that follow it in its step"""
    calls, pins = [], None
    for line in text.splitlines():
        code = line.strip()
        if code.startswith("- "):  # a new step
            code, pins = code[2:], None
        if code.startswith(("#", "name:")):
            continue
        call = re.search(r"\bqapga (?:solve|oracle)\b.*", code)
        grep = re.fullmatch(r'grep -x "(.*)" .*', code)
        if call:
            pins = []
            calls.append((shlex.split(call.group().split("|")[0])[1:], pins))
        elif grep and pins is not None:
            pins.append(grep.group(1))
    return calls


def untabled(text):
    """The workflow's calls that are not a case of the table on a shipped file, with
    the same argv and pins: a case on a built file would need a copy of its recipe"""
    shipped = [(argv.split(), pins) for recipe, argv, pins in CASES.values() if recipe is None]
    return [call for call in workflow_calls(text) if call not in shipped]


def test_workflow_runs_only_table_cases():
    text = WORKFLOW.read_text()
    assert workflow_calls(text), "the console-script solve is gone from the workflow"
    assert untabled(text) == []


@pytest.mark.parametrize("edit", [
    lambda text: text + '      - run: qapga solve "$RUNNER_TEMP/rand256.dat" --generations 3\n',
    lambda text: text.replace('grep -x "cost: 636"', 'grep -x "cost: 637"'),
], ids=["untabled-solve", "changed-pin"])
def test_edited_workflow_fails_the_check(edit):
    text = WORKFLOW.read_text()
    assert edit(text) != text and untabled(edit(text))
