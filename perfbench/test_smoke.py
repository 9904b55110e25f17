"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric named in BENCHMARK.json is emitted, with and
without tracing, and that a corrupted result trips the correctness check.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run as bench

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

W = bench.WORKLOADS
TINY = {
    # seed 3 reaches 578 at generation 2572, so one seed hits the target
    "nug12-target": replace(W["nug12-target"], ga={"max_generations": 2600},
                            ga_seeds=(3,), min_units=1),
    "rand100-cx": replace(W["rand100-cx"], n=12, ga={"max_generations": 10}),
    "rand100-swap": replace(W["rand100-swap"], n=12, ga={
        "max_generations": 10, "crossover_rate": 0.0, "mutation_rate": 1.0}),
    "oracle-n9": replace(W["oracle-n9"], n=6),
}


@pytest.fixture(scope="module")
def q():
    return bench.load_program()


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(W)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted(q, tmp_path, name, trace):
    result, units, _ = bench.measure(q, TINY[name], seed=5, seconds=0.01,
                                     trace=trace, out_dir=tmp_path)
    assert result["correct"], [p for u in units for p in u.problems]
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and got["value"] == got["value"]
    json.dumps(result, allow_nan=False)


def corrupt_cost(q, monkeypatch):
    real_run = q.ga.run

    def run(inst, cfg):
        res = real_run(inst, cfg)
        return replace(res, best=q.Chromosome(res.best.perm.copy(), res.best.cost + 1))

    monkeypatch.setattr(q.ga, "run", run)


def test_corrupted_result_fails_the_run(q, tmp_path, monkeypatch, capsys):
    corrupt_cost(q, monkeypatch)
    monkeypatch.setitem(bench.WORKLOADS, "rand100-cx", TINY["rand100-cx"])
    monkeypatch.setattr(bench, "OUT_DIR", tmp_path)
    code = bench.main(["--workload", "rand100-cx", "--seed", "5",
                       "--seconds", "0.01", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert not result["correct"] and result["failed"] == result["attempted"] >= 1


def test_checks_catch_corruption(q):
    inst = q.oracle.random_instance(6, 50, rng=bench.np.random.default_rng(1))
    res = q.run(inst, q.GaConfig(max_generations=5, rng_seed=1))
    assert bench.check_ga_result(q, inst, res) == []
    perm = res.best.perm.copy()
    perm[0] = perm[1]
    bad = replace(res, best=q.Chromosome(perm, res.best.cost))
    assert "best.perm is not a bijection" in bench.check_ga_result(q, inst, bad)
    rising = replace(res, history=[res.history[0] - 1] + res.history[1:])
    assert "history increases" in bench.check_ga_result(q, inst, rising)
    assert bench.check_ga_result(q, inst, res, floor=res.best.cost + 1)

    opt = q.exhaustive_optimum(inst)
    assert bench.check_oracle(q, inst, opt) == []
    assert bench.check_oracle(q, inst, replace(opt, explored=opt.explored - 1))
    assert bench.check_oracle(q, inst, replace(opt, optimum=opt.optimum - 1))


def test_replay_mismatch_is_a_failure():
    units = [bench.Unit(1.0, [], [], {"evaluations": 10}),
             bench.Unit(1.0, [], [], {"evaluations": 11})]
    bench.check_replay(units)
    assert units[0].problems == [] and units[1].problems


def test_exits_nonzero_without_the_program(tmp_path):
    """With only the benchmark's own files there is nothing to measure."""
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rand100-cx",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
