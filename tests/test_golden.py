"""Golden trajectories: seeded runs must replay to the pinned values.

Each case pins best cost, generations run, evaluations and a sha256 of the
best-cost history.  A change to any of them means a seeded trajectory moved;
re-pin only when that is intended and say so.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from qapga import GaConfig, Instance, parse_qaplib, run
from qapga.oracle import exhaustive_optimum, random_instance

NUG12 = Path(__file__).resolve().parent.parent / "data" / "qaplib" / "nug12.dat"


def _bigint_instance():
    # the worst case n^2 * max(flow) * max(dist) exceeds int64, yet every
    # reachable cost stays below 2^46
    rng = np.random.default_rng(6)
    flow = rng.integers(0, 101, (6, 6), dtype=np.int64)
    dist = rng.integers(0, 101, (6, 6), dtype=np.int64)
    flow[0, 0] = 2**38
    dist[0, 1] = 2**20
    return Instance("bigint6", 6, flow, dist)


def _nug12():
    return parse_qaplib(NUG12.read_text(), name="nug12")


CASES = {
    "nug12-seed1": (_nug12, GaConfig(max_generations=600, rng_seed=1)),
    "nug12-seed2": (_nug12, GaConfig(max_generations=600, rng_seed=2)),
    "nug12-seed3": (_nug12, GaConfig(max_generations=600, rng_seed=3)),
    "odd-offspring": (
        lambda: random_instance(7, 20, rng=np.random.default_rng(7)),
        GaConfig(population_size=51, elitism_count=2, max_generations=200, rng_seed=5),
    ),
    "pop2-no-elite": (
        lambda: random_instance(6, 20, rng=np.random.default_rng(8)),
        GaConfig(population_size=2, elitism_count=0, max_generations=200, rng_seed=6),
    ),
    "n1": (
        lambda: random_instance(1, 20, rng=np.random.default_rng(9)),
        GaConfig(population_size=4, max_generations=20, rng_seed=7),
    ),
    "n2": (
        lambda: random_instance(2, 20, rng=np.random.default_rng(10)),
        GaConfig(population_size=6, max_generations=30, rng_seed=8),
    ),
    "delta-n100": (
        lambda: random_instance(100, 100, rng=np.random.default_rng(11)),
        GaConfig(max_generations=40, crossover_rate=0.0, mutation_rate=1.0, rng_seed=9),
    ),
    "bigint": (
        _bigint_instance,
        GaConfig(population_size=20, max_generations=100, rng_seed=10),
    ),
}

# name -> (best_cost, generations_run, evaluations, sha256 of the history)
GOLDEN = {
    "nug12-seed1": (608, 600, 50611, "72f1ddc80fcae8dcba789c2f095c5a22a9615bd3dec05a25e371e5ac653a1245"),
    "nug12-seed2": (602, 600, 50395, "e3cb96fbd219092c9c7ed8dbc43b3baf0277f9994572c17381434d6221b7546b"),
    "nug12-seed3": (618, 600, 50521, "d863fc8e6adab1e60815be265e735ade86d8c416526dc6e71048d95df0d5e4f0"),
    "odd-offspring": (4669, 200, 8410, "220ac2fca82d05f7eaf66275e3f62c38d2f684b07983fb03dc5bd127f8d08075"),
    "pop2-no-elite": (2456, 200, 360, "c78ec79130453af3dc3cdb311d0a0fd492a2eafe38ffa08cee906b6c50a46c16"),
    "n1": (144, 20, 68, "790b7bb82cb6505cf789b897207ab4068cf5d8cf2360b2cbb0112506901d71d5"),
    "n2": (397, 30, 175, "f4de5b822fe9739b0c2497afafc9948df1a85b7a798f994f683d045ffdcd5430"),
    "delta-n100": (24712081, 40, 4100, "4bace891c9906e06b6d48848f895ca83200e0fbbde3489d5bba2b09d011e38fd"),
    "bigint": (3298580060106, 100, 1697, "9870f4cd236eccc481956e53158956879474e92ce77c31db505c0cae47ffdd06"),
}


def _digest(history):
    return hashlib.sha256(",".join(map(str, history)).encode()).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_golden_trajectory(name):
    make_instance, cfg = CASES[name]
    res = run(make_instance(), cfg)
    got = (res.best.cost, res.generations_run, res.evaluations, _digest(res.history))
    assert got == GOLDEN[name]


def test_bigint_instance_exceeds_the_int64_budget():
    inst = _bigint_instance()
    worst = inst.n * inst.n * int(inst.flow.max()) * int(inst.dist.max())
    assert worst > 2**63 - 1
    assert GOLDEN["bigint"][0] < 2**46


def test_golden_oracle_n7():
    res = exhaustive_optimum(random_instance(7, 50, rng=np.random.default_rng(12)))
    assert res.optimum == 29311
    assert res.argmin.tolist() == [1, 0, 2, 6, 3, 5, 4]


def test_golden_oracle_n9():
    res = exhaustive_optimum(random_instance(9, 100, rng=np.random.default_rng(1)))
    assert res.optimum == 202665
    assert res.argmin.tolist() == [7, 4, 6, 8, 1, 5, 0, 3, 2]
    assert res.explored == 362880
