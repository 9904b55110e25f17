"""Value semantics of the records that hold arrays: Instance, OracleResult and
Chromosome, and GaResult, which holds its best Chromosome.  Each compares by
value, is unhashable, owns read-only copies of its arrays, and copies and
pickles to an equal record whose arrays are read-only again."""

import copy
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

from qapga import (
    Chromosome,
    GaConfig,
    GaResult,
    Instance,
    OracleResult,
    exhaustive_optimum,
    parse_qaplib,
    random_instance,
    render_qaplib,
    run,
)
from qapga.ga import _pick


def _inst():
    return random_instance(5, 20, rng=np.random.default_rng(3), name="r5")


def _instances():
    inst = _inst()
    return inst, Instance("r5", 5, inst.flow.copy(), inst.dist.copy()), \
        Instance("r5", 5, inst.dist, inst.flow)


def _oracle_results():
    res = exhaustive_optimum(_inst())
    return res, OracleResult(res.optimum, res.argmin.copy(), res.explored), \
        OracleResult(res.optimum, res.argmin[::-1], res.explored)


def _chromosomes():
    c = Chromosome(np.array([2, 0, 1]), 7)
    return c, Chromosome(np.array([2, 0, 1]), 7), Chromosome(np.array([2, 1, 0]), 7)


def _ga_results():
    res = run(_inst(), GaConfig(population_size=4, max_generations=3, rng_seed=1))
    twin = replace(res, best=Chromosome(res.best.perm.copy(), res.best.cost),
                   history=list(res.history), wall_time_s=res.wall_time_s + 1.0)
    return res, twin, replace(res, best=Chromosome(res.best.perm[::-1], res.best.cost))


RECORDS = pytest.mark.parametrize(
    "make", [_instances, _oracle_results, _chromosomes, _ga_results],
    ids=["Instance", "OracleResult", "Chromosome", "GaResult"])


def _arrays(record):
    """Every array a record holds; a GaResult's are its best chromosome's."""
    if isinstance(record, GaResult):
        return _arrays(record.best)
    return [v for v in vars(record).values() if isinstance(v, np.ndarray)]


@RECORDS
def test_equal_by_value(make):
    record, twin, other = make()
    assert (record == twin) is True and (record != twin) is False
    assert (record == other) is False and (record != other) is True
    assert record != tuple(vars(record).values())


@RECORDS
def test_unhashable_by_name(make):
    record = make()[0]
    with pytest.raises(TypeError, match=f"unhashable type: '{type(record).__name__}'"):
        hash(record)


@RECORDS
@pytest.mark.parametrize("round_trip", [
    lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"])
def test_copies_are_equal_and_read_only(make, round_trip):
    record = make()[0]
    twin = round_trip(record)
    assert twin == record
    arrays = _arrays(twin)
    assert arrays and not any(a.flags.writeable for a in arrays)


class TestChromosomeValue:
    def test_equal_and_unequal(self):
        c = Chromosome(np.array([0, 1, 2]), 3)
        assert c == Chromosome(np.array([0, 1, 2], np.int32), 3)
        assert c != Chromosome(np.array([0, 2, 1]), 3)
        assert c != Chromosome(np.array([0, 1, 2]), 4)
        assert c != Chromosome(np.array([0, 1]), 3)

    def test_owns_a_copy_of_perm(self):
        p = np.array([1, 0, 2])
        c = Chromosome(p, 5)
        assert p.flags.writeable and not c.perm.flags.writeable
        p[0] = 2
        assert c.perm.tolist() == [1, 0, 2]

    def test_ga_results_differ_by_best_cost(self):
        res = _ga_results()[0]
        assert res != replace(res, best=Chromosome(res.best.perm, res.best.cost + 1))


class TestRecordsOwnTheirArrays:
    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_instance_leaves_caller_matrices_writeable(self, dtype):
        flow = np.array([[0, 2], [3, 0]], dtype)
        dist = np.array([[0, 5], [7, 0]], dtype)
        inst = Instance("own", 2, flow, dist)
        assert flow.flags.writeable and dist.flags.writeable
        flow[0, 1] = dist[1, 0] = 9
        assert inst.flow.tolist() == [[0, 2], [3, 0]] and inst._exact[2][1, 0] == 2
        assert inst.dist.tolist() == [[0, 5], [7, 0]] and inst._exact[3][0, 1] == 7

    def test_oracle_result_owns_argmin(self):
        argmin = np.array([1, 0])
        res = OracleResult(3, argmin, 2)
        argmin[0] = 0
        assert argmin.flags.writeable and not res.argmin.flags.writeable
        assert res.argmin.tolist() == [1, 0]


class TestInstanceSize:
    @pytest.mark.parametrize("n", [2.0, np.float64(2.0), "2", True, None, 0, -1, 2.5, "3"],
                             ids=["float", "float64", "str", "bool", "None", "0", "-1",
                                  "2.5", "str-3"])
    def test_rejects_a_size_that_is_not_a_positive_integer(self, n):
        m = np.zeros((2, 2), np.int64)
        with pytest.raises(ValueError, match=r"n must be an integer >= 1"):
            Instance("bad", n, m, m)

    def test_numpy_integer_size_is_stored_as_int(self):
        m = np.array([[0, 2], [3, 0]])
        inst = Instance("np", np.int64(2), m, m)
        assert type(inst.n) is int
        assert parse_qaplib(render_qaplib(inst), "np") == inst


class TestInstanceName:
    @pytest.mark.parametrize("name", [5, None, b"nug12"], ids=["int", "None", "bytes"])
    def test_rejects_a_name_that_is_not_a_str(self, name):
        m = np.zeros((2, 2), np.int64)
        with pytest.raises(ValueError, match=rf"^name must be a str, got {re.escape(repr(name))}$"):
            Instance(name, 2, m, m)
        with pytest.raises(ValueError, match="^name must be a str"):
            parse_qaplib("2\n0 1\n1 0\n0 2\n2 0\n", name=name)

    def test_a_numpy_str_name_passes(self):
        m = np.zeros((2, 2), np.int64)
        assert Instance(np.str_("np"), 2, m, m).name == "np"


def test_pick_spins_over_the_wheel_total():
    # a wheel of total 4: u scales to 4u, so 0.2 lands in [0, 1) and 0.3 in [1, 4)
    wheel = np.array([1.0, 4.0])
    assert _pick(wheel, np.array([0.0, 0.2, 0.3, 0.999])).tolist() == [0, 0, 1, 1]
