import csv
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qapga
from qapga import (
    BaselineRecord,
    GaConfig,
    Instance,
    compute_gap,
    emit_report,
    load_baselines,
    run_suite,
)
from qapga.bench import REPORT_HEADER, BenchError, BenchRow
from qapga.instance import read_number
from qapga.oracle import exhaustive_optimum, random_instance

from conftest import BASELINES_CSV


class TestLoadBaselines:
    def test_single_record(self):
        records = load_baselines("name,best_known,source\nnug12,578,QAPLIB\n")
        assert len(records) == 1
        assert records[0].instance_name == "nug12"
        assert records[0].best_known == 578
        assert records[0].source == "QAPLIB"

    def test_empty_body(self):
        assert load_baselines("name,best_known,source\n") == []

    def test_duplicate_name_is_error(self):
        text = "name,best_known,source\nnug12,578,a\nNUG12,578,b\n"
        with pytest.raises(BenchError, match="duplicate instance name 'NUG12'"):
            load_baselines(text)

    def test_non_positive_value(self):
        with pytest.raises(BenchError, match="positive"):
            load_baselines("name,best_known,source\nx,0,src\n")

    def test_malformed_row(self):
        with pytest.raises(BenchError, match="line 2"):
            load_baselines("name,best_known,source\nonlyonefield\n")

    def test_non_integer_value(self):
        with pytest.raises(BenchError, match="not an integer"):
            load_baselines("name,best_known,source\nx,abc,src\n")

    def test_bad_header(self):
        with pytest.raises(BenchError, match="header"):
            load_baselines("a,b,c\nx,1,src\n")

    def test_field_past_the_csv_size_limit_names_its_line(self):
        big = "x" * (csv.field_size_limit() + 1)
        with pytest.raises(BenchError, match=r"^line 3: field larger than field limit"):
            load_baselines(f"name,best_known,source\nnug12,578,a\n{big},1,b\n")

    def test_line_after_a_field_that_spans_two_lines(self):
        with pytest.raises(BenchError, match="^line 4: expected 3 fields, got 1$"):
            load_baselines('name,best_known,source\nnug12,578,"QAPLIB\nsite"\nonlyonefield\n')

    def test_shipped_baselines_parse(self):
        from conftest import BASELINES_CSV
        records = load_baselines(BASELINES_CSV.read_text())
        names = {r.instance_name for r in records}
        assert {"nug12", "nug17", "nug20", "nug24", "nug28",
                "chr12a", "chr12b", "chr15a"} <= names


class TestBaselineRecord:
    @pytest.mark.parametrize("best_known", [0, -5, True, 2.5, "578", None])
    def test_refuses_a_best_known_that_is_not_a_positive_integer(self, best_known):
        with pytest.raises(ValueError, match=rf"^best_known must be an integer >= 1, "
                                             rf"got {re.escape(repr(best_known))}$"):
            BaselineRecord("nug12", best_known, "x")

    def test_a_numpy_best_known_is_stored_as_int(self):
        record = BaselineRecord("nug12", np.int64(578), "x")
        assert type(record.best_known) is int and record.best_known == 578

    @pytest.mark.parametrize("name", [12, None, b"nug12"], ids=["int", "None", "bytes"])
    def test_refuses_an_instance_name_that_is_not_a_str(self, name):
        with pytest.raises(ValueError, match=rf"^instance_name must be a str, "
                                             rf"got {re.escape(repr(name))}$"):
            BaselineRecord(name, 578, "x")

    def test_a_numpy_str_name_passes(self):
        assert BaselineRecord(np.str_("nug12"), 578, "x").instance_name == "nug12"


class TestComputeGap:
    def test_exact_match_is_zero(self):
        assert compute_gap(578, 578) == 0.0

    def test_worked_fraction(self):
        assert compute_gap(600, 578) == 0.038062

    def test_rejects_non_positive_best_known(self):
        with pytest.raises(BenchError):
            compute_gap(578, 0)

    @pytest.mark.parametrize("found, known, message", [
        (True, 1, "best_found must be an integer >= 0, got True"),
        (5, True, "best_known must be an integer, got True"),
        (5.5, 2, "best_found must be an integer >= 0, got 5.5"),
        (float("nan"), 3, "best_found must be an integer >= 0, got nan"),
        (-1, 3, "best_found must be an integer >= 0, got -1"),
        (600, "578", "best_known must be an integer, got '578'"),
    ], ids=["found-bool", "known-bool", "found-float", "found-nan", "found-negative",
            "known-str"])
    def test_rejects_a_value_that_is_not_an_integer(self, found, known, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            compute_gap(found, known)

    def test_accepts_numpy_integers(self):
        assert compute_gap(np.int64(600), np.int32(578)) == 0.038062

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            known = int(rng.integers(1, 10**6))
            found = known + int(rng.integers(0, 100))
            assert (compute_gap(found, known) == 0.0) == (found == known)


def _tiny_suite():
    inst = Instance("mini", 1, np.array([[3]], np.int64), np.array([[4]], np.int64))
    baselines = load_baselines("name,best_known,source\nmini,12,exact\n")
    return [inst], baselines


class TestRunSuite:
    def test_single_trivial_instance(self):
        instances, baselines = _tiny_suite()
        cfg = GaConfig(population_size=2, max_generations=3)
        rows = run_suite(instances, baselines, cfg, seeds=[1])
        (row,) = rows
        assert row.best_found == 12
        assert row.gap == 0.0
        assert row.seeds_run == 1
        assert row.total_time_s >= 0.0
        assert len(row.per_seed_time_s) == 1

    def test_best_of_seeds_is_min(self):
        rng = np.random.default_rng(55)
        inst = random_instance(6, 20, zero_diagonal=True, rng=rng, name="r6")
        opt = exhaustive_optimum(inst).optimum
        baselines = load_baselines(f"name,best_known,source\nr6,{opt},oracle\n")
        cfg = GaConfig(max_generations=200)
        seeds = list(range(1, 9))
        rows = run_suite([inst], baselines, cfg, seeds)
        from dataclasses import replace
        from qapga import run
        per_seed = [
            run(inst, replace(cfg, rng_seed=s, target_cost=opt)).best.cost
            for s in seeds
        ]
        assert rows[0].best_found == min(per_seed)

    def test_missing_baseline_is_named_error(self):
        instances, _ = _tiny_suite()
        with pytest.raises(BenchError, match="'mini'"):
            run_suite(instances, [], GaConfig(population_size=2, max_generations=2), [1])

    def test_empty_seeds_rejected(self):
        instances, baselines = _tiny_suite()
        with pytest.raises(BenchError, match="non-empty"):
            run_suite(instances, baselines, GaConfig(population_size=2, max_generations=2), [])

    @pytest.fixture
    def run_calls(self, monkeypatch):
        """qapga.bench.run replaced by a recorder of the seeds it is called with"""
        import qapga.bench
        from qapga import run
        calls = []

        def record(inst, cfg):
            calls.append(cfg.rng_seed)
            return run(inst, cfg)
        monkeypatch.setattr(qapga.bench, "run", record)
        return calls

    def test_every_seed_is_validated_before_the_first_run(self, run_calls):
        instances, baselines = _tiny_suite()
        cfg = GaConfig(population_size=2, max_generations=2)
        with pytest.raises(ValueError, match="rng_seed must be >= 0"):
            run_suite(instances, baselines, cfg, seeds=[1, -1])
        assert run_calls == []

    @pytest.mark.parametrize("jobs", [2.5, 0, -1, True, "2"])
    def test_jobs_is_checked_before_the_first_run(self, run_calls, jobs):
        instances, baselines = _tiny_suite()
        cfg = GaConfig(population_size=2, max_generations=2)
        with pytest.raises(ValueError, match=rf"^jobs must be an integer >= 1, "
                                             rf"got {re.escape(repr(jobs))}$"):
            run_suite(instances, baselines, cfg, seeds=[1, 2, 3], jobs=jobs)
        assert run_calls == []

    def test_run_is_called_once_per_seed(self, run_calls):
        instances, baselines = _tiny_suite()
        cfg = GaConfig(population_size=2, max_generations=2)
        (row,) = run_suite(instances, baselines, cfg, seeds=[3, 1, 2])
        assert run_calls == [3, 1, 2] and row.seeds_run == 3

    def test_two_jobs_give_the_rows_of_one(self, nug12):
        # the inputs and pins of the workflow's `bench --jobs 2` step; rows compared
        # whole but for their timings (per_seed_time_s does not take part in ==)
        baselines = load_baselines(BASELINES_CSV.read_text())
        cfg = GaConfig(max_generations=20)
        serial, pooled = (run_suite([nug12], baselines, cfg, [1, 2], jobs=jobs)
                          for jobs in (1, 2))
        assert [replace(r, total_time_s=0.0) for r in pooled] == \
            [replace(r, total_time_s=0.0) for r in serial]
        (row,) = pooled
        assert (row.best_found, row.gap, row.generations) == (628, 0.086505, 40)

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """ProcessPoolExecutor replaced by an in-process recorder of its max_workers"""
        import concurrent.futures
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        return sizes

    def test_no_more_workers_than_runs(self, pool_sizes):
        instances, baselines = _tiny_suite()
        cfg = GaConfig(population_size=2, max_generations=2)
        (row,) = run_suite(instances, baselines, cfg, seeds=[1, 2], jobs=1000)
        assert pool_sizes == [2] and row.seeds_run == 2

    def test_a_single_run_builds_no_pool(self, pool_sizes):
        instances, baselines = _tiny_suite()
        cfg = GaConfig(population_size=2, max_generations=2)
        (row,) = run_suite(instances, baselines, cfg, seeds=[1], jobs=1000)
        assert pool_sizes == [] and row.seeds_run == 1

    def test_importing_qapga_does_not_load_the_process_pool(self):
        # run_suite imports it only when jobs > 1: it adds about 0.8 MB of RSS
        src = os.path.dirname(os.path.dirname(qapga.__file__))
        code = ("import sys, qapga, qapga.bench, qapga.cli; "
                "print('concurrent.futures.process' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_rows_deterministic_except_timing(self):
        rng = np.random.default_rng(66)
        inst = random_instance(5, 15, rng=rng, name="r5")
        opt = exhaustive_optimum(inst).optimum
        baselines = load_baselines(f"name,best_known,source\nr5,{opt},oracle\n")
        cfg = GaConfig(max_generations=100)
        a = run_suite([inst], baselines, cfg, [1, 2, 3])
        b = run_suite([inst], baselines, cfg, [1, 2, 3])
        for ra, rb in zip(a, b):
            assert (ra.instance_name, ra.best_found, ra.gap, ra.generations) == \
                (rb.instance_name, rb.best_found, rb.gap, rb.generations)

    def test_parallel_jobs_match_serial(self):
        rng = np.random.default_rng(67)
        instances = [random_instance(4, 10, rng=rng, name=f"p{i}") for i in range(3)]
        lines = ["name,best_known,source"]
        for inst in instances:
            lines.append(f"{inst.name},{exhaustive_optimum(inst).optimum},oracle")
        baselines = load_baselines("\n".join(lines) + "\n")
        cfg = GaConfig(max_generations=50)
        serial = run_suite(instances, baselines, cfg, [1, 2])
        parallel = run_suite(instances, baselines, cfg, [1, 2], jobs=3)
        for rs, rp in zip(serial, parallel):
            assert (rs.instance_name, rs.best_found, rs.gap, rs.generations) == \
                (rp.instance_name, rp.best_found, rp.gap, rp.generations)


# a time as reports hold it, to 3 decimals
SECONDS = st.floats(0, 10**6).map(lambda t: round(t, 3))
# the value type of each report column, in REPORT_HEADER's order
KINDS = (str, int, int, int, float, int, float)
INT_COLUMNS = ("seeds", "best_found", "best_known", "generations")


def report_values(row: BenchRow) -> list:
    """The REPORT_HEADER columns of row, as a report should give them back."""
    return [row.instance_name, row.seeds_run, row.best_found, row.best_known, row.gap,
            row.generations, row.total_time_s]


def read_csv_report(text: str) -> list[list]:
    """The rows of a CSV report through csv.reader, each cell read by the number
    grammar as its column's type; the gap has 6 decimals and the time 3."""
    header, *cells = csv.reader(io.StringIO(text))
    assert header == REPORT_HEADER
    for row in cells:
        assert re.fullmatch(r"-?[0-9]+\.[0-9]{6}", row[4]) and re.fullmatch(r"[0-9]+\.[0-9]{3}", row[6])
    return [[read_number(kind, cell) for kind, cell in zip(KINDS, row)] for row in cells]


class TestReports:
    def rows(self):
        return [
            BenchRow("nug12", 10, 578, 578, 0.0, 1234, 5.5, [0.5, 5.0]),
            BenchRow("chr12a", 10, 9600, 9552, 0.005025, 2000, 12.125, [6.0, 6.125]),
        ]

    def test_csv_two_lines_for_one_row(self):
        text = emit_report(self.rows()[:1], "csv")
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[0] == "instance,seeds,best_found,best_known,gap,generations,total_time_s"
        assert lines[1] == "nug12,10,578,578,0.000000,1234,5.500"

    def test_csv_deterministic(self):
        assert emit_report(self.rows(), "csv") == emit_report(self.rows(), "csv")

    def test_csv_round_trip(self):
        # csv.reader gives back every column of every row
        text = emit_report(self.rows(), "csv")
        assert list(csv.reader(io.StringIO(text)))[1:] == [
            ["nug12", "10", "578", "578", "0.000000", "1234", "5.500"],
            ["chr12a", "10", "9600", "9552", "0.005025", "2000", "12.125"],
        ]

    def test_json_round_trip(self):
        # json.loads gives back every column, and the per-seed times CSV has no column for
        assert json.loads(emit_report(self.rows(), "json")) == [
            {"instance": "nug12", "seeds": 10, "best_found": 578, "best_known": 578, "gap": 0.0,
             "generations": 1234, "total_time_s": 5.5, "per_seed_time_s": [0.5, 5.0]},
            {"instance": "chr12a", "seeds": 10, "best_found": 9600, "best_known": 9552,
             "gap": 0.005025, "generations": 2000, "total_time_s": 12.125,
             "per_seed_time_s": [6.0, 6.125]},
        ]

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(self.rows(), "xml")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @given(rows=st.lists(st.builds(
        BenchRow,
        # commas and quotes among printable ASCII and non-ASCII text, no control characters
        st.text(st.sampled_from(",\"'") | st.characters(min_codepoint=0x20, max_codepoint=0x7E)
                | st.characters(min_codepoint=0xA0)),
        st.integers(0, 10**12), st.integers(0, 10**12), st.integers(0, 10**12),
        st.floats(-1, 1000).map(lambda gap: round(gap, 6)),
        st.integers(0, 10**12),
        SECONDS,
        st.lists(SECONDS, max_size=4),
    )))
    def test_round_trip(self, fmt, rows):
        text = emit_report(rows, fmt)
        if fmt == "csv":
            assert read_csv_report(text) == [report_values(r) for r in rows]
        else:
            assert json.loads(text) == [
                dict(zip(REPORT_HEADER, report_values(r)), per_seed_time_s=r.per_seed_time_s)
                for r in rows
            ]

    def test_json_numbers_keep_column_types(self):
        for record in json.loads(emit_report(self.rows(), "json")):
            assert [type(record[key]) for key in INT_COLUMNS] == [int] * len(INT_COLUMNS)
            assert type(record["gap"]) is float and type(record["total_time_s"]) is float


class TestNumberGrammar:
    @pytest.mark.parametrize("value", ["+5_78", "5_78", "٥٧٨", "578.0"])
    def test_baselines_reject_malformed_integers(self, value):
        with pytest.raises(BenchError, match=f"line 3: best_known {re.escape(repr(value))} is not an integer"):
            load_baselines(f"name,best_known,source\nnug12,578,a\nchr12a,{value},b\n")

    def test_baselines_fields_are_stripped_first(self):
        (record,) = load_baselines("name,best_known,source\n nug12 , 578 , QAPLIB\n")
        assert (record.instance_name, record.best_known, record.source) == ("nug12", 578, "QAPLIB")
