import io
import os
import re

import pytest

from qapga.cli import main

TINY1 = "1\n3\n7\n"
TINY2 = "2\n0 1\n1 0\n0 3\n3 0\n"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    status = main(argv, out=out, err=err)
    return status, out.getvalue(), err.getvalue()


@pytest.fixture
def tiny1_path(tmp_path):
    p = tmp_path / "tiny1.dat"
    p.write_text(TINY1)
    return p


class TestSolve:
    def test_n1_instance(self, tiny1_path):
        status, out, err = invoke(["solve", str(tiny1_path), "--seed", "7",
                                   "--generations", "3", "--pop", "2"])
        assert status == 0
        assert "cost: 21" in out
        assert "best permutation: 1" in out

    def test_permutation_printed_one_based(self, tmp_path):
        p = tmp_path / "tiny2.dat"
        p.write_text(TINY2)
        status, out, _ = invoke(["solve", str(p), "--generations", "2", "--pop", "4"])
        assert status == 0
        perm = re.search(r"best permutation: (.+)", out).group(1)
        assert sorted(perm.split()) == ["1", "2"]

    def test_unreadable_file_exits_2(self):
        status, out, err = invoke(["solve", "/nonexistent/foo.dat"])
        assert status == 2
        assert "cannot read" in err

    def test_malformed_file_exits_2(self, tmp_path):
        p = tmp_path / "bad.dat"
        p.write_text("2\n0 1\n1 0\n0 3\n")
        status, _, err = invoke(["solve", str(p)])
        assert status == 2
        assert "matrix entries" in err

    def test_entry_beyond_int64_exits_2(self, tmp_path):
        p = tmp_path / "huge.dat"
        p.write_text(f"1\n{2**63}\n0\n")
        status, _, err = invoke(["solve", str(p)])
        assert status == 2
        assert "2:1" in err and "Traceback" not in err

    def test_huge_header_exits_2(self, tmp_path):
        p = tmp_path / "short.dat"
        p.write_text("100000\n1 2\n")
        status, _, err = invoke(["solve", str(p)])
        assert status == 2
        assert "expected 20000000000 matrix entries, found 2" in err
        assert "Traceback" not in err

    def test_nan_time_limit_exits_2(self, tiny1_path):
        status, _, err = invoke(["solve", str(tiny1_path), "--time-limit-s", "nan"])
        assert status == 2
        assert "time_limit_s" in err

    def test_negative_seed_exits_2(self, tiny1_path):
        status, _, err = invoke(["solve", str(tiny1_path), "--seed", "-1"])
        assert status == 2
        assert "rng_seed" in err and "Traceback" not in err

    def test_unknown_flag_exits_1(self, tiny1_path):
        status, _, err = invoke(["solve", str(tiny1_path), "--frobnicate"])
        assert status == 1
        assert "usage" in err

    def test_missing_subcommand_exits_1(self):
        status, _, err = invoke([])
        assert status == 1


class TestOracle:
    def test_small_instance(self, tmp_path):
        p = tmp_path / "tiny2.dat"
        p.write_text(TINY2)
        status, out, _ = invoke(["oracle", str(p)])
        assert status == 0
        assert "optimum: 6" in out
        assert "argmin: 1 2" in out
        assert "explored: 2" in out

    def test_refuses_large_instance(self, tmp_path):
        n = 20
        rows = "\n".join(" ".join("1" for _ in range(n)) for _ in range(n))
        p = tmp_path / "big.dat"
        p.write_text(f"{n}\n{rows}\n{rows}\n")
        status, _, err = invoke(["oracle", str(p)])
        assert status == 2
        assert "refusing" in err

    @pytest.mark.parametrize("limit", ["0", "-1"])
    def test_limit_below_one_is_a_usage_error(self, tmp_path, limit):
        # checked before the instance is read, so a missing file does not matter
        status, out, err = invoke(["oracle", str(tmp_path / "missing.dat"), "--limit", limit])
        assert status == 1
        assert f"bad --limit value {limit}" in err
        assert out == ""

    def test_limit_one_refuses_n2(self, tmp_path):
        p = tmp_path / "tiny2.dat"
        p.write_text(TINY2)
        status, _, err = invoke(["oracle", str(p), "--limit", "1"])
        assert status == 2
        assert "n=2 exceeds the enumeration limit 1" in err


class TestBench:
    def test_report_matches_run_suite(self, tmp_path):
        inst_dir = tmp_path / "qaplib"
        inst_dir.mkdir()
        (inst_dir / "mini.dat").write_text(TINY1)
        baselines = tmp_path / "baselines.csv"
        baselines.write_text("name,best_known,source\nmini,21,exact\n")
        status, out, _ = invoke([
            "bench", "--dir", str(inst_dir), "--baselines", str(baselines),
            "--seeds", "1..3", "--pop", "2", "--generations", "2",
        ])
        assert status == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("instance,seeds,best_found")
        assert lines[1].startswith("mini,3,21,21,0.000000,")

    def test_out_file_and_json(self, tmp_path):
        inst_dir = tmp_path / "qaplib"
        inst_dir.mkdir()
        (inst_dir / "mini.dat").write_text(TINY1)
        baselines = tmp_path / "baselines.csv"
        baselines.write_text("name,best_known,source\nmini,21,exact\n")
        report = tmp_path / "report.json"
        status, out, _ = invoke([
            "bench", "--dir", str(inst_dir), "--baselines", str(baselines),
            "--seeds", "1,2", "--pop", "2", "--generations", "2",
            "--format", "json", "--out", str(report),
        ])
        assert status == 0
        assert out == ""
        import json
        payload = json.loads(report.read_text())
        assert payload[0]["instance"] == "mini"
        assert payload[0]["best_found"] == 21

    def test_stdout_deterministic_across_runs(self, tmp_path):
        inst_dir = tmp_path / "qaplib"
        inst_dir.mkdir()
        (inst_dir / "mini.dat").write_text(TINY1)
        baselines = tmp_path / "baselines.csv"
        baselines.write_text("name,best_known,source\nmini,21,exact\n")
        argv = ["bench", "--dir", str(inst_dir), "--baselines", str(baselines),
                "--seeds", "1..2", "--pop", "2", "--generations", "2"]
        _, out_a, _ = invoke(argv)
        _, out_b, _ = invoke(argv)
        strip_time = lambda text: [line.rsplit(",", 1)[0] for line in text.splitlines()]
        assert strip_time(out_a) == strip_time(out_b)

    def test_empty_dir_exits_2(self, tmp_path):
        inst_dir = tmp_path / "empty"
        inst_dir.mkdir()
        baselines = tmp_path / "baselines.csv"
        baselines.write_text("name,best_known,source\nmini,21,exact\n")
        status, _, err = invoke(["bench", "--dir", str(inst_dir),
                                 "--baselines", str(baselines)])
        assert status == 2
        assert "no .dat files" in err

    def test_bad_seeds_exits_1(self, tmp_path):
        status, _, err = invoke(["bench", "--dir", str(tmp_path),
                                 "--baselines", str(tmp_path / "x.csv"),
                                 "--seeds", ""])
        assert status == 1


def test_cli_defaults_mirror_config_defaults():
    from qapga import GaConfig
    from qapga.cli import _build_parser, _config_from
    args = _build_parser().parse_args(["solve", "dummy.dat"])
    assert _config_from(args) == GaConfig()


class TestConfigFlag:
    def test_config_file_sets_defaults(self, tmp_path, tiny1_path):
        cfg = tmp_path / "ga.conf"
        cfg.write_text("max_generations = 4\npopulation_size = 2\nrng_seed = 11\n")
        status, out, _ = invoke(["solve", str(tiny1_path), "--config", str(cfg)])
        assert status == 0
        assert "cost: 21" in out

    def test_explicit_flag_overrides_config(self, tmp_path, tiny1_path):
        cfg = tmp_path / "ga.conf"
        cfg.write_text("max_generations = 4\npopulation_size = 2\ntarget_cost = 21\n")
        status, out, _ = invoke(["solve", str(tiny1_path), "--config", str(cfg),
                                 "--generations", "1"])
        assert status == 0
        assert "generations: 0" in out  # target met in the initial population

    def test_bad_config_exits_2(self, tmp_path, tiny1_path):
        cfg = tmp_path / "ga.conf"
        cfg.write_text("nonsense = 1\n")
        status, _, err = invoke(["solve", str(tiny1_path), "--config", str(cfg)])
        assert status == 2
        assert "unknown config key" in err

    def test_repeated_key_exits_2(self, tmp_path, tiny1_path):
        cfg = tmp_path / "ga.conf"
        cfg.write_text("population_size = 10\n# again\npopulation_size = 20\n")
        status, _, err = invoke(["solve", str(tiny1_path), "--config", str(cfg)])
        assert status == 2
        assert "line 3: population_size is already set on line 1" in err

    def test_none_for_a_required_field_exits_2(self, tmp_path, tiny1_path):
        cfg = tmp_path / "ga.conf"
        cfg.write_text("population_size = none\n")
        status, _, err = invoke(["solve", str(tiny1_path), "--config", str(cfg)])
        assert status == 2
        assert "population_size must be an integer" in err and "Traceback" not in err

    def test_oracle_has_no_config_flag(self, tmp_path, tiny1_path):
        cfg = tmp_path / "bad.conf"
        cfg.write_text("nonsense = 1\n")
        status, _, err = invoke(["oracle", str(tiny1_path), "--config", str(cfg)])
        assert status == 1
        assert "usage" in err


@pytest.fixture
def mini_suite(tmp_path):
    """bench arguments for a one-instance suite that runs in milliseconds"""
    inst_dir = tmp_path / "qaplib"
    inst_dir.mkdir()
    (inst_dir / "mini.dat").write_text(TINY1)
    baselines = tmp_path / "baselines.csv"
    baselines.write_text("name,best_known,source\nmini,21,exact\n")
    return ["bench", "--dir", str(inst_dir), "--baselines", str(baselines),
            "--pop", "2", "--generations", "2"]


class TestNumberGrammar:
    def test_ga_flag_rejects_underscores(self, tiny1_path):
        status, _, err = invoke(["solve", str(tiny1_path), "--pop", "1_0"])
        assert status == 1
        assert "argument --pop: invalid int value: '1_0'" in err

    @pytest.mark.parametrize("flag, value, kind", [
        ("--seed", "٣", "int"), ("--generations", "+5", "int"), ("--target", " 21", "int"),
        ("--cx-rate", "0_0.5", "float"), ("--time-limit-s", "1_0.5", "float"),
    ])
    def test_ga_flags_keep_the_type_in_the_message(self, tiny1_path, flag, value, kind):
        status, _, err = invoke(["solve", str(tiny1_path), flag, value])
        assert status == 1
        assert f"argument {flag}: invalid {kind} value: {value!r}" in err

    def test_bench_seeds_reject_underscores(self, mini_suite):
        status, _, err = invoke(mini_suite + ["--seeds", "1_0..1_2"])
        assert status == 1
        assert "bad --seeds value '1_0..1_2'" in err
        status, _, err = invoke(mini_suite + ["--seeds", "1,+2"])
        assert status == 1

    def test_bench_seeds_allow_spaces_around_items(self, mini_suite):
        status, out, _ = invoke(mini_suite + ["--seeds", " 1 , 2 "])
        assert status == 0
        assert out.splitlines()[1].startswith("mini,2,21,21,")

    def test_jobs_and_limit_reject_underscores(self, tmp_path, tiny1_path):
        status, _, err = invoke(["bench", "--dir", str(tmp_path), "--baselines",
                                 str(tmp_path / "missing.csv"), "--jobs", "1_0"])
        assert status == 1
        assert "argument --jobs: invalid int value: '1_0'" in err
        status, _, err = invoke(["oracle", str(tiny1_path), "--limit", "1_0"])
        assert status == 1
        assert "argument --limit: invalid int value: '1_0'" in err


class TestBenchOutcomes:
    def test_out_into_missing_directory_exits_2(self, tmp_path, mini_suite):
        target = tmp_path / "missing" / "x.csv"
        status, out, err = invoke(mini_suite + ["--seeds", "1", "--out", str(target)])
        assert status == 2
        assert f"cannot write {target}" in err and "Traceback" not in err
        assert out == ""

    @pytest.fixture
    def no_suite(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("run_suite was called")
        monkeypatch.setattr("qapga.bench.run_suite", fail)

    @pytest.mark.parametrize("where", ["missing/x.csv", "file/x.csv", "."])
    def test_out_is_checked_before_the_suite_runs(self, tmp_path, mini_suite, no_suite, where):
        (tmp_path / "file").write_text("")
        target = tmp_path / where  # in a missing directory, in a file, a directory
        status, out, err = invoke(mini_suite + ["--seeds", "1", "--out", str(target)])
        assert status == 2
        assert f"cannot write {target}" in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.skipif(os.name != "posix" or os.geteuid() == 0,
                        reason="needs file permissions that bind the user")
    def test_read_only_report_is_kept(self, tmp_path, mini_suite, no_suite):
        target = tmp_path / "report.csv"
        target.write_text("old report\n")
        target.chmod(0o444)
        status, _, err = invoke(mini_suite + ["--seeds", "1", "--out", str(target)])
        assert status == 2 and f"cannot write {target}" in err
        assert target.read_text() == "old report\n"

    def test_existing_report_survives_a_failed_suite(self, tmp_path, mini_suite, monkeypatch):
        from qapga import QapError

        def fail(*args, **kwargs):
            raise QapError("suite failed")
        monkeypatch.setattr("qapga.bench.run_suite", fail)
        target = tmp_path / "report.csv"
        target.write_text("old report\n")
        status, _, err = invoke(mini_suite + ["--seeds", "1", "--out", str(target)])
        assert status == 2 and "suite failed" in err
        assert target.read_text() == "old report\n"

    def test_negative_seed_exits_2_before_any_run(self, mini_suite, monkeypatch):
        calls = []
        monkeypatch.setattr("qapga.bench.run", lambda *args: calls.append(args))
        status, out, err = invoke(mini_suite + ["--seeds", "1,-1"])
        assert status == 2 and "rng_seed must be >= 0" in err
        assert calls == [] and out == ""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_a_usage_error(self, mini_suite, jobs):
        status, out, err = invoke(mini_suite + ["--seeds", "1", "--jobs", jobs])
        assert status == 1
        assert f"bad --jobs value {jobs}" in err
        assert out == ""


def test_ga_config_fields_are_the_flag_table(capsys):
    from dataclasses import fields

    from qapga import GaConfig

    def help_text(subcommand):
        with pytest.raises(SystemExit):
            main([subcommand, "--help"])
        return capsys.readouterr().out

    solve_help, bench_help = help_text("solve"), help_text("bench")
    for f in fields(GaConfig):
        assert f.metadata["flag"].startswith("--") and f.metadata["help"]
        usage = f"{f.metadata['flag']} {f.name.upper()}"
        assert usage in solve_help
        assert (usage in bench_help) == (f.name != "rng_seed")
