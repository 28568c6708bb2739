import csv
import hashlib
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import depthtest.cli as cli
import depthtest.depths as depths
import depthtest.simulation as simulation
from depthtest.cli import _build_parser, main
from depthtest import skulls_path


# Runs the CLI on argv[2:] and prints how often it opened the file argv[1].
_OPEN_PROBE = """
import os, sys
target = sys.argv[1]
opens = []

def count(event, args):
    if event == "open" and isinstance(args[0], (str, os.PathLike)) and os.fspath(args[0]) == target:
        opens.append(args[1])

sys.addaudithook(count)
from depthtest.cli import main
code = main(sys.argv[2:])
print(f"opens of the input: {len(opens)}")
sys.exit(code)
"""


def _write_two_identical_groups(path, rng):
    sample = rng.normal(size=(25, 2))
    lines = ["u,v,grp"]
    for label in ("a", "b"):
        for row in sample:
            lines.append(f"{float(row[0])!r},{float(row[1])!r},{label}")
    path.write_text("\n".join(lines) + "\n")


class TestTwoSampleCommand:
    def test_identical_groups_never_reject(self, tmp_path, rng):
        data = tmp_path / "same.csv"
        out = tmp_path / "report.json"
        _write_two_identical_groups(data, rng)
        code = main(
            [
                "two-sample", "--input", str(data), "--group", "grp",
                "--stats", "min,max,product,sum,dbr,bdbr,energy",
                "--perms", "199", "--seed", "7", "--output", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]
        for row in report["results"]:
            assert row["p_value"] >= 0.05
        by_name = {r["statistic_name"]: r for r in report["results"]}
        assert by_name["min"]["statistic"] <= 0.0  # identical groups sit past the null center
        assert by_name["energy"]["statistic"] == pytest.approx(0.0, abs=1e-9)

    def test_manova_and_asymptotic_rows(self, tmp_path, rng):
        data = tmp_path / "two.csv"
        out = tmp_path / "report.json"
        x = rng.normal(size=(20, 2))
        y = rng.normal(size=(20, 2)) + 0.3
        lines = ["u,v,grp"]
        for sample, label in ((x, "a"), (y, "b")):
            for row in sample:
                lines.append(f"{float(row[0])!r},{float(row[1])!r},{label}")
        data.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "two-sample", "--input", str(data), "--group", "grp",
                "--stats", "min,max,wilks,hotelling,pillai",
                "--asymptotic", "--seed", "3", "--output", str(out),
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())["results"]
        methods = {(r["statistic_name"], r["method"]) for r in rows}
        assert ("min", "asymptotic") in methods
        assert ("max", "asymptotic") in methods
        assert ("wilks", "asymptotic") in methods
        p_by_name = {r["statistic_name"]: r["p_value"] for r in rows if r["method"] == "asymptotic"}
        assert all(0.0 <= p <= 1.0 for p in p_by_name.values())

    def test_report_schema(self, tmp_path, rng):
        data = tmp_path / "two.csv"
        out = tmp_path / "report.json"
        _write_two_identical_groups(data, rng)
        main(
            [
                "two-sample", "--input", str(data), "--group", "grp",
                "--stats", "min", "--perms", "49", "--seed", "1", "--output", str(out),
            ]
        )
        report = json.loads(out.read_text())
        assert set(report) == {"config", "results", "fixture_hashes"}
        assert str(data) in report["fixture_hashes"]
        row = report["results"][0]
        assert set(row) == {
            "statistic_name", "statistic", "p_value", "method", "depth", "sizes", "seed",
        }
        assert row["sizes"] == [25, 25]
        assert row["seed"] == 1

    @pytest.mark.parametrize("command", (
        ["two-sample", "--stats", "min", "--perms", "9"],
        ["k-sample", "--stats", "min,sum", "--asymptotic", "--mc-draws", "100"],
        ["scale-curve", "--alphas", "0.5"],
    ), ids=lambda command: command[0])
    def test_fixture_hash_is_of_the_bytes_read_once(self, tmp_path, rng, command):
        data = tmp_path / "two.csv"
        out = tmp_path / "report.json"
        _write_two_identical_groups(data, rng)
        done = subprocess.run(
            [sys.executable, "-c", _OPEN_PROBE, str(data), *command,
             "--input", str(data), "--group", "grp", "--seed", "1", "--output", str(out)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.stdout == "opens of the input: 1\n"
        digest = hashlib.sha256(data.read_bytes()).hexdigest()
        assert json.loads(out.read_text())["fixture_hashes"] == {str(data): digest}

    def test_csv_format(self, tmp_path, rng):
        data = tmp_path / "two.csv"
        out = tmp_path / "report.csv"
        _write_two_identical_groups(data, rng)
        main(
            [
                "two-sample", "--input", str(data), "--group", "grp",
                "--stats", "min,product", "--perms", "49", "--seed", "1",
                "--format", "csv", "--output", str(out),
            ]
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "statistic_name,statistic,p_value,method,depth,sizes,seed"
        assert len(lines) == 3
        assert lines[1].startswith("min,")


    @pytest.mark.parametrize("perms", ("0", "9"))
    def test_non_depth_statistics_carry_no_depth_label(self, tmp_path, rng, perms):
        data = tmp_path / "uni.csv"
        out = tmp_path / "report.json"
        lines = ["v,grp"] + [f"{float(v)!r},{'ab'[i % 2]}" for i, v in enumerate(rng.normal(size=24))]
        data.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "two-sample", "--input", str(data), "--group", "grp",
                "--stats", "energy,cramer,min", "--perms", perms, "--depth", "spatial",
                "--output", str(out),
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())["results"]
        assert {r["statistic_name"]: r["depth"] for r in rows} == {
            "energy": "", "cramer": "", "min": "spatial",
        }

    def test_stats_help_lists_table_then_manova(self, capsys):
        with pytest.raises(SystemExit):
            main(["two-sample", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        names = "min, max, product, sum, dbr, bdbr, energy, cramer, wilks, hotelling, pillai"
        assert f"comma list from {names}" in help_text


class TestKSampleCommand:
    def test_skulls_easy_epochs_do_not_reject(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "k-sample", "--input", str(skulls_path()), "--group", "epoch",
                "--groups", "c1850BC,c200BC,cAD150",
                "--stats", "min,product,sum,dbr", "--perms", "299",
                "--seed", "11", "--output", str(out),
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())["results"]
        assert all(r["p_value"] > 0.05 for r in rows)
        assert all(r["sizes"] == [30, 30, 30] for r in rows)

    def test_same_seed_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(
                [
                    "k-sample", "--input", str(skulls_path()), "--group", "epoch",
                    "--groups", "c3300BC,c200BC,cAD150",
                    "--stats", "min,product", "--perms", "199",
                    "--seed", "5", "--output", str(out),
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestExitCodes:
    def test_unknown_statistic_is_usage_error(self, tmp_path, rng):
        data = tmp_path / "two.csv"
        _write_two_identical_groups(data, rng)
        code = main(
            ["two-sample", "--input", str(data), "--group", "grp", "--stats", "kolmogorov"]
        )
        assert code == 2

    def test_two_sample_on_five_groups_is_usage_error(self):
        code = main(
            [
                "two-sample", "--input", str(skulls_path()), "--group", "epoch",
                "--stats", "min",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("argv, message", (
        (["k-sample", "--groups", "c4000BC", "--stats", "min"],
         "usage error: need at least 2 groups for a test command\n"),
        (["k-sample", "--stats", "min,hotelling"],
         "usage error: MANOVA statistics are two-sample only\n"),
    ), ids=("one-group", "k-sample-manova"))
    def test_test_command_usage_errors(self, argv, message, capsys):
        assert main([*argv, "--input", str(skulls_path()), "--group", "epoch"]) == 2
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("missing", ("input", "output"))
    def test_unreachable_file_is_io_error(self, missing, tmp_path, capsys):
        paths = {"input": str(skulls_path()), "output": str(tmp_path / "report.json")}
        paths[missing] = str(tmp_path / "absent" / "file.csv")
        code = main(["two-sample", "--input", paths["input"], "--output", paths["output"],
                     "--group", "epoch", "--groups", "c4000BC,cAD150", "--stats", "min"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"i/o error: [Errno 2] No such file or directory: '{paths[missing]}'\n"
        )

    def test_nonnumeric_data_is_data_error(self, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_text("v,grp\n1,a\nzzz,b\n")
        code = main(["two-sample", "--input", str(data), "--group", "grp", "--stats", "min"])
        assert code == 1

    def test_singular_covariance_is_data_error(self, tmp_path):
        data = tmp_path / "flat.csv"
        lines = ["u,v,grp"] + [f"1.0,{i}.0,a" for i in range(6)] + [f"1.0,{i}.5,b" for i in range(6)]
        data.write_text("\n".join(lines) + "\n")
        code = main(
            [
                "two-sample", "--input", str(data), "--group", "grp",
                "--stats", "min", "--perms", "19", "--depth", "mahalanobis",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        ("text", "message"),
        (
            ("a,b,g\n1,x\n2,y\n3,x\n4,y\n", "row 2 has 2 fields, expected 3"),
            ("a,g\n1,x,7\n2,y,8\n3,x,9\n4,y,6\n", "row 2 has 3 fields, expected 2"),
        ),
        ids=("narrow", "wide"),
    )
    def test_row_width_off_header_is_data_error(self, text, message, tmp_path, capsys):
        data = tmp_path / "ragged.csv"
        data.write_text(text)
        code = main(["two-sample", "--input", str(data), "--group", "g", "--stats", "min"])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_digit_header_name_as_group_column(self, tmp_path, capsys):
        # 2021 is past the header's width, so it names the column; digits that
        # index one column and name another are a data error naming both
        data = tmp_path / "year.csv"
        data.write_text("x,2021\n1,a\n2,b\n3,a\n5,b\n")
        argv = ["two-sample", "--input", str(data), "--group", "2021", "--stats", "min"]
        assert main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith(",mahalanobis,2;2,0")
        data.write_text("1,x,g\n1,a,2\n2,b,3\n3,a,1\n5,b,0\n")
        assert main(argv[:4] + ["1"] + argv[5:]) == 1
        assert "group column '1' is ambiguous: as an index it selects column 1 ('x')" in (
            capsys.readouterr().err
        )

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "binary.csv"
        data.write_bytes(b"\x7fELF\x02\x01\x01\x00\xd0\x8f\xff,grp\n")
        code = main(["two-sample", "--input", str(data), "--group", "grp", "--stats", "min"])
        assert code == 1
        assert f"{data}: not UTF-8 text" in capsys.readouterr().err

    def test_oversized_field_is_data_error(self, tmp_path, capsys):
        # an unmatched quote on line 3 makes the rest of a 160 KB file one
        # field, past the csv module's 131,072-character limit
        data = tmp_path / "unmatched.csv"
        data.write_text("a,b,g\n1.0,2.0,x\n\"3.0,4.0,x\n" + "5.0,6.0,y\n" * 16_000)
        code = main(["two-sample", "--input", str(data), "--group", "g", "--stats", "min"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {data}: line ")
        assert "field larger than field limit" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        (
            ["two-sample", "--stats", "min,min", "--perms", "19"],
            ["two-sample", "--stats", "min,sum,min", "--perms", "0"],
            ["power", "--stats", "min,min"],
            ["two-sample", "--stats", "wilks,wilks", "--perms", "0"],
        ),
        ids=("perms", "no-perms", "power", "manova"),
    )
    def test_repeated_statistic_is_usage_error(self, argv, capsys):
        if argv[0] == "power":
            required = ["--scenario", "null", "--m-grid", "10", "--reps", "2"]
        else:
            required = [
                "--input", str(skulls_path()), "--group", "epoch",
                "--groups", "c4000BC,c3300BC",
            ]
        code = main([*argv, *required])
        assert code == 2
        name = argv[2].split(",")[0]
        assert f"statistic '{name}' is requested more than once" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, label",
        (
            (["k-sample", "--groups", "c4000BC,c3300BC,c4000BC", "--stats", "min"], "c4000BC"),
            (["k-sample", "--groups", "c4000BC,c4000BC", "--stats", "min"], "c4000BC"),
            (["scale-curve", "--groups", "c200BC,cAD150,c3300BC,cAD150"], "cAD150"),
        ),
        ids=("k-sample", "k-sample-one-label", "scale-curve"),
    )
    def test_repeated_group_label_is_usage_error(self, argv, label, capsys):
        code = main([*argv, "--input", str(skulls_path()), "--group", "epoch"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"group '{label}' is listed more than once in --groups" in err
        assert "Traceback" not in err

    def test_energy_over_distance_cap_is_data_error(self, tmp_path, capsys):
        # groups of 4,473 and 2 rows: the (4473, 4473) within-group distance
        # block, 20,007,729 elements, exceeds the 20M-element cap
        data = tmp_path / "big.csv"
        rows = [f"{i}.5,{'a' if i < 4473 else 'b'}" for i in range(4475)]
        data.write_text("\n".join(["v,grp", *rows]) + "\n")
        code = main(["two-sample", "--input", str(data), "--group", "grp", "--stats", "energy"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: energy needs a 4473 x 4473 distance block")
        assert "Traceback" not in err

    def test_energy_cap_counts_the_largest_block_not_n_squared(self, monkeypatch, tmp_path, capsys):
        # under a cap of 1000: 30 + 30 rows (blocks of 900, N^2 = 3600) run,
        # 32 + 2 rows (a 32 x 32 block, N^2 = 1156) are refused
        monkeypatch.setattr(depths, "_CACHE_ELEMENT_CAP", 1000)
        for m, n, code_want in ((30, 30, 0), (32, 2, 1)):
            data = tmp_path / f"energy-{m}-{n}.csv"
            rows = [f"{i * 37 % 11}.5,{'a' if i < m else 'b'}" for i in range(m + n)]
            data.write_text("\n".join(["v,grp", *rows]) + "\n")
            code = main(["two-sample", "--input", str(data), "--group", "grp", "--stats", "energy",
                         "--perms", "9", "--output", str(tmp_path / "out.json")])
            assert code == code_want
        assert capsys.readouterr().err.startswith("error: energy needs a 32 x 32 distance block")

    def test_energy_past_float64_range_is_data_error(self, tmp_path, capsys, rng):
        # coordinates near +-1.7e308; the statistic itself passes the range
        data = tmp_path / "huge.csv"
        x = rng.uniform(-1.0, 1.0, size=(20, 2)) * 0.85e308
        y = rng.uniform(-1.0, 1.0, size=(20, 2)) * 0.85e308 + 0.8e308
        lines = ["u,v,grp"]
        for label, group in (("a", x), ("b", y)):
            lines += [f"{float(u)!r},{float(v)!r},{label}" for u, v in group]
        data.write_text("\n".join(lines) + "\n")
        code = main(["two-sample", "--input", str(data), "--group", "grp", "--stats", "energy",
                     "--perms", "9"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: energy statistic ")
        assert "exceeds the float64 range" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        (
            ["two-sample", "--input", skulls_path(), "--group", "epoch",
             "--groups", "c4000BC,cAD150", "--stats", "min,dbr"],
            ["scale-curve", "--input", skulls_path(), "--group", "epoch"],
            ["power", "--scenario", "scale_shift", "--m-grid", "30", "--reps", "2"],
        ),
        ids=("two-sample", "scale-curve", "power"),
    )
    def test_projection_scores_over_cap_are_data_error(self, argv, capsys):
        # refused before any direction is drawn: 10^8 directions never exist
        code = main([*map(str, argv), "--depth", "projection", "--directions", "100000000"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: projection depth needs ")
        assert err.rstrip().endswith(" x 100000000 direction scores, over the cap of 20000000 elements")
        assert "Traceback" not in err

    def test_missing_group_column(self, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("v,grp\n1,a\n2,b\n")
        code = main(["two-sample", "--input", str(data), "--group", "cohort", "--stats", "min"])
        assert code == 1

    def test_repeated_group_column_name_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "dupg.csv"
        data.write_text("grp,x,grp\n" + "".join(f"{'ab'[i % 2]},{i},b\n" for i in range(8)))
        code = main(["two-sample", "--input", str(data), "--group", "grp", "--stats", "cramer"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error: group column 'grp' appears 2 times in the header, "
                       "at 0-based positions [0, 2]; select one by index\n")


    @pytest.mark.parametrize(
        "argv",
        (
            ["two-sample", "--perms", "-5"],
            ["k-sample", "--mc-draws", "0"],
            ["two-sample", "--directions", "0"],
            ["power", "--reps", "0"],
            ["type1", "--m-grid", "2"],
            ["power", "--m-grid", "10,3"],
            ["power", "--alpha", "1.5"],
            ["type1", "--alpha", "0"],
            ["type1", "--scenario", "mean_shift"],
            ["scale-curve", "--alphas", "1.5"],
            ["scale-curve", "--alphas", "0"],
            ["scale-curve", "--alphas", "0.5,0.2"],
            ["scale-curve", "--alphas", "0.2,0.2"],
            ["scale-curve", "--alphas", ","],
            ["k-sample", "--groups", ","],
            ["scale-curve", "--groups", " , "],
            ["two-sample", "--stats", ","],
            ["power", "--stats", ","],
            ["type1", "--m-grid", ","],
            ["two-sample", "--seed", "-1"],
            ["k-sample", "--seed", "18446744073709551621"],
            ["power", "--seed", "18446744073709551616"],
        ),
        ids=lambda argv: " ".join(argv),
    )
    def test_out_of_range_flag_is_usage_error(self, argv, capsys):
        if argv[0] in ("two-sample", "k-sample"):
            required = [
                "--input", str(skulls_path()), "--group", "epoch",
                "--groups", "c4000BC,cAD150", "--stats", "min",
            ]
        elif argv[0] == "scale-curve":
            required = ["--input", str(skulls_path()), "--group", "epoch"]
        else:
            required = ["--scenario", "null"]
        # any exception other than argparse's exit would reach the user as a traceback
        with pytest.raises(SystemExit) as exc:
            main([*argv, *required])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[1]}:" in err
        assert "Traceback" not in err


def _config_block(argv, tmp_path):
    out = tmp_path / "report.json"
    assert main([*argv, "--output", str(out)]) == 0
    return json.loads(out.read_text())["config"]


# The config block names every flag of every command; a command reports the
# parser-level value for each flag it does not have.
_UNSET_TEST_FLAGS = {
    "scenario": None, "m_grid": None, "size_rule": "equal", "replications": None,
    "profile": "desk", "alpha_level": 0.05,
}
_UNSET_SIMULATION_FLAGS = {
    "input": None, "group_column": None, "groups": None,
    "permutations": 0, "asymptotic": False, "mc_draws": 1_000_000,
}


class TestConfigBlock:
    def test_two_sample(self, tmp_path):
        skulls = str(skulls_path())
        argv = [
            "two-sample", "--input", skulls, "--group", "epoch", "--groups", "cAD150,c4000BC",
            "--stats", "min,wilks", "--perms", "9", "--seed", "3",
        ]
        assert _config_block(argv, tmp_path) == {
            "command": "two-sample", "input": skulls, "group_column": "epoch",
            "groups": ["cAD150", "c4000BC"], "depth": "mahalanobis", "directions": 500,
            "statistics": ["min", "wilks"], "permutations": 9, "asymptotic": False,
            "mc_draws": 1_000_000, "seed": 3, "format": "json", "alphas": None,
            **_UNSET_TEST_FLAGS,
        }

    def test_k_sample(self, tmp_path):
        skulls = str(skulls_path())
        argv = [
            "k-sample", "--input", skulls, "--group", "4", "--stats", "min,product",
            "--asymptotic", "--mc-draws", "1000", "--depth", "spatial", "--directions", "7",
            "--format", "json",
        ]
        assert _config_block(argv, tmp_path) == {
            "command": "k-sample", "input": skulls, "group_column": "4", "groups": None,
            "depth": "spatial", "directions": 7, "statistics": ["min", "product"],
            "permutations": 0, "asymptotic": True, "mc_draws": 1000, "seed": 0,
            "format": "json", "alphas": None, **_UNSET_TEST_FLAGS,
        }

    def test_power(self, tmp_path):
        argv = [
            "power", "--scenario", "mean_shift", "--m-grid", "12,10", "--size-rule", "half",
            "--alpha", "0.1", "--seed", "4",
        ]
        assert _config_block([*argv, "--stats", "min,sum", "--reps", "2"], tmp_path) == {
            "command": "power", "depth": "mahalanobis", "directions": 500,
            "statistics": ["min", "sum"], "scenario": "mean_shift", "m_grid": [12, 10],
            "size_rule": "half", "replications": 2, "profile": "desk", "alpha_level": 0.1,
            "seed": 4, "format": "json", "alphas": None, **_UNSET_SIMULATION_FLAGS,
        }
        # without --stats and --reps: no statistics list, and the profile's power count
        config = _config_block(
            ["power", "--scenario", "null", "--m-grid", "4", "--depth", "spatial",
             "--profile", "full"], tmp_path,
        )
        assert (config["statistics"], config["replications"]) == (None, 1000)

    def test_type1(self, tmp_path):
        argv = ["type1", "--scenario", "null", "--reps", "3", "--depth", "projection",
                "--directions", "20", "--seed", "2"]
        assert _config_block(argv, tmp_path) == {
            "command": "type1", "depth": "projection", "directions": 20, "statistics": None,
            "scenario": "null", "m_grid": [100, 200, 300, 400, 500], "size_rule": "equal",
            "replications": 3, "profile": "desk", "alpha_level": 0.05, "seed": 2,
            "format": "json", "alphas": None, **_UNSET_SIMULATION_FLAGS,
        }
        # the full profile's type-I count differs from its power count
        config = _config_block(
            ["type1", "--scenario", "null", "--m-grid", "4", "--depth", "spatial",
             "--profile", "full"], tmp_path,
        )
        assert config["replications"] == 10_000

    def test_scale_curve(self, tmp_path):
        skulls = str(skulls_path())
        argv = [
            "scale-curve", "--input", skulls, "--group", "epoch", "--groups", "c200BC,cAD150",
            "--alphas", "0.5", "--depth", "projection", "--directions", "20", "--seed", "1",
        ]
        assert _config_block(argv, tmp_path) == {
            "command": "scale-curve", "input": skulls, "group_column": "epoch",
            "groups": ["c200BC", "cAD150"], "depth": "projection", "directions": 20,
            "statistics": None, "permutations": 0, "asymptotic": False,
            "mc_draws": 1_000_000, "seed": 1, "format": "json", "alphas": [0.5],
            **_UNSET_TEST_FLAGS,
        }

    def test_every_command_reports_the_same_keys(self, tmp_path):
        data = ["--input", str(skulls_path()), "--group", "epoch"]
        keys = {
            command: set(_config_block([command, *argv], tmp_path))
            for command, argv in (
                ("two-sample", [*data, "--groups", "c4000BC,cAD150", "--stats", "min"]),
                ("k-sample", [*data, "--stats", "min"]),
                ("power", ["--scenario", "null", "--m-grid", "4", "--reps", "1"]),
                ("type1", ["--scenario", "null", "--m-grid", "4", "--reps", "1"]),
                ("scale-curve", [*data, "--groups", "c4000BC", "--alphas", "0.5"]),
            )
        }
        assert all(found == keys["two-sample"] for found in keys.values()), keys
        assert "alphas" in keys["two-sample"]


def _no_simulation(spec, m, names, tag):
    """Stands in for simulation._replicate: the config block does not
    depend on the simulated values."""
    return {name: np.zeros(spec.replications) for name in names}


def test_parser_built_once_keeps_no_state_between_commands(tmp_path, monkeypatch):
    # the first command writes its resolved m_grid and reps into its
    # namespace; the later ones must still get the profile defaults
    commands = [
        ["power", "--scenario", "mean_shift", "--m-grid", "12", "--reps", "3"],
        ["type1", "--scenario", "null"],
        ["power", "--scenario", "mean_shift"],
    ]
    monkeypatch.setattr(simulation, "_replicate", _no_simulation)
    in_process = [_config_block(argv, tmp_path) for argv in commands]
    assert _build_parser() is _build_parser()
    assert [(c["m_grid"], c["replications"]) for c in in_process] == [
        ([12], 3), ([100, 200, 300, 400, 500], 500), ([100, 200, 300, 400, 500], 500)]
    script = (
        "import sys\nimport depthtest.simulation, test_cli\n"
        "depthtest.simulation._replicate = test_cli._no_simulation\n"
        "from depthtest.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    )
    path = [os.path.dirname(__file__), *sys.path]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    for argv, config in zip(commands, in_process):
        out = tmp_path / "fresh.json"
        subprocess.run([sys.executable, "-c", script, *argv, "--output", str(out)],
                       env=env, check=True)
        assert json.loads(out.read_text())["config"] == config


class TestSimulationCommands:
    @pytest.mark.parametrize(
        "depth, m, need",
        (("mahalanobis", 4, 3), ("mahalanobis", 8, 3), ("projection", 4, 2)),
    )
    def test_group_below_depth_minimum_is_usage_error(self, depth, m, need, capsys):
        # the half rule gives three_group_a groups of (m, m // 2, m // 4) rows
        code = main(
            [
                "power", "--scenario", "three_group_a", "--size-rule", "half",
                "--m-grid", f"12,{m}", "--reps", "2", "--depth", depth,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"m_grid entry {m} with size_rule 'half' gives a group of {m // 4} row(s)" in err
        assert f"needs at least {need}" in err

    @pytest.mark.parametrize("depth, m", (("mahalanobis", 12), ("projection", 8), ("spatial", 4)))
    def test_group_at_depth_minimum_runs(self, depth, m, tmp_path):
        out = tmp_path / "power.json"
        code = main(
            [
                "power", "--scenario", "three_group_a", "--size-rule", "half",
                "--m-grid", str(m), "--reps", "2", "--depth", depth, "--directions", "50",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["results"]

    def test_pooled_sample_over_cap_is_data_error(self, monkeypatch, capsys):
        # refused before the first grid point draws anything
        def no_draw(*args):
            raise AssertionError("a data set was drawn")

        monkeypatch.setattr(depths, "_CACHE_ELEMENT_CAP", 1000)
        monkeypatch.setattr(simulation, "_draw_groups", no_draw)
        code = main(["type1", "--scenario", "null", "--m-grid", "40,600", "--reps", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("error: m_grid entry 600 draws groups of 600, 600 rows, a pooled sample "
                       "of 1200 x 2, over the cap of 1000 elements\n")

    def test_projection_scores_over_cap_refused_before_any_draw(self, monkeypatch, capsys):
        # m = 200 fits; m = 25000 needs 50000 x 500 direction scores
        def no_draw(*args):
            raise AssertionError("a data set was drawn")

        monkeypatch.setattr(simulation, "_draw_groups", no_draw)
        code = main(["power", "--scenario", "scale_shift", "--m-grid", "200,25000",
                     "--reps", "50", "--depth", "projection"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: projection depth needs 50000 x 500 direction scores, over the cap of "
            "20000000 elements\n"
        )

    def test_energy_block_over_cap_refused_before_any_draw(self, monkeypatch, capsys):
        # m = 200 fits; m = 4500 needs a 4500 x 4500 energy distance block
        def no_draw(*args):
            raise AssertionError("a data set was drawn")

        monkeypatch.setattr(simulation, "_draw_groups", no_draw)
        code = main(["power", "--scenario", "scale_shift", "--m-grid", "200,4500",
                     "--reps", "200", "--stats", "energy", "--format", "csv"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: energy needs a 4500 x 4500 distance block, over the cap of 20000000 "
            "elements\n"
        )

    @pytest.mark.parametrize("command", ("power", "type1"))
    def test_replications_past_cap_are_data_error(self, command, monkeypatch, capsys):
        # each statistic's values over 10^12 replications would take 7.3 TiB
        def no_draw(*args):
            raise AssertionError("a data set was drawn")

        monkeypatch.setattr(simulation, "_draw_groups", no_draw)
        code = main([command, "--scenario", "null", "--m-grid", "4", "--reps", "1000000000000"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: 1000000000000 replications keep as many values per statistic, over the cap "
            "of 20000000 elements\n"
        )

    def test_type1_rows(self, tmp_path):
        out = tmp_path / "type1.csv"
        code = main(
            [
                "type1", "--scenario", "null", "--m-grid", "10,14", "--reps", "25",
                "--seed", "2", "--format", "csv", "--output", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "statistic,m,n,depth,value"
        names = {line.split(",")[0] for line in lines[1:]}
        assert names == {"min_quantile", "asymptotic_reference"}
        assert len(lines) == 5

    def test_power_rows(self, tmp_path):
        out = tmp_path / "power.json"
        code = main(
            [
                "power", "--scenario", "mean_shift", "--m-grid", "12", "--reps", "30",
                "--stats", "min,sum", "--seed", "2", "--output", str(out),
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())["results"]
        names = {r["statistic"] for r in rows}
        assert names == {"min", "sum", "min_asymptotic"}
        assert all(0.0 <= r["value"] <= 1.0 for r in rows)

    @pytest.mark.parametrize(
        "scenario, defaults",
        (
            ("mean_shift", ["min", "max", "product", "sum", "dbr", "bdbr"]),
            ("three_group_a", ["min", "product", "sum", "dbr"]),
        ),
    )
    def test_power_defaults_to_depth_statistics_defined_at_k(self, scenario, defaults, tmp_path):
        out = tmp_path / "power.json"
        code = main(
            [
                "power", "--scenario", scenario, "--m-grid", "12", "--reps", "2",
                "--output", str(out),
            ]
        )
        assert code == 0
        rows = json.loads(out.read_text())["results"]
        assert [r["statistic"] for r in rows] == [*defaults, "min_asymptotic"]

    def test_profile_defaults_are_recorded(self, tmp_path):
        out = tmp_path / "power.json"
        code = main(
            [
                "power", "--scenario", "mean_shift", "--m-grid", "12", "--reps", "10",
                "--stats", "min", "--seed", "2", "--output", str(out),
            ]
        )
        assert code == 0
        config = json.loads(out.read_text())["config"]
        assert config["profile"] == "desk"
        assert config["m_grid"] == [12]
        assert config["replications"] == 10


    def test_repeated_grid_entry_is_usage_error(self, capsys):
        code = main(["power", "--scenario", "null", "--m-grid", "10,12,10", "--reps", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "m_grid entry 10 is listed more than once" in err
        assert "Traceback" not in err

    def test_one_dimensional_statistic_is_usage_error(self, capsys):
        # every scenario is bivariate, so cramer can never run in a simulation
        code = main(["power", "--scenario", "scale_shift", "--m-grid", "12", "--reps", "2",
                     "--stats", "min,cramer"])
        assert code == 2
        err = capsys.readouterr().err
        assert "usage error: statistic 'cramer' needs 1-D samples" in err
        assert "Traceback" not in err


class TestScaleCurveCommand:
    def test_emits_group_rows(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "scale-curve", "--input", str(skulls_path()), "--group", "epoch",
                "--groups", "c200BC,cAD150", "--alphas", "0.1,0.5,0.9",
                "--seed", "1", "--format", "csv", "--output", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "group,alpha,volume"
        assert len(lines) == 7
        groups = {line.split(",")[0] for line in lines[1:]}
        assert groups == {"c200BC", "cAD150"}
        # volumes nondecreasing in the central-mass fraction within each group
        for grp in groups:
            vols = [float(line.split(",")[2]) for line in lines[1:] if line.startswith(grp)]
            assert vols == sorted(vols)

    def test_single_group_rows_match_all_groups_run(self, capsys):
        argv = ["scale-curve", "--input", str(skulls_path()), "--group", "epoch",
                "--alphas", "0.1,0.5,0.9", "--format", "csv"]
        assert main(argv) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert main([*argv, "--groups", "c4000BC"]) == 0
        single = capsys.readouterr().out.splitlines()
        assert single == [header, *(row for row in rows if row.startswith("c4000BC,"))]
        assert len(single) == 4

    def test_csv_quotes_a_label_with_a_comma(self, tmp_path, capsys, rng):
        data = tmp_path / "comma.csv"
        lines = ["grp,x,y"]
        for label in ('"a,b"', "c"):
            lines += [f"{label},{float(u)!r},{float(v)!r}" for u, v in rng.normal(size=(8, 2))]
        data.write_text("\n".join(lines) + "\n")
        argv = ["scale-curve", "--input", str(data), "--group", "grp", "--alphas", "0.5,1",
                "--format", "csv"]
        assert main(argv) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["group", "alpha", "volume"]
        assert all(len(row) == 3 for row in rows)
        group_alpha = [row[:2] for row in rows[1:]]
        assert group_alpha == [["a,b", "0.5"], ["a,b", "1.0"], ["c", "0.5"], ["c", "1.0"]]


_HEAVY_SCIPY_PROBE = """
import json, os, sys
import depthtest.cli
heavy = ("scipy.stats", "scipy.spatial", "scipy.linalg", "scipy.sparse", "scipy.special",
         "numpy.f2py")
loaded = [[name for name in heavy if name in sys.modules]]
data = ["--input", str(depthtest.skulls_path()), "--group", "epoch"]
for argv in (
    ["k-sample", *data, "--depth", "spatial", "--stats", "min,dbr", "--perms", "9",
     "--asymptotic", "--mc-draws", "1000"],
    ["k-sample", *data, "--depth", "projection", "--stats", "min", "--asymptotic",
     "--mc-draws", "1000"],
    ["two-sample", *data, "--groups", "c4000BC,cAD150", "--stats", "energy,min", "--perms", "9"],
    ["power", "--scenario", "scale_shift", "--m-grid", "20", "--reps", "3"],
    ["type1", "--scenario", "null", "--m-grid", "20", "--reps", "3", "--depth", "projection"],
):
    code = depthtest.cli.main([*argv, "--output", os.devnull])
    loaded.append([code, *(name for name in heavy if name in sys.modules)])
print(json.dumps(loaded))
"""


# `k-sample --stats min --asymptotic` at the default 10^6 limit-law draws,
# as the crude Monte-Carlo loop reported them before the limit law's
# screen: the screen must leave every count unchanged
_LIMIT_LAW_REPORTS = {
    ("c3300BC,c200BC,cAD150", 1): "3.51808028,0.001206,monte_carlo,mahalanobis,30;30;30,1",
    ("c3300BC,c200BC,cAD150", 2026): "3.51808028,0.001349,monte_carlo,mahalanobis,30;30;30,2026",
    (None, 1): "3.77150132,0.001527,monte_carlo,mahalanobis,30;30;30;30;30,1",
    (None, 2026): "3.77150132,0.001568,monte_carlo,mahalanobis,30;30;30;30;30,2026",
}


@pytest.mark.parametrize("groups, seed", _LIMIT_LAW_REPORTS)
def test_limit_law_reports_pinned(groups, seed, capsys):
    argv = ["k-sample", "--input", str(skulls_path()), "--group", "epoch", "--stats", "min",
            "--asymptotic", "--seed", str(seed), "--format", "csv"]
    assert main(argv if groups is None else [*argv, "--groups", groups]) == 0
    assert capsys.readouterr().out == (
        "statistic_name,statistic,p_value,method,depth,sizes,seed\n"
        f"min,{_LIMIT_LAW_REPORTS[groups, seed]}\n"
    )


# `two-sample --stats wilks,hotelling,pillai` on every pair of skulls epochs,
# as the k-group eigenvalue route reported them: (Wilks, Hotelling, Pillai,
# the p-value of all three)
_MANOVA_REPORTS = {
    "c4000BC,c3300BC": ("0.972325811", "0.0284618473", "0.0276741888", "0.813943"),
    "c4000BC,c1850BC": ("0.812434593", "0.230868317", "0.187565407", "0.0203528"),
    "c4000BC,c200BC": ("0.697029918", "0.434658649", "0.302970082", "0.00045643"),
    "c4000BC,cAD150": ("0.638181144", "0.566953222", "0.361818856", "4.73559e-05"),
    "c3300BC,c1850BC": ("0.810240106", "0.234202051", "0.189759894", "0.019079"),
    "c3300BC,c200BC": ("0.639905044", "0.562731862", "0.360094956", "5.07818e-05"),
    "c3300BC,cAD150": ("0.63346562", "0.578617638", "0.36653438", "3.90761e-05"),
    "c1850BC,c200BC": ("0.886660592", "0.127827276", "0.113339408", "0.150623"),
    "c1850BC,cAD150": ("0.828117295", "0.207558406", "0.171882705", "0.0320211"),
    "c200BC,cAD150": ("0.957585725", "0.0442929273", "0.0424142749", "0.657844"),
}


@pytest.mark.parametrize("groups", _MANOVA_REPORTS)
def test_manova_reports_pinned(groups, capsys):
    argv = ["two-sample", "--input", str(skulls_path()), "--group", "epoch", "--groups", groups,
            "--stats", "wilks,hotelling,pillai", "--format", "csv"]
    assert main(argv) == 0
    *stats, p = _MANOVA_REPORTS[groups]
    rows = "".join(f"{name},{stat},{p},asymptotic,,30;30,0\n"
                   for name, stat in zip(("wilks", "hotelling", "pillai"), stats))
    assert capsys.readouterr().out == (
        "statistic_name,statistic,p_value,method,depth,sizes,seed\n" + rows
    )


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

# spatial simulation reports as the column-block kernel gave them, before
# one-order depths came from tile rows of 64: pooled N of 80 to 385 span up
# to seven tiles, and N = 129, 193 and 385 end on a lone row
_SPATIAL_SIMULATION_REPORTS = {
    "power_scale_shift_spatial.csv": ["power", "--scenario", "scale_shift",
                                      "--m-grid", "40,65,129", "--reps", "6", "--seed", "1"],
    "power_three_group_b_spatial.csv": ["power", "--scenario", "three_group_b",
                                        "--size-rule", "half", "--m-grid", "130", "--reps", "6",
                                        "--seed", "2"],
    "type1_null_spatial.csv": ["type1", "--scenario", "null", "--m-grid", "129",
                               "--reps", "10", "--seed", "3"],
    "power_scale_shift_half_spatial.csv": ["power", "--scenario", "scale_shift",
                                           "--size-rule", "half", "--m-grid", "86,129,257",
                                           "--reps", "6", "--seed", "4"],
    "type1_null_half_spatial.csv": ["type1", "--scenario", "null", "--size-rule", "half",
                                    "--m-grid", "86,129", "--reps", "10", "--seed", "5"],
}


@pytest.mark.parametrize("golden", _SPATIAL_SIMULATION_REPORTS)
def test_spatial_simulation_reports_pinned(golden, capsys):
    argv = [*_SPATIAL_SIMULATION_REPORTS[golden], "--depth", "spatial", "--format", "csv"]
    assert main(argv) == 0
    with open(os.path.join(GOLDEN, golden), newline="") as pinned:
        assert capsys.readouterr().out == pinned.read()


_SKULLS = ["--input", str(skulls_path()), "--group", "epoch"]
_THREE_GROUP_B = ["power", "--scenario", "three_group_b", "--size-rule", "half",
                  "--m-grid", "40", "--reps", "12", "--seed", "3"]

# reports as the engine gave them when it held its samples: spatial depth of
# one skulls sample under 100 orders, and simulated data sets drawn per group
_ENGINE_REPORTS = {
    "k_sample_3_epochs_spatial.csv": ["k-sample", *_SKULLS, "--groups", "c3300BC,c200BC,cAD150",
                                      "--stats", "min,product,sum,dbr", "--perms", "99",
                                      "--depth", "spatial", "--seed", "1"],
    "two_sample_spatial.csv": ["two-sample", *_SKULLS, "--groups", "c4000BC,cAD150",
                               "--stats", "min,max,dbr,bdbr,energy", "--perms", "99",
                               "--depth", "spatial", "--seed", "2"],
    "power_three_group_b_mahalanobis.csv": [*_THREE_GROUP_B, "--depth", "mahalanobis"],
    "power_three_group_b_projection.csv": [*_THREE_GROUP_B, "--depth", "projection"],
}


@pytest.mark.parametrize("golden", _ENGINE_REPORTS)
def test_engine_reports_pinned(golden, capsys):
    assert main([*_ENGINE_REPORTS[golden], "--format", "csv"]) == 0
    with open(os.path.join(GOLDEN, golden), newline="") as pinned:
        assert capsys.readouterr().out == pinned.read()


def test_cli_leaves_scipy_stats_and_spatial_unloaded():
    # scipy.stats costs about a second of start-up, and scipy.spatial, with
    # the scipy.linalg and scipy.sparse it loads, 110 modules and 12 MB of
    # RSS; scipy.special, with the numpy.f2py its array-API layer loads,
    # 0.3 s and 20 MB. Only scale curves need scipy.spatial (qhull), and
    # only MANOVA scipy.special (fdtrc); normals come from the numpy ndtri
    done = subprocess.run(
        [sys.executable, "-c", _HEAVY_SCIPY_PROBE], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert json.loads(done.stdout) == [[], [0], [0], [0], [0], [0]]


def test_large_projection_report_independent_of_blas_threads(tmp_path):
    # at N = 1000, d = 10 OpenBLAS may split the (N, d) x (d, 500)
    # projection product over threads
    rng = np.random.default_rng(1000)
    sample = rng.normal(size=(1000, 10))
    sample[500:] *= 1.1
    data = tmp_path / "large.csv"
    lines = [",".join([f"x{j}" for j in range(10)] + ["group"])]
    lines += [",".join([*map(repr, row.tolist()), "ab"[i >= 500]]) for i, row in enumerate(sample)]
    data.write_text("\n".join(lines) + "\n")
    argv = ["two-sample", "--input", str(data), "--group", "group", "--depth", "projection",
            "--stats", "min,max,product,sum,dbr,bdbr", "--perms", "2", "--asymptotic",
            "--seed", "1", "--format", "csv"]

    def report(threads):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
               "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
        done = subprocess.run([sys.executable, "-m", "depthtest.cli", *argv], env=env,
                              capture_output=True, text=True, check=True)
        return done.stdout

    one = report(1)
    assert one.count("\n") == 9
    assert report(2) == one


def _dispatched_simd_targets():
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    found = _multiarray_umath.__cpu_features__
    return [target for target in _multiarray_umath.__cpu_dispatch__ if found.get(target)]


def test_reports_independent_of_simd_dispatch():
    # projection depth sorts with whatever SIMD kernels numpy dispatches on
    # this CPU; with every dispatch target disabled numpy runs its baseline
    # kernels, and the reports must not change
    targets = _dispatched_simd_targets()
    if not targets:
        pytest.skip("numpy dispatches no SIMD target above its baseline on this CPU")
    commands = (
        ["k-sample", "--input", skulls_path(), "--group", "epoch",
         "--groups", "c3300BC,c200BC,cAD150", "--stats", "min,sum,dbr", "--perms", "99",
         "--depth", "projection", "--asymptotic", "--seed", "3", "--format", "csv"],
        ["power", "--scenario", "scale_shift", "--m-grid", "30", "--reps", "20",
         "--depth", "projection", "--seed", "2", "--format", "csv"],
    )

    def reports(**extra_env):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **extra_env}
        return [
            subprocess.run([sys.executable, "-m", "depthtest.cli", *map(str, argv)], env=env,
                           capture_output=True, text=True, check=True).stdout
            for argv in commands
        ]

    plain = reports()
    assert [text.count("\n") for text in plain] == [5, 8]
    assert reports(NPY_DISABLE_CPU_FEATURES=" ".join(targets)) == plain


class _Mallopt:
    """Stands in for libc's ``mallopt``: records each call, returns ``result``."""

    def __init__(self, result=1):
        self.calls, self.result = [], result

    def __call__(self, param, value):
        self.calls.append((param, value))
        return self.result


def _confstr_unrecognized(name):
    raise ValueError("unrecognized configuration name")


class TestMallocPolicy:
    ARGV = ["scale-curve", "--input", str(skulls_path()), "--group", "epoch",
            "--groups", "c4000BC", "--alphas", "0.5", "--format", "csv"]

    @pytest.fixture(autouse=True)
    def fresh_policy(self):
        cli._fix_malloc_policy.cache_clear()
        yield
        cli._fix_malloc_policy.cache_clear()

    def stub(self, monkeypatch, confstr, libc):
        monkeypatch.setattr(cli.os, "confstr", confstr)
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: libc)

    def test_glibc_sets_both_thresholds_once(self, monkeypatch, capsys):
        libc = types.SimpleNamespace(mallopt=_Mallopt())
        self.stub(monkeypatch, lambda name: "glibc 2.36", libc)
        assert main(self.ARGV) == 0
        assert main(self.ARGV) == 0
        assert libc.mallopt.calls == [(-3, 32 << 20), (-1, 64 << 20)]

    def test_refused_mmap_threshold_leaves_trim_alone(self, monkeypatch, capsys):
        libc = types.SimpleNamespace(mallopt=_Mallopt(result=0))
        self.stub(monkeypatch, lambda name: "glibc 2.36", libc)
        assert main(self.ARGV) == 0
        assert libc.mallopt.calls == [(-3, 32 << 20)]

    @pytest.mark.parametrize("confstr", [_confstr_unrecognized, lambda name: None],
                             ids=["confstr-raises", "confstr-none"])
    def test_other_c_library_is_left_alone(self, confstr, monkeypatch, capsys):
        libc = types.SimpleNamespace(mallopt=_Mallopt())
        self.stub(monkeypatch, confstr, libc)
        assert main(self.ARGV) == 0
        assert libc.mallopt.calls == []
        assert capsys.readouterr().err == ""

    def test_missing_mallopt_is_left_alone(self, monkeypatch, capsys):
        self.stub(monkeypatch, lambda name: "glibc 2.36", types.SimpleNamespace())
        assert main(self.ARGV) == 0
        assert capsys.readouterr().err == ""


def _is_glibc():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError):
        return False


@pytest.mark.skipif(not _is_glibc(), reason="the malloc policy applies on glibc only")
def test_fresh_projection_run_takes_few_page_faults():
    # with glibc's dynamic thresholds, each permutation chunk's projection
    # temporaries were unmapped on free and faulted back in: the projection
    # run took about 9x the minor faults of the plain run, and 1.1x with
    # the thresholds fixed
    import resource

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "OPENBLAS_NUM_THREADS": "1"}

    def minor_faults(command, *argv):
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run([sys.executable, "-m", "depthtest.cli", command, "--input", skulls_path(),
                        "--group", "epoch", *argv, "--format", "csv"],
                       env=env, capture_output=True, check=True)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    plain = minor_faults("two-sample", "--groups", "c4000BC,cAD150", "--stats", "min")
    projection = minor_faults("k-sample", "--groups", "c3300BC,c200BC,cAD150", "--stats", "min",
                              "--perms", "99", "--depth", "projection")
    assert projection <= 1.5 * plain
