import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import depthtest.simulation as simulation
from depthtest.cli import _build_parser, main
from depthtest import skulls_path


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

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "binary.csv"
        data.write_bytes(b"\x7fELF\x02\x01\x01\x00\xd0\x8f\xff,grp\n")
        code = main(["two-sample", "--input", str(data), "--group", "grp", "--stats", "min"])
        assert code == 1
        assert f"{data}: not UTF-8 text" in capsys.readouterr().err

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
        # 2 x 2,237 pooled rows: N^2 = 20,016,676 exceeds the 20M-element cap
        data = tmp_path / "big.csv"
        rows = [f"{i}.5,{'a' if i < 2237 else 'b'}" for i in range(2 * 2237)]
        data.write_text("\n".join(["v,grp", *rows]) + "\n")
        code = main(["two-sample", "--input", str(data), "--group", "grp", "--stats", "energy"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: energy needs a 4474 x 4474 distance matrix")
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
            "mc_draws": 1_000_000, "seed": 3, "format": "json", **_UNSET_TEST_FLAGS,
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
            "format": "json", **_UNSET_TEST_FLAGS,
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
            "seed": 4, "format": "json", **_UNSET_SIMULATION_FLAGS,
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
            "format": "json", **_UNSET_SIMULATION_FLAGS,
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
            "mc_draws": 1_000_000, "seed": 1, "format": "json", **_UNSET_TEST_FLAGS,
        }


def _no_simulation(spec, m, names, draw):
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


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs about a second of start-up; nothing in the CLI needs it
    code = "import sys, depthtest.cli; print('scipy.stats' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert done.stdout.strip() == "False"
