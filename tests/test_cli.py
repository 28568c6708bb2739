import json

import numpy as np
import pytest

from depthtest.cli import main
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
        ),
        ids=("perms", "no-perms", "power"),
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
        assert "statistic 'min' is requested more than once" in capsys.readouterr().err

    def test_missing_group_column(self, tmp_path):
        data = tmp_path / "two.csv"
        data.write_text("v,grp\n1,a\n2,b\n")
        code = main(["two-sample", "--input", str(data), "--group", "cohort", "--stats", "min"])
        assert code == 1


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
            ["scale-curve", "--alphas", "1.5"],
            ["scale-curve", "--alphas", "0"],
            ["scale-curve", "--alphas", "0.5,0.2"],
            ["scale-curve", "--alphas", "0.2,0.2"],
            ["scale-curve", "--alphas", ","],
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

    def test_type1_rejects_alternative_scenario(self, tmp_path):
        code = main(
            ["type1", "--scenario", "mean_shift", "--m-grid", "10", "--reps", "5", "--seed", "1"]
        )
        assert code == 1

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
        # volumes nonincreasing within each group
        for grp in groups:
            vols = [float(line.split(",")[2]) for line in lines[1:] if line.startswith(grp)]
            assert vols == sorted(vols, reverse=True)
