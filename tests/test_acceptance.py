"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Shared heavyweight simulations are computed once per module. Every
tolerance is pinned here; none are recalibrated at runtime.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import depthtest as dt
from depthtest.cli import main

MAHAL = dt.DepthKind("mahalanobis")
SKULLS = str(dt.skulls_path())

HARD_EPOCHS = "c3300BC,c200BC,cAD150"  # Table-2-style separated epochs
EASY_EPOCHS = "c1850BC,c200BC,cAD150"  # Table-1-style similar epochs
SKULL_SEED = 20260808


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# Shared runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def null_min_values():
    """2000 minimum-statistic values under the null at m = n = 500."""
    spec = dt.ScenarioSpec(
        scenario="null", m_grid=(500,), size_rule="equal",
        depth=MAHAL, replications=2000, seed=42,
    )
    values = np.empty(spec.replications)
    for r in range(spec.replications):
        groups = dt.sample_scenario(spec, 500, r)
        values[r] = dt.evaluate_statistics(groups, ("min",), MAHAL)["min"]
    return values


def _hard_epochs_argv(out_path: str) -> list[str]:
    return [
        "k-sample", "--input", SKULLS, "--group", "epoch",
        "--groups", HARD_EPOCHS, "--depth", "mahalanobis",
        "--stats", "min,product,sum,dbr", "--perms", "5000",
        "--seed", str(SKULL_SEED), "--format", "json", "--output", out_path,
    ]


@pytest.fixture(scope="module")
def hard_epochs_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "hard.json"
    code = main(_hard_epochs_argv(str(out)))
    assert code == 0
    return out.read_bytes()


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    from depthtest.rng import substream

    rng = substream(1001)
    kinds = (
        dt.DepthKind("mahalanobis"),
        dt.DepthKind("spatial"),
        dt.DepthKind("projection", direction_count=64, direction_seed=3),
    )
    start = time.monotonic()
    mismatches = 0
    for i in range(1000):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        kind = kinds[i % 3]
        if kind.kind == "mahalanobis":
            # covariance needs enough rows to be invertible
            m = max(m, d + 1)
            n = max(n, d + 1)
        x = rng.normal(size=(m, d))
        y = rng.normal(size=(n, d))
        if dt.quality(x, y, kind) != dt.quality_brute_oracle(x, y, kind):
            mismatches += 1
    elapsed = time.monotonic() - start
    _report(
        1,
        mismatches == 0 and elapsed < 30.0,
        f"quality vs brute oracle: {mismatches} mismatches in 1000 instances, {elapsed:.1f}s",
    )


def test_criterion_2_half_normal_quantile(null_min_values):
    ordered = np.sort(null_min_values)
    quantile = float(ordered[math.ceil(0.95 * ordered.size) - 1])
    _report(2, 1.80 <= quantile <= 2.12, f"empirical 95% quantile of min statistic = {quantile:.4f} (bounds [1.80, 2.12])")


def test_criterion_3_type_one_error(null_min_values):
    rate = float((null_min_values >= 1.96).mean())
    _report(3, 0.035 <= rate <= 0.065, f"type-I error at cutoff 1.96 = {rate:.4f} (bounds [0.035, 0.065])")


def test_criterion_4_power_ordering():
    spec = dt.ScenarioSpec(
        scenario="scale_shift", m_grid=(300,), size_rule="equal",
        depth=MAHAL, replications=500, seed=42,
    )
    table = dt.power_table(spec, ("min", "max", "product", "sum", "dbr"))
    power = {name: table.rates[(name, 300)] for name in ("min", "max", "product", "sum", "dbr")}
    ok = True
    for winner in ("product", "sum"):
        for rival in ("min", "max", "dbr"):
            ok &= power[winner] >= power[rival] - 0.03
        ok &= power[winner] >= power["dbr"] + 0.05
    _report(4, ok, "powers at m=n=300: " + ", ".join(f"{k}={v:.3f}" for k, v in power.items()))


def test_criterion_5_antisymmetry_convergence():
    def median_deviation(m: int) -> float:
        spec = dt.ScenarioSpec(
            scenario="null", m_grid=(m,), size_rule="equal",
            depth=MAHAL, replications=200, seed=7,
        )
        devs = np.empty(200)
        for r in range(200):
            x, y = dt.sample_scenario(spec, m, r)
            pair = dt.quality(x, y, MAHAL)
            devs[r] = abs(pair.q_fg + pair.q_gf - 1.0)
        return float(np.median(devs))

    small, large = median_deviation(100), median_deviation(1000)
    _report(5, large < small, f"median |q_fg+q_gf-1|: m=100 -> {small:.5f}, m=1000 -> {large:.5f}")


def test_criterion_6_skull_table2(hard_epochs_report):
    rows = {r["statistic_name"]: r for r in json.loads(hard_epochs_report)["results"]}
    p = {name: rows[name]["p_value"] for name in ("min", "product", "sum", "dbr")}
    ok = (
        p["product"] <= 0.01
        and p["sum"] <= 0.01
        and 0.01 <= p["min"] <= 0.08
        and 0.003 <= p["dbr"] <= 0.04
    )
    _report(6, ok, f"skull 3300/200/150 permutation p-values: {p}")


def test_criterion_7_skull_table1():
    worst = {}
    ok = True
    for kind_name in ("mahalanobis", "spatial", "projection"):
        kind = dt.DepthKind(kind_name, direction_seed=SKULL_SEED)
        dataset = dt.load_csv(SKULLS, "epoch").subset(EASY_EPOCHS.split(","))
        spec = dt.CalibrationSpec(replications=5000, seed=SKULL_SEED)
        outs = dt.permutation_report(
            list(dataset.groups.values()), ("min", "product", "sum", "dbr"), kind, spec
        )
        pvals = {o.statistic_name: o.p_value for o in outs}
        worst[kind_name] = min(pvals.values())
        ok &= all(v > 0.05 for v in pvals.values())
    _report(7, ok, f"skull 1850/200/150 minimum p-value per depth: {worst}")


def test_criterion_8_asymptotic_min_pvalue(hard_epochs_report):
    rows = {r["statistic_name"]: r for r in json.loads(hard_epochs_report)["results"]}
    observed = rows["min"]["statistic"]
    spec = dt.CalibrationSpec(replications=1_000_000, seed=1)
    p_k3 = dt.mc_asymptotic_min_pvalue(observed, (30, 30, 30), spec)
    spec2 = dt.CalibrationSpec(replications=1_000_000, seed=2)
    p_k2 = dt.mc_asymptotic_min_pvalue(1.96, (200, 200), spec2)
    ok = p_k3 <= 0.01 and abs(p_k2 - 0.050) <= 0.002
    _report(8, ok, f"asymptotic p at observed min {observed:.4f}: {p_k3:.6f}; k=2 check at 1.96: {p_k2:.4f}")


def test_criterion_9_baseline_sanity(rng):
    x = rng.normal(size=(12, 3))
    energy_zero = dt.energy_statistic(x, x)
    cramer_zero = dt.cramer_univariate(x[:, :1], x[:, :1])
    trio = {name: dt.manova(x, x.copy(), name) for name in ("wilks", "hotelling", "pillai")}
    flat = np.ones((10, 2))
    flat[:, 1] = np.arange(10)
    raised = False
    try:
        dt.depth_values([[0.0, 0.0]], flat, MAHAL)
    except dt.SingularCovariance:
        raised = True
    ok = (
        abs(energy_zero) < 1e-12
        and cramer_zero == 0.0
        and abs(trio["wilks"].statistic - 1.0) < 1e-9
        and abs(trio["hotelling"].statistic) < 1e-9
        and abs(trio["pillai"].statistic) < 1e-9
        and raised
    )
    _report(
        9,
        ok,
        f"energy={energy_zero:.2e}, cramer={cramer_zero}, manova=("
        f"{trio['wilks'].statistic:.6f}, {trio['hotelling'].statistic:.2e}, "
        f"{trio['pillai'].statistic:.2e}), singular covariance raised={raised}",
    )


def test_criterion_10_determinism(hard_epochs_report, tmp_path):
    # same command, same seed, fresh process state
    repeat = tmp_path / "repeat.json"
    assert main(_hard_epochs_argv(str(repeat))) == 0
    same_bytes = repeat.read_bytes() == hard_epochs_report

    # thread-count independence, exercised through real subprocesses
    outputs = []
    for threads in ("1", "4"):
        out = tmp_path / f"threads_{threads}.json"
        env = dict(os.environ)
        env.update(
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "depthtest.cli", *_hard_epochs_argv(str(out))],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    threads_agree = outputs[0] == outputs[1] == hard_epochs_report
    _report(
        10,
        same_bytes and threads_agree,
        f"same-seed byte-identical={same_bytes}, thread-count invariant={threads_agree}",
    )
