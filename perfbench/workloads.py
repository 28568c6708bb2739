"""The benchmark's three workloads: how each op is built and checked.

A workload is a pool of cases. A case fixes everything an op feeds the
program (its ``--seed`` and, for large-n, which generated CSV it reads);
the op's depth comes from the rotation. The workload seed only chooses the
order in which each depth walks the pool, so every op the benchmark can
make has a reference recorded in ``reference.json``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DEPTHS = ("mahalanobis", "spatial", "projection")

SKULLS_CSV = "src/depthtest/data/skulls.csv"
SKULLS_EPOCHS = ("c3300BC", "c200BC", "cAD150")
SKULLS_PERMS = 25
SKULLS_MC_DRAWS = 20_000

POWER_REPS = 5

LARGE_DATASETS = 4
LARGE_SEEDS_PER_DATASET = 16
LARGE_ROWS_PER_GROUP = 500
LARGE_DIM = 10
LARGE_SHIFT = 0.1
LARGE_SCALE = 1.15
LARGE_PERMS = 1

DIRECTION_COUNT = 500  # the CLI default; the skulls oracle rebuilds the same DepthKind

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# A permutation p-value or a rejection rate moves in steps of at least
# 1/(B+1) or 1/R, so 1e-9 demands the same count; statistics are printed
# with 9 significant digits, so 1e-8 relative allows only a last-digit flip.
TOLERANCE = {"statistic_rel": 1e-8, "p_value_abs": 1e-9, "rate_abs": 1e-9}


@dataclass(frozen=True)
class Workload:
    name: str
    pool: int
    argv: Callable[[str, int, Path], list[str]]
    summarize: Callable[[dict], tuple[list[str], list]]


def _test_summary(report: dict) -> tuple[list[str], list]:
    layout, values = [], []
    for row in report["results"]:
        key = f"{row['statistic_name']}/{row['method']}"
        layout += [f"{key}/statistic", f"{key}/p_value"]
        values += [row["statistic"], row["p_value"]]
    return layout, values


def _power_summary(report: dict) -> tuple[list[str], list]:
    layout = [f"{row['statistic']}/m={row['m']}/rate" for row in report["results"]]
    return layout, [row["value"] for row in report["results"]]


def _skulls_argv(depth: str, case: int, inputs: Path) -> list[str]:
    return [
        "k-sample", "--input", SKULLS_CSV, "--group", "epoch",
        "--groups", ",".join(SKULLS_EPOCHS), "--depth", depth,
        "--stats", "min,product,sum,dbr", "--perms", str(SKULLS_PERMS),
        "--asymptotic", "--mc-draws", str(SKULLS_MC_DRAWS), "--seed", str(case),
    ]


def _power_argv(depth: str, case: int, inputs: Path) -> list[str]:
    return [
        "power", "--scenario", "scale_shift", "--size-rule", "equal",
        "--m-grid", "100", "--reps", str(POWER_REPS), "--depth", depth,
        "--seed", str(case),
    ]


def large_csv(inputs: Path, dataset: int) -> Path:
    return inputs / f"large-n-{dataset}.csv"


def _large_argv(depth: str, case: int, inputs: Path) -> list[str]:
    dataset, seed = divmod(case, LARGE_SEEDS_PER_DATASET)
    return [
        "two-sample", "--input", large_csv(inputs, dataset).as_posix(), "--group", "group",
        "--depth", depth, "--stats", "min,max,product,sum,dbr,bdbr",
        "--perms", str(LARGE_PERMS), "--asymptotic", "--seed", str(seed),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("skulls-perm", 192, _skulls_argv, _test_summary),
        Workload("sim-power", 192, _power_argv, _power_summary),
        Workload("large-n", LARGE_DATASETS * LARGE_SEEDS_PER_DATASET, _large_argv, _test_summary),
    )
}


def prepare_inputs(workload: Workload, inputs: Path) -> None:
    """Write the generated input files a workload reads (large-n only).

    Data set j is drawn from its own generator keyed by j: group ``f`` is
    standard normal, group ``g`` is shifted in location and scale.
    """
    if workload.name != "large-n":
        return
    inputs.mkdir(parents=True, exist_ok=True)
    header = ",".join(f"x{i}" for i in range(LARGE_DIM)) + ",group\n"
    for dataset in range(LARGE_DATASETS):
        rng = np.random.default_rng([0x1A26E, dataset])
        f = rng.standard_normal((LARGE_ROWS_PER_GROUP, LARGE_DIM))
        g = LARGE_SHIFT + LARGE_SCALE * rng.standard_normal((LARGE_ROWS_PER_GROUP, LARGE_DIM))
        lines = [header]
        for label, block in (("f", f), ("g", g)):
            for row in block:
                lines.append(",".join(repr(float(v)) for v in row) + f",{label}\n")
        large_csv(inputs, dataset).write_text("".join(lines))


def case_orders(workload: Workload, seed: int) -> dict[str, np.ndarray]:
    """Per depth, the order in which the workload seed walks the case pool."""
    rng = np.random.default_rng(seed)
    return {depth: rng.permutation(workload.pool) for depth in DEPTHS}


def load_reference() -> dict:
    reference = json.loads(REFERENCE_PATH.read_text())
    if reference["tolerance"] != TOLERANCE:
        raise ValueError("reference.json was recorded with other tolerances")
    return reference


def _close(kind: str, got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if kind == "statistic":
        return math.isclose(got, want, rel_tol=TOLERANCE["statistic_rel"])
    return abs(got - want) <= TOLERANCE[f"{kind}_abs"]


def compare(layout, values, ref_layout, ref_values) -> list[str]:
    """Mismatches between an op's report summary and its recorded reference."""
    if layout != ref_layout:
        return [f"report rows {layout} differ from reference rows {ref_layout}"]
    return [
        f"{key}: {got!r} vs reference {want!r}"
        for key, got, want in zip(layout, values, ref_values)
        if not _close(key.rsplit("/", 1)[1], got, want)
    ]


class SkullsOracle:
    """Rebuilds the skulls q-matrix from ``quality_brute_oracle`` pair by pair
    and checks the reported min/product/sum statistics against it."""

    def __init__(self) -> None:
        from depthtest import load_csv

        dataset = load_csv(SKULLS_CSV, "epoch").subset(SKULLS_EPOCHS)
        self.groups = list(dataset.groups.values())

    def statistics(self, depth: str, seed: int) -> dict[str, float]:
        from depthtest import DepthKind, quality_brute_oracle

        kind = DepthKind(depth, direction_count=DIRECTION_COUNT, direction_seed=seed)
        k = len(self.groups)
        sizes = [g.shape[0] for g in self.groups]
        q = {}
        for i in range(k):
            for j in range(i + 1, k):
                pair = quality_brute_oracle(self.groups[i], self.groups[j], kind)
                q[i, j], q[j, i] = pair.q_fg, pair.q_gf
        minimum = max(
            (0.5 - q[i, j]) / math.sqrt((1.0 / sizes[i] + 1.0 / sizes[j]) / 12.0) for i, j in q
        )
        return {"min": minimum, "product": math.prod(q.values()), "sum": math.fsum(q.values())}

    def check(self, depth: str, seed: int, layout, values) -> list[str]:
        reported = dict(zip(layout, values))
        errors = []
        for name, want in self.statistics(depth, seed).items():
            got = reported.get(f"{name}/permutation/statistic")
            if got is None or not math.isclose(got, want, rel_tol=TOLERANCE["statistic_rel"]):
                errors.append(f"{name}: reported {got!r}, brute-oracle q-matrix gives {want!r}")
        return errors
