"""Command-line front end.

Subcommands: ``two-sample``, ``k-sample``, ``power``, ``type1``,
``scale-curve``. Everything is driven by flags (no environment variables),
all randomness derives from ``--seed``, and reports are emitted as CSV or
JSON. Exit status: 0 success, 1 data/numeric error, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .calibration import (
    STATISTIC_NAMES,
    CalibrationSpec,
    chi2_1_pvalue,
    evaluate_statistics,
    half_normal_pvalue,
    mc_asymptotic_min_pvalue,
    permutation_report,
    statistic_outcome,
)
from .dataset import LabeledDataset, load_csv
from .depths import DEFAULT_DIRECTION_COUNT, VALID_KINDS, DepthKind
from .errors import DepthTestError, UnknownStatistic
from .scale_curve import default_alpha_grid, scale_curve
from .simulation import (
    SCENARIOS,
    SIZE_RULES,
    ScenarioSpec,
    power_table,
    type1_quantiles,
)
from .two_sample import MANOVA_KINDS, TestOutcome, manova

TEST_COMMANDS = ("two-sample", "k-sample")


class UsageError(Exception):
    """Bad flag combination detected after argparse; maps to exit code 2."""


@dataclass
class RunConfig:
    command: str
    depth: DepthKind
    seed: int
    output_format: str = "json"
    output_path: str | None = None
    input_path: str | None = None
    group_column: str | int | None = None
    group_filter: tuple[str, ...] | None = None
    statistics: tuple[str, ...] = ()
    permutations: int = 0
    asymptotic: bool = False
    mc_draws: int = 1_000_000
    scenario: str | None = None
    m_grid: tuple[int, ...] = ()
    size_rule: str = "equal"
    replications: int | None = None
    profile: str = "desk"
    alpha_level: float = 0.05
    alphas: tuple[float, ...] = ()


# Simulation scale profiles: grid of first-group sizes and replication count
# (type-I quantile runs historically use an order of magnitude more
# replications than power runs at full scale).
PROFILES = {
    "desk": {"m_grid": tuple(range(100, 501, 100)), "type1": 500, "power": 500},
    "full": {"m_grid": tuple(range(100, 1001, 100)), "type1": 10_000, "power": 1000},
}


def _fmt_stat(value: float) -> float:
    return float(f"{value:.9g}")


def _fmt_p(value: float | None) -> float | None:
    return None if value is None else float(f"{value:.6g}")


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _depth_label(kind: DepthKind | None) -> str:
    return "" if kind is None else kind.kind


def _outcome_row(outcome: TestOutcome, seed: int) -> dict:
    return {
        "statistic_name": outcome.statistic_name,
        "statistic": _fmt_stat(outcome.statistic),
        "p_value": _fmt_p(outcome.p_value),
        "method": outcome.method,
        "depth": _depth_label(outcome.depth_kind),
        "sizes": list(outcome.sizes),
        "seed": seed,
    }


def _load_groups(config: RunConfig) -> tuple[LabeledDataset, list]:
    if config.input_path is None:
        raise UsageError(f"{config.command} requires --input")
    if config.group_column is None:
        raise UsageError(f"{config.command} requires --group")
    dataset = load_csv(config.input_path, config.group_column)
    if config.group_filter:
        dataset = dataset.subset(config.group_filter)
    if len(dataset.groups) < 2:
        raise UsageError("need at least 2 groups for a test command")
    return dataset, list(dataset.groups.values())


def _asymptotic_pvalue(name: str, value: float, sizes, config: RunConfig) -> tuple[float, str]:
    """Limit-law p-value of ``min`` (or ``max``, two groups only) and its method."""
    if name == "max":
        return chi2_1_pvalue(value), "asymptotic"
    if len(sizes) == 2:
        return half_normal_pvalue(value), "asymptotic"
    spec = CalibrationSpec(method="monte_carlo", replications=config.mc_draws, seed=config.seed)
    return mc_asymptotic_min_pvalue(value, sizes, spec), "monte_carlo"


def _run_tests(config: RunConfig) -> dict:
    dataset, groups = _load_groups(config)
    k = len(groups)
    if config.command == "two-sample" and k != 2:
        raise UsageError(
            f"two-sample requires exactly 2 groups, found {k} ({', '.join(dataset.labels)}); "
            "use --groups or the k-sample command"
        )
    if not config.statistics:
        raise UsageError("--stats must name at least one statistic")
    sizes = tuple(g.shape[0] for g in groups)

    manova_names = [s for s in config.statistics if s in MANOVA_KINDS]
    depth_names = [s for s in config.statistics if s not in MANOVA_KINDS]
    if manova_names and config.command != "two-sample":
        raise UsageError("MANOVA statistics are two-sample only")

    # One evaluation of the observed partition: permutation_report already
    # returns the observed values alongside its p-values.
    perm_outcomes: dict[str, TestOutcome] = {}
    observed: dict[str, float] = {}
    if depth_names and config.permutations > 0:
        spec = CalibrationSpec(
            method="permutation", replications=config.permutations, seed=config.seed
        )
        report = permutation_report(groups, depth_names, config.depth, spec)
        perm_outcomes = {outcome.statistic_name: outcome for outcome in report}
        observed = {name: outcome.statistic for name, outcome in perm_outcomes.items()}
    elif depth_names:
        observed = evaluate_statistics(groups, depth_names, config.depth)

    outcomes = []
    for name in config.statistics:
        if name in MANOVA_KINDS:
            outcomes.append(manova(groups[0], groups[1], name))
            continue
        asymptotic = config.asymptotic and name in ("min", "max")
        if name in perm_outcomes:
            outcomes.append(perm_outcomes[name])
        elif not asymptotic:
            outcomes.append(
                statistic_outcome(name, observed[name], None, "none", config.depth, sizes)
            )
        if asymptotic:
            p, method = _asymptotic_pvalue(name, observed[name], sizes, config)
            outcomes.append(
                statistic_outcome(name, observed[name], p, method, config.depth, sizes)
            )
    rows = [_outcome_row(outcome, config.seed) for outcome in outcomes]
    return {"results": rows, "labels": list(dataset.labels)}


def _run_power(config: RunConfig) -> dict:
    spec = _scenario_spec(config)
    names = config.statistics or _default_sim_statistics(spec)
    table = power_table(spec, names)
    rows = []
    for name in table.statistics:
        for m in spec.m_grid:
            rows.append(_sim_row(name, m, table.sizes[m], config, table.rates[(name, m)]))
    for m in spec.m_grid:
        rows.append(_sim_row("min_asymptotic", m, table.sizes[m], config, table.asymptotic_min[m]))
    return {"results": rows}


def _run_type1(config: RunConfig) -> dict:
    spec = _scenario_spec(config)
    table = type1_quantiles(spec)
    rows = []
    for row in table.rows:
        rows.append(_sim_row("min_quantile", row.m, row.sizes, config, row.quantile))
        rows.append(_sim_row("asymptotic_reference", row.m, row.sizes, config, table.reference))
    return {"results": rows}


def _sim_row(name: str, m: int, sizes, config: RunConfig, value: float) -> dict:
    return {
        "statistic": name,
        "m": m,
        "n": ";".join(str(s) for s in sizes[1:]),
        "depth": config.depth.kind,
        "value": _fmt_stat(value),
    }


def _default_sim_statistics(spec: ScenarioSpec) -> tuple[str, ...]:
    if spec.group_count == 2:
        return ("min", "max", "product", "sum", "dbr", "bdbr")
    return ("min", "product", "sum", "dbr")


def _scenario_spec(config: RunConfig) -> ScenarioSpec:
    if config.scenario is None:
        raise UsageError(f"{config.command} requires --scenario")
    profile = PROFILES[config.profile]
    m_grid = config.m_grid or profile["m_grid"]
    replications = config.replications
    if replications is None:
        replications = profile["type1" if config.command == "type1" else "power"]
    # reflect the resolved values in the emitted config block
    config.m_grid = m_grid
    config.replications = replications
    try:
        return ScenarioSpec(
            scenario=config.scenario,
            m_grid=m_grid,
            size_rule=config.size_rule,
            depth=config.depth,
            replications=replications,
            seed=config.seed,
            alpha_level=config.alpha_level,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _run_scale_curve(config: RunConfig) -> dict:
    dataset, _ = _load_groups(config)
    alphas = list(config.alphas) if config.alphas else default_alpha_grid()
    rows = []
    for label, sample in dataset.groups.items():
        curve = scale_curve(sample, alphas, config.depth)
        for alpha, volume in zip(curve.alphas, curve.volumes):
            rows.append(
                {"group": label, "alpha": float(f"{alpha:.6g}"), "volume": _fmt_stat(volume)}
            )
    return {"results": rows}


_CSV_COLUMNS = {
    "two-sample": ("statistic_name", "statistic", "p_value", "method", "depth", "sizes", "seed"),
    "k-sample": ("statistic_name", "statistic", "p_value", "method", "depth", "sizes", "seed"),
    "power": ("statistic", "m", "n", "depth", "value"),
    "type1": ("statistic", "m", "n", "depth", "value"),
    "scale-curve": ("group", "alpha", "volume"),
}


def _config_dict(config: RunConfig) -> dict:
    return {
        "command": config.command,
        "input": config.input_path,
        "group_column": config.group_column,
        "groups": list(config.group_filter) if config.group_filter else None,
        "depth": config.depth.kind,
        "directions": config.depth.direction_count,
        "statistics": list(config.statistics) if config.statistics else None,
        "permutations": config.permutations,
        "asymptotic": config.asymptotic,
        "mc_draws": config.mc_draws,
        "scenario": config.scenario,
        "m_grid": list(config.m_grid) if config.m_grid else None,
        "size_rule": config.size_rule,
        "replications": config.replications,
        "profile": config.profile,
        "alpha_level": config.alpha_level,
        "seed": config.seed,
        "format": config.output_format,
    }


def _emit(config: RunConfig, body: dict) -> None:
    if config.output_format == "json":
        report = {
            "config": _config_dict(config),
            "results": body["results"],
            "fixture_hashes": (
                {config.input_path: _sha256(config.input_path)} if config.input_path else {}
            ),
        }
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        columns = _CSV_COLUMNS[config.command]
        lines = [",".join(columns)]
        for row in body["results"]:
            cells = []
            for col in columns:
                value = row.get(col)
                if value is None:
                    cells.append("")
                elif isinstance(value, list):
                    cells.append(";".join(str(v) for v in value))
                else:
                    cells.append(str(value))
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
    if config.output_path:
        Path(config.output_path).write_text(text)
    else:
        sys.stdout.write(text)


def run(config: RunConfig) -> int:
    """Execute one configured pipeline and emit its report; returns 0."""
    if config.command in TEST_COMMANDS:
        body = _run_tests(config)
    elif config.command == "power":
        body = _run_power(config)
    elif config.command == "type1":
        body = _run_type1(config)
    elif config.command == "scale-curve":
        body = _run_scale_curve(config)
    else:
        raise UsageError(f"unknown command {config.command!r}")
    _emit(config, body)
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok)


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _checked(convert, valid, requirement: str):
    """argparse type: ``convert`` the flag text, then reject values that fail
    ``valid`` as a usage error (exit 2) stating ``requirement``."""

    def parse(text: str):
        value = convert(text)
        if not valid(value):
            raise argparse.ArgumentTypeError(f"{text!r}: {requirement}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid <type> value"
    return parse


_COUNT = _checked(int, lambda v: v >= 1, "must be >= 1")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depthtest",
        description="Depth-based multivariate homogeneity tests, simulations, and scale curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--depth", choices=VALID_KINDS, default="mahalanobis")
        p.add_argument("--directions", type=_COUNT, default=DEFAULT_DIRECTION_COUNT,
                       help="projection depth direction count")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="CSV file with a group-label column")
        p.add_argument("--group", required=True, help="group column name or 0-based index")
        p.add_argument("--groups", type=_str_list, default=None,
                       help="comma-separated group labels to keep")

    for name in TEST_COMMANDS:
        p = sub.add_parser(name, help=f"{name} homogeneity tests")
        add_input(p)
        p.add_argument("--stats", type=_str_list, required=True,
                       help=f"comma list from {', '.join(STATISTIC_NAMES + MANOVA_KINDS)}")
        p.add_argument("--perms", type=_checked(int, lambda v: v >= 0, "must be >= 0"),
                       default=0, help="permutation replications B")
        p.add_argument("--asymptotic", action="store_true",
                       help="also report asymptotic/Monte-Carlo p-values for min (and max)")
        p.add_argument("--mc-draws", type=_COUNT, default=1_000_000,
                       help="draws for the k-sample asymptotic Monte-Carlo p-value")
        add_common(p)

    for name in ("power", "type1"):
        p = sub.add_parser(name, help=f"{name} simulation study")
        p.add_argument("--scenario", choices=tuple(SCENARIOS), required=True)
        p.add_argument("--m-grid", default=None,
                       type=_checked(_int_list, lambda grid: all(m >= 4 for m in grid),
                                     "every entry must be >= 4"),
                       help="comma list of first-group sizes; default from --profile")
        p.add_argument("--size-rule", choices=SIZE_RULES, default="equal")
        p.add_argument("--reps", type=_COUNT, default=None,
                       help="replications; default from --profile")
        p.add_argument("--profile", choices=tuple(PROFILES), default="desk",
                       help="desk: minutes-scale defaults; full: the original study scale")
        p.add_argument("--alpha", type=_checked(float, lambda v: 0.0 < v < 1.0,
                                                "must be inside (0, 1)"), default=0.05)
        if name == "power":
            p.add_argument("--stats", type=_str_list, default=None)
        add_common(p)

    p = sub.add_parser("scale-curve", help="depth-trimmed region volumes per group")
    add_input(p)
    p.add_argument("--alphas", default=None,
                   type=_checked(_float_list,
                                 lambda alphas: bool(alphas)
                                 and all(0.0 < a <= 1.0 for a in alphas)
                                 and all(a < b for a, b in zip(alphas, alphas[1:])),
                                 "must be a nonempty, strictly increasing list inside (0, 1]"),
                   help="comma list of trimming levels; default 0.01..0.99")
    add_common(p)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    depth = DepthKind(
        kind=args.depth,
        direction_count=args.directions,
        direction_seed=args.seed,
    )
    config = RunConfig(
        command=args.command,
        depth=depth,
        seed=args.seed,
        output_format=args.format,
        output_path=args.output,
    )
    if args.command in TEST_COMMANDS:
        config.input_path = args.input
        config.group_column = args.group
        config.group_filter = args.groups
        config.statistics = args.stats or ()
        config.permutations = args.perms
        config.asymptotic = args.asymptotic
        config.mc_draws = args.mc_draws
    elif args.command in ("power", "type1"):
        config.scenario = args.scenario
        config.m_grid = args.m_grid or ()
        config.size_rule = args.size_rule
        config.replications = args.reps
        config.profile = args.profile
        config.alpha_level = args.alpha
        if args.command == "power":
            config.statistics = args.stats or ()
    else:
        config.input_path = args.input
        config.group_column = args.group
        config.group_filter = args.groups
        config.alphas = args.alphas or ()
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run(_config_from_args(args))
    except (UsageError, UnknownStatistic) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DepthTestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
