"""Command-line front end.

Subcommands: ``two-sample``, ``k-sample``, ``power``, ``type1``,
``scale-curve``. Everything is driven by flags (no environment variables),
all randomness derives from ``--seed``, and reports are emitted as CSV or
JSON. Each subcommand's parser names the handler that runs it and the
columns of its CSV report, and the handlers read the parsed flags
directly. The JSON report's ``config`` block names every flag of every
subcommand; a subcommand reports the parser-level default for each flag
it does not have. Comma lists (``--groups``, ``--stats``, ``--m-grid``,
``--alphas``) must be nonempty. Exit status: 0 success, 1 data/numeric
error, 2 usage error.

On glibc, the first :func:`main` call of a process fixes the allocator's
mmap threshold at 32 MiB and its trim threshold at 64 MiB
(:func:`_fix_malloc_policy`). glibc's own dynamic policy raises both to
the largest mmapped block freed so far, so the process's history decided
which temporaries were unmapped on free and faulted back in on the next
call: a fresh ``power --scenario scale_shift --m-grid 300 --reps 100
--depth projection`` run took 225k minor faults, and now takes 8k. 32 MiB
is the ceiling glibc's dynamic threshold reaches on 64-bit systems, and
the trim threshold is twice it, as glibc sets it; so the policy is the
state the dynamic policy ends in, fixed from the start. ``import
depthtest`` alone leaves the allocator alone, and other platforms run
unchanged.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import functools
import io
import json
import os
import sys

from .calibration import (
    STATISTICS,
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
from .rng import KEY_LIMIT
from .scale_curve import default_alpha_grid, scale_curve
from .simulation import (
    SCENARIOS,
    SIZE_RULES,
    ScenarioSpec,
    power_table,
    type1_quantiles,
)
from .two_sample import MANOVA_KINDS, TestOutcome, manova


class UsageError(Exception):
    """Bad flag combination detected after argparse; maps to exit code 2."""


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


def _depth(args: argparse.Namespace) -> DepthKind:
    return DepthKind(kind=args.depth, direction_count=args.directions, direction_seed=args.seed)


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


def _first_repeat(items):
    """The first item that also occurs earlier in ``items``, or None."""
    seen = set()
    for item in items:
        if item in seen:
            return item
        seen.add(item)
    return None


def _load_groups(args: argparse.Namespace) -> LabeledDataset:
    repeated = _first_repeat(args.groups or ())
    if repeated is not None:
        raise UsageError(f"group {repeated!r} is listed more than once in --groups")
    dataset = load_csv(args.input, args.group_column)
    if args.groups:
        dataset = dataset.subset(args.groups)
    return dataset


def _asymptotic_pvalue(
    name: str, value: float, sizes, args: argparse.Namespace
) -> tuple[float, str]:
    """Limit-law p-value of ``min`` (or ``max``, two groups only) and its method."""
    if name == "max":
        return chi2_1_pvalue(value), "asymptotic"
    if len(sizes) == 2:
        return half_normal_pvalue(value), "asymptotic"
    spec = CalibrationSpec(replications=args.mc_draws, seed=args.seed)
    return mc_asymptotic_min_pvalue(value, sizes, spec), "monte_carlo"


def _run_tests(args: argparse.Namespace) -> dict:
    dataset = _load_groups(args)
    groups = list(dataset.groups.values())
    k = len(groups)
    if k < 2:
        raise UsageError("need at least 2 groups for a test command")
    if args.command == "two-sample" and k != 2:
        raise UsageError(
            f"two-sample requires exactly 2 groups, found {k} ({', '.join(dataset.labels)}); "
            "use --groups or the k-sample command"
        )
    # MANOVA names are split off below, before the engine checks for repeats
    repeated = _first_repeat(args.statistics)
    if repeated is not None:
        raise UsageError(f"statistic {repeated!r} is requested more than once")
    sizes = tuple(g.shape[0] for g in groups)
    depth = _depth(args)

    manova_names = [s for s in args.statistics if s in MANOVA_KINDS]
    depth_names = [s for s in args.statistics if s not in MANOVA_KINDS]
    if manova_names and args.command != "two-sample":
        raise UsageError("MANOVA statistics are two-sample only")

    # One evaluation of the observed partition: permutation_report already
    # returns the observed values alongside its p-values.
    perm_outcomes: dict[str, TestOutcome] = {}
    observed: dict[str, float] = {}
    if depth_names and args.permutations > 0:
        spec = CalibrationSpec(replications=args.permutations, seed=args.seed)
        report = permutation_report(groups, depth_names, depth, spec)
        perm_outcomes = {outcome.statistic_name: outcome for outcome in report}
        observed = {name: outcome.statistic for name, outcome in perm_outcomes.items()}
    elif depth_names:
        observed = evaluate_statistics(groups, depth_names, depth)

    outcomes = []
    for name in args.statistics:
        if name in MANOVA_KINDS:
            outcomes.append(manova(groups[0], groups[1], name))
            continue
        asymptotic = args.asymptotic and name in ("min", "max")
        if name in perm_outcomes:
            outcomes.append(perm_outcomes[name])
        elif not asymptotic:
            outcomes.append(
                statistic_outcome(name, observed[name], None, "none", depth, sizes)
            )
        if asymptotic:
            p, method = _asymptotic_pvalue(name, observed[name], sizes, args)
            outcomes.append(statistic_outcome(name, observed[name], p, method, depth, sizes))
    rows = [_outcome_row(outcome, args.seed) for outcome in outcomes]
    return {"results": rows, "fixture_hashes": {args.input: dataset.sha256}}


def _run_power(args: argparse.Namespace) -> dict:
    spec = _scenario_spec(args)
    names = args.statistics or tuple(
        name for name, statistic in STATISTICS.items()
        if statistic.depth_based and statistic.defined_at(spec.group_count)
    )
    table = power_table(spec, names)
    rows = []
    for name in table.statistics:
        for m in spec.m_grid:
            rows.append(_sim_row(name, m, table.sizes[m], args, table.rates[(name, m)]))
    for m in spec.m_grid:
        rows.append(_sim_row("min_asymptotic", m, table.sizes[m], args, table.asymptotic_min[m]))
    return {"results": rows}


def _run_type1(args: argparse.Namespace) -> dict:
    spec = _scenario_spec(args)
    table = type1_quantiles(spec)
    rows = []
    for row in table.rows:
        rows.append(_sim_row("min_quantile", row.m, row.sizes, args, row.quantile))
        rows.append(_sim_row("asymptotic_reference", row.m, row.sizes, args, table.reference))
    return {"results": rows}


def _sim_row(name: str, m: int, sizes, args: argparse.Namespace, value: float) -> dict:
    return {
        "statistic": name,
        "m": m,
        "n": ";".join(str(s) for s in sizes[1:]),
        "depth": args.depth,
        "value": _fmt_stat(value),
    }


def _scenario_spec(args: argparse.Namespace) -> ScenarioSpec:
    profile = PROFILES[args.profile]
    # reflect the resolved values in the emitted config block
    args.m_grid = args.m_grid or profile["m_grid"]
    if args.replications is None:
        args.replications = profile[args.command]
    try:
        return ScenarioSpec(
            scenario=args.scenario,
            m_grid=args.m_grid,
            size_rule=args.size_rule,
            depth=_depth(args),
            replications=args.replications,
            seed=args.seed,
            alpha_level=args.alpha_level,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _run_scale_curve(args: argparse.Namespace) -> dict:
    dataset = _load_groups(args)
    alphas = list(args.alphas) if args.alphas else default_alpha_grid()
    depth = _depth(args)
    rows = []
    for label, sample in dataset.groups.items():
        curve = scale_curve(sample, alphas, depth)
        for alpha, volume in zip(curve.alphas, curve.volumes):
            rows.append(
                {"group": label, "alpha": float(f"{alpha:.6g}"), "volume": _fmt_stat(volume)}
            )
    return {"results": rows, "fixture_hashes": {args.input: dataset.sha256}}


def _emit(args: argparse.Namespace, body: dict) -> None:
    if args.format == "json":
        report = {
            "config": {
                key: value for key, value in vars(args).items()
                if key not in ("handler", "columns", "output")
            },
            "results": body["results"],
            "fixture_hashes": body.get("fixture_hashes", {}),
        }
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(args.columns)
        for row in body["results"]:
            cells = (row.get(col) for col in args.columns)
            writer.writerow(";".join(map(str, c)) if isinstance(c, list) else c for c in cells)
        text = buffer.getvalue()
    if args.output:
        # open(), not Path: Path interns the parts of each new file name,
        # which churns a long-lived process's interned-string table
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def run(args: argparse.Namespace) -> int:
    """Run the parsed subcommand's handler and emit its report; returns 0."""
    _emit(args, args.handler(args))
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
_NAMES = _checked(_str_list, bool, "must be a nonempty list")
_SEED = _checked(int, lambda v: 0 <= v < KEY_LIMIT, "must be inside [0, 2^64)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: each ``parse_args`` call returns a
    fresh namespace, and handlers write only to that namespace."""
    parser = argparse.ArgumentParser(
        prog="depthtest",
        description="Depth-based multivariate homogeneity tests, simulations, and scale curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # what the config block reports for the flags a subcommand does not have;
    # each subcommand's own defaults override these
    parser.set_defaults(
        input=None, group_column=None, groups=None, statistics=None, permutations=0,
        asymptotic=False, mc_draws=1_000_000, scenario=None, m_grid=None, size_rule="equal",
        replications=None, profile="desk", alpha_level=0.05, alphas=None,
    )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--depth", choices=VALID_KINDS, default="mahalanobis")
        p.add_argument("--directions", type=_COUNT, default=DEFAULT_DIRECTION_COUNT,
                       help="projection depth direction count")
        p.add_argument("--seed", type=_SEED, default=0)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--output", default=None, help="write the report here instead of stdout")

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="CSV file with a group-label column")
        p.add_argument("--group", dest="group_column", required=True,
                       help="group column name or 0-based index")
        p.add_argument("--groups", type=_NAMES, default=None,
                       help="comma-separated group labels to keep")

    for name in ("two-sample", "k-sample"):
        p = sub.add_parser(name, help=f"{name} homogeneity tests")
        p.set_defaults(
            handler=_run_tests,
            columns=("statistic_name", "statistic", "p_value", "method", "depth", "sizes", "seed"),
        )
        add_input(p)
        p.add_argument("--stats", dest="statistics", type=_NAMES, required=True,
                       help=f"comma list from {', '.join((*STATISTICS, *MANOVA_KINDS))}")
        p.add_argument("--perms", dest="permutations", default=0,
                       type=_checked(int, lambda v: v >= 0, "must be >= 0"),
                       help="permutation replications B")
        p.add_argument("--asymptotic", action="store_true",
                       help="also report asymptotic/Monte-Carlo p-values for min (and max)")
        p.add_argument("--mc-draws", type=_COUNT, default=1_000_000,
                       help="draws for the k-sample asymptotic Monte-Carlo p-value")
        add_common(p)

    for name in ("power", "type1"):
        p = sub.add_parser(name, help=f"{name} simulation study")
        p.set_defaults(handler=_run_power if name == "power" else _run_type1,
                       columns=("statistic", "m", "n", "depth", "value"))
        # type-I quantiles exist only under the null
        scenarios = tuple(SCENARIOS) if name == "power" else ("null",)
        p.add_argument("--scenario", choices=scenarios, required=True)
        p.add_argument("--m-grid", default=None,
                       type=_checked(_checked(_int_list, bool, "must be a nonempty list"),
                                     lambda grid: all(m >= 4 for m in grid),
                                     "every entry must be >= 4"),
                       help="comma list of first-group sizes; default from --profile")
        p.add_argument("--size-rule", choices=SIZE_RULES, default="equal")
        p.add_argument("--reps", dest="replications", type=_COUNT, default=None,
                       help="replications; default from --profile")
        p.add_argument("--profile", choices=tuple(PROFILES), default="desk",
                       help="desk: minutes-scale defaults; full: the original study scale")
        p.add_argument("--alpha", dest="alpha_level", default=0.05,
                       type=_checked(float, lambda v: 0.0 < v < 1.0, "must be inside (0, 1)"))
        if name == "power":
            p.add_argument("--stats", dest="statistics", type=_NAMES, default=None)
        add_common(p)

    p = sub.add_parser("scale-curve", help="central-region volumes per group (scale curves)")
    p.set_defaults(handler=_run_scale_curve, columns=("group", "alpha", "volume"))
    add_input(p)
    p.add_argument("--alphas", default=None,
                   type=_checked(_float_list,
                                 lambda alphas: bool(alphas)
                                 and all(0.0 < a <= 1.0 for a in alphas)
                                 and all(a < b for a, b in zip(alphas, alphas[1:])),
                                 "must be a nonempty, strictly increasing list inside (0, 1]"),
                   help="comma list of central-mass fractions p, each giving the volume of "
                        "the hull of the ceil(p n) deepest rows (Liu, Parelius & Singh 1999); "
                        "default 0.01..0.99")
    add_common(p)
    return parser


@functools.cache
def _fix_malloc_policy() -> None:
    """Fix glibc's mmap and trim thresholds for this process, once.

    Does nothing where the C library is not glibc or has no ``mallopt``;
    the trim threshold is left alone if glibc refuses the mmap threshold.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # malloc.h's M_MMAP_THRESHOLD (-3) at DEFAULT_MMAP_THRESHOLD_MAX for
    # 64-bit systems, then M_TRIM_THRESHOLD (-1) at twice it
    if mallopt(-3, 32 << 20):
        mallopt(-1, 64 << 20)


def main(argv=None) -> int:
    """Run the depthtest CLI on ``argv`` (default ``sys.argv[1:]``) and
    return its exit status.

    The first call of a process fixes glibc's mmap threshold at 32 MiB and
    its trim threshold at 64 MiB, before parsing, so that temporaries under
    32 MiB are reused from the heap, not unmapped and faulted back in on
    the next call. Without it, a fresh skulls 3-epoch ``k-sample --stats
    min,product,sum,dbr --perms 99 --asymptotic --depth projection`` run
    took 47.8k minor faults (6.8k with it),
    and a process rotating the skulls permutation runs over the three
    depths took about 220 faults per spatial and 235 per projection run
    (0–4 with it). Where the C library is not glibc, or ``mallopt`` is
    missing or refuses, nothing is set.
    """
    _fix_malloc_policy()
    args = _build_parser().parse_args(argv)
    try:
        return run(args)
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
