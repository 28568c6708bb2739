"""depthtest benchmark: one closed-loop client calling the CLI in-process.

    python3 perfbench/run.py --workload skulls-perm --seed 1 --seconds 20 --trace 0

Run from the repository root. Each op is one ``depthtest.cli.main(argv)``
call that writes its report to a temporary file; depths rotate op by op
and every report is checked. A pass of fixed host-speed probe work runs
before and after every op, and each op is timed relative to it
(``HostProbe``). ``--trace 0`` prints the end-to-end metrics named in
BENCHMARK.json, ``--trace 1`` the per-layer metrics of a run in which
every other rotation is traced. The last stdout line is the result
object; earlier lines record the environment and the failure share.
Details and spans go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("skulls-perm", "sim-power", "large-n"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="how long to time ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: fresh interpreters started by a run for set-up timing and
    # for the determinism replay
    parser.add_argument("--child", choices=("setup", "replay"), help=argparse.SUPPRESS)
    parser.add_argument("--child-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is None and (args.seconds is None or args.seconds <= 0):
        parser.error("--seconds must be given and positive")
    return args


def _pin_threads(count: int) -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(count)


def _import_program():
    """Import depthtest from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "depthtest" / "cli.py").is_file():
        raise SystemExit(f"benchmark: {src / 'depthtest'} is missing; run from a full checkout")
    sys.path.insert(0, str(src))
    import depthtest.cli

    if Path(depthtest.cli.__file__).resolve().parent != src / "depthtest":
        raise SystemExit(f"benchmark: imported depthtest from {depthtest.cli.__file__}")
    return depthtest.cli


class HostProbe:
    """Fixed work that measures how fast the host runs at the moment.

    The shared host's CPU speed changes by up to 2x within a minute, and the
    ops slow with it. Each op's wall time is divided by the geometric mean of
    the probes timed just before and just after it, so the timing metrics
    follow the program rather than the host's phase. The three parts stand
    for the kinds of work the ops do: interpreter bytecode, many small numpy
    calls, and sums over an array that does not fit the per-core caches.
    ``measure`` returns the geometric mean of their wall times, which weighs
    a change in each part equally.
    """

    SWEEP_BYTES = 32 * 2**20  # resident for the whole run; peak RSS excludes it

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal(10)
        self._sweep = rng.standard_normal(self.SWEEP_BYTES // 8)

    def measure(self) -> float:
        np = self._np
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        interpreter = time.perf_counter()
        x = self._small
        for _ in range(1_500):
            x = np.sqrt(np.abs(x + self._small))
            np.argsort(x)
        small_calls = time.perf_counter()
        for _ in range(3):
            self._sweep.sum()
        end = time.perf_counter()
        parts = (interpreter - start, small_calls - interpreter, end - small_calls)
        return (parts[0] * parts[1] * parts[2]) ** (1.0 / 3.0)


def _run_op(cli, argv: list[str], output: Path) -> tuple[float, str | None]:
    """One op: wall seconds of the CLI call, and an error text if it failed."""
    start = time.perf_counter()
    try:
        code = cli.main(argv + ["--output", str(output)])
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    except Exception as exc:  # the op failed; the run goes on and counts it
        return time.perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, None if code == 0 else f"exit code {code}"


def _child(args) -> int:
    """Set-up probe (inputs plus one warm-up op per depth) or determinism replay."""
    cli = _import_program()
    import workloads

    child_dir = Path(args.child_dir)
    if args.child == "setup":
        workload = workloads.WORKLOADS[args.workload]
        inputs = child_dir / "inputs"
        workloads.prepare_inputs(workload, inputs)
        orders = workloads.case_orders(workload, args.seed)
        for depth in workloads.DEPTHS:
            argv = workload.argv(depth, int(orders[depth][-1]), inputs)
            _, error = _run_op(cli, argv, child_dir / f"warmup-{depth}.json")
            if error:
                print(f"setup warm-up failed: {error}", file=sys.stderr)
                return 1
        return 0
    jobs = json.loads((child_dir / "replay.json").read_text())
    for job in jobs:
        _, error = _run_op(cli, job["argv"], Path(job["output"]))
        if error:
            print(f"replay failed: {error}", file=sys.stderr)
            return 1
    return 0


def _spawn(args_list: list[str], threads: int) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    command = [sys.executable, str(Path(__file__).resolve()), *args_list]
    try:
        return subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return subprocess.CompletedProcess(command, -1, "", f"timed out after {CHILD_TIMEOUT_S} s")


def _environment(blas_threads_second: int) -> dict:
    import numpy as np
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "determinism_blas_threads": blas_threads_second,
    }


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def main(argv=None) -> int:
    args = _parse(argv)
    if args.child:  # _spawn has set this child's thread variables
        return _child(args)
    _pin_threads(1)

    cli = _import_program()
    import resource

    import workloads
    from tracing import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()["workloads"][workload.name]
    oracle = workloads.SkullsOracle() if workload.name == "skulls-perm" else None

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    inputs = work / "inputs"
    workloads.prepare_inputs(workload, inputs)
    orders = workloads.case_orders(workload, args.seed)

    attempted = 0
    failures: list[str] = []

    def op(depth: str, case: int, output: Path, tracer=None):
        nonlocal attempted
        argv = workload.argv(depth, case, inputs)
        if tracer is not None:
            tracer.install(attempted)
        try:
            elapsed, error = _run_op(cli, argv, output)
        finally:
            if tracer is not None:
                tracer.uninstall()
        attempted += 1
        if error is None:
            error = check(depth, case, output)
        if error:
            failures.append(f"{depth} case {case}: {error}")
        return argv, elapsed, error

    def check(depth: str, case: int, output: Path) -> str | None:
        try:
            layout, values = workload.summarize(json.loads(output.read_text()))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc}"
        errors = workloads.compare(
            layout, values, reference["layout"], reference["values"][depth][case]
        )
        if oracle is not None:
            errors += oracle.check(depth, case, layout, values)
        return "; ".join(errors) or None

    probe = HostProbe()  # first, so that its array is resident for every op
    for depth in workloads.DEPTHS:  # warm-up: lazy imports, caches
        op(depth, int(orders[depth][-1]), work / f"warmup-{depth}.json")
    probe.measure()
    host_before = probe.measure()
    tracer = Tracer() if args.trace else None
    times = {depth: [] for depth in workloads.DEPTHS}
    traced_times = {depth: [] for depth in workloads.DEPTHS}
    # op wall time / probe time around it, per depth
    rel = {depth: [] for depth in workloads.DEPTHS}
    traced_rel = {depth: [] for depth in workloads.DEPTHS}
    probe_times = [host_before]
    first = {}
    rotation = 0
    deadline = time.perf_counter() + args.seconds
    # a traced run needs an untraced rotation too, for the overhead ratio
    min_rotations = 2 if tracer is not None else 1
    while rotation < min_rotations or time.perf_counter() < deadline:
        traced = tracer is not None and rotation % 2 == 0
        for depth in workloads.DEPTHS:
            order = orders[depth]
            case = int(order[rotation % len(order)])
            output = work / f"op-{depth}.json"
            argv, elapsed, error = op(depth, case, output, tracer if traced else None)
            host_after = probe.measure()
            probe_times.append(host_after)
            (traced_times if traced else times)[depth].append(elapsed)
            (traced_rel if traced else rel)[depth].append(
                elapsed / math.sqrt(host_before * host_after))
            host_before = host_after
            if depth not in first and error is None:
                first[depth] = (argv, output.read_bytes())
        rotation += 1
    # ru_maxrss is in KiB; the probe's array is resident throughout the run
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                   - probe.SWEEP_BYTES) / 2**20

    # Determinism spot check, outside the timed region: replay the first
    # successful op of each depth in a fresh interpreter at another BLAS
    # thread count and require byte-identical reports.
    second_threads = max(1, min(2, os.cpu_count() or 1))
    jobs = [
        {"argv": argv, "output": str(work / f"replay-{depth}.json")}
        for depth, (argv, _) in first.items()
    ]
    (work / "replay.json").write_text(json.dumps(jobs))
    replay = _spawn(["--workload", workload.name, "--seed", str(args.seed), "--child", "replay",
                     "--child-dir", str(work)],
                    second_threads)
    determinism = {}
    for depth, (_, want) in first.items():
        attempted += 1
        path = work / f"replay-{depth}.json"
        same = replay.returncode == 0 and path.is_file() and path.read_bytes() == want
        determinism[depth] = same
        if not same:
            failures.append(
                f"{depth}: report differs at {second_threads} BLAS threads "
                f"(replay exit {replay.returncode}: {replay.stderr.strip()[-300:]})"
            )

    metrics: dict[str, float] = {}
    if tracer is None:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            child_dir = work / f"setup-{repeat}"
            child_dir.mkdir()
            start = time.perf_counter()
            probe = _spawn(["--workload", workload.name, "--seed", str(args.seed),
                            "--child", "setup", "--child-dir", str(child_dir)], 1)
            setup_times.append(time.perf_counter() - start)
            attempted += 1
            if probe.returncode != 0:
                failures.append(f"set-up probe failed: {probe.stderr.strip()[-300:]}")
        metrics["setup_s"] = statistics.median(setup_times)
        for depth, samples in rel.items():
            metrics[f"op_rel.{depth}.p50"] = _percentile(samples, 50)
        metrics["peak_rss_mb"] = peak_rss_mb
        wanted = spec["end_to_end"]
    else:
        wanted = spec["per_layer"]
        names = [m["name"] for m in wanted if m["name"] != "trace.overhead_frac"]
        metrics.update(tracer.layer_metrics(names, sum(map(len, traced_times.values()))))
        traced_p50 = sum(_percentile(traced_rel[d], 50) for d in workloads.DEPTHS)
        plain_p50 = sum(_percentile(rel[d], 50) for d in workloads.DEPTHS)
        metrics["trace.overhead_frac"] = traced_p50 / plain_p50 - 1.0

    # Wall-time quantiles and the ratios' tail are reported here, not as
    # metrics: on the shared host this benchmark was tuned on, the first
    # spread past any bound BENCHMARK.json may set and the second past a
    # third of it (README.md, Metrics).
    quantiles = {
        f"op_s.{d}.{name}": value
        for d in workloads.DEPTHS
        for name, value in (("min", min(times[d])), *(
            (f"p{q}", _percentile(times[d], q)) for q in (10, 50, 90)))
    }
    quantiles.update({f"probe_s.p{q}": _percentile(probe_times, q) for q in (10, 50, 90)})
    quantiles.update({f"op_rel.{d}.p90": _percentile(rel[d], 90) for d in workloads.DEPTHS})
    failed = len(failures)
    env = _environment(second_threads)
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "ops_per_depth": {d: len(times[d]) + len(traced_times[d]) for d in workloads.DEPTHS},
        "ops_failed_frac": failed / attempted,
        "failures": failures,
        "determinism": determinism,
        "metrics": metrics,
        "quantiles": quantiles,
        "op_seconds": times,
        "traced_op_seconds": traced_times,
        "op_rel": rel,
        "traced_op_rel": traced_rel,
        "probe_seconds": probe_times,
    }
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(detail, indent=2) + "\n")
    if tracer is not None:
        tracer.write(results / f"{stem}.spans.csv")
        if tracer.missing:
            print(f"trace: sites not found: {', '.join(tracer.missing)}")
    shutil.rmtree(work)

    for failure in failures[:10]:
        print(f"failed op: {failure}", file=sys.stderr)
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"ops_per_depth: {json.dumps(detail['ops_per_depth'])}")
    print(f"quantiles (untraced ops; op_s, probe_s in s): {json.dumps(quantiles)}")
    print(f"ops_failed_frac: {failed / attempted} ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
