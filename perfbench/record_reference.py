"""Record the reference values every benchmark op is checked against.

    python3 perfbench/record_reference.py

Runs every case of every workload at every depth once, through the same
CLI call the benchmark times, and rewrites ``perfbench/reference.json``
with each report's statistics, p-values and rejection rates. The skulls
cases are also checked against the brute-oracle q-matrix before anything
is written. Takes about two minutes on one core.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import OUT_DIR, _import_program, _pin_threads, _run_op


def main() -> int:
    _pin_threads(1)
    cli = _import_program()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=OUT_DIR))
    recorded = {}
    try:
        for workload in workloads.WORKLOADS.values():
            inputs = work / workload.name
            workloads.prepare_inputs(workload, inputs)
            oracle = workloads.SkullsOracle() if workload.name == "skulls-perm" else None
            layouts, values = set(), {}
            for depth in workloads.DEPTHS:
                values[depth] = []
                for case in range(workload.pool):
                    output = work / "report.json"
                    _, error = _run_op(cli, workload.argv(depth, case, inputs), output)
                    if error:
                        raise SystemExit(f"{workload.name} {depth} case {case}: {error}")
                    layout, row = workload.summarize(json.loads(output.read_text()))
                    if oracle is not None:
                        errors = oracle.check(depth, case, layout, row)
                        if errors:
                            raise SystemExit(f"{workload.name} {depth} case {case}: {errors}")
                    layouts.add(tuple(layout))
                    values[depth].append(row)
                print(f"{workload.name} {depth}: {workload.pool} cases", file=sys.stderr)
            if len(layouts) != 1:
                raise SystemExit(f"{workload.name}: report rows vary between cases")
            recorded[workload.name] = {"layout": list(layouts.pop()), "values": values}
    finally:
        shutil.rmtree(work)

    # one case per line keeps the file reviewable in a diff
    lines = ["{", f'"tolerance": {json.dumps(workloads.TOLERANCE)},', '"workloads": {']
    for w_index, (name, entry) in enumerate(recorded.items()):
        lines.append(f'{json.dumps(name)}: {{"layout": {json.dumps(entry["layout"])}, "values": {{')
        for d_index, (depth, rows) in enumerate(entry["values"].items()):
            lines.append(f"{json.dumps(depth)}: [")
            lines += [json.dumps(row) + ("," if i + 1 < len(rows) else "") for i, row in enumerate(rows)]
            lines.append("]" + ("," if d_index + 1 < len(entry["values"]) else ""))
        lines.append("}}" + ("," if w_index + 1 < len(recorded) else ""))
    lines += ["}", "}"]
    workloads.REFERENCE_PATH.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
