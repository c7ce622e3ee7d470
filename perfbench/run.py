"""The repository benchmark: four planning workloads, timed end to end.

    python3 perfbench/run.py --workload search-zoo --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` re-runs the workload with every layer wrapped and reports
the per-layer metrics instead.  The program is run from source
(``src/``); every input is generated from ``--seed``.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

See ``README.md`` in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time

from common import ROOT, SRC, fmt_table, host_ref_score_ms, program_present


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"error: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    declared = _declared()
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402 - needs the program on sys.path

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    gated = args.workload in {w["name"] for w in declared["workloads"]}
    wanted = list(declared["per_layer" if args.trace else "end_to_end"])
    host_ms = host_ref_score_ms()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"{'traced' if args.trace else 'untraced'}"
          + ("" if gated else " (not in BENCHMARK.json: reported, not gated)"))
    print(f"host.ref_score_ms = {host_ms:.3f} (fixed pure-Python loop; "
          f"recorded, never used to scale a gated number)")
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        bool(args.trace))
    t0 = time.perf_counter()
    try:
        outcome = workloads.WORKLOADS[args.workload](run)
    except workloads.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.stop_all()
        shutil.rmtree(run.workdir, ignore_errors=True)
    values = dict(outcome.layers if args.trace else outcome.metrics)
    if args.trace:
        values["host.ref_score_ms"] = host_ms
    if not gated:
        # Layers only an ungated workload reaches are not in BENCHMARK.json.
        wanted += [{"name": name, "unit": unit}
                   for name, unit in workloads.UNGATED_LAYERS.items()
                   if name in values]
    unknown = sorted(set(values) - {m["name"] for m in wanted})
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if unknown or (missing and not args.trace):
        print(f"error: metrics out of step with BENCHMARK.json: unknown "
              f"{unknown}, missing {missing}", file=sys.stderr)
        return 1
    for line in outcome.report:
        print(line)
    rows = [[m["name"], values.get(m["name"], 0.0), m["unit"],
             "" if m["name"] in values else "(layer not on this path)"]
            for m in wanted]
    print(fmt_table(["metric", "value", "unit", ""], rows))
    print(f"ops attempted {outcome.attempted}, failed {outcome.failed}; "
          f"run took {time.perf_counter() - t0:.1f} s")
    for problem in outcome.problems:
        print(f"check failed: {problem}")
    bad = [name for name, value in values.items()
           if not math.isfinite(value)]
    if bad:
        print(f"error: non-finite metrics {bad}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)),
                        "unit": m["unit"]}
            for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
