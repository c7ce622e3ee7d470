"""The process the timed ops run in: a fresh interpreter per run.

    python3 perfbench/child.py search < job.json   # search-zoo, fleet-search
    python3 perfbench/child.py sweep  < job.json   # sweep-cache
    python3 perfbench/child.py exec serve --port 0 # any `repro` command

A job with ``"setup_only": true`` stops once the process is ready to
time its first op: a cheap ``setup_s`` sample.

``run.py`` generates every input from its seed and sends
it as a JSON job on stdin; this process only imports the program, runs
the ops it is given and reports what it saw as tagged JSON lines on
stdout (``perfbench:<kind> <json>``).  It checks nothing itself: the
``run.py`` compares the outputs against references it computes separately.

``exec`` runs one ``repro`` CLI command (``serve``, ``worker``) in this
wrapper so ``run.py`` learns its import time and peak memory.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import threading
import time
import warnings
from contextlib import nullcontext

from common import children_peak_rss_kb, emit, peak_rss_kb


class SpreadOverCpus:
    """While active, moves the calling thread to the next CPU every few
    milliseconds, so that what it times averages the speeds of all the
    CPUs it may run on.

    On a shared host the CPUs of one guest run at different speeds (in
    one probe the same loop took ~42 ms on one CPU and ~30 ms on the
    other), and a single-threaded stretch of work is fast or slow by
    where the scheduler happened to leave it: its times form two
    clusters, and a median of them jumps between the clusters from run
    to run.  Only work that starts no thread or process is spread:
    those would inherit the one-CPU mask.  The full mask is restored on
    exit."""

    PERIOD_S = 0.002

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.tid = threading.get_native_id()
        self.stop = threading.Event()
        self.thread: threading.Thread | None = None

    def _rotate(self) -> None:
        turn = 0
        while not self.stop.wait(self.PERIOD_S):
            turn += 1
            os.sched_setaffinity(self.tid,
                                 {self.cpus[turn % len(self.cpus)]})

    def __enter__(self) -> "SpreadOverCpus":
        if len(self.cpus) > 1:
            self.thread = threading.Thread(target=self._rotate, daemon=True)
            self.thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self.thread is not None:
            self.stop.set()
            self.thread.join()
            os.sched_setaffinity(self.tid, set(self.cpus))


def _import_program() -> float:
    with SpreadOverCpus():
        t0 = time.perf_counter()
        import repro.cli  # noqa: F401 - the import is what is timed

        return time.perf_counter() - t0


def _exec(argv) -> int:
    emit("import", {"s": _import_program()})
    from repro.cli import main

    rc = main(argv)
    emit("rss", {"self_kb": peak_rss_kb(), "children_kb": children_peak_rss_kb()})
    return rc


class _Runner:
    """Runs whole rotation cycles of ops and keeps what they produced."""

    def __init__(self, job: dict) -> None:
        self.job = job
        self.rec = None
        self.tally = None
        self.ops: list = []
        self.texts: dict = {}

    def install_tracing(self) -> None:
        import spans

        self.rec = spans.Recorder()
        self.tally = spans.install(self.rec)

    def span(self, name: str):
        return self.rec.span(name) if self.rec else nullcontext()

    def run(self, op) -> None:
        """Cycle 0 is the cold pass; then whole cycles until the time and
        sample floors are met (or exactly ``fixed_cycles`` more)."""
        job = self.job
        cycles = job["cycles"]
        for item in cycles[0]:
            op(0, item)
        t_start = time.perf_counter()
        cycle = 1
        while cycle < len(cycles):
            if job.get("fixed_cycles") is not None:
                if cycle > job["fixed_cycles"]:
                    break
            else:
                elapsed = time.perf_counter() - t_start
                steady = len(self.ops) - len(cycles[0]) * job.get(
                    "ops_per_item", 1)
                if elapsed >= job["max_seconds"] or (
                        elapsed >= job["seconds"]
                        and steady >= job["min_ops"]):
                    break
            for item in cycles[cycle]:
                op(cycle, item)
            cycle += 1

    def layers(self) -> dict:
        """Per-op span summary; the span log is written out here, once,
        at the end of the run."""
        if self.rec is None:
            return {}
        if self.job.get("span_log"):
            self.rec.write(self.job["span_log"])
        return self.rec.per_op(len(self.ops))


def _search(job: dict) -> None:
    import_s = _import_program()
    from repro.api import ScenarioSpec, Session
    from repro.obs.metrics import MetricsRegistry

    runner = _Runner(job)
    if job.get("trace"):
        runner.install_tracing()
    inputs = job["inputs"]
    Session(ScenarioSpec.from_dict(inputs[job["cycles"][0][0]]))
    emit("ready", {"import_s": import_s})
    if job.get("setup_only"):
        return
    seen_inputs = set()

    def op(cycle: int, index: int) -> None:
        doc = inputs[index]
        number = len(runner.ops)
        if runner.rec is not None:
            runner.rec.op = number
        metrics = MetricsRegistry()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            with runner.span("op"):
                session = Session(ScenarioSpec.from_dict(doc), metrics=metrics)
                result = session.search()
                with runner.span("api.render"):
                    text = json.dumps(result.to_dict(), indent=2)
            latency = time.perf_counter() - t0
        digest = hashlib.sha1(text.encode()).hexdigest()
        runner.texts.setdefault(digest, text)
        snapshot = metrics.snapshot()
        chunks = snapshot.get("dist.chunks_completed", {}).get("value", 0)
        warned = [str(w.message) for w in caught
                  if issubclass(w.category, RuntimeWarning)]
        runner.ops.append({
            "cycle": cycle, "input": index, "latency_s": latency,
            "candidates": result.report.stats["candidates"],
            "digest": digest, "bytes": len(text),
            "first_input": index not in seen_inputs,
            "remote_chunks": chunks, "warnings": warned,
            "contexts_shipped": snapshot.get(
                "dist.contexts_shipped", {}).get("value", 0),
            "timings": dict(result.report.timings),
            "comm": dict(runner.tally.take()) if runner.tally else {},
        })
        seen_inputs.add(index)

    runner.run(op)
    emit("result", {
        "ops": runner.ops, "texts": runner.texts, "layers": runner.layers(),
        "import_s": import_s,
        "rss": {"self_kb": peak_rss_kb(),
                "children_kb": children_peak_rss_kb()},
    })


def _sweep(job: dict) -> None:
    import_s = _import_program()
    from repro.api import ScenarioSpec, Session
    from repro.search.sweep import SweepRunner

    runner = _Runner(job)
    if job.get("trace"):
        runner.install_tracing()
    inputs = job["inputs"]
    with SpreadOverCpus():
        SweepRunner.from_scenario(ScenarioSpec.from_dict(inputs[0]))
    emit("ready", {"import_s": import_s})
    if job.get("setup_only"):
        return
    workdir = job["workdir"]

    def sweep_once(cycle: int, doc: dict, cold: bool) -> None:
        number = len(runner.ops)
        if runner.rec is not None:
            runner.rec.op = number
        t0 = time.perf_counter()
        with runner.span("op"):
            session = Session(ScenarioSpec.from_dict(doc))
            result = session.sweep()
            with runner.span("api.render"):
                text = json.dumps(result.to_dict(), indent=2)
        latency = time.perf_counter() - t0
        report = result.report
        timings: dict = {}
        for cell in report.results:
            for key, value in cell.report.timings.items():
                timings[key] = timings.get(key, 0.0) + value
        runner.ops.append({
            "cycle": cycle, "cold": cold, "latency_s": latency,
            "candidates": sum(
                cell.report.stats["candidates"] for cell in report.results),
            "rows": report.summary_rows(), "bytes": len(text),
            "timings": timings,
            "comm": dict(runner.tally.take()) if runner.tally else {},
        })

    def op(cycle: int, index: int) -> None:
        cache_dir = f"{workdir}/cycle{cycle}"
        doc = json.loads(json.dumps(inputs[index]))
        doc["search"]["cache_dir"] = cache_dir
        sweep_once(cycle, doc, cold=True)
        # Warm sweeps hit the cache for every candidate, so they start no
        # process pool and can be spread; a cold sweep starts one.
        with SpreadOverCpus():
            for _ in range(job["warm_per_cold"]):
                sweep_once(cycle, doc, cold=False)
        shutil.rmtree(cache_dir, ignore_errors=True)

    runner.run(op)
    emit("result", {
        "ops": runner.ops, "layers": runner.layers(), "import_s": import_s,
        "rss": {"self_kb": peak_rss_kb(),
                "children_kb": children_peak_rss_kb()},
    })


def main(argv) -> int:
    if not argv:
        print("usage: child.py {search,sweep,exec} ...", file=sys.stderr)
        return 2
    if argv[0] == "exec":
        return _exec(argv[1:])
    job = json.loads(sys.stdin.read())
    if argv[0] == "search":
        _search(job)
    elif argv[0] == "sweep":
        _sweep(job)
    else:
        print(f"unknown mode {argv[0]!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
