"""The four workloads: how each is set up, driven, checked and scored.

Each workload function takes a :class:`Run` and returns an
:class:`Outcome`.  Untraced runs fill ``metrics`` (the end-to-end
numbers); traced runs fill ``layers`` (the per-layer numbers) and the
self-time table.  See ``README.md`` in this directory for what each
workload stresses and which end-to-end metric each layer moves.
"""

from __future__ import annotations

import json
import os
import random
import socket
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import checks
import inputs
import openloop
from common import (
    WORK,
    Child,
    ensure_dir,
    fmt_table,
    median,
    quantile,
)
from spans import LAYER_SPANS

PY = sys.executable
CHILD = "perfbench/child.py"
#: Steady samples each run must give, so p90 has ten beyond it.
MIN_SAMPLES = 100
#: Timed spawns behind each ``setup_s`` median, after one warm-up spawn.
SETUP_SAMPLES = 15
#: Extra fresh processes that run only the cold first rotation, for
#: ``first_op_s`` (the measured run's own process is one more).
COLD_RUNS = 2


@dataclass
class Run:
    """One benchmark invocation: its arguments and its processes."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    children: List[Child] = field(default_factory=list)

    @property
    def workdir(self):
        return ensure_dir(WORK / f"{self.workload}-{id(self):x}")

    @property
    def span_log(self) -> str:
        """Where a traced run writes its spans, kept after the run."""
        return str(ensure_dir(WORK) / f"spans-{self.workload}.jsonl")

    def spawn(self, argv: Sequence[str], stdin_data: Optional[str] = None
              ) -> Child:
        child = Child(argv, stdin_data=stdin_data)
        self.children.append(child)
        return child

    def stop_all(self) -> None:
        for child in self.children:
            child.finish(15, terminate=True)


@dataclass
class Outcome:
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    report: List[str] = field(default_factory=list)


class BenchError(RuntimeError):
    """The benchmark itself could not run (not an op failure)."""


# ---------------------------------------------------------------- helpers

def _await(child: Child, kind: str, timeout_s: float) -> dict:
    line = child.wait_for(f"perfbench:{kind} ", timeout_s)
    if line is None:
        child.kill()
        raise BenchError(
            f"child {child.proc.args!r} gave no {kind!r} record; stderr:\n"
            + "".join(child.stderr[-20:]))
    return json.loads(line.split(" ", 1)[1])


def _spawn_job(run: Run, mode: str, job: dict) -> Child:
    return run.spawn([PY, CHILD, mode], stdin_data=json.dumps(job))


def _setup_samples(run: Run, mode: str, job: dict) -> List[float]:
    """``setup_s`` samples (process start -> import -> session/runner
    built) from spawns that stop there; the first is a warm-up."""
    times = []
    for _ in range(SETUP_SAMPLES + 1):
        child = _spawn_job(run, mode, dict(job, setup_only=True))
        _await(child, "ready", 60)
        times.append(time.perf_counter() - child.started)
        child.finish(30)
    return times[1:]


def _cold_runs(run: Run, mode: str, job: dict) -> List[dict]:
    """Fresh processes that run only the cold first rotation."""
    cold_job = dict(job, cycles=job["cycles"][:1])
    return [_run_job(run, mode, cold_job, rotate=mode == "search")
            for _ in range(COLD_RUNS)]


def _search_job(run: Run, docs: List[dict], seconds: float,
                fixed_cycles: Optional[int] = None, trace: bool = False,
                span_log: Optional[str] = None) -> dict:
    return {
        "inputs": docs,
        "cycles": inputs.search_rotation(run.seed),
        "seconds": seconds,
        "min_ops": MIN_SAMPLES,
        "max_seconds": max(2.5 * seconds, seconds + 20),
        "fixed_cycles": fixed_cycles,
        "trace": trace,
        "span_log": span_log,
    }


def _run_job(run: Run, mode: str, job: dict, rotate: bool = False) -> dict:
    """Run one timed child to its result.

    With ``rotate``, the child is moved to the other CPU every half
    second, so each run samples every CPU's speed alike: on a shared
    host the CPUs of one guest drift apart independently (by a quarter
    or more over tens of seconds), and a single-threaded process left on
    one of them would carry that CPU's drift into the run.  Only the
    single-process search-zoo child rotates: a sweep's process pool and
    a fleet's workers already spread the work over the CPUs, and a pool
    started while its parent is pinned would inherit the pin."""
    child = _spawn_job(run, mode, job)
    _await(child, "ready", 60)
    ready = time.perf_counter() - child.started
    cpus = sorted(os.sched_getaffinity(0)) if rotate else []
    deadline = time.perf_counter() + job["max_seconds"] + 30
    line, turn = None, 0
    while line is None and time.perf_counter() < deadline:
        line = child.wait_for("perfbench:result ", 0.5)
        if line is None and child.proc.poll() is not None:
            break
        if line is None and len(cpus) > 1:
            turn += 1
            try:
                os.sched_setaffinity(child.proc.pid,
                                     {cpus[turn % len(cpus)]})
            except OSError:  # the child exited in between
                pass
    if line is None:
        child.kill()
        raise BenchError(f"child {child.proc.args!r} gave no result; "
                         f"stderr:\n" + "".join(child.stderr[-20:]))
    result = json.loads(line.split(" ", 1)[1])
    child.finish(60)
    result["ready_s"] = ready
    return result


def _latency_metrics(steady_ms: List[float]) -> Dict[str, float]:
    return {
        "latency_p50_ms": quantile(steady_ms, 0.5),
        "latency_p90_ms": quantile(steady_ms, 0.9),
    }


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ------------------------------------------------------------- layer math

#: Per-layer metric -> (span name, scale) for mean self time per op.
_SELF_TIME_METRICS = {
    "api.spec.parse_us": ("api.spec.parse", 1e6),
    "api.session.model_ms": ("api.session.model", 1e3),
    "api.session.profile_ms": ("api.session.profile", 1e3),
    "api.session.kernel_ms": ("api.session.kernel", 1e3),
    "core.validity_ms": ("core.validity", 1e3),
    "core.projection_ms": ("core.projection", 1e3),
    "search.expansion_ms": ("search.expansion", 1e3),
    "search.pruning_ms": ("search.pruning", 1e3),
    "search.ranking_ms": ("search.ranking", 1e3),
    "cache.load_ms": ("cache.load", 1e3),
    "cache.get_ms": ("cache.get", 1e3),
    "cache.put_ms": ("cache.put", 1e3),
    "cache.save_ms": ("cache.save", 1e3),
    "api.render_ms": ("api.render", 1e3),
    "op.unattributed_ms": ("op", 1e3),
}


def layer_metrics(ops: List[dict], layers: Dict[str, dict]) -> Dict[str, float]:
    """Per-layer numbers from a traced child's per-op span summaries.

    Times are mean self time per op; counts are means per op; ratios
    are computed over the summed numerator and denominator."""
    per_op = [layers[str(i)] for i in range(len(ops))]

    def total_count(key: str) -> float:
        return sum(entry["counts"].get(key, 0.0) for entry in per_op)

    out: Dict[str, float] = {}
    for metric, (name, scale) in _SELF_TIME_METRICS.items():
        out[metric] = _mean(e["self"].get(name, 0.0) for e in per_op) * scale
    n = max(1, len(per_op))
    projections = total_count("core.projections")
    out["core.projections"] = projections / n
    out["core.vectorized_share"] = _ratio(
        total_count("core.vectorized"), projections)
    comm = [op.get("comm", {}) for op in ops]
    hits = sum(c.get("memo_hits", 0) for c in comm)
    misses = sum(c.get("memo_misses", 0) for c in comm)
    out["comm.calls"] = (hits + misses + sum(
        c.get("batched_calls", 0) for c in comm)) / n
    out["comm.memo_hit_ratio"] = _ratio(hits, hits + misses)
    out["search.candidates"] = total_count("search.candidates") / n
    out["search.pruned_ratio"] = _ratio(
        total_count("search.pruned"), total_count("search.pruning_inputs"))
    cache_hits = total_count("cache.hits")
    out["cache.hit_ratio"] = _ratio(
        cache_hits, cache_hits + total_count("cache.misses"))
    out["cache.file_bytes"] = total_count("cache.file_bytes") / n
    # Per engine run (one per search op, one per model of a sweep).
    out["sweep.cell_ms"] = _ratio(
        sum(e["engine_s"] + e["engine_for_s"] for e in per_op
            if e["engine_for_s"] > 0), total_count("sweep.cells")) * 1e3
    out["sweep.executor_ms"] = _ratio(
        sum(e["self"].get("search.engine", 0.0) for e in per_op),
        total_count("search.engines")) * 1e3
    out["api.envelope_bytes"] = _mean(op["bytes"] for op in ops)
    wall = sum(op["latency_s"] for op in ops)
    out["op.unattributed_share"] = _ratio(
        sum(e["self"].get("op", 0.0) for e in per_op), wall)
    for key in ("expansion_s", "pruning_s", "projection_s", "ranking_s",
                "persistence_s"):
        out[f"report.{key[:-2]}_ms"] = _mean(
            op.get("timings", {}).get(key, 0.0) for op in ops) * 1e3
    return out


def self_time_table(ops: List[dict], layers: Dict[str, dict]) -> List[str]:
    """Self time per op by layer, the unattributed remainder, and the
    program's own ``SearchReport.timings`` next to them."""
    n = max(1, len(ops))
    wall_ms = sum(op["latency_s"] for op in ops) * 1e3 / n
    totals: Dict[str, float] = {}
    for i in range(len(ops)):
        for name, secs in layers.get(str(i), {}).get("self", {}).items():
            totals[name] = totals.get(name, 0.0) + secs
    rows = []
    for name in LAYER_SPANS + ("op",):
        ms = totals.get(name, 0.0) * 1e3 / n
        if ms == 0.0 and name != "op":
            continue
        label = "(unattributed)" if name == "op" else name
        rows.append([label, ms, 100.0 * ms / wall_ms if wall_ms else 0.0])
    accounted = sum(r[1] for r in rows)
    rows.append(["(op wall)", wall_ms, 100.0 * accounted / wall_ms
                 if wall_ms else 0.0])
    lines = [f"self time per op over {len(ops)} traced ops "
             f"(last row: wall, and the share the rows account for):",
             fmt_table(["layer", "ms/op", "% of op"], rows)]
    timing_rows = []
    for key in ("expansion_s", "pruning_s", "projection_s", "ranking_s",
                "persistence_s", "total_s"):
        ms = _mean(op.get("timings", {}).get(key, 0.0) for op in ops) * 1e3
        timing_rows.append([f"timings.{key}", ms])
    if any(op.get("timings") for op in ops):
        cache_get = totals.get("cache.get", 0.0) * 1e3 / n
        lines.append("SearchReport.timings per op, as the program books "
                     f"them (compare pruning_s with cache.get = "
                     f"{cache_get:.3f} ms/op timed outside):")
        lines.append(fmt_table(["stage", "ms/op"], timing_rows))
    return lines


# ------------------------------------------------------- search workloads

def _search_like(run: Run, *, fleet: bool) -> Outcome:
    out = Outcome()
    workers: List[_Worker] = []
    docs = inputs.search_docs()
    setup: List[float] = []
    extra: List[dict] = []
    if fleet:
        if not run.trace:
            extra = _fleet_cold_runs(run, docs)
        setup, workers = _start_fleet(run, 1 if run.trace
                                      else SETUP_SAMPLES + 1)
        docs = _remote_docs(docs, workers)
    elif not run.trace:
        job = _search_job(run, docs, run.seconds)
        setup = _setup_samples(run, "search", job)
        extra = _cold_runs(run, "search", job)
    if run.trace:
        half = max(2.0, run.seconds / 2)
        plain = _run_job(run, "search", _search_job(run, docs, half),
                         rotate=not fleet)
        cycles = 1 + max(op["cycle"] for op in plain["ops"])
        traced = _run_job(run, "search", _search_job(
            run, docs, half, fixed_cycles=cycles - 1, trace=True,
            span_log=run.span_log), rotate=not fleet)
        passes = [plain, traced]
    else:
        plain = _run_job(run, "search", _search_job(run, docs, run.seconds),
                         rotate=not fleet)
        passes = [plain] + extra
    rss_kb = plain["rss"]["self_kb"]
    if workers:
        rss_kb += _stop_fleet(workers)
    ref_docs = inputs.search_docs()
    used = {op["input"] for p in passes for op in p["ops"]}
    refs = (checks.thread_search_references(ref_docs, used) if fleet
            else checks.scalar_search_references(ref_docs, used))
    for p in passes:
        wrong, degraded = checks.check_search_ops(
            p["ops"], p["texts"], refs, fleet=fleet)
        out.problems += wrong
        out.report += degraded
        out.attempted += len(p["ops"])
        out.failed += sum(1 for op in p["ops"] if not op["ok"])
    ops = plain["ops"]
    steady = [op for op in ops if op["cycle"] > 0]
    cold = [op for r in [plain] + extra for op in r["ops"]
            if op["cycle"] == 0 and op["first_input"]]
    steady_ms = [op["latency_s"] * 1e3 for op in steady]
    fallbacks = sum(1 for p in passes for op in p["ops"]
                    if op.get("fallback"))
    lost_chunk_ops = sum(1 for p in passes for op in p["ops"]
                         if op.get("lost_chunk"))
    if run.trace:
        traced_ops = traced["ops"]
        out.layers = layer_metrics(traced_ops, traced["layers"])
        out.layers["import.repro_cli_s"] = traced["import_s"]
        out.layers["trace.overhead_ratio"] = _ratio(
            sum(op["latency_s"] for op in traced_ops),
            sum(op["latency_s"] for op in ops[:len(traced_ops)]))
        if fleet:
            out.layers.update(_fleet_layers(traced_ops, traced["layers"]))
            # Workers keep contexts across coordinators: most ship in the
            # untraced pass.
            out.layers["dist.contexts_shipped"] = float(sum(
                op["contexts_shipped"] for p in passes for op in p["ops"]))
            out.layers["dist.fallback_ops"] = float(fallbacks)
            out.layers["dist.lost_chunk_ops"] = float(lost_chunk_ops)
        out.report += self_time_table(traced_ops, traced["layers"])
    else:
        out.metrics = {
            "setup_s": median(setup),
            "first_op_s": median(op["latency_s"] for op in cold),
            **_latency_metrics(steady_ms),
            "candidates_per_s": _ratio(
                sum(op["candidates"] for op in steady),
                sum(op["latency_s"] for op in steady)),
            "peak_rss_mb": rss_kb / 1024.0,
        }
    out.report.append(
        f"ops: {len(cold)} cold (first per input),"
        f" {len(steady)} steady over {1 + max(op['cycle'] for op in ops)} "
        f"rotations; setup samples {['%.3f' % s for s in setup]}")
    if fleet:
        out.report.append(f"fleet failures: {fallbacks} op(s) fell back to "
                          f"local threads, {lost_chunk_ops} op(s) lost a "
                          f"chunk (each counted as failed)")
    return out


def _fleet_layers(ops: List[dict], layers: Dict[str, dict]
                  ) -> Dict[str, float]:
    """The ``dist.*`` numbers of a traced fleet run (coordinator side)."""
    per_op = [layers[str(i)] for i in range(len(ops))]

    def total(key: str) -> float:
        return sum(e["counts"].get(key, 0.0) for e in per_op)

    remote = total("dist.remote_evaluations")
    return {
        "dist.connect_ms": _mean(
            e["self"].get("dist.connect", 0.0) for e in per_op) * 1e3,
        "dist.run_ms": _mean(
            e["self"].get("dist.run", 0.0) for e in per_op) * 1e3,
        # Evaluations the fleet returned over all projected in the op,
        # remotely or by a local fallback.
        "dist.remote_chunk_share": _ratio(
            remote, remote + total("core.projections")),
    }


#: Units of the ``dist.*`` layers, which only fleet-search reaches.
#: fleet-search is not in ``BENCHMARK.json`` (see README.md), so these
#: are not declared there; an ungated run reports them all the same.
UNGATED_LAYERS = {
    "dist.connect_ms": "ms",
    "dist.run_ms": "ms",
    "dist.contexts_shipped": "count",
    "dist.remote_chunk_share": "ratio",
    "dist.fallback_ops": "count",
    "dist.lost_chunk_ops": "count",
}


class _Worker:
    def __init__(self, child: Child, address: str) -> None:
        self.child, self.address = child, address


def _remote_docs(docs: List[dict], workers: List[_Worker]) -> List[dict]:
    """``docs`` with the search run on ``workers``."""
    addresses = [w.address for w in workers]
    docs = [json.loads(json.dumps(d)) for d in docs]
    for doc in docs:
        doc["search"].update(executor="remote", remote_workers=addresses)
    return docs


def _fleet_cold_runs(run: Run, docs: List[dict]) -> List[dict]:
    """Cold first rotations, each by a fresh coordinator process on a
    fresh pair of workers, so every first search ships its context."""
    results = []
    for _ in range(COLD_RUNS):
        _, pair = _start_fleet(run, 1)
        job = _search_job(run, _remote_docs(docs, pair), run.seconds)
        results.append(_run_job(run, "search",
                                dict(job, cycles=job["cycles"][:1])))
        _stop_fleet(pair)
    return results


def _start_fleet(run: Run, rounds: int):
    """Spawn two ``repro worker`` processes until both accept; repeat
    ``rounds`` times (the first is a warm-up unless it is the only one)
    and keep the last pair."""
    times: List[float] = []
    pair: List[_Worker] = []
    for attempt in range(rounds):
        for worker in pair:
            worker.child.proc.terminate()  # reaped by Run.stop_all
        t0 = time.perf_counter()
        children = [run.spawn([PY, CHILD, "exec", "worker", "--bind",
                               "127.0.0.1:0"]) for _ in range(2)]
        pair = []
        for child in children:
            line = child.wait_for("listening on", 60)
            if line is None:
                raise BenchError("a worker did not start: "
                                 + "".join(child.stderr[-20:]))
            address = line.rsplit(" ", 1)[1].strip()
            host, port = address.rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=10):
                pass
            pair.append(_Worker(child, address))
        if attempt or rounds == 1:
            times.append(time.perf_counter() - t0)
    return times, pair


def _stop_fleet(workers: List[_Worker]) -> int:
    """SIGTERM the workers, wait, and sum their peak RSS (KiB)."""
    total = 0
    for worker in workers:
        worker.child.proc.terminate()
    for worker in workers:
        worker.child.finish(30)
        rss = worker.child.records("rss")
        total += rss[-1]["self_kb"] if rss else 0
    return total


def search_zoo(run: Run) -> Outcome:
    return _search_like(run, fleet=False)


def fleet_search(run: Run) -> Outcome:
    return _search_like(run, fleet=True)


# ------------------------------------------------------------ sweep-cache

#: Warm sweeps per cold one; every cycle starts from an empty directory.
WARM_PER_COLD = 4


def _sweep_job(run: Run, seconds: float, fixed_cycles=None, trace=False,
               span_log=None) -> dict:
    docs = inputs.sweep_docs(run.seed)
    return {
        "inputs": docs,
        "cycles": inputs.sweep_rotation(run.seed, len(docs)),
        "warm_per_cold": WARM_PER_COLD,
        "ops_per_item": 1 + WARM_PER_COLD,
        "workdir": str(run.workdir),
        "seconds": seconds,
        "min_ops": MIN_SAMPLES,
        "max_seconds": max(2.5 * seconds, seconds + 20),
        "fixed_cycles": fixed_cycles,
        "trace": trace,
        "span_log": span_log,
    }


def sweep_cache(run: Run) -> Outcome:
    out = Outcome()
    setup: List[float] = []
    extra: List[dict] = []
    if not run.trace:
        job = _sweep_job(run, run.seconds)
        setup = _setup_samples(run, "sweep", job)
        extra = _cold_runs(run, "sweep", job)
    if run.trace:
        half = max(2.0, run.seconds / 2)
        plain = _run_job(run, "sweep", _sweep_job(run, half))
        cycles = 1 + max(op["cycle"] for op in plain["ops"])
        traced = _run_job(run, "sweep", _sweep_job(
            run, half, fixed_cycles=cycles - 1, trace=True,
            span_log=run.span_log))
        passes = [plain, traced]
    else:
        plain = _run_job(run, "sweep", job)
        passes = [plain] + extra
    for p in passes:
        out.problems += checks.check_sweep_ops(p["ops"])
        out.attempted += len(p["ops"])
        out.failed += sum(1 for op in p["ops"] if not op["ok"])
    ops = plain["ops"]
    cold = [op for r in [plain] + extra for op in r["ops"] if op["cold"]]
    warm = [op for op in ops if not op["cold"]]
    if run.trace:
        out.layers = layer_metrics(traced["ops"], traced["layers"])
        out.layers["import.repro_cli_s"] = traced["import_s"]
        out.layers["trace.overhead_ratio"] = _ratio(
            sum(op["latency_s"] for op in traced["ops"]),
            sum(op["latency_s"] for op in ops[:len(traced["ops"])]))
        out.report += self_time_table(traced["ops"], traced["layers"])
        for label, subset in (("cold", True), ("warm", False)):
            idx = [i for i, op in enumerate(traced["ops"])
                   if op["cold"] == subset]
            sub_ops = [traced["ops"][i] for i in idx]
            sub_layers = {str(j): traced["layers"].get(str(i), {})
                          for j, i in enumerate(idx)}
            out.report.append(f"-- {label} sweeps only --")
            out.report += self_time_table(sub_ops, sub_layers)
    else:
        rss = plain["rss"]
        out.metrics = {
            "setup_s": median(setup),
            "first_op_s": median(op["latency_s"] for op in cold),
            **_latency_metrics([op["latency_s"] * 1e3 for op in warm]),
            "candidates_per_s": _ratio(
                sum(op["candidates"] for op in warm),
                sum(op["latency_s"] for op in warm)),
            # The sweep process plus its largest process-pool worker.
            "peak_rss_mb": (rss["self_kb"] + rss["children_kb"]) / 1024.0,
        }
    out.report.append(
        f"ops: {len(cold)} cold sweeps, {len(warm)} warm sweeps; "
        f"setup samples {['%.3f' % s for s in setup]}")
    return out


# --------------------------------------------------------- serve-openloop

#: Share of the run the lowest ladder rate gets (the gated latency
#: step); the higher rates split the rest evenly.
LOW_STEP_SHARE = 0.5
#: Back-to-back requests each connection sends before a step's schedule
#: starts (checked, not timed; see ``openloop``).
LEAD_IN = 4
#: Send-to-response time from which a request counts as stalled on the
#: client's delayed ACK (~40 ms).
STALL_MS = 38.0


def _start_server(run: Run):
    """Spawn ``repro serve`` until ``/healthz`` answers; repeat for the
    setup median and keep the last server."""
    times: List[float] = []
    server = None
    rounds = 1 if run.trace else SETUP_SAMPLES + 1
    for attempt in range(rounds):
        if server is not None:
            server.finish(30, terminate=True)
        t0 = time.perf_counter()
        server = run.spawn([PY, CHILD, "exec", "serve", "--port", "0",
                            "--pool-size", "32"])
        line = server.wait_for("listening on", 60)
        if line is None:
            raise BenchError("the server did not start: "
                             + "".join(server.stderr[-20:]))
        url = line.split("listening on ", 1)[1].split()[0]
        host, port = url.split("//", 1)[1].rstrip("/").rsplit(":", 1)
        probe = openloop.Connection(host, int(port), timeout_s=5)
        while probe.get("/healthz")[0] != 200:
            if time.perf_counter() - t0 > 60:
                raise BenchError("/healthz never answered")
            time.sleep(0.002)
        probe.close()
        if attempt or run.trace:
            times.append(time.perf_counter() - t0)
    return times, server, host, int(port)


def _candidates(blob: dict) -> int:
    """Strategy configurations one answer reports on: 1 for a project,
    one per ranked entry (plus the infeasible ones a hybrid counts) for
    suggest and hybrid, the evaluated candidates for a search."""
    kind = blob["kind"]
    if kind == "search":
        return blob["stats"]["candidates"]
    if kind in ("suggest", "hybrid"):
        return len(blob["entries"]) + blob.get("infeasible", 0)
    return 1


def _metricsz(host: str, port: int) -> dict:
    conn = openloop.Connection(host, port, timeout_s=10)
    status, body = conn.get("/metricsz")
    conn.close()
    if status != 200:
        raise BenchError(f"/metricsz answered {status}")
    return json.loads(body)


def _handle_ms(before: dict, after: dict) -> float:
    """Mean server-side handling time over the verb routes between two
    ``/metricsz`` snapshots."""
    count = total = 0.0
    for verb, _ in inputs.VERB_SHARES:
        key = f"serve.latency_s.{verb}"
        hist0 = before["metrics"].get(key, {})
        hist1 = after["metrics"].get(key, {})
        count += hist1.get("count", 0.0) - hist0.get("count", 0.0)
        total += hist1.get("sum", 0.0) - hist0.get("sum", 0.0)
    return _ratio(total, count) * 1e3


def _pool_miss_share(before: dict, after: dict) -> float:
    """Share of session-pool lookups that missed between two
    ``/metricsz`` snapshots."""
    hits = after["pool"]["hits"] - before["pool"]["hits"]
    misses = after["pool"]["misses"] - before["pool"]["misses"]
    return _ratio(misses, hits + misses)


def _inprocess_layers(run: Run, scenarios, expected, out: Outcome) -> None:
    """The traced half of serve-openloop's server work, in this process:
    every distinct scenario answered by a fresh ``Session`` with the
    layers wrapped, after an untraced pass to compare against."""
    import spans

    t0 = time.perf_counter()
    checks.serve_references(scenarios)
    plain_s = time.perf_counter() - t0
    rec = spans.Recorder()
    tally = spans.install(rec)
    t0 = time.perf_counter()
    traced = checks.serve_references(scenarios, rec)
    traced_s = time.perf_counter() - t0
    rec.restore()
    rec.write(run.span_log)
    summary = rec.per_op(len(scenarios))
    ops = [{"latency_s": summary[str(i)]["wall_s"],
            "bytes": len(answers[0]), "comm": {}}
           for i, answers in enumerate(traced)]
    # The tally covers the whole pass; layer_metrics only sums it.
    ops[0]["comm"] = dict(tally.take())
    out.layers = layer_metrics(ops, summary)
    out.layers["trace.overhead_ratio"] = _ratio(traced_s, plain_s)
    if traced != expected:
        out.problems.append("traced in-process answers differ from "
                            "untraced ones")
    out.report.append("in-process answer of each distinct scenario "
                      "(the server's own work, without transport):")
    out.report += self_time_table(ops, summary)


def _ladder_report(steps: List[openloop.Step], max_rate: float) -> List[str]:
    rows = [[f"{s.rate:g}", s.scheduled, len(s.samples), s.unsent,
             s.p(0.5), s.p(0.9),
             quantile(s.lag_ms, 0.9) if s.lag_ms else 0.0, s.backlog_max,
             "yes" if s.meets(inputs.LIMIT_MS) else "no"] for s in steps]
    return [
        f"open-loop ladder over 2 keep-alive connections (latency from "
        f"due time, ms; unsent requests count as inf; limit p90 <= "
        f"{inputs.LIMIT_MS:g} ms):",
        fmt_table(["req/s", "due", "sent", "unsent", "p50", "p90",
                   "lag p90", "backlog max", "meets"], rows),
        f"max_rate_rps = {max_rate:g} (highest rate meeting the limit "
        f"with no unsent request)",
    ]


def _ladder_layers(steps: List[openloop.Step]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for step in steps:
        tag = f"serve.r{int(step.rate):03d}"
        sent = [s.latency_ms for s in step.samples if s.ok]
        out[f"{tag}.sent_p90_ms"] = quantile(sent, 0.9) if sent else 0.0
        out[f"{tag}.unsent"] = float(step.unsent)
        out[f"{tag}.generator_lag_ms"] = (
            quantile(step.lag_ms, 0.9) if step.lag_ms else 0.0)
        out[f"{tag}.backlog_max"] = float(step.backlog_max)
    return out


def serve_openloop(run: Run) -> Outcome:
    out = Outcome()
    scenarios = inputs.serve_scenarios()
    requests = [(f"/v1/{verb}", json.dumps(doc).encode())
                for verb, doc in scenarios]
    setup, server, host, port = _start_server(run)
    expected = checks.serve_references(scenarios)
    if run.trace:
        _inprocess_layers(run, scenarios, expected, out)
    rng = random.Random(run.seed)
    popularity = inputs.serve_popularity(run.seed, scenarios)
    # Cold phase: every distinct scenario once, in seeded order, back to
    # back on one keep-alive connection: the pool-miss latency behind
    # first_op_s.
    order = list(range(len(scenarios)))
    rng.shuffle(order)
    cold_ms = []
    cold_conn = openloop.Connection(host, port)
    for index in order:
        t0 = time.perf_counter()
        status, data = cold_conn.post(*requests[index])
        cold_ms.append((time.perf_counter() - t0) * 1e3)
        out.attempted += 1
        if status != 200 or data not in expected[index]:
            out.failed += 1
            out.problems.append(f"scenario {index} ({scenarios[index][0]}): "
                                f"status {status}, bytes differ from the "
                                f"in-process envelope")
    cold_conn.close()
    # The ladder: one sender thread and connection per CPU (2 here).
    conns = [openloop.Connection(host, port) for _ in range(2)]
    low_s = run.seconds * LOW_STEP_SHARE
    high_s = run.seconds * (1 - LOW_STEP_SHARE) / (len(inputs.LADDER) - 1)
    snapshots = [_metricsz(host, port)]
    steps = []
    for rate in inputs.LADDER:
        duration = low_s if not steps else high_s
        schedule = inputs.serve_schedule(int(rate * duration), rng,
                                         popularity)
        lead_in = inputs.serve_schedule(LEAD_IN * len(conns), rng,
                                        popularity)
        steps.append(openloop.run_step(conns, rate, duration, schedule,
                                       lead_in, requests, expected))
        snapshots.append(_metricsz(host, port))
    for conn in conns:
        conn.close()
    server.finish(30, terminate=True)
    for step in steps:
        bad = sum(1 for s in step.samples + step.lead_in if not s.ok)
        out.attempted += len(step.samples) + len(step.lead_in)
        out.failed += bad
        if bad:
            out.problems.append(f"{bad} request(s) at {step.rate:g} req/s "
                                f"answered wrongly or not at all")
    low = steps[0]
    passing = [s.rate for s in steps if s.meets(inputs.LIMIT_MS)]
    max_rate = float(max(passing)) if passing else 0.0
    out.report += _ladder_report(steps, max_rate)
    low_miss_share = _pool_miss_share(snapshots[0], snapshots[1])
    stalled = _ratio(sum(1 for s in low.samples if s.service_ms >= STALL_MS),
                     len(low.samples))
    out.report.append(
        f"at {low.rate:g} req/s, {100 * low_miss_share:.1f}% of requests "
        f"missed the session pool (the gated p90 sees them above 10%), and "
        f"{100 * stalled:.1f}% took {STALL_MS:g} ms or more from send to "
        f"response (the delayed-ACK stall)")
    if run.trace:
        handle_ms = _handle_ms(snapshots[0], snapshots[1])
        pool0, pool1 = snapshots[0]["pool"], snapshots[-1]["pool"]
        hits = pool1["hits"] - pool0["hits"]
        misses = pool1["misses"] - pool0["misses"]
        imported = server.records("import")
        client_ms = _mean(s.service_ms for s in low.samples)
        out.layers.update(_ladder_layers(steps))
        out.layers.update({
            "import.repro_cli_s": imported[0]["s"] if imported else 0.0,
            "serve.handle_ms": handle_ms,
            "serve.pool.hit_ratio": _ratio(hits, hits + misses),
            "serve.pool.evictions": pool1["evictions"] - pool0["evictions"],
            "serve.pool.low_miss_share": low_miss_share,
            "serve.transport_ms": client_ms - handle_ms,
            "serve.max_rate_rps": max_rate,
        })
        out.report.append(
            f"at {low.rate:g} req/s: server handling {handle_ms:.3f} ms, "
            f"client send->response {client_ms:.3f} ms per request; over "
            f"the ladder the pool hit {hits:g} and missed {misses:g} "
            f"times, with {out.layers['serve.pool.evictions']:g} evictions")
    else:
        answered = [_candidates(json.loads(answers[0]))
                    for answers in expected]
        ok = [s for s in low.samples if s.ok]
        rss = server.records("rss")
        out.metrics = {
            "setup_s": median(setup),
            "first_op_s": median(cold_ms) / 1e3,
            **_latency_metrics(low.latencies_ms),
            "candidates_per_s": _ratio(
                sum(answered[s.scenario] for s in ok),
                sum(s.latency_ms for s in ok) / 1e3),
            "peak_rss_mb": (rss[-1]["self_kb"] if rss else 0) / 1024.0,
        }
    out.report.append(
        f"cold phase: {len(order)} distinct scenarios, median "
        f"{median(cold_ms):.2f} ms; setup samples "
        f"{['%.3f' % s for s in setup]}")
    return out


WORKLOADS = {
    "search-zoo": search_zoo,
    "sweep-cache": sweep_cache,
    "serve-openloop": serve_openloop,
    "fleet-search": fleet_search,
}
