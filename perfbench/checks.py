"""Reference answers and the comparisons that decide an op's fate.

References are computed in the ``run.py`` process, after the timed child
has exited, so they never share a CPU with a timed op.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from typing import Dict, Iterable, List, Sequence, Tuple

#: The repository's parity contract between projection paths.
REL_TOL = 1e-9

#: Payload keys of a search envelope (everything but the scenario echo,
#: which names the executor and so differs between fleet and threads).
SEARCH_PAYLOAD = ("kind", "model", "objectives", "stats", "best",
                  "frontier", "evaluated")


def same(a, b, *, rel: float = REL_TOL, ignore: Iterable[str] = ()) -> bool:
    """Deep equality; floats within ``rel``; dict keys in ``ignore``
    skipped at every level."""
    ignore = frozenset(ignore)
    return _same(a, b, rel, ignore)


def _same(a, b, rel: float, ignore: frozenset) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        keys = set(a) - ignore
        if keys != set(b) - ignore:
            return False
        return all(_same(a[k], b[k], rel, ignore) for k in keys)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            _same(x, y, rel, ignore) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b or abs(a - b) <= rel * max(abs(a), abs(b))
    return a == b


def _search_call(session, *, vectorize):
    """``Session.search`` for the benchmark's exhaustive single-policy
    documents, with the engine's projection path pinned."""
    from repro.api.results import SearchResult

    spec = session.scenario
    report = session.oracle.search(
        session.pes, session.dataset,
        samples_per_pe=spec.training.samples_per_pe,
        pe_budgets=(session.pes,),
        exhaustive=spec.search.exhaustive,
        segments=spec.search.segments,
        vectorize=vectorize,
    )
    return SearchResult(scenario=spec, model=session.model.name,
                        report=report)


def scalar_search_references(docs: Sequence[dict], used: Iterable[int]
                             ) -> Dict[int, dict]:
    """``SearchEngine(..., vectorize=False)`` envelopes per input."""
    from repro.api import ScenarioSpec, Session

    out = {}
    for index in sorted(set(used)):
        session = Session(ScenarioSpec.from_dict(docs[index]))
        out[index] = _search_call(session, vectorize=False).to_dict()
    return out


def thread_search_references(docs: Sequence[dict], used: Iterable[int]
                             ) -> Dict[int, dict]:
    """Thread-executor envelopes per input (the fleet's reference)."""
    from repro.api import ScenarioSpec, Session

    out = {}
    for index in sorted(set(used)):
        out[index] = Session(ScenarioSpec.from_dict(docs[index])).search(
        ).to_dict()
    return out


def check_search_ops(ops: List[dict], texts: Dict[str, str],
                     references: Dict[int, dict], *, fleet: bool
                     ) -> Tuple[List[str], List[str]]:
    """Mark each op ``ok``.  Returns ``(wrong, degraded)``: one line per
    distinct wrong answer, and one per distinct fleet failure of a kind
    the workload exists to expose, each op of which still fails:

    - a fallback to local threads (a correct answer by the wrong path);
    - a lost chunk: the fleet returned fewer evaluations than the
      reference has, with no warning (``RemoteCoordinator.run`` can stop
      while a finished chunk's result is still queued).

    Any other difference is a wrong answer."""
    verdicts: Dict[tuple, bool] = {}
    lost: Dict[tuple, str] = {}
    wrong: List[str] = []
    degraded: List[str] = []
    for op in ops:
        key = (op["input"], op["digest"])
        if key not in verdicts:
            blob = json.loads(texts[op["digest"]])
            ref = references[op["input"]]
            if fleet:
                verdicts[key] = same(
                    {k: blob.get(k) for k in SEARCH_PAYLOAD},
                    {k: ref.get(k) for k in SEARCH_PAYLOAD},
                    rel=0.0, ignore=("cached",))
            else:
                verdicts[key] = same(blob, ref)
            if not verdicts[key]:
                name = blob.get("scenario", {}).get("name")
                detail = "report differs from the reference"
                if blob.get("evaluated") != ref.get("evaluated"):
                    detail = (f"evaluated {blob.get('evaluated')} of "
                              f"{ref.get('evaluated')} candidates")
                line = f"input {op['input']} ({name}): {detail}"
                if fleet and blob.get("evaluated", 0) < ref.get(
                        "evaluated", 0):
                    lost[key] = f"fleet lost a chunk on {line}"
                    degraded.append(lost[key])
                else:
                    wrong.append(line)
        op["ok"] = verdicts[key]
        op["lost_chunk"] = key in lost
        if fleet and (op["warnings"] or op["remote_chunks"] == 0):
            op["ok"] = False
            op["fallback"] = True
            degraded.append(
                f"op on input {op['input']} fell back to local threads: "
                + ("; ".join(op["warnings"]) or "zero remote chunks"))
    return wrong, degraded


def _row_key(rows: List[dict]) -> List[dict]:
    """Summary rows minus the fields a warm run legitimately changes:
    its wall time and its cache-hit count."""
    return [{k: v for k, v in row.items() if k not in ("seconds",
                                                        "cache_hits")}
            for row in rows]


def check_sweep_ops(ops: List[dict]) -> List[str]:
    """Warm sweeps must reproduce their cycle's cold summary rows."""
    cold_rows = {op["cycle"]: _row_key(op["rows"]) for op in ops
                 if op["cold"]}
    problems = []
    for op in ops:
        ok = same(_row_key(op["rows"]), cold_rows.get(op["cycle"]), rel=0.0)
        if not op["cold"]:
            # A warm sweep that hits nothing read no cache at all.
            ok = ok and all(row["cache_hits"] > 0 for row in op["rows"])
        op["ok"] = ok
        if not ok:
            problems.append(f"cycle {op['cycle']}: warm summary rows differ "
                            f"from the cold sweep")
    return problems


def render_envelope(blob: dict) -> bytes:
    """The bytes ``repro <verb> --json`` prints (and the server sends)."""
    return (json.dumps(blob, indent=2) + "\n").encode("utf-8")


def serve_references(scenarios, rec=None) -> List[Tuple[bytes, ...]]:
    """The in-process Session envelopes each ``(verb, doc)`` may answer.

    A search on a pooled session that already answered it replies from
    its warm projection cache (``cached`` flags, cache-hit stats), so a
    search has two right answers: a fresh session's, and the same
    session's second.  With a recorder, each answer is one op of the
    span log."""
    from repro.api import ScenarioSpec, Session

    span = rec.span if rec is not None else (lambda name: nullcontext())
    out = []
    for number, (verb, doc) in enumerate(scenarios):
        if rec is not None:
            rec.op = number
        with span("op"):
            session = Session(ScenarioSpec.from_dict(doc))
            result = getattr(session, verb)()
            with span("api.render"):
                answers = [render_envelope(result.to_dict())]
        if verb == "search":
            if rec is not None:
                rec.op = None  # a reference detail, not the op
            answers.append(render_envelope(session.search().to_dict()))
        out.append(tuple(answers))
    return out

