"""Helpers shared by ``run.py`` and the child processes it starts.

Nothing here imports ``repro``: ``run.py`` uses these before it knows
whether the checkout holds the program at all.
"""

from __future__ import annotations

import json
import math
import os
import queue
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program under test, built from source (pure Python).
SRC = ROOT / "src"
#: Scratch space for cache directories and span logs; ignored by git.
WORK = ROOT / ".bench_build" / "perfbench"
#: Line prefix of the machine-readable records a child process prints.
TAG = "perfbench:"


def program_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file() and (
        SRC / "repro" / "cli.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for a process running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    # The fault-injection plan is opt-in; make sure no ambient plan or
    # timeout override changes what is measured.
    for key in list(env):
        if key.startswith("REPRO_"):
            del env[key]
    return env


def emit(kind: str, payload) -> None:
    """Print one tagged JSON record on stdout (child -> ``run.py``)."""
    sys.stdout.write(f"{TAG}{kind} {json.dumps(payload)}\n")
    sys.stdout.flush()


def parse_record(line: str):
    """``(kind, payload)`` of a tagged line, else ``None``."""
    if not line.startswith(TAG):
        return None
    kind, _, body = line[len(TAG):].partition(" ")
    return kind, json.loads(body)


def peak_rss_kb() -> int:
    """This process's peak resident set size in KiB (Linux units)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def children_peak_rss_kb() -> int:
    """Largest peak RSS among this process's reaped children, KiB."""
    return int(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default); ``inf`` entries
    sort last, so a missed request pushes the tail up."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == math.inf:
        return math.inf if pos > lo or ordered[lo] == math.inf else ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def host_ref_score_ms() -> float:
    """Median wall time of a fixed pure-Python micro-loop, in ms.

    Integer arithmetic, dict and list churn, and attribute-free calls:
    the interpreter work the program itself does.  It is recorded next
    to every run so that a host move can be told apart from a
    regression; it never scales a gated number.
    """
    def loop() -> int:
        table: Dict[int, int] = {}
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
        items: List[int] = sorted(table.values())
        return acc + len(items)

    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        loop()
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def fmt_table(headers: Sequence[str], rows: Sequence[Sequence[object]]
              ) -> str:
    cells = [[str(h) for h in headers]] + [
        [f"{c:.3f}" if isinstance(c, float) else str(c) for c in row]
        for row in rows]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in cells]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def ensure_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


class Child:
    """A child process whose stdout lines are collected by a reader
    thread, so waiting for a line can time out instead of blocking."""

    def __init__(self, argv: Sequence[str], *, stdin_data: Optional[str] = None,
                 env: Optional[Dict[str, str]] = None) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), cwd=str(ROOT), env=env or child_env(),
            stdin=subprocess.PIPE if stdin_data is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.seen: List[str] = []
        self.stderr: List[str] = []
        self._threads = [
            threading.Thread(target=self._pump, args=(self.proc.stdout, self.lines),
                             daemon=True),
            threading.Thread(target=self._drain_err, daemon=True),
        ]
        for t in self._threads:
            t.start()
        if stdin_data is not None:
            self.proc.stdin.write(stdin_data)
            self.proc.stdin.close()

    @staticmethod
    def _pump(stream, sink) -> None:
        for line in stream:
            sink.put(line)
        sink.put(None)

    def _drain_err(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)

    def wait_for(self, needle: str, timeout_s: float) -> Optional[str]:
        """The first unseen stdout line containing ``needle``."""
        deadline = time.monotonic() + timeout_s
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                return None
            try:
                line = self.lines.get(timeout=left)
            except queue.Empty:
                return None
            if line is None:
                self.lines.put(None)  # keep the end marker for later waits
                return None
            self.seen.append(line)
            if needle in line:
                return line

    def records(self, kind: str) -> list:
        """Payloads of tagged records of ``kind`` seen so far."""
        out = []
        for line in self.seen:
            rec = parse_record(line)
            if rec is not None and rec[0] == kind:
                out.append(rec[1])
        return out

    def finish(self, timeout_s: float, *, terminate: bool = False) -> int:
        """Stop (SIGTERM when asked), wait, and drain remaining output."""
        if terminate and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rc = self.proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rc = self.proc.wait()
        for t in self._threads:
            t.join(timeout=5)
        while True:
            try:
                line = self.lines.get_nowait()
            except queue.Empty:
                break
            if line is not None:
                self.seen.append(line)
        return rc

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for t in self._threads:
            t.join(timeout=5)
