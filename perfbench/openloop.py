"""Open-loop HTTP load over persistent keep-alive connections.

One generator process, ``nproc`` sender threads, one connection each,
taking alternate requests.  Requests are due on an evenly spaced
schedule whatever the server does; each is timed from its due time, so
a stall also charges the requests queued behind it.  A request still
unsent when its step ends counts as missing the latency limit.

Each connection starts a step in the state sustained traffic leaves it
in.  A keep-alive connection to ``repro serve`` has two states at low
rates: one where every response comes back at once, and one where every
response waits out the client's delayed ACK (~40 ms) and the next
request follows soon enough to keep it so.  The second state absorbs:
a connection that falls into it stays there, and a fresh one falls in
after a random number of requests (a few to a few hundred).  Timing
from fresh connections would measure that random moment, so each
sender first sends a few requests back to back (the lead-in, checked
but not timed), which puts its connection into the state it would
reach anyway, and then starts its own schedule.
"""

from __future__ import annotations

import http.client
import math
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from common import quantile

HEADERS = {"Content-Type": "application/json"}


class Connection:
    """A persistent connection that reconnects after a transport error."""

    def __init__(self, host: str, port: int, timeout_s: float = 30.0) -> None:
        self.host, self.port, self.timeout_s = host, port, timeout_s
        self.conn: Optional[http.client.HTTPConnection] = None

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        return self._request("POST", path, body, HEADERS)

    def get(self, path: str) -> Tuple[int, bytes]:
        return self._request("GET", path, None, {})

    def _request(self, method: str, path: str, body: Optional[bytes],
                 headers: dict) -> Tuple[int, bytes]:
        """``(status, body)``; ``(0, b"")`` after a transport error."""
        if self.conn is None:
            self.conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout_s)
        try:
            self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


@dataclass
class Sample:
    scenario: int
    due: float
    start: float
    end: float
    ok: bool

    @property
    def latency_ms(self) -> float:
        """From due time to the last response byte."""
        return (self.end - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        """From the actual send to the last response byte."""
        return (self.end - self.start) * 1e3


@dataclass
class Step:
    rate: float
    scheduled: int
    samples: List[Sample] = field(default_factory=list)
    lead_in: List[Sample] = field(default_factory=list)
    unsent: int = 0
    backlog_max: int = 0

    @property
    def latencies_ms(self) -> List[float]:
        """Per scheduled request; unsent and failed ones read ``inf``."""
        out = [s.latency_ms if s.ok else math.inf for s in self.samples]
        return out + [math.inf] * self.unsent

    def p(self, q: float) -> float:
        return quantile(self.latencies_ms, q)

    @property
    def lag_ms(self) -> List[float]:
        """How late the generator sent each request."""
        return [max(0.0, (s.start - s.due) * 1e3) for s in self.samples]

    def meets(self, limit_ms: float) -> bool:
        return self.unsent == 0 and self.p(0.9) <= limit_ms


def run_step(conns: Sequence[Connection], rate: float, duration_s: float,
             schedule: Sequence[int], lead_in: Sequence[int],
             requests: Sequence[Tuple[str, bytes]],
             expected: Sequence[Tuple[bytes, ...]]) -> Step:
    """Offer ``schedule`` (scenario indices) at ``rate`` for one step.

    Request ``i`` goes out on connection ``i % len(conns)``: each sender
    is one client offering ``rate / len(conns)`` on its own keep-alive
    connection, and falls behind on its own when the server stalls it.
    Each sender first sends its share of ``lead_in`` back to back, then
    starts its own clock: its ``k``-th request is due ``k * len(conns) /
    rate`` seconds after its lead-in ends, and it stops ``duration_s``
    after that."""
    n = len(schedule)
    lanes = len(conns)
    period = lanes / rate
    step = Step(rate=rate, scheduled=n)
    lock = threading.Lock()

    def post(conn: Connection, scenario: int, due: float) -> Sample:
        path, body = requests[scenario]
        start = time.perf_counter()
        status, data = conn.post(path, body)
        end = time.perf_counter()
        return Sample(scenario, due, start, end,
                      status == 200 and data in expected[scenario])

    def sender(lane: int, conn: Connection) -> None:
        warm = [post(conn, scenario, time.perf_counter())
                for scenario in lead_in[lane::lanes]]
        with lock:
            step.lead_in.extend(warm)
        t0 = time.perf_counter()
        t_end = t0 + duration_s
        mine = range(lane, n, lanes)
        for k, i in enumerate(mine):
            now = time.perf_counter()
            if now >= t_end:
                with lock:
                    step.unsent += len(mine) - k
                return
            due = t0 + k * period
            # Requests of this lane already due and not yet sent.
            backlog = max(0, int((now - t0) / period) + 1 - k)
            if due > now:
                time.sleep(due - now)
            sample = post(conn, schedule[i], due)
            with lock:
                step.samples.append(sample)
                step.backlog_max = max(step.backlog_max, backlog)

    threads = [threading.Thread(target=sender, args=(lane, conn))
               for lane, conn in enumerate(conns)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return step
