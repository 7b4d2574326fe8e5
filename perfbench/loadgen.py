"""Open-loop HTTP/1.1 load generator: one process, one thread, ``select``.

Requests are sent on a fixed schedule whatever the server's state (an
open loop: a slow server receives the same load and its queue grows),
over at most ``nproc`` keep-alive connections with pipelining, so a
connection never holds a request back waiting for an earlier answer.
Every request's wire bytes are built before timing starts, and each
latency is timed from the request's *due* time, so a stall — of the
server or of the generator — is charged to every request it delays.
The generator's own lateness (send time minus due time) is reported so
a run whose generator fell behind can be recognised.
"""

from __future__ import annotations

import dataclasses
import select
import socket
import time

_HEADER_END = b"\r\n\r\n"


@dataclasses.dataclass
class LoadResult:
    """Per-request outcome, indexed like the schedule."""

    status: list[int]
    body: list[bytes | None]
    latency: list[float]  #: seconds from due time to last response byte
    lateness: list[float]  #: seconds from due time to hand-off to the socket


class _Conn:
    __slots__ = ("sock", "out", "inbox", "waiting", "dead")

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=5)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbox = bytearray()
        self.waiting: list[int] = []  # request indices, oldest first
        self.dead = False


def _parse_responses(conn: _Conn, on_response) -> None:
    """Pop every complete response off ``conn.inbox``."""
    inbox = conn.inbox
    while conn.waiting:
        end = inbox.find(_HEADER_END)
        if end < 0:
            return
        head = bytes(inbox[:end]).decode("latin-1")
        length = 0
        for line in head.split("\r\n")[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        total = end + len(_HEADER_END) + length
        if len(inbox) < total:
            return
        status = int(head[9:12])
        body = bytes(inbox[end + len(_HEADER_END):total])
        del inbox[:total]
        on_response(conn.waiting.pop(0), status, body)


def run(port: int, wires: list[bytes], rate: float, n_conns: int,
        drain_seconds: float = 30.0) -> LoadResult:
    """Send ``wires[i]`` at ``start + i / rate`` and collect the answers.

    A refused or reset connection fails every request queued on it and
    every later request routed to it; those keep status 0.
    """
    n = len(wires)
    status = [0] * n
    body: list[bytes | None] = [None] * n
    latency = [0.0] * n
    lateness = [0.0] * n
    conns = [_Conn(port) for _ in range(n_conns)]
    by_sock = {conn.sock: conn for conn in conns}
    period = 1.0 / rate
    clock = time.perf_counter
    start = clock() + 0.02
    answered = 0
    received_at = 0.0

    def on_response(index: int, code: int, payload: bytes) -> None:
        nonlocal answered
        status[index] = code
        body[index] = payload
        latency[index] = received_at - (start + index * period)
        answered += 1

    def fail(conn: _Conn) -> None:
        nonlocal answered
        conn.dead = True
        answered += len(conn.waiting)
        conn.waiting.clear()
        conn.out.clear()

    next_index = 0
    deadline = None
    try:
        while answered < n:
            now = clock()
            while next_index < n and start + next_index * period <= now:
                conn = conns[next_index % n_conns]
                if conn.dead:
                    answered += 1
                else:
                    conn.out += wires[next_index]
                    conn.waiting.append(next_index)
                    lateness[next_index] = now - (start + next_index * period)
                next_index += 1
            for conn in conns:
                if conn.out and not conn.dead:
                    try:
                        sent = conn.sock.send(conn.out)
                        del conn.out[:sent]
                    except BlockingIOError:
                        pass
                    except OSError:
                        fail(conn)
            if next_index < n:
                timeout = max(0.0, start + next_index * period - clock())
            else:
                if deadline is None:
                    deadline = clock() + drain_seconds
                if clock() > deadline:
                    break
                timeout = 0.05
            live = [conn.sock for conn in conns if not conn.dead]
            if not live:
                if next_index >= n:
                    break
                time.sleep(timeout)
                continue
            writers = [conn.sock for conn in conns if conn.out and not conn.dead]
            readable, _, _ = select.select(live, writers, [], timeout)
            if readable:
                received_at = clock()
            for sock in readable:
                conn = by_sock[sock]
                try:
                    data = sock.recv(1 << 16)
                except BlockingIOError:
                    continue
                except OSError:
                    fail(conn)
                    continue
                if not data:
                    fail(conn)
                    continue
                conn.inbox += data
                _parse_responses(conn, on_response)
    finally:
        for conn in conns:
            conn.sock.close()
    return LoadResult(status, body, latency, lateness)


def closed_loop(port: int, wires: list[bytes]) -> list[tuple[int, bytes]]:
    """Send each request and wait for its answer, on one connection."""
    conn = _Conn(port)
    conn.sock.setblocking(True)
    out: list[tuple[int, bytes]] = []
    try:
        for index, wire in enumerate(wires):
            conn.sock.sendall(wire)
            conn.waiting.append(index)
            while conn.waiting:
                data = conn.sock.recv(1 << 16)
                if not data:
                    raise ConnectionError("server closed the connection")
                conn.inbox += data
                _parse_responses(
                    conn, lambda i, code, payload: out.append((code, payload))
                )
    finally:
        conn.sock.close()
    return out
