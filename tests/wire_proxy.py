"""A seeded, fault-injecting TCP proxy for the service wire.

A :class:`WireProxy` sits between a client (or a cluster router) and one
server: every connection it accepts is dialled through to ``upstream``.
Client bytes pass through as they come.  The server's bytes are read frame
by frame (the transport's kind byte and u32 length), and for each frame a
:class:`Faults` schedule decides to forward it, to sleep and then forward
it, to close both legs before it (a drop), or to forward its header and
half its payload and then close both legs (a cut).  The product runs
unmodified: what a test drives is its real sockets, framing and recovery.

A schedule counts frames across every connection it carries — all of one
proxy's, or of several proxies sharing it — and each rule draws from its own
``random.Random`` seeded by ``(seed, rule)``, so for one seed a rule's
sequence of decisions is fixed however the threads interleave.
"""

from __future__ import annotations

import random
import socket
import threading
from dataclasses import dataclass

from repro.service.transport import _FRAME_HEADER


@dataclass(frozen=True)
class Fault:
    """One rule: it never fires on the first ``skip_first`` frames it sees,
    fires at most ``max_fires`` times (None: no cap), and otherwise fires
    with ``probability``.  ``delay_ms`` is a ``delay`` rule's pause."""

    probability: float = 1.0
    skip_first: int = 0
    max_fires: int | None = None
    delay_ms: float = 0.0


class Faults:
    """The per-frame schedule: optional ``delay``, ``drop`` and ``cut``
    rules, asked in that order for every server frame.  A drop that fires
    ends the connection, so the cut rule does not see that frame."""

    def __init__(self, seed: int = 0, **rules: Fault):
        self._rules = rules
        self._rngs = {name: random.Random(f"{seed}:{name}") for name in rules}
        self._seen = dict.fromkeys(rules, 0)
        self._fires = dict.fromkeys(rules, 0)
        self._lock = threading.Lock()

    def _fire(self, name: str) -> bool:
        rule = self._rules.get(name)
        if rule is None:
            return False
        self._seen[name] += 1
        if self._seen[name] <= rule.skip_first or self._fires[name] == rule.max_fires:
            return False
        # Draw even at probability 1, so the decisions depend on the ordinal alone.
        if self._rngs[name].random() >= rule.probability:
            return False
        self._fires[name] += 1
        return True

    def verdict(self) -> tuple[float, str | None]:
        """The next frame's pause in seconds, then "drop", "cut" or None."""
        with self._lock:
            pause = self._rules["delay"].delay_ms / 1000 if self._fire("delay") else 0.0
            return pause, next((name for name in ("drop", "cut") if self._fire(name)), None)

    def fires(self) -> dict[str, int]:
        """How often each rule fired: what a test reconciles recovery against."""
        with self._lock:
            return dict(self._fires)


def _read(sock: socket.socket, size: int) -> bytes:
    data = b""
    while len(data) < size:
        more = sock.recv(size - len(data), socket.MSG_WAITALL)
        if not more:
            raise EOFError
        data += more
    return data


def _shut(*legs: socket.socket) -> None:
    """Shut both directions of each leg: the peers see EOF, and a thread
    blocked on the leg wakes."""
    for leg in legs:
        try:
            leg.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


def _pump_bytes(source: socket.socket, sink: socket.socket) -> None:
    try:
        while data := source.recv(1 << 16):
            sink.sendall(data)
    except OSError:
        pass
    _shut(source, sink)


class WireProxy:
    """Listens on an ephemeral loopback port (:attr:`address`) and carries
    each connection to ``upstream`` under ``faults``.  ``close()`` ends every
    connection, joins every thread and closes every socket it opened; a
    frame whose pause it interrupts is not forwarded."""

    def __init__(self, upstream, faults: Faults):
        self.faults = faults
        self._upstream = tuple(upstream)
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._legs: set[socket.socket] = set()
        self._carriers: list[threading.Thread] = []
        self._acceptor = threading.Thread(
            target=self._accept, name="test-proxy-accept", daemon=True
        )
        self._acceptor.start()

    def fires(self) -> dict[str, int]:
        return self.faults.fires()

    def _accept(self) -> None:
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return  # close() shut the listener down
            try:
                server = socket.create_connection(self._upstream)
            except OSError:
                client.close()
                continue
            for leg in (client, server):
                leg.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            carrier = threading.Thread(
                target=self._carry, args=(client, server), name="test-proxy-down", daemon=True
            )
            with self._lock:
                self._legs |= {client, server}
                self._carriers.append(carrier)
            carrier.start()

    def _carry(self, client: socket.socket, server: socket.socket) -> None:
        upward = threading.Thread(
            target=_pump_bytes, args=(client, server), name="test-proxy-up", daemon=True
        )
        upward.start()
        try:
            while True:
                header = _read(server, _FRAME_HEADER.size)
                payload = _read(server, _FRAME_HEADER.unpack(header)[1])
                pause, kill = self.faults.verdict()
                if self._closing.wait(pause) or kill == "drop":
                    break
                if kill == "cut":
                    client.sendall(header + payload[: max(1, len(payload) // 2)])
                    break
                client.sendall(header + payload)
        except (OSError, EOFError):
            pass
        _shut(client, server)
        upward.join(timeout=5.0)
        with self._lock:
            self._legs -= {client, server}
        client.close()
        server.close()

    def close(self) -> None:
        self._closing.set()
        _shut(self._listener)
        self._listener.close()
        self._acceptor.join(timeout=5.0)
        with self._lock:
            _shut(*self._legs)
            carriers = list(self._carriers)
        for carrier in carriers:
            carrier.join(timeout=5.0)

    def __enter__(self) -> "WireProxy":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
