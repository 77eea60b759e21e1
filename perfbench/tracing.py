"""Layer timings taken from outside spircr, for the traced run only.

The tracer replaces public functions in spircr's module namespaces with
timed wrappers; the program's own code is not changed. Every wrapped call is
kept as a duration under its layer name, and, while an op is open, is also
added to that op's per-layer total. Counters (connections, frames, octets)
are kept per op only.
"""
from __future__ import annotations

import functools
import resource
import threading
import time
from collections import defaultdict

# Frame header of the wire format: magic 4, version 1, type 1, length 4.
FRAME_HEADER_OCTETS = 10

AUDIT_FUNCTIONS = (
    "reliability_audit",
    "user_privacy_audit",
    "database_privacy_audit",
    "cr_difference_audit",
)


def peak_rss_mb() -> float:
    """This process's RSS high-water mark (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._op: dict[str, float] | None = None
        self.ops: list[dict[str, float]] = []
        self.calls: dict[str, list[float]] = defaultdict(list)
        self.local = threading.local()

    def begin_op(self) -> None:
        with self._lock:
            self._op = defaultdict(float)

    def end_op(self) -> None:
        with self._lock:
            self.ops.append(dict(self._op))
            self._op = None

    def record(self, layer: str, seconds: float) -> None:
        with self._lock:
            self.calls[layer].append(seconds)
            if self._op is not None:
                self._op[layer] += seconds

    def count(self, layer: str, amount: float = 1) -> None:
        with self._lock:
            if self._op is not None:
                self._op[layer] += amount

    def wrap(self, namespace, attr: str, layer: str, after=None) -> None:
        """Time every call of ``namespace.attr``; ``after()`` runs on return."""
        original = getattr(namespace, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.record(layer, time.perf_counter() - t0)
                if after is not None:
                    after()

        setattr(namespace, attr, traced)

    def dump(self) -> dict:
        return {"ops": self.ops, "calls": dict(self.calls)}


class _TracedSocketModule:
    """Stands in for the socket module inside spircr.net to time connects."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def create_connection(self, *args, **kwargs):
        t0 = time.perf_counter()
        sock = self._real.create_connection(*args, **kwargs)
        self._tracer.record("net.connect", time.perf_counter() - t0)
        self._tracer.count("net.connections")
        self._tracer.local.exchange_t0 = t0
        return sock


def install_client(tracer: Tracer) -> None:
    """Wrap the layers a retrieval client runs: plan, scheme, sim, wire, net."""
    from spircr import net, scheme, sim

    tracer.wrap(scheme, "build_pir_plan", "plan.build_pir_plan")
    tracer.wrap(scheme, "assign_common_randomness", "scheme.assign_common_randomness")
    tracer.wrap(scheme, "permute_nonseed", "scheme.relabel")
    tracer.wrap(scheme, "shift_cell", "scheme.relabel")
    for module in (sim, net):
        tracer.wrap(module, "select_query", "scheme.select_query")
    tracer.wrap(sim, "deal", "sim.deal")
    tracer.wrap(sim, "answer_query", "sim.answer_query")
    tracer.wrap(sim, "decode", "sim.decode")
    tracer.wrap(net, "encode_query_payload", "wire.encode_query")
    tracer.wrap(net, "decode_answer_payload", "wire.decode_answer")

    write_frame, read_frame = net.write_frame, net.read_frame

    def traced_write(sock, frame):
        write_frame(sock, frame)
        tracer.count("wire.frames")
        tracer.count("wire.bytes_up", FRAME_HEADER_OCTETS + len(frame.payload))

    def traced_read(sock):
        frame = read_frame(sock)
        t0 = getattr(tracer.local, "exchange_t0", None)
        if t0 is not None:
            tracer.record("net.exchange", time.perf_counter() - t0)
            tracer.local.exchange_t0 = None
        if frame is not None:
            tracer.count("wire.frames")
            tracer.count("wire.bytes_down", FRAME_HEADER_OCTETS + len(frame.payload))
        return frame

    class TracedExecutor(net.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            self._trace_t0 = time.perf_counter()
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.record("net.executor", time.perf_counter() - self._trace_t0)

    net.write_frame, net.read_frame = traced_write, traced_read
    net.ThreadPoolExecutor = TracedExecutor
    net.socket = _TracedSocketModule(net.socket, tracer)


def install_audit(tracer: Tracer) -> None:
    """Wrap the four audits, table enumeration and the scheme calls it makes."""
    from spircr import audit

    tracer.wrap(audit, "assign_common_randomness", "scheme.assign_common_randomness")
    tracer.wrap(audit, "permute_nonseed", "scheme.relabel")
    tracer.wrap(audit, "tables_for_seed", "audit.tables_for_seed")
    for name in AUDIT_FUNCTIONS:
        layer = f"audit.{name.removesuffix('_audit')}"

        def after(layer=layer):
            tracer.count(f"{layer}_rss_mb", peak_rss_mb())

        tracer.wrap(audit, name, layer, after=after)


def install_server(tracer: Tracer, server) -> None:
    """Wrap what a database server runs per frame."""
    from spircr import net

    tracer.wrap(server, "handle_frame", "net.server_handle_frame")
    tracer.wrap(net, "decode_query_payload", "wire.decode_query")
    tracer.wrap(net, "encode_answer_payload", "wire.encode_answer")
    tracer.wrap(net, "answer_query", "sim.answer_query")
