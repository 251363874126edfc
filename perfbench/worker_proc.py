"""One untrusted worker as its own OS process, for the benchmark.

Usage: python3 worker_proc.py SEED TRACE

Starts an honest `blindtrain.worker.WorkerServer` on a free loopback
port and prints ``LISTEN <port>``.  It serves until its stdin closes,
then prints one JSON line of counters and exits.  With TRACE=1 it times
the request handler and the frame reads and writes with pass-through
wrappers; the set-up requests (Hello, Config) and their acks are left
out, so the counts are those of the compute requests alone.  The
launching process sets OPENBLAS_NUM_THREADS and OMP_NUM_THREADS.
"""
from __future__ import annotations

import json
import sys
import threading
import time


def _install_tracing(worker, protocol, totals: dict) -> None:
    lock = threading.Lock()
    setup_reply = threading.local()
    setup_types = (protocol.Hello, protocol.Config)

    def add(name: str, seconds: float) -> None:
        with lock:
            totals[name + ".ms"] = totals.get(name + ".ms", 0.0) + seconds * 1e3
            totals[name + ".calls"] = totals.get(name + ".calls", 0) + 1

    read_message, send_message = protocol.read_message, protocol.send_message
    handle = worker.WorkerSession.handle

    def traced_read(sock):
        t0 = time.perf_counter()
        msg = read_message(sock)
        setup_reply.pending = isinstance(msg, setup_types)
        if not setup_reply.pending:
            add("recv", time.perf_counter() - t0)
        return msg

    def traced_send(sock, msg):
        t0 = time.perf_counter()
        send_message(sock, msg)
        if not getattr(setup_reply, "pending", False):
            add("send", time.perf_counter() - t0)

    def traced_handle(self, msg):
        t0 = time.perf_counter()
        reply = handle(self, msg)
        if not isinstance(msg, setup_types):
            add("handle", time.perf_counter() - t0)
        return reply

    protocol.read_message = traced_read
    protocol.send_message = traced_send
    worker.WorkerSession.handle = traced_handle


def main(argv: list[str]) -> int:
    seed, trace = int(argv[1]), argv[2] == "1"
    from blindtrain import protocol, worker

    totals: dict = {}
    if trace:
        _install_tracing(worker, protocol, totals)
    server = worker.WorkerServer("127.0.0.1", 0, worker.WorkerMode.honest(), seed).start()
    cpu0 = time.process_time()
    print(f"LISTEN {server.address[1]}", flush=True)
    sys.stdin.read()  # blocks until the launcher closes our stdin
    server.stop()
    totals["cpu_ms"] = (time.process_time() - cpu0) * 1e3
    print(json.dumps(totals), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
