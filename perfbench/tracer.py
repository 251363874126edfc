"""Spans and counts for the traced run, recorded from outside the package.

`Tracer.installed()` replaces public functions of blindtrain's modules
with pass-through wrappers that time each call and count what crosses
the boundary, and puts the originals back on exit.  The wrappers hand
every argument, return value and exception through unchanged, so the
traced run computes exactly what the untraced run does; the correctness
gate runs on both.  The untraced run installs nothing.

Each span is (name, start, end, parent, unit, step): parent is the index
of the enclosing span (-1 at the root), unit counts the program calls
the benchmark makes, step counts the forward passes (training steps or
inference batches).
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import Counter

from blindtrain import master, nn, obfuscate, protocol
from stats import self_times


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.unit = 0
        self.step = 0
        self._stack: list[int] = []
        self._opaque = 0

    def wrap(self, name: str, fn, count=None, opaque: bool = False):
        """Time fn as span `name`.  count(args, result) adds to the
        counters.  Calls made inside an opaque span record nothing: they
        belong to it (the local accuracy pass inside run_training)."""
        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            if name == "nn.forward":
                self.step += 1
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), 0.0, parent, self.unit, self.step]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            self._opaque += opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                self._opaque -= opaque
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        def dec_flops(args, _):
            # dec(sk, c_enc, a_plain, b_plain, k, ...): k probes of A(Br) - Cr
            (m, n), p, k = args[2].shape, args[3].shape[1], args[4]
            self.counts["dec.rounds"] += k
            self.counts["verify.flops"] += k * (m * n + n * p + m * p)
            self.counts["product.flops"] += m * n * p

        def sent(args, _):
            self.counts["send.frames"] += 1

        def encoded(args, frame):
            self.counts["send.bytes"] += len(frame)

        def received(args, msg):
            self.counts["recv.frames"] += 1
            self.counts["recv.bytes"] += frame_bytes(msg)

        patches = [
            (master, "run_training", "master.run_training", None, False),
            (master, "run_inference", "master.run_inference", None, False),
            (master.EncryptedExecutor, "multiply_forward", "master.forward", None, False),
            (master.EncryptedExecutor, "multiply_backward", "master.backward", None, False),
            (master.WorkerConnection, "collect", "master.collect", None, False),
            (master, "kgen", "obfuscate.kgen", None, False),
            (master, "enc_left", "obfuscate.blind", None, False),
            (master, "enc_right", "obfuscate.blind", None, False),
            (master, "dec", "obfuscate.dec", dec_flops, False),
            (obfuscate, "dec_only", "obfuscate.unblind", None, False),
            (protocol, "send_message", "protocol.send", sent, False),
            (protocol, "encode", "protocol.encode", encoded, False),
            (protocol, "read_message", "protocol.recv", received, False),
            (nn, "forward", "nn.forward", None, False),
            (nn, "backward", "nn.backward", None, False),
            (nn, "cross_entropy_softmax", "nn.loss", None, False),
            (nn, "accuracy", "nn.accuracy", None, True),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in patches]
        try:
            for owner, attr, name, count, opaque in patches:
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), count, opaque))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: summed duration, summed self time and call count."""
        selfs = self_times([(s[1], s[2], s[3]) for s in self.spans])
        total, own, calls = Counter(), Counter(), Counter()
        for span, own_time in zip(self.spans, selfs):
            total[span[0]] += span[2] - span[1]
            own[span[0]] += own_time
            calls[span[0]] += 1
        return total, own, calls

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "unit", "step")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def frame_bytes(msg) -> int:
    """Size on the wire of a frame the coordinator received (a Result or
    an Error), from the documented frame layout."""
    if isinstance(msg, protocol.Result):
        payload = 9 + sum(8 + m.size * 8 for m in msg.matrices)
    else:
        payload = 2 + len(msg.text.encode("utf-8"))
    return protocol.HEADER.size + payload
