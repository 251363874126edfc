"""Workloads, set-up, the measured loops and the correctness gate.

Every workload is a closed loop: one client, the coordinator process,
makes its next program call only after the previous one returned.  Two
honest workers serve it, each its own OS process on loopback (one per
shard, no more processes than the 2 cores the figures were taken on),
so the trusted coordinator's CPU stays apart from the workers'.  All
traffic is loopback TCP.  The benchmark sets no socket option and
changes no program code: the untraced run only calls the public API.
"""
from __future__ import annotations

import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blindtrain import data, master, nn
from blindtrain.master import WorkerFault
from blindtrain.obfuscate import IntegrityConfig, IntegrityFailure, min_rounds

import stats
from tracer import Tracer

HERE = Path(__file__).resolve().parent
N_WORKERS = 2
T = 0.01  # whole-run escape budget the probe count k derives from
KEYSPACE = 255
LEARNING_RATE = 0.05
EPOCHS_PER_CALL = 1  # one run_training call is one epoch; k depends on it
SET_UPS = 5  # set-ups per run; setup_s is their median
INFER_BATCHES = 4  # distinct 1,024-column batches infer-wide cycles through
WEIGHT_TOLERANCE = 1e-6
# The local floor is timed apart from the untraced loop, for the traced
# run's ratios only: local calls interleaved with the loop shifted the
# coordinator's heap from run to run, and its figures with it.
LOCAL_SECONDS = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    task: str  # "train" | "infer"
    dims: tuple
    policy: str  # "tensor" (weight rows per shard) | "data" (batch columns per shard)
    per_class: int  # gen_blobs samples per class; dims[-1] classes in dims[0] dimensions
    separation: float
    batch: int
    pipelined: bool
    k: int  # probe rounds per product the program must derive

    @property
    def n_samples(self) -> int:
        return self.per_class * self.dims[-1]

    @property
    def steps_per_call(self) -> int:
        if self.task == "infer":
            return 1
        return EPOCHS_PER_CALL * math.ceil(self.n_samples / self.batch)

    @property
    def samples_per_call(self) -> int:
        return self.batch if self.task == "infer" else EPOCHS_PER_CALL * self.n_samples


WORKLOADS = {
    # Criterion 5's job: few-KiB messages, so round trips, per-message
    # cost and the k-round probe loop dominate; no pipelining, row split.
    "train-small": Workload("train-small", "train", (2, 16, 16, 2), "tensor",
                            200, 10.0, 32, False, 15),
    # MiB operands: blinding, verification, codec copies and the worker
    # matmul dominate; the only workload on the pipelined and column paths.
    "train-wide": Workload("train-wide", "train", (64, 512, 512, 10), "data",
                           256, 4.0, 256, True, 15),
    # The wide net forward-only: StorePair+MultFwd, fresh keys per call,
    # the full batch to every shard and the smaller inference k.
    "infer-wide": Workload("infer-wide", "infer", (64, 512, 512, 10), "tensor",
                           256, 4.0, 1024, False, 10),
}


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


class WorkerProcs:
    """N worker processes on loopback; closing stdin stops them and they
    print their counters."""

    def __init__(self, seed: int, trace: bool):
        script = str(HERE / "worker_proc.py")
        self.procs = [
            subprocess.Popen([sys.executable, script, str(seed + i), str(int(trace))],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             env=worker_env(), text=True)
            for i in range(N_WORKERS)
        ]
        try:
            self.addresses = [("127.0.0.1", self._port(p)) for p in self.procs]
        except BaseException:
            self.kill()
            raise

    @staticmethod
    def _port(proc) -> int:
        line = proc.stdout.readline()
        if not line.startswith("LISTEN "):
            raise RuntimeError(f"worker process did not start (said {line!r})")
        return int(line.split()[1])

    def stop(self) -> list[dict]:
        totals = []
        for p in self.procs:
            p.stdin.close()
        for p in self.procs:
            out = p.stdout.read()
            p.wait(timeout=30)
            totals.append(json.loads(out.strip().splitlines()[-1]))
        return totals

    def kill(self) -> None:
        for p in self.procs:
            if p.poll() is None:
                p.kill()
            p.wait()


@dataclass
class SetUp:
    workers: WorkerProcs
    pool: master.WorkerPool
    dataset: data.Dataset
    net: nn.Network
    times: dict  # phase -> seconds

    def close(self) -> list[dict]:
        self.pool.close()
        return self.workers.stop()


def set_up(wl: Workload, seeds, trace: bool) -> SetUp:
    """Spawn the workers until they listen, connect the pool (Hello and
    Config), generate the data and build the net.  Timed as setup_s."""
    t0 = time.perf_counter()
    workers = WorkerProcs(int(seeds[0]), trace)
    t1 = time.perf_counter()
    try:
        pool = master.WorkerPool.connect(workers.addresses, n_layers=len(wl.dims) - 1)
    except BaseException:
        workers.kill()
        raise
    t2 = time.perf_counter()
    try:
        dataset = data.gen_blobs(wl.per_class, wl.dims[-1], wl.dims[0], wl.separation,
                                 int(seeds[1]))
        t3 = time.perf_counter()
        net = nn.Network.from_dims(list(wl.dims), [wl.policy] * (len(wl.dims) - 1))
        net.init_weights(int(seeds[2]))
    except BaseException:
        pool.close()
        workers.kill()
        raise
    t4 = time.perf_counter()
    times = {"setup_s": t4 - t0, "spawn_workers": t1 - t0, "connect": t2 - t1,
             "gen_blobs": t3 - t2}
    return SetUp(workers, pool, dataset, net, times)


def copy_net(wl: Workload, net: nn.Network) -> nn.Network:
    out = nn.Network.from_dims(list(wl.dims), [wl.policy] * (len(wl.dims) - 1))
    for dst, src in zip(out.linears, net.linears):
        dst.W, dst.b = src.W.copy(), src.b.copy()
    return out


class Reference:
    """What LocalExecutor computes for the same net, data and seed: the
    gate's expected outputs, and the local wall time offloading is quoted
    against."""

    def __init__(self, wl: Workload, s: SetUp, seeds):
        self.wl = wl
        self.train_seed = int(seeds[3])
        self.walls: list[float] = []
        if wl.task == "train":
            def local():
                net = copy_net(wl, s.net)
                nn.train(net, s.dataset, nn.TrainConfig(LEARNING_RATE, wl.batch,
                                                        EPOCHS_PER_CALL, self.train_seed),
                         nn.LocalExecutor())
                return net, nn.accuracy(net, s.dataset)

            self._local = local
            self.net, self.accuracy = local()
        else:
            order = np.random.default_rng(int(seeds[3])).permutation(wl.n_samples)
            stride = wl.n_samples // INFER_BATCHES
            self.batches = [np.ascontiguousarray(s.dataset.features[:, np.roll(order, -i * stride)[:wl.batch]])
                            for i in range(INFER_BATCHES)]
            self.expected = [nn.predict(s.net, x) for x in self.batches]
            self._local = lambda: nn.predict(s.net, self.batches[len(self.walls) % INFER_BATCHES])

    def time_local(self) -> None:
        """Time local calls for LOCAL_SECONDS, and at least 3 of them."""
        started = time.perf_counter()
        while len(self.walls) < 3 or time.perf_counter() - started < LOCAL_SECONDS:
            t0 = time.perf_counter()
            self._local()
            self.walls.append(time.perf_counter() - t0)

    def check_train(self, net: nn.Network, report: dict) -> list[str]:
        problems = []
        worst = max(max(float(np.max(np.abs(a.W - b.W))), float(np.max(np.abs(a.b - b.b))))
                    for a, b in zip(net.linears, self.net.linears))
        if not worst <= WEIGHT_TOLERANCE:
            problems.append(f"weights differ from LocalExecutor by {worst:.3e}")
        if report["accuracy"] != self.accuracy:
            problems.append(f"accuracy {report['accuracy']} != local {self.accuracy}")
        if report["verification_rounds_per_product"] != self.wl.k:
            problems.append(f"k = {report['verification_rounds_per_product']}, pinned {self.wl.k}")
        if report["stats"]["failures"] != 0:
            problems.append(f"stats.failures = {report['stats']['failures']}")
        return problems


@dataclass
class Loop:
    walls: list  # seconds per program call
    cpus: list  # coordinator CPU seconds per program call
    attempted: int  # steps (train) or batches (infer)
    failed: int
    problems: list
    peak_rss_mb: float


def measure(wl: Workload, s: SetUp, ref: Reference, seconds: float, seed: int,
            tracer: Tracer | None = None) -> Loop:
    """One warm-up call, then calls back to back until `seconds` have
    passed.  Every call is gated; the warm-up is not timed.  A call that
    raises or fails the gate ends the loop."""
    walls, cpus, problems = [], [], []
    calls = 0
    deadline = None
    while not problems and (deadline is None or time.perf_counter() < deadline):
        i, calls = calls, calls + 1
        if tracer is not None:
            tracer.unit = calls
        try:
            if wl.task == "train":
                net = copy_net(wl, s.net)
                c0, t0 = time.process_time(), time.perf_counter()
                net, _, report = master.run_training(
                    net, s.dataset, s.pool, learning_rate=LEARNING_RATE, batch_size=wl.batch,
                    epochs=EPOCHS_PER_CALL, seed=ref.train_seed, t=T, keyspace=KEYSPACE,
                    pipelined=wl.pipelined)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                problems = ref.check_train(net, report)
            else:
                x = ref.batches[i % INFER_BATCHES]
                c0, t0 = time.process_time(), time.perf_counter()
                preds = master.run_inference(s.net, x, s.pool, seed=seed * 100003 + i,
                                             t=T, keyspace=KEYSPACE)
                wall, cpu = time.perf_counter() - t0, time.process_time() - c0
                if not np.array_equal(preds, ref.expected[i % INFER_BATCHES]):
                    problems = ["predictions differ from nn.predict"]
        except (IntegrityFailure, WorkerFault, OSError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        if deadline is None:
            deadline = time.perf_counter() + seconds
        elif not problems:
            walls.append(wall)
            cpus.append(cpu)
    problems = [f"call {calls - 1}: {p}" for p in problems]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return Loop(walls, cpus, calls * wl.steps_per_call,
                wl.steps_per_call if problems else 0, problems, peak)


def pinned_inference_k_problems(wl: Workload) -> list[str]:
    """run_inference derives k from the same public rule; pin its value."""
    if wl.task != "infer":
        return []
    k = min_rounds(IntegrityConfig(t=T, task="inference", n_workers=N_WORKERS,
                                   n_layers=len(wl.dims) - 1))
    return [] if k == wl.k else [f"inference k = {k}, pinned {wl.k}"]


def end_to_end(wl: Workload, setups: list[dict], loop: Loop) -> dict:
    return {
        "setup_s": (stats.median([t["setup_s"] for t in setups]), "s"),
        "samples_per_s": (wl.samples_per_call / stats.median(loop.walls), "1/s"),
        "latency_ms_p50": (stats.median(loop.walls) * 1e3, "ms"),
        "coord_cpu_ms_per_sample": (stats.median(loop.cpus) * 1e3 / wl.samples_per_call, "ms"),
        "coord_peak_rss_mb": (loop.peak_rss_mb, "MiB"),
    }


def per_layer(wl: Workload, tracer: Tracer, worker_totals: list[dict], setups: list[dict],
              ref: Reference, untraced: Loop, traced: Loop) -> dict:
    """Per-layer figures of the traced run, per step (train) or per
    batch (infer) unless the name says otherwise, and the ratios of the
    untraced run to the local floor and to the traced run."""
    total, own, calls = tracer.totals()
    c = tracer.counts
    steps = tracer.step
    roots = total["master.run_training"] + total["master.run_inference"]

    def ms(value):
        return value * 1e3 / steps

    def workers(key):
        return sum(w.get(key, 0) for w in worker_totals) / steps

    return {
        "master.collect.ms": (ms(total["master.collect"]), "ms"),
        "master.collect.calls": (calls["master.collect"] / steps, "count"),
        "master.collect.share": (total["master.collect"] / roots, "ratio"),
        "master.forward.ms": (ms(own["master.forward"]), "ms"),
        "master.backward.ms": (ms(own["master.backward"]), "ms"),
        "master.verification_rounds": (c["dec.rounds"] / steps, "count"),
        "master.rounds_per_product": (c["dec.rounds"] / calls["obfuscate.dec"], "count"),
        "master.verify_flops_per_product_flop": (c["verify.flops"] / c["product.flops"], "ratio"),
        "master.matrices_encrypted": (calls["obfuscate.blind"] / steps, "count"),
        "master.matrices_decrypted": (calls["obfuscate.dec"] / steps, "count"),
        "obfuscate.verify.ms": (ms(own["obfuscate.dec"]), "ms"),
        "obfuscate.blind.ms": (ms(total["obfuscate.blind"]), "ms"),
        "obfuscate.blind.calls": (calls["obfuscate.blind"] / steps, "count"),
        "obfuscate.unblind.ms": (ms(total["obfuscate.unblind"]), "ms"),
        "obfuscate.kgen.ms": (ms(total["obfuscate.kgen"]), "ms"),
        "obfuscate.kgen.calls": (calls["obfuscate.kgen"] / steps, "count"),
        "protocol.send.ms": (ms(total["protocol.send"]), "ms"),
        "protocol.send.frames": (c["send.frames"] / steps, "count"),
        "protocol.send.bytes": (c["send.bytes"] / steps, "bytes"),
        "protocol.recv.ms": (ms(total["protocol.recv"]), "ms"),
        "protocol.recv.frames": (c["recv.frames"] / steps, "count"),
        "protocol.recv.bytes": (c["recv.bytes"] / steps, "bytes"),
        "worker.handle.ms": (workers("handle.ms"), "ms"),
        "worker.handle.calls": (workers("handle.calls"), "count"),
        "worker.recv.ms": (workers("recv.ms"), "ms"),
        "worker.send.ms": (workers("send.ms"), "ms"),
        "worker.cpu_ms": (workers("cpu_ms"), "ms"),
        "nn.forward.ms": (ms(total["nn.forward"]), "ms"),
        "nn.backward.ms": (ms(total["nn.backward"]), "ms"),
        "nn.glue.ms": (ms(own["nn.forward"] + own["nn.backward"] + own["nn.loss"]), "ms"),
        "nn.local_step_ms": (stats.median(ref.walls) * 1e3 / wl.steps_per_call, "ms"),
        "setup.spawn_workers.ms": (stats.median([t["spawn_workers"] for t in setups]) * 1e3, "ms"),
        "setup.connect.ms": (stats.median([t["connect"] for t in setups]) * 1e3, "ms"),
        "data.gen_blobs.ms": (stats.median([t["gen_blobs"] for t in setups]) * 1e3, "ms"),
        "offload_overhead_x": (stats.median(untraced.walls) / stats.median(ref.walls), "x"),
        "trace.overhead_x": (stats.median(traced.walls) / stats.median(untraced.walls), "x"),
    }
