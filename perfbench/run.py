"""blindtrain benchmark: one command, three workloads, a correctness gate.

    python3 perfbench/run.py                      # every workload, tracing off
    python3 perfbench/run.py --trace 1            # ... then a traced run of each
    python3 perfbench/run.py --workload train-small --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it imports the package from ./src.
With --workload it runs that workload and prints every metric by name,
unit and sample count, then one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1
first measures the workload untraced, then again with every layer
wrapped, reports the per-layer metrics and the tracing overhead, and
writes the spans to perfbench/out/.  --record FILE appends the result
with the environment it ran in (nproc, versions, commit) as a JSON line.

The exit code is 0 when every program call passed the gate, 1 when one
failed (the JSON line says which counts), and 2 when the program cannot
be run from here (then nothing is printed to stdout).
"""
from __future__ import annotations

import os

# Before numpy loads: 3 processes (coordinator and 2 workers) on 2 cores,
# so BLAS threads would only contend.  Worker processes inherit this.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-small", "train-wide", "infer-wide")
sys.path.insert(0, str(ROOT / "src"))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sources = sorted((ROOT / "src" / "blindtrain").glob("*.py"))
    digest = hashlib.sha256(b"".join(p.read_bytes() for p in sources)).hexdigest()[:16]
    commit = "unknown"  # a checkout without .git has only the source digest
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": commit,
        "source_sha256": digest,
        "traffic": "loopback TCP, 2 worker processes",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def show(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result and its end-to-end metrics."""
    import numpy as np

    import bench
    import stats
    from tracer import Tracer

    wl = bench.WORKLOADS[name]
    seeds = np.random.SeedSequence([seed, 2024]).generate_state(5)
    setups, s = [], None
    try:
        for _ in range(bench.SET_UPS):
            if s is not None:
                s.close()
            s = bench.set_up(wl, seeds, trace=False)
            setups.append(s.times)
        ref = bench.Reference(wl, s, seeds)
        loop = bench.measure(wl, s, ref, seconds, seed)
    finally:
        if s is not None:
            s.close()
    problems = bench.pinned_inference_k_problems(wl) + loop.problems
    n = len(loop.walls)
    print(f"{name}: seed {seed}, {n} timed program calls in {sum(loop.walls):.2f} s, "
          f"{loop.attempted} {'steps' if wl.task == 'train' else 'batches'} attempted, "
          f"failed_share {stats.failed_share(loop.failed, loop.attempted):.4g}")
    metrics = e2e = bench.end_to_end(wl, setups, loop) if n else {}
    show(metrics)
    if n:
        tail = "" if stats.supports_percentile(n, 90.0) else ", fewer than 10 calls beyond it"
        print(f"  latency over n={n} calls: p90 {stats.percentile(loop.walls, 90.0) * 1e3:.6g} ms{tail}")
    attempted, failed = loop.attempted, loop.failed

    if trace and not problems:
        ref.time_local()
        tracer = Tracer()
        s = bench.set_up(wl, seeds, trace=True)
        try:
            with tracer.installed():
                tloop = bench.measure(wl, s, ref, seconds, seed, tracer)
        finally:
            worker_totals = s.close()
        problems += tloop.problems
        metrics = {}
        if not tloop.problems:
            metrics = bench.per_layer(wl, tracer, worker_totals, setups, ref, loop, tloop)
            if metrics["master.rounds_per_product"][0] != wl.k:
                problems.append(f"traced k = {metrics['master.rounds_per_product'][0]}, pinned {wl.k}")
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        span_file = out / f"trace-{name}-seed{seed}.jsonl"
        tracer.write(span_file)
        print(f"{name} traced: {len(tloop.walls)} timed program calls, {tracer.step} steps, "
              f"{len(tracer.spans)} spans written to {span_file.relative_to(ROOT)}")
        show(metrics)
        _, own, _ = tracer.totals()
        print("  largest self times, share of traced program-call time:")
        for layer, t in own.most_common(6):
            print(f"    {layer:36s} {t / sum(own.values()):7.1%}")
        attempted += tloop.attempted
        failed += tloop.failed

    for p in problems:
        print(f"FAILED {name}: {p}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": as_json(metrics)}
    return result, as_json(e2e)


def as_json(metrics: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    worst = 0
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", args.record]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", help="append the result and its environment to this file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import blindtrain
    except ImportError as exc:
        print(f"cannot import blindtrain from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(blindtrain.__file__).resolve().parent != ROOT / "src" / "blindtrain":
        print(f"blindtrain imported from {blindtrain.__file__}, not from this checkout's src/",
              file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    env = environment()
    print("environment " + json.dumps(env))
    result, e2e = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "environment": env, **result, "end_to_end": e2e}) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
