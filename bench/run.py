"""Benchmark of xzmeas: one workload per run, in a fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/`` beside
this directory.  With ``--trace 0`` the last line of standard output is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a traced run.  The line before it records the machine,
every iteration time, the output digest and every check's worst margin.
See bench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

#: timed iterations at least, however short --seconds is
MIN_ITERATIONS = 3
#: fresh processes timed from start to inputs-ready; setup_s is their median
SETUP_PROBES = 5


def _program_available() -> bool:
    try:
        import xzmeas
    except ImportError:
        return False
    return Path(xzmeas.__file__).resolve().is_relative_to(SRC)


def machine_record() -> dict:
    import numpy as np

    rec = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        rec["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        rec["blas"] = "unknown"
    try:
        models = [ln.split(":", 1)[1].strip() for ln in open("/proc/cpuinfo") if ln.startswith("model name")]
        rec["cpu"] = models[0] if models else platform.machine()
        mem_kb = next(int(ln.split()[1]) for ln in open("/proc/meminfo") if ln.startswith("MemTotal"))
        rec["ram_mb"] = mem_kb // 1024
        caches = {}
        for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
            kind = (d / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{(d / 'level').read_text().strip()}"] = (d / "size").read_text().strip()
        rec["caches"] = caches
    except (OSError, StopIteration):
        rec.setdefault("cpu", platform.machine())
    rec["commit"] = _git_commit()
    return rec


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_probe(name: str, seed: int, spawned_at: float) -> None:
    """Body of a set-up probe process: import the program, build the inputs,
    print the seconds since the parent spawned this process."""
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        WORKLOADS[name]().prepare(seed, Path(tmp))
        print(time.monotonic() - spawned_at)


def setup_seconds(name: str, seed: int) -> float:
    # The probe reports its own time: a parent wait with a timeout polls in
    # steps of up to 50 ms, which would quantize the measurement.
    times = []
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, __file__, "--setup-probe", str(time.monotonic()),
             "--workload", name, "--seed", str(seed)],
            check=True, capture_output=True, text=True,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, detail line)."""
    from tracing import NullTracer, Tracer, layer_metrics, traced_program

    null = NullTracer()
    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        workload.prepare(seed, Path(tmp))
        # warm-up iteration: its outputs are the ones checked
        first = workload.run(null)
        checks = workload.check(first)
        reference = workload.digest(first)

        def same_digest(out):
            return ("same_seed_digest", int(workload.digest(out) != reference), 0)

        walls, cpu, traced = [], [], []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(walls) < MIN_ITERATIONS:
            c0, t0 = time.process_time(), time.perf_counter()
            out = workload.run(null)
            walls.append(time.perf_counter() - t0)
            cpu.append(time.process_time() - c0)
            checks.append(same_digest(out))
            if trace:
                with traced_program(tracer):
                    t0 = time.perf_counter()
                    out = workload.run(tracer)
                    traced.append(time.perf_counter() - t0)
                tracer.add("cli.bytes_written", sum(
                    f.stat().st_size for d in workload.cli_dirs for f in Path(d).iterdir()))
                checks.append(same_digest(out))

    wall = statistics.median(walls)
    if trace:
        layers = layer_metrics(tracer, len(traced))
        layers["process.cpu_s"] = (statistics.median(cpu), "s")
        layers["trace.overhead_s"] = (statistics.median(traced) - wall, "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "throughput": {"value": workload.work / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": setup_seconds(workload.name, seed), "unit": "s"},
        }
    failed = [c for c in checks if not c[1] <= c[2]]
    worst = {}
    for name, value, limit in checks:
        share = value / limit if limit else float(value != 0)
        worst[name] = max(worst.get(name, 0.0), share)
    detail = {
        "workload": workload.name,
        "seed": seed,
        "throughput_unit": workload.unit,
        "work_per_iteration": workload.work,
        "iterations": len(walls),
        "wall_s_samples": walls,
        "cpu_s_median": statistics.median(cpu),
        "digest": reference,
        "check_worst_share_of_limit": worst,
        "failed_checks": failed,
        "machine": machine_record(),
    }
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, metavar="SPAWNED_AT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    result, detail = measure(WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace))
    for name, value, limit in detail["failed_checks"]:
        print(f"check failed: {name}: {value!r} > {limit!r}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not _program_available():
        print(f"xzmeas sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
