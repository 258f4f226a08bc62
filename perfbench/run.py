"""qpa benchmark: closed-loop operations on one workload, checked for correctness.

Run one workload (the last stdout line is the JSON result):

    python3 perfbench/run.py --workload suite --seed 1 --seconds 28 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. ``--workload all`` runs the four workloads one
after another, each in a fresh process, prints a table, and with
``--record FILE`` writes every result and the machine record to FILE.

The program is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
NAMES = ("suite", "lifted", "sweep", "certify")
SETUP_STARTS = 9
CHILD_TIMEOUT_S = 150

# end-to-end metrics of an untraced run: (name, unit)
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=28.0, help="length of the measured loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="with --workload all: write every result to this JSON file")
    # internal modes of the child processes this script starts
    p.add_argument("--probe", choices=("setup", "counts"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _child_cmd(*args) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), *map(str, args)]


def _fresh_workdir() -> Path:
    path = WORKDIR / str(os.getpid())
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def machine_record() -> dict:
    """Cores, interpreter, numpy, BLAS and the qpa worker count of this process."""
    import numpy as np
    from qpa import _parallel

    np.linalg.eigh(np.eye(2))  # make sure the BLAS library is loaded
    blas = (np.show_config(mode="dicts").get("Build Dependencies") or {}).get("blas", {})
    record = {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": None,
        "blas_config": None,
        "qpa_worker_count": _parallel.worker_count(),
        "QPA_THREADS": os.environ.get("QPA_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype, threads.argtypes = ctypes.c_int, []
                    config.restype, config.argtypes = ctypes.c_char_p, []
                    record["blas_threads"] = threads()
                    record["blas_config"] = config().decode()
                    return record
    return record


def closed_loop(op, seconds: float, before=None, min_ops: int = 1):
    """Issue ``op`` back to back for ``seconds``, and at least ``min_ops`` times.

    ``before(last)``, if given, runs ahead of each operation, outside its
    timing, with the previous operation's duration (0 before the first).
    Returns the per-operation (durations, outputs, errors) and the loop's wall time.
    """
    durations, outputs, errors = [], [], []
    start = perf_counter()
    while True:
        if before is not None:
            before(durations[-1] if durations else 0.0)
        t0 = perf_counter()
        try:
            outputs.append(op())
            errors.append(None)
        except Exception as exc:  # a failing operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outputs.append(None)
            errors.append(f"raised {type(exc).__name__}: {exc}")
        durations.append(perf_counter() - t0)
        if perf_counter() - start >= seconds and len(durations) >= min_ops:
            return durations, outputs, errors, perf_counter() - start


def verdicts(workload, outputs, errors) -> list[str | None]:
    """Correctness verdict per operation, computed outside the timed loop."""
    good = [o for o, e in zip(outputs, errors) if e is None]
    checked = iter(workload.check(good))
    return [e if e is not None else next(checked) for e in errors]


def setup_seconds(name: str, seed: int, host: HostSpeed) -> list[float]:
    """Wall seconds from starting a fresh interpreter to inputs ready, per start."""
    samples = []
    for _ in range(SETUP_STARTS):
        host.sample()
        t0 = perf_counter()
        proc = subprocess.Popen(
            _child_cmd("--workload", name, "--seed", seed, "--probe", "setup"),
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return samples


def result_line(attempted: int, failed: int, correct: bool, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics})


def run_untraced(name: str, seed: int, seconds: float, workload) -> tuple[bool, str]:
    with HostSpeed() as host:
        setup = setup_seconds(name, seed, host)
        durations, outputs, errors, _ = closed_loop(workload.op, seconds, before=host.sample)
        host.sample()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    bad = [v for v in verdicts(workload, outputs, errors) if v is not None]
    n = len(durations)
    setup_ref = host.scale(setup)
    durations_ref = host.scale(durations, first_gap=len(setup))
    raw = {
        "ops_per_s": n / math.fsum(durations),
        "op_s_p50": statistics.median(durations),
        "setup_s": statistics.median(setup),
    }
    metrics = {
        "ops_per_s": n / math.fsum(durations_ref),
        "op_s_p50": statistics.median(durations_ref),
        "setup_s": statistics.median(setup_ref),
        "peak_rss_mb": peak_kib / 1024,
        "ok_frac": (n - len(bad)) / n,
    }
    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace 0")
    for key, unit in END_TO_END:
        note = f"(measured {raw[key]:.6g} {unit})" if key in raw else ""
        print(f"  {key:14s} {metrics[key]:<14.6g} {unit:6s} {note}")
    print(f"  {'fail_frac':14s} {len(bad) / n:<14.6g} {'ratio':6s} ({len(bad)}/{n} operations)")
    print(f"  op_s_p50 over {n} operations; setup_s median of {len(setup)} fresh starts")
    print(f"  times at reference host speed (see hostspeed.py); the host ran its kernel {host.slowdown():.4g}x slower")
    for reason in sorted(set(bad)):
        print(f"  FAILED: {reason}")
    metrics = {key: {"value": metrics[key], "unit": unit} for key, unit in END_TO_END}
    return not bad, result_line(n, len(bad), not bad, metrics)


def traced_counts(workload) -> tuple[dict, object, str | None]:
    """One traced operation: its layer metrics, output and error."""
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        _, outputs, errors, _ = closed_loop(workload.op, 0.0)
    return tracer.metrics(), outputs[0], errors[0]


def run_traced(name: str, seed: int, seconds: float, workload) -> tuple[bool, str]:
    import tracing

    tracer = tracing.Tracer()
    per_op, traced_s, untraced_s = [], [], []

    def op():
        # operations alternate traced and untraced under the same host conditions;
        # the first is traced, and starts as cold as the self-check's
        tracer.reset()
        tracer.active = len(traced_s) == len(untraced_s)
        t0 = perf_counter()
        try:
            return workload.op()
        finally:
            (traced_s if tracer.active else untraced_s).append(perf_counter() - t0)
            if tracer.active:
                per_op.append(tracer.metrics())
            tracer.active = False

    with tracing.installed(tracer):
        _, outputs, errors, _ = closed_loop(op, seconds, min_ops=2)

    # self-check: a second traced run on the same seed, in a fresh interpreter
    proc = subprocess.run(
        _child_cmd("--workload", name, "--seed", seed, "--probe", "counts"),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    other = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
    counts = {key for key, _, kind, _ in tracing.LAYER_METRICS if kind == "count"}
    mismatched = sorted(key for key in counts if other.get(key) != per_op[0][key])

    bad = [v for v in verdicts(workload, outputs, errors) if v is not None]
    n = len(outputs)
    traced_rate = 1 / statistics.median(traced_s)
    untraced_rate = 1 / statistics.median(untraced_s)
    metrics = {}
    for key, unit, kind, _ in tracing.LAYER_METRICS:
        value = per_op[0][key] if kind == "count" else statistics.median(m[key] for m in per_op)
        metrics[key] = {"value": value, "unit": unit}
    metrics["trace.ops"] = {"value": len(traced_s), "unit": "count"}
    metrics["trace.ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
    metrics["trace.untraced_ops_per_s"] = {"value": untraced_rate, "unit": "1/s"}
    metrics["trace.overhead"] = {"value": untraced_rate / traced_rate - 1.0, "unit": "ratio"}

    print(f"workload {name}  seed {seed}  seconds {seconds:g}  trace 1")
    for key, entry in metrics.items():
        print(f"  {key:32s} {entry['value']:<14.6g} {entry['unit']}")
    print(
        f"  counts from the first traced operation; times are medians over {len(per_op)} traced operations, "
        f"which alternated with {len(untraced_s)} untraced ones (the trace.*ops_per_s are 1/median)"
    )
    for reason in sorted(set(bad)):
        print(f"  FAILED: {reason}")
    if mismatched:
        print(f"  FAILED self-check: a second traced run gave other counts for {mismatched}")
    correct = not bad and not mismatched
    return correct, result_line(n, len(bad), correct, metrics)


def run_all(args) -> int:
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            _child_cmd("--workload", name, "--seed", args.seed, "--seconds", args.seconds, "--trace", args.trace),
            stdout=subprocess.PIPE,
            text=True,
            timeout=args.seconds * 3 + CHILD_TIMEOUT_S,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            results[name] = {"correct": False, "exit": proc.returncode}
    record = {
        "machine": machine_record(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": results,
    }
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    ok = all(r.get("correct") for r in results.values())
    print(json.dumps({"correct": ok, "workloads": {n: r.get("correct") for n, r in results.items()}}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qpa" / "__init__.py").is_file():
        print(f"error: no qpa sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("QPA_THREADS", None)  # measure the configuration users get by default
    if args.workload == "all":
        return run_all(args)

    import workloads

    workdir = _fresh_workdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.probe == "setup":
            print("ready", flush=True)
            return 0
        if args.probe == "counts":
            metrics, output, error = traced_counts(workload)
            verdict = error or workload.check([output])[0]
            print(json.dumps(metrics))
            return 0 if verdict is None else 1
        print(json.dumps({"machine": machine_record()}))
        run = run_traced if args.trace else run_untraced
        correct, line = run(args.workload, args.seed, args.seconds, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKDIR.rmdir()  # only once no other run still has its directory there
    print(line)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
