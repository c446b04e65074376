"""Run one tropcalc benchmark workload and print its metrics.

    python3 bench/run.py --workload intersect --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; tropcalc is imported from ./src.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, taken from ops run with every layer wrapped, interleaved
with untraced ops so that the tracing overhead is measured on the same mix.
A copy of the result, and with ``--trace 1`` every span, is written under
bench/results/.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _elapsed_since_start() -> float:
    """Seconds since the process started.

    Uses the kernel's start time of the process, so interpreter start-up is
    included; falls back to the time since this module was first executed.
    """
    inside = time.perf_counter() - _T0
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return inside
    return age if inside <= age <= inside + 5.0 else inside


def import_tropcalc():
    """The layer modules of the checkout's own tropcalc, by name."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"tropcalc.{name}")
                for name in LAYERS}
    except ImportError as exc:
        raise SystemExit(f"cannot import tropcalc from {src}: {exc}")
    origin = Path(mods["lp"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"tropcalc was imported from {origin}, not {src}")
    return SimpleNamespace(**mods)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    workload = WORKLOADS[args.workload]
    rng = random.Random(f"{workload.name}:{args.seed}")
    shapes = random.Random(f"{workload.name}:shapes")

    # -- set-up: import, generate plain data, build program objects ----------
    tc = import_tropcalc()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    doc, meta = workload.generate(rng, shapes)
    instances = workload.build(tc, doc, meta)
    if tracer:
        tracer.uninstall()
        tracer.end_setup()
    setup_s = _elapsed_since_start()

    # -- measurement: whole ops until the time is up -------------------------
    times, traced_times = [], []
    attempted = failed = 0
    correct = True
    deadline = time.perf_counter() + args.seconds
    while True:
        inst = instances[attempted % len(instances)]
        # With tracing, op 0 warms up and is left out of both sides of the
        # overhead comparison; later ops alternate traced and untraced.
        traced = tracer is not None and attempted % 2 == 1
        warmup = tracer is not None and attempted == 0
        if traced:
            tracer.op_id = attempted
            tracer.install()
        out = None
        start = time.perf_counter()
        try:
            out = workload.run(tc, inst)
        except Exception:  # a raising op is a failed op; keep measuring
            traceback.print_exc()
        end = time.perf_counter()
        if traced:
            tracer.uninstall()
        attempted += 1
        if out is None:
            failed += 1
        else:
            if not warmup:
                (traced_times if traced else times).append(end - start)
            try:
                problems = workload.check(tc, inst, out)
            except Exception:
                traceback.print_exc()
                problems = ["check raised"]
            if problems:
                correct = False
                print(f"op {attempted - 1}: " + "; ".join(problems),
                      file=sys.stderr)
        if time.perf_counter() >= deadline and (
                tracer is None or (attempted % 2 == 1 and attempted >= 3)):
            break

    # -- report ----------------------------------------------------------------
    def rate(ts):
        return len(ts) / sum(ts) if ts else 0.0

    metrics = {}
    if tracer is None:
        metrics["setup_s"] = (setup_s, "s")
        metrics["ops_per_s"] = (rate(times), "1/s")
        metrics["op_p50_s"] = (statistics.median(times) if times else 0.0,
                               "s")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (peak, "MB")
    else:
        metrics.update(tracer.metrics(len(traced_times)))
        metrics["trace.untraced_ops_per_s"] = (rate(times), "1/s")
        metrics["trace.traced_ops_per_s"] = (rate(traced_times), "1/s")
        metrics["trace.overhead_ops_per_s"] = (
            rate(times) - rate(traced_times), "1/s")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer:
        tracer.write(str(RESULTS / f"spans-{workload.name}-seed{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
