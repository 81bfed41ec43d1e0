"""Run one workload in this fresh interpreter and print the measurements as one JSON line.

Started by run.py with ``PYTHONPATH`` pointing at the checkout's ``src``.  Ops
go in-process through ``mondrian.cli.main``, one at a time in a closed loop,
cycling through the seed-shuffled op list: the first pass runs every op, and
after it an op starts only if its last time still fits in the budget.  Each
op's time is the trimmed mean of its samples; between ops the workload's
reference work is timed, and the end-to-end times are given as multiples of
its trimmed mean.  Answers are checked after the
loop, outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import random
import resource
import statistics
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

import mondrian
import mondrian.cli
import numpy

import spans
import workloads

REFERENCE_SHARE = 0.05  # of the run spent timing the reference work
TRIM = 0.2  # share of samples cut from each end before averaging

@dataclass
class OpRecord:
    index: int  # position in the shuffled op list
    op: workloads.Op
    seconds: float
    cpu_s: float
    status: int | None
    stdout: str
    error: str | None


def run_op(op: workloads.Op, index: int, tracer: spans.Tracer | None, sample: int) -> OpRecord:
    argv = [*op.argv, "--workers", "1"]
    out = io.StringIO()
    error = None
    root = tracer.open(spans.ROOT, op=sample) if tracer else None
    c0, t0 = process_time(), perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            status = mondrian.cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad usage by exiting
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        status, error = None, traceback.format_exc(limit=4)
    seconds, cpu_s = perf_counter() - t0, process_time() - c0
    if root is not None:
        tracer.close(root)
    return OpRecord(index, op, seconds, cpu_s, status, out.getvalue(), error)


def sample_ops(ops: list[workloads.Op], reference: Callable[[], int], budget_s: float,
               tracer: spans.Tracer | None = None) -> tuple[list[OpRecord], list[float]]:
    """Every op once, then more cycles while ops still fit in ``budget_s``.

    After each op, ``reference`` is timed until it has taken REFERENCE_SHARE
    of the time so far, so its samples spread over the run like the ops'.
    With a tracer, the root span of the k-th op run has op id k.
    """
    records: list[OpRecord] = []
    refs: list[float] = []
    last: dict[int, float] = {}
    ref_s = 0.0
    start = perf_counter()
    for k in itertools.count():
        i = k % len(ops)
        if k >= len(ops):
            remaining = budget_s - (perf_counter() - start)
            if min(last.values()) > remaining:
                return records, refs
            if last[i] > remaining:
                continue
        record = run_op(ops[i], i, tracer, len(records))
        last[i] = record.seconds
        records.append(record)
        while ref_s < REFERENCE_SHARE * (perf_counter() - start):
            t0 = perf_counter()
            reference()
            refs.append(perf_counter() - t0)
            ref_s += refs[-1]
    raise AssertionError("unreachable")


def trimmed_mean(values: list[float]) -> float:
    """Mean of the values left after cutting TRIM of them from each end.

    Like a long op, a mean averages the host's speed swings; the cut drops the
    rare sample that a stall of the whole host stretched.
    """
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut : len(values) - cut])


def per_op_means(records: list[OpRecord], attr: str) -> dict[int, float]:
    """Each op's trimmed mean over its samples."""
    samples: dict[int, list[float]] = {}
    for r in records:
        samples.setdefault(r.index, []).append(getattr(r, attr))
    return {i: trimmed_mean(v) for i, v in samples.items()}


def per_op_layer_totals(records: list[OpRecord], recorded: list[spans.Span]) -> dict[str, float]:
    """``spans.layer_totals`` of each op, trimmed-meaned over its traced samples, summed over ops.

    The root span of ``records[k]`` has op id k, as ``sample_ops`` assigns them.
    """
    by_sample: dict[int, list[spans.Span]] = {}
    for s in recorded:
        by_sample.setdefault(s.op, []).append(s)
    samples: dict[int, list[dict[str, float]]] = {}
    for k, r in enumerate(records):
        samples.setdefault(r.index, []).append(spans.layer_totals(by_sample[k]))
    keys = spans.layer_totals([])
    return {key: sum(trimmed_mean([t[key] for t in op]) for op in samples.values())
            for key in keys}


def failure(record: OpRecord) -> str | None:
    """Why an op counts as failed, or None when its answer matches the reference."""
    name = " ".join(record.op.argv)
    if record.error is not None:
        return f"{name}: raised\n{record.error}"
    if record.status != 0:
        return f"{name}: exit status {record.status}"
    try:
        reason = record.op.check(record.stdout, record.op.expected)
    except Exception as exc:  # a malformed answer is a failed op, not a crashed benchmark
        reason = f"check raised {exc!r}"
    return None if reason is None else f"{name}: {reason}"


def measure(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    ops = list(workload.ops)
    random.Random(seed).shuffle(ops)
    result: dict = {"order": [" ".join(op.argv) for op in ops]}
    if trace:
        plain, refs = sample_ops(ops, workload.reference, seconds / 2)
        tracer = spans.Tracer()
        with tracer:
            traced, traced_refs = sample_ops(ops, workload.reference, seconds / 2, tracer)
        first_pass = [s for s in tracer.spans if s.op < len(ops)]
        wall_s = sum(per_op_means(plain, "seconds").values())
        metrics = spans.layer_metrics(per_op_layer_totals(traced, tracer.spans))
        ref_s = trimmed_mean(refs)
        traced_ref = sum(per_op_means(traced, "seconds").values()) / trimmed_mean(traced_refs)
        metrics.update(wall_s=wall_s, ref_s=ref_s, trace_overhead=traced_ref / (wall_s / ref_s))
        result["missing"] = tracer.missing
        result["spans"] = [asdict(s) for s in first_pass]
        records = plain + traced
    else:
        records, refs = sample_ops(ops, workload.reference, seconds)
        ref = trimmed_mean(refs)
        times = per_op_means(records, "seconds")
        metrics = {
            "wall_ref": sum(times.values()) / ref,
            "cpu_ref": sum(per_op_means(records, "cpu_s").values()) / ref,
            "slowest_op_ref": max(times.values()) / ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "wall_s": sum(times.values()),
            "ref_s": ref,
        }
        result["reference_s"] = refs
    failures = [f for f in map(failure, records) if f is not None]
    result.update(
        attempted=len(records),
        failed=len(failures),
        failures=failures,
        metrics=metrics,
        samples=[[r.index, r.seconds, r.cpu_s] for r in records],
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--root", type=Path, required=True)
    args = parser.parse_args(argv)
    src = (args.root / "src").resolve()
    if src not in Path(mondrian.__file__).resolve().parents:
        print(f"mondrian imported from {mondrian.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.root)
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    result["numpy_version"] = numpy.__version__
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
