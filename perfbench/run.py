"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The workload runs in a fresh interpreter
(worker.py) that imports mondrian from the checkout's ``src``, with
``--workers 1`` on every op and ``MONDRIAN_THREADS`` unset.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of
BENCHMARK.json.  The last line of stdout is the result object; the full
record, with the environment, every op time and the spans of a traced run,
goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PAIRS = 8  # half before the workload, half after, so both ends of the run count
# The host's cost of starting an interpreter drifts by a quarter within
# minutes, so set-up time is given at a fixed start-up speed.  Each start that
# imports mondrian is paired with a start that imports numpy alone: numpy is
# most of mondrian's import and does not change with mondrian, and the drift
# moves both starts alike.  setup_s is the median ratio of the pair times
# REFERENCE_START_S, what the numpy start took on the host the benchmark was
# written on (README.md gives the measurements).
REFERENCE_START = "import numpy"
REFERENCE_START_S = 0.150
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a result; nothing is printed on stdout."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MONDRIAN_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def start_seconds(root: Path, env: dict[str, str], code: str) -> float:
    """Wall time of ``python -c code`` in a fresh interpreter."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    seconds = perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"python -c {code!r} failed:\n{proc.stderr}")
    return seconds


def setup_pairs(root: Path, env: dict[str, str], count: int) -> list[tuple[float, float]]:
    """``count`` pairs of (``import mondrian`` start, reference start), in alternating order."""
    pairs = []
    for i in range(count):
        codes = ["import mondrian", REFERENCE_START]
        if i % 2:
            codes.reverse()
        times = dict(zip(codes, (start_seconds(root, env, c) for c in codes)))
        pairs.append((times["import mondrian"], times[REFERENCE_START]))
    return pairs


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def run(args: argparse.Namespace, spec: dict, root: Path = ROOT) -> dict:
    """Measure one workload and return the full record, result line included."""
    start = perf_counter()
    if not (root / "src" / "mondrian" / "__init__.py").is_file():
        raise BenchError(f"no mondrian package under {root / 'src'}")
    env = child_env(root)
    setup_pairs(root, env, 1)  # warms the file cache and writes the bytecode
    setup = setup_pairs(root, env, SETUP_PAIRS // 2)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", str(root)]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE_S - (perf_counter() - start)))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload {args.workload} ran past {DEADLINE_S:.0f} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with status {proc.returncode}")
    setup += setup_pairs(root, env, SETUP_PAIRS - SETUP_PAIRS // 2)
    detail = json.loads(proc.stdout.strip().splitlines()[-1])
    values = dict(detail["metrics"],
                  setup_s=statistics.median(m / r for m, r in setup) * REFERENCE_START_S,
                  setup_raw_s=statistics.median(m for m, _ in setup))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    env_record = environment(root)
    env_record["numpy"] = detail.pop("numpy_version")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_record, "setup_pairs_s": setup,
        "result": result, **detail,
        "also_measured": {k: v for k, v in values.items() if k not in metrics},
    }


def report_lines(record: dict) -> list[str]:
    """Human-readable summary: environment, every metric with its unit, the error rate."""
    res = record["result"]
    lines = [f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
             + json.dumps(record["environment"])]
    for name, m in res["metrics"].items():
        lines.append(f"{record['workload']:8} {name:34} {m['value']:.6g} {m['unit']}")
    for name, value in record["also_measured"].items():
        lines.append(f"{record['workload']:8} {name:34} {value:.6g} (also measured)")
    lines.append(f"{record['workload']:8} {'error_rate':34} "
                 f"{res['failed'] / res['attempted']:.6g} ratio "
                 f"({res['failed']} of {res['attempted']} ops)")
    lines.extend(f"missing wrapped name: {name}" for name in record.get("missing", ()))
    lines.extend(f"FAILED {f}" for f in record["failures"][:20])
    return lines


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], required=True,
                        help="'all' runs every workload and ends with one result line per workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        args.workload = name
        try:
            record = run(args, spec)
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        print("\n".join(report_lines(record)), flush=True)
        results[name] = record["result"]
    print("\n".join(json.dumps(r) for r in results.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
