"""The fixed op lists of the four workloads and the reference each answer must match.

Every reference value was recorded from the seed implementation and is
checked outside the timed region.  A check returns None for a correct answer
and a one-line reason otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
from mondrian.tiling import tiling_from_json, verify_tiling

HERE = Path(__file__).resolve().parent
BFILE = Path("data") / "b276523.txt"  # relative to the checkout root
PERFECT_TABLE = HERE / "reference" / "perfect.json"

CENSUS_2_5E5 = {
    "x": 250_000, "z": 981, "count_p1": 55813, "count_p2": 50611, "count_p3": 44611,
    "count_rough_small_tau": 21879, "count_rough": 21879, "count_excess_tau": 22455,
}
CENSUS_1E4 = {
    "x": 10_000, "z": 418, "count_p1": 2446, "count_p2": 2203, "count_p3": 1913,
    "count_rough_small_tau": 1149, "count_rough": 1149, "count_excess_tau": 857,
}
# (x, z, count); z None means the CLI default compute_z(x)
ROUGH_1E9 = ((10**9, 50, 50, 138704065), (10**9, None, 4852, 64709133))
ROUGH_1E6 = ((10**6, 50, 50, 138745), (10**6, None, 1315, 78285))


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]  # mondrian CLI arguments, without --workers
    expected: Any
    check: Callable[[str, Any], str | None]


def python_loop() -> int:
    """Reference work for interpreted Python: a fixed loop of integer bytecode."""
    s = 0
    for i in range(20_000):
        s += i * i % 7
    return s


def numpy_sieve() -> int:
    """Reference work for numpy: strided writes over 2**20 flags, as one rough-sieve segment."""
    alive = np.ones(1 << 20, dtype=bool)
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        alive[p::p] = False
    return int(alive.sum())


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # Fixed work of the same kind as the ops, timed between them: the host's
    # speed drift moves both alike, so op time / reference time stays steady.
    reference: Callable[[], int]


def load_bfile(path: Path) -> dict[int, int]:
    """Parse an OEIS b-file into {n: value}, independently of mondrian's parser."""
    values = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            n, v = line.split()
            values[int(n)] = int(v)
    return values


def load_perfect_table(path: Path = PERFECT_TABLE) -> dict[int, tuple[str, int | None]]:
    return {int(n): (v, w) for n, (v, w) in json.loads(path.read_text(encoding="utf-8")).items()}


def check_solve(stdout: str, expected: tuple[int, int]) -> str | None:
    n, defect = expected
    try:
        cert = tiling_from_json(stdout)
    except ValueError as exc:
        return f"unreadable certificate: {exc}"
    if cert.n != n or cert.defect != defect:
        return f"M({n}) reported as {cert.defect} for n={cert.n}, expected {defect}"
    report = verify_tiling(cert)
    if not report.valid:
        return f"certificate for n={n} fails verify_tiling: {report.reason}"
    if report.defect != defect:
        return f"certificate for n={n} verifies at defect {report.defect}, expected {defect}"
    return None


def check_perfect(stdout: str, expected: tuple[int, str, int | None]) -> str | None:
    n, verdict, witness = expected
    obj = json.loads(stdout)
    if obj["verdict"] == "PerfectFound":
        cert = tiling_from_json(json.dumps(obj["certificate"]))
        report = verify_tiling(cert)
        return f"PerfectFound at n={n} (certificate valid: {report.valid}, defect {report.defect})"
    got = (obj["n"], obj["verdict"], obj["witness_d"])
    if got != expected:
        return f"perfect n={n}: got {got}, expected {expected}"
    if obj["certificate"] is not None:
        return f"perfect n={n}: certificate given with verdict {verdict}"
    return None


def check_census(stdout: str, expected: dict[str, int]) -> str | None:
    obj = json.loads(stdout)
    got = {k: obj.get(k) for k in expected}
    if got != expected:
        return f"census record {got}, expected {expected}"
    if not (obj["count_rough_small_tau"] <= obj["count_p3"] <= obj["count_p2"] <= obj["count_p1"]):
        return f"census chain inclusions fail: {got}"
    return None


def check_rough(stdout: str, expected: tuple[int, int, int]) -> str | None:
    obj = json.loads(stdout)
    got = (obj["x"], obj["z"], obj["count_rough"])
    return None if got == expected else f"rough {got}, expected {expected}"


def _solve(ns: range, bfile: dict[int, int]) -> tuple[Op, ...]:
    return tuple(
        Op(("solve", "--n", str(n), "--format", "json"), (n, bfile[n]), check_solve) for n in ns
    )


def _perfect(ns: range, table: dict[int, tuple[str, int | None]]) -> tuple[Op, ...]:
    return tuple(
        Op(("perfect", "--n", str(n), "--format", "json"), (n, *table[n]), check_perfect)
        for n in ns
    )


def _census(record: dict[str, int]) -> tuple[Op, ...]:
    return (Op(("census", "--x", str(record["x"]), "--format", "json"), record, check_census),)


def _rough(cases) -> tuple[Op, ...]:
    ops = []
    for x, z_arg, z, count in cases:
        argv = ("rough", "--x", str(x)) + (() if z_arg is None else ("--z", str(z_arg)))
        ops.append(Op(argv + ("--format", "json"), (x, z, count), check_rough))
    return tuple(ops)


def build(name: str, root: Path, *, tiny: bool = False) -> Workload:
    """The workload ``name``; ``tiny`` gives the small variant the benchmark's tests run.

    No op of solve, perfect or census takes much over a second, so each op is
    sampled many times in a run and its trimmed mean is steady on a host whose speed
    swings by tens of percent over seconds (README.md gives the measurements).
    """
    if name == "solve":
        return Workload(name, _solve(range(3, 9 if tiny else 17), load_bfile(root / BFILE)),
                        python_loop)
    if name == "perfect":
        return Workload(name, _perfect(range(3, 31 if tiny else 201), load_perfect_table()),
                        python_loop)
    if name == "census":
        return Workload(name, _census(CENSUS_1E4 if tiny else CENSUS_2_5E5), python_loop)
    if name == "rough":
        return Workload(name, _rough(ROUGH_1E6 if tiny else ROUGH_1E9), numpy_sieve)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("solve", "perfect", "census", "rough")
