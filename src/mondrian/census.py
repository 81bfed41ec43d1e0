"""Counting censuses over [3, x] and OEIS A276523 regression checks.

The chain census classifies every n in [3, x] by the nested predicates

    z-rough with small tau  =>  p3  =>  p2  =>  p1 (no filter witness)

where p1 already implies a positive minimum defect for the n x n square, so
each count is a certified lower bound on |{n <= x : nonzero defect}|.  The
implications are mathematical theorems; the census re-checks them per n and
treats any violation as an internal bug, never as data.

The asymptotic reference values (the e^-gamma constants) are reported next
to the exact counts but never asserted against them: at desk scale the o(1)
terms dominate, so only the exact chain and the Mertens-density ratio in the
x >> z regime are testable claims.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import BFileParseError, BudgetExceededError, InternalConsistencyError, UsageError
from .numtheory import (
    _chain_tests,
    _divisor_blocks,
    _tau_threshold,
    census_excess_tau,  # noqa: F401  # perfbench/spans.py wraps this name
    compute_z,
    mertens_product,
    rough_count,  # noqa: F401  # perfbench/spans.py wraps this name
)
from .tiling import DEFAULT_NODE_BUDGET, solve_m

__all__ = [
    "EULER_GAMMA",
    "CensusRecord",
    "TheoremReport",
    "OeisSeries",
    "OeisComparison",
    "run_chain_census",
    "theorem_report",
    "load_bfile",
    "compare_oeis",
    "CENSUS_CSV_HEADER",
    "census_csv_row",
    "census_json_dict",
]

# Euler-Mascheroni constant, the single source for both reference densities.
EULER_GAMMA = 0.57721566490153286

CENSUS_CSV_HEADER = (
    "x,z,count_p1,count_p2,count_p3,count_rough_small_tau,"
    "count_rough,count_excess_tau,theorem_rhs,mertens_rhs"
)


@dataclass(frozen=True)
class CensusRecord:
    """Counts of the nested predicate sets over [3, x] plus reference values."""

    x: int
    z: int
    count_p1: int
    count_p2: int
    count_p3: int
    count_rough_small_tau: int
    count_rough: int  # z-rough n in [3, x]; rough_count itself covers [1, x]
    count_excess_tau: int
    theorem_rhs: float  # (e^-gamma / 2) * x / ln ln x
    mertens_rhs: float  # e^-gamma * x / ln z
    euler_gamma: float = EULER_GAMMA


@dataclass(frozen=True)
class TheoremReport:
    """Desk-scale comparison of exact counts against the asymptotic references."""

    record: CensusRecord
    mertens_density: float  # prod_{p <= z} (1 - 1/p)
    product_reference: float  # x * mertens_density
    rough_to_product_ratio: float
    rough_to_mertens_ratio: float
    notes: tuple[str, ...]

    def as_dict(self) -> dict:
        out = census_json_dict(self.record)
        out.pop("notes")
        out.update(
            mertens_density=_sig6(self.mertens_density),
            product_reference=_sig6(self.product_reference),
            rough_to_product_ratio=_sig6(self.rough_to_product_ratio),
            rough_to_mertens_ratio=_sig6(self.rough_to_mertens_ratio),
            notes=list(self.notes),
        )
        return out


def _block_predicates(
    spf: np.ndarray, tau_n: np.ndarray, tau_n2: np.ndarray, need: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p1, p2, p3) arrays for a block of n from the arrays ``_divisor_blocks`` gave.

    p1 holds iff tau(n²) < need, the least per-prime bound of
    ``numtheory._prime_bound``, so no witness is searched for; p2 and p3
    come from ``_chain_tests``.
    """
    p2, p3 = _chain_tests(spf, tau_n, tau_n2)
    return tau_n2 < need, p2, p3


def run_chain_census(x: int) -> CensusRecord:
    """Evaluate every chain predicate over [3, x] and package exact counts.

    Everything runs in one thread, block by block.  One divisor sieve derives
    spf, tau(n), tau(n²) and the witness bound ``need`` for a block of n from
    the primes up to sqrt x, into one workspace that every block reuses, so
    memory stays O(sqrt x + block) with no table over [2, x].  Every predicate
    and count comes from those arrays, with no per-n work in Python.  The
    z-rough n are those with spf > z, a prime n keeping spf = n, so
    count_rough needs no run of Lucy's sieve (``rough_count``).
    """
    if x < 16:
        raise ValueError(f"x must be >= 16, got {x}")
    z = compute_z(x)
    threshold = _tau_threshold(x)

    count_p1 = count_p2 = count_p3 = count_rst = count_rough = count_excess = 0
    for start, spf, tau_n, tau_n2, need in _divisor_blocks(3, x + 1):
        p1, p2, p3 = _block_predicates(spf, tau_n, tau_n2, need)
        rough = spf > z  # a prime n keeps spf = n
        rough_small = rough & (tau_n <= threshold)
        broken = (rough_small & ~p3) | (p3 & ~p2) | (p2 & ~p1)
        if broken.any():
            raise InternalConsistencyError(
                f"predicate chain violated at n={start + int(np.argmax(broken))}"
            )
        count_p1 += int(np.count_nonzero(p1))
        count_p2 += int(np.count_nonzero(p2))
        count_p3 += int(np.count_nonzero(p3))
        count_rst += int(np.count_nonzero(rough_small))
        count_rough += int(np.count_nonzero(rough))
        count_excess += int(np.count_nonzero(tau_n > threshold))

    if not count_rst <= count_p3 <= count_p2 <= count_p1:
        raise InternalConsistencyError(
            f"count chain violated at x={x}: "
            f"{count_rst}, {count_p3}, {count_p2}, {count_p1}"
        )
    return CensusRecord(
        x=x,
        z=z,
        count_p1=count_p1,
        count_p2=count_p2,
        count_p3=count_p3,
        count_rough_small_tau=count_rst,
        count_rough=count_rough,
        count_excess_tau=count_excess,
        theorem_rhs=math.exp(-EULER_GAMMA) / 2 * x / math.log(math.log(x)),
        mertens_rhs=math.exp(-EULER_GAMMA) * x / math.log(z),
    )


_REPORT_NOTES = (
    "The asymptotic lower bound (e^-gamma/2 + o(1)) x / log log x is reported "
    "for reference only; its o(1) term dominates at desk scale, so the raw "
    "inequality is never asserted.",
    "count_rough counts z-rough n in [3, x]; the rough_count primitive itself "
    "covers [1, x] and so includes 1 (and 2 when z < 2).",
    "Density ratios against x * prod_{p<=z}(1 - 1/p) are only meaningful in "
    "the x >> z regime; the test suite pins them at (x, z) = (1e6, 50) and "
    "(1e7, 100).",
)


def theorem_report(x: int) -> TheoremReport:
    """Exact census counts side by side with their asymptotic reference values."""
    record = run_chain_census(x)
    density = float(mertens_product(record.z))
    product_reference = x * density
    return TheoremReport(
        record=record,
        mertens_density=density,
        product_reference=product_reference,
        rough_to_product_ratio=record.count_rough / product_reference,
        rough_to_mertens_ratio=record.count_rough / record.mertens_rhs,
        notes=_REPORT_NOTES,
    )


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------


def _sig6(v: float) -> float:
    return float(f"{v:.6g}")


def census_csv_row(record: CensusRecord) -> str:
    return (
        f"{record.x},{record.z},{record.count_p1},{record.count_p2},"
        f"{record.count_p3},{record.count_rough_small_tau},{record.count_rough},"
        f"{record.count_excess_tau},{record.theorem_rhs:.6g},{record.mertens_rhs:.6g}"
    )


def census_json_dict(record: CensusRecord) -> dict:
    """JSON mirror of the CSV row plus a notes array."""
    return {
        "x": record.x,
        "z": record.z,
        "count_p1": record.count_p1,
        "count_p2": record.count_p2,
        "count_p3": record.count_p3,
        "count_rough_small_tau": record.count_rough_small_tau,
        "count_rough": record.count_rough,
        "count_excess_tau": record.count_excess_tau,
        "theorem_rhs": _sig6(record.theorem_rhs),
        "mertens_rhs": _sig6(record.mertens_rhs),
        "notes": list(_REPORT_NOTES),
    }


# ---------------------------------------------------------------------------
# OEIS b-files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OeisSeries:
    """A contiguous integer sequence keyed by index, as read from a b-file."""

    offset: int
    values: dict[int, int]

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __contains__(self, n: int) -> bool:
        return n in self.values

    @property
    def last_index(self) -> int:
        return self.offset + len(self.values) - 1


def load_bfile(source: str | os.PathLike | IO) -> OeisSeries:
    """Parse OEIS b-file text: '#' comments, then ascending "n value" lines.

    Indices must be strictly ascending and contiguous, values nonnegative;
    anything else raises ``BFileParseError`` naming the offending line.  Text
    that is not UTF-8 raises it too.
    """
    try:
        if isinstance(source, (str, os.PathLike)):
            with open(source, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        else:
            raw = source.read()
            if isinstance(raw, bytes):
                raw = raw.decode("utf-8")
            lines = raw.splitlines()
    except UnicodeDecodeError as exc:
        raise BFileParseError(str(exc)) from None

    values: dict[int, int] = {}
    prev: int | None = None
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise BFileParseError(f"line {lineno}: expected 'n value', got {line!r}")
        try:
            idx, val = int(parts[0]), int(parts[1])
        except ValueError:
            raise BFileParseError(f"line {lineno}: non-integer token in {line!r}") from None
        if prev is not None:
            if idx <= prev:
                raise BFileParseError(f"line {lineno}: non-monotone index {idx} after {prev}")
            if idx != prev + 1:
                raise BFileParseError(f"line {lineno}: non-contiguous index {idx} after {prev}")
        if val < 0:
            raise BFileParseError(f"line {lineno}: negative value {val}")
        values[idx] = val
        prev = idx
    if not values:
        raise BFileParseError("no data lines found")
    return OeisSeries(offset=min(values), values=values)


@dataclass(frozen=True)
class OeisComparison:
    """Solver-vs-series outcome; an empty mismatch tuple is the pass condition."""

    mismatches: tuple[tuple[int, int, int], ...]  # (n, computed, expected)
    budget_exceeded: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.budget_exceeded


def compare_oeis(
    series: OeisSeries, from_n: int, to_n: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> OeisComparison:
    """Recompute the minimum defect for each n in [from_n, to_n] and diff.

    ``node_budget`` applies per n; an n whose search exhausts it is recorded
    separately from a genuine mismatch.
    """
    if from_n < 3:
        raise UsageError(f"from_n must be >= 3, got {from_n}")
    if from_n > to_n:
        raise UsageError(f"empty range [{from_n}, {to_n}]")
    if from_n < series.offset or to_n > series.last_index:
        raise UsageError(
            f"range [{from_n}, {to_n}] outside series [{series.offset}, {series.last_index}]"
        )
    mismatches = []
    exhausted = []
    for n in range(from_n, to_n + 1):
        try:
            computed, _ = solve_m(n, node_budget=node_budget)
        except BudgetExceededError:
            exhausted.append(n)
            continue
        if computed != series[n]:
            mismatches.append((n, computed, series[n]))
    return OeisComparison(mismatches=tuple(mismatches), budget_exceeded=tuple(exhausted))
