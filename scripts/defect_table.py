#!/usr/bin/env python3
"""Tabulate the minimum Mondrian defect M(n) over a range of n.

Optionally diff against a local OEIS A276523 b-file:
    python scripts/defect_table.py --from 3 --to 14 --bfile data/b276523.txt
"""

from __future__ import annotations

import argparse
import sys
import time

from mondrian.census import load_bfile
from mondrian.cli import _at_least
from mondrian.errors import BFileParseError, BudgetExceededError
from mondrian.tiling import SOLVE_SAFE_LIMIT, solve_m, verify_tiling


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--from", type=_at_least(3), default=3, dest="from_n")
    parser.add_argument("--to", type=int, default=12, dest="to_n",
                        help=f"last n, at most {SOLVE_SAFE_LIMIT}")
    parser.add_argument("--budget", type=_at_least(1), default=10**9)
    parser.add_argument("--bfile", default=None)
    args = parser.parse_args()
    if args.to_n < args.from_n:
        parser.error(f"argument --to: must be >= --from {args.from_n}, got {args.to_n}")
    if args.to_n > SOLVE_SAFE_LIMIT:
        parser.error(f"argument --to: must be <= {SOLVE_SAFE_LIMIT}, got {args.to_n}")

    try:
        series = load_bfile(args.bfile) if args.bfile else None
    except (BFileParseError, OSError) as exc:
        parser.error(f"argument --bfile: {exc}")
    bad = 0
    print(f"{'n':>4} {'M(n)':>5} {'pieces':>7} {'seconds':>8}  reference")
    for n in range(args.from_n, args.to_n + 1):
        start = time.monotonic()
        try:
            value, cert = solve_m(n, node_budget=args.budget)
        except BudgetExceededError as exc:
            print(f"{n:>4} {'?':>5} {'':>7} {time.monotonic() - start:>8.2f}  "
                  f"budget exceeded (>= {exc.lower_bound})")
            bad += 1
            continue
        assert verify_tiling(cert).valid
        note = ""
        if series is not None and n in series:
            note = "ok" if series[n] == value else f"MISMATCH (expected {series[n]})"
            bad += note != "ok"
        print(f"{n:>4} {value:>5} {len(cert.placements):>7} "
              f"{time.monotonic() - start:>8.2f}  {note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
