#!/usr/bin/env python3
"""Sweep the chain census over a list of x checkpoints and emit CSV.

Each checkpoint is a full, independent census run in one thread, in
O(sqrt x) memory with no factor table shared between them; timings go to
stderr.

Example:
    python scripts/census_scan.py --xs 100 1000 10000 100000
    python scripts/census_scan.py --xs 1000000 --out census.csv
"""

from __future__ import annotations

import argparse
import sys
import time

from mondrian.census import CENSUS_CSV_HEADER, census_csv_row, run_chain_census
from mondrian.cli import _at_least
from mondrian.numtheory import CENSUS_SAFE_LIMIT


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--xs", type=_at_least(16), nargs="+", required=True,
                        help=f"census checkpoints (each in [16, {CENSUS_SAFE_LIMIT}])")
    parser.add_argument("--out", default="-", help="CSV file to write (default: stdout)")
    args = parser.parse_args()
    if max(args.xs) > CENSUS_SAFE_LIMIT:
        parser.error(f"argument --xs: must be <= {CENSUS_SAFE_LIMIT}, got {max(args.xs)}")
    try:  # opened only once every argument is checked, so a usage error truncates nothing
        out = argparse.FileType("w")(args.out)
    except argparse.ArgumentTypeError as err:
        parser.error(f"argument --out: {err}")

    print(CENSUS_CSV_HEADER, file=out)
    for x in sorted(args.xs):
        start = time.monotonic()
        record = run_chain_census(x)
        print(census_csv_row(record), file=out, flush=True)
        print(f"x={x}: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
