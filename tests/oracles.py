"""Brute-force reference implementations used only by the test suite.

Everything here is written from first principles (trial division, full
enumeration, list-based grids) so that it shares no code path with the
library under test.
"""

from __future__ import annotations

import math


def naive_tau(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def naive_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_spf(n: int) -> int:
    for d in range(2, n + 1):
        if n % d == 0:
            return d
    raise ValueError("n must be >= 2")


def naive_is_rough(n: int, z: int) -> bool:
    return all(d > z for d in naive_divisors(n) if d > 1)


def sieve_rough_count(x: int, z: int) -> int:
    """|{n <= x : n is z-rough}| by crossing off every multiple of each prime <= z."""
    alive = [True] * (x + 1)
    alive[0] = False
    for p in range(2, min(z, x) + 1):
        if alive[p]:  # every smaller prime is crossed off already, so p is prime
            alive[p::p] = [False] * len(range(p, x + 1, p))
    return sum(alive)


def divisors_of_square(n: int) -> list[int]:
    """All divisors of n² found through the paired small divisors <= n."""
    n2 = n * n
    small = [i for i in range(1, n + 1) if n2 % i == 0]
    return sorted(set(small) | {n2 // i for i in small})


def naive_witness(n: int) -> int | None:
    """Smallest proper divisor d of n² with d*tau(d) >= n², by filtering."""
    divs = divisors_of_square(n)
    n2 = n * n
    for d in divs:
        if d == n2:
            continue
        tau_d = sum(1 for e in divs if d % e == 0)
        if d * tau_d >= n2:
            return d
    return None


def naive_predicates(n: int) -> tuple[bool, bool, bool]:
    """(p1, p2, p3) by direct quantification over proper divisors of n²."""
    divs = divisors_of_square(n)
    n2 = n * n
    tau_n2 = len(divs)
    tau_n = naive_tau(n)
    proper = [d for d in divs if d != n2]
    p1 = naive_witness(n) is None
    p2 = all(d * tau_n2 < n2 for d in proper)
    p3 = all(d * tau_n * tau_n < n2 for d in proper)
    return p1, p2, p3


# ---------------------------------------------------------------------------
# naive tiling search: list-of-lists grid, no bit tricks, no symmetry breaking
# ---------------------------------------------------------------------------


def naive_tiles(n: int, pieces: list[tuple[int, int]]) -> bool:
    """Whether the (w, h) pieces tile the n x n square, each used once."""
    grid = [[False] * n for _ in range(n)]
    pieces = sorted(pieces, reverse=True)

    def first_empty():
        for y in range(n):
            for x in range(n):
                if not grid[y][x]:
                    return x, y
        return None

    def fits(x, y, wd, ht):
        if x + wd > n or y + ht > n:
            return False
        return all(not grid[y + r][x + c] for r in range(ht) for c in range(wd))

    def put(x, y, wd, ht, val):
        for r in range(ht):
            for c in range(wd):
                grid[y + r][x + c] = val

    def rec(used):
        pos = first_empty()
        if pos is None:
            return True
        x, y = pos
        for i, (w, h) in enumerate(pieces):
            if used[i]:
                continue
            for wd, ht in {(w, h), (h, w)}:
                if fits(x, y, wd, ht):
                    put(x, y, wd, ht, True)
                    used[i] = True
                    if rec(used):
                        return True
                    used[i] = False
                    put(x, y, wd, ht, False)
        return False

    return rec([False] * len(pieces))


def naive_min_defect(n: int) -> int:
    """Minimum defect over all >=2-piece tilings, by full subset enumeration."""
    rects = [(w, h) for w in range(1, n + 1) for h in range(w, n + 1)]
    areas = [w * h for w, h in rects]
    order = sorted(range(len(rects)), key=lambda i: -areas[i])
    rects = [rects[i] for i in order]
    areas = [areas[i] for i in order]
    suffix = [0] * (len(rects) + 1)
    for i in range(len(rects) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + areas[i]

    best = n * (n - 1) - n  # two full-width strips always tile
    target = n * n

    def rec(i, remaining, chosen):
        nonlocal best
        if remaining == 0:
            if len(chosen) >= 2:
                got = [w * h for w, h in chosen]
                spread = max(got) - min(got)
                if spread < best and naive_tiles(n, chosen):
                    best = spread
            return
        if i == len(rects) or suffix[i] < remaining:
            return
        if areas[i] <= remaining:
            chosen.append(rects[i])
            rec(i + 1, remaining - areas[i], chosen)
            chosen.pop()
        rec(i + 1, remaining, chosen)

    rec(0, target, [])
    return best
