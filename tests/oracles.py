"""Brute-force reference implementations used only by the test suite.

Everything here is written from first principles (trial division, full
enumeration, list-based grids) so that it shares no code path with the
library under test.  Only the certificate data classes ``Placement`` and
``Tiling`` come from the library, so that ``seed_cover_search`` returns what
the kernel it checks returns, and ``divisor_block_oracle`` factors with the
library's ``_factorize`` (itself checked against ``naive_factorization``),
which is fast enough for a block of n near 10**12.
"""

from __future__ import annotations

import itertools
import math

from mondrian.numtheory import _factorize
from mondrian.tiling import Placement, Tiling


def naive_tau(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def naive_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_spf(n: int) -> int:
    if n < 2:
        raise ValueError("n must be >= 2")
    # a composite n has a divisor d with d² <= n
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return d
    return n


def naive_factorization(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n >= 1, ascending, by repeatedly dividing out ``naive_spf``."""
    out = []
    while n > 1:
        p = naive_spf(n)
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out.append((p, e))
    return out


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


def brute_witnesses(n: int) -> list[int]:
    """Every proper divisor d of n² with d*tau(d) >= n², ascending.

    Every exponent vector of n² is enumerated; tau(d) is the product of
    (k + 1) over d's exponents k.
    """
    fac = naive_factorization(n)
    n2 = n * n
    out = []
    for exps in itertools.product(*(range(2 * a + 1) for _, a in fac)):
        d = math.prod(p**k for (p, _), k in zip(fac, exps))
        tau_d = math.prod(k + 1 for k in exps)
        if d != n2 and d * tau_d >= n2:
            out.append(d)
    return sorted(out)


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


def divisor_block_oracle(lo: int, hi: int) -> list[tuple[int, int, int, int]]:
    """(spf, tau(n), tau(n²), need) for each n in [lo, hi), one n at a time.

    need is the least p + ceil(p / 2a) over the p^a exactly dividing n: the
    rows of the divisor sieve's block arrays.
    """
    rows = []
    for n in range(lo, hi):
        fac = _factorize(n)
        rows.append((
            fac[0][0],
            math.prod(a + 1 for _, a in fac),
            math.prod(2 * a + 1 for _, a in fac),
            min(p + -(-p // (2 * a)) for p, a in fac),
        ))
    return rows


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


# ---------------------------------------------------------------------------
# the first cover kernel: every unused piece and orientation tried at every node
# ---------------------------------------------------------------------------


def seed_cover_search(n: int, pieces, corners: bool = False) -> tuple[Tiling | None, int]:
    """The first tiling the cover kernel of the first release finds, or None,
    and the number of pieces it placed on the way.

    Kept as the differential reference for the kernel ``tiling._cover``,
    which returns the same (tiling or None, nodes) pair: it visits
    every unused piece in both orientations at every node and rejects a
    misfit by a shift-and-AND test, in the same order (pieces by descending
    area, the unrotated orientation first).  With ``corners`` it also skips,
    before counting it, every placement of a piece sorted before the piece at
    (0, 0) that would touch another corner of the square; with that rule the
    kernel must return the same certificate for every piece set, and its node
    count must equal the placements made here.  Without it the verdict must
    still agree.
    """
    pieces = tuple(sorted(pieces, key=lambda r: (-r.area, r.w, r.h)))

    def base_mask(width: int, height: int) -> int:
        row = (1 << width) - 1
        mask = 0
        for r in range(height):
            mask |= row << (r * n)
        return mask

    orients = []
    for r in pieces:
        variants = [(r.w, r.h, base_mask(r.w, r.h), False)]
        if r.w != r.h:
            variants.append((r.h, r.w, base_mask(r.h, r.w), True))
        orients.append(variants)
    full = (1 << (n * n)) - 1
    piece_count = len(pieces)
    out: list[Placement] = []
    placed = 0

    def rec(occ: int, used: int) -> bool:
        nonlocal placed
        if occ == full:
            return True
        cell = ((~occ) & (occ + 1)).bit_length() - 1
        x = cell % n
        y = cell // n
        max_w = n - x
        max_h = n - y
        at_root = occ == 0
        for idx in range(piece_count):
            if used & (1 << idx):
                continue
            for width, height, base, rot in orients[idx]:
                if width > max_w or height > max_h:
                    continue
                if at_root and width < height:
                    continue  # a diagonal reflection supplies the other orientation
                if corners and not at_root and pieces.index(out[0].rect) > idx:
                    top_right = y == 0 and x + width == n
                    bottom_left = x == 0 and y + height == n
                    bottom_right = x + width == n and y + height == n
                    if top_right or bottom_left or bottom_right:
                        continue  # a symmetry puts the first-sorted corner piece at (0, 0)
                mask = base << cell
                if mask & occ:
                    continue
                out.append(Placement(pieces[idx], x, y, rot))
                placed += 1
                if rec(occ | mask, used | (1 << idx)):
                    return True
                out.pop()
        return False

    if not rec(0, 0):
        return None, placed
    areas = [p.rect.area for p in out]
    return Tiling(n=n, placements=tuple(out), defect=max(areas) - min(areas)), placed
