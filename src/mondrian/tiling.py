"""Exact Mondrian search over the n x n square.

A tiling is a set of pairwise incongruent integer-sided rectangles covering
the square exactly; its defect is max piece area minus min piece area.  The
solver finds the minimum defect by iterating candidate defects and running an
exact-cover backtracker, the kernel ``_cover``, over candidate piece sets from
the one enumerator ``_piece_sets``, one stream per candidate defect.
``solve_m``, ``check_perfect`` and ``exact_cover_tile`` hand their streams,
one per level, to one driver, ``_first_tiling``: the one loop over levels and
the kernel's only caller, which keeps the node total, stops at the level where
the budget runs out and verifies what the kernel finds.  The kernel is a
generator that pauses once the nodes its driver allowed are spent, so the
driver runs a level's searches round-robin, a few dozen nodes a turn, and the
first tiling any of them completes ends the level: a level needs only one
tiling, and a hard set that fails no longer holds up an easy one behind it.
The kernel never raises, so a budget stop is the driver's.  The board lives
in a single Python integer that starts at the first empty cell, one bit per cell in
row-major order from there on, so the full rows behind it cost nothing and the
unused oriented pieces that can go there are the set bits of one more integer.
A node spans the whole board only to place a piece and to shift the filled
cells it leaves at the front off; its two scans, for the next empty cell and
for the end of the run there, look at one row's width of cells (the first looks
further only when all of those are filled).  The enumerator and the
kernel are each one depth-first loop over an explicit trail, not a recursion,
so a search its caller stops early leaves no reference cycle behind.

Key search facts the code relies on:

* The first empty cell in row-major order must be the top-left corner of the
  piece covering it (everything above and to its left is already covered),
  so each tiling is generated exactly once.
* The defect of a tiling equals the spread (max - min) of its piece-area
  multiset, so candidate defect w only ever needs piece sets whose area
  spread is exactly w; smaller spreads were exhausted at earlier w.  The
  first (largest) piece of such a set fixes its area range [a, a + w], so
  with the rects sorted by descending area the sets come out as one stream,
  grouped by first piece, each group searching only the rects of area >= a.
* Reflecting a tiling in the main diagonal preserves validity, incongruence
  and defect, so the piece placed at cell (0, 0) may be restricted to
  width >= height without losing any achievable defect.
* A piece wider than the first empty run (the empty cells from the first
  empty cell to the next occupied cell or the row's end) can never fit, so it
  is never tried.  One no wider than the run and no taller than the rows left
  always fits: a piece covering a cell below the run would have had to start
  at or before the first empty cell's row, and so would cover part of the run.
  The run lies in one row, so its end is found among that row's own cells,
  never across the rows below.
* Each of the square's 8 symmetries maps a tiling to a tiling of the same
  pieces and permutes the four corners.  Take the corner piece that sorts
  first (descending area, then short side, then long side) and a corner it
  covers.  Exactly two symmetries move that corner to (0, 0); they differ by
  the diagonal reflection, so one of them also leaves the piece wide.  Its
  image has that piece at (0, 0), wide, and no corner piece sorted before
  it.  So on top of the width >= height rule, a piece sorted before the one
  at (0, 0) may be barred from the other three corners: every tileable set
  keeps a tiling, and only branches that cannot change a verdict are cut.
* A line through a piece parallel to one of its sides crosses pieces from
  wall to wall, each adding one of its sides to the n the line spans.  So a
  set where n - w or n - h of some piece w x h is no sum of one side each of
  some of the other pieces holds no tiling, and the kernel refutes it before
  its first node.
"""

from __future__ import annotations

import bisect
import collections
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Generator, Iterable, Iterator, Sequence

from .errors import BudgetExceededError, InternalConsistencyError, UsageError
from .numtheory import witness_report

__all__ = [
    "Rect",
    "Placement",
    "Tiling",
    "VerificationReport",
    "PerfectVerdict",
    "PerfectCheckOutcome",
    "canonical_rect",
    "rects_with_area",
    "enumerate_piece_sets",
    "exact_cover_tile",
    "verify_tiling",
    "scale_tiling",
    "solve_m",
    "check_perfect",
    "tiling_to_json",
    "tiling_from_json",
]

DEFAULT_NODE_BUDGET = 10**8

# upper end of solve_m's domain: the node budget counts neither the enumeration of
# defect levels nor the sets the chain rule refutes at 0 nodes, so time passes before
# the second node whatever the budget: 1.3–1.5 s at this bound (the rule refutes 6,878 sets
# first, at 0.11 s)
SOLVE_SAFE_LIMIT = 256

# upper end of check_perfect's search: a live search of the round-robin keeps two masks
# of up to h x n bits per piece and its trail's board snapshots, so memory grows with
# (live sets) x (board size) whatever the budget (check_perfect(420, node_budget=10**5)
# peaked at 238 MiB). Every n up to this bound whose check reaches the kernel is decided
# at the default budget; the slowest, n = 360, is Exhausted in 7,952,169 nodes (64 s and
# 35 MiB on a 2-core Xeon) and the next, n = 330, in 1,560,654 nodes (9 s)
PERFECT_SAFE_LIMIT = 419

# nodes per turn of a level's round-robin in _first_tiling: small next to the searches
# that fail, large enough that switching searches costs little next to a turn
_QUANTUM = 64


@dataclass(frozen=True, order=True)
class Rect:
    """A congruence class of integer rectangles, stored short side first."""

    w: int
    h: int

    def __post_init__(self) -> None:
        if not 1 <= self.w <= self.h:
            raise ValueError(f"rectangle sides must satisfy 1 <= w <= h, got {self.w}x{self.h}")

    @property
    def area(self) -> int:
        return self.w * self.h


def canonical_rect(a: int, b: int) -> Rect:
    """The congruence class of an a x b rectangle."""
    if a < 1 or b < 1:
        raise ValueError(f"sides must be positive, got {a}x{b}")
    return Rect(min(a, b), max(a, b))


@dataclass(frozen=True)
class Placement:
    """One rectangle pinned to the grid by its top-left cell.

    ``rotated`` means the long side runs horizontally.
    """

    rect: Rect
    x: int
    y: int
    rotated: bool = False

    @property
    def width(self) -> int:
        return self.rect.h if self.rotated else self.rect.w

    @property
    def height(self) -> int:
        return self.rect.w if self.rotated else self.rect.h


@dataclass(frozen=True)
class Tiling:
    """A claimed tiling of the n x n square; ``verify_tiling`` re-derives everything."""

    n: int
    placements: tuple[Placement, ...]
    defect: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "placements", tuple(self.placements))


@dataclass(frozen=True)
class VerificationReport:
    valid: bool
    defect: int
    min_area: int
    max_area: int
    reason: str | None = None


class PerfectVerdict(Enum):
    FILTER_EXCLUDED = "FilterExcluded"
    EXHAUSTED = "Exhausted"
    PERFECT_FOUND = "PerfectFound"


@dataclass(frozen=True)
class PerfectCheckOutcome:
    """Answer to "does the n x n square admit an equal-area tiling?"."""

    n: int
    verdict: PerfectVerdict
    witness_d: int | None
    certificate: Tiling | None
    nodes_searched: int


def rects_with_area(d: int, n: int) -> list[Rect]:
    """All congruence classes with area d fitting inside n, ascending short side."""
    if d < 1 or n < 1:
        raise ValueError(f"d and n must be positive, got d={d}, n={n}")
    out = []
    for w in range(1, math.isqrt(d) + 1):
        if d % w == 0 and d // w <= n:
            out.append(Rect(w, d // w))
    return out


def enumerate_piece_sets(n: int, lo: int, hi: int) -> Iterator[tuple[Rect, ...]]:
    """Every set of distinct fitting rects with areas in [lo, hi] summing to n².

    Deterministic order: sets appear in lexicographic order of the candidate
    list sorted by descending area then short side.  Distinct rects may share
    an area (1x6 and 2x3 both count as area 6).
    """
    if not 1 <= lo <= hi <= n * n:
        raise ValueError(f"need 1 <= lo <= hi <= n^2, got lo={lo}, hi={hi}, n={n}")
    cands = [r for area in range(hi, lo - 1, -1) for r in rects_with_area(area, n)]
    yield from _piece_sets(n, cands, None)


def _piece_sets(
    n: int, cands: Sequence[Rect], spread: int | None
) -> Iterator[tuple[Rect, ...]]:
    """Every set of distinct ``cands`` with areas summing to n², in lexicographic order.

    ``cands`` are fitting rects in ``_sorted_pieces`` order, so each set comes
    out in that order too, its first piece the largest.  With ``spread`` None
    every set is kept, each first piece searching the candidates after it.
    With ``spread`` w only the sets whose areas span exactly w are: a first
    piece of area lo + w searches only the candidates after it of area >= lo
    (they end where ``cands`` drops below lo), and a set must end in a piece
    of area lo.  A first piece with no candidate of area lo is skipped.  The
    sets of one first piece come out together, so a level is one stream
    ordered by first piece, as ``solve_m`` and ``check_perfect`` read it.

    Each first piece gets one depth-first loop: ``picked`` is the trail of
    chosen candidate indices and ``j`` the next index to try.  A candidate
    of area above what is left is skipped, the trail stops growing once what
    is left is below lo or more than the candidates from j to ``stop`` can
    sum to, and backtracking pops the last index and tries the one after it.
    """
    areas = [r.area for r in cands]
    suffix = [0] * (len(cands) + 1)
    for i in range(len(cands) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + areas[i]
    for i in range(len(cands)):
        lo = areas[-1] if spread is None else areas[i] - spread
        stop = bisect.bisect_right(areas, -lo, key=operator.neg)  # the candidates of area >= lo
        if areas[stop - 1] != lo:  # no piece of area lo (none at all once lo < 1): nothing to find
            continue
        picked, remaining, j = [i], n * n - areas[i], i + 1  # the trail, and the next index to try
        while True:
            if remaining == 0:
                if spread is None or areas[picked[-1]] == lo:
                    # a list, not a generator: tuple() of a generator allocates 10 slots and
                    # shrinks them, so the freed sets fill the tuple free lists (≈1 MiB)
                    yield tuple([cands[k] for k in picked])
            elif remaining >= lo:  # every candidate before stop has area >= lo
                while j < stop and areas[j] > remaining:
                    j += 1
                if j < stop and suffix[j] - suffix[stop] >= remaining:
                    picked.append(j)
                    remaining -= areas[j]
                    j += 1
                    continue
            if len(picked) == 1:
                break
            j = picked.pop() + 1  # backtrack: the next index after the last one picked
            remaining += areas[j - 1]


def _base_mask(n: int, width: int, height: int) -> int:
    # the row mask times sum_{r < height} 2^(r n), a geometric series in 2^n
    return ((1 << width) - 1) * (((1 << (n * height)) - 1) // ((1 << n) - 1))


@functools.lru_cache(maxsize=1)
def _walls(n: int) -> tuple[int, ...]:
    """walls[k]: the k cells at the front of a board int; one table serves every live search of one n."""
    return tuple((1 << k) - 1 for k in range(n + 1))


def _sorted_pieces(pieces: Iterable[Rect]) -> tuple[Rect, ...]:
    return tuple(sorted(pieces, key=lambda r: (-r.area, r.w, r.h)))


def _cover(n: int, pieces: tuple[Rect, ...]) -> Generator[int, int, tuple[Tiling | None, int]]:
    """Search for the first tiling of the n x n square by ``pieces``, each used once.

    A generator that ends with (the tiling or None, the nodes).  ``next``
    starts it: a set the chain rule refutes ends there at 0 nodes, any other
    pauses before its first node.  Each ``send(k)`` is a turn that allows k
    more nodes; the search pauses just before a node once they are spent,
    yielding the nodes spent so far.  So a run's nodes, certificate and order
    are the same however its turns are cut.

    ``pieces`` come in ``_sorted_pieces`` order.  Variant v = 2*i + rotated is
    piece i in one orientation (a square has only v = 2*i), so visiting the
    set bits of a variant mask from low to high visits pieces by descending
    area, the unrotated variant first.  A node is one placement attempt on a
    variant that fits the run and the remaining height and that the corner
    rule allows (a piece sorted before the one at cell 0 never covers another
    corner).

    The board int ``occ`` starts at the first empty cell ``cell``: bit k is
    cell + k in row-major order, so bit 0 is always empty, a variant's mask
    goes on unshifted, and the filled cells it leaves at the front are
    shifted off.  The board is full at ``cell == n * n``.  Those two steps,
    ``occ |= masks[v]`` and ``occ >>= shift``, are the only ones of a node
    that span the whole board; its two scans look at one row's width of
    cells, however many rows the board still spans.  The filled cells at
    the front are counted among the board's first n cells (``walls[n]``),
    and across the whole board only when all n are filled.  The run ends at
    the lowest set bit of the board masked to the row's remaining n - x
    cells (``walls[n - x]``), or at the wall when that is 0.

    Before any mask is built, the chain rule (see the module docstring)
    refutes a set at 0 nodes: for each piece P, bit t of ``sums`` is set when
    t <= n is a sum of one side each of some of the other pieces, and both
    n - P.w and n - P.h must be such sums.
    """
    full = (1 << (n + 1)) - 1
    for i, p in enumerate(pieces):
        sums = 1
        for j, r in enumerate(pieces):
            if j != i:
                sums = (sums | sums << r.w | sums << r.h) & full
        if not (sums >> (n - p.w) & sums >> (n - p.h) & 1):
            return None, 0
    masks = [0] * (2 * len(pieces))
    by_width = [0] * (n + 1)  # by_width[k] / by_height[k]: the variants of width / height exactly k
    by_height = [0] * (n + 1)
    roots = 0  # variants with width >= height; the board is empty, so every one fits at cell 0
    for i, r in enumerate(pieces):
        shapes = [(r.w, r.h)] if r.w == r.h else [(r.w, r.h), (r.h, r.w)]
        for rotated, (width, height) in enumerate(shapes):
            v = 2 * i + rotated
            bit = 1 << v
            masks[v] = _base_mask(n, width, height)
            by_width[width] |= bit
            by_height[height] |= bit
            if width >= height:
                roots |= bit
    # fitw[k] / fith[k]: the variants of width / height at most k
    fitw = list(itertools.accumulate(by_width, operator.or_))
    fith = list(itertools.accumulate(by_height, operator.or_))
    walls = _walls(n)
    front = walls[n]  # one row's width of cells at the front of the board
    size = n * n
    nodes = stop = 0  # stop: the nodes this search may spend before it pauses
    trail: list[tuple[int, int, int, int, int]] = []  # (occ, avail, cand, cell, v) per level
    occ, avail, cand, cell = 0, fitw[n], roots, 0  # every piece fits, so fitw[n] is every variant
    while True:
        if not cand:
            if not trail:
                return None, nodes
            occ, avail, cand, cell, _ = trail.pop()
            continue
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        nodes += 1
        while nodes > stop:  # pause before this node until an allowance covers it
            stop += yield stop
        trail.append((occ, avail, cand, cell, v))
        if not cell:  # first: the variants of the pieces sorted before the one at cell 0
            first = (1 << (v & ~1)) - 1
        occ |= masks[v]
        low = occ & front  # the filled cells at the front end in here unless all n are filled
        if low == front:
            low = occ
        shift = (low ^ (low + 1)).bit_length() - 1  # the filled cells now at the front
        occ >>= shift
        cell += shift
        if cell == size:
            return _certificate(n, pieces, trail), nodes
        avail &= ~(3 << (v & ~1))
        x = cell % n
        rows = n - cell // n
        run = n - x
        row = occ & walls[run]  # the rest of the current row
        if row:  # the run ends at the row's next occupied cell
            run = (row & -row).bit_length() - 1
        cand = avail & fitw[run] & fith[rows]
        if not x:  # the bottom-left corner
            cand &= ~(first & by_height[rows])
        elif run == n - x and cand & first:  # the top-right or bottom-right corner
            cand &= ~(first & by_width[run] & (by_height[rows] if cell >= n else -1))


def _certificate(n: int, pieces: tuple[Rect, ...], trail: list[tuple[int, ...]]) -> Tiling:
    """The trail is the certificate: level ``(cell, v)`` puts variant v's top-left at cell."""
    out = []
    for *_, cell, v in trail:
        y, x = divmod(cell, n)
        out.append(Placement(pieces[v >> 1], x, y, bool(v & 1)))
    areas = [p.rect.area for p in out]
    return Tiling(n=n, placements=tuple(out), defect=max(areas) - min(areas))


def exact_cover_tile(
    n: int, pieces: Iterable[Rect], *, node_budget: int = DEFAULT_NODE_BUDGET
) -> Tiling | None:
    """Tile the n x n square using each piece exactly once, or None.

    Each piece may be used in either orientation.  ``_first_tiling`` searches
    the set as a single level holding only it, so the result is a
    deterministic function of (n, pieces): the first tiling the kernel
    ``_cover`` finds, once ``verify_tiling`` has accepted it; a rejected one
    raises ``InternalConsistencyError``.  More than ``node_budget`` nodes
    raise ``BudgetExceededError``; a budget below 1 is a ``ValueError``, as
    in ``solve_m`` and ``check_perfect``.
    """
    plist = _sorted_pieces(pieces)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be positive, got {node_budget}")
    if len(set(plist)) != len(plist):
        raise ValueError("pieces must be pairwise incongruent")
    if any(r.h > n for r in plist):
        raise ValueError("every piece must fit inside the square")
    total = sum(r.area for r in plist)
    if total != n * n:
        raise ValueError(f"piece areas sum to {total}, expected {n * n}")
    _, found, nodes = _first_tiling(n, [[plist]], node_budget)
    if nodes > node_budget:
        raise BudgetExceededError(f"node budget {node_budget} exhausted", nodes=nodes)
    return found


def _placement_mask(n: int, p: Placement) -> int:
    return _base_mask(n, p.width, p.height) << (p.y * n + p.x)


def verify_tiling(t: Tiling) -> VerificationReport:
    """Recheck a claimed tiling from scratch; never raises.

    Failure reasons, in the order tested: out-of-bounds, congruent-pair,
    overlap, gap.  The reported defect is always recomputed from the
    placements, independent of the ``defect`` field on the input.
    """
    areas = [p.rect.area for p in t.placements]
    min_area = min(areas) if areas else 0
    max_area = max(areas) if areas else 0
    defect = max_area - min_area

    def fail(reason: str) -> VerificationReport:
        return VerificationReport(False, defect, min_area, max_area, reason)

    n = t.n
    if n < 1:
        return fail("out-of-bounds")
    for p in t.placements:
        if p.x < 0 or p.y < 0 or p.x + p.width > n or p.y + p.height > n:
            return fail("out-of-bounds")
    rect_classes = [p.rect for p in t.placements]
    if len(set(rect_classes)) != len(rect_classes):
        return fail("congruent-pair")
    occupied = 0
    for p in t.placements:
        mask = _placement_mask(n, p)
        if occupied & mask:
            return fail("overlap")
        occupied |= mask
    if occupied != (1 << (n * n)) - 1:
        return fail("gap")
    return VerificationReport(True, defect, min_area, max_area, None)


def _first_tiling(
    n: int, levels: Iterable[Iterable[tuple[Rect, ...]]], budget: int
) -> tuple[int, Tiling | None, int]:
    """Search ``levels`` in order for the first piece set ``_cover`` tiles.

    Each level is a stream of piece sets, searched round-robin.  Its sets are
    admitted in stream order, each with its first turn of ``_QUANTUM`` nodes
    on admission (a set the chain rule refutes ends there, at 0 nodes), and
    once the stream runs dry the live searches take turns in admission order.
    The first tiling any search completes ends the search.  A level without
    one is exhausted before the next begins, so it costs the nodes its sets
    take one by one; a level whose fastest tiling set needs t nodes costs at
    most (its live sets) x (t + ``_QUANTUM``), where one set after another
    would pay for every failing set ahead of that one in full.

    Returns the index of the level where the search stopped, the tiling or
    None, and the node total.  Each turn gets at most what is left of
    ``budget``; once none is left, the first search that needs a node stops
    everything at its level with None and a total of exactly ``budget + 1``.
    A tiling is returned only once ``verify_tiling`` accepts it; a rejected
    certificate is a kernel bug and raises ``InternalConsistencyError``.
    Once every level is exhausted the index is the number of levels.
    """
    spent = level = 0
    for psets in levels:
        stream = iter(psets)
        live = collections.deque()  # (search, the nodes it has spent), in turn order
        while True:
            pieces = next(stream, None)
            if pieces is not None:  # admit the next set; its first turn comes at once
                search, used = _cover(n, pieces), 0
                if next(search, None) is None:  # the chain rule refuted it, at 0 nodes
                    continue
            elif live:
                search, used = live.popleft()
            else:
                break
            allowance = min(_QUANTUM, budget - spent)
            try:
                search.send(allowance)
            except StopIteration as end:
                found, nodes = end.value
                spent += nodes - used
                if found is None:
                    continue
                report = verify_tiling(found)
                if not report.valid:
                    raise InternalConsistencyError(
                        f"search returned a certificate for n={n} that fails verification ({report.reason})"
                    )
                return level, found, spent
            spent += allowance
            if spent == budget:  # it needs a node and none is left
                return level, None, budget + 1
            live.append((search, used + allowance))
        level += 1
    return level, None, spent


def scale_tiling(t: Tiling, k: int) -> Tiling:
    """Blow a valid tiling up by an integer factor k; defect scales by k²."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    report = verify_tiling(t)
    if not report.valid:
        raise ValueError(f"input tiling is invalid ({report.reason})")
    scaled = tuple(
        Placement(Rect(p.rect.w * k, p.rect.h * k), p.x * k, p.y * k, p.rotated)
        for p in t.placements
    )
    return Tiling(n=t.n * k, placements=scaled, defect=report.defect * k * k)


def solve_m(n: int, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[int, Tiling]:
    """Minimum defect over all tilings of the n x n square by >= 2 incongruent rects.

    Iterates candidate defect w = 0, 1, 2, ...; level w is the one stream
    ``_piece_sets(n, rects, w)`` of the piece sets whose areas span exactly
    w, drawn from every fitting rect but the n x n square itself.  So every
    candidate set is searched exactly once, at the w equal to its spread,
    and the first w admitting a tiling is the minimum.  The levels go, in
    order of w, to ``_first_tiling``, which runs the kernel ``_cover`` on
    each level's sets round-robin and checks a certificate by
    ``verify_tiling`` first; a rejected one raises
    ``InternalConsistencyError``.  The index of the level where it stops is
    w, and the certificate is the first tiling the round-robin of level w
    completes.  The levels below w are exhausted whatever the order, so
    only level w's cost depends on it.

    Raises ``BudgetExceededError`` once the search needs more than
    ``node_budget`` nodes of ``_cover``.  The error carries the proven lower
    bound (the level where the search stopped) and the trivial two-strip
    upper bound n(n-2).  An n past ``SOLVE_SAFE_LIMIT`` is a ``UsageError``,
    raised before any rect is built.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be positive, got {node_budget}")
    if n > SOLVE_SAFE_LIMIT:
        raise UsageError(f"n={n} exceeds the solve_m domain limit {SOLVE_SAFE_LIMIT}")
    # every fitting rect but n x n, which sorts first: alone it is the square, no tiling of >= 2
    rects = _sorted_pieces(Rect(w, h) for h in range(1, n + 1) for w in range(1, h + 1))[1:]
    trivial_bound = n * (n - 2)  # defect of the {1 x n, (n-1) x n} two-strip tiling
    levels = (_piece_sets(n, rects, w) for w in range(trivial_bound + 1))
    w, found, nodes = _first_tiling(n, levels, node_budget)
    if found is None:  # the two-strip tiling bounds the defect, so only the budget stops short
        raise BudgetExceededError(
            f"node budget {node_budget} exhausted while testing defect {w} for n={n}",
            nodes=nodes,
            lower_bound=w,
            upper_bound=trivial_bound,
        )
    return w, found


def check_perfect(n: int, node_budget: int = DEFAULT_NODE_BUDGET) -> PerfectCheckOutcome:
    """Decide whether the n x n square admits an equal-area (defect 0) tiling.

    If no proper divisor of n² satisfies d*tau(d) >= n², no such tiling can
    exist and the search is skipped entirely (FilterExcluded).  A witness d
    is searched only if it fits: the n²/d pieces must be distinct rects of
    area d inside the square, which caps their count at ceil(tau(d)/2).  The
    sets of each fitting witness are one level of ``_first_tiling``, which
    runs the kernel ``_cover`` on them round-robin: PerfectFound with a
    certificate that has passed ``verify_tiling``, or Exhausted.
    ``nodes_searched`` counts the nodes of ``_cover``; an exhausted level
    costs the same nodes in any order.  More than ``node_budget`` of them
    raise ``BudgetExceededError``, whose ``unresolved`` lists the fitting
    areas from the level where the search stopped on.  An n past
    ``PERFECT_SAFE_LIMIT`` with a fitting witness is a ``UsageError``, raised
    before any piece set is enumerated; the filter's answers, and Exhausted
    at 0 nodes where no witness fits, stay available past it.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    if node_budget < 1:
        raise ValueError(f"node_budget must be positive, got {node_budget}")
    report = witness_report(n)
    if report.p1:
        return PerfectCheckOutcome(n, PerfectVerdict.FILTER_EXCLUDED, None, None, 0)
    n2 = n * n
    fitting = [(d, rects) for d in report.witnesses if len(rects := rects_with_area(d, n)) * d >= n2]
    if fitting and n > PERFECT_SAFE_LIMIT:
        raise UsageError(
            f"n={n} has a fitting witness {fitting[0][0]} and exceeds the check_perfect search limit {PERFECT_SAFE_LIMIT}"
        )
    levels = (_piece_sets(n, rects, 0) for _, rects in fitting)
    i, found, nodes = _first_tiling(n, levels, node_budget)
    if nodes > node_budget:
        raise BudgetExceededError(
            f"node budget {node_budget} exhausted at piece area {fitting[i][0]} for n={n}",
            nodes=nodes,
            unresolved=tuple(d for d, _ in fitting[i:]),
        )
    verdict = PerfectVerdict.EXHAUSTED if found is None else PerfectVerdict.PERFECT_FOUND
    return PerfectCheckOutcome(n, verdict, report.witness, found, nodes)


def tiling_to_json(t: Tiling) -> str:
    """Certificate JSON: {"n", "defect", "pieces": [{"w","h","x","y","rot"}...]}."""
    obj = {
        "n": t.n,
        "defect": t.defect,
        "pieces": [
            {"w": p.rect.w, "h": p.rect.h, "x": p.x, "y": p.y, "rot": p.rotated}
            for p in t.placements
        ],
    }
    return json.dumps(obj)


def tiling_from_json(source: str | bytes) -> Tiling:
    """Parse a certificate emitted by ``tiling_to_json`` (lossless round trip)."""
    obj = json.loads(source)
    try:
        n = obj["n"]
        defect = obj["defect"]
        pieces = obj["pieces"]
        # bool is a subclass of int, so JSON true/false must be refused by exact type
        if type(n) is not int or type(defect) is not int:
            raise TypeError
        placements = []
        for item in pieces:
            w, h, x, y, rot = item["w"], item["h"], item["x"], item["y"], item["rot"]
            if not all(type(v) is int for v in (w, h, x, y)) or not isinstance(rot, bool):
                raise TypeError
            placements.append(Placement(Rect(w, h), x, y, rot))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed tiling certificate: {source!r:.120}") from exc
    return Tiling(n=n, placements=tuple(placements), defect=defect)
