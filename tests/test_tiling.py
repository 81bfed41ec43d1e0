import functools
import inspect
import itertools
import json
import math
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mondrian import numtheory, tiling
from mondrian.census import load_bfile
from mondrian.cli import main
from mondrian.errors import BudgetExceededError, InternalConsistencyError, UsageError
from mondrian.tiling import (
    Placement,
    Rect,
    Tiling,
    PerfectCheckOutcome,
    PerfectVerdict,
    canonical_rect,
    check_perfect,
    enumerate_piece_sets,
    exact_cover_tile,
    rects_with_area,
    scale_tiling,
    solve_m,
    tiling_from_json,
    tiling_to_json,
    verify_tiling,
)
from mondrian.numtheory import tau
from oracles import (
    divisors_of_square,
    naive_min_defect,
    naive_tau,
    naive_tiles,
    no_chain_spans,
    seed_cover_search,
)


def R(a, b):
    return canonical_rect(a, b)


COVER = tiling._cover


class Turn(NamedTuple):
    """One step of a kernel search: ``nodes`` spent in it, and ``end`` its
    (tiling or None, nodes) once the search has ended, else None (it paused)."""

    n: int
    pieces: tuple
    nodes: int
    end: tuple | None


def run(n, pieces):
    """The kernel's search of one set, run to its end in one turn: (tiling or None, nodes)."""
    search = COVER(n, pieces)
    try:
        next(search)
        search.send(tiling.DEFAULT_NODE_BUDGET)
    except StopIteration as end:
        return end.value
    raise AssertionError(f"no end within the default budget: {n}, {pieces}")


def admitted(turns):
    """The (n, pieces) of every search, in the order the driver admitted them."""
    return list(dict.fromkeys((t.n, t.pieces) for t in turns))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Record a ``Turn`` for every step of every search of the cover kernel ``tiling._cover``.

    A search's first step is its admission, at 0 nodes, where a set the chain
    rule refutes ends; each later step is a turn.  A search stopped by the
    budget or left live when another finds a tiling ends with a paused turn,
    so the nodes of all turns sum to the driver's total, or to the budget
    when the budget stopped it.
    """
    seen = []

    def recording(n, pieces):
        search = COVER(n, pieces)
        allowance, spent = None, 0
        while True:
            try:
                now = search.send(allowance)
            except StopIteration as end:
                seen.append(Turn(n, pieces, end.value[1] - spent, end.value))
                return end.value
            seen.append(Turn(n, pieces, now - spent, None))
            spent = now
            allowance = yield now

    monkeypatch.setattr(tiling, "_cover", recording)
    return seen


@functools.cache
def windows_holding_sets(n):
    """The area windows [lo, hi] of width at most 2n that hold a piece set at n."""
    return [
        (lo, hi)
        for lo in range(1, n * n + 1)
        for hi in range(lo, min(n * n, lo + 2 * n) + 1)
        if next(enumerate_piece_sets(n, lo, hi), None)
    ]


def assert_canonical_corners(t):
    """The piece at (0, 0) is wide or square, and no other corner piece sorts before it.

    Pieces sort by descending area, then short side, then long side, as the
    kernel numbers them; the corner pieces are read off the placements.
    """
    n = t.n

    def covering(cx, cy):
        (p,) = [p for p in t.placements if p.x <= cx < p.x + p.width and p.y <= cy < p.y + p.height]
        return p

    def key(p):
        return (-p.rect.area, p.rect.w, p.rect.h)

    origin = covering(0, 0)
    assert origin.width >= origin.height, origin
    for cx, cy in ((n - 1, 0), (0, n - 1), (n - 1, n - 1)):
        other = covering(cx, cy)
        assert key(other) >= key(origin), (cx, cy, other, origin)


class TestCanonicalRect:
    def test_orientation_normalized(self):
        assert R(3, 2) == Rect(2, 3)
        assert R(4, 4) == Rect(4, 4)

    def test_zero_side_rejected(self):
        with pytest.raises(ValueError):
            canonical_rect(0, 5)
        with pytest.raises(ValueError):
            Rect(3, 2)

    def test_area(self):
        assert R(5, 2).area == 10


class TestRectsWithArea:
    def test_examples(self):
        assert rects_with_area(12, 6) == [Rect(2, 6), Rect(3, 4)]
        assert rects_with_area(9, 6) == [Rect(3, 3)]
        assert rects_with_area(4, 6) == [Rect(1, 4), Rect(2, 2)]

    @given(st.integers(1, 200), st.integers(1, 20))
    def test_exhaustive_definition(self, d, n):
        expected = [
            Rect(w, d // w)
            for w in range(1, d + 1)
            if d % w == 0 and w <= d // w <= n
        ]
        got = rects_with_area(d, n)
        assert got == expected
        # congruence classes: at most ceil(tau(d)/2) of them
        tau_d = sum(1 for k in range(1, d + 1) if d % k == 0)
        assert len(got) <= (tau_d + 1) // 2


class TestEnumeratePieceSets:
    def test_known_sets_present_for_six(self):
        # two six-piece sets with areas 9+8+6+5+4+4 = 36; distinct rects may
        # share an area (1x6 and 2x3 both have area 6)
        for six in (R(2, 3), R(1, 6)):
            target = {R(3, 3), R(2, 4), six, R(1, 5), R(1, 4), R(2, 2)}
            assert sum(r.area for r in target) == 36
            assert any(set(s) == target for s in enumerate_piece_sets(6, 4, 9))

    def test_unit_square(self):
        assert list(enumerate_piece_sets(1, 1, 1)) == [(Rect(1, 1),)]

    def test_single_piece_window(self):
        assert list(enumerate_piece_sets(3, 9, 9)) == [(Rect(3, 3),)]

    def test_every_set_respects_contract(self):
        for s in enumerate_piece_sets(5, 3, 10):
            areas = [r.area for r in s]
            assert sum(areas) == 25
            assert all(3 <= a <= 10 for a in areas)
            assert all(r.h <= 5 for r in s)
            assert len(set(s)) == len(s)

    def test_matches_independent_subset_count(self):
        # every window's exact ordered list, from subsets of the fitting rects by brute force
        from itertools import combinations

        for n in range(1, 6):
            cands = sorted(
                (Rect(w, h) for h in range(1, n + 1) for w in range(1, h + 1)),
                key=lambda r: (-r.area, r.w, r.h),
            )
            # index tuples of the subsets covering n²; none is a prefix of another,
            # so their lexicographic order is the depth-first order
            full = sorted(
                combo
                for k in range(1, len(cands) + 1)
                for combo in combinations(range(len(cands)), k)
                if sum(cands[i].area for i in combo) == n * n
            )
            for lo in range(1, n * n + 1):
                for hi in range(lo, n * n + 1):
                    expected = [
                        tuple(cands[i] for i in combo)
                        for combo in full
                        if all(lo <= cands[i].area <= hi for i in combo)
                    ]
                    assert list(enumerate_piece_sets(n, lo, hi)) == expected, (n, lo, hi)

    def test_deterministic_order(self):
        first = list(enumerate_piece_sets(5, 2, 12))
        second = list(enumerate_piece_sets(5, 2, 12))
        assert first == second

    def test_exact_spread_is_the_filtered_plain_enumeration(self):
        for n in range(1, 7):
            cands = tiling._sorted_pieces(
                Rect(w, h) for h in range(1, n + 1) for w in range(1, h + 1)
            )
            every = list(enumerate_piece_sets(n, 1, n * n))
            for spread in range(n * n):
                expected = [s for s in every if s[0].area - s[-1].area == spread]
                assert list(tiling._piece_sets(n, cands, spread)) == expected, (n, spread)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            list(enumerate_piece_sets(3, 0, 5))
        with pytest.raises(ValueError):
            list(enumerate_piece_sets(3, 5, 3))
        with pytest.raises(ValueError):
            list(enumerate_piece_sets(3, 1, 10))


class TestExactCoverTile:
    def test_unit(self):
        t = exact_cover_tile(1, [Rect(1, 1)])
        assert t is not None and len(t.placements) == 1
        assert verify_tiling(t).valid

    def test_strip_plus_block(self):
        t = exact_cover_tile(4, [R(1, 4), R(3, 4)])
        assert t is not None and verify_tiling(t).valid

    def test_three_by_three_cases(self):
        assert exact_cover_tile(3, [R(1, 3), R(2, 3)]) is not None
        t = exact_cover_tile(3, [R(1, 2), R(1, 3), R(2, 2)])
        assert t is not None and verify_tiling(t).valid

    def test_infeasible_set_returns_none(self):
        # a 3x4 block leaves a 1-wide strip that the 2x2 cannot fill
        assert exact_cover_tile(4, [R(2, 2), R(3, 4)]) is None

    def test_orientation_completeness(self):
        # tiles only when different pieces take different orientations:
        # 4x4 block, vertical 1x5 in the last column, horizontal 1x4 below
        pieces = [R(4, 4), R(1, 5), R(1, 4)]
        t = exact_cover_tile(5, pieces)
        assert t is not None and verify_tiling(t).valid
        used = {(p.width, p.height) for p in t.placements}
        assert (1, 5) in used or (5, 1) in used

    def test_precondition_violations_raise(self):
        with pytest.raises(ValueError):
            exact_cover_tile(3, [R(1, 3)])  # area sum mismatch
        with pytest.raises(ValueError):
            exact_cover_tile(2, [R(1, 3), R(1, 1)])  # piece taller than board
        with pytest.raises(ValueError):
            exact_cover_tile(2, [R(1, 2), R(2, 1)])  # congruent pair
        with pytest.raises(ValueError):
            exact_cover_tile(0, [])

    def test_determinism(self):
        a = exact_cover_tile(4, [R(1, 4), R(3, 4)])
        b = exact_cover_tile(4, [R(3, 4), R(1, 4)])
        assert a == b

    def test_budget_raises(self):
        with pytest.raises(BudgetExceededError, match="^node budget 1 exhausted$") as err:
            exact_cover_tile(6, list(enumerate_piece_sets(6, 4, 9))[0], node_budget=1)
        assert err.value.nodes == 2

    def test_budget_defaults_to_the_solvers(self):
        # the three public searches share one finite default
        default = inspect.signature(exact_cover_tile).parameters["node_budget"].default
        assert default == tiling.DEFAULT_NODE_BUDGET

    def test_negative_budget_raises(self):
        # checked before the search, which a negative budget would never stop
        pieces = list(enumerate_piece_sets(6, 4, 9))[0]
        with pytest.raises(ValueError, match="node_budget"):
            exact_cover_tile(6, pieces, node_budget=-1)

    def test_budget_at_every_node_count(self, kernel_calls):
        # a turn of k < T nodes pauses before node k + 1, and the search goes on from there
        for n in range(3, 13):
            solve_m(n)
            check_perfect(n)
        runs = [(n, pieces, *run(n, pieces)) for n, pieces in admitted(kernel_calls)]
        small = [r for r in runs if r[3] <= 300]
        assert len(small) == 66  # of 71 sets; the 0-node ones are sets the chain rule refutes
        for n, pieces, found, total in small:
            for k in range(total):
                search = tiling._cover(n, pieces)
                assert next(search) == 0
                assert search.send(k) == k, (n, pieces, k)
                assert search.send(total - 1 - k) == total - 1, (n, pieces, k)
                with pytest.raises(StopIteration) as end:
                    search.send(1)
                assert end.value.value == (found, total), (n, pieces, k)

    def test_resumed_search_ends_as_one_run(self):
        # turns of 1, 2, 3, ... nodes cut each run at other nodes than one turn does;
        # every set the solvers hand the kernel ends with the same certificate and nodes
        for n, sides, _ in TestKernelVerdicts.VERDICTS["solve_m"] + TestKernelVerdicts.VERDICTS["check_perfect"]:
            pieces = tuple(Rect(w, h) for w, h in sides)
            want = run(n, pieces)
            search = tiling._cover(n, pieces)
            spent = 0
            try:
                assert next(search) == 0
                for allowance in itertools.count(1):
                    assert search.send(allowance) == spent + allowance, (n, sides)
                    spent += allowance
            except StopIteration as end:
                assert end.value == want, (n, sides)
                assert spent < want[1] <= spent + allowance or want[1] == 0, (n, sides)

    def test_chain_rule_refutes_only_untileable_sets(self):
        # every set of distinct fitting rects summing to n², for n <= 7: the kernel
        # spends 0 nodes exactly where the oracle's chain rule refutes, and no such set tiles
        refuted = 0
        for n in range(1, 8):
            for pieces in enumerate_piece_sets(n, 1, n * n):
                found, nodes = run(n, pieces)
                assert (nodes == 0) == no_chain_spans(n, pieces), (n, pieces)
                if nodes == 0:
                    refuted += 1
                    assert not naive_tiles(n, [(r.w, r.h) for r in pieces]), (n, pieces)
        assert refuted == 4 + 12 + 60 + 212  # n = 4, 5, 6, 7; none at n <= 3

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_naive_search(self, data):
        n = data.draw(st.integers(3, 7))
        lo, hi = data.draw(st.sampled_from(windows_holding_sets(n)))
        pieces = data.draw(st.sampled_from(list(enumerate_piece_sets(n, lo, hi))))
        found = exact_cover_tile(n, pieces)
        assert (found is not None) == naive_tiles(n, [(r.w, r.h) for r in pieces])
        if found is not None:
            assert verify_tiling(found).valid
            assert_canonical_corners(found)


class TestKernelVerdicts:
    """Every piece set the solvers hand the cover kernel keeps its recorded verdict.

    ``data/kernel_verdicts.json`` holds the sets ``solve_m`` tries for
    n = 3..16 and the combinations ``check_perfect`` tries for n = 3..200,
    each with the tileable flag the kernel gave it when recorded, plus
    (``tileable_at_m``) all 35 sets at w = M(n) that tile for n = 3..16,
    where ``solve_m`` itself stops at the first.  A pruning bug that loses a
    tiling would raise M(n) silently.  A lost tiling often has a symmetric
    twin the kernel still finds, so ``test_agrees_with_naive_search`` is the
    other half of the guard.
    """

    VERDICTS = json.loads((Path(__file__).parent / "data" / "kernel_verdicts.json").read_text())

    @pytest.mark.parametrize("caller", ["solve_m", "check_perfect", "tileable_at_m"])
    def test_replay(self, caller):
        changed = []
        for n, sides, tileable in self.VERDICTS[caller]:
            found = exact_cover_tile(n, [Rect(w, h) for w, h in sides])
            if (found is not None) != tileable:
                changed.append((n, sides, tileable))
            if found is not None:
                assert verify_tiling(found).valid
                assert_canonical_corners(found)
        assert not changed

    def test_solvers_hand_the_kernel_exactly_these_sets(self, kernel_calls):
        # a driver that drops, adds or reorders a set changes these lists
        def sent():
            got = [[n, [[r.w, r.h] for r in pieces]] for n, pieces in admitted(kernel_calls)]
            kernel_calls.clear()
            return got

        for n in range(3, 17):
            solve_m(n)
        assert sent() == [[n, sides] for n, sides, _ in self.VERDICTS["solve_m"]]
        nodes = sum(check_perfect(n).nodes_searched for n in range(3, 201))
        assert sent() == [[n, sides] for n, sides, _ in self.VERDICTS["check_perfect"]]
        assert nodes == 47_892


class TestComputedM:
    """``data/computed_m.json`` records M(n) computed here by ``solve_m`` at the default budget.

    Each certificate must replay through ``verify_tiling`` at the recorded
    defect; that proves M(n) <= m.  Where the b-file has n the recorded m must
    equal it, and every node total must fit the default budget.  The lower
    bound rests on the search that produced the entry: n = 23 is recomputed
    here, node total included, and a CI step recomputes every entry and
    compares its certificate and node total.
    """

    RECORD = json.loads((Path(__file__).parent / "data" / "computed_m.json").read_text())

    def test_certificates_replay(self):
        entries = self.RECORD["entries"]
        assert [e["n"] for e in entries] == [20, 21, 22, 23, 24, 25, 26, 29]
        for e in entries:
            cert = tiling_from_json(json.dumps(e["certificate"]))
            report = verify_tiling(cert)
            assert report.valid, (e["n"], report.reason)
            assert (cert.n, cert.defect, report.defect) == (e["n"], e["m"], e["m"])
            assert_canonical_corners(cert)

    def test_agrees_with_bfile_inside_budget(self, bfile_path):
        known = load_bfile(bfile_path)
        for e in self.RECORD["entries"]:
            assert e["n"] not in known or e["m"] == known[e["n"]], e["n"]
            assert e["nodes"] <= tiling.DEFAULT_NODE_BUDGET, e["n"]

    def test_recompute_23(self, kernel_calls):
        want = next(e for e in self.RECORD["entries"] if e["n"] == 23)
        m, cert = solve_m(23)
        assert (m, json.loads(tiling_to_json(cert))) == (want["m"], want["certificate"])
        assert sum(t.nodes for t in kernel_calls) == want["nodes"] == 6_637


class TestAgainstSeedKernel:
    """The cover kernel agrees with the seed kernel on every set the solvers admit.

    Each admitted set is run to its end.  With its corner and chain rules the
    seed kernel must return the kernel's certificate and node count; a set
    the chain rule refutes costs 0 nodes.  Both visit pieces by descending
    area, the unrotated variant first, so a kernel that skips or reorders a
    choice changes the certificate, even where a symmetric twin keeps the
    verdict.  Its node count must equal the pieces the seed kernel placed: a
    node is a placement that fits and that the corner rule allows, never a
    misfit.  The plain seed kernel, with neither rule, must give the same
    verdict on every set, the refuted ones included.  Inside the solver, a
    search that ended must have ended with that pair, its turns summing to
    its nodes, and one left live must have spent fewer.
    """

    def _assert_same_as_seed(self, seen):
        assert any(t.nodes for t in seen)
        searches = {}  # the turns of each search, in admission order
        for t in seen:
            searches.setdefault((t.n, t.pieces), []).append(t)
        for (n, pieces), turns in searches.items():
            want = seed_cover_search(n, pieces, corners=True, chains=True)
            assert run(n, pieces) == want, (n, pieces)
            assert (want[0] is None) == (seed_cover_search(n, pieces)[0] is None), (n, pieces)
            spent = sum(t.nodes for t in turns)
            if turns[-1].end is None:
                assert spent < want[1], (n, pieces)
            else:
                assert turns[-1].end == want and spent == want[1], (n, pieces)

    def test_solve_m(self, kernel_calls):
        for n in range(3, 15):
            solve_m(n)
        self._assert_same_as_seed(kernel_calls)

    def test_check_perfect(self, kernel_calls):
        # n = 84 is the first n whose check spends a node; the chain rule refutes every set before it
        for n in range(3, 85):
            check_perfect(n)
        self._assert_same_as_seed(kernel_calls)


class TestVerifyTiling:
    def _hand_tiling(self):
        # 3x3: 2x2 block at origin, 1x3 column at x=2, 1x2 strip at bottom
        return Tiling(
            n=3,
            placements=(
                Placement(Rect(2, 2), 0, 0, False),
                Placement(Rect(1, 3), 2, 0, False),
                Placement(Rect(1, 2), 0, 2, True),
            ),
            defect=2,
        )

    def test_valid_hand_tiling(self):
        rep = verify_tiling(self._hand_tiling())
        assert rep.valid and rep.defect == 2 and (rep.min_area, rep.max_area) == (2, 4)

    def test_single_piece_square(self):
        t = Tiling(3, (Placement(Rect(3, 3), 0, 0, False),), 0)
        rep = verify_tiling(t)
        assert rep.valid and rep.defect == 0

    def test_congruent_pair_rejected(self):
        t = Tiling(
            2,
            (Placement(Rect(1, 2), 0, 0, False), Placement(Rect(1, 2), 1, 0, False)),
            0,
        )
        rep = verify_tiling(t)
        assert not rep.valid and rep.reason == "congruent-pair"

    def test_out_of_bounds(self):
        t = self._hand_tiling()
        bad = Tiling(3, t.placements[:-1] + (Placement(Rect(1, 2), 2, 2, True),), 2)
        rep = verify_tiling(bad)
        assert not rep.valid and rep.reason == "out-of-bounds"

    def test_overlap(self):
        t = self._hand_tiling()
        bad = Tiling(3, t.placements[:-1] + (Placement(Rect(1, 2), 0, 1, True),), 2)
        rep = verify_tiling(bad)
        assert not rep.valid and rep.reason == "overlap"

    def test_gap(self):
        t = self._hand_tiling()
        bad = Tiling(3, t.placements[:-1], 2)
        rep = verify_tiling(bad)
        assert not rep.valid and rep.reason == "gap"

    def test_empty_tiling_is_gap(self):
        rep = verify_tiling(Tiling(2, (), 0))
        assert not rep.valid and rep.reason == "gap"

    def test_empty_board_is_out_of_bounds(self):
        rep = verify_tiling(Tiling(0, (), 0))
        assert not rep.valid and rep.reason == "out-of-bounds"


class TestScaleTiling:
    def _base(self):
        t = exact_cover_tile(4, [R(1, 4), R(3, 4)])
        assert t is not None
        return t

    def test_identity(self):
        t = self._base()
        assert scale_tiling(t, 1) == t

    def test_doubling(self):
        t = self._base()
        big = scale_tiling(t, 2)
        rep = verify_tiling(big)
        assert big.n == 8 and rep.valid
        assert {p.rect for p in big.placements} == {Rect(2, 8), Rect(6, 8)}
        assert verify_tiling(t).defect == 8 and rep.defect == 32

    @given(st.integers(1, 4))
    def test_defect_scales_quadratically(self, k):
        for base in (
            exact_cover_tile(3, [R(1, 3), R(2, 3)]),
            exact_cover_tile(3, [R(1, 2), R(1, 3), R(2, 2)]),
            self._base(),
        ):
            scaled = scale_tiling(base, k)
            rep = verify_tiling(scaled)
            assert rep.valid
            assert rep.defect == k * k * verify_tiling(base).defect

    def test_zero_defect_stays_zero(self):
        perfect = Tiling(3, (Placement(Rect(3, 3), 0, 0, False),), 0)
        for k in (1, 2, 3, 4):
            assert verify_tiling(scale_tiling(perfect, k)).defect == 0

    def test_invalid_input_rejected(self):
        broken = Tiling(3, (), 0)
        with pytest.raises(ValueError):
            scale_tiling(broken, 2)
        with pytest.raises(ValueError):
            scale_tiling(self._base(), 0)


class TestSolveM:
    def test_three(self):
        val, cert = solve_m(3)
        assert val == 2
        rep = verify_tiling(cert)
        assert rep.valid and rep.defect == 2

    def test_six_matches_published_value(self):
        val, cert = solve_m(6)
        assert val == 5
        assert verify_tiling(cert).defect == 5

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
    def test_matches_naive_oracle(self, n):
        assert solve_m(n)[0] == naive_min_defect(n)

    def test_certificate_verifies_with_claimed_defect(self):
        for n in range(3, 9):
            val, cert = solve_m(n)
            rep = verify_tiling(cert)
            assert rep.valid and rep.defect == val == cert.defect

    def test_certificates_are_canonical_at_the_corners(self):
        for n in range(3, 17):
            assert_canonical_corners(solve_m(n)[1])

    def test_filter_consistency_with_solver(self):
        # witnessless n must have a strictly positive minimum defect
        from mondrian.numtheory import witness_report

        for n in range(3, 13):
            if witness_report(n).p1:
                assert solve_m(n)[0] > 0

    def test_round_robin_node_total(self, kernel_calls):
        # levels 0..7 hold no tiling and cost 447 nodes in any order; level 8's 17 live
        # sets take turns, and the 13th tiles at its 380th node, so the level costs
        # 5,951 nodes where one set after another spent 36,128
        assert solve_m(16)[0] == 8
        below = sum(t.nodes for t in kernel_calls if t.pieces[0].area - t.pieces[-1].area < 8)
        assert (below, sum(t.nodes for t in kernel_calls)) == (447, 6_398)

    def test_budget_error_carries_bounds(self):
        with pytest.raises(BudgetExceededError) as info:
            solve_m(8, node_budget=5)
        err = info.value
        # the chain rule refutes every set below the true M(8) = 6 at 0 nodes, and
        # w = 6's first two sets too, so the sixth node falls in w = 6's third set
        assert (err.nodes, err.lower_bound, err.upper_bound) == (6, 6, 8 * 6)
        with pytest.raises(BudgetExceededError) as info:
            solve_m(8, node_budget=6)
        # that set tiles at its seventh node, the search's last
        assert (info.value.nodes, info.value.lower_bound) == (7, 6)
        assert solve_m(8, node_budget=7)[0] == solve_m(8, node_budget=100)[0] == 6

    def test_domain(self):
        with pytest.raises(ValueError):
            solve_m(2)

    def test_domain_limit_is_accepted(self):
        # levels 0 and 1 hold no set at n = 256, the chain rule refutes every set of
        # levels 2 to 5 at 0 nodes, and the first set of level 6 it lets through spends node 2
        with pytest.raises(BudgetExceededError) as info:
            solve_m(tiling.SOLVE_SAFE_LIMIT, node_budget=1)
        assert (info.value.nodes, info.value.lower_bound) == (2, 6)

    def test_no_per_area_table(self, monkeypatch, bfile_path):
        # each defect level is one stream over the fitting rects; no area is looked up
        monkeypatch.setattr(tiling, "rects_with_area", None)
        known = load_bfile(bfile_path)
        assert [solve_m(n)[0] for n in range(3, 13)] == [known[n] for n in range(3, 13)]


class TestCheckPerfect:
    def test_filter_excluded(self):
        for n in (3, 5):
            out = check_perfect(n)
            assert out.verdict is PerfectVerdict.FILTER_EXCLUDED
            assert out.witness_d is None and out.certificate is None

    def test_six_exhausted(self):
        out = check_perfect(6)
        assert out.verdict is PerfectVerdict.EXHAUSTED
        assert out.witness_d == 12
        assert out.certificate is None

    def _searched(self, kernel_calls):
        """(n, fitting witnesses by the brute-force oracle, piece sets check_perfect ran), n <= 120."""
        for n in range(3, 121):
            n2 = n * n
            expected = [
                d
                for d in divisors_of_square(n)
                if d != n2
                and d * naive_tau(d) >= n2
                and len(rects_with_area(d, n)) >= n2 / d
            ]
            kernel_calls.clear()
            assert check_perfect(n).verdict is not PerfectVerdict.PERFECT_FOUND
            yield n, expected, [pieces for _, pieces in admitted(kernel_calls)]

    def test_candidate_identities(self, kernel_calls):
        # each fitting witness d gets every set of s = n²/d of its fitting rects,
        # and the congruence-class refinement s <= ceil(tau(d)/2) holds
        for n, expected, sets in self._searched(kernel_calls):
            for d in expected:
                rects = rects_with_area(d, n)
                s = n * n // d
                assert d * s == n * n
                assert s <= len(rects) <= (tau(d) + 1) // 2
                of_d = [pieces for pieces in sets if pieces[0].area == d]
                assert len(of_d) == math.comb(len(rects), s), (n, d)
                assert all(len(set(p)) == s and {r.area for r in p} == {d} for p in of_d)

    def test_candidates_are_every_fitting_witness(self, kernel_calls):
        # a skipped witness would turn into a silently wrong Exhausted verdict
        for n, expected, sets in self._searched(kernel_calls):
            areas = [pieces[0].area for pieces in sets]
            assert list(dict.fromkeys(areas)) == expected, n

    def test_small_range_never_perfect(self):
        for n in range(3, 15):
            assert check_perfect(n).verdict is not PerfectVerdict.PERFECT_FOUND

    def test_budget_error_lists_unresolved_areas(self):
        # n = 84 is the smallest n whose check spends a node (the chain rule refutes every
        # set before it at 0 nodes), and the one set of its first fitting witness spends node 2
        with pytest.raises(BudgetExceededError) as info:
            check_perfect(84, node_budget=1)
        assert (info.value.nodes, info.value.unresolved) == (2, (1008, 1764, 2352, 3528))

    def test_search_limit(self, monkeypatch):
        # past the limit an n keeps only the answers that search no piece set: the
        # filter's (test_cli), and Exhausted at 0 nodes where no witness fits
        n = tiling.PERFECT_SAFE_LIMIT + 1
        assert check_perfect(n + 2) == PerfectCheckOutcome(n + 2, PerfectVerdict.EXHAUSTED, 89042, None, 0)
        monkeypatch.setattr(tiling, "_piece_sets", None)  # no piece set may be enumerated
        with pytest.raises(UsageError, match=f"n={n} has a fitting witness 12600"):
            check_perfect(n)

    def test_nodes_accounted_when_search_runs(self):
        out = check_perfect(84)
        assert out.verdict is PerfectVerdict.EXHAUSTED
        assert out.nodes_searched > 0

    def test_one_witness_walk_per_n(self, monkeypatch):
        # the fitting witnesses come from witness_report's walk, not a second one
        walk = numtheory._witnesses
        calls = []

        def counted(n, factors):
            calls.append(n)
            return walk(n, factors)

        for module in (numtheory, tiling):  # wherever a caller looks the walk up
            if getattr(module, "_witnesses", None) is walk:
                monkeypatch.setattr(module, "_witnesses", counted)
        for n in range(3, 61):
            calls.clear()
            check_perfect(n)
            assert calls == [n], n


class TestBudgetStops:
    """A budget of k nodes stops both solvers at node k + 1, in the level that holds it.

    The budgets tried are those where node k + 1 opens or closes a turn, so a
    level index one off at a turn, run or level boundary shows.  k = 0 is left
    out: a budget must be positive.  The search that needs node k + 1 pauses
    before it, so the turns of a stopped search sum to exactly k.
    """

    @staticmethod
    def _stops(kernel_calls, level_of):
        """The budgets k with the level of the turn holding node k + 1, and the node total."""
        stops, total = {}, 0
        for t in kernel_calls:
            for node in (total + 1, total + t.nodes) if t.nodes else ():
                if node > 1:
                    stops[node - 1] = level_of(t.pieces)
            total += t.nodes
        return sorted(stops.items()), total

    def test_solve_m(self, kernel_calls):
        for n in range(3, 13):
            kernel_calls.clear()
            want = solve_m(n)
            stops, total = self._stops(kernel_calls, lambda p: p[0].area - p[-1].area)
            assert stops, n
            for k, w in stops:
                kernel_calls.clear()
                with pytest.raises(BudgetExceededError) as info:
                    solve_m(n, node_budget=k)
                assert (info.value.nodes, info.value.lower_bound) == (k + 1, w), (n, k)
                assert sum(t.nodes for t in kernel_calls) == k and kernel_calls[-1].end is None, (n, k)
            assert solve_m(n, node_budget=total) == want, n

    def test_check_perfect(self, kernel_calls):
        for n in (84, 120, 168):
            kernel_calls.clear()
            want = check_perfect(n)
            areas = list(dict.fromkeys(t.pieces[0].area for t in kernel_calls))
            stops, total = self._stops(kernel_calls, lambda p: p[0].area)
            assert stops and total == want.nodes_searched, n
            for k, d in stops:
                kernel_calls.clear()
                with pytest.raises(BudgetExceededError) as info:
                    check_perfect(n, node_budget=k)
                unresolved = tuple(areas[areas.index(d):])
                assert (info.value.nodes, info.value.unresolved) == (k + 1, unresolved), (n, k)
                assert sum(t.nodes for t in kernel_calls) == k and kernel_calls[-1].end is None, (n, k)
            assert check_perfect(n, node_budget=total) == want, n


class TestCertificateJson:
    def test_round_trip_tiling(self):
        _, cert = solve_m(5)
        blob = tiling_to_json(cert)
        again = tiling_from_json(blob)
        assert again == cert
        assert tiling_to_json(again) == blob

    def test_emitted_shape(self):
        import json

        _, cert = solve_m(3)
        obj = json.loads(tiling_to_json(cert))
        assert set(obj) == {"n", "defect", "pieces"}
        assert all(set(p) == {"w", "h", "x", "y", "rot"} for p in obj["pieces"])

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            tiling_from_json('{"n": 3, "pieces": []}')
        with pytest.raises(ValueError):
            tiling_from_json('{"n": 3, "defect": 0, "pieces": [{"w": 1}]}')
        with pytest.raises(ValueError):
            tiling_from_json(
                '{"n": true, "defect": 0, "pieces": '
                '[{"w": true, "h": true, "x": false, "y": false, "rot": false}]}'
            )
        # one JSON boolean at a time, each equal to the valid integer it replaces
        for field in ("n", "defect", "w", "h", "x", "y"):
            obj = {"n": 1, "defect": 0, "pieces": [{"w": 1, "h": 1, "x": 0, "y": 0, "rot": False}]}
            target = obj if field in obj else obj["pieces"][0]
            target[field] = bool(target[field])
            with pytest.raises(ValueError):
                tiling_from_json(json.dumps(obj))


class TestCertificatesAreVerified:
    """A certificate the kernel returns must pass verify_tiling before anyone sees it."""

    @pytest.fixture
    def drops_a_placement(self, monkeypatch):
        """The kernel returns each tiling it finds less its last placement."""
        cover = tiling._cover

        def drops(n, pieces):
            found, nodes = yield from cover(n, pieces)
            if found is None:
                return None, nodes
            return Tiling(found.n, found.placements[:-1], found.defect), nodes

        monkeypatch.setattr(tiling, "_cover", drops)

    def test_solve_m(self, drops_a_placement, capsys):
        with pytest.raises(InternalConsistencyError):
            solve_m(5)
        for fmt in ("text", "json"):
            assert main(["solve", "--n", "5", "--format", fmt]) == 3
            assert capsys.readouterr().out == ""

    def test_exact_cover_tile(self, drops_a_placement):
        with pytest.raises(InternalConsistencyError):
            exact_cover_tile(4, [Rect(1, 4), Rect(3, 4)])

    def test_check_perfect(self, monkeypatch, capsys):
        def claims_every_set(n, pieces):
            yield 0  # paused before its first node, as a set the chain rule lets through
            return Tiling(n, tuple(Placement(r, 0, 0) for r in pieces), 0), 1

        monkeypatch.setattr(tiling, "_cover", claims_every_set)
        with pytest.raises(InternalConsistencyError):
            check_perfect(12)  # the smallest n whose candidates reach the kernel
        assert main(["perfect", "--n", "12"]) == 3
        assert capsys.readouterr().out == ""


class TestAgainstOracleTilings:
    @given(st.integers(3, 5))
    @settings(max_examples=10, deadline=None)
    def test_solver_certificates_tile_by_naive_search(self, n):
        _, cert = solve_m(n)
        pieces = [(p.rect.w, p.rect.h) for p in cert.placements]
        assert naive_tiles(n, pieces)
