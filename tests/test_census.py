import functools
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mondrian import census, numtheory
from mondrian.census import (
    CENSUS_CSV_HEADER,
    EULER_GAMMA,
    CensusRecord,
    OeisSeries,
    _block_predicates,
    census_csv_row,
    census_json_dict,
    compare_oeis,
    load_bfile,
    run_chain_census,
    theorem_report,
)
from mondrian.cli import main
from mondrian.errors import BFileParseError, InternalConsistencyError
from mondrian.numtheory import (
    _factorize,
    _tau_threshold,
    census_excess_tau,
    compute_z,
    rough_count,
    tau,
    tau_of_square,
    witness_report,
)
from oracles import (
    brute_predicates,
    divisor_block_oracle,
    naive_factorization,
    naive_predicates,
    naive_spf,
    naive_witness,
)


@functools.cache
def brute_row(n):
    """(spf, tau(n), p1, p2, p3) of n from its trial-division factorisation."""
    fac = naive_factorization(n)
    return fac[0][0], math.prod(a + 1 for _, a in fac), *brute_predicates(n)


def brute_census_counts(x):
    """All census count fields recomputed from first principles, one n at a time, even n included."""
    z = compute_z(x)
    threshold = _tau_threshold(x)
    c1 = c2 = c3 = c_rst = c_rough = c_excess = 0
    for n in range(3, x + 1):
        spf, tau_n, p1, p2, p3 = brute_row(n)
        rough = spf > z
        c1 += p1
        c2 += p2
        c3 += p3
        c_rst += rough and tau_n <= threshold
        c_rough += rough
        c_excess += tau_n > threshold
    return z, c1, c2, c3, c_rst, c_rough, c_excess


# the census lifts tau of each odd m to n = 2^a·m <= x: x around powers of two
# (x = 15 lies below the census's domain), and, with blocks of 997 odd n, x
# whose x >> a for a = 0, 1, 2 straddles a block end b = 3 + 1994j
POWER_OF_TWO_XS = sorted({x for k in range(4, 15) for x in (2**k - 1, 2**k, 2**k + 1, 3 * 2**k)} - {15})
BLOCK_END_XS = sorted({(b << a) + d for b in (1997, 3991, 9973) for a in (0, 1, 2) for d in (-2, -1, 0, 1)})


class TestRunChainCensus:
    def test_witnessless_count_at_thirty(self):
        record = run_chain_census(30)
        assert record.count_p1 == 10
        witnessless = [n for n in range(3, 31) if naive_witness(n) is None]
        assert witnessless == [3, 5, 7, 11, 13, 17, 19, 23, 25, 29]
        assert record.count_p3 <= record.count_p1

    def test_chain_ordering(self):
        for x in (16, 30, 100, 1000, 10**4):
            r = run_chain_census(x)
            assert (
                r.count_rough_small_tau <= r.count_p3 <= r.count_p2 <= r.count_p1
            )

    def test_per_n_chain_check(self, monkeypatch, capsys):
        # a p2 that drops the prime 2003, in the second block of 997 odd n, breaks p3 ⊆ p2 there
        monkeypatch.setattr(numtheory, "_BLOCK", 997)
        chain_tests = census._chain_tests

        def drops_2003(spf, tau_n, tau_n2):
            p2, p3 = chain_tests(spf, tau_n, tau_n2)
            return p2 & (spf != 2003), p3

        monkeypatch.setattr(census, "_chain_tests", drops_2003)
        with pytest.raises(InternalConsistencyError, match="^predicate chain violated at n=2003$"):
            run_chain_census(10000)
        assert main(["census", "--x", "10000"]) == 3
        assert capsys.readouterr() == (
            "",
            "internal consistency error: predicate chain violated at n=2003\n",
        )

    @pytest.mark.parametrize("x, block", [
        *(pytest.param(x, numtheory._BLOCK, id=str(x)) for x in (30, 200, 1000, 2500)),
        *(pytest.param(x, numtheory._BLOCK, id=f"power-of-two-{x}") for x in POWER_OF_TWO_XS),
        *(pytest.param(x, 997, id=f"block-end-{x}") for x in BLOCK_END_XS),
    ])
    def test_every_field_matches_brute_force(self, x, block, monkeypatch):
        monkeypatch.setattr(numtheory, "_BLOCK", block)
        z, c1, c2, c3, c_rst, c_rough, c_excess = brute_census_counts(x)
        r = run_chain_census(x)
        assert r.z == z
        assert (r.count_p1, r.count_p2, r.count_p3) == (c1, c2, c3)
        assert r.count_rough_small_tau == c_rst
        assert r.count_rough == c_rough
        assert r.count_excess_tau == census_excess_tau(x) == c_excess

    def test_reference_fields(self):
        r = run_chain_census(1000)
        assert r.euler_gamma == pytest.approx(0.577215664901532, abs=1e-12)
        assert r.theorem_rhs == pytest.approx(
            math.exp(-EULER_GAMMA) / 2 * 1000 / math.log(math.log(1000)), rel=1e-12
        )
        assert r.mertens_rhs == pytest.approx(
            math.exp(-EULER_GAMMA) * 1000 / math.log(r.z), rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            run_chain_census(15)

    def test_chain_to_one_million(self):
        r = run_chain_census(10**6)
        assert r.count_rough_small_tau <= r.count_p3 <= r.count_p2 <= r.count_p1
        assert (r.z, r.count_p1, r.count_p2, r.count_p3) == (1315, 217293, 197074, 171946)
        assert r.count_rough_small_tau == r.count_rough == 78284
        assert r.count_excess_tau == 60540
        # e^-gamma * 1e6 / ln z to three significant digits
        assert r.mertens_rhs == pytest.approx(7.82e4, rel=5e-3)

    def test_count_rough_equals_lucys_sieve(self):
        # the block pass counts spf > z over [3, x]; Lucy's sieve covers [1, x],
        # and 2 is never z-rough, since x >= 16 gives z >= 7.  z exceeds
        # isqrt(x) up to x = 2e6 and not from about 3e6 on, so both of
        # rough_count's branches are the reference
        xs = [*range(16, 401), 3 * 10**4, 25 * 10**4, 10**6, 4 * 10**6]
        assert {compute_z(x) > math.isqrt(x) for x in xs} == {True, False}
        mismatched = [x for x in xs if run_chain_census(x).count_rough != rough_count(x, compute_z(x)) - 1]
        assert not mismatched

    def test_record_at_two_million(self):
        r = run_chain_census(2 * 10**6)
        assert (r.z, r.count_p1, r.count_p2, r.count_p3) == (1505, 429380, 389674, 338190)
        assert r.count_rough_small_tau == r.count_rough == 148694
        assert r.count_excess_tau == 136162


class TestEvenN:
    """The census sieves odd n only: every even n fails p1, p2, p3 and roughness."""

    def test_no_even_n_satisfies_a_predicate(self):
        evens = range(4, 2 * 10**4 + 1, 2)
        reports = map(witness_report, evens)
        assert not [r.n for r in reports if r.p1 or r.p2 or r.p3]
        assert not [n for n in evens if any(brute_predicates(n))]
        # naive_predicates divides by every d <= n, so it takes the even n to 2000 only
        assert not [n for n in range(4, 2001, 2) if any(naive_predicates(n))]

    def test_no_even_n_is_rough(self):
        # spf = 2 < 7 <= z; compute_z is increasing in x, so x = 16, the least census x, bounds it
        assert compute_z(16) == 7
        assert all(compute_z(x) >= 7 for x in range(16, 10**4))


class TestMultiplesOfThree:
    """Of the n divisible by 3, only n = 3 is in p1, and none is in p2, p3 or the z-rough set.

    3 | n with n > 3 has tau(n²) >= 5 >= 3 + ceil(3 / 2a), so n²/3 is a
    witness; n = 3 has tau(9) = 3 < 5.  p2 needs tau(n²) < spf(n) <= 3, and
    spf(n) <= 3 < 7 <= z (``TestEvenN``) keeps every such n from being z-rough.
    """

    def test_only_three_satisfies_a_predicate(self):
        threes = range(3, 2 * 10**4 + 1, 3)
        reports = [witness_report(n) for n in threes]
        assert [r.n for r in reports if r.p1] == [3]
        assert not [r.n for r in reports if r.p2 or r.p3]
        brute = [brute_predicates(n) for n in threes]
        assert [n for n, (p1, _, _) in zip(threes, brute) if p1] == [3]
        assert not [n for n, (_, p2, p3) in zip(threes, brute) if p2 or p3]


# the two least primes of the divisor sieve's indexed tier
P, Q = [p for p in numtheory._primes_upto(100) if p >= numtheory._STRIDED_BELOW][:2]


def around(n, width=100):
    return n - width, n + width


# the largest hi whose divisor-sieve rows are int32: their largest value is
# need <= _prime_bound(hi - 1, 1) = hi + (hi - 2) // 2, below 2**31 up to here
HI32 = 1431655765


class TestBlockedPass:
    """The block arrays and predicates against the per-n reference, across block edges."""

    LIMIT = 3 * 10**4

    @pytest.fixture(scope="class")
    def reference(self):
        rows = []
        for n in range(3, self.LIMIT + 1, 2):
            rep = witness_report(n)
            rows.append((naive_spf(n), tau(n), tau_of_square(n), rep.p1, rep.p2, rep.p3))
        return rows

    @pytest.mark.parametrize("block", [997, 4099, numtheory._BLOCK])
    def test_every_n_matches_witness_report(self, reference, monkeypatch, block):
        monkeypatch.setattr(numtheory, "_BLOCK", block)
        rows = []
        for start, spf, tau_n, tau_n2, need in numtheory._divisor_blocks(3, self.LIMIT + 1):
            assert start == 3 + 2 * len(rows)
            p1, p2, p3 = _block_predicates(spf, tau_n, tau_n2, need)
            rows.extend(zip(spf.tolist(), tau_n.tolist(), tau_n2.tolist(),
                            p1.tolist(), p2.tolist(), p3.tolist()))
        assert len(rows) == len(reference)
        mismatched = [n for n, got, want in zip(range(3, self.LIMIT + 1, 2), rows, reference) if got != want]
        assert not mismatched

    def test_need_is_the_least_prime_bound(self):
        # p + ceil(p / 2a) minimised over n's primes, from the naive factorisation
        want = [
            min(p + -(-p // (2 * a)) for p, a in naive_factorization(n))
            for n in range(3, self.LIMIT + 1, 2)
        ]
        got = []
        for _, _, _, _, need in numtheory._divisor_blocks(3, self.LIMIT + 1):
            got.extend(need.tolist())
        assert got == want

    def test_need_takes_a_larger_prime_of_higher_exponent(self):
        # 23's bound 23 + ceil(23/8) = 26 is below spf 19's 19 + ceil(19/2) = 29,
        # and tau(n²) = 3·9 = 27 lies between them
        n = 19 * 23**4
        [(_, spf, tau_n, tau_n2, need)] = numtheory._divisor_blocks(n, n + 1)
        assert (spf[0], tau_n2[0], need[0]) == (19, 27, 26)
        # 31's bound 31 + ceil(31/8) = 35 is below 29's 29 + ceil(29/4) = 37,
        # though 29 is both spf and the first prime of exponent >= 2
        n = 29**2 * 31**4
        [(_, _, _, _, need)] = numtheory._divisor_blocks(n, n + 1)
        assert need[0] == 35

    def test_p1_finds_a_witness_beyond_d_max(self):
        # the only n <= 10^7 that p2's test at d_max = n²/19 does not settle:
        # tau(d_max) = 18 < 19, but d = n²/23 has tau 24 >= 23
        n = 19 * 23**4
        [(_, spf, tau_n, tau_n2, need)] = numtheory._divisor_blocks(n, n + 1)
        p1, p2, _ = _block_predicates(spf, tau_n, tau_n2, need)
        assert not p2[0] and not p1[0]
        assert numtheory._witnesses(n, _factorize(n)) == (n * n // 23,)
        assert tau(n * n // 23) == 24

    def test_census_independent_of_block_size(self, monkeypatch):
        base = run_chain_census(10**5)
        for block in (997, 4099):
            monkeypatch.setattr(numtheory, "_BLOCK", block)
            assert run_chain_census(10**5) == base

    @pytest.mark.parametrize("lo, hi", [
        pytest.param(3, 3 + 2 * numtheory._BLOCK, id="first-block"),
        pytest.param(P - 1, P * P + 2, id="cutoff-prime-and-square"),
        pytest.param(3, numtheory._STRIDED_BELOW**2, id="no-indexed-tier"),
        pytest.param(3**2 * P**3, 3**2 * P**3 + 1, id="one-integer"),
        # q * p² with q < p both indexed: spf is q, and the exponent 2 is p's
        pytest.param(*around(101 * 9949**2), id="101*9949^2"),
        pytest.param(*around(1009 * 3137**2), id="1009*3137^2"),
        # two indexed squares at one n repeat an index in the p² pass
        pytest.param(*around(P**3 * Q**2), id="P^3*Q^2"),
        pytest.param(*around(97**2 * 1031**2), id="97^2*1031^2"),
        # the last window of int32 rows, whose prime 1431655751 has need 2**31 - 21,
        # and the first past it
        pytest.param(HI32 - 200, HI32, id="largest-int32-hi"),
        pytest.param(HI32 - 199, HI32 + 1, id="first-int64-hi"),
    ])
    def test_block_arrays_match_the_factorisation(self, lo, hi):
        [(start, *arrays)] = numtheory._divisor_blocks(lo, hi)  # each range fits in one block
        got = list(zip(*(a.tolist() for a in arrays)))
        odd = range(lo | 1, hi, 2)
        want = divisor_block_oracle(odd)
        assert start == odd[0] and len(got) == len(odd)
        assert {a.dtype.name for a in arrays} == {"int32" if hi <= HI32 else "int64"}
        assert [n for n, g, w in zip(odd, got, want) if g != w] == []

    @pytest.mark.parametrize("lo, hi, dtype", [
        pytest.param(3, 250_001, "int32", id="int32-rows"),
        pytest.param(10**12 + 7, 10**12 + 2006, "int64", id="int64-rows"),
    ])
    def test_ufunc_at_takes_the_rows_dtype(self, monkeypatch, lo, hi, dtype):
        # a Python int or a wider operand gives the same arrays, but takes ufunc.at off
        # numpy's fast path (the census ran about 3x slower), so only the dtypes show it
        seen = []  # (ufunc, target dtype, value dtype or type) per ufunc.at call

        class Recording:
            def __init__(self, ufunc):
                self.ufunc = ufunc

            def __call__(self, *args, **kwargs):
                return self.ufunc(*args, **kwargs)

            def __getattr__(self, name):
                return getattr(self.ufunc, name)

            def at(self, a, indices, b):
                value = b.dtype.name if isinstance(b, (np.ndarray, np.generic)) else type(b).__name__
                seen.append((self.ufunc.__name__, a.dtype.name, value))
                return self.ufunc.at(a, indices, b)

        # _divisor_blocks, _Multiples and _prime_bound look these up on numpy at call time
        for name in ("minimum", "add", "multiply", "subtract"):
            monkeypatch.setattr(np, name, Recording(getattr(np, name)))
        for _ in numtheory._divisor_blocks(lo, hi):
            pass
        assert {name for name, _, _ in seen} == {"minimum", "add", "multiply", "subtract"}
        assert {(target, value) for _, target, value in seen} == {(dtype, dtype)}

    def test_generators_share_no_workspace(self, monkeypatch):
        # zip advances both generators before either block is read, so a
        # workspace they shared would hold only the second block's rows
        monkeypatch.setattr(numtheory, "_BLOCK", 997)
        # 3 * 997 + 1 odd n each, so the last block is one integer
        ranges = [(3, 3 + 6 * 997 + 1), (10**6 + 1, 10**6 + 6 * 997 + 2)]

        def rows(blocks):
            return [(start, *(a.tolist() for a in arrays)) for start, *arrays in blocks]

        alone = [rows(numtheory._divisor_blocks(lo, hi)) for lo, hi in ranges]
        assert [[len(spf) for _, spf, *_ in r] for r in alone] == [[997, 997, 997, 1]] * 2
        lockstep = [rows(pair) for pair in zip(*(numtheory._divisor_blocks(lo, hi) for lo, hi in ranges))]
        assert [list(r) for r in zip(*lockstep)] == alone

    def test_census_independent_of_tier_cutoff(self, monkeypatch):
        # every prime indexed, then every prime strided
        x = 10**5
        base = run_chain_census(x)
        for cutoff in (2, math.isqrt(x) + 1):
            monkeypatch.setattr(numtheory, "_STRIDED_BELOW", cutoff)
            assert run_chain_census(x) == base


class TestTheoremReport:
    def test_report_reports_and_never_asserts(self):
        rep = theorem_report(10**4)
        assert rep.record.x == 10**4
        assert rep.product_reference == pytest.approx(
            10**4 * rep.mertens_density, rel=1e-12
        )
        assert rep.rough_to_product_ratio == pytest.approx(
            rep.record.count_rough / rep.product_reference, rel=1e-12
        )
        # the o(1) caveat is part of the report, and no field claims the
        # theorem inequality holds
        assert any("never asserted" in note for note in rep.notes)
        assert "passes" not in json.dumps(rep.as_dict())

    def test_structured_mirror(self):
        rep = theorem_report(100)
        d = rep.as_dict()
        assert set(d) >= set(CENSUS_CSV_HEADER.split(","))
        assert isinstance(d["notes"], list) and d["notes"]


class TestCsvJson:
    def test_header_exact(self):
        assert CENSUS_CSV_HEADER == (
            "x,z,count_p1,count_p2,count_p3,count_rough_small_tau,"
            "count_rough,count_excess_tau,theorem_rhs,mertens_rhs"
        )

    def test_row_layout(self):
        r = run_chain_census(30)
        row = census_csv_row(r)
        fields = row.split(",")
        assert len(fields) == 10
        assert fields[0] == "30" and fields[2] == "10"
        # floats carry six significant digits
        assert fields[8] == f"{r.theorem_rhs:.6g}"

    def test_json_mirror(self):
        r = run_chain_census(30)
        d = census_json_dict(r)
        assert list(d)[:-1] == CENSUS_CSV_HEADER.split(",")
        assert d["count_p1"] == 10
        assert isinstance(d["notes"], list)
        json.dumps(d)  # must be serializable


class TestLoadBfile:
    def test_minimal(self):
        s = load_bfile(io.StringIO("3 2\n4 4\n"))
        assert s.offset == 3 and s.values == {3: 2, 4: 4}

    def test_comments_and_blanks_skipped(self):
        s = load_bfile(io.StringIO("# comment\n\n3 2\n"))
        assert s.values == {3: 2}

    def test_byte_stream(self):
        s = load_bfile(io.BytesIO(b"# c\n3 2\n4 4\n5 4\n"))
        assert s.last_index == 5

    def test_non_monotone_rejected(self):
        with pytest.raises(BFileParseError, match="non-monotone"):
            load_bfile(io.StringIO("4 4\n3 2\n"))

    def test_gap_rejected(self):
        with pytest.raises(BFileParseError, match="non-contiguous"):
            load_bfile(io.StringIO("3 2\n5 4\n"))

    def test_non_integer_rejected(self):
        with pytest.raises(BFileParseError, match="line 2"):
            load_bfile(io.StringIO("3 2\n4 four\n"))

    def test_malformed_line_rejected(self):
        with pytest.raises(BFileParseError, match="line 1"):
            load_bfile(io.StringIO("3 2 9\n"))

    def test_negative_value_rejected(self):
        with pytest.raises(BFileParseError):
            load_bfile(io.StringIO("3 -1\n"))

    def test_empty_rejected(self):
        with pytest.raises(BFileParseError):
            load_bfile(io.StringIO("# only comments\n"))

    def test_shipped_snapshot(self, bfile_path):
        s = load_bfile(bfile_path)
        assert s.offset == 3 and s.last_index == 20
        assert s[6] == 5
        assert all(v > 0 for v in s.values.values())

    @given(st.integers(0, 50), st.lists(st.integers(0, 100), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_write_read_round_trip(self, offset, vals):
        text = "".join(f"{offset + i} {v}\n" for i, v in enumerate(vals))
        s = load_bfile(io.StringIO(text))
        assert s.offset == offset
        assert [s[offset + i] for i in range(len(vals))] == vals


class TestCompareOeis:
    def test_six_alone(self, bfile_path):
        series = load_bfile(bfile_path)
        out = compare_oeis(series, 6, 6)
        assert out.ok and out.mismatches == ()

    def test_small_range_clean(self, bfile_path):
        series = load_bfile(bfile_path)
        out = compare_oeis(series, 3, 8)
        assert out.mismatches == () and out.budget_exceeded == ()

    def test_tampered_value_detected(self, bfile_path):
        series = load_bfile(bfile_path)
        tampered = OeisSeries(offset=series.offset, values={**series.values, 6: 4})
        out = compare_oeis(tampered, 3, 8)
        assert (6, 5, 4) in out.mismatches

    def test_budget_exceeded_distinct_from_mismatch(self, bfile_path):
        series = load_bfile(bfile_path)
        out = compare_oeis(series, 8, 8, node_budget=3)
        assert out.budget_exceeded == (8,)
        assert out.mismatches == ()
        assert not out.ok

    def test_range_validation(self, bfile_path):
        series = load_bfile(bfile_path)
        with pytest.raises(ValueError):
            compare_oeis(series, 2, 6)
        with pytest.raises(ValueError):
            compare_oeis(series, 3, 21)
        with pytest.raises(ValueError):
            compare_oeis(series, 8, 5)
