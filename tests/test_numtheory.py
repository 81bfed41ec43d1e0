import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mondrian import numtheory
from mondrian.errors import UsageError
from mondrian.numtheory import (
    build_factor_table,
    census_excess_tau,
    compute_z,
    divisors,
    is_rough,
    mertens_product,
    rough_count,
    tau,
    tau_of_square,
    tau_summatory,
    witness_report,
    ROUGH_SAFE_LIMIT,
    _factorize,
    _prime_bound,
    _primes_upto,
    _tau_threshold,
    _witnesses,
)
from oracles import (
    brute_predicates,
    brute_witnesses,
    lucy_rough_count,
    naive_divisors,
    naive_factorization,
    naive_is_rough,
    naive_predicates,
    naive_spf,
    naive_tau,
    naive_witness,
    sieve_rough_count,
    sieve_rough_counts,
)

ROUGH_BOUNDARY_PRIMES = (2, 3, 5, 7, 31, 97)
# x = p⁴ + d, where b = isqrt(isqrt x), the end of _lucy's loop, changes
ROUGH_FOURTH_POWER_XS = sorted({p**4 + d for p in (2, 3, 5, 7, 11, 13) for d in (-1, 0, 1)})
ROUGH_BOUNDARY_XS = sorted(
    {1, 2, 3, 4}
    | {p * p + d for p in ROUGH_BOUNDARY_PRIMES for d in (-1, 0, 1)}
    | set(ROUGH_FOURTH_POWER_XS)
)


def split_zs(x: int) -> list[int]:
    """z on both sides of b = isqrt(isqrt x), where _lucy's loop ends, and of r = isqrt x."""
    r = math.isqrt(x)
    b = math.isqrt(r)
    return sorted({max(b - 1, 0), b, b + 1, r, r + 1})


class TestFactorTable:
    def test_small_table_matches_definition(self):
        t = build_factor_table(10)
        expected = {2: 2, 3: 3, 4: 2, 5: 5, 6: 2, 7: 7, 8: 2, 9: 3, 10: 2}
        assert {m: int(t.spf[m]) for m in range(2, 11)} == expected

    def test_minimal_table(self):
        t = build_factor_table(2)
        assert int(t.spf[2]) == 2

    def test_limit_below_two_rejected(self):
        with pytest.raises(ValueError):
            build_factor_table(1)

    def test_invariants_against_trial_division(self):
        table = build_factor_table(3000)
        for m in range(2, 3000):
            p = int(table.spf[m])
            assert p == naive_spf(m)
            assert m % p == 0

    def test_spf_fixed_point_iff_prime(self):
        table = build_factor_table(2000)
        for m in range(2, 2000):
            is_prime = naive_spf(m) == m
            assert (int(table.spf[m]) == m) == is_prime


class TestFactorize:
    def test_matches_smallest_prime_factor_division(self):
        for n in range(1, 10**4 + 1):
            assert _factorize(n) == naive_factorization(n), n

    @pytest.mark.parametrize("p", [999983, 1000003, 1099511627689, 1099511627791])
    def test_large_primes(self, p):
        # the primes on either side of 10**6 and of 2**40
        assert _factorize(p) == [(p, 1)]

    @pytest.mark.parametrize("p", [997, 1009, 1048573, 1048583])
    def test_prime_squares(self, p):
        # the squares on either side of 10**6 and of 2**40
        assert _factorize(p * p) == [(p, 2)]

    def test_the_residue_witness_beyond_d_max(self):
        assert _factorize(19 * 23**4) == [(19, 1), (23, 4)]


class TestTau:
    def test_examples(self):
        assert tau(1) == 1
        assert tau(12) == len(naive_divisors(12)) == 6
        assert tau(36) == len(naive_divisors(36)) == 9

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            tau(0)

    @given(st.integers(min_value=1, max_value=5000))
    def test_matches_enumeration(self, n):
        assert tau(n) == naive_tau(n)


class TestTauOfSquare:
    def test_examples(self):
        assert tau_of_square(1) == 1
        assert tau_of_square(6) == naive_tau(36) == 9
        assert tau_of_square(12) == naive_tau(144) == 15

    @given(st.integers(min_value=1, max_value=900))
    def test_matches_direct_enumeration(self, n):
        assert tau_of_square(n) == naive_tau(n * n)

    def test_square_bound_property(self):
        for n in range(1, 10**4 + 1):
            assert tau_of_square(n) <= tau(n) ** 2


class TestDivisors:
    def test_examples(self):
        assert divisors(1) == [1]
        assert divisors(7) == [1, 7]
        assert divisors(36) == [1, 2, 3, 4, 6, 9, 12, 18, 36]

    @given(st.integers(min_value=1, max_value=3000))
    def test_matches_enumeration_and_tau(self, n):
        ds = divisors(n)
        assert ds == naive_divisors(n)
        assert len(ds) == tau(n)


class TestWitnessReport:
    def test_witnessless_small_prime(self):
        r = witness_report(3)
        assert r.witness is None and r.p1

    def test_smallest_witness_for_six(self):
        r = witness_report(6)
        assert r.witness == 12
        assert not r.p1
        # every smaller proper divisor of 36 fails the inequality
        for d in [1, 2, 3, 4, 6, 9]:
            assert d * naive_tau(d) < 36

    def test_prime_power_witnessless(self):
        r = witness_report(25)
        assert r.witness is None
        # the maximum of d*tau(d) over proper divisors of 625 is 125*4 = 500
        assert max(d * naive_tau(d) for d in [1, 5, 25, 125]) == 500

    def test_all_three_predicates_for_eleven(self):
        r = witness_report(11)
        assert r.p1 and r.p2 and r.p3

    def test_against_naive_enumeration(self):
        for n in range(3, 260):
            r = witness_report(n)
            assert r.witness == naive_witness(n), n
            assert (r.p1, r.p2, r.p3) == naive_predicates(n) == brute_predicates(n), n

    def test_witness_is_proper_divisor_with_inequality(self):
        for n in range(3, 400):
            r = witness_report(n)
            if r.witness is not None:
                d = r.witness
                assert (n * n) % d == 0 and d != n * n
                assert d * naive_tau(d) >= n * n

    @given(st.integers(min_value=3, max_value=10**5))
    @settings(max_examples=300)
    def test_reduction_chain(self, n):
        r = witness_report(n)
        if r.p3:
            assert r.p2
        if r.p2:
            assert r.p1
        assert (r.witness is None) == r.p1

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            witness_report(2)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            witness_report(10**6 + 1)


class TestWitnesses:
    """``_witnesses`` searches co-divisors; the oracle enumerates all of n²'s divisors."""

    def test_matches_brute_force_to_3000(self):
        for n in range(2, 3001):
            want = brute_witnesses(n)
            assert list(_witnesses(n, _factorize(n))) == want, n
            if n >= 3:  # witness_report's domain
                r = witness_report(n)
                assert list(r.witnesses) == want, n
                assert (r.witness, r.p1) == (want[0] if want else None, not want), n

    def test_equality_cases(self):
        # d*tau(d) == n² exactly: the co-divisor m equals tau(d)
        assert 36 in _witnesses(18, _factorize(18)) and tau(36) == 9
        assert 128 in _witnesses(32, _factorize(32)) and tau(128) == 8

    @pytest.mark.parametrize(
        "n, count",
        [
            (19 * 23**4, 1),  # the one residue n below 10**7 with a witness
            (720720, 202),
            (5040**2, 165),
            (2**10 * 3**6 * 5**3, 85),
            (9699690, 211),
            (2**19, 5),
            (2 * 997**2, 2),  # 997**4 drops the prime 2 from n² altogether
        ],
    )
    def test_structured_n(self, n, count):
        got = list(_witnesses(n, _factorize(n)))
        assert got == brute_witnesses(n)
        assert len(got) == count


class TestPrimeWitnessLemma:
    """n has a witness iff n²/p is one for some prime p | n, the census's p1 test."""

    def test_a_witness_iff_a_prime_co_divisor_is_one(self):
        # n²/p has tau(n²)·2a/(2a+1) divisors for p^a || n, and is a witness iff that is >= p
        mismatched = []
        for n in range(3, 2 * 10**4 + 1):
            fac = naive_factorization(n)
            tau_n2 = math.prod(2 * a + 1 for _, a in fac)
            by_prime = any(tau_n2 * 2 * a >= p * (2 * a + 1) for p, a in fac)
            if bool(brute_witnesses(n)) != by_prime:
                mismatched.append(n)
        assert not mismatched

    def test_prime_bound_is_the_least_witnessing_tau(self):
        for p in _primes_upto(200):
            for a in range(1, 9):
                least = -(-p * (2 * a + 1) // (2 * a))  # ceil(p(2a+1) / 2a)
                assert _prime_bound(p, a) == least, (p, a)


class TestIsRough:
    def test_examples(self):
        assert is_rough(1, 1000)
        assert is_rough(143, 10)
        assert not is_rough(143, 11)

    @given(st.integers(min_value=1, max_value=4000), st.sampled_from([1, 2, 5, 10, 100]))
    def test_matches_divisor_definition(self, n, z):
        assert is_rough(n, z) == naive_is_rough(n, z)

    def test_square_equivalence(self):
        # n z-rough iff n² z-rough
        for n in range(1, 1000):
            for z in (2, 10, 100):
                assert is_rough(n, z) == is_rough(n * n, z)


class TestRoughCount:
    def test_hundred_ten(self):
        # 1 plus the 21 primes in (10, 100]; no composite <= 100 has spf > 10
        assert rough_count(100, 10) == 22

    def test_everything_is_one_rough(self):
        assert rough_count(10, 1) == 10

    def test_only_one_survives(self):
        assert rough_count(30, 30) == 1

    @given(
        st.integers(min_value=1, max_value=2000),
        st.sampled_from([1, 2, 3, 7, 20, 50]) | st.integers(min_value=0, max_value=3000),
    )
    @settings(max_examples=60)
    def test_matches_brute_filter(self, x, z):
        assert rough_count(x, z) == sum(1 for n in range(1, x + 1) if naive_is_rough(n, z))

    @pytest.mark.parametrize("x", ROUGH_BOUNDARY_XS)
    def test_sieve_boundaries(self, x):
        # x and z on both sides of every p² and of sqrt(x), where the update
        # ranges, the small/large split and the pi(z) branch change
        r = math.isqrt(x)
        zs = {0, 1, r, r + 1, x - 1, x, x + 1, 10 * x}
        zs |= {q for p in ROUGH_BOUNDARY_PRIMES for q in (p - 1, p)}
        for z in sorted(zs):
            assert rough_count(x, z) == sieve_rough_count(x, z), (x, z)

    def test_every_small_x_and_z(self):
        # covers x < 16, where 2 > x^¼ and prime 2 is still applied in closed
        # form, z in {0, 1}, and both parities of isqrt x at every z
        for z in range(61):
            want = sieve_rough_counts(3000, z)
            got = [rough_count(x, z) for x in range(1, 3001)]
            assert got == want[1:], z

    def test_prime_count_anchors(self, monkeypatch):
        # 1 + pi(x) - pi(sqrt x), pi(10**k) from OEIS A006880
        for k, pi in enumerate((78498, 664579, 5761455, 50847534, 455052511), start=6):
            x = 10**k
            assert rough_count(x, math.isqrt(x)) == 1 + pi - len(_primes_upto(math.isqrt(x)))
        # the same from pi(2**30) and pi(2**31) (OEIS A007053), across the bound
        # x + 1 < 2**31 of _lucy's int32 arrays; 2**31 - 1 is prime
        sieve_dtype, dtypes = numtheory._sieve_dtype, []

        def recording(top):
            dtypes.append(sieve_dtype(top))
            return dtypes[-1]

        monkeypatch.setattr(numtheory, "_sieve_dtype", recording)
        for x, count, dtype in (
            (2**30, 54396517, np.int32),
            (2**31 - 2, 105092773, np.int32),
            (2**31 - 1, 105092774, np.int64),
        ):
            dtypes.clear()
            assert rough_count(x, math.isqrt(x)) == count, x
            assert dtypes == [dtype], x

    def test_rough_workload_references(self):
        assert rough_count(10**9, 50) == 138704065
        assert rough_count(10**9, 4852) == 64709133

    def test_safe_limit(self, monkeypatch):
        # rejected before the sieve allocates anything
        monkeypatch.setattr(numtheory, "_lucy", None)
        for z in (0, 50, ROUGH_SAFE_LIMIT):
            with pytest.raises(ValueError, match="limit"):
                rough_count(ROUGH_SAFE_LIMIT + 1, z)

    def test_z_at_least_x_sieves_nothing(self, monkeypatch):
        # only 1 is z-rough, decided before any sieve starts
        monkeypatch.setattr(numtheory, "_lucy", None)
        for x, z in ((1, 1), (2, 2), (30, 30), (10**9, 10**9), (10**12, 10**13)):
            assert rough_count(x, z) == 1, (x, z)

    def test_split_matches_the_full_loop(self):
        # the loop up to x^¼ and the prime-pair pass past it, against Lucy's
        # sieve applying every prime in its loop
        rng = random.Random(20260418)
        for _ in range(24):
            x = int(10 ** rng.uniform(0, 10))
            r = math.isqrt(x)
            zs = split_zs(x) + [rng.randrange(0, r + 2), rng.randrange(0, 2 * x + 2)]
            for z in zs:
                assert rough_count(x, z) == lucy_rough_count(x, z), (x, z)

    @pytest.mark.parametrize("x", ROUGH_FOURTH_POWER_XS)
    def test_split_at_fourth_powers(self, x):
        for z in split_zs(x):
            assert rough_count(x, z) == lucy_rough_count(x, z), (x, z)

    def test_pair_pass(self):
        # (10**7, 3162) alone has 3,629 pairs of primes past 56; at (10**8, 101)
        # the one prime past 10**2, 101, has no pair
        for x, z in ((10**6, 1000), (10**7, 3162), (2 * 10**5, 10**5), (10**8, 101)):
            assert rough_count(x, z) == lucy_rough_count(x, z), (x, z)

    def test_one_sieve(self, monkeypatch):
        # Lucy's table S says which numbers are prime, so no second sieve runs;
        # at x = 10**8, b = isqrt(isqrt x) = 100 ends the loop and sqrt x = 10**4
        monkeypatch.setattr(numtheory, "_primes_upto", None)
        cases = [(10**9, 50), (10**9, 4852), (10**6, 1000), (10**8, 101), (10**8, 99),
                 (10**8, 100), (10**8, 0), (10**8, 1), (10**8, 10**4 + 1), (10**6, 10**5)]
        for x, z in cases:
            assert rough_count(x, z) == lucy_rough_count(x, z), (x, z)

    def test_ten_thousand_against_trial_division(self):
        for z in (7, 50, 211):
            brute = 1 + sum(1 for n in range(2, 10**4 + 1) if naive_spf(n) > z)
            assert rough_count(10**4, z) == brute


class TestMertensProduct:
    def test_examples(self):
        assert mertens_product(1) == Fraction(1)
        assert mertens_product(2) == Fraction(1, 2)
        assert mertens_product(10) == Fraction(8, 35)

    def test_against_naive_primes(self):
        prod = Fraction(1)
        for p in range(2, 101):
            if naive_spf(p) == p:
                prod *= Fraction(p - 1, p)
        assert mertens_product(100) == prod


class TestComputeZ:
    def test_desk_scale_values(self):
        # frozen from the defining formula floor((g(x) ln x ln ln x)^2)
        assert compute_z(100) == 49
        assert compute_z(10**6) == 1315
        for x in (100, 10**6, 12345):
            expected = math.floor((_tau_threshold(x)) ** 2)
            assert compute_z(x) == expected

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            compute_z(math.exp(math.e))
        assert compute_z(math.exp(math.e) + 0.01) >= 0


class TestTauSummatory:
    def test_examples(self):
        assert tau_summatory(1) == 1
        assert tau_summatory(10) == 27
        assert tau_summatory(100) == sum(naive_tau(n) for n in range(1, 101))

    def test_matches_direct_summation_prefix(self):
        running = 0
        for x in range(1, 400):
            running += naive_tau(x)
            assert tau_summatory(x) == running

    def test_domain(self):
        with pytest.raises(ValueError):
            tau_summatory(0)


class TestCensusExcessTau:
    def test_desk_example(self):
        # threshold at x=10 is ~1.9204, so every n in 3..10 qualifies
        expected = sum(1 for n in range(3, 11) if naive_tau(n) > _tau_threshold(10))
        assert expected == 8
        assert census_excess_tau(10) == 8

    def test_census_limit(self, monkeypatch):
        # rejected before the divisor sieve starts
        monkeypatch.setattr(numtheory, "_primes_upto", None)
        with pytest.raises(UsageError, match="exceeds the census limit"):
            census_excess_tau(numtheory.CENSUS_SAFE_LIMIT + 1)

    def test_matches_direct_filter(self):
        for x in (50, 100, 500):
            threshold = _tau_threshold(x)
            expected = sum(1 for n in range(3, x + 1) if naive_tau(n) > threshold)
            assert census_excess_tau(x) == expected

    @given(st.integers(min_value=16, max_value=10**5))
    @settings(max_examples=30)
    def test_markov_bound(self, x):
        threshold = _tau_threshold(x)
        assert census_excess_tau(x) <= tau_summatory(x) / threshold
