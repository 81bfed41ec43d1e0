"""Divisor-function machinery behind the perfect-tiling filter and the censuses.

The load-bearing objects are factorisation by trial division, the witness
filter over proper divisors of n² (``witness_report``), a blocked divisor sieve
that gives the censuses spf, tau(n), tau(n²) and the least witness bound of
``_prime_bound`` in O(block) memory, and exact counting primitives: z-rough
integers by a floor-quotient sieve over the O(sqrt x) values x // k
(``rough_count``), and the divisor summatory function.
``FactorTable`` remains as a standalone spf table that no other function uses.
All arithmetic is exact integer arithmetic; the only floats are the analytic
reference quantities (thresholds, Mertens-type densities).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .errors import UsageError

__all__ = [
    "FactorTable",
    "WitnessReport",
    "build_factor_table",
    "tau",
    "tau_of_square",
    "divisors",
    "witness_report",
    "is_rough",
    "rough_count",
    "mertens_product",
    "compute_z",
    "tau_summatory",
    "census_excess_tau",
]

# upper end of witness_report's domain, and so of check_perfect's: past it a
# candidate tiling is a board of more than 10**12 cells, beyond the search
WITNESS_SAFE_LIMIT = 10**6

_E_TO_E = math.exp(math.e)

# rough_count keeps four int64 arrays of isqrt(x) + 1 entries, about 100 MB at
# this bound, where x // k stays far inside int64
ROUGH_SAFE_LIMIT = 10**13

# integers per divisor-sieve block.  ``_divisor_blocks`` allocates its workspace
# once per call: eight int64 arrays of _BLOCK + 1 entries (1 MiB), and for the
# indexed tier five arrays of one slot per possible multiple, ceil(_BLOCK / p)
# for each prime 8 < p <= isqrt(x): 1.2 slots per integer at x = 10**7 (150 KiB
# an array), growing as sum(1/p) + pi(isqrt x) / _BLOCK
_BLOCK = 1 << 14

# the divisor sieve's tier cutoff: primes below it take strided slices, the rest
# one indexed pass per block (the sweep in BENCH_census_batch.json chose it)
_STRIDED_BELOW = 8

_POW3 = 3 ** np.arange(16, dtype=np.int64)  # 3**k for k < 16: an int64 has at most 15 primes


@dataclass(frozen=True)
class FactorTable:
    """Smallest-prime-factor table for every integer in [2, limit].

    ``spf[m]`` is the smallest prime dividing m (and ``spf[p] == p`` exactly
    for primes).  Entries 0 and 1 are zero sentinels.  The array is marked
    read-only.  No other function here takes a table: they factor by trial
    division, and the censuses derive spf in their own block sieve.
    """

    limit: int
    spf: np.ndarray


def _primes_upto(m: int) -> list[int]:
    if m < 2:
        return []
    sieve = np.ones(m + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(m) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def build_factor_table(limit: int) -> FactorTable:
    """Sieve smallest prime factors up to ``limit`` (inclusive)."""
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    spf = np.zeros(limit + 1, dtype=np.uint32)
    for p in _primes_upto(math.isqrt(limit)):
        window = spf[p * p :: p]
        window[window == 0] = p
    # whatever is still unmarked is prime
    primes = np.flatnonzero(spf[2:] == 0) + 2
    spf[primes] = primes
    spf.setflags(write=False)
    return FactorTable(limit=limit, spf=spf)


def _check_range(n: int, minimum: int = 1) -> None:
    if n < minimum:
        raise ValueError(f"n must be >= {minimum}, got {n}")


def _factorize(n: int) -> list[tuple[int, int]]:
    """(prime, exponent) pairs of n in ascending prime order, by trial division; n >= 1."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def tau(n: int) -> int:
    """Number of positive divisors of n."""
    _check_range(n)
    result = 1
    for _, e in _factorize(n):
        result *= e + 1
    return result


def tau_of_square(n: int) -> int:
    """tau(n²) computed from n's own exponents, so only n is factorised."""
    _check_range(n)
    result = 1
    for _, e in _factorize(n):
        result *= 2 * e + 1
    return result


def _divisor_tau_pairs(factors: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """All (d, tau(d)) for d dividing the n of ``factors``, unsorted."""
    pairs = [(1, 1)]
    for p, e in factors:
        powers = [(p**k, k + 1) for k in range(e + 1)]
        pairs = [(d * q, td * tq) for d, td in pairs for q, tq in powers]
    return pairs


def divisors(n: int) -> list[int]:
    """Ascending list of all positive divisors of n."""
    _check_range(n)
    return sorted(d for d, _ in _divisor_tau_pairs(_factorize(n)))


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the proper-divisor filter for a single n.

    ``witnesses`` are the proper divisors d of n² with d·tau(d) >= n², in
    ascending order; ``witness`` is the first, or None when there is none
    (then ``p1`` is True).  ``p2`` and ``p3`` are the successively stronger
    reduction predicates d·tau(n²) < n² and d·tau(n)² < n², quantified over
    all proper divisors; p3 implies p2 implies p1.
    """

    n: int
    witnesses: tuple[int, ...]
    p2: bool
    p3: bool

    @property
    def witness(self) -> int | None:
        return self.witnesses[0] if self.witnesses else None

    @property
    def p1(self) -> bool:
        return not self.witnesses


def _witnesses(n: int, factors: list[tuple[int, int]]) -> tuple[int, ...]:
    """The proper divisors d of n² with d·tau(d) >= n², in ascending order.

    d is a witness iff tau(d) >= m for its co-divisor m = n²/d, and tau(d) <
    tau(n²) for proper d, so only 2 <= m < tau(n²) can qualify.  Taking p^k
    out of n² turns p's factor 2a + 1 of tau(n²) into 2a - k + 1.  The search
    runs depth first over n's ascending primes; m grows and tau(n²/m) shrinks
    along a branch, so a branch ends once m > tau(n²/m).
    """
    found = []

    def walk(i: int, m: int, t: int) -> None:
        for p, a in factors[i:]:
            i += 1
            if m * p > t:
                return  # every later prime is larger still
            mk, tk = m, t
            for f in range(2 * a, 0, -1):  # p's factor of tau(n²/mk) drops to f
                mk *= p
                tk = tk // (f + 1) * f
                if mk > tk:
                    break
                found.append(mk)
                walk(i, mk, tk)

    walk(0, 1, math.prod([2 * a + 1 for _, a in factors]))
    n2 = n * n
    return tuple(n2 // m for m in sorted(found, reverse=True))


def _prime_bound(p, a, out=None):
    """p + ceil(p / 2a): the least tau(n²) at which n²/p is a filter witness, for p^a || n.

    p's exponent drops from 2a in n² to 2a - 1 in n²/p, so tau(n²/p) =
    tau(n²)·2a/(2a + 1), and n²/p is a witness iff that is >= p.  These co-divisors decide the
    filter: if n²/m is a witness, so is n²/p for each prime p | m, because
    n²/m divides n²/p and tau(n²/p) >= tau(n²/m) >= m >= p.  So n has a
    witness iff tau(n²) >= _prime_bound(p, a) for some p^a exactly dividing
    n.  Works on ints and, elementwise, on numpy integer arrays, into
    ``out`` when given.
    """
    # p + 1 + (p - 1) // 2a, one ufunc at a time so that ``out`` holds each step
    bound = np.floor_divide(np.subtract(p, 1, out=out), 2 * a, out=out)
    return np.add(np.add(bound, p, out=out), 1, out=out)


def _chain_tests(p_min, tau_n, tau_n2):
    """(p2, p3) of n from spf(n), tau(n) and tau(n²).

    Both reductions are monotone in d, so only the largest proper divisor
    d_max = n²/p_min of n² matters, and d_max·T < n² iff T < p_min.  Works on
    ints and, elementwise, on numpy integer arrays.
    """
    return tau_n2 < p_min, tau_n * tau_n < p_min


def witness_report(n: int) -> WitnessReport:
    """Search the proper divisors of n² for every filter witness, in one walk.

    p1 holds iff the co-divisor walk ``_witnesses`` finds nothing; p2 and p3
    come from ``_chain_tests`` on tau(n) and tau(n²).  The census takes p1
    from ``_prime_bound`` instead, and this walk is its reference.
    """
    _check_range(n, minimum=3)
    if n > WITNESS_SAFE_LIMIT:
        raise UsageError(f"n={n} exceeds the witness_report domain limit {WITNESS_SAFE_LIMIT}")
    factors = _factorize(n)
    witnesses = _witnesses(n, factors)
    tau_n = tau_n2 = 1
    for _, e in factors:
        tau_n *= e + 1
        tau_n2 *= 2 * e + 1
    p2, p3 = _chain_tests(factors[0][0], tau_n, tau_n2)
    return WitnessReport(n=n, witnesses=witnesses, p2=p2, p3=p3)


def is_rough(n: int, z: int) -> bool:
    """True iff every divisor of n greater than 1 exceeds z (n=1 vacuously)."""
    _check_range(n)
    return n == 1 or _factorize(n)[0][0] > z


def _lucy(x: int, z: int) -> tuple[int, int]:
    """(S(x), k) after Lucy's floor-quotient sieve applies the k primes p <= min(z, isqrt x).

    S(v) counts the m in [2, v] that are prime or have every prime factor
    above the last prime applied; it starts at v - 1, and applying the j-th
    prime p (0-based) lowers S(v) by S(v // p) - j for every v >= p².  Only
    the floor quotients of x are kept: ``small[v]`` = S(v) for v <= r = isqrt x
    and ``large[k]`` = S(x // k) for k <= r.
    """
    r = math.isqrt(x)
    primes = _primes_upto(min(z, r))
    small = np.arange(-1, r, dtype=np.int64)
    quot = np.arange(r + 1, dtype=np.int64)
    quot[0] = 1
    np.floor_divide(x, quot, out=quot)  # quot[k] = x // k
    large = quot - 1
    buf = np.empty(r + 1, dtype=np.int64)  # scratch; each right-hand side is copied here first
    for j, p in enumerate(primes):
        kmax = min(r, x // (p * p))  # large[k] changes while x // k >= p²
        mid = min(kmax, r // p)
        # kp <= r: S(x // kp) is large[kp]
        np.subtract(large[p : p * mid + 1 : p], j, out=buf[:mid])
        np.subtract(large[1 : mid + 1], buf[:mid], out=large[1 : mid + 1])
        # kp > r: x // kp <= r, read from small
        tail = buf[: kmax - mid]
        np.floor_divide(quot[mid + 1 : kmax + 1], p, out=tail)
        # take reads each index before it writes that slot, so tail can be both
        np.take(small, tail, out=tail, mode="clip")
        np.subtract(tail, j, out=tail)
        np.subtract(large[mid + 1 : kmax + 1], tail, out=large[mid + 1 : kmax + 1])
        # p² <= v <= r: v // p = w for the p values v in [wp, wp + p)
        top = r // p
        if top >= p:
            small[p * top :] -= small[top] - j  # the last, possibly partial, run first
            np.subtract(small[p:top], j, out=buf[: top - p])
            runs = small[p * p : p * top].reshape(top - p, p)
            np.subtract(runs, buf[: top - p, None], out=runs)
    return int(large[1]), len(primes)


def rough_count(x: int, z: int) -> int:
    """Exact |{n <= x : n is z-rough}|, with 1 included, for 1 <= x <= ``ROUGH_SAFE_LIMIT``.

    This is Legendre's phi(x, pi(z)) by Lucy's floor-quotient sieve
    stopped at z: O(x^(3/4) / log x) time and O(sqrt x) memory.  For
    z >= isqrt(x) every prime up to sqrt x has been applied, so S(x) = pi(x)
    and the count is 1 + pi(x) - pi(min(z, x)).
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")
    if x > ROUGH_SAFE_LIMIT:
        raise UsageError(f"x={x} exceeds the rough_count limit {ROUGH_SAFE_LIMIT}")
    s, applied = _lucy(x, z)
    if z <= math.isqrt(x):
        return 1 + s - applied
    if z >= x:
        return 1
    return 1 + s - _lucy(z, z)[0]


def mertens_product(z: int) -> Fraction:
    """Exact prod_{p <= z} (1 - 1/p), the z-rough density in the x >> z regime."""
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")
    num = den = 1
    for p in _primes_upto(z):
        num *= p - 1
        den *= p
    return Fraction(num, den)


def _g(x: float) -> float:
    """Slowly growing threshold factor, clamped to stay >= 1 at desk scale."""
    return max(1.0, math.log(math.log(math.log(x))))


def _tau_threshold(x: float) -> float:
    """g(x) * ln(x) * ln(ln(x)), the cutoff separating excess-tau integers."""
    if x <= math.e:
        raise ValueError(f"x must exceed e, got {x}")
    return _g(x) * math.log(x) * math.log(math.log(x))


def compute_z(x: float) -> int:
    """Roughness bound z = floor((g(x) ln x ln ln x)²); requires x > e^e."""
    if x <= _E_TO_E:
        raise UsageError(f"x must exceed e^e ~ {_E_TO_E:.6f}, got {x}")
    return math.floor(_tau_threshold(x) ** 2)


def tau_summatory(x: int) -> int:
    """Exact sum of tau(n) for n <= x via the hyperbola identity, O(sqrt x)."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    r = math.isqrt(x)
    return 2 * sum(x // a for a in range(1, r + 1)) - r * r


class _Multiples:
    """Where the multiples of p**exponent fall in a block of at most ``width`` integers.

    p runs over ``primes``.  The slots are laid out once per call,
    ceil(width / p**exponent) for each p in the order of ``primes``, which is
    room for every multiple in any block.  ``index`` writes a block's indices
    into one reused buffer; a slot that falls past the block's end points at
    the spare entry ``size`` of the workspace, which the block's views hide.
    """

    def __init__(self, primes: np.ndarray, exponent: int, width: int):
        self.steps = primes**exponent
        count = -(-width // self.steps)
        self.ends = np.cumsum(count)  # the slots of the first k primes end at ends[k - 1]
        self.owner = np.repeat(np.arange(len(primes)), count)
        self.p = primes[self.owner]  # the prime and the step p**exponent of each slot
        self.step = self.steps[self.owner]
        self.offset = self.step * (np.arange(len(self.owner)) - (self.ends - count)[self.owner])
        self.first = np.empty_like(self.steps)
        self.idx = np.empty(len(self.owner), dtype=np.intp)

    def index(self, start: int, size: int, k: int) -> np.ndarray:
        """The index in [start, start + size), or ``size``, of each slot of the first k primes."""
        used = int(self.ends[k - 1]) if k else 0
        np.remainder(-start, self.steps, out=self.first)
        idx = self.idx[:used]
        np.take(self.first, self.owner[:used], out=idx)
        idx += self.offset[:used]
        return np.minimum(idx, size, out=idx)


class _BlockSieve:
    """The divisor sieve over blocks of at most ``width`` integers, on one workspace.

    Eight int64 arrays of width + 1 entries, the indexed tier's slots
    (``_Multiples``) and their buffers are allocated once; ``block`` writes
    every block into them with ``out=`` and in-place ufuncs.
    """

    def __init__(self, primes: list[int], width: int):
        self.primes = primes
        self.split = split = bisect_left(primes, _STRIDED_BELOW)
        large = np.array(primes[split:], dtype=np.int64)
        self.ones = _Multiples(large, 1, width)
        self.squares = _Multiples(large, 2, width)
        self.m, self.a = np.empty((2, len(self.squares.idx)), dtype=np.int64)
        # n, spf, tau(n), tau(n²), need, once, power and scratch; entry width is spare
        self.rows = np.empty((8, width + 1), dtype=np.int64)
        self.rows[0] = np.arange(width + 1)

    def block(self, start: int, size: int) -> tuple[np.ndarray, ...]:
        """(spf, tau(n), tau(n²), need) for each n in [start, start + size), views of the workspace.

        Needs 2 <= start and every prime up to isqrt(start + size - 1) in
        ``primes``.  A prime of exponent 1 multiplies tau(n) by 2 and tau(n²)
        by 3, so those are only counted, and the exponents a >= 2 are worked
        out on the multiples of p² alone.  The sieved prime powers multiply to
        n, or to n over one prime beyond the sieve; an n no prime crosses off
        is prime and keeps spf = n.

        The primes are sieved in two tiers.  Those of ``_STRIDED_BELOW`` and up
        have few multiples in a block, where a strided slice costs a numpy call
        per array and prime, so they go through one indexed pass over all their
        multiples, and again over those of their squares, with ``ufunc.at``
        wherever two primes may share an index; spf is the least of them
        (``minimum.at``).  This tier runs first: the small primes then take one
        strided slice per array, largest first, so their plain writes of spf
        land last and the smallest prime dividing n is the one that stays.

        ``need`` is the least p + ceil(p / 2a) over the p^a exactly dividing n:
        n has a filter witness iff tau(n²) >= need (``_prime_bound``).  Among
        the primes of exponent 1 the smallest gives the least bound, and a spf
        of exponent a >= 2 got its lower bound in the p² pass, so after the
        primes only spf's bound with a = 1 is still to be taken in.
        """
        n, spf, tau_n, tau_n2, need, once, power, scratch = self.rows
        n += start - int(n[0])
        np.copyto(spf, n)
        tau_n.fill(1)  # prod of a + 1 over the primes with a >= 2
        tau_n2.fill(1)  # prod of 2a + 1 over the same primes
        need.fill(np.iinfo(np.int64).max)
        once.fill(0)  # sieved primes dividing n exactly once
        power.fill(1)  # prod of the sieved prime powers p^a dividing n
        # large tier: every multiple of every large prime, then of its square
        used = bisect_right(self.primes, math.isqrt(start + size - 1))  # the primes this block needs
        k = max(used - self.split, 0)  # of them in the large tier
        idx = self.ones.index(start, size, k)
        p = self.ones.p[: len(idx)]
        np.minimum.at(spf, idx, p)
        np.add.at(once, idx, 1)
        np.multiply.at(power, idx, p)
        idx = self.squares.index(start, size, k)
        p = self.squares.p[: len(idx)]
        # a - 2 = v_p(m) for m = n / p², dividing only the m still divisible by p
        m, a = self.m[: len(idx)], self.a[: len(idx)]
        np.take(n, idx, out=m)
        m //= self.squares.step[: len(idx)]
        a.fill(2)
        live = np.arange(len(idx))
        while len(live := live[m[live] % p[live] == 0]):
            m[live] //= p[live]
            a[live] += 1
        np.subtract.at(once, idx, 1)
        np.multiply.at(power, idx, p ** (a - 1))
        np.multiply.at(tau_n, idx, a + 1)
        np.multiply.at(tau_n2, idx, 2 * a + 1)
        np.minimum.at(need, idx, _prime_bound(p, a))
        # small tier: one strided slice per prime, largest first
        n, spf, tau_n, tau_n2, need, once, power, _ = self.rows[:, :size]
        for p in reversed(self.primes[: min(used, self.split)]):
            s = -start % p
            spf[s::p] = p
            once[s::p] += 1
            power[s::p] *= p
            q = p * p
            s = -start % q
            if s < size:
                # a - 2 = v_p(m) over the consecutive integers m = n / p²
                m = (start + s) // q
                c = len(range(s, size, q))
                a, t = scratch[:c], scratch[c : 2 * c]  # 2c <= size + 1
                a.fill(2)
                pk = p
                while (j := -m % pk) < c:
                    a[j::pk] += 1
                    pk *= p
                once[s::q] -= 1
                power[s::q] *= np.power(p, np.subtract(a, 1, out=t), out=t)
                tau_n[s::q] *= np.add(a, 1, out=t)
                tau_n2[s::q] *= np.add(np.multiply(a, 2, out=t), 1, out=t)
                np.minimum(need[s::q], _prime_bound(p, a, out=t), out=need[s::q])
        # n / power is 1 or a prime beyond the sieve
        scratch = scratch[:size]
        once += np.less(power, n, out=scratch)
        tau_n <<= once
        tau_n2 *= np.take(_POW3, once, out=scratch)
        np.minimum(need, _prime_bound(spf, 1, out=scratch), out=need)
        return spf, tau_n, tau_n2, need


def _divisor_blocks(lo: int, hi: int) -> Iterator[tuple]:
    """(start, spf, tau(n), tau(n²), need) for each ``_BLOCK``-integer block of [lo, hi); 2 <= lo.

    One workspace (``_BlockSieve``) serves every block of the call, so the
    arrays a block yields are overwritten when the next block is asked for:
    read or copy them before advancing.  The workspace belongs to the call,
    so generators running side by side share nothing.
    """
    width = min(_BLOCK, hi - lo)
    sieve = _BlockSieve(_primes_upto(math.isqrt(hi - 1)), width)
    for start in range(lo, hi, width):
        yield start, *sieve.block(start, min(width, hi - start))


def census_excess_tau(x: int) -> int:
    """#{3 <= n <= x : tau(n) > g(x) ln(ln x) ln(x)}.

    tau comes from ``_divisor_blocks``, the one tau sieve, which
    ``run_chain_census`` counts the same figure from.
    """
    if x < 3:
        raise ValueError(f"x must be >= 3, got {x}")
    threshold = _tau_threshold(x)
    return sum(int((tau_n > threshold).sum()) for _, _, tau_n, _, _ in _divisor_blocks(3, x + 1))
