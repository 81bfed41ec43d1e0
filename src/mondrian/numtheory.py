"""Divisor-function machinery behind the perfect-tiling filter and the censuses.

The load-bearing objects are factorisation by trial division, the witness
filter over proper divisors of n² (``witness_report``), a blocked divisor sieve
that gives the censuses spf, tau(n), tau(n²) and the least witness bound of
``_prime_bound`` for the odd n only, in O(block) memory, the lift of its tau to
the even n = 2^a·m (``_excess_tau_lift``), and exact counting primitives: z-rough
integers (``rough_count``) by a floor-quotient sieve over the O(sqrt x) values
x // k, odd k only, up to min(z, x^¼) and a pass over prime pairs, one slice
per smaller prime, for the primes past it, all read off the sieve's own table,
and the divisor summatory function.
``FactorTable`` remains as a standalone spf table that no other function uses.
All arithmetic is exact integer arithmetic; the only floats are the analytic
reference quantities (thresholds, Mertens-type densities).

numpy is imported inside the functions that sieve (``_primes_upto``,
``build_factor_table``, ``_prime_bound``, ``_lucy``, ``_Multiples``,
``_divisor_blocks`` and ``_excess_tau_lift``), never at module level, so the
tiling search, which only needs ``witness_report``, starts without it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .errors import UsageError

if TYPE_CHECKING:
    import numpy as np

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

# rough_count's sieve keeps one array of isqrt(x) + 1 entries and three of half
# that, int64 past x = 2**31 - 2 (``_sieve_dtype``), so about 63 MB at this
# bound, where x // k stays far inside int64; its prime-pair pass frees two of
# the halves and keeps a few arrays of one entry per prime up to sqrt x
ROUGH_SAFE_LIMIT = 10**13

# upper end of the domain of run_chain_census and census_excess_tau: their
# divisor sieve lays out slots for every prime up to sqrt x, and a process
# sieving one block at the top of [3, x] peaks at 49 MiB RSS at this bound,
# under the census's 64 MiB gate (80 at 10**13)
CENSUS_SAFE_LIMIT = 10**12

# odd integers per divisor-sieve block, so a block spans 2 * _BLOCK integers:
# enough rows to spread each numpy call per prime and block, while the eight
# rows of ``_divisor_blocks``'s workspace stay at 0.5 MiB in int32 (hi up to
# about 1.4 * 10**9) and 1 MiB in int64
_BLOCK = 1 << 14

# the divisor sieve's tier cutoff: primes below it take strided slices, the rest
# one indexed pass per block (the sweep in BENCH_census_batch.json chose it)
_STRIDED_BELOW = 8


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


def _sieve_dtype(top: int) -> type:
    """The integer dtype of a sieve whose arrays hold values up to ``top``: int32 below 2**31, else int64.

    Half the width streams half the bytes through every numpy pass, so each
    sieve calls this with the largest value any of its arrays can hold.
    """
    import numpy as np

    return np.int32 if top < 2**31 else np.int64


def _primes_upto(m: int) -> list[int]:
    if m < 2:
        return []
    import numpy as np

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
    import numpy as np

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


def divisors(n: int) -> list[int]:
    """Ascending list of all positive divisors of n."""
    _check_range(n)
    out = [1]
    for p, e in _factorize(n):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


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
    is one worklist, read while it grows, of entries (next prime index, m,
    tau(n²/m)) from the root (0, 1, tau(n²)); each entry appends m·p^k for
    each later prime p of n, in ascending order.  m grows and tau(n²/m)
    shrinks as an entry is extended, so the extension stops once m >
    tau(n²/m).  Every entry after the root is a witness's co-divisor.
    """
    work = [(0, 1, math.prod([2 * a + 1 for _, a in factors]))]  # (next prime index, m, tau(n²/m))
    for i, m, t in work:  # the loop reads the entries it appends
        for p, a in factors[i:]:
            i += 1
            if m * p > t:
                break  # every later prime is larger still
            mk, tk = m, t
            for f in range(2 * a, 0, -1):  # p's factor of tau(n²/mk) drops to f
                mk *= p
                tk = tk // (f + 1) * f
                if mk > tk:
                    break
                work.append((i, mk, tk))
    return tuple(sorted(n * n // m for _, m, _ in work[1:]))


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
    import numpy as np

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
    """(S(x), pi(min(z, isqrt x))) once Lucy's floor-quotient sieve applies every prime up to min(z, isqrt x).

    S(v) counts the m in [2, v] that are prime or have every prime factor
    above the last prime applied; it starts at v - 1, and applying the j-th
    prime p (0-based) lowers S(v) by S(v // p) - j for every v >= p².
    Prime 2 is applied in closed form: S(v) = (v + 1) // 2 for v >= 2, the
    prime 2 and the odd m in [3, v].  After it no even k is read again, so
    only the floor quotients x // k for odd k are kept: ``small[v]`` = S(v)
    for v <= r = isqrt x, and ``large[i]`` = S(x // k), ``quot[i]`` = x // k
    for the odd k = 2i + 1 <= r.  An odd prime p takes S(x // kp) from
    ``large[(kp - 1) / 2]`` = ``large[i·p + (p - 1) / 2]`` while kp <= r, and
    from ``small`` past it.  The three arrays hold about 2.5·sqrt x entries,
    against 4·sqrt x with every k.  Their largest value is x + 1, in
    ``(quot + 1) // 2``, so they are int32 for x <= 2**31 - 2 and int64
    past it (``_sieve_dtype``); the sums over them accumulate in int64.

    The loop applies the primes up to min(z, b), b = max(2, isqrt r), so
    prime 2 whenever 2 <= min(z, r), also for x < 16 where isqrt r < 2.  It
    finds them in S itself: once the primes below an odd p are applied, S(v)
    = pi(v) for v < p², so p is prime iff ``small[p]`` > ``small[p - 1]``,
    and its index j is ``small[p - 1]``.  Once every prime up to b is
    applied, ``small[v]`` = pi(v) for every v <= r, so the later primes are
    the v in (b, min(z, r)] where ``small`` steps up; no second sieve runs.
    Each later prime p_i has p_i⁴ > x (Lehmer's split at x^¼), so its term
    S_i(x // p_i) - i is read off in closed form: S_i(x // p_i) is
    ``large[(p_i - 1) / 2]`` less, for each earlier such prime p_j with
    p_i·p_j² <= x, the term ``small[x // (p_i·p_j)]`` - j, whose index is at
    most r and below p_j².  Those prime pairs are summed one smaller prime
    p_j at a time, as one slice of the p_i, so memory stays O(sqrt x).
    """
    r = math.isqrt(x)
    last, b = min(z, r), max(2, math.isqrt(r))
    if last < 2:
        return x - 1, 0
    import numpy as np

    dtype = _sieve_dtype(x + 1)
    small = np.arange(1, r + 2, dtype=dtype) // 2  # S(v) = (v + 1) // 2
    small[:2] = (-1, 0)  # S(v) = v - 1 below 2
    quot = np.arange(1, r + 1, 2, dtype=dtype)
    np.floor_divide(x, quot, out=quot)  # quot[i] = x // (2i + 1) >= r >= 2, so S is (v + 1) // 2
    large = (quot + 1) // 2
    buf = np.empty_like(quot)  # scratch; each right-hand side is copied here first
    for p in range(3, min(z, b) + 1, 2):
        j = int(small[p - 1])  # pi(p - 1): the primes below p are applied and p - 1 < p²
        if small[p] == j:
            continue  # p is composite
        # p <= b gives p² <= r <= x // k for every odd k <= r: every large[i] changes, and top >= p
        top = r // p
        mid = (top + 1) // 2
        # kp <= r: S(x // kp) is large[i·p + (p - 1) / 2]
        np.subtract(large[p // 2 : p // 2 + p * mid : p], j, out=buf[:mid])
        np.subtract(large[:mid], buf[:mid], out=large[:mid])
        # kp > r: x // kp <= r, read from small
        tail = buf[: len(large) - mid]
        np.floor_divide(quot[mid:], p, out=tail)
        # take reads each index before it writes that slot, so tail can be both
        np.take(small, tail, out=tail, mode="clip")
        np.subtract(tail, j, out=tail)
        np.subtract(large[mid:], tail, out=large[mid:])
        # p² <= v <= r: v // p = w for the p values v in [wp, wp + p)
        small[p * top :] -= small[top] - j  # the last, possibly partial, run first
        np.subtract(small[p:top], j, out=buf[: top - p])
        runs = small[p * p : p * top].reshape(top - p, p)
        np.subtract(runs, buf[: top - p, None], out=runs)
    s = int(large[0])
    del quot, buf  # the pair pass below needs neither, so its arrays take their place
    # rest: the primes in (b, min(z, r)], where small = pi steps up (none for z < b);
    # rest[j] has index looped + j among all the primes applied
    looped = int(small[b])
    rest = np.flatnonzero(small[b + 1 : last + 1] != small[b:last]) + (b + 1)
    s -= int(large[rest // 2].sum(dtype=np.int64)) - sum(range(looped, looped + len(rest)))
    # rest[j] pairs with each rest[i], j < i < ends[j]: the p_i with p_i·p_j² <= x;
    # ends never grows with j, so the p_j with a pair are a prefix of rest
    ends = np.searchsorted(rest, x // (rest * rest), side="right")
    paired = int(np.count_nonzero(ends > np.arange(1, len(rest) + 1)))
    for j, (p, end) in enumerate(zip(rest[:paired].tolist(), ends[:paired].tolist())):
        # x // (p_i·p_j) = (x // p_j) // p_i
        s += int(small[x // p // rest[j + 1 : end]].sum(dtype=np.int64)) - (end - j - 1) * (looped + j)
    return s, int(small[last])


def rough_count(x: int, z: int) -> int:
    """Exact |{n <= x : n is z-rough}|, with 1 included, for 1 <= x <= ``ROUGH_SAFE_LIMIT``.

    This is Legendre's phi(x, pi(z)) by ``_lucy``: prime 2 in closed form,
    Lucy's floor-quotient sieve over the odd k up to min(z, x^¼), then one
    pass over prime pairs, a slice per smaller prime, for the primes in
    (x^¼, min(z, sqrt x)].  The sieve's table tells the primes apart, so
    this is the only prime sieve it runs.
    O(x^(3/4) / log x) time, and memory of about 2.5·sqrt x entries, int32
    up to x = 2**31 - 2 and int64 past it.
    For z >= isqrt(x) every prime up to sqrt x has been applied, so S(x) =
    pi(x) and the count is 1 + pi(x) - pi(min(z, x)); z >= x leaves only 1
    and sieves nothing.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if z < 0:
        raise ValueError(f"z must be >= 0, got {z}")
    if x > ROUGH_SAFE_LIMIT:
        raise UsageError(f"x={x} exceeds the rough_count limit {ROUGH_SAFE_LIMIT}")
    if z >= x:
        return 1
    s, applied = _lucy(x, z)
    if z <= math.isqrt(x):
        return 1 + s - applied
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


def _first_row(start, q):
    """The least i >= 0 with q | start + 2i, for odd start and odd q: row of q's first multiple.

    With r = -start mod q, start + r is a multiple of q; it is odd when r is
    even, and when r is odd start + r + q is.  So i = (r + (r & 1)·q) / 2, and
    no term exceeds 2q, so nothing overflows int64.  The odd multiples of q
    then lie q rows apart.  Works on ints and, elementwise, on numpy arrays q.
    """
    r = -start % q
    return (r + (r & 1) * q) >> 1


class _Multiples:
    """Where the odd multiples of p**exponent fall in a block of at most ``width`` odd integers.

    p runs over ``primes``, all odd.  Each slot's p and p**exponent keep the
    dtype of ``primes``, the rows' dtype, for ``ufunc.at``; the per-prime
    ``steps`` that ``index`` works the rows out from are intp, like the rows,
    so ``_first_row``'s terms of up to 2·p**exponent never overflow.  The
    slots are laid out once per call, ceil(width / p**exponent) for each p in
    the order of ``primes``, which is room for every multiple in any block,
    since they lie p**exponent rows apart.  ``index`` writes the row of every slot into one reused buffer; a
    slot that falls past the block's end points at the spare entry ``size`` of
    the workspace, which the block's views hide, so each block takes every
    prime's slots, also those of primes with no multiple in it.
    """

    def __init__(self, primes: np.ndarray, exponent: int, width: int):
        import numpy as np

        self.steps = primes.astype(np.intp) ** exponent
        count = -(-width // self.steps)
        ends = np.cumsum(count)
        self.owner = np.repeat(np.arange(len(primes)), count)
        self.p = primes[self.owner]  # the prime and the step p**exponent of each slot
        self.step = self.p**exponent
        self.offset = self.steps[self.owner] * (np.arange(len(self.owner)) - (ends - count)[self.owner])
        self.idx = np.empty(len(self.owner), dtype=np.intp)

    def index(self, start: int, size: int) -> np.ndarray:
        """The row in [0, size), or ``size``, of each slot, for rows n = start + 2i."""
        import numpy as np

        np.take(_first_row(start, self.steps), self.owner, out=self.idx)
        self.idx += self.offset
        return np.minimum(self.idx, size, out=self.idx)


def _divisor_blocks(lo: int, hi: int) -> Iterator[tuple]:
    """(start, spf, tau(n), tau(n²), need) for each block of ``_BLOCK`` odd n in [lo, hi); 3 <= lo.

    [lo, hi) must hold an odd n.  Row i of a block holds n = start + 2i, and
    start is odd.  The even n are not sieved: the censuses settle them
    without these arrays, and ``_excess_tau_lift`` reads their tau off the
    odd rows.  The workspace is allocated once per call: eight arrays of one
    entry per row plus a spare, the indexed tier's slots (``_Multiples``) and
    their buffers.  Their dtype is ``_sieve_dtype`` of the largest value a
    row holds: need <= _prime_bound(hi - 1, 1), about 1.5·hi, or the spare
    row's n past the last block, so they are int32 for hi up to about
    1.4·10⁹ and int64 past it.  Every ``ufunc.at`` takes values of that dtype,
    which keeps it on numpy's fast path.  Every block is written into it with
    ``out=`` and in-place ufuncs, so the arrays a block yields are
    overwritten when the next block is asked for: read or copy them before
    advancing.  The workspace belongs to the call, so generators running
    side by side share nothing.

    A prime of exponent 1 multiplies tau(n) by 2 and tau(n²) by 3, so those
    are only counted, and the exponents a >= 2 are worked out on the
    multiples of p² alone.  The sieved prime powers multiply to n, or to n
    over one prime beyond the sieve; an n no prime crosses off is prime and
    keeps spf = n.  Every block sieves every odd prime up to sqrt(hi - 1); a
    clipped slot whose p² exceeds the spare row's n gets cofactor 0, which p
    always divides, so the exponent loop only follows the nonzero cofactors.

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
    import numpy as np

    lo |= 1
    width = min(_BLOCK, (hi - lo + 1) // 2)
    last = lo + (hi - 1 - lo) // (2 * width) * (2 * width)  # the last block's start
    dtype = _sieve_dtype(max(int(_prime_bound(hi - 1, 1)), last + 2 * width))
    one = dtype(1)
    primes = _primes_upto(math.isqrt(hi - 1))[1:]  # odd: 2 divides no row
    split = bisect_left(primes, _STRIDED_BELOW)
    large = np.array(primes[split:], dtype=dtype)
    ones = _Multiples(large, 1, width)
    squares = _Multiples(large, 2, width)
    m_buf, a_buf = np.empty((2, len(squares.idx)), dtype=dtype)
    # n, spf, tau(n), tau(n²), need, once, power and scratch; entry width is spare
    rows = np.empty((8, width + 1), dtype=dtype)
    rows[0] = np.arange(0, 2 * width + 1, 2)
    pow3 = 3 ** np.arange(16, dtype=dtype)  # 3**k for k < 16: an int64 has at most 15 primes
    for start in range(lo, hi, 2 * width):
        size = min(width, (hi - start + 1) // 2)
        n, spf, tau_n, tau_n2, need, once, power, scratch = rows
        n += start - int(n[0])
        np.copyto(spf, n)
        tau_n.fill(1)  # prod of a + 1 over the primes with a >= 2
        tau_n2.fill(1)  # prod of 2a + 1 over the same primes
        need.fill(np.iinfo(dtype).max)
        once.fill(0)  # sieved primes dividing n exactly once
        power.fill(1)  # prod of the sieved prime powers p^a dividing n
        # large tier: every multiple of every large prime, then of its square
        idx = ones.index(start, size)
        np.minimum.at(spf, idx, ones.p)
        np.add.at(once, idx, one)
        np.multiply.at(power, idx, ones.p)
        idx = squares.index(start, size)
        p = squares.p
        # a - 2 = v_p(m) for m = n / p², dividing only the m still divisible by p
        m, a = m_buf, a_buf
        np.take(n, idx, out=m)
        m //= squares.step
        a.fill(2)
        live = np.flatnonzero(m)
        while len(live := live[m[live] % p[live] == 0]):
            m[live] //= p[live]
            a[live] += 1
        np.subtract.at(once, idx, one)
        np.multiply.at(power, idx, p ** (a - 1))
        np.multiply.at(tau_n, idx, a + 1)
        np.multiply.at(tau_n2, idx, 2 * a + 1)
        np.minimum.at(need, idx, _prime_bound(p, a))
        # small tier: one strided slice per prime, largest first
        n, spf, tau_n, tau_n2, need, once, power, _ = rows[:, :size]
        for p in reversed(primes[:split]):
            s = _first_row(start, p)
            spf[s::p] = p
            once[s::p] += 1
            power[s::p] *= p
            q = p * p
            s = _first_row(start, q)
            if s < size:
                # a - 2 = v_p(m) over the odd cofactors m = n / p²: m0, m0 + 2, ...
                m = (start + 2 * s) // q
                c = len(range(s, size, q))
                a, t = scratch[:c], scratch[c : 2 * c]  # 2c <= size + 1
                a.fill(2)
                pk = p
                while (j := _first_row(m, pk)) < c:
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
        tau_n2 *= np.take(pow3, once, out=scratch)
        np.minimum(need, _prime_bound(spf, 1, out=scratch), out=need)
        yield start, spf, tau_n, tau_n2, need


def _excess_tau_lift(x: int, least: int, start: int, tau_n: np.ndarray) -> int:
    """#{n <= x : tau(n) >= least} over the n = 2^a·m whose odd part m is a row of a block.

    ``start`` and ``tau_n`` are a block of ``_divisor_blocks``, and ``least``
    is floor(threshold) + 1, the least integer tau above the threshold.
    tau(2^a·m) = (a + 1)·tau(m) reaches it iff tau(m) >= ceil(least / (a + 1)):
    one integer comparison for each a, over the rows m <= x >> a, a prefix of
    the block.  The block at start 3 also takes m = 1, whose n = 2^a
    lie in [3, x] for 2 <= a <= log2 x, so summed over the blocks of [3, x]
    this counts every n in [3, x].
    """
    import numpy as np

    count = sum(a + 1 >= least for a in range(2, x.bit_length())) if start == 3 else 0
    a = 0
    while (top := x >> a) >= start:
        rows = min((top - start) // 2 + 1, len(tau_n))
        count += int(np.count_nonzero(tau_n[:rows] >= -(-least // (a + 1))))
        a += 1
    return count


def census_excess_tau(x: int) -> int:
    """#{3 <= n <= x : tau(n) > g(x) ln(ln x) ln(x)}, for 3 <= x <= ``CENSUS_SAFE_LIMIT``.

    tau of the odd n comes from ``_divisor_blocks``, the one tau sieve, and
    ``_excess_tau_lift`` lifts it to the even n, as ``run_chain_census`` does
    for the same figure.
    """
    if x < 3:
        raise ValueError(f"x must be >= 3, got {x}")
    if x > CENSUS_SAFE_LIMIT:
        raise UsageError(f"x={x} exceeds the census limit {CENSUS_SAFE_LIMIT}")
    least = math.floor(_tau_threshold(x)) + 1  # tau is an integer: tau > threshold iff tau >= least
    return sum(
        _excess_tau_lift(x, least, start, tau_n) for start, _, tau_n, _, _ in _divisor_blocks(3, x + 1)
    )
