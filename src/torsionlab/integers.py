"""Elementary exact number theory: factorization, primes, and the Jacobsthal function.

Factoring trial-divides by the primes below 100 and splits what is left with
Pollard-Brent rho (Brent, BIT 20 (1980)); every factor is certified by
Miller-Rabin with the first 12 prime bases, which is deterministic below
3.18e23 (Sorenson-Webster, Math. Comp. 86 (2017)).

The Jacobsthal function g(d) is the smallest M such that every block of M
consecutive integers contains one coprime to d.  It is computed exactly by a
covering search over the distinct primes of d, whose cost depends on omega(d)
and not on d; this is what lets the explicit upper bounds (Kanold, Stevens)
be *verified* rather than assumed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import CapExceededError, InternalCheckError, ValidationError

#: factorize refuses inputs above this; every cofactor it tests for primality
#: is then far below the 3.18e23 up to which its Miller-Rabin bases are exact
FACTOR_LIMIT = 2 ** 64

#: refuse a g(d) covering search past this many nodes: it admits every d up
#: to 10^7 and the primorial of the first 10 primes, not that of the first 11
JACOBSTHAL_NODE_CAP = 10 ** 7

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
                 71, 73, 79, 83, 89, 97)
_MR_BASES = _SMALL_PRIMES[:12]


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer with its prime factorization cached.

    Invariants: factors are (prime, exponent) pairs sorted by prime, their
    product is value, omega counts distinct primes, radical is the squarefree
    product of the distinct primes.  value == 1 iff factors is empty.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    @property
    def omega(self) -> int:
        return len(self.factors)

    @property
    def radical(self) -> int:
        r = 1
        for p, _ in self.factors:
            r *= p
        return r

    def __int__(self) -> int:
        return self.value


def is_prime(n: int) -> bool:
    """Primality of 0 <= n <= FACTOR_LIMIT by Miller-Rabin with the bases 2..37
    (deterministic in that range)."""
    if not isinstance(n, int) or not 0 <= n <= FACTOR_LIMIT:
        raise ValidationError("is_prime requires 0 <= n <= 2^64, got %r" % (n,))
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    s = ((n - 1) & (1 - n)).bit_length() - 1
    odd = (n - 1) >> s
    for a in _MR_BASES:
        x = pow(a, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_factor(n: int) -> int:
    """A proper divisor of the odd composite n, by Pollard-Brent rho with
    gcds taken over batches of 128 steps."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise InternalCheckError("Pollard-Brent rho found no divisor of %d; this is a bug" % n)


@lru_cache(maxsize=1 << 17)
def factorize(n: int) -> FactoredInteger:
    """Factorization of 1 <= n <= FACTOR_LIMIT (pure, memoized).

    Small primes come off by trial division, the cofactor is split by
    Pollard-Brent rho until every part passes the primality test, and the
    result is checked to multiply back to n with every factor prime.
    """
    if not isinstance(n, int) or n < 1:
        raise ValidationError("factorize requires a positive integer, got %r" % (n,))
    if n > FACTOR_LIMIT:
        raise CapExceededError(
            "factorize input exceeds the %d-bit configuration cap" % FACTOR_LIMIT.bit_length(),
            required=n,
        )
    exponents: Counter[int] = Counter()
    m = n
    for p in _SMALL_PRIMES:
        while m % p == 0:
            m //= p
            exponents[p] += 1
    parts = [m] if m > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            exponents[m] += 1
        else:
            f = _brent_factor(m)
            parts += [f, m // f]
    out = tuple(sorted(exponents.items()))
    if math.prod(p ** e for p, e in out) != n or not all(is_prime(p) for p, _ in out):
        raise InternalCheckError("factorization of %d failed its check; this is a bug" % n)
    return FactoredInteger(n, out)


def radical(n: int) -> int:
    return factorize(n).radical


# ---------------------------------------------------------------------------
# primes

_PRIMES: list[int] = [2, 3, 5, 7, 11, 13]
_SIEVE_LIMIT = 14

#: refuse to sieve past this many candidate integers
NTH_PRIME_SIEVE_CAP = 200_000_000


def _extend_sieve(limit: int) -> None:
    global _PRIMES, _SIEVE_LIMIT
    if limit <= _SIEVE_LIMIT:
        return
    if limit > NTH_PRIME_SIEVE_CAP:
        raise CapExceededError("prime sieve limit %d beyond cap" % limit, required=limit)
    sieve = bytearray(b"\x01") * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = b"\x00" * len(sieve[i * i :: i])
    _PRIMES = [i for i in range(limit + 1) if sieve[i]]
    _SIEVE_LIMIT = limit


def nth_prime(x: int) -> int:
    """The x-th prime, 1-indexed: nth_prime(1) == 2."""
    if not isinstance(x, int) or x < 1:
        raise ValidationError("nth_prime requires x >= 1, got %r" % (x,))
    while len(_PRIMES) < x:
        # p_x < x(ln x + ln ln x) for x >= 6; pad generously below that
        if x >= 6:
            bound = int(x * (math.log(x) + math.log(math.log(x)))) + 10
        else:
            bound = 15
        _extend_sieve(max(bound, 2 * _SIEVE_LIMIT))
    return _PRIMES[x - 1]


def prime_upper(x: int) -> int:
    """Certified integer >= the x-th prime, valid for x >= 4 (Rosser form).

    Returns ceil(x * L) with L a float upper bound on ln(x)(1 + ln ln x); the
    float is padded before the exact Fraction multiply so rounding can only
    push the bound up.
    """
    if not isinstance(x, int) or x < 4:
        raise ValidationError("prime_upper requires x >= 4, got %r" % (x,))
    lx = math.log(x)
    factor = lx * (1.0 + math.log(lx)) * (1.0 + 2.0 ** -40)
    v = Fraction(factor) * x
    return -((-v.numerator) // v.denominator)


# ---------------------------------------------------------------------------
# Jacobsthal


@lru_cache(maxsize=1 << 16)
def jacobsthal(d: int) -> int:
    """Smallest M such that any M consecutive integers contain one coprime to d.

    Exact (pure, memoized): by CRT, g(d) - 1 is the largest L for which
    residues a_p, one per prime p of d, cover 1..L, so it only depends on the
    distinct primes of d.  Any omega(d) integers can be covered one prime
    each; L then grows while ``_coverable`` finds a covering.
    """
    if not isinstance(d, int) or d < 1:
        raise ValidationError("jacobsthal requires d >= 1, got %r" % (d,))
    primes = [p for p, _ in factorize(d).factors]
    nodes = [0]
    run = len(primes)
    while _coverable(d, primes, run + 1, nodes):
        run += 1
    return run + 1


def _coverable(d: int, primes: list[int], length: int, nodes: list[int]) -> bool:
    """Whether one residue class per prime covers the integers 0..length-1.

    A depth-first search places the primes below length in increasing order,
    with the uncovered integers kept as a bitmask.  A prime >= length covers
    at most one integer, so those primes are counted, not placed.  A branch
    is pruned when the uncovered count, minus the most the primes still to
    be placed can cover, exceeds that count.  ``nodes`` accumulates, across
    calls, one node per residue class tried; past JACOBSTHAL_NODE_CAP the
    search refuses.
    """
    small = [p for p in primes if p < length]
    large = len(primes) - len(small)
    classes = [[sum(1 << k for k in range(r, length, p)) for r in range(p)] for p in small]
    reach = [0] * (len(small) + 1)
    for i in range(len(small) - 1, -1, -1):
        reach[i] = reach[i + 1] + -(-length // small[i])

    def search(free: int, i: int) -> bool:
        if i == len(small):
            return True
        nodes[0] += small[i]
        if nodes[0] > JACOBSTHAL_NODE_CAP:
            raise CapExceededError(
                "g(%d) covering search exceeds cap %d nodes" % (d, JACOBSTHAL_NODE_CAP),
                required=nodes[0],
            )
        limit = reach[i + 1] + large
        missed = False  # the classes missing every uncovered integer are one choice
        for cls in classes[i]:
            rest = free & ~cls
            if rest == free:
                if missed:
                    continue
                missed = True
            if rest.bit_count() <= limit and search(rest, i + 1):
                return True
        return False

    full = (1 << length) - 1
    return length - reach[0] <= large and search(full, 0)


def jacobsthal_bounds(d) -> tuple[int, float | None]:
    """Kanold and Stevens upper bounds for g(d): (2^omega, 2*omega^(2+2e*ln omega)).

    The Stevens bound only makes sense for omega >= 2 (ln omega <= 0 below
    that); None is returned in its place.  Both floats carry a one-ulp upward
    guard.
    """
    fi = d if isinstance(d, FactoredInteger) else factorize(d)
    w = fi.omega
    kanold = 2 ** w
    if w < 2:
        return kanold, None
    stevens = 2.0 * w ** (2.0 + 2.0 * math.e * math.log(w))
    return kanold, math.nextafter(stevens, math.inf)


def squarefree_quotient(d: int, n: int) -> int:
    """Radical of d / gcd(d, n): the squarefree modulus left after removing n's share."""
    if d < 1 or n < 1:
        raise ValidationError("squarefree_quotient requires positive arguments")
    return radical(d // gcd(d, n))


def minimal_coprime_shift(a: int, n: int, d: int) -> int:
    """Least k >= 0 with gcd(a + k*n, d) == 1.

    Solvable exactly when a is invertible modulo gcd(n, d); the result is
    guaranteed to satisfy k < g(d') for d' the squarefree part of d/gcd(d,n).
    """
    if not isinstance(a, int) or a < 0:
        raise ValidationError("minimal_coprime_shift requires a >= 0")
    if n < 1 or d < 1:
        raise ValidationError("minimal_coprime_shift requires n, d >= 1")
    h = gcd(n, d)
    if gcd(a, h) != 1:
        raise ValidationError("no solution exists in this progression")
    limit = jacobsthal(squarefree_quotient(d, n))
    for k in range(limit):
        if gcd(a + k * n, d) == 1:
            return k
    raise InternalCheckError("coprime shift exceeded its g(d') bound; this is a bug")
