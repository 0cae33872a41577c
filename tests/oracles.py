"""Independent oracles used by the test suite.

These deliberately recompute everything from definitions with different
algorithms than the library (gcd scans instead of factor sieves, a fresh
Eratosthenes sieve instead of the cached incremental one), so agreement is
meaningful.  The threshold certificate's reference is the library's earlier,
direct algorithm instead, built on the same exponent constants.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

import numpy as np

from torsionlab.bounds import (
    TAIL_K_CAP,
    THRESHOLD_BIT_BUDGET,
    THRESHOLD_SCAN_CAP,
    closed_form_threshold,
    exponent_constants,
)
from torsionlab.errors import CapExceededError
from torsionlab.integers import factorize, nth_prime
from torsionlab.linalg import ceil_root_fraction, lcm


def jacobsthal_by_definition(d: int) -> int:
    """Smallest M such that every window of M consecutive integers in
    [1, d + M] contains an integer coprime to d, straight from the quantifiers.

    For each window start x the window [x, x + M - 1] contains a coprime iff
    the distance from x to the next coprime is < M; window starts repeat with
    period d, so x ranges over one period.
    """
    if d == 1:
        return 1
    n = 2 * d + 1
    ar = np.gcd(np.arange(1, n + 1, dtype=np.int64), d)
    pos = np.where(ar == 1, np.arange(n), np.int64(1) << 40)
    next_coprime = np.minimum.accumulate(pos[::-1])[::-1]
    dist = next_coprime[: d + 1] - np.arange(d + 1)
    return int(dist.max()) + 1


def sieve_upto(limit: int) -> list[int]:
    """All primes <= limit by a plain sieve (independent of the library cache)."""
    if limit < 2:
        return []
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return [int(i) for i in np.flatnonzero(flags)]


def nth_prime_by_sieve(x: int, _cache: dict = {}) -> int:
    """x-th prime from a fresh sieve, growing the bound until enough appear."""
    if "primes" not in _cache:
        _cache["primes"] = sieve_upto(1000)
        _cache["limit"] = 1000
    while len(_cache["primes"]) < x:
        _cache["limit"] *= 2
        _cache["primes"] = sieve_upto(_cache["limit"])
    return _cache["primes"][x - 1]


def brute_min_coprime_shift(a: int, n: int, d: int, k_max: int = 10 ** 6):
    """Scan k = 0, 1, ... directly; None if no k below k_max works."""
    for k in range(k_max):
        if gcd(a + k * n, d) == 1:
            return k
    return None


def omega_by_gcd(d: int) -> int:
    """Count distinct primes of d by repeated gcd stripping (no factor list)."""
    count = 0
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            count += 1
            while m % p == 0:
                m //= p
        p += 1
    return count + (1 if m > 1 else 0)


# --- threshold certificate: the R_k-list reference -----------------------------------
#
# The violation region as it was first written: every R_k^L is built and kept,
# each violation test compares the primorial with it directly, and the scan
# reads the kept list.  ``final_delta_by_rk_list`` must agree with
# ``bounds.final_delta`` on every shape where both finish.


def _kanold_rhs_powL(k: int, D: int, delta: Fraction, delta_prime: Fraction, L: int) -> int:
    """R_k^L where R_k = max(k+1, D)^delta * 2^((k+1)*delta') bounds the
    right-hand side of both inequalities for any d with omega(d) = k."""
    A = max(k + 1, D)
    return A ** int(delta * L) * 2 ** int((k + 1) * delta_prime * L)


def violation_region_by_rk_list(params):
    """All omega-classes where the Kanold-form system can fail.

    Returns (upper, rhs_by_omega, L): ``upper`` is a certified integer above
    every violating d (1 if none exist); violations with omega(d) = k require
    primorial(k) <= d < R_k, and once primorials outgrow R_k they stay ahead
    because consecutive-prime ratios beat the R-ratio 2^delta' * e.
    """
    _, delta, delta_prime = exponent_constants(params.Delta, params.c, params.eps_slack)
    L = lcm(delta.denominator, delta_prime.denominator)
    dp_ceil = -(-delta_prime.numerator // delta_prime.denominator)
    prime_floor = 3 * 2 ** dp_ceil  # >= e * 2^delta', locks the induction
    upper = 1
    rhs = []
    primorial = 1
    k = 0
    while True:
        R_L = _kanold_rhs_powL(k, params.D, delta, delta_prime, L)
        if R_L.bit_length() > THRESHOLD_BIT_BUDGET * L:
            raise CapExceededError(
                "threshold certificate exceeds the %d-bit budget" % THRESHOLD_BIT_BUDGET
            )
        rhs.append(R_L)
        if primorial ** L < R_L:
            upper = max(upper, ceil_root_fraction(R_L, 1, L))
        elif k + 1 >= delta and nth_prime(k + 1) >= prime_floor:
            break
        if k >= TAIL_K_CAP:
            raise CapExceededError(
                "primorial tail scan exceeded %d primes" % TAIL_K_CAP, required=k
            )
        k += 1
        primorial *= nth_prime(k)
    return upper, rhs, L


def final_delta_by_rk_list(params) -> int:
    """``bounds.final_delta`` over ``violation_region_by_rk_list``."""
    if params.Delta == 0:
        return 1
    upper, rhs, L = violation_region_by_rk_list(params)
    if upper <= THRESHOLD_SCAN_CAP:
        last_bad = 0
        for d in range(1, upper):
            k = factorize(d).omega
            if k < len(rhs) and d ** L < rhs[k]:
                last_bad = d
        searched = last_bad + 1
    else:
        searched = upper
    return max(searched, closed_form_threshold(params))
