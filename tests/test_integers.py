import math
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torsionlab.errors import ValidationError
from torsionlab.integers import (
    FACTOR_LIMIT,
    FactoredInteger,
    factorize,
    is_prime,
    jacobsthal,
    jacobsthal_bounds,
    minimal_coprime_shift,
    nth_prime,
    prime_upper,
    squarefree_quotient,
)

from oracles import (
    brute_min_coprime_shift,
    jacobsthal_by_definition,
    nth_prime_by_sieve,
    omega_by_gcd,
)


# --- factorize -------------------------------------------------------------


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(1).factors == ()
    assert factorize(97).factors == ((97, 1),)


def test_factorize_rejects_zero():
    with pytest.raises(ValidationError):
        factorize(0)


@given(st.integers(min_value=1, max_value=10 ** 7))
def test_factorize_invariants(n):
    fi = factorize(n)
    prod = 1
    for p, e in fi.factors:
        prod *= p ** e
    assert prod == n
    assert fi.omega == len(fi.factors) == omega_by_gcd(n)
    assert n % fi.radical == 0
    # radical squarefree: no prime square divides it
    for p, _ in fi.factors:
        assert fi.radical % (p * p) != 0
    assert (n == 1) == (fi.factors == ())


_primes_below_2_to_32 = st.integers(2 ** 16 + 1, 2 ** 32).map(sympy.prevprime)
_two_prime_products = st.tuples(_primes_below_2_to_32, _primes_below_2_to_32).map(math.prod)
_prime_powers = st.integers(3, 2 ** 32).map(sympy.prevprime).flatmap(
    lambda p: st.integers(1, math.floor(math.log(FACTOR_LIMIT, p))).map(lambda e: p ** e))


@given(st.one_of(st.integers(1, 10 ** 7), _two_prime_products, _prime_powers))
@example(FACTOR_LIMIT)
@example((2 ** 32 - 17) * (2 ** 32 - 5))  # the two largest primes below 2^32
def test_factorize_matches_sympy(n):
    assert dict(factorize(n).factors) == sympy.factorint(n)


#: composites that fool some Miller-Rabin bases: Carmichael numbers, then the
#: least strong pseudoprimes to the first 1, 2, 3, 4, 5, 6, 7 and 9 prime bases
PSEUDOPRIMES = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 294409, 825265,
                2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                341550071728321, 3825123056546413051]


@pytest.mark.parametrize("n", PSEUDOPRIMES)
def test_is_prime_rejects_pseudoprimes(n):
    assert is_prime(n) is sympy.isprime(n) is False


@given(st.one_of(st.integers(0, 10 ** 6), st.integers(0, FACTOR_LIMIT),
                 st.integers(3, FACTOR_LIMIT).map(sympy.prevprime)))
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_refuses_past_the_factor_limit():
    with pytest.raises(ValidationError):
        is_prime(FACTOR_LIMIT + 1)


# --- primes ----------------------------------------------------------------


def test_nth_prime_examples():
    assert nth_prime(1) == 2
    assert nth_prime(4) == 7
    assert nth_prime(25) == 97


def test_nth_prime_against_sieve():
    for x in range(1, 500):
        assert nth_prime(x) == nth_prime_by_sieve(x)


def test_nth_prime_rejects_zero():
    with pytest.raises(ValidationError):
        nth_prime(0)


def test_rosser_examples():
    # prime_upper is x ln x (1 + ln ln x), padded by 2^-40 and rounded up
    assert prime_upper(4) == 8 >= nth_prime_by_sieve(4) == 7
    assert prime_upper(10) == 43 >= nth_prime_by_sieve(10) == 29
    for x in (4, 10, 997, 10 ** 6, 10 ** 30):
        v = prime_upper(x)
        form = x * math.log(x) * (1 + math.log(math.log(x)))
        assert type(v) is int and form <= v <= form * (1 + 2 ** -39) + 1
    for x in (3, 0, -5, 4.0):
        with pytest.raises(ValidationError):
            prime_upper(x)


def test_rosser_dominates_primes_small():
    for x in range(4, 2000):
        assert nth_prime(x) <= prime_upper(x)


# --- Jacobsthal ------------------------------------------------------------


def test_jacobsthal_examples():
    assert jacobsthal(1) == 1
    assert jacobsthal(10) == 4
    assert jacobsthal(30) == 6


def test_jacobsthal_rejects_zero():
    with pytest.raises(ValidationError):
        jacobsthal(0)


def test_jacobsthal_matches_definition_oracle():
    for d in range(1, 2000):
        assert jacobsthal(d) == jacobsthal_by_definition(d), d


def test_definition_oracle_carries_coprimes_across_its_blocks():
    # blocks shorter than the gaps put consecutive coprimes in different blocks
    for window in (1, 2, 5):
        for d in range(1, 300):
            assert jacobsthal_by_definition(d, window) == jacobsthal(d), (d, window)


def test_jacobsthal_radical_invariance():
    for d in range(1, 2000):
        assert jacobsthal(d) == jacobsthal(factorize(d).radical)


_PRIMES_BELOW_1000 = list(sympy.primerange(2, 1000))


@st.composite
def _prime_sets(draw, primes):
    """(rad, d): at most 8 distinct primes with radical <= 10^7, each raised to
    an exponent of 1 to 3 in d.  A drawn prime that would push the radical past
    10^7 is left out, and an exponent is lowered while it would leave d no
    room under FACTOR_LIMIT for the radical still to come (d = rad fits)."""
    rad, d = 1, 1
    for p in draw(st.lists(st.sampled_from(primes), min_size=1, max_size=8, unique=True)):
        if rad * p <= 10 ** 7:
            rad *= p
            e = draw(st.integers(1, 3))
            while e > 1 and d * p ** e * (10 ** 7 // rad) > FACTOR_LIMIT:
                e -= 1
            d *= p ** e
    return rad, d


@settings(max_examples=12)
@given(st.one_of(_prime_sets(_PRIMES_BELOW_1000[:12]), _prime_sets(_PRIMES_BELOW_1000),
                 _prime_sets(_PRIMES_BELOW_1000[4:])))
@example((9699690, 9699690 * 2 * 3))  # the primes up to 19: the largest search below 10^7
def test_jacobsthal_covering_search_matches_definition(rad_and_d):
    rad, d = rad_and_d
    g = jacobsthal(d)
    assert g == jacobsthal_by_definition(rad)
    assert g == jacobsthal(rad)
    primes = [p for p, _ in factorize(rad).factors]
    if min(primes) >= len(primes) + 1:
        assert g == len(primes) + 1


def test_jacobsthal_of_nine_prime_primorial():
    # 2*3*5*...*23: the full-period scan this search replaced printed g = 40
    assert jacobsthal(223092870) == 40


def test_jacobsthal_bounds_examples():
    k30, s30 = jacobsthal_bounds(30)
    assert k30 == 8 and k30 >= jacobsthal(30) == 6
    assert s30 is not None and s30 >= 6
    k2, s2 = jacobsthal_bounds(2)
    assert k2 == 2 == jacobsthal(2) and s2 is None
    assert jacobsthal_bounds(1) == (1, None)


def test_jacobsthal_bounds_hold():
    for d in range(1, 3000):
        g = jacobsthal(d)
        kanold, stevens = jacobsthal_bounds(d)
        assert g <= kanold
        if stevens is not None:
            assert g <= stevens


# --- squarefree quotient ---------------------------------------------------


def test_squarefree_quotient_examples():
    assert squarefree_quotient(12, 4) == 3
    assert squarefree_quotient(10, 3) == 10
    assert squarefree_quotient(8, 2) == 2


@given(st.integers(1, 10 ** 5), st.integers(1, 10 ** 5))
def test_squarefree_quotient_properties(d, n):
    q = squarefree_quotient(d, n)
    assert d % q == 0
    fi = factorize(q)
    assert all(e == 1 for _, e in fi.factors)
    # every prime of d not dividing gcd-cleared part... q covers primes of d/gcd(d,n)
    rest = d // gcd(d, n)
    assert rest % q == 0 or q % factorize(rest).radical == 0


# --- minimal coprime shift ---------------------------------------------------


def test_minimal_coprime_shift_examples():
    assert minimal_coprime_shift(1, 1, 6) == 0
    k = minimal_coprime_shift(2, 3, 10)
    assert k == 3
    assert k < jacobsthal(10)
    with pytest.raises(ValidationError):
        minimal_coprime_shift(2, 2, 4)


@settings(max_examples=400)
@given(st.integers(0, 500), st.integers(1, 500), st.integers(1, 500))
def test_minimal_coprime_shift_matches_brute_force(a, n, d):
    h = gcd(n, d)
    if gcd(a, h) != 1:
        with pytest.raises(ValidationError):
            minimal_coprime_shift(a, n, d)
        assert brute_min_coprime_shift(a, n, d, k_max=5000) is None
        return
    k = minimal_coprime_shift(a, n, d)
    assert k == brute_min_coprime_shift(a, n, d)
    assert gcd(a + k * n, d) == 1
    assert k < jacobsthal(squarefree_quotient(d, n))


def test_factored_integer_direct():
    fi = FactoredInteger(12, ((2, 2), (3, 1)))
    assert fi.omega == 2
    assert fi.radical == 6
    assert int(fi) == 12
