"""Deeper cross-checks: brute-force oracles for the search-based operations
and property tests for the exact-arithmetic helpers they rely on."""

import itertools
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    int_from_decimal_by_halves,
    nullspace_by_fractions,
    primitive_rows,
    rref_by_fractions,
    solve_by_fractions,
    span_intersect_by_fractions,
    span_leq_by_fractions,
)
from torsionlab.cosets import (
    ModelAmbient,
    TorsionCoset,
    all_summands,
    keyprop_witness,
    lang_orbit,
    special_closure,
)
from torsionlab.integers import nth_prime, prime_upper
from torsionlab.jsonio import DECIMAL_SPLIT_BITS, decimal_str
from torsionlab.linalg import (
    ceil_root,
    ceil_root_fraction,
    int_span_intersect,
    iroot,
    nullspace,
    rank,
    rref,
    smith_normal_form,
    solve,
    span_basis,
    span_intersect,
    span_leq,
    span_points,
)


# --- decimal output -------------------------------------------------------------

_STR_CHECKED_BITS = 1 << 17  # str() itself takes seconds far above this
_SWITCH = DECIMAL_SPLIT_BITS


@settings(max_examples=60)
@given(st.one_of(st.integers(0, _STR_CHECKED_BITS),
                 st.sampled_from((_SWITCH - 1, _SWITCH, _SWITCH + 1))),
       st.integers(0, 2 ** 32), st.booleans())
@example(0, 0, False)
@example(_SWITCH - 1, 1, True)
@example(_SWITCH, 2, False)
@example(_SWITCH + 1, 3, True)
@example(1 << 21, 4, False)
@example(1 << 21, 5, True)
def test_decimal_str_is_str(bits, seed, negative):
    # a canonical decimal string (no leading zero, '-' exactly for n < 0)
    # that reads back as n is str(n); up to 2^17 bits str(n) is also asked.
    # decimal_str runs under the interpreter's default digit limit.
    n = random.Random(seed).getrandbits(bits) | (1 << bits >> 1)
    if negative:
        n = -n
    assert n.bit_length() == bits
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        s = decimal_str(n)
        sys.set_int_max_str_digits(0)
        if bits <= _STR_CHECKED_BITS:
            assert s == str(n)
    finally:
        sys.set_int_max_str_digits(limit)
    digits = s[1:] if negative and n else s
    assert s.startswith("-") == (n < 0)
    assert digits.isdigit() and digits.isascii() and (digits == "0" or digits[0] != "0")
    assert int_from_decimal_by_halves(s) == n


# --- integer roots -----------------------------------------------------------


@given(st.integers(0, 10 ** 30), st.integers(1, 12))
def test_iroot_is_floor_root(n, k):
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k


def _iroot_by_bisection(n, k):
    lo, hi = 0, 1 << (n.bit_length() // k + 1)  # hi ** k > n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid
    return lo


# n < 2^(64 k) keeps the bisection under 65 steps; n reaches 2^20000 for k >= 313
@settings(max_examples=200)
@given(st.integers(1, 2000).flatmap(
    lambda k: st.tuples(st.integers(0, 2 ** min(20000, 64 * k)), st.just(k))))
def test_iroot_matches_bisection(nk):
    n, k = nk
    assert iroot(n, k) == _iroot_by_bisection(n, k)


@pytest.mark.parametrize("k", [2, 3, 7, 61, 1195])
def test_iroot_at_exact_powers(k):
    for r in (2, 3, 10 ** 6 + 3, (1 << 64) + 1):
        for n in (r ** k - 1, r ** k, r ** k + 1):
            assert iroot(n, k) == _iroot_by_bisection(n, k)


def test_iroot_matches_bisection_at_500k_bits():
    # a 125-bit root: the start comes from one level of recursion on the
    # top 252 000 bits, whose own 63-bit root starts from the float estimate
    import random

    n = random.Random(3).getrandbits(500_000) | 1 << 499_999
    assert iroot(n, 4000) == _iroot_by_bisection(n, 4000)


@given(st.integers(0, 10 ** 24), st.integers(1, 10))
def test_ceil_root(n, k):
    r = ceil_root(n, k)
    assert r ** k >= n
    if r:
        assert (r - 1) ** k < n


@given(st.integers(1, 10 ** 18), st.integers(1, 10 ** 9), st.integers(1, 8))
def test_ceil_root_fraction(num, den, k):
    t = ceil_root_fraction(num, den, k)
    assert t ** k * den >= num
    if t:
        assert (t - 1) ** k * den < num


def test_prime_upper_dominates_primes_in_sieve_range():
    for x in (4, 5, 10, 100, 1234, 10 ** 4):
        assert prime_upper(x) >= nth_prime(x)


# --- exact linear algebra ------------------------------------------------------


@given(
    st.lists(
        st.lists(st.integers(-6, 6), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rref_idempotent_and_span_stable(rows):
    base1, piv1 = rref(rows)
    base2, piv2 = rref(base1)
    assert base1 == base2 and piv1 == piv2
    for r in rows:
        assert span_leq([r], base1)


@settings(max_examples=150)
@given(st.data())
def test_rref_mod_ell_against_brute_force(data):
    ell = data.draw(st.sampled_from((2, 3, 5, 7)))
    nrows, ncols = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 5))
    row = st.lists(st.integers(-2 * ell, 2 * ell), min_size=ncols, max_size=ncols)
    rows = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
    base, pivots = rref(rows, ell)
    # reduced echelon form: unit pivots, zeros left of and around each pivot
    assert pivots == sorted(set(pivots)) and len(base) == len(pivots)
    assert all(0 <= x < ell for r in base for x in r)
    for i, (r, p) in enumerate(zip(base, pivots)):
        assert r[p] == 1 and not any(r[:p])
        assert all(other[p] == 0 for k, other in enumerate(base) if k != i)
    # the basis spans exactly the combinations of the input rows
    combos = {
        tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) % ell for j in range(ncols))
        for coeffs in itertools.product(range(ell), repeat=nrows)
    }
    assert span_points(base, ell, ncols) == combos
    assert len(combos) == ell ** len(base)


_big = st.integers(-10 ** 30, 10 ** 30)
_q_entries = st.one_of(
    st.just(0), st.integers(-3, 3), _big,
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, _big, st.integers(1, 10 ** 20)),
)


@st.composite
def _matrices(draw, entries):
    """Rows of one length (0 to 8 rows, 1 to 8 columns), some of them zero
    rows and some duplicates of earlier rows."""
    ncols = draw(st.integers(1, 8))
    row = st.lists(entries, min_size=ncols, max_size=ncols)
    rows = draw(st.lists(st.one_of(row, st.just([0] * ncols)), max_size=8))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        rows.insert(draw(st.integers(0, len(rows))), list(draw(st.sampled_from(rows))))
    return rows[:8]


@settings(max_examples=300)
@given(_matrices(_q_entries))
def test_rref_over_q_matches_the_fraction_reference(rows):
    base, pivots = rref(rows)
    assert (base, pivots) == rref_by_fractions(rows)
    assert all(type(x) is Fraction for r in base for x in r)
    ints = span_basis(rows)
    assert ints == primitive_rows(base)
    assert all(type(x) is int for r in ints for x in r)


@settings(max_examples=200)
@given(st.sampled_from((2, 3, 5, 7, 101, 2 ** 61 - 1)), _matrices(st.one_of(st.just(0), _big)))
def test_rref_over_f_ell_matches_the_fraction_reference(ell, rows):
    assert rref(rows, ell) == rref_by_fractions(rows, ell)


def test_rref_edge_shapes():
    assert rref([]) == rref_by_fractions([]) == ([], [])
    for rows in ([[0, 0, 0]], [[0, Fraction(-7, 3), 5]], [[Fraction(10 ** 40, 3)]]):
        assert rref(rows) == rref_by_fractions(rows)
    for rows in ([[0, 0, 0]], [[0, -7, 5]], [[10 ** 40]], [[5, 10]]):
        assert rref(rows, 5) == rref_by_fractions(rows, 5)



# --- the rational kernels against their Fraction references -----------------------


def _rows_of(ncols: int):
    return st.lists(st.lists(_q_entries, min_size=ncols, max_size=ncols), max_size=4)


def _combination(data, rows, ncols):
    """A drawn combination of the rows, with rational coefficients."""
    coeffs = data.draw(st.lists(_q_entries, min_size=len(rows), max_size=len(rows)))
    return [sum((Fraction(c) * Fraction(r[j]) for c, r in zip(coeffs, rows)), Fraction(0))
            for j in range(ncols)]


@settings(max_examples=200)
@given(_matrices(_q_entries), st.data())
def test_solve_matches_the_fraction_reference(rows, data):
    # half the right-hand sides are rows @ x0 for a drawn x0, so consistent;
    # the others are drawn freely, and with zero or duplicate rows often
    # inconsistent
    if rows and data.draw(st.booleans()):
        x0 = data.draw(st.lists(_q_entries, min_size=len(rows[0]), max_size=len(rows[0])))
        rhs = [sum((Fraction(a) * b for a, b in zip(r, x0)), Fraction(0)) for r in rows]
    else:
        rhs = data.draw(st.lists(_q_entries, min_size=len(rows), max_size=len(rows)))
    x = solve(rows, rhs)
    assert x == solve_by_fractions(rows, rhs)
    assert x is None or all(type(v) is Fraction for v in x)


def test_solve_reports_inconsistent_systems():
    big = 10 ** 30 + 7
    assert solve([[1, 2], [2, 4]], [1, 3]) is None
    assert solve([[0, 0]], [Fraction(1, big)]) is None
    assert solve([[Fraction(1, big), 0], [1, 0]], [1, 1]) is None
    assert solve([[Fraction(1, big), 0], [1, 0]], [1, big]) == [big, 0]


@settings(max_examples=200)
@given(_matrices(_q_entries), st.data())
def test_span_leq_matches_the_fraction_reference(sup, data):
    ncols = len(sup[0]) if sup else data.draw(st.integers(1, 8))
    sub = data.draw(_rows_of(ncols))
    if sup and data.draw(st.booleans()):
        sub.append(_combination(data, sup, ncols))
    assert span_leq(sub, sup) == span_leq_by_fractions(sub, sup)


@settings(max_examples=200)
@given(_matrices(_q_entries), st.data())
def test_span_intersect_matches_the_fraction_reference(a, data):
    ncols = len(a[0]) if a else data.draw(st.integers(1, 8))
    b = data.draw(_rows_of(ncols))
    if a and data.draw(st.booleans()):
        b.append(_combination(data, a, ncols))  # so the intersection is often nonzero
    inter = span_intersect(a, b)
    assert inter == span_intersect_by_fractions(a, b)
    assert all(type(x) is Fraction for r in inter for x in r)
    assert int_span_intersect(a, b) == primitive_rows(inter)


@settings(max_examples=200)
@given(_matrices(_q_entries))
def test_nullspace_matches_the_fraction_reference(rows):
    kernel = nullspace(rows)
    assert kernel == nullspace_by_fractions(rows)
    assert all(type(x) is Fraction for v in kernel for x in v)


def _leibniz_det(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = (-1) ** inversions
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


@given(
    st.sampled_from((2, 3, 5, 7)),
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
)
def test_rank_mod_ell_detects_invertibility(ell, m):
    assert (rank(m, ell) == len(m)) == (_leibniz_det(m) % ell != 0)


@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=4, max_size=4),
        min_size=2,
        max_size=4,
    ),
    st.lists(st.integers(-5, 5), min_size=4, max_size=4),
)
def test_nullspace_and_solve(rows, rhs):
    for v in nullspace(rows):
        for r in rows:
            assert sum(Fraction(a) * b for a, b in zip(r, v)) == 0
    x = solve(rows, rhs)
    if x is not None:
        for r, t in zip(rows, rhs):
            assert sum(Fraction(a) * b for a, b in zip(r, x)) == t


@given(
    st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=3),
    st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=1, max_size=3),
)
def test_span_intersect_is_the_intersection(a, b):
    inter = span_intersect(a, b)
    assert span_leq(inter, a) and span_leq(inter, b)
    # any vector in both spans is in the intersection span
    for coeffs in itertools.product((-1, 0, 1), repeat=len(a)):
        v = [sum(c * row[j] for c, row in zip(coeffs, a)) for j in range(3)]
        if span_leq([v], b):
            assert span_leq([v], inter)


@settings(max_examples=150)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=2, max_size=4),
        min_size=1,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_smith_normal_form_properties(rows):
    d, u, v = smith_normal_form(rows)
    n, m = len(rows), len(rows[0])
    # D = U @ A @ V exactly
    ua = [[sum(u[i][k] * rows[k][j] for k in range(n)) for j in range(m)] for i in range(n)]
    uav = [[sum(ua[i][k] * v[k][j] for k in range(m)) for j in range(m)] for i in range(n)]
    for i in range(n):
        for j in range(m):
            assert uav[i][j] == (d[i][j] if i < len(d) and j < len(d[i]) else 0)
    # diagonal, non-negative, divisibility chain
    diag = []
    for i in range(n):
        for j in range(m):
            if i != j:
                assert d[i][j] == 0
        if i < m:
            diag.append(d[i][i])
            assert d[i][i] >= 0
    nz = [x for x in diag if x != 0]
    for a_, b_ in zip(nz, nz[1:]):
        assert b_ % a_ == 0
    # unimodularity via integer determinant
    assert abs(_int_det(u)) == 1
    assert abs(_int_det(v)) == 1


def _int_det(mat):
    m = [list(map(Fraction, row)) for row in mat]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = m[c][c]
        m[c] = [x / inv for x in m[c]]
        for r in range(c + 1, n):
            if m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    assert det.denominator == 1
    return det.numerator


# --- closure against a brute-force union search ----------------------------------


def _block_pointset(amb, alpha, B, c):
    pts = set()
    sub = B.elements()
    for o in lang_orbit(amb, alpha, c):
        for b in sub:
            pts.add(amb.add(o, b))
    return frozenset(pts)


def _brute_force_closure(amb, S, c):
    """Minimal union of stable blocks containing S by raw enumeration:
    smallest total point count, then fewest components."""
    target_pts = set()
    for s in S:
        target_pts |= lang_orbit(amb, amb.reduce(s), c)
    # candidate blocks: every (alpha, B); dedupe by point set
    blocks = {}
    for B in all_summands(amb):
        for alpha in itertools.product(range(amb.N), repeat=amb.rank):
            pts = _block_pointset(amb, alpha, B, c)
            blocks.setdefault(pts, (alpha, B))
    needed = [s for s in {amb.reduce(x) for x in S}]
    # a minimal union never carries a block missing every required point
    block_list = sorted(
        (p for p in blocks if any(s in p for s in needed)),
        key=lambda p: (len(p), sorted(p)),
    )
    best = None
    for k in range(1, len(needed) + 1):
        for combo in itertools.combinations(block_list, k):
            union = frozenset().union(*combo)
            if not all(s in union for s in needed):
                continue
            key = (len(union), k)
            if best is None or key < best[0]:
                best = (key, combo)
    return best


@pytest.mark.parametrize("N,g,c", [(2, 2, 1), (3, 1, 1), (4, 1, 1), (3, 1, 2), (6, 1, 1)])
def test_closure_matches_brute_force(N, g, c):
    import random

    rng = random.Random(99 + N + g + c)
    amb = ModelAmbient(N, g)
    for _ in range(6):
        S = [tuple(rng.randrange(N) for _ in range(amb.rank)) for _ in range(rng.randrange(1, 3))]
        out = special_closure(amb, S, c)
        pts = set()
        for comp in out:
            pts |= _block_pointset(amb, comp.point, comp.subgroup, c)
        best = _brute_force_closure(amb, S, c)
        assert best is not None
        (bf_points, bf_components), _combo = best
        assert len(pts) == bf_points
        assert len(out) == bf_components


def test_keyprop_matches_brute_force_minimum():
    import random

    rng = random.Random(7)
    amb = ModelAmbient(6, 1)
    for _ in range(8):
        a = tuple(rng.randrange(6) for _ in range(2))
        extras = [tuple(rng.randrange(6) for _ in range(2)) for _ in range(2)]
        c = rng.choice((1, 2))
        V = set(lang_orbit(amb, a, c))
        for e in extras:
            V |= lang_orbit(amb, e, c)
        wit = keyprop_witness(amb, V, a, c, delta_cap=36)
        # brute force: smallest coset order over all valid blocks through a
        best_order = None
        for B in all_summands(amb):
            pts = _block_pointset(amb, a, B, c)
            if pts <= V:
                order = TorsionCoset(a, B).order
                if best_order is None or order < best_order:
                    best_order = order
        assert wit.order == best_order


# --- multiplicative coset order preservation -------------------------------------


@given(st.integers(1, 60))
def test_multiply_coset_preserves_order(q):
    # [q] on cosets is q * point + the same subgroup; for gcd(q, N) = 1 it is
    # invertible, so it keeps the coset order
    amb = ModelAmbient(12, 1)
    B = next(iter(all_summands(amb, cap=200000)))
    if gcd(q, 12) != 1:
        return
    for pt in [(1, 0), (2, 3), (4, 6), (0, 0)]:
        x = TorsionCoset(pt, B)
        assert TorsionCoset(amb.scale(q, pt), B).order == x.order
