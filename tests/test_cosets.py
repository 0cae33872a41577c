import functools
import itertools
from math import gcd

import pytest

import torsionlab.cosets as cst
from torsionlab.cosets import (
    ModelAmbient,
    ModelSubvariety,
    TorsionCoset,
    all_summands,
    degree_pushforward,
    enumerate_summands,
    keyprop_witness,
    lang_orbit,
    special_closure,
    summands_within,
    torsion_count,
)
from oracles import coset_order_by_divisor_scan
from torsionlab.cosets import coset_order_raw
from torsionlab.errors import CapExceededError, InternalCheckError, ValidationError
from torsionlab.integers import factorize
from torsionlab.linalg import free_summand_rows


def _summand(N, g, basis):
    return ModelSubvariety(ModelAmbient(N, g), tuple(basis))


# --- subgroup validity -------------------------------------------------------


def test_summand_accepts_standard_axes():
    B = _summand(6, 2, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert B.dim == 1 and B.order == 36
    assert B.contains((0, 0, 3, 5))
    assert not B.contains((1, 0, 0, 0))


def test_summand_rejects_non_summand():
    # (2,4) has order 5 mod 10: not a free Z/10 summand
    with pytest.raises(ValidationError):
        _summand(10, 1, [(2, 4), (0, 1)])


def test_summand_rejects_odd_rank():
    with pytest.raises(ValidationError):
        _summand(5, 1, [(1, 0)])


def test_summand_skew_basis_is_summand():
    B = _summand(6, 1, [(2, 3), (1, 1)])
    # determinant 2*1 - 3*1 = -1: unimodular, the whole group
    assert B.order == 36
    assert all(B.contains(v) for v in itertools.product(range(6), repeat=2))


def test_summand_q_torsion_cardinality():
    amb = ModelAmbient(12, 2)
    B = ModelSubvariety(amb, ((1, 0, 5, 2), (0, 1, 3, 4)))
    pts = B.elements()
    for q in (1, 2, 3, 4, 6, 12):
        count = sum(1 for x in pts if all(q * c % 12 == 0 for c in x))
        assert count == q ** (2 * B.dim)


# --- orbits ------------------------------------------------------------------


def test_lang_orbit_examples():
    amb = ModelAmbient(5, 1)
    assert lang_orbit(amb, (0, 0), 1) == {(0, 0)}
    assert lang_orbit(amb, (1, 0), 1) == {(1, 0), (2, 0), (3, 0), (4, 0)}
    assert lang_orbit(amb, (1, 0), 2) == {(1, 0), (4, 0)}


def test_lang_orbit_cardinality_formula():
    # |orbit| = phi(d) / #{l^c = 1 mod d}
    for N, c in [(7, 1), (7, 2), (12, 2), (15, 4), (16, 3)]:
        amb = ModelAmbient(N, 1)
        for a in itertools.product(range(N), repeat=2):
            d = amb.element_order(a)
            units = [l for l in range(1, max(d, 2)) if gcd(l, d) == 1]
            kern = sum(1 for l in units if pow(l, c, d) == 1 % d)
            assert len(lang_orbit(amb, a, c)) == len(units) // kern


def test_lang_orbit_cardinality_every_order_up_to_100():
    # one point of each order d <= 100, checked for several exponents
    for d in range(1, 101):
        amb = ModelAmbient(d, 1)
        a = (1, 0)
        assert amb.element_order(a) == d
        units = [l for l in range(1, max(d, 2)) if gcd(l, d) == 1]
        for c in (1, 2, 3, 6):
            kern = sum(1 for l in units if pow(l, c, d) == 1 % d)
            assert len(lang_orbit(amb, a, c)) == len(units) // kern


def test_lang_orbit_refuses_an_order_beyond_the_cap():
    amb = ModelAmbient(20737, 1)  # one above AMBIENT_ORDER_CAP
    with pytest.raises(CapExceededError) as exc:
        lang_orbit(amb, (1, 0), 1)
    assert exc.value.required == 20737
    # the cap bounds ord(a), not N: a point of small order still answers
    assert lang_orbit(amb, (0, 0), 1) == {(0, 0)}
    with pytest.raises(CapExceededError):
        lang_orbit(ModelAmbient(13, 1), (1, 0), 1, cap=12)
    assert len(lang_orbit(ModelAmbient(13, 1), (1, 0), 1, cap=13)) == 12


# --- coset order ------------------------------------------------------------------


def test_coset_order_examples():
    B = _summand(6, 2, [(0, 0, 1, 0), (0, 0, 0, 1)])
    inside = TorsionCoset((0, 0, 2, 5), B)
    assert inside.order == 1
    assert TorsionCoset((1, 0, 0, 0), B).order == 6
    assert TorsionCoset((2, 0, 0, 0), B).order == 3


#: (N, g, basis) of the public-constructor bases of this file, skew ones included
PUBLIC_BASES = [
    (6, 1, [(2, 3), (1, 1)]),
    (4, 1, [(1, 0), (2, 1)]),
    (6, 2, [(0, 0, 1, 0), (0, 0, 0, 1)]),
    (12, 2, [(1, 0, 5, 2), (0, 1, 3, 4)]),
    (15, 2, [(1, 0, 2, 0), (0, 1, 0, 1)]),
]


def _assert_orders_match(B, points):
    assert [coset_order_raw(x, B) for x in points] == [
        coset_order_by_divisor_scan(x, B) for x in points], B.basis


def test_coset_order_matches_the_divisor_scan():
    """The closed form N / gcd(N, quotient coordinates) against the scan over
    the divisors of N: on every point and catalog summand of each ambient of
    order at most 81; on 200 seeded points of (Z/12)^4 against 100 seeded
    rank-2 catalog summands and the whole group; on 200 seeded points
    against each public-constructor basis."""
    import random

    for N, g in [(N, 1) for N in range(1, 10)] + [(2, 2), (3, 2), (2, 3)]:
        amb = ModelAmbient(N, g)
        points = list(amb.elements())
        for B in all_summands(amb):
            _assert_orders_match(B, points)
    rng = random.Random(19)
    amb = ModelAmbient(12, 2)
    points = rng.sample(list(amb.elements()), 200)
    for B in rng.sample(enumerate_summands(amb, 2), 100) + enumerate_summands(amb, 4):
        _assert_orders_match(B, points)
    for N, g, basis in PUBLIC_BASES:
        points = [tuple(rng.randrange(N) for _ in range(2 * g)) for _ in range(200)]
        _assert_orders_match(_summand(N, g, basis), points)


# --- torsion counts -----------------------------------------------------------


def test_torsion_count_examples():
    B6 = _summand(6, 2, [(0, 0, 1, 0), (0, 0, 0, 1)])
    assert torsion_count(B6, 1) == 1
    assert torsion_count(B6, 2) == 4
    B15 = _summand(15, 2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert torsion_count(B15, 2) == 1


def test_degree_pushforward_examples():
    assert degree_pushforward(3, 1, 4, 2) == 3
    assert degree_pushforward(1, 0, 1, 7) == 1
    with pytest.raises(ValidationError):
        degree_pushforward(3, 1, 5, 2)


def test_pushforward_model_single_coset_q_divides_N():
    # [q] on the points of a + B lands on a single coset of qB with
    # |image| = |B| / #B[q]: the model reading of the degree formula
    amb = ModelAmbient(15, 2)
    B = ModelSubvariety(amb, ((1, 0, 2, 0), (0, 1, 0, 1)))
    a = (1, 2, 3, 4)
    pts = {amb.add(a, b) for b in B.elements()}
    for q in (3, 5):
        image = {amb.scale(q, x) for x in pts}
        bq = torsion_count(B, q)
        assert len(image) == len(pts) // bq
        base = amb.scale(q, a)
        qB = {amb.scale(q, b) for b in B.elements()}
        assert image == {amb.add(base, b) for b in qB}
        # model degree of the image: one component
        assert degree_pushforward(1, B.dim, bq, q) * bq == q ** (2 * B.dim)


def test_corhin_model_cross_check():
    # V = B itself inside (Z/6)^4 is fixed by [q] on cosets for q prime to 6,
    # and the torsion counts match the true #B[q]
    B = _summand(6, 2, [(1, 0, 1, 2), (0, 1, 4, 3)])
    points = B.elements()
    for q in (5, 7):
        assert frozenset(B.ambient.scale(q, p) for p in points) == points
        assert torsion_count(B, q) == 1
    # and for q dividing N the count matches enumeration
    for q, count in ((2, 4), (3, 9), (6, 36)):
        assert torsion_count(B, q) == count
        assert sum(1 for p in points if B.ambient.scale(q, p) == B.ambient.zero()) == count


# --- summand enumeration --------------------------------------------------------


def test_enumerate_summands_counts():
    # rank-2 free summands of (Z/4)^4: gaussian(4,2)_2 * 2^(2*2) = 35*16 = 560
    amb = ModelAmbient(4, 2)
    assert len(enumerate_summands(amb, 2)) == 560
    # (Z/3)^4: plain subspace count [4 choose 2]_3 = 130
    assert len(enumerate_summands(ModelAmbient(3, 2), 2)) == 130
    # CRT: (Z/12)^4 = 560 * 130
    assert len(enumerate_summands(ModelAmbient(12, 2), 2)) == 560 * 130


def test_enumerate_summands_distinct():
    amb = ModelAmbient(4, 1)
    subs = enumerate_summands(amb, 2) + enumerate_summands(amb, 0)
    sets = [s.elements() for s in subs]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            assert sets[i] != sets[j]


def test_summand_cap_checked_before_cache():
    amb = ModelAmbient(3, 1)
    assert len(enumerate_summands(amb, 2)) == 1  # nothing is kept: each call checks the cap
    with pytest.raises(CapExceededError) as exc:
        enumerate_summands(amb, 2, cap=8)
    assert exc.value.required == 9
    with pytest.raises(CapExceededError):
        list(summands_within(amb, {(1, 0), (0, 1)}, amb.order, cap=8))
    assert len(enumerate_summands(amb, 2, cap=9)) == 1


# the finite-models benchmark ambients, the acceptance (c8) ambients, and
# (10, 1), (30, 1) and (10, 2), where two or three primes are CRT-combined
INDEX_AMBIENTS = sorted({
    (3, 1), (4, 1), (5, 1), (6, 1), (8, 1), (9, 1), (10, 1), (12, 1), (30, 1),
    (2, 2), (3, 2), (4, 2), (6, 2), (8, 2), (10, 2), (12, 2),
})


@functools.lru_cache(maxsize=1)  # the parameters of one ambient run in a row
def _catalogs(amb):
    return list(all_summands(amb))


def _brute_force_within(amb, allowed, max_order):
    return [B for B in _catalogs(amb)
            if B.order <= max_order and all(v in allowed for v in B.basis)]


def _allowed_sets(amb, rng):
    """Random point sets of several densities, and difference sets of a few
    homothety orbits, the shape special_closure and keyprop_witness ask with."""
    points = list(itertools.product(range(amb.N), repeat=amb.rank))
    out = [set(), {amb.zero()}, set(points)]
    for frac in (0.02, 0.2, 0.6, 0.95):
        out.append(set(rng.sample(points, max(1, int(frac * len(points))))))
    for _ in range(3):
        target = set()
        for _ in range(rng.randrange(1, 4)):
            target |= lang_orbit(amb, rng.choice(points), rng.choice((1, 2, 3)))
        a = rng.choice(sorted(target))
        out.append({amb.add(v, amb.neg(a)) for v in target})
        out.append({amb.add(x, amb.neg(y)) for x in target for y in target})
    return out


# max_order: the ambient order (no rank skipped), and just below N^2 (rank 0 alone)
@pytest.mark.parametrize("N, g, max_order", [
    pytest.param(N, g, bound, id="%d-%d%s" % (N, g, suffix))
    for N, g in INDEX_AMBIENTS
    for bound, suffix in ((N ** (2 * g), ""), (N * N - 1, "-below-N^2"))
])
def test_summand_index_matches_brute_force(N, g, max_order):
    import random

    amb = ModelAmbient(N, g)
    rng = random.Random(N * 10 + g)
    for allowed in _allowed_sets(amb, rng):
        got = sorted((len(B.basis), B.basis)
                     for B in summands_within(amb, allowed, max_order))
        want = sorted((len(B.basis), B.basis)
                      for B in _brute_force_within(amb, allowed, max_order))
        assert got == want


def test_summands_within_the_seventeen_point_target_match_brute_force():
    # the first 17 points in product order of (Z/4)^6: 26 summands have a
    # basis in the target's difference set, the zero summand and 25 of the
    # 166 656 of rank 2
    amb = ModelAmbient(4, 3)
    target = list(itertools.product(range(4), repeat=6))[:17]
    allowed = {amb.add(x, amb.neg(y)) for x in target for y in target}
    got = [B.basis for B in summands_within(amb, allowed, len(target))]
    want = [B.basis for rank in (0, 2) for B in enumerate_summands(amb, rank)
            if all(v in allowed for v in B.basis)]
    assert sorted(got) == sorted(want) and len(want) == 26


# --- closure ---------------------------------------------------------------------


def test_special_closure_zero():
    amb = ModelAmbient(6, 1)
    out = special_closure(amb, [(0, 0)], 1)
    assert len(out) == 1
    assert out[0].point == (0, 0) and out[0].subgroup.dim == 0


def test_special_closure_orbit_is_itself():
    amb = ModelAmbient(5, 1)
    orbit = lang_orbit(amb, (1, 0), 1)
    out = special_closure(amb, orbit, 1)
    assert len(out) == 1
    assert out[0].subgroup.dim == 0
    covered = set()
    for comp in out:
        covered |= lang_orbit(amb, comp.point, 1) if comp.subgroup.dim == 0 else set()
    assert covered == orbit


def test_special_closure_full_group():
    amb = ModelAmbient(3, 1)
    pts = list(itertools.product(range(3), repeat=2))
    out = special_closure(amb, pts, 1)
    assert len(out) == 1
    assert out[0].subgroup.order == 9
    assert out[0].point == (0, 0)


def _closure_points(amb, components, c):
    total = set()
    for comp in components:
        sub = comp.subgroup.elements()
        for o in lang_orbit(amb, comp.point, c):
            for b in sub:
                total.add(amb.add(o, b))
    return total


def test_special_closure_operator_properties():
    amb = ModelAmbient(6, 1)
    c = 1
    S1 = [(1, 0), (2, 3)]
    S2 = S1 + [(4, 5)]
    out1 = special_closure(amb, S1, c)
    out2 = special_closure(amb, S2, c)
    a1 = _closure_points(amb, out1, c)
    a2 = _closure_points(amb, out2, c)
    assert set(S1) <= a1  # extensive
    assert a1 <= a2  # monotone
    again = special_closure(amb, sorted(a1), c)
    assert _closure_points(amb, again, c) == a1  # idempotent
    # stability under every homothety power coprime to N
    for l in (5, 7, 11):
        assert {amb.scale(pow(l, c, 6 * 6), x) for x in a1} <= a1 or {
            amb.scale(pow(l, c, 6), x) for x in a1
        } == a1


# --- witness ---------------------------------------------------------------------


def test_keyprop_witness_orbit_itself():
    amb = ModelAmbient(5, 1)
    a = (1, 0)
    V = lang_orbit(amb, a, 1)
    rep = keyprop_witness(amb, V, a, 1, delta_cap=100)
    assert rep.subgroup.dim == 0
    assert rep.alpha == a
    assert rep.order == 5
    assert rep.within_cap


def test_keyprop_witness_whole_ambient():
    amb = ModelAmbient(3, 1)
    V = set(itertools.product(range(3), repeat=2))
    rep = keyprop_witness(amb, V, (1, 2), 1, delta_cap=10)
    assert rep.subgroup.order == 9
    assert rep.alpha == (0, 0)
    assert rep.order == 1


def test_keyprop_witness_prefers_smaller_order():
    # V contains the orbit of a plus the full block through a smaller-order
    # coset: the witness search must find the smaller order
    amb = ModelAmbient(12, 1)
    a = (1, 0)
    c = 1
    B = ModelSubvariety(amb, ((1, 0), (0, 1)))  # whole group
    V = set(itertools.product(range(12), repeat=2))
    rep = keyprop_witness(amb, V, a, c, delta_cap=5)
    assert rep.order == 1 and rep.subgroup.order == 144


def test_keyprop_witness_sandwich():
    amb = ModelAmbient(6, 1)
    a = (1, 1)
    c = 1
    orbit = lang_orbit(amb, a, c)
    V = set(orbit) | {(0, 3), (3, 0)}
    rep = keyprop_witness(amb, V, a, c, delta_cap=36)
    block = set()
    for o in lang_orbit(amb, rep.alpha, c):
        for b in rep.subgroup.elements():
            block.add(amb.add(o, b))
    assert orbit <= block <= V


def test_keyprop_witness_precondition():
    amb = ModelAmbient(5, 1)
    with pytest.raises(ValidationError):
        keyprop_witness(amb, {(1, 0)}, (1, 0), 1, delta_cap=5)


# --- the trusted catalog path ------------------------------------------------------

# the finite-models benchmark ambients, and a few more N (prime, prime square,
# two primes) at g = 1, 2, and three primes at g = 1
MODEL_AMBIENTS = [(3, 1), (4, 1), (6, 1), (12, 1), (3, 2), (4, 2), (6, 2), (8, 2), (12, 2)]
EXTRA_AMBIENTS = [(N, g) for N in (2, 5, 9, 10) for g in (1, 2)] + [(30, 1)]


def _gaussian_binomial(n, r, p):
    num = den = 1
    for i in range(r):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _catalog_size(N, n, r):
    """Free rank-r summands of (Z/N)^n: prod over p^e || N of [n r]_p p^((e-1) r (n-r)).
    The trivial group (N = 1) has its zero summand alone, at rank 0."""
    if N == 1:
        return int(r == 0)
    out = 1
    for p, e in factorize(N).factors:
        out *= _gaussian_binomial(n, r, p) * p ** ((e - 1) * r * (n - r))
    return out


@pytest.mark.parametrize("N, g", MODEL_AMBIENTS + EXTRA_AMBIENTS)
def test_catalog_sizes_match_closed_form(N, g):
    amb = ModelAmbient(N, g)
    for rank in range(0, amb.rank + 1, 2):
        assert len(enumerate_summands(amb, rank)) == _catalog_size(N, amb.rank, rank)


@pytest.mark.parametrize("N, g", [(6, 1), (12, 1), (6, 2), (12, 2), (10, 2)])
def test_catalog_is_the_crt_product_of_the_per_prime_catalogs(N, g):
    """Catalog contents and order against residue-by-residue CRT of the
    per-prime canonical bases, looked up in a table of [0, N)."""
    amb = ModelAmbient(N, g)
    moduli = [p ** e for p, e in factorize(N).factors]
    crt = {tuple(x % q for q in moduli): x for x in range(N)}
    per_prime = [[basis for _, rows in free_summand_rows(q, p, amb.rank, 2)
                  for basis in itertools.product(*rows)]
                 for (p, _), q in zip(factorize(N).factors, moduli)]
    want = [
        tuple(tuple(crt[residues] for residues in zip(*rows)) for rows in zip(*parts))
        for parts in itertools.product(*per_prime)
    ]
    assert [B.basis for B in enumerate_summands(amb, 2)] == want


def _check_against_public_path(amb, summands, sample):
    """Each summand equals the one the public constructor validates, and its
    membership test agrees with its point set on ``sample(elements)``."""
    for B in summands:
        public = ModelSubvariety(amb, B.basis)  # full SNF validation
        assert public.basis == B.basis and public == B
        elems = B.elements()
        assert all(B.contains(x) == (x in elems) for x in sample(elems))


@pytest.mark.parametrize("N, g", sorted(
    (N, g) for N, g in set(MODEL_AMBIENTS + EXTRA_AMBIENTS) if N ** (2 * g) <= 4096))
def test_catalog_summands_pass_the_public_constructor(N, g):
    """Membership is compared on every point up to order 625; on (Z/6)^4 and
    (Z/8)^4 (4 552 and 8 962 summands) on 16 seeded members and 16 seeded
    points of the ambient per summand, which keeps the test to seconds."""
    import random

    amb = ModelAmbient(N, g)
    points = list(itertools.product(range(N), repeat=amb.rank))
    rng = random.Random(N * 10 + g)

    def sample(elems):
        if len(points) <= 625:
            return points
        return rng.sample(sorted(elems), min(16, len(elems))) + rng.sample(points, 16)

    _check_against_public_path(amb, all_summands(amb), sample)


def test_catalog_sample_of_12_2_passes_the_public_constructor():
    import random

    rng = random.Random(12)
    amb = ModelAmbient(12, 2)
    points = rng.sample(list(itertools.product(range(12), repeat=4)), 200)
    _check_against_public_path(
        amb, rng.sample(list(all_summands(amb)), 2000), lambda elems: points
    )


def test_catalog_build_runs_no_smith_normal_form(monkeypatch):
    calls = []
    real = cst.smith_normal_form

    def counting(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(cst, "smith_normal_form", counting)
    for N, g in ((12, 2), (8, 2), (5, 1)):
        list(all_summands(ModelAmbient(N, g)))
    assert calls == []
    # the membership transform is built on the first query and kept
    B = enumerate_summands(ModelAmbient(12, 2), 2)[-1]
    assert B.contains(B.basis[0]) and B.contains((0, 0, 0, 0))
    assert len(calls) == 1


@pytest.mark.parametrize("N, bad_p, which", [
    pytest.param(4, 2, 7, id="4"),
    pytest.param(12, 2, 7, id="12"),
    pytest.param(12, 3, 7, id="12-p3"),
    pytest.param(4, 2, -1, id="4-last"),
    pytest.param(12, 2, -1, id="12-last"),
    pytest.param(12, 3, -1, id="12-p3-last"),
])
def test_corrupted_per_prime_basis_fails_the_trusted_check(monkeypatch, N, bad_p, which):
    """One row choice of prime ``bad_p`` (the eighth or the last, counted
    over its pivot sets and positions) has a pivot that vanishes mod p, and
    every other choice is valid: the check raises only if it judges the
    combined rows of that position mod ``bad_p`` on the position's own pivot
    column, whichever prime comes first and however late the bad row is
    reached."""
    real = cst._row_choices

    def corrupted(p, rows, n, r):
        out = [(pivots, [list(rows) for rows in positions])
               for pivots, positions in real(p, rows, n, r)]
        if p == bad_p:
            slots = [(rows, k, c) for pivots, positions in out
                     for c, rows in zip(pivots, positions) for k in range(len(rows))]
            rows, k, c = slots[which]
            row = list(rows[k])
            row[c] = p  # the pivot vanishes mod p
            rows[k] = tuple(row)
        return out

    monkeypatch.setattr(cst, "_row_choices", corrupted)
    with pytest.raises(InternalCheckError, match="not free mod %d" % bad_p):
        enumerate_summands(ModelAmbient(N, 2), 2)


def test_trusted_constructor_rejects_a_non_summand():
    """The catalog checks each position's list of row choices, mod every
    prime on that prime's pivot columns, before it builds a summand."""
    with pytest.raises(InternalCheckError, match=r"row \(0, 2\) at position 1 is not free mod 2"):
        cst._check_free(1, [(2, 1), (0, 2)], [(2, (0, 1))])
    # (3, 0) is e_0 mod 2 but vanishes mod 3
    with pytest.raises(InternalCheckError, match=r"row \(3, 0\) at position 0 is not free mod 3"):
        cst._check_free(0, [(1, 0), (3, 0)], [(2, (0, 1)), (3, (0, 1))])
    # each row is judged at its own position: e_1 at position 0 fails
    with pytest.raises(InternalCheckError, match="position 0"):
        cst._check_free(0, [(0, 1)], [(2, (0, 1))])
    cst._check_free(0, [(1, 0), (3, 2)], [(2, (0, 1))])
    cst._check_free(1, [(2, 1)], [(2, (0, 1))])
    amb = ModelAmbient(4, 1)
    B = ModelSubvariety._from_catalog(amb, ((1, 0), (2, 1)))
    assert B == ModelSubvariety(amb, ((1, 0), (2, 1))) and B._colmap == ()


# sha256 of every catalog's bases, rank by rank in catalog order, one
# ``repr(basis)`` line per summand; computed when each summand built its own
# rows, so they pin contents and order across changes to the build
CATALOG_DIGESTS = {
    (3, 1): "231de0ce0de358adb2c862c24e7c0a1679b1cd4f6e91d565a29d47e424b3836c",
    (4, 1): "231de0ce0de358adb2c862c24e7c0a1679b1cd4f6e91d565a29d47e424b3836c",
    (6, 1): "231de0ce0de358adb2c862c24e7c0a1679b1cd4f6e91d565a29d47e424b3836c",
    (12, 1): "231de0ce0de358adb2c862c24e7c0a1679b1cd4f6e91d565a29d47e424b3836c",
    (3, 2): "c2729e94eb66b2f4f1623825d54d993c5dbfb429a528853a300719e607610867",
    (4, 2): "cdd030e53296723153cf5b407cd0bb0dcc2c80cea9c660ee01c4c9435a21e516",
    (6, 2): "9ddca7709be576a7bb8628dee69158f1e57ece1fbd026b753c30aaad8c0d1ff0",
    (8, 2): "3227cdbda3903831d8792ac97a86236a60abbf4aa3f55874dbea8a7159833ba7",
    (12, 2): "1ad1c5fe9acff8a73eaeb456a0df8f29af80bfebcb731739eab57408557b50a7",
    (2, 1): "231de0ce0de358adb2c862c24e7c0a1679b1cd4f6e91d565a29d47e424b3836c",
    (2, 2): "6f6200c0f4ddf892dcad9ee9213faa581a5c978670af1ba91c39ebf29cd35ac7",
    (5, 1): "231de0ce0de358adb2c862c24e7c0a1679b1cd4f6e91d565a29d47e424b3836c",
    (5, 2): "592b97cc4e66318ef9e944adb87bd0785b8a00036654a2c32b67a00bfca90269",
    (9, 1): "231de0ce0de358adb2c862c24e7c0a1679b1cd4f6e91d565a29d47e424b3836c",
    (9, 2): "32bb94cb8a35638d9394dc8c25bfef8368a7964a2e9d5fbacb04674f9344da27",
    (10, 1): "231de0ce0de358adb2c862c24e7c0a1679b1cd4f6e91d565a29d47e424b3836c",
    (10, 2): "8e8258b8c72d42690aa566c8fe2b18411c0b79b331c1f65584c2d40a258484a7",
    (30, 1): "231de0ce0de358adb2c862c24e7c0a1679b1cd4f6e91d565a29d47e424b3836c",
}

# the same digest for one rank of a larger ambient, keyed (N, g, rank);
# recorded before catalogs were built position by position
RANK_DIGESTS = {
    (4, 3, 2): "04d1dbd2ae09f9b3c0a72e36d92ba37d88594d1d5009656a6682cd58a9dab7c7",
    (2, 4, 2): "b846acddba3a7821d9905f3db37da7d15c81b802a5f525ec89975b30f2d2c918",
    (2, 4, 4): "9bfd38734c9ab0fb0d297f5e21213c853fe6be9a350d97c56a170dd3de4958ad",
    (2, 4, 6): "f9292558383383c521758abea3c94b6f9a19dfa42641e0f81d05d7d0b5026555",
    (3, 3, 2): "849b9a1eeba49d61789700aec26486a0776fd7df8812f9059c7dce6447c8574c",
    (3, 3, 4): "e00a1dd3bc52d7c7bc2496a6c7bdf8a3d4648ff937892ac2e1579683523ee723",
}


@pytest.mark.parametrize("N, g", MODEL_AMBIENTS + EXTRA_AMBIENTS)
def test_catalog_digest_is_pinned(N, g):
    import hashlib

    h = hashlib.sha256()
    for B in all_summands(ModelAmbient(N, g)):
        h.update(repr(B.basis).encode() + b"\n")
    assert h.hexdigest() == CATALOG_DIGESTS[N, g]


def test_large_catalog_digests_are_pinned():
    """400 k summands."""
    import hashlib

    for (N, g, rank), digest in RANK_DIGESTS.items():
        h = hashlib.sha256()
        for B in enumerate_summands(ModelAmbient(N, g), rank):
            h.update(repr(B.basis).encode() + b"\n")
        assert h.hexdigest() == digest, (N, g, rank)


@pytest.mark.parametrize("N, g", MODEL_AMBIENTS + EXTRA_AMBIENTS)
def test_catalog_holds_each_row_once(N, g):
    """A catalog shares its row objects: as many as distinct row values, and
    never more than the N^(2g) points (72 800 summands of (Z/12)^4 built
    145 600 rows when each summand built its own)."""
    amb = ModelAmbient(N, g)
    for rank in range(0, amb.rank + 1, 2):
        rows = [row for B in enumerate_summands(amb, rank) for row in B.basis]
        assert len({id(row) for row in rows}) == len(set(rows)) <= amb.order


def test_catalog_size_matches_the_closed_form():
    for N in range(1, 31):
        for n in range(1, 7):
            for r in range(n + 1):
                assert cst.catalog_size(N, n, r) == _catalog_size(N, n, r)


@pytest.mark.parametrize("N", [1, 2, 3, 4, 6])
def test_catalog_size_counts_the_built_catalog(N):
    # the closed form the refusals are decided by, against the catalogs the
    # builder makes; at N = 1 the zero summand is the only one, at rank 0
    for g in (1, 2):
        amb = ModelAmbient(N, g)
        sizes = [cst.catalog_size(N, amb.rank, r) for r in range(0, amb.rank + 1, 2)]
        assert sizes == [len(enumerate_summands(amb, r)) for r in range(0, amb.rank + 1, 2)]
    assert [cst.catalog_size(1, 4, r) for r in (0, 2, 4)] == [1, 0, 0]


def _no_build(*args):
    raise AssertionError("no position list may be built")


@pytest.mark.parametrize("N, g, rank, size", [(2, 5, 4, 53743987), (3, 4, 4, 75913222),
                                              (2, 6, 2, 2794155)])
def test_catalog_past_the_size_cap_is_refused_before_anything_is_built(
        monkeypatch, N, g, rank, size):
    monkeypatch.setattr(cst, "_row_choices", _no_build)
    amb = ModelAmbient(N, g)
    assert cst.catalog_size(N, amb.rank, rank) == size > cst.CATALOG_SIZE_CAP
    with pytest.raises(CapExceededError) as exc:
        enumerate_summands(amb, rank)
    assert exc.value.required == size
    # a one-point target needs no catalog: it answers from the zero summand
    # alone, where the whole-catalog count refused it
    assert [B.basis for B in summands_within(amb, {amb.zero()}, 1)] == [()]
    point = (1,) + (0,) * (amb.rank - 1)
    assert _closure_fields(special_closure(amb, [point], 1)) == [(point, (), N)]
    assert _witness_fields(keyprop_witness(amb, lang_orbit(amb, point, 1), point, 1, 5)) == (
        point, (), N, True)


def test_size_cap_admits_the_largest_answered_catalog():
    # rank 2 of (Z/5)^6 is the largest catalog an answered input reads
    assert cst.catalog_size(5, 6, 2) == 508431 <= cst.CATALOG_SIZE_CAP
    assert cst.catalog_size(4, 6, 2) == 166656 and cst.catalog_size(2, 8, 4) == 200787


def test_one_point_closure_builds_only_the_zero_summand(monkeypatch):
    # a 4-point orbit holds no coset of a 25-point summand, so no position
    # list of rank 2 or 4 of (Z/5)^6 (508 431 summands each) is built
    monkeypatch.setattr(cst, "_row_choices", _no_build)
    out = special_closure(ModelAmbient(5, 3), [(1, 0, 0, 0, 0, 0)], 1)
    assert [(tc.point, tc.subgroup.basis, tc.order) for tc in out] == [
        ((1, 0, 0, 0, 0, 0), (), 5)]


# every (N, g) with N^(2g) <= 4096 and N > 1 (the trivial group has no
# full-rank catalog summand, so its closure fails at the parent too)
ORACLE_AMBIENTS = [(N, g) for g in range(1, 7) for N in range(2, 65) if N ** (2 * g) <= 4096]


def _closure_fields(out):
    return [(tc.point, tc.subgroup.basis, tc.order) for tc in out]


def _witness_fields(wit):
    return wit.alpha, wit.subgroup.basis, wit.order, wit.within_cap


# sha256 of the fields of every call of the scan-oracle test on (Z/2)^10 and
# (Z/2)^12, one ``repr`` line per call: the scan reads whole catalogs, and
# rank 4 of (Z/2)^10 and rank 2 of (Z/2)^12 are past the size cap.  Recorded
# when these ambients first answered, and checked then against the scan
# oracles with the rank-2 summands inside the set found from pairs of its
# vectors in reduced echelon form (``linalg.rref`` over F_2)
PINNED_SCAN_FIELDS = {
    (2, 5): "e78ef7a5fa9088a0ba0902648ec2bf3ca562fb1d2b5480c378cbc03687273673",
    (2, 6): "653953bdf5934538b86163b843f92e9a68227147aac7989b109df49ee3fd044d",
}


@pytest.mark.parametrize("N, g", ORACLE_AMBIENTS)
def test_stable_block_search_matches_the_scan_oracles(N, g):
    """special_closure and keyprop_witness against the per-(B, alpha) scans
    they replaced, field by field, for c = 1, 2, 3: 1-4 random points, the
    zero point, a coset of a small summand plus a point, and (c = 1) the full
    target; keyprop_witness takes V = that target and a random a in S.  Where
    some catalog is past the size cap the fields are compared to
    ``PINNED_SCAN_FIELDS``, and the small summands are coordinate planes."""
    import hashlib
    import random

    from oracles import keyprop_witness_by_scan, special_closure_by_scan

    amb = ModelAmbient(N, g)
    sizes = [cst.catalog_size(N, amb.rank, r) for r in range(0, amb.rank + 1, 2)]
    pinned = hashlib.sha256() if max(sizes) > cst.CATALOG_SIZE_CAP else None
    rng = random.Random(1000 * N + g)

    def rand_point():
        return tuple(rng.randrange(N) for _ in range(amb.rank))

    def check(got, scan):
        if pinned:
            pinned.update(repr(got).encode() + b"\n")
        else:
            assert got == scan()

    # positive-rank summands of at most 9 points: larger cosets make the
    # exact-cover search itself slow
    if pinned:
        axes = [tuple(int(i == j) for j in range(amb.rank)) for i in range(amb.rank)]
        small = [ModelSubvariety(amb, pair) for pair in itertools.combinations(axes, 2)]
    else:
        small = [B for r in range(2, amb.rank + 1, 2) if N ** r <= 9
                 for B in enumerate_summands(amb, r)]
    for c in (1, 2, 3):
        sets = [[rand_point() for _ in range(rng.randrange(1, 5))], [amb.zero()]]
        if c == 1:  # the full target answers alike for every c
            sets.append(list(amb.elements()))
        if small:  # a coset of a small summand and one more point
            alpha = rand_point()
            sets.append([amb.add(alpha, b) for b in rng.choice(small).elements()]
                        + [rand_point()])
        for S in sets:
            check(_closure_fields(special_closure(amb, S, c)),
                  lambda: _closure_fields(special_closure_by_scan(amb, S, c)))
            if len(S) == amb.order and (amb.order > 256 or sum(sizes) > 1000):
                continue  # every summand fits: too many blocks for the scan
            a = rng.choice(S)
            V = set(S)
            for x in S:
                V |= lang_orbit(amb, x, c)
            delta_cap = rng.randrange(1, N + 1)
            check(_witness_fields(keyprop_witness(amb, V, a, c, delta_cap)),
                  lambda: _witness_fields(keyprop_witness_by_scan(amb, V, a, c, delta_cap)))
    if pinned:
        assert pinned.hexdigest() == PINNED_SCAN_FIELDS[N, g]


@pytest.mark.parametrize("c", [1, 2])
@pytest.mark.parametrize("N, g", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_cover_search_matches_the_scan_oracle_on_many_atom_targets(N, g, c):
    """Targets of 6-14 points, where the cover search has many atoms to
    branch on, against the unmemoised search of ``special_closure_by_scan``."""
    import random

    from oracles import special_closure_by_scan

    amb = ModelAmbient(N, g)
    rng = random.Random(100 * N + 10 * g + c)
    for _ in range(8):
        want = rng.randrange(6, 15)
        S, target = [], set()
        while len(target) < want:
            point = tuple(rng.randrange(N) for _ in range(amb.rank))
            orbit = lang_orbit(amb, point, c)
            if len(target | orbit) <= 14:
                S.append(point)
                target |= orbit
        assert _closure_fields(special_closure(amb, S, c)) == _closure_fields(
            special_closure_by_scan(amb, S, c))


@pytest.mark.parametrize("N, g, most", [(2, 3, 9), (2, 4, 4), (3, 2, 9)])
def test_skipping_dominated_blocks_matches_the_scan_oracle(N, g, most):
    """Targets that are unions of 2-3 cosets of summands of at most ``most``
    points and 0-2 more points, where many blocks overlap and most are
    dominated at a node, against ``special_closure_by_scan``, whose search
    skips nothing."""
    import random

    from oracles import special_closure_by_scan

    amb = ModelAmbient(N, g)
    rng = random.Random(10 * N + g)
    small = [B for r in range(2, amb.rank + 1, 2) if N ** r <= most
             for B in enumerate_summands(amb, r)]
    for c in (1, 2):
        for _ in range(4):
            S = [tuple(rng.randrange(N) for _ in range(amb.rank)) for _ in range(rng.randrange(3))]
            for _ in range(rng.randrange(2, 4)):
                alpha = tuple(rng.randrange(N) for _ in range(amb.rank))
                S += [amb.add(alpha, b) for b in rng.choice(small).elements()]
            assert _closure_fields(special_closure(amb, S, c)) == _closure_fields(
                special_closure_by_scan(amb, S, c))


def test_callers_do_not_depend_on_the_order_summands_arrive_in(monkeypatch):
    """special_closure and keyprop_witness give the same fields when
    summands_within yields its summands reversed, or shuffled under a seed:
    random targets on every oracle ambient, and the corpus's requests."""
    import random

    import corpus

    rng = random.Random(22)
    calls = []  # (function of no arguments returning fields)
    for N, g in ORACLE_AMBIENTS:
        amb = ModelAmbient(N, g)
        for c in (1, 2, 3):
            S = [tuple(rng.randrange(N) for _ in range(amb.rank)) for _ in range(rng.randrange(1, 5))]
            V = set().union(*(lang_orbit(amb, x, c) for x in S))
            calls.append(lambda amb=amb, S=S, c=c: _closure_fields(special_closure(amb, S, c)))
            calls.append(lambda amb=amb, V=V, a=S[0], c=c: _witness_fields(
                keyprop_witness(amb, V, a, c, amb.N // 2)))
    gen = corpus._gen()
    for seed in corpus.SEEDS:
        for req in gen.finite_models(seed):
            amb = ModelAmbient(req["N"], req["g"]) if "g" in req else None
            if req["kind"] == "special_closure":
                calls.append(lambda amb=amb, req=req: _closure_fields(
                    special_closure(amb, req["S"], req["c"])))
            elif req["kind"] == "keyprop_witness":
                calls.append(lambda amb=amb, req=req: _witness_fields(keyprop_witness(
                    amb, [tuple(v) for v in req["V"]], req["a"], req["c"], req["N"] // 2)))
    want = [call() for call in calls]
    real, longest = cst.summands_within, []

    def arranged(arrange):
        def within(*args):
            found = list(real(*args))
            longest.append(len(found))
            return iter(arrange(found))
        return within

    for arrange in (lambda Bs: Bs[::-1], lambda Bs: random.Random(0).sample(Bs, len(Bs))):
        monkeypatch.setattr(cst, "summands_within", arranged(arrange))
        assert [call() for call in calls] == want
    assert max(longest) > 2


def test_summand_lists_over_the_whole_ambient_are_the_echelon_enumeration():
    """The classifier sorts every vector of (Z/q)^n into the position lists
    of ``linalg.free_summand_rows``, the independent enumerator, in order."""
    for q in (2, 3, 4, 5, 8, 9, 16, 25, 27):
        p = factorize(q).factors[0][0]
        for n in range(1, 7):
            if q ** n > cst.AMBIENT_ORDER_CAP:
                break
            rows = list(itertools.product(range(q), repeat=n))
            for r in range(n + 1):
                assert list(cst._row_choices(p, rows, n, r)) == [
                    (pivots, [list(choices) for choices in lists])
                    for pivots, lists in free_summand_rows(q, p, n, r)], (q, n, r)


# summand counts past CATALOG_SIZE_CAP, or built at length: run in a child
BOUNDED_HEAVY = [(2, 5), (2, 6), (2, 7), (3, 4), (5, 3)]


def test_summands_within_the_whole_ambient_answer_with_the_catalogs_or_refuse():
    """Every (N, g) with N^(2g) at most the ambient cap but those of
    ``BOUNDED_HEAVY`` (tests/test_cli.py runs them under a CPU limit), with
    the whole ambient allowed and every rank: all the catalogs, or a refusal
    exactly when they hold more than the cap."""
    from math import isqrt

    for g in range(1, 8):
        for N in range(1, isqrt(cst.AMBIENT_ORDER_CAP) + 1):
            amb = ModelAmbient(N, g)
            if amb.order > cst.AMBIENT_ORDER_CAP or (N, g) in BOUNDED_HEAVY:
                continue
            total = sum(cst.catalog_size(N, amb.rank, r) for r in range(0, amb.rank + 1, 2))
            try:
                got = sum(1 for _ in summands_within(amb, set(amb.elements()), amb.order))
            except CapExceededError as exc:
                assert total > exc.value.required > cst.CATALOG_SIZE_CAP, (N, g)
            else:
                assert got == total <= cst.CATALOG_SIZE_CAP, (N, g)
