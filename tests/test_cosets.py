import itertools
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torsionlab.cosets import (
    ModelAmbient,
    ModelSubvariety,
    TorsionCoset,
    all_summands,
    corhin_derive,
    coset_order,
    degree_pushforward,
    enumerate_summands,
    hindry_criterion,
    keyprop_witness,
    lang_orbit,
    multiply_coset,
    special_closure,
    summands_within,
    torsion_count,
)
from torsionlab.errors import CapExceededError, ValidationError


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


# --- coset order and multiplication ------------------------------------------


def test_coset_order_examples():
    B = _summand(6, 2, [(0, 0, 1, 0), (0, 0, 0, 1)])
    inside = TorsionCoset((0, 0, 2, 5), B)
    assert inside.order == 1
    assert TorsionCoset((1, 0, 0, 0), B).order == 6
    assert TorsionCoset((2, 0, 0, 0), B).order == 3


def test_multiply_coset():
    amb = ModelAmbient(5, 1)
    B = ModelSubvariety(amb, ())
    x = TorsionCoset((1, 2), B)
    assert multiply_coset(1, x).same_coset(x)
    y = multiply_coset(7, x)  # 7 = 2 mod 5
    assert y.point == (2, 4)
    assert y.order == x.order
    with pytest.raises(ValidationError):
        multiply_coset(2, TorsionCoset((1, 0), _summand(6, 1, [])))


@given(st.integers(1, 40), st.integers(1, 40))
def test_multiply_coset_composition(q1, q2):
    amb = ModelAmbient(7, 1)
    B = ModelSubvariety(amb, ())
    x = TorsionCoset((3, 1), B)
    if gcd(q1 * q2, 7) != 1:
        return
    lhs = multiply_coset(q1 * q2, x)
    rhs = multiply_coset(q1, multiply_coset(q2, x))
    assert lhs.same_coset(rhs)


def test_multiply_coset_permutes_cosets():
    amb = ModelAmbient(6, 1)
    B = _summand(6, 1, [])
    cosets = [TorsionCoset((i, j), B) for i in range(6) for j in range(6)]
    for q in (5, 7, 11):
        images = [multiply_coset(q, x) for x in cosets]
        seen = set(x.point for x in images)
        assert len(seen) == len(cosets)


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


def test_corhin_examples():
    assert corhin_derive(1, 1, 2, 3) == (4, 9, 36)
    assert corhin_derive(5, 0, 3, 7) == (1, 1, 1)
    with pytest.raises(ValidationError):
        corhin_derive(1, 1, 2, 4)


def test_corhin_model_cross_check():
    # V = B itself inside (Z/6)^4 is fixed by [q] on cosets, and the forced
    # torsion counts match the true #B[q]
    B = _summand(6, 2, [(1, 0, 1, 2), (0, 1, 4, 3)])
    forced = corhin_derive(1, B.dim, 5, 7)
    assert forced == (torsion_count(B, 5) * 25, torsion_count(B, 7) * 49, 25 * 49)
    # and for q dividing N the count matches enumeration
    assert torsion_count(B, 2) == 4
    assert torsion_count(B, 3) == 9
    assert torsion_count(B, 6) == 36


# --- Hindry criterion ----------------------------------------------------------


def test_hindry_degenerate_witness():
    amb = ModelAmbient(5, 1)
    B = ModelSubvariety(amb, ())
    rep = hindry_criterion([TorsionCoset((0, 0), B)], 2, 3)
    assert rep.hypothesis_holds and rep.special and rep.degree == 1
    assert rep.degree_condition_holds


def test_hindry_hypothesis_fails():
    amb = ModelAmbient(5, 1)
    B = ModelSubvariety(amb, ())
    rep = hindry_criterion([TorsionCoset((1, 0), B)], 2, 3)
    assert not rep.hypothesis_holds


def test_hindry_vacuous():
    rep = hindry_criterion([], 2, 3)
    assert rep.hypothesis_holds and rep.degree == 0


def test_hindry_rejects_mixed_ambients():
    a = TorsionCoset((0, 0), ModelSubvariety(ModelAmbient(5, 1), ()))
    b = TorsionCoset((0, 0), ModelSubvariety(ModelAmbient(7, 1), ()))
    with pytest.raises(ValidationError):
        hindry_criterion([a, b], 2, 3)


def test_hindry_coset_level_stability():
    # full Lang block of a point of order 5 is permuted by [2] and [3]
    amb = ModelAmbient(5, 2)
    B = ModelSubvariety(amb, ((0, 0, 1, 0), (0, 0, 0, 1)))
    V = [TorsionCoset((s, 0, 0, 0), B) for s in (1, 2, 3, 4)]
    rep = hindry_criterion(V, 2, 3)
    assert rep.hypothesis_holds
    assert rep.degree == 4


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
    assert len(enumerate_summands(amb, 2)) == 1  # builds and caches the catalog
    with pytest.raises(CapExceededError) as exc:
        enumerate_summands(amb, 2, cap=8)
    assert exc.value.required == 9
    with pytest.raises(CapExceededError):
        list(summands_within(amb, {(1, 0), (0, 1)}, cap=8))
    assert len(enumerate_summands(amb, 2, cap=9)) == 1


# the finite-models benchmark ambients and the acceptance (c8) ambients
INDEX_AMBIENTS = sorted({
    (3, 1), (4, 1), (5, 1), (6, 1), (8, 1), (9, 1), (12, 1),
    (2, 2), (3, 2), (4, 2), (6, 2), (8, 2), (12, 2),
})


def _brute_force_within(amb, allowed):
    return [B for B in all_summands(amb) if all(v in allowed for v in B.basis)]


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


@pytest.mark.parametrize("N, g", INDEX_AMBIENTS)
def test_summand_index_matches_brute_force(N, g):
    import random

    amb = ModelAmbient(N, g)
    rng = random.Random(N * 10 + g)
    for allowed in _allowed_sets(amb, rng):
        got = sorted((len(B.basis), B.basis) for B in summands_within(amb, allowed))
        want = sorted((len(B.basis), B.basis) for B in _brute_force_within(amb, allowed))
        assert got == want


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
