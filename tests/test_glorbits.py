import itertools
from fractions import Fraction

import pytest

from torsionlab import glorbits
from torsionlab.errors import CapExceededError, InternalCheckError, ValidationError
from torsionlab.glorbits import (
    MatrixGroup,
    Subspace,
    all_subspaces,
    epsilon,
    extremal_subspace,
    generate_group,
    orbit,
    stabilizer,
    subspace_from_vectors,
    verify_bound,
)


def V_of(vectors, ell, dim):
    return subspace_from_vectors(vectors, ell, dim)


def full_space(ell, dim):
    return V_of([tuple(int(i == j) for j in range(dim)) for i in range(dim)], ell, dim)


# --- group closure -------------------------------------------------------------


def test_generate_group_trivial():
    G = generate_group([[[1]]], 5, 1)
    assert G.order == 1


def test_generate_group_cyclic():
    G = generate_group([[[2]]], 5, 1)
    assert G.order == 4
    assert set(g[0][0] for g in G.elements) == {1, 2, 4, 3}


def test_generate_group_involution():
    G = generate_group([[[0, 1], [1, 0]]], 3, 2)
    assert G.order == 2


def test_generate_group_rejects_singular():
    with pytest.raises(ValidationError):
        generate_group([[[0, 0], [0, 0]]], 3, 2)


def test_generate_group_cap():
    with pytest.raises(CapExceededError):
        generate_group([[[1, 1], [0, 1]], [[1, 0], [1, 1]]], 5, 2, cap=10)


def test_generate_group_rejects_nonprime():
    with pytest.raises(ValidationError):
        generate_group([[[1]]], 6, 1)


@pytest.mark.parametrize("ell", [4, 25, 10007 ** 2, 10007 * 10009])
def test_generate_group_rejects_prime_squares_and_products(ell):
    # trial division stops at isqrt(ell), which must itself be tried
    with pytest.raises(ValidationError):
        generate_group([[[1]]], ell, 1)


def test_generate_group_accepts_large_prime():
    assert generate_group([[[1]]], 1000000007, 1).order == 1


# --- orbits and densities --------------------------------------------------------


def test_orbit_examples():
    G = generate_group([[[2]]], 5, 1)
    assert orbit(G, (0,)) == {(0,)}
    assert orbit(G, (1,)) == {(1,), (2,), (3,), (4,)}
    T = generate_group([], 5, 2)
    assert orbit(T, (2, 3)) == {(2, 3)}


def test_epsilon_examples():
    G = generate_group([[[2, 0], [0, 1]]], 5, 2)
    a = (1, 1)
    assert epsilon(G, a, full_space(5, 2)) == 1
    assert epsilon(G, a, V_of([], 5, 2)) == 0
    assert epsilon(G, a, V_of([(1, 0)], 5, 2)) == 0


def test_all_subspaces_counts():
    # F_3^2: 1 + 4 + 1 subspaces
    assert len(all_subspaces(3, 2)) == 6
    # F_2^3: 1 + 7 + 7 + 1
    assert len(all_subspaces(2, 3)) == 16
    # F_5^3: 1 + 31 + 31 + 1
    assert len(all_subspaces(5, 3)) == 64


def test_all_subspaces_cap():
    with pytest.raises(CapExceededError):
        all_subspaces(5, 6, cap=3125)


def test_all_subspaces_cap_checked_before_cache():
    assert len(all_subspaces(3, 2)) == 6  # builds and caches the lattice
    with pytest.raises(CapExceededError) as exc:
        all_subspaces(3, 2, cap=4)
    assert exc.value.required == 9
    assert len(all_subspaces(3, 2, cap=9)) == 6


def test_subspace_contains_matches_elimination():
    # the point-set lookup agrees with reducing v against the echelon basis,
    # also for lists and for coordinates outside [0, ell)
    def by_elimination(W, v):
        w = list(v)
        for row in W.basis:
            piv = next(j for j, x in enumerate(row) if x)
            f = w[piv]
            w = [(x - f * y) % W.ell for x, y in zip(w, row)]
        return all(x % W.ell == 0 for x in w)

    for ell, dim in [(2, 3), (3, 2), (5, 2)]:
        # negative, unreduced and far-off coordinates, on either side of 0
        coords = list(range(-ell - 2, 2 * ell + 2)) + [-(10 ** 9) * ell - 1, 10 ** 9 * ell + ell - 1]
        for W in all_subspaces(ell, dim):
            for v in itertools.product(coords, repeat=dim):
                assert W.contains(v) == W.contains(list(v)) == by_elimination(W, v)
            # vectors of another length lie in no subspace, the zero subspace included
            assert not W.contains(()) and not W.contains((0,) * (dim + 1))
            assert W.points() == frozenset(
                p for p in itertools.product(range(ell), repeat=dim) if by_elimination(W, p)
            )


def test_group_images_memo():
    # the memo holds, per point index, the indices of its images under the
    # inverses of the elements
    from torsionlab.glorbits import _mat_vec

    G = generate_group([[[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[2, 0, 0], [0, 1, 0], [0, 0, 1]]], 3, 3)
    H = generate_group([[[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[2, 0, 0], [0, 1, 0], [0, 0, 1]]], 3, 3)
    points = list(itertools.product(range(3), repeat=3))
    for i, v in enumerate(points):
        preimages = G.preimage_indices(i)
        assert [_mat_vec(g, points[j], 3) for g, j in zip(G.elements, preimages)] == \
            [v] * G.order
        assert G.preimage_indices(i) is preimages
    # the memo takes no part in equality or hashing
    assert G == H and hash(G) == hash(H)
    for W in all_subspaces(3, 3):
        assert stabilizer(G, W) == tuple(
            g for g in G.elements if all(W.contains(_mat_vec(g, r, 3)) for r in W.basis)
        )


# --- extremal subspace ------------------------------------------------------------


def test_extremal_orbit_dense_in_V():
    G = generate_group([[[2]]], 5, 1)
    V = full_space(5, 1)
    W = extremal_subspace(G, (1,), V)
    assert W.basis == V.basis


def test_extremal_scalar_group():
    G = generate_group([[[2]]], 5, 1)
    rep = verify_bound(G, (1,), full_space(5, 1), C=1)
    assert rep.stab_index == 1
    assert rep.bound == 3


def test_extremal_diag_group_exhaustive():
    G = generate_group([[[2, 0], [0, 1]]], 3, 2)
    V = full_space(3, 2)
    W = extremal_subspace(G, (1, 1), V)
    # orbit {(1,1),(2,1)} spans the plane; density 1 beats every line
    assert W.basis == V.basis


def test_extremal_rejects_zero_density():
    G = generate_group([[[2, 0], [0, 1]]], 5, 2)
    with pytest.raises(ValidationError):
        extremal_subspace(G, (1, 1), V_of([(1, 0)], 5, 2))


@pytest.mark.parametrize("gens, a", [
    ([[[1, 0], [0, 1]]], (1, 0)),  # one orbit point
    ([[[2, 0], [0, 2]]], (1, 0)),  # four orbit points on one line
    ([[[2, 0], [0, 1]]], (0, 0)),  # the zero orbit
])
def test_extremal_postcondition_refuses_a_w_its_orbit_points_do_not_span(monkeypatch, gens, a):
    # a lattice holding only the plane makes the plane the maximizer, though
    # the orbit points in it span less
    G = generate_group(gens, 5, 2)
    V = full_space(5, 2)
    monkeypatch.setattr(glorbits, "all_subspaces", lambda ell, dim: [V])
    with pytest.raises(InternalCheckError, match="not generated by its orbit points"):
        extremal_subspace(G, a, V)


def test_extremal_postcondition_counts_only_the_orbit_points_in_w(monkeypatch):
    # the orbit {(1,0,0), (0,0,1)} spans a plane, but only (1,0,0) lies in W
    G = generate_group([[[0, 0, 1], [0, 1, 0], [1, 0, 0]]], 5, 3)
    W = V_of([(1, 0, 0), (0, 1, 0)], 5, 3)
    monkeypatch.setattr(glorbits, "all_subspaces", lambda ell, dim: [W])
    with pytest.raises(InternalCheckError, match="not generated by its orbit points"):
        extremal_subspace(G, (1, 0, 0), full_space(5, 3))


def test_verify_bound_postcondition_refuses_a_stabilizer_that_moves_w(monkeypatch):
    # a stabilizer memo claiming the swap fixes the x-axis: the swap maps the
    # witness orbit point (1, 0) to (0, 1), outside W
    G = generate_group([[[0, 1], [1, 0]]], 5, 2)

    def every_element(G, W):
        G._stabilizers[W] = (bytes([1]) * G.order, G.order)
        return G.elements

    monkeypatch.setattr(glorbits, "stabilizer", every_element)
    with pytest.raises(InternalCheckError, match="stabilizer orbit escaped W"):
        verify_bound(G, (1, 0), V_of([(1, 0)], 5, 2))


def test_extremal_optimality_inequality():
    # for every proper subspace W' < W: eps(W') < eps(W)^(4^(dim W - dim W'))
    G = generate_group([[[0, 1], [1, 0]]], 3, 2)
    a = (1, 0)
    for V in all_subspaces(3, 2):
        orb = orbit(G, a)
        if not any(V.contains(p) for p in orb):
            continue
        W = extremal_subspace(G, a, V)
        eps_w = epsilon(G, a, W)
        for Wp in all_subspaces(3, 2):
            if Wp.leq(W) and Wp.dim < W.dim:
                assert epsilon(G, a, Wp) < eps_w ** (4 ** (W.dim - Wp.dim))


# --- the bound -----------------------------------------------------------------


def test_verify_bound_trivial_group():
    G = generate_group([], 3, 2)
    V = V_of([(1, 0)], 3, 2)
    rep = verify_bound(G, (1, 0), V, C=1)
    assert rep.stab_index == 1
    assert rep.bound == 3
    assert rep.bound_ok


def test_verify_bound_permutation_group():
    G = generate_group([[[0, 1], [1, 0]]], 3, 2)
    V = V_of([(1, 0)], 3, 2)
    rep = verify_bound(G, (1, 0), V, C=2)
    assert rep.bound == 3 * 2 ** 4 == 48
    assert rep.stab_index <= 2
    assert rep.bound_ok
    # witness: H*g*a inside W
    ga = tuple(
        sum(x * y for x, y in zip(row, (1, 0))) % 3 for row in rep.witness_g
    )
    assert rep.W.contains(ga)


def test_verify_bound_precondition():
    G = generate_group([[[2, 0], [0, 1]]], 5, 2)
    with pytest.raises(ValidationError):
        verify_bound(G, (1, 1), V_of([(1, 0)], 5, 2), C=100)


def test_verify_bound_default_C():
    G = generate_group([[[0, 1], [1, 0]]], 3, 2)
    V = V_of([(1, 0)], 3, 2)
    rep = verify_bound(G, (1, 0), V)
    assert rep.C == 2  # exactly 1/eps(V)
    assert rep.epsilon_V == Fraction(1, 2)


def test_stabilizer_direct():
    G = generate_group([[[0, 1], [1, 0]]], 3, 2)
    x_axis = V_of([(1, 0)], 3, 2)
    H = stabilizer(G, x_axis)
    assert len(H) == 1  # only the identity fixes the axis
    diag = V_of([(1, 1)], 3, 2)
    assert len(stabilizer(G, diag)) == 2


def test_determinism():
    G = generate_group([[[0, 1], [1, 0]], [[2, 0], [0, 2]]], 5, 2)
    V = full_space(5, 2)
    r1 = verify_bound(G, (1, 2), V)
    r2 = verify_bound(G, (1, 2), V)
    assert r1 == r2


def test_coset_translate_intersections_below_eps_fourth():
    # for g, g' in distinct stabilizer cosets, the translates of S = orbit∩W
    # overlap in less than an eps(W)^4 fraction of the orbit
    import itertools
    from fractions import Fraction

    from torsionlab.glorbits import _mat_vec

    instances = [
        (generate_group([[[0, 1], [1, 0]]], 3, 2), (1, 0)),
        (generate_group([[[0, 1], [1, 0]], [[2, 0], [0, 2]]], 3, 2), (1, 2)),
        (generate_group([[[2, 0], [0, 1]], [[0, 1], [1, 0]]], 5, 2), (1, 1)),
    ]
    for G, a in instances:
        orb = orbit(G, a)
        for V in all_subspaces(G.ell, G.dim):
            if not any(V.contains(p) for p in orb):
                continue
            rep = verify_bound(G, a, V)
            W = rep.W
            S = frozenset(p for p in orb if W.contains(p))
            H = set(stabilizer(G, W))
            # one representative per coset of the stabilizer
            reps = []
            seen = set()
            for g in G.elements:
                # left cosets g*H: the inequality quantifies over those
                key = frozenset(matmul_rows(g, h, G.ell) for h in H)
                if key not in seen:
                    seen.add(key)
                    reps.append(g)
            eps4 = rep.epsilon_W ** 4
            for g1, g2 in itertools.combinations(reps, 2):
                s1 = {(_mat_vec(g1, p, G.ell)) for p in S}
                s2 = {(_mat_vec(g2, p, G.ell)) for p in S}
                frac = Fraction(len(s1 & s2), len(orb))
                assert frac < eps4


def matmul_rows(a, b, ell):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % ell for col in bt) for row in a
    )


# --- closure by row memo, preimages, orbits and masks against their references -------


def _c6_draws(seed):
    """Every (generators, ell, dim) that criterion 6 draws at ``seed``, in its
    order, with the closure outcome that drives its loop taken from the
    product reference: the elements, or the ``required`` of a refusal."""
    import random

    from oracles import group_elements_by_products

    from torsionlab.selfcheck import _random_gl_generators

    rng = random.Random(seed)
    seen = set()
    for ell in (2, 3, 5):
        for dim in (1, 2, 3):
            made = tries = 0
            while made < (6 if dim == 1 else 40) and tries < 800:
                tries += 1
                gens = _random_gl_generators(rng, ell, dim, rng.randrange(1, 3))
                try:
                    outcome = group_elements_by_products(gens, ell, dim, cap=1500)
                except CapExceededError as exc:
                    yield gens, ell, dim, exc.required
                    continue
                yield gens, ell, dim, outcome
                if frozenset(outcome) not in seen:
                    seen.add(frozenset(outcome))
                    made += 1


def _closure_outcome(gens, ell, dim, cap):
    try:
        return generate_group(gens, ell, dim, cap=cap).elements
    except CapExceededError as exc:
        return exc.required


def _mid_group_requests():
    """The benchmark's two fixed mid-sized orbit-density requests (orders 480
    and 432) at seeds 0 and 1."""
    import os
    import sys

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    import gen

    return [r for seed in (0, 1) for r in gen.finite_models(seed)
            if r["kind"] == "orbit_density" and r["dim"] == 3 and r["ell"] > 2
            and len(r["gens"]) == 2 and not gen.closure_exceeds(r["gens"], r["ell"], 1500)]


@pytest.mark.parametrize("seed", [0, 1])
def test_generate_group_matches_the_product_reference_on_c6_draws(seed):
    draws = refusals = 0
    for gens, ell, dim, expected in _c6_draws(seed):
        assert _closure_outcome(gens, ell, dim, 1500) == expected, (gens, ell, dim)
        draws += 1
        refusals += isinstance(expected, int)
    assert draws > 1000 and refusals > 0


def test_generate_group_matches_the_product_reference_on_the_mid_groups():
    from oracles import group_elements_by_products

    reqs = _mid_group_requests()
    assert sorted((r["ell"], len(generate_group(r["gens"], r["ell"], 3).elements))
                  for r in reqs) == [(3, 432), (3, 432), (5, 480), (5, 480)]
    for r in reqs:
        assert generate_group(r["gens"], r["ell"], 3).elements == \
            group_elements_by_products(r["gens"], r["ell"], 3)
        # a cap inside the closure refuses at the same element
        for cap in (1, 100, 431):
            with pytest.raises(CapExceededError) as ref:
                group_elements_by_products(r["gens"], r["ell"], 3, cap=cap)
            assert _closure_outcome(r["gens"], r["ell"], 3, cap) == ref.value.required == cap + 1


def test_group_links_rebuild_the_elements():
    from oracles import _mat_mul

    G = generate_group([[[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[2, 0, 0], [0, 1, 0], [0, 0, 1]]], 3, 3)
    assert len(G.links) == G.order - 1
    for k, (parent, gen) in enumerate(G.links, start=1):
        assert parent < k
        assert G.elements[k] == _mat_mul(G.elements[parent], G.generators[gen], 3)


def _small_groups():
    return [
        generate_group([[[2]]], 5, 1),
        generate_group([], 3, 2),
        generate_group([[[0, 1], [1, 0]], [[2, 0], [0, 2]]], 5, 2),
        generate_group([[[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[2, 0, 0], [0, 1, 0], [0, 0, 1]]], 3, 3),
        generate_group([[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]], 2, 3),
    ]


@pytest.mark.parametrize("generator", [None, 0])
def test_images_match_matrix_vector_products(generator):
    # None: g maps the point of every preimage index j back to v, for every
    # element g; 0: the first generator s maps the point of its inverse
    # permutation's entry j back to the point of index j
    from torsionlab.glorbits import _mat_vec

    groups = _small_groups() + [generate_group(r["gens"], r["ell"], 3)
                                for r in _mid_group_requests()[:2]]
    assert any(not G.generators for G in groups)
    checked = 0
    for G in groups:
        points = list(itertools.product(range(G.ell), repeat=G.dim))
        if generator is None:
            for i, v in enumerate(points):
                preimages = G.preimage_indices(i)
                assert len(preimages) == G.order
                assert all(_mat_vec(g, points[j], G.ell) == v
                           for g, j in zip(G.elements, preimages))
        elif G.generators:
            s, perm = G.generators[generator], G._inverse_perms[generator]
            assert sorted(perm) == list(range(len(points)))
            assert all(_mat_vec(s, points[j], G.ell) == v for j, v in zip(perm, points))
        else:
            continue
        checked += 1
    assert checked == len(groups) - (generator is not None)


@pytest.mark.parametrize("seed", [0, 1])
def test_orbits_match_the_products_on_c6_draws(seed):
    # every point's orbit is {g*a for g in the elements}; one product sweep
    # per orbit covers all of its points
    from torsionlab.glorbits import _mat_vec

    groups = {}
    for gens, ell, dim, expected in _c6_draws(seed):
        if not isinstance(expected, int):
            groups.setdefault(frozenset(expected), (gens, ell, dim, expected))
    points = 0
    for gens, ell, dim, elements in groups.values():
        G = generate_group(gens, ell, dim, cap=1500)
        left = set(itertools.product(range(ell), repeat=dim))
        while left:
            a = min(left)
            orb = {_mat_vec(g, a, ell) for g in elements}
            for b in orb:
                assert orbit(G, b) == orb, (gens, ell, dim, b)
            left -= orb
            points += len(orb)
    assert len(groups) > 200 and points > 7000


def test_group_holds_no_per_element_table():
    # the group keeps its generators' permutations and the preimages asked for;
    # orbits and densities ask for none, a report for those of W's basis rows
    # and of its witness point g*a
    from torsionlab.glorbits import _mat_vec, _point_index

    for r in _mid_group_requests()[:2]:
        G = generate_group(r["gens"], r["ell"], 3)
        a = tuple(r["a"])
        orb = orbit(G, a)
        Vs = [V for V in all_subspaces(G.ell, 3) if orb & V.points()]
        epsilon(G, a, Vs[0])
        assert G._preimages == {}
        reports = [verify_bound(G, a, V) for V in Vs]
        asked = {_point_index(row, G.ell) for rep in reports for row in rep.W.basis}
        asked |= {_point_index(_mat_vec(rep.witness_g, a, G.ell), G.ell) for rep in reports}
        assert set(G._preimages) == asked
        assert all(len(pre) == G.order for pre in G._preimages.values())
        assert set(vars(G)) == {"ell", "dim", "generators", "elements", "links",
                                "_preimages", "_orbits", "_stabilizers", "_inverse_perms"}
        assert [len(perm) for perm in G._inverse_perms] == [G.ell ** 3] * len(G.generators)


def test_subspace_masks_match_the_point_sets():
    for ell in (2, 3, 5):
        for dim in (1, 2, 3):
            index = {p: i for i, p in enumerate(itertools.product(range(ell), repeat=dim))}
            lattice = all_subspaces(ell, dim)
            for W in lattice:
                assert W.mask == sum(1 << index[p] for p in W.points())
            for W in lattice:
                for U in lattice:
                    assert W.leq(U) == all(U.contains(r) for r in W.basis)


def test_lattice_subspaces_hold_only_their_masks():
    # ranking the F_3^4 lattice for an orbit builds every subspace's mask and
    # leaves no other point set on the cached subspaces
    G = generate_group([[[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]]], 3, 4)
    rep = verify_bound(G, (1, 2, 0, 0), full_space(3, 4))
    assert rep.orbit == orbit(G, (1, 2, 0, 0)) and len(rep.orbit) == 4
    for W in all_subspaces(3, 4):
        assert set(vars(W)) == {"ell", "ambient_dim", "basis", "mask"}


def _reports_by_products(G, a):
    """For each V the orbit of a meets: V, W, W's stabilizer, and the report's
    W, index and witness, all by matrix-vector products over the elements."""
    from oracles import (
        _span_by_coefficients, extremal_subspace_by_scan, images_by_products, verify_bound_by_scan)

    out = []
    orb = frozenset(images_by_products(G, a))
    for V in all_subspaces(G.ell, G.dim):
        if not orb & _span_by_coefficients(V):
            continue
        rep = verify_bound_by_scan(G, a, V)
        W = extremal_subspace_by_scan(G, a, V)
        in_w = _span_by_coefficients(W)
        keep = [True] * G.order
        for row in W.basis:
            keep = [k and p in in_w for k, p in zip(keep, images_by_products(G, row))]
        stab = tuple(itertools.compress(G.elements, keep))
        out.append((V, W, stab, rep.W, rep.stab_index, rep.witness_g))
    return out


def test_table_and_product_paths_agree():
    # the library's path (the generators' inverse permutations, preimages along
    # the links, the shared witness walk) against products over the elements:
    # stabilizer, extremal_subspace and verify_bound's W, index and witness_g
    instances = [(G, (1,) * G.dim) for G in _small_groups()]
    instances += [(generate_group(r["gens"], r["ell"], 3), tuple(r["a"]))
                  for r in _mid_group_requests()[:2]]
    for G, a in instances:
        ref = generate_group(G.generators, G.ell, G.dim)
        got = []
        for V in all_subspaces(G.ell, G.dim):
            if not orbit(G, a) & V.points():
                continue
            rep = verify_bound(G, a, V)
            W = extremal_subspace(G, a, V)
            got.append((V, W, stabilizer(G, W), rep.W, rep.stab_index, rep.witness_g))
        assert got and got == _reports_by_products(ref, a), (G.generators, G.ell, a)
        assert G._preimages and not ref._preimages


# --- the per-orbit memo against the per-V lattice scan --------------------------------


def _equivalence_groups():
    """Generators of two random groups for every (ell, dim) of the benchmark's
    GL shapes, of the small groups, and of the benchmark's mid-sized groups
    (orders 480, 432) at seeds 0 and 1."""
    import random

    from torsionlab.selfcheck import _random_gl_generators

    mid = [(r["gens"], r["ell"], 3) for r in _mid_group_requests()]  # puts gen on sys.path
    import gen

    rng = random.Random(13)
    out = []
    for ell, dim in gen.GL_SHAPES:
        while sum(1 for _, e, d in out if (e, d) == (ell, dim)) < 2:
            gens = _random_gl_generators(rng, ell, dim, rng.randrange(1, 3))
            if not isinstance(_closure_outcome(gens, ell, dim, 200), int):
                out.append((gens, ell, dim))
    return out + [(G.generators, G.ell, G.dim) for G in _small_groups()] + mid


def _outcome(f, *args):
    """f's result, with the type and value of every report field, or its error."""
    try:
        res = f(*args)
    except (ValidationError, InternalCheckError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(res, glorbits.OrbitDensityReport):
        return {name: (type(x), x) for name, x in vars(res).items()}
    return res


def test_orbit_memo_matches_the_per_v_scan():
    from oracles import extremal_subspace_by_scan, verify_bound_by_scan

    pairs = 0
    for gens, ell, dim in _equivalence_groups():
        ref = generate_group(gens, ell, dim)
        lattice = all_subspaces(ell, dim)
        # extremal_subspace alone, then verify_bound, on one group; verify_bound
        # alone with V in reverse order on a second; explicit C, for the first
        # a of each orbit, on a third
        alone, backwards, explicit = (generate_group(gens, ell, dim) for _ in range(3))
        orbits = set()
        points = {V: V.points() for V in lattice}
        for a in itertools.product(range(ell), repeat=dim):
            orb = orbit(ref, a)
            meets = [V for V in lattice if orb & points[V]]
            misses = [V for V in lattice if not orb & points[V]]
            expected = {V: _outcome(verify_bound_by_scan, ref, a, V) for V in lattice}
            for V in meets:
                assert extremal_subspace(alone, a, V) == expected[V]["W"][1], (gens, a, V)
            for V in misses:
                assert _outcome(extremal_subspace, alone, a, V) == \
                    _outcome(extremal_subspace_by_scan, ref, a, V) == \
                    ("ValidationError", "orbit density in V is zero")
            for V in meets:
                assert _outcome(verify_bound, alone, a, V) == expected[V], (gens, a, V)
            pairs += len(meets)
            for V in reversed(lattice):
                assert _outcome(verify_bound, backwards, a, V) == expected[V], (gens, a, V)
            if orb in orbits:
                continue
            orbits.add(orb)
            for V in meets + misses[:1]:
                eps = epsilon(ref, a, V)
                # 1/eps(V) and more pass; 1/2 and 0 are below 1; 1 and 7/3 fail
                # the density precondition whenever eps(V) is small enough
                Cs = [Fraction(1, 2), 0, 1, Fraction(7, 3)] + ([1 / eps, 1 / eps + 1] if eps else [])
                for C in Cs:
                    assert _outcome(verify_bound, explicit, a, V, C) == \
                        _outcome(verify_bound_by_scan, ref, a, V, C), (gens, a, V, C)
    assert pairs > 5000


def test_one_orbit_ranks_once_and_computes_each_stabilizer_once(monkeypatch):
    # over one orbit's V loop the lattice is ranked once, _density_key_cmp
    # decides only among the per-dimension winners, and each distinct W's
    # stabilizer is computed once, also when the loop runs again
    counts = {"cmp": 0, "lattice": 0}
    stabilized = []
    real_cmp, real_stab, real_lattice = (
        glorbits._density_key_cmp, glorbits.stabilizer, glorbits.all_subspaces)

    def cmp(*args):
        counts["cmp"] += 1
        return real_cmp(*args)

    def stab(G, W, *rest):
        stabilized.append(W)
        return real_stab(G, W, *rest)

    def lattice(*args):
        counts["lattice"] += 1
        return real_lattice(*args)

    monkeypatch.setattr(glorbits, "_density_key_cmp", cmp)
    monkeypatch.setattr(glorbits, "stabilizer", stab)
    monkeypatch.setattr(glorbits, "all_subspaces", lattice)
    for r in _mid_group_requests()[:2] + [{"gens": [[[0, 1, 0], [0, 0, 1], [1, 0, 0]]],
                                           "ell": 2, "a": [1, 0, 0]}]:
        G = generate_group(r["gens"], r["ell"], 3)
        a = tuple(r["a"])
        Vs = [V for V in real_lattice(G.ell, 3) if orbit(G, a) & V.points()]
        counts.update(cmp=0, lattice=0)
        stabilized.clear()
        Ws = {verify_bound(G, a, V).W for V in Vs}
        assert 0 < counts["cmp"] <= sum(V.dim for V in Vs)
        assert counts["lattice"] == 1
        assert sorted(W.basis for W in stabilized) == sorted(W.basis for W in Ws)
        for V in reversed(Vs):
            verify_bound(G, a, V)
        assert counts["lattice"] == 1 and len(stabilized) == len(Ws)
