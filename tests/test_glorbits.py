import itertools
from fractions import Fraction

import pytest

from torsionlab.errors import CapExceededError, ValidationError
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
        for W in all_subspaces(ell, dim):
            for v in itertools.product(range(-1, ell + 1), repeat=dim):
                assert W.contains(v) == W.contains(list(v)) == by_elimination(W, v)
            assert W.points() == frozenset(
                p for p in itertools.product(range(ell), repeat=dim) if by_elimination(W, p)
            )


def test_group_images_memo():
    from torsionlab.glorbits import _mat_vec

    G = generate_group([[[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[2, 0, 0], [0, 1, 0], [0, 0, 1]]], 3, 3)
    H = generate_group([[[0, 1, 0], [0, 0, 1], [1, 0, 0]], [[2, 0, 0], [0, 1, 0], [0, 0, 1]]], 3, 3)
    for v in itertools.product(range(3), repeat=3):
        images = G.images(v)
        assert images == tuple(_mat_vec(g, v, 3) for g in G.elements)
        assert G.images(v) is images
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
