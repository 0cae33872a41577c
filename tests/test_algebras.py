import contextlib
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    blocks_add,
    blocks_mul,
    blocks_scale,
    blocks_sub,
    embedding_apply_by_fractions,
    embedding_error_by_reference,
    mat_mul,
    primitive_rows,
    representation_apply_by_fractions,
    representation_error_by_reference,
    rref_by_fractions,
    standard_representation_images_by_fractions,
    two_sided_unit_by_solve,
    zeros,
)
from torsionlab import linalg
from torsionlab.algebras import (
    AlgebraElement,
    AlgebraEmbedding,
    Representation,
    SplitSemisimpleAlgebra,
    _idempotent_generator,
    _span_elements,
    column_span,
    diagonal_embedding,
    ideal_membership_mod_pi,
    lift_idempotent,
    lift_idempotent_central,
    right_ideal_generator,
    standard_representation,
)
from torsionlab.errors import ValidationError
from torsionlab.linalg import span_leq


def fraction_rows(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def M2():
    return SplitSemisimpleAlgebra((2,))


def E(alg, bi, i, j):
    return alg.basis_element(bi, i, j)


# --- algebra basics ------------------------------------------------------------


def test_element_arithmetic():
    A = M2()
    e11, e12 = E(A, 0, 0, 0), E(A, 0, 0, 1)
    assert (e11 * e12) == e12
    assert (e12 * e11).is_zero()
    assert (e11 + e12) * e11 == e11
    assert A.one() * e12 == e12
    assert e11.is_idempotent()
    assert not e12.is_idempotent()


def test_products_of_matrix_units_follow_the_relations():
    # e_ij * e_kl = delta_jk * e_il within a block and 0 across blocks; a
    # matrix unit has one nonzero entry, so the one-entry and zero-row paths
    # of __mul__ run
    A = SplitSemisimpleAlgebra((3, 1, 2))
    units = list(zip(A.basis_indices(), A.basis()))
    for (a, i, j), x in units:
        for (b, k, l), y in units:
            expected = A.basis_element(a, i, l) if (a, j) == (b, k) else A.zero()
            assert x * y == expected
            assert x.scale(-3) * (y + A.one()) == (expected + x).scale(-3)


def test_element_data_is_read_back_in_fractions():
    A = M2()
    given = [[[1, 0], [0, 2]]]
    x = AlgebraElement(A, given)
    given[0][0][0] = 5  # the element keeps no reference to its input
    y = A.from_coords([1, 0, 0, 2])
    assert x == y and x.data == y.data == (((1, 0), (0, 2)),)
    for elem in (x, y):
        assert all(type(v) is Fraction for mat in elem.data for row in mat for v in row)


def test_standard_representation_faithful_unital():
    A = SplitSemisimpleAlgebra((2, 1))
    rep = standard_representation(A)
    assert rep.space_dim == 3
    assert rep.apply(A.one()) == tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )


@pytest.mark.parametrize("blocks", [(1,), (2,), (2, 1), (1, 3, 2), (3, 3)])
def test_standard_representation_images_match_the_fraction_construction(blocks):
    A = SplitSemisimpleAlgebra(blocks)
    images = standard_representation(A).images
    assert images == standard_representation_images_by_fractions(A)
    assert all(type(x) is Fraction for m in images for row in m for x in row)


def scalars(*xs):
    """1x1 rational matrices, one per value."""
    return tuple(((Fraction(x),),) for x in xs)


def test_representation_rejects_unfaithful():
    A = SplitSemisimpleAlgebra((1, 1))
    # e1 acts as 1, e2 as 0: unital and multiplicative, but e2 acts trivially
    with pytest.raises(ValidationError, match="^representation is not faithful$"):
        Representation(A, 1, scalars(1, 0))


def test_representation_on_the_zero_space_is_not_faithful():
    A = SplitSemisimpleAlgebra((1,))
    expected = "representation is not faithful"
    assert representation_error_by_reference(A, 0, ((),)) == expected
    assert _error(lambda: Representation(A, 0, ((),))) == expected


@pytest.mark.parametrize("values, message", [
    ((1, 1), "representation is not unital"),
    ((2, -1), "representation is not multiplicative"),
])
def test_representation_rejection_branches(values, message):
    with pytest.raises(ValidationError, match="^%s$" % message):
        Representation(SplitSemisimpleAlgebra((1, 1)), 1, scalars(*values))


@pytest.mark.parametrize("values, message", [
    ((1, 0), "embedding is not injective"),
    ((1, 1), "embedding does not preserve the unit"),
    ((2, -1), "embedding is not multiplicative"),
])
def test_embedding_rejection_branches(values, message):
    # the two-block algebra Q x Q mapped into Q: e1 -> values[0], e2 -> values[1]
    Q = SplitSemisimpleAlgebra((1,))
    images = tuple(Q.from_coords([x]) for x in values)
    with pytest.raises(ValidationError, match="^%s$" % message):
        AlgebraEmbedding(SplitSemisimpleAlgebra((1, 1)), Q, images)


# --- the matrix-unit check against the all-pairs reference ------------------------

# algebras of dimension <= 11, as in the benchmark pairs
_blocks = st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
    lambda b: sum(n * n for n in b) <= 11)


def _error(build):
    try:
        build()
    except ValidationError as exc:
        return str(exc)
    return None


def _conjugator(draw, n):
    """A random g with det 1 (unit lower times unit upper triangular) and its inverse."""
    def unit_triangular(lower):
        return fraction_rows([[1 if i == j else draw(st.integers(-3, 3)) if (j < i) == lower else 0
                           for j in range(n)] for i in range(n)])
    g = mat_mul(unit_triangular(True), unit_triangular(False))
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    return g, tuple(tuple(row[n:]) for row in rref_by_fractions(aug)[0])


def _mutated(draw, blocks, images, zero):
    """images (each a tuple of matrices) with one entry changed, two images
    swapped, one block's images zeroed, or unchanged."""
    images = list(images)
    kind = draw(st.sampled_from(("none", "entry", "entry", "swap", "zero_block")))
    if kind == "entry":
        k = draw(st.integers(0, len(images) - 1))
        t = draw(st.integers(0, len(images[k]) - 1))
        mat = [list(row) for row in images[k][t]]
        i, j = draw(st.integers(0, len(mat) - 1)), draw(st.integers(0, len(mat) - 1))
        mat[i][j] += draw(st.sampled_from((1, -1, Fraction(1, 2), Fraction(-7, 3), 10 ** 20)))
        images[k] = images[k][:t] + (fraction_rows(mat),) + images[k][t + 1:]
    elif kind == "swap" and len(images) > 1:
        a, b = draw(st.lists(st.integers(0, len(images) - 1), min_size=2, max_size=2,
                             unique=True))
        images[a], images[b] = images[b], images[a]
    elif kind == "zero_block":
        b = draw(st.integers(0, len(blocks) - 1))
        start = sum(n * n for n in blocks[:b])
        images[start:start + blocks[b] ** 2] = [zero] * blocks[b] ** 2
    return images


@settings(max_examples=250)
@given(_blocks, st.data())
def test_representation_check_matches_the_all_pairs_reference(blocks, data):
    draw = data.draw
    # a block that acts as zero keeps the map unital and multiplicative but
    # not faithful; otherwise the start is the standard representation
    acting = [draw(st.integers(0, 3)) > 0 for _ in blocks]
    if not any(acting):
        acting[0] = True
    A = SplitSemisimpleAlgebra(tuple(blocks))
    acting_alg = SplitSemisimpleAlgebra(tuple(n for n, on in zip(blocks, acting) if on))
    s = sum(acting_alg.blocks)
    std = iter(standard_representation(acting_alg).images)
    zero = zeros(s, s)
    images = [next(std) if on else zero for n, on in zip(blocks, acting) for _ in range(n * n)]
    if draw(st.booleans()):  # conjugated by a random P, as user_rep requests are
        P, P_inv = _conjugator(draw, s)
        images = [mat_mul(mat_mul(P, m), P_inv) for m in images]
    images = [m for (m,) in _mutated(draw, blocks, [(m,) for m in images], (zero,))]
    expected = representation_error_by_reference(A, s, images)
    assert _error(lambda: Representation(A, s, tuple(images))) == expected


@settings(max_examples=250)
@given(_blocks, st.data())
def test_embedding_check_matches_the_all_pairs_reference(blocks, data):
    draw = data.draw
    M = SplitSemisimpleAlgebra(tuple(blocks))
    k = len(blocks)
    # each target block stacks source blocks up to size 4; a source block
    # placed in no target block maps to zero, and the map is not injective
    assignment = []
    for lst in draw(st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=3),
                             min_size=1, max_size=2)):
        while sum(blocks[i] for i in lst) > 4:
            lst.pop()
        assignment.append(lst)
    N = SplitSemisimpleAlgebra(tuple(sum(blocks[i] for i in lst) for lst in assignment))
    placed = {i: t for t, i in enumerate(sorted({i for lst in assignment for i in lst}))}
    sub = SplitSemisimpleAlgebra(tuple(blocks[i] for i in placed))
    sub_images = iter(diagonal_embedding(sub, N, [[placed[i] for i in lst]
                                                  for lst in assignment]).images)
    zero = N.zero().data
    images = [next(sub_images).data if i in placed else zero
              for i, n in enumerate(blocks) for _ in range(n * n)]
    if draw(st.booleans()):  # conjugated per target block, as the lift requests are
        gs = [_conjugator(draw, n) for n in N.blocks]
        images = [tuple(mat_mul(mat_mul(g, m), g_inv) for m, (g, g_inv) in zip(img, gs))
                  for img in images]
    images = _mutated(draw, blocks, images, zero)
    elems = tuple(AlgebraElement(N, img) for img in images)
    expected = embedding_error_by_reference(M, N, elems)
    assert _error(lambda: AlgebraEmbedding(M, N, elems)) == expected


def test_checks_need_the_products_of_row_by_column_images():
    # M2 -> Q with e11 -> 1, e12 -> 1, e21 -> 0, e22 -> 0: unital, and every
    # F_i * G_j = phi(e_ij) holds, but G_2 * F_2 = phi(e12) * phi(e21) = 0
    # differs from phi(e11) = 1; the space is too small for M2 to act on it
    A = M2()
    images = scalars(1, 1, 0, 0)
    expected = "representation is not multiplicative"
    assert representation_error_by_reference(A, 1, images) == expected
    assert _error(lambda: Representation(A, 1, images)) == expected
    Q = SplitSemisimpleAlgebra((1,))
    elems = tuple(Q.from_coords([x]) for x in (1, 1, 0, 0))
    expected = "embedding is not multiplicative"
    assert embedding_error_by_reference(A, Q, elems) == expected
    assert _error(lambda: AlgebraEmbedding(A, Q, elems)) == expected


def _counting(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


# both checks make 2*dim + k(k-1)/2 products for k blocks: 2*11 + 3 for (3, 1, 1);
# a representation is checked as its embedding into M_s(Q)


def test_representation_check_makes_2dim_plus_k_k_minus_1_products(monkeypatch):
    A = SplitSemisimpleAlgebra((3, 1, 1))
    images = standard_representation(A).images
    calls = {"__mul__": 0, "rank": 0}
    _counting(monkeypatch, AlgebraElement, "__mul__", calls)
    _counting(monkeypatch, linalg, "rank", calls)
    Representation(A, 5, images)
    assert calls == {"__mul__": 2 * 11 + 3, "rank": 0}


def test_embedding_check_makes_2dim_plus_k_k_minus_1_products(monkeypatch):
    M = SplitSemisimpleAlgebra((3, 1, 1))
    N = SplitSemisimpleAlgebra((3, 2))
    images = diagonal_embedding(M, N, [[0], [1, 2]]).images
    calls = {"__mul__": 0, "rank": 0}
    _counting(monkeypatch, AlgebraElement, "__mul__", calls)
    _counting(monkeypatch, linalg, "rank", calls)
    AlgebraEmbedding(M, N, images)
    assert calls == {"__mul__": 2 * 11 + 3, "rank": 0}


# --- integer arithmetic against the per-block Fraction references ------------------

_big = st.integers(-10 ** 30, 10 ** 30)
_entries = st.one_of(
    st.just(0), st.just(0), st.integers(-3, 3), _big,
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
    st.builds(Fraction, _big, st.integers(1, 10 ** 20)),
)


def _element_data(draw, alg):
    return tuple(tuple(tuple(draw(_entries) for _ in range(n)) for _ in range(n))
                 for n in alg.blocks)


@settings(max_examples=200)
@given(_blocks, st.data())
def test_element_arithmetic_matches_the_fraction_reference(blocks, data):
    draw = data.draw
    A = SplitSemisimpleAlgebra(tuple(blocks))
    xd, yd = _element_data(draw, A), _element_data(draw, A)
    if draw(st.booleans()):
        yd = blocks_scale(draw(_entries), xd)  # often equal, proportional or zero
    x, y = AlgebraElement(A, xd), AlgebraElement(A, yd)
    c = draw(_entries)
    for got, expected in ((x + y, blocks_add(xd, yd)), (x - y, blocks_sub(xd, yd)),
                          (x * y, blocks_mul(xd, yd)), (y * x, blocks_mul(yd, xd)),
                          (x.scale(c), blocks_scale(c, xd))):
        assert got.data == expected
        assert all(type(v) is Fraction for mat in got.data for row in mat for v in row)
        assert got == AlgebraElement(A, expected)
        assert hash(got) == hash(AlgebraElement(A, expected))
        assert got.is_zero() == all(v == 0 for mat in expected for row in mat for v in row)
    assert (x == y) == (xd == yd)
    assert x.coords() == tuple(v for mat in xd for row in mat for v in row)
    assert A.from_coords(x.coords()) == x
    assert x.den > 0 and gcd(x.den, *x.num) == 1


@settings(max_examples=200)
@given(_blocks, st.data())
def test_span_elements_is_rref_in_positive_primitive_rows(blocks, data):
    draw = data.draw
    A = SplitSemisimpleAlgebra(tuple(blocks))
    datas = [_element_data(draw, A) for _ in range(draw(st.integers(0, 4)))]
    if datas and draw(st.booleans()):
        datas.append(blocks_scale(draw(_entries), datas[0]))  # proportional or zero
    coords = [[v for mat in d for row in mat for v in row] for d in datas]
    span = _span_elements(A, [AlgebraElement(A, d) for d in datas])
    assert span == primitive_rows(rref_by_fractions(coords)[0])
    assert all(type(x) is int for row in span for x in row)


@settings(max_examples=100)
@given(_blocks, st.data())
def test_embedding_and_representation_apply_match_the_fraction_reference(blocks, data):
    draw = data.draw
    M = SplitSemisimpleAlgebra(tuple(blocks))
    N = SplitSemisimpleAlgebra((sum(blocks),) + tuple(blocks))
    emb0 = diagonal_embedding(M, N, [list(range(len(blocks)))] + [[i] for i in range(len(blocks))])
    # conjugated per target block, so the images are dense and rational
    gs = [_conjugator(draw, n) for n in N.blocks]
    images = tuple(AlgebraElement(N, tuple(mat_mul(mat_mul(g, m), g_inv)
                                           for m, (g, g_inv) in zip(img.data, gs)))
                   for img in emb0.images)
    emb = AlgebraEmbedding(M, N, images)
    s = sum(N.blocks)
    P, P_inv = _conjugator(draw, s)
    rep = Representation(N, s, tuple(mat_mul(mat_mul(P, m), P_inv)
                                      for m in standard_representation(N).images))
    x = AlgebraElement(M, _element_data(draw, M))
    assert emb.apply(x).data == embedding_apply_by_fractions(emb, x.data)
    z = AlgebraElement(N, _element_data(draw, N))
    for elem in (z, emb.apply(x)):
        applied = rep.apply(elem)
        assert applied == representation_apply_by_fractions(rep, elem.data)
        assert all(type(v) is Fraction for row in applied for v in row)
    assert emb.preimage(emb.apply(x)) == x


@contextlib.contextmanager
def _counting_fractions():
    """Record the arguments of every Fraction built inside the block."""
    made = []
    saved = Fraction.__dict__["__new__"]  # a staticmethod, put back as it was
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)
    Fraction.__new__ = staticmethod(counted)
    try:
        yield made
    finally:
        Fraction.__new__ = saved


def _dominant(rng, n):
    """A diagonally dominant, hence invertible, rational g and its inverse."""
    g = fraction_rows([[Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) + (i == j) * 20
                    for j in range(n)] for i in range(n)])
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    return g, tuple(tuple(row[n:]) for row in rref_by_fractions(aug)[0])


def test_products_and_the_matrix_unit_checks_build_no_fraction():
    import random

    rng = random.Random(3)
    M = SplitSemisimpleAlgebra((2, 1))
    N = SplitSemisimpleAlgebra((3, 2))
    gs = [_dominant(rng, n) for n in N.blocks]
    images = tuple(AlgebraElement(N, tuple(mat_mul(mat_mul(g, m), g_inv)
                                           for m, (g, g_inv) in zip(img.data, gs)))
                   for img in diagonal_embedding(M, N, [[0, 1], [0]]).images)
    P, P_inv = _dominant(rng, 5)
    rep_images = [standard_representation(N).images]
    rep_images.append(tuple(mat_mul(mat_mul(P, m), P_inv) for m in rep_images[0]))
    x, y = images[1], images[2]
    assert x.den > 1 and y.den > 1  # dense rational images
    w = E(M, 0, 0, 0)
    with _counting_fractions() as made:
        emb = AlgebraEmbedding(M, N, images)
        for imgs in rep_images:
            Representation(N, 5, imgs)
        x * y
        rep = standard_representation(N)
        u = emb.apply(w)  # a dense rational idempotent
        e = right_ideal_generator(N, [u * b for b in N.basis()])
        lift = lift_idempotent(M, N, emb, rep, u, w)
        assert made == []
        x.coords()  # reading Fractions back builds them: one per nonzero entry, one zero
        assert len(made) == 1 + sum(1 for v in x.num if v)
    assert u * e == e and e * u == u  # e*N = u*N
    assert lift.is_idempotent()


# --- right ideal generator -------------------------------------------------------


def test_right_ideal_generator_zero_and_unit():
    A = M2()
    assert right_ideal_generator(A, []).is_zero()
    assert right_ideal_generator(A, A.basis()) == A.one()


def test_right_ideal_generator_first_row():
    A = M2()
    e = right_ideal_generator(A, [E(A, 0, 0, 0), E(A, 0, 0, 1)])
    assert e == E(A, 0, 0, 0)


def test_right_ideal_generator_rejects_non_ideal():
    A = M2()
    # span{E11} is not a right ideal: E11 * E12 = E12 falls outside
    with pytest.raises(ValidationError):
        right_ideal_generator(A, [E(A, 0, 0, 0)])


def test_right_ideal_generator_block_ideal():
    A = SplitSemisimpleAlgebra((2, 2))
    gens = [E(A, 1, i, j) for i in range(2) for j in range(2)]
    e = right_ideal_generator(A, gens)
    expected = E(A, 1, 0, 0) + E(A, 1, 1, 1)
    assert e == expected


# --- plain lift --------------------------------------------------------------------


def _scalar_in_m2():
    M = SplitSemisimpleAlgebra((1,))
    N = M2()
    emb = diagonal_embedding(M, N, [[0, 0]])
    rep = standard_representation(N)
    return M, N, emb, rep


def test_lift_idempotent_scalar_in_m2_zero():
    M, N, emb, rep = _scalar_in_m2()
    v = lift_idempotent(M, N, emb, rep, E(N, 0, 0, 0), M.zero())
    assert v.is_zero()


def test_lift_idempotent_unit_ideal():
    M, N, emb, rep = _scalar_in_m2()
    v = lift_idempotent(M, N, emb, rep, N.one(), M.one())
    assert v == M.one()


def test_lift_idempotent_diagonal_subalgebra():
    M = SplitSemisimpleAlgebra((1, 1))
    N = M2()
    # diag(a, b) inside M2
    images = tuple([E(N, 0, 0, 0), E(N, 0, 1, 1)])
    emb = AlgebraEmbedding(M, N, images)
    rep = standard_representation(N)
    u = E(N, 0, 0, 0)
    w = M.basis_element(0, 0, 0)  # diag(1, 0) = E11
    v = lift_idempotent(M, N, emb, rep, u, w)
    assert emb.apply(v) == E(N, 0, 0, 0)


def test_lift_idempotent_rejects_bad_precondition():
    M, N, emb, rep = _scalar_in_m2()
    with pytest.raises(ValidationError):
        lift_idempotent(M, N, emb, rep, E(N, 0, 0, 0), M.one())


def test_lift_idempotent_rejects_non_idempotent_u():
    M, N, emb, rep = _scalar_in_m2()
    with pytest.raises(ValidationError):
        lift_idempotent(M, N, emb, rep, E(N, 0, 0, 1), M.zero())


# --- ideal membership ----------------------------------------------------------------


def test_ideal_membership_trivial_members():
    B = SplitSemisimpleAlgebra((2, 2))
    rep = standard_representation(B)
    pi = E(B, 0, 0, 0) + E(B, 0, 1, 1)  # identity on block 0
    u = E(B, 1, 0, 0)
    assert ideal_membership_mod_pi(B, pi, u, pi, rep)
    assert ideal_membership_mod_pi(B, pi, u, u, rep)


def test_ideal_membership_negative():
    B = SplitSemisimpleAlgebra((2, 2))
    rep = standard_representation(B)
    pi = E(B, 0, 0, 0) + E(B, 0, 1, 1)
    u = E(B, 1, 0, 0)
    b = E(B, 1, 1, 1)
    assert not ideal_membership_mod_pi(B, pi, u, b, rep)


def test_ideal_membership_rejects_noncentral_pi():
    B = M2()
    rep = standard_representation(B)
    with pytest.raises(ValidationError):
        ideal_membership_mod_pi(B, E(B, 0, 0, 0), B.one(), B.one(), rep)


# --- central lift ----------------------------------------------------------------------


@pytest.mark.parametrize("blocks", [(1,), (2,), (1, 1), (1, 2), (2, 2)], ids=str)
def test_two_sided_ideal_unit_is_its_idempotent_generator(blocks):
    """M of each block shape of criterion 7; K = 0 and every sum K of blocks of
    M, spanned by random integer combinations of those blocks' matrix units.
    K's idempotent generator is the two-sided solve's unit and the sum of the
    blocks' units."""
    M = SplitSemisimpleAlgebra(blocks)
    assert _idempotent_generator(M, [], "K") == two_sided_unit_by_solve(M, []) == M.zero()
    rng = random.Random(repr(blocks))
    for r in range(1, len(blocks) + 1):
        for chosen in itertools.combinations(range(len(blocks)), r):
            units = [E(M, bi, i, j).num for bi in chosen
                     for i in range(blocks[bi]) for j in range(blocks[bi])]
            k_basis = []
            while len(k_basis) < len(units):
                rows = [[sum(rng.randrange(-3, 4) * u[k] for u in units) for k in range(M.dim)]
                        for _ in units]
                k_basis = linalg.span_basis(rows)
            unit = sum((M.block_unit(bi) for bi in chosen), M.zero())
            e = _idempotent_generator(M, k_basis, "K")
            assert e == two_sided_unit_by_solve(M, k_basis) == unit, (blocks, chosen)


def _scalar_in_m2xm2():
    M = SplitSemisimpleAlgebra((1,))
    N = SplitSemisimpleAlgebra((2, 2))
    emb = diagonal_embedding(M, N, [[0, 0], [0, 0]])
    rep = standard_representation(N)
    return M, N, emb, rep


def test_lift_central_pi_one():
    M, N, emb, rep = _scalar_in_m2xm2()
    v = lift_idempotent_central(M, N, emb, rep, N.one(), N.one(), M.one())
    assert v == M.one()


def test_lift_central_pi_zero_delegates():
    M, N, emb, rep = _scalar_in_m2xm2()
    u = E(N, 0, 0, 0) + E(N, 0, 1, 1) + E(N, 1, 0, 0) + E(N, 1, 1, 1)
    assert u == N.one()
    v = lift_idempotent_central(M, N, emb, rep, N.zero(), N.one(), M.one())
    assert v == M.one()


def test_lift_central_spec_instance():
    # M = Q * 1 diagonally inside M2 x M2; pi kills the first block;
    # u = E11 in the second block; w = 0: the only valid lift is 0
    M, N, emb, rep = _scalar_in_m2xm2()
    pi = E(N, 0, 0, 0) + E(N, 0, 1, 1)
    u = E(N, 1, 0, 0)
    v = lift_idempotent_central(M, N, emb, rep, pi, u, M.zero())
    assert v.is_zero()


def test_lift_central_two_scalar_blocks():
    # M = Q x Q inside N = Q x Q x Q via (a, a, b); pi kills block 0;
    # u = block 1; w = (0, 0, 0): lift must keep the chain mod pi
    M = SplitSemisimpleAlgebra((1, 1))
    N = SplitSemisimpleAlgebra((1, 1, 1))
    emb = diagonal_embedding(M, N, [[0], [0], [1]])
    rep = standard_representation(N)
    pi = E(N, 0, 0, 0)
    u = E(N, 1, 0, 0)
    w = M.zero()
    v = lift_idempotent_central(M, N, emb, rep, pi, u, w)
    # v = (a, a, b) with chain: im(v)+im(pi) inside im(u)+im(pi) = blocks {0,1}
    # so b = 0; and v idempotent. a may be 0 or 1; the construction picks the
    # generator, which keeps block 1: a = 1.
    assert v.is_idempotent()
    vn = emb.apply(v)
    assert vn.data[2][0][0] == 0


def test_lift_central_chain_holds_nontrivial():
    # subalgebra of diagonal matrices in M2 x M2, pi central on second block
    M = SplitSemisimpleAlgebra((1, 1))
    N = SplitSemisimpleAlgebra((2, 2))
    images = tuple(
        [
            E(N, 0, 0, 0) + E(N, 1, 0, 0),
            E(N, 0, 1, 1) + E(N, 1, 1, 1),
        ]
    )
    emb = AlgebraEmbedding(M, N, images)
    rep = standard_representation(N)
    pi = E(N, 1, 0, 0) + E(N, 1, 1, 1)
    u = E(N, 0, 0, 0)
    w = M.basis_element(0, 0, 0)  # maps to E11 + F11
    v = lift_idempotent_central(M, N, emb, rep, pi, u, w)
    assert v.is_idempotent()
    # chain verified inside the call; sanity: v covers w modulo pi
    vn = emb.apply(v)
    wn = emb.apply(w)
    assert span_leq(column_span([rep.apply(wn)]), column_span([rep.apply(vn), rep.apply(pi)]))


def test_lift_central_rejects_non_idempotent_w():
    M, N, emb, rep = _scalar_in_m2xm2()
    w = M.one().scale(Fraction(1, 2))
    with pytest.raises(ValidationError):
        lift_idempotent_central(M, N, emb, rep, N.zero(), N.one(), w)
