from fractions import Fraction

import pytest

from torsionlab.algebras import (
    AlgebraElement,
    AlgebraEmbedding,
    Representation,
    SplitSemisimpleAlgebra,
    column_space,
    diagonal_embedding,
    ideal_membership_mod_pi,
    lift_idempotent,
    lift_idempotent_central,
    right_ideal_generator,
    standard_representation,
)
from torsionlab.errors import ValidationError
from torsionlab.linalg import span_leq


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


def test_standard_representation_faithful_unital():
    A = SplitSemisimpleAlgebra((2, 1))
    rep = standard_representation(A)
    assert rep.space_dim == 3
    assert rep.apply(A.one()) == tuple(
        tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)
    )


def scalars(*xs):
    """1x1 rational matrices, one per value."""
    return tuple(((Fraction(x),),) for x in xs)


def test_representation_rejects_unfaithful():
    A = SplitSemisimpleAlgebra((1, 1))
    # e1 acts as 1, e2 as 0: unital and multiplicative, but e2 acts trivially
    with pytest.raises(ValidationError, match="^representation is not faithful$"):
        Representation(A, 1, scalars(1, 0))


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
    lhs = column_space(rep.apply(wn))
    vcol = column_space(rep.apply(vn))
    pcol = column_space(rep.apply(pi))
    assert span_leq(lhs, vcol + pcol)


def test_lift_central_rejects_non_idempotent_w():
    M, N, emb, rep = _scalar_in_m2xm2()
    w = M.one().scale(Fraction(1, 2))
    with pytest.raises(ValidationError):
        lift_idempotent_central(M, N, emb, rep, N.zero(), N.one(), w)
