"""Split semisimple algebras over the rationals and idempotent lifting.

An algebra here is a product of full matrix algebras M_{n_1} x ... x M_{n_k}
over Q, elements are per-block rational matrices, and everything downstream
(right-ideal generators, the two idempotent-lifting chains, the ideal
membership equivalence) is exact rational linear algebra.  The classical
facts being exercised: a right ideal of a semisimple algebra is generated by
an idempotent, and idempotents lift along subalgebras compatibly with a
central idempotent splitting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalCheckError, ValidationError
from . import linalg
from .linalg import Matrix, frac_rows, rref, span_intersect, span_leq

#: the command line refuses algebras of larger dimension: the matrix-unit
#: check multiplies 2*dim + k(k-1) pairs of dense rational matrices (k
#: blocks) and the lifts eliminate on dim x dim systems.  Every acceptance
#: pair (dim N <= 14) and benchmark pair (dim N <= 11) fits.
ALGEBRA_DIM_CAP = 16


@dataclass(frozen=True)
class SplitSemisimpleAlgebra:
    """Product of full matrix algebras over Q with the given block sizes."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(b < 1 for b in blocks):
            raise ValidationError("block sizes must be positive, got %r" % (blocks,))

    @property
    def dim(self) -> int:
        return sum(b * b for b in self.blocks)

    def basis_indices(self):
        for bi, n in enumerate(self.blocks):
            for i in range(n):
                for j in range(n):
                    yield bi, i, j

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(
            self,
            tuple(linalg.zeros(n, n) for n in self.blocks),
        )

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple(linalg.identity(n) for n in self.blocks))

    def block_unit(self, bi: int) -> "AlgebraElement":
        """The central idempotent 1_bi: the identity in block bi, zero elsewhere."""
        return AlgebraElement(self, tuple(
            linalg.identity(n) if k == bi else linalg.zeros(n, n)
            for k, n in enumerate(self.blocks)))

    def basis_element(self, bi: int, i: int, j: int) -> "AlgebraElement":
        data = []
        for k, n in enumerate(self.blocks):
            rows = [[Fraction(0)] * n for _ in range(n)]
            if k == bi:
                rows[i][j] = Fraction(1)
            data.append(tuple(tuple(r) for r in rows))
        return AlgebraElement(self, tuple(data))

    def basis(self) -> list["AlgebraElement"]:
        return [self.basis_element(*idx) for idx in self.basis_indices()]

    def from_coords(self, coords) -> "AlgebraElement":
        coords = list(coords)
        if len(coords) != self.dim:
            raise ValidationError("coordinate vector of wrong length")
        data = []
        pos = 0
        for n in self.blocks:
            rows = []
            for i in range(n):
                rows.append(tuple(Fraction(coords[pos + i * n + j]) for j in range(n)))
            data.append(tuple(rows))
            pos += n * n
        return AlgebraElement(self, tuple(data))

    def from_matrices(self, mats) -> "AlgebraElement":
        return AlgebraElement(self, tuple(frac_rows(m) for m in mats))


@dataclass(frozen=True)
class AlgebraElement:
    parent: SplitSemisimpleAlgebra
    data: tuple[Matrix, ...]

    def __post_init__(self):
        if len(self.data) != len(self.parent.blocks):
            raise ValidationError("element has wrong number of blocks")
        for mat, n in zip(self.data, self.parent.blocks):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValidationError("block of wrong shape")

    def coords(self) -> tuple[Fraction, ...]:
        out = []
        for mat in self.data:
            for row in mat:
                out.extend(row)
        return tuple(out)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same(other)
        return AlgebraElement(
            self.parent,
            tuple(linalg.mat_add(a, b) for a, b in zip(self.data, other.data)),
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same(other)
        return AlgebraElement(
            self.parent,
            tuple(linalg.mat_sub(a, b) for a, b in zip(self.data, other.data)),
        )

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same(other)
        return AlgebraElement(
            self.parent,
            tuple(linalg.mat_mul(a, b) for a, b in zip(self.data, other.data)),
        )

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(
            self.parent, tuple(linalg.mat_scale(c, a) for a in self.data)
        )

    def is_zero(self) -> bool:
        return all(all(all(x == 0 for x in row) for row in mat) for mat in self.data)

    def is_idempotent(self) -> bool:
        return self * self == self

    def _same(self, other):
        if self.parent != other.parent:
            raise ValidationError("elements of different algebras")


def _span_elements(alg: SplitSemisimpleAlgebra, elements) -> list:
    """Canonical (rref) basis of the span, returned as coordinate rows."""
    rows = [e.coords() for e in elements]
    base, _ = rref(rows)
    return base


def _check_matrix_units(alg: SplitSemisimpleAlgebra, images, mul, apply, zero, what: str):
    """Raise unless the images of the basis matrix units multiply like them;
    return the images of the corner units e^b_11, one per block.

    A presentation of the relations e_ij * e_kl = delta_jk * e_il is checked,
    with 2*dim + k(k-1) products for k blocks instead of dim^2.  Per block,
    with F_i = phi(e_i1), G_j = phi(e_1j) and P = phi(e_11) = F_1 = G_1:

    - F_i * G_j = phi(e_ij) for all i, j;
    - G_j * F_k = delta_jk * P for all j, k;

    and z_a * z_b = 0 for blocks a != b, where z_a = phi(1_a) is computed
    with ``apply``.  Proof that these give every relation: taking j = 1 and
    i = 1 in the first family gives F_i * P = F_i and P * G_l = G_l, so
    phi(e_ij) * phi(e_kl) = F_i (G_j F_k) G_l = delta_jk * F_i P G_l =
    delta_jk * phi(e_il).  Within its block z_a * phi(e^a_ij) = phi(e^a_ij) =
    phi(e^a_ij) * z_a, hence phi(e^a_ij) * phi(e^b_kl) =
    phi(e^a_ij) z_a z_b phi(e^b_kl) = 0 across blocks.  Conversely each
    checked identity is one of the relations, so the check is exact.  (Over
    Q the last family cannot fail once the unit holds: the z_a are then
    idempotents summing to 1, and trace = rank makes them orthogonal.  It is
    kept so that the proof needs no trace argument.)

    Once phi is multiplicative it is injective iff no corner image is zero:
    if x != 0 lies in the kernel, pick a block b and (i, j) with x_b[i][j]
    != 0; then e^b_1i * x * e^b_j1 = x_b[i][j] * e^b_11 lies in the kernel
    (a two-sided ideal), so phi(e^b_11) = 0; if phi(e^b_11) = 0, e^b_11 is
    itself a nonzero kernel element.
    """
    corners = []
    block_units = []
    pos = 0
    for b, n in enumerate(alg.blocks):
        f = images[pos:pos + n * n:n]
        g = images[pos:pos + n]
        corner = images[pos]
        for i, fi in enumerate(f):
            for j, gj in enumerate(g):
                if mul(fi, gj) != images[pos + i * n + j]:
                    raise ValidationError("%s is not multiplicative" % what)
        for j, gj in enumerate(g):
            for k, fk in enumerate(f):
                if mul(gj, fk) != (corner if j == k else zero):
                    raise ValidationError("%s is not multiplicative" % what)
        corners.append(corner)
        block_units.append(apply(alg.block_unit(b)))
        pos += n * n
    for a, za in enumerate(block_units):
        for b, zb in enumerate(block_units):
            if a != b and mul(za, zb) != zero:
                raise ValidationError("%s is not multiplicative" % what)
    return corners


@dataclass(frozen=True)
class AlgebraEmbedding:
    """An injective unit-preserving algebra map, given on the source basis."""

    source: SplitSemisimpleAlgebra
    target: SplitSemisimpleAlgebra
    images: tuple[AlgebraElement, ...]

    def __post_init__(self):
        if len(self.images) != self.source.dim:
            raise ValidationError("embedding needs one image per source basis element")
        for img in self.images:
            if img.parent != self.target:
                raise ValidationError("embedding images live in the wrong algebra")
        if self.apply(self.source.one()) != self.target.one():
            raise ValidationError("embedding does not preserve the unit")
        corners = _check_matrix_units(self.source, self.images, AlgebraElement.__mul__,
                                      self.apply, self.target.zero(), "embedding")
        if any(corner.is_zero() for corner in corners):
            raise ValidationError("embedding is not injective")

    def apply(self, elem: AlgebraElement) -> AlgebraElement:
        if elem.parent != self.source:
            raise ValidationError("element not in the embedding source")
        out = self.target.zero()
        for c, img in zip(elem.coords(), self.images):
            if c:
                out = out + img.scale(c)
        return out

    def preimage(self, elem: AlgebraElement) -> AlgebraElement | None:
        cols = [img.coords() for img in self.images]
        system = [[cols[i][k] for i in range(len(cols))] for k in range(self.target.dim)]
        sol = linalg.solve(system, list(elem.coords()))
        if sol is None:
            return None
        return self.source.from_coords(sol)


def diagonal_embedding(source: SplitSemisimpleAlgebra, target: SplitSemisimpleAlgebra,
                       assignment: list[list[int]]) -> AlgebraEmbedding:
    """Block-diagonal embedding: target block j stacks copies of the source
    blocks listed in assignment[j] (sizes must add up exactly)."""
    for j, lst in enumerate(assignment):
        if sum(source.blocks[i] for i in lst) != target.blocks[j]:
            raise ValidationError("assignment does not fill target block %d" % j)
    images = []
    for bi, i, jj in source.basis_indices():
        data = []
        for tj, n in enumerate(target.blocks):
            rows = [[Fraction(0)] * n for _ in range(n)]
            off = 0
            for si in assignment[tj]:
                sz = source.blocks[si]
                if si == bi:
                    rows[off + i][off + jj] = Fraction(1)
                off += sz
            data.append(tuple(tuple(r) for r in rows))
        images.append(AlgebraElement(target, tuple(data)))
    return AlgebraEmbedding(source, target, tuple(images))


@dataclass(frozen=True)
class Representation:
    """A faithful unital action of the algebra on Q^space_dim."""

    algebra: SplitSemisimpleAlgebra
    space_dim: int
    images: tuple[Matrix, ...]  # one space matrix per algebra basis element

    def __post_init__(self):
        if len(self.images) != self.algebra.dim:
            raise ValidationError("representation needs one matrix per basis element")
        for m in self.images:
            if len(m) != self.space_dim or any(len(r) != self.space_dim for r in m):
                raise ValidationError("representation matrix of wrong shape")
        if self.apply(self.algebra.one()) != linalg.identity(self.space_dim):
            raise ValidationError("representation is not unital")
        zero = linalg.zeros(self.space_dim, self.space_dim)
        corners = _check_matrix_units(self.algebra, self.images, linalg.mat_mul,
                                      self.apply, zero, "representation")
        if any(corner == zero for corner in corners):
            raise ValidationError("representation is not faithful")

    def apply(self, elem: AlgebraElement) -> Matrix:
        if elem.parent != self.algebra:
            raise ValidationError("element not in the represented algebra")
        acc = [[Fraction(0)] * self.space_dim for _ in range(self.space_dim)]
        for c, m in zip(elem.coords(), self.images):
            if c:
                for r in range(self.space_dim):
                    row = m[r]
                    arow = acc[r]
                    for k in range(self.space_dim):
                        if row[k]:
                            arow[k] += c * row[k]
        return tuple(tuple(row) for row in acc)


def standard_representation(alg: SplitSemisimpleAlgebra) -> Representation:
    """Column action on the direct sum of the block column spaces."""
    s = sum(alg.blocks)
    offsets = []
    off = 0
    for n in alg.blocks:
        offsets.append(off)
        off += n
    images = []
    for bi, i, j in alg.basis_indices():
        rows = [[Fraction(0)] * s for _ in range(s)]
        rows[offsets[bi] + i][offsets[bi] + j] = Fraction(1)
        images.append(tuple(tuple(r) for r in rows))
    return Representation(alg, s, tuple(images))


def column_space(mat: Matrix) -> list:
    """Canonical basis (rref rows) of the column span of a space matrix."""
    cols = list(zip(*mat)) if mat else []
    base, _ = rref(cols)
    return base


def _colspan_sum(mats) -> list:
    vecs = []
    for m in mats:
        vecs.extend(zip(*m))
    base, _ = rref(vecs)
    return base


# ---------------------------------------------------------------------------
# right ideals


def _idempotent_generator_coords(
    mult, ideal_coords: list, label: str
) -> list:
    """Solve for e in span(ideal) with e*x_j = x_j for the canonical basis.

    ``mult`` multiplies two coordinate vectors in the enclosing algebra.
    Returns e's coordinates.  Inconsistency is an internal error: in a
    semisimple algebra every right ideal has an idempotent generator.
    """
    basis, _ = rref(ideal_coords)
    if not basis:
        return None  # the zero ideal
    ncoord = len(basis[0])
    # unknowns t_i; equations: sum_i t_i (v_i * x_j) = x_j, all coords, all j
    cols = [[mult(v, x) for x in basis] for v in basis]
    system = []
    rhs = []
    for jx, x in enumerate(basis):
        for k in range(ncoord):
            system.append([cols[i][jx][k] for i in range(len(basis))])
            rhs.append(x[k])
    sol = linalg.solve(system, rhs)
    if sol is None:
        raise InternalCheckError("no idempotent generator found for %s" % label)
    e = [Fraction(0)] * ncoord
    for t, v in zip(sol, basis):
        if t:
            e = [a + t * b for a, b in zip(e, v)]
    return e


def right_ideal_generator(A: SplitSemisimpleAlgebra, ideal_basis) -> AlgebraElement:
    """The idempotent e with e*A = span(ideal_basis), for a genuine right ideal."""
    elems = list(ideal_basis)
    for e in elems:
        if e.parent != A:
            raise ValidationError("ideal basis element outside the algebra")
    span = _span_elements(A, elems)
    alg_basis = A.basis()
    # verify the right-ideal property exactly
    products = ((x * unit).coords() for x in map(A.from_coords, span) for unit in alg_basis)
    if not span_leq(products, span):
        raise ValidationError("ideal_basis does not span a right ideal")

    def mult(u, v):
        return (A.from_coords(u) * A.from_coords(v)).coords()

    e_coords = _idempotent_generator_coords(mult, span, "right ideal")
    if e_coords is None:
        return A.zero()
    e = A.from_coords(e_coords)
    if not e.is_idempotent():
        raise InternalCheckError("generator is not idempotent")
    # e*A = X, both inclusions
    gen_span = _span_elements(A, [e * u for u in alg_basis])
    if [list(r) for r in gen_span] != [list(r) for r in span]:
        raise InternalCheckError("generated ideal differs from the input ideal")
    return e


# ---------------------------------------------------------------------------
# idempotent lifting


def _check_idempotent(x: AlgebraElement, name: str):
    if not x.is_idempotent():
        raise ValidationError("%s must be idempotent" % name)


def lift_idempotent(
    M: SplitSemisimpleAlgebra,
    N: SplitSemisimpleAlgebra,
    emb: AlgebraEmbedding,
    rep: Representation,
    u: AlgebraElement,
    w: AlgebraElement,
) -> AlgebraElement:
    """Idempotent v in M with im(w) <= im(v) <= im(u) on the represented space.

    Construction: intersect the right ideal u*N with the embedded copy of M
    and take the idempotent generator of the resulting right ideal of M.
    """
    if emb.source != M or emb.target != N or rep.algebra != N:
        raise ValidationError("embedding/representation do not match the algebras")
    if u.parent != N or w.parent != M:
        raise ValidationError("u must live in N and w in M")
    _check_idempotent(u, "u")
    w_n = emb.apply(w)
    im_w = column_space(rep.apply(w_n))
    im_u = column_space(rep.apply(u))
    if not span_leq(im_w, im_u):
        raise ValidationError("image precondition fails: im(w) not inside im(u)")

    n_basis = N.basis()
    uN = _span_elements(N, [u * x for x in n_basis])
    m_embedded = _span_elements(N, [emb.apply(x) for x in M.basis()])
    inter = span_intersect(uN, m_embedded)
    ideal_in_m = []
    for vec in inter:
        pre = emb.preimage(N.from_coords(vec))
        if pre is None:
            raise InternalCheckError("intersection escaped the embedded subalgebra")
        ideal_in_m.append(pre)
    v = right_ideal_generator(M, ideal_in_m)
    # verified conclusions
    im_v = column_space(rep.apply(emb.apply(v)))
    if not (span_leq(im_w, im_v) and span_leq(im_v, im_u)):
        raise InternalCheckError("lifted idempotent misses the image chain")
    return v


def _is_central(alg: SplitSemisimpleAlgebra, x: AlgebraElement) -> bool:
    return all(x * b == b * x for b in alg.basis())


def ideal_membership_mod_pi(
    B: SplitSemisimpleAlgebra,
    pi: AlgebraElement,
    u: AlgebraElement,
    b: AlgebraElement,
    rep: Representation,
) -> bool:
    """b in u*B + pi*B, decided two independent ways that must agree.

    Representation route: im(b) + im(pi) inside im(u) + im(pi).  Direct
    route: solve the linear membership system.  Their agreement is the
    executable form of the ideal-membership equivalence.
    """
    if rep.algebra != B or pi.parent != B or u.parent != B or b.parent != B:
        raise ValidationError("all elements must live in the represented algebra")
    _check_idempotent(pi, "pi")
    if not _is_central(B, pi):
        raise ValidationError("pi must be central")
    _check_idempotent(u, "u")

    im_b_pi = _colspan_sum([rep.apply(b), rep.apply(pi)])
    im_u_pi = _colspan_sum([rep.apply(u), rep.apply(pi)])
    rep_answer = span_leq(im_b_pi, im_u_pi)

    basis = B.basis()
    ideal = _span_elements(B, [u * x for x in basis] + [pi * x for x in basis])
    direct_answer = span_leq([b.coords()], ideal)

    if rep_answer != direct_answer:
        raise InternalCheckError(
            "representation test and direct membership disagree (rep=%s direct=%s)"
            % (rep_answer, direct_answer)
        )
    return rep_answer


def lift_idempotent_central(
    M: SplitSemisimpleAlgebra,
    N: SplitSemisimpleAlgebra,
    emb: AlgebraEmbedding,
    rep: Representation,
    pi: AlgebraElement,
    u: AlgebraElement,
    w: AlgebraElement,
) -> AlgebraElement:
    """Idempotent v in M with w*V + pi*V <= v*V + pi*V <= u*V + pi*V.

    Construction: X = (u*N + pi*N) intersected with the subalgebra generated
    by M and pi; its idempotent generator is congruent mod (pi) to an
    idempotent of M, recovered through the unit of the two-sided ideal
    M ∩ pi*M[pi].
    """
    if emb.source != M or emb.target != N or rep.algebra != N:
        raise ValidationError("embedding/representation do not match the algebras")
    if pi.parent != N or u.parent != N or w.parent != M:
        raise ValidationError("pi, u must live in N and w in M")
    _check_idempotent(pi, "pi")
    if not _is_central(N, pi):
        raise ValidationError("pi must be central")
    _check_idempotent(u, "u")
    _check_idempotent(w, "w")

    w_n = emb.apply(w)
    chain_lhs = _colspan_sum([rep.apply(w_n), rep.apply(pi)])
    chain_rhs = _colspan_sum([rep.apply(u), rep.apply(pi)])
    if not span_leq(chain_lhs, chain_rhs):
        raise ValidationError("precondition fails: w*V + pi*V not inside u*V + pi*V")

    if pi.is_zero():
        return lift_idempotent(M, N, emb, rep, u, w)
    if pi == N.one():
        return M.one()

    n_basis = N.basis()
    m_images = [emb.apply(x) for x in M.basis()]
    # S = M[pi] = M + M*pi (pi is central and idempotent)
    s_span = _span_elements(N, m_images + [x * pi for x in m_images])
    ideal_span = _span_elements(N, [u * x for x in n_basis] + [pi * x for x in n_basis])
    x_pi = span_intersect(ideal_span, s_span)

    def mult(a, b):
        return (N.from_coords(a) * N.from_coords(b)).coords()

    m0_coords = _idempotent_generator_coords(mult, x_pi, "X_pi")
    m0 = N.from_coords(m0_coords) if m0_coords is not None else N.zero()

    # decompose m0 = m1 + m2*pi with m1, m2 in the embedded M
    cols = [x.coords() for x in m_images] + [(x * pi).coords() for x in m_images]
    system = [[cols[i][k] for i in range(len(cols))] for k in range(N.dim)]
    sol = linalg.solve(system, list(m0.coords()))
    if sol is None:
        raise InternalCheckError("generator fell outside M + M*pi")
    dm = M.dim
    m1 = M.from_coords(sol[:dm])

    # K = M ∩ pi*S, a two-sided ideal of M; its unit is central in M
    pi_s = _span_elements(N, [pi * N.from_coords(v) for v in map(list, s_span)])
    k_n = span_intersect(_span_elements(N, m_images), pi_s)
    k_in_m = []
    for vec in k_n:
        pre = emb.preimage(N.from_coords(vec))
        if pre is None:
            raise InternalCheckError("K escaped the embedded subalgebra")
        k_in_m.append(pre)
    if k_in_m:
        k_span = _span_elements(M, k_in_m)
        k_elems = [M.from_coords(vec) for vec in k_span]
        # unknowns t_i; equations y*x = x and x*y = x for y = sum t_i k_i, per coordinate
        system_k = []
        rhs_k = []
        for x, xe in zip(k_span, k_elems):
            for prods in ([(y * xe).coords() for y in k_elems],
                          [(xe * y).coords() for y in k_elems]):
                system_k.extend(zip(*prods))
                rhs_k.extend(x)
        sol_k = linalg.solve(system_k, rhs_k)
        if sol_k is None:
            raise InternalCheckError("two-sided ideal of a semisimple algebra has a unit")
        e = M.zero()
        for t, y in zip(sol_k, k_elems):
            if t:
                e = e + y.scale(t)
    else:
        e = M.zero()

    v = (M.one() - e) * m1
    if not v.is_idempotent():
        raise InternalCheckError("central lift produced a non-idempotent")

    # verified conclusions
    v_n = emb.apply(v)
    im_v_pi = _colspan_sum([rep.apply(v_n), rep.apply(pi)])
    if not (span_leq(chain_lhs, im_v_pi) and span_leq(im_v_pi, chain_rhs)):
        raise InternalCheckError("central lift misses the chain")
    # compatibility with the pi-splitting: (1-pi)(u*v - v) = 0
    resid = (N.one() - pi) * (u * v_n - v_n)
    if not resid.is_zero():
        raise InternalCheckError("lift is not compatible with the pi-splitting")
    # Remark-style direct sum: dim(pi*N) + dim((1-pi)*N) = dim N
    d_pi = len(_span_elements(N, [pi * x for x in n_basis]))
    d_co = len(_span_elements(N, [(N.one() - pi) * x for x in n_basis]))
    if d_pi + d_co != N.dim:
        raise InternalCheckError("central idempotent does not split the algebra")
    return v
