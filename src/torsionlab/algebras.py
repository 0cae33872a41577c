"""Split semisimple algebras over the rationals and idempotent lifting.

An algebra here is a product of full matrix algebras M_{n_1} x ... x M_{n_k}
over Q, and everything downstream (right-ideal generators, the two
idempotent-lifting chains, the ideal membership equivalence) is exact
rational linear algebra.  The classical facts being exercised: a right ideal
of a semisimple algebra is generated by an idempotent, and idempotents lift
along subalgebras compatibly with a central idempotent splitting.

Elements compute in integers.  An element is its flat coordinate vector in
the basis of matrix units (block by block, each block row-major), held as
``num / den`` with integer ``num`` and ``den > 0`` in lowest terms
(gcd(den, *num) = 1), so equal elements have equal forms.  Sums and block
products are integer vector operations over one denominator; the per-block
Fraction matrices (``data``) and the coordinates (``coords``) are built only
when a caller reads them.  A representation on Q^s is held as the algebra's
embedding into the one-block algebra M_s(Q), so both maps are checked and
applied by the same code.  Spans enter elimination as integer rows, since a
positive scale changes no span.  Internal spans are held as
canonical integer bases (``linalg.span_basis``), and internal solves return
integer solutions over one denominator, so the lifts build no Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from .errors import InternalCheckError, ValidationError
from . import linalg
from .linalg import Matrix, int_span_intersect, over_one_den, span_basis, span_leq

#: the command line refuses algebras of larger dimension: the matrix-unit
#: check multiplies 2*dim + k(k-1)/2 pairs of dense rational matrices (k
#: blocks) and the lifts eliminate on dim x dim systems.  Every acceptance
#: pair (dim N <= 14) and benchmark pair (dim N <= 11) fits.
ALGEBRA_DIM_CAP = 16

#: the command line refuses a user representation on Q^s for larger s: each
#: product of its check costs about s^3 big-integer products, while the input
#: grows as s^2.  At the cap, sixteen 1x1 blocks (152 products) with images
#: conjugated by a random unit-triangular integer matrix construct in about
#: 0.4 CPU s on a 2-vCPU VM.  Benchmark representations have s <= 8.
REPRESENTATION_DIM_CAP = 48


@dataclass(frozen=True)
class SplitSemisimpleAlgebra:
    """Product of full matrix algebras over Q with the given block sizes."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(int(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(b < 1 for b in blocks):
            raise ValidationError("block sizes must be positive, got %r" % (blocks,))
        layout = []  # (offset of the block in the coordinate vector, block size)
        pos = 0
        for n in blocks:
            layout.append((pos, n))
            pos += n * n
        object.__setattr__(self, "_layout", tuple(layout))
        object.__setattr__(self, "_dim", pos)

    @property
    def dim(self) -> int:
        return self._dim

    def basis_indices(self):
        for bi, n in enumerate(self.blocks):
            for i in range(n):
                for j in range(n):
                    yield bi, i, j

    def _units(self, positions) -> "AlgebraElement":
        """The element with coordinate 1 at the given positions, 0 elsewhere."""
        num = [0] * self._dim
        for k in positions:
            num[k] = 1
        return AlgebraElement._of(self, num, 1)

    def _diagonal(self, bis):
        return [pos + i * (n + 1) for pos, n in (self._layout[bi] for bi in bis)
                for i in range(n)]

    def zero(self) -> "AlgebraElement":
        return self._units(())

    def one(self) -> "AlgebraElement":
        return self._units(self._diagonal(range(len(self.blocks))))

    def block_unit(self, bi: int) -> "AlgebraElement":
        """The central idempotent 1_bi: the identity in block bi, zero elsewhere."""
        return self._units(self._diagonal([bi]))

    def basis_element(self, bi: int, i: int, j: int) -> "AlgebraElement":
        pos, n = self._layout[bi]
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError("matrix unit (%d, %d) outside block %d" % (i, j, bi))
        return self._units((pos + i * n + j,))

    def basis(self) -> list["AlgebraElement"]:
        return [self._units((k,)) for k in range(self._dim)]

    def from_coords(self, coords) -> "AlgebraElement":
        coords = list(coords)
        if len(coords) != self.dim:
            raise ValidationError("coordinate vector of wrong length")
        num, den = over_one_den(coords)
        return AlgebraElement._of(self, num, den)


class AlgebraElement:
    """An element of ``parent``, held as ``num / den`` (see the module docstring).

    ``AlgebraElement(parent, data)`` takes one square rational matrix per
    block and checks the shapes; ``data`` and ``coords()`` read the element
    back in Fractions, built when read.
    """

    __slots__ = ("parent", "num", "den", "_data")

    def __init__(self, parent: SplitSemisimpleAlgebra, data):
        if len(data) != len(parent.blocks):
            raise ValidationError("element has wrong number of blocks")
        for mat, n in zip(data, parent.blocks):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValidationError("block of wrong shape")
        num, den = over_one_den([x for mat in data for row in mat for x in row])
        self.parent, self.num, self.den, self._data = parent, tuple(num), den, None

    @classmethod
    def _of(cls, parent: SplitSemisimpleAlgebra, num, den: int) -> "AlgebraElement":
        """The element num / den of parent (den > 0), brought to lowest terms."""
        if len(num) != parent._dim:
            raise InternalCheckError("coordinate vector of wrong length")
        g = gcd(den, *num)
        self = object.__new__(cls)
        self.parent, self._data = parent, None
        if g == 1:
            self.num, self.den = tuple(num), den
        else:
            self.num, self.den = tuple(x // g for x in num), den // g
        return self

    @property
    def data(self) -> tuple[Matrix, ...]:
        if self._data is None:
            c = self.coords()
            self._data = tuple(tuple(c[k:k + n] for k in range(pos, pos + n * n, n))
                               for pos, n in self.parent._layout)
        return self._data

    def coords(self) -> tuple[Fraction, ...]:
        den, zero = self.den, Fraction(0)
        return tuple(Fraction(x, den) if x else zero for x in self.num)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.den == other.den and self.num == other.num
                and self.parent == other.parent)

    def __hash__(self):
        return hash((self.parent, self.num, self.den))

    def __repr__(self):
        return "AlgebraElement(parent=%r, data=%r)" % (self.parent, self.data)

    def _plus(self, other: "AlgebraElement", sign: int) -> "AlgebraElement":
        self._same(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        num = [x * fa + y * fb for x, y in zip(self.num, other.num)]
        return AlgebraElement._of(self.parent, num, den)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._plus(other, 1)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._plus(other, -1)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        """Block by block: entry (i, j) of a block is the dot product of row i
        of self's block with column j of other's, both slices of num.  A row
        of self with one nonzero entry x, at column j, gives x times row j
        of other's block, and a zero row gives a zero row.  So a product
        whose left factor has at most one nonzero entry per row, as the
        images of matrix units and block units do in a basis adapted to the
        blocks, costs n^2 products per block instead of n^3.  A block that
        is zero in either factor is zero in the product and is written
        without being computed: a matrix unit is zero in every block but
        one."""
        self._same(other)
        a, b = self.num, other.num
        out = []
        for pos, n in self.parent._layout:
            if n == 1:
                out.append(a[pos] * b[pos])
                continue
            end = pos + n * n
            if not (any(b[pos:end]) and any(a[pos:end])):
                out += [0] * (n * n)
                continue
            cols = [b[c:end:n] for c in range(pos, pos + n)]
            for k in range(pos, end, n):
                row = a[k:k + n]
                nonzero = n - row.count(0)
                if nonzero > 1:
                    out.extend([sum(map(mul, row, col)) for col in cols])
                elif nonzero:  # x at column j: x times row j of other's block
                    x = next(filter(None, row))
                    r = pos + row.index(x) * n
                    out.extend([x * y for y in b[r:r + n]])
                else:
                    out.extend(row)
        return AlgebraElement._of(self.parent, out, self.den * other.den)

    def scale(self, c) -> "AlgebraElement":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        cn = c.numerator
        return AlgebraElement._of(self.parent, [cn * x for x in self.num],
                                  self.den * c.denominator)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_idempotent(self) -> bool:
        return self * self == self

    def _same(self, other):
        if self.parent is not other.parent and self.parent != other.parent:
            raise ValidationError("elements of different algebras")


def _span_elements(alg: SplitSemisimpleAlgebra, elements) -> list[list[int]]:
    """Canonical integer basis (``linalg.span_basis``) of the span, as
    coordinate rows.

    Each element enters elimination as its integer vector num, a positive
    multiple of its coordinates."""
    return span_basis([e.num for e in elements])


def _integer_basis(alg: SplitSemisimpleAlgebra, rows) -> list[AlgebraElement]:
    """The elements with the given integer coordinate rows."""
    return [AlgebraElement._of(alg, row, 1) for row in rows]


def _coefficients(elems, target: AlgebraElement):
    """``linalg.int_solve`` for t with sum t_i * elems[i] = target (free
    variables zero): (T, den) with t = T / den, or None.  The columns and the
    right-hand side are cleared over one common denominator; scaling the
    whole system by it changes no solution."""
    den = lcm(target.den, *(x.den for x in elems))
    cols = [[v * (den // x.den) for v in x.num] for x in elems]
    return linalg.int_solve(list(zip(*cols)), [v * (den // target.den) for v in target.num])


def _check_homomorphism(emb: "AlgebraEmbedding", unital: str, multiplicative: str,
                       injective: str):
    """Raise ValidationError with the message of the first property that fails
    unless emb = phi preserves the unit, is multiplicative and is injective.

    phi(1) = 1 is checked first.  For multiplicativity a presentation of the
    relations e_ij * e_kl = delta_jk * e_il is checked, with
    2*dim + k(k-1)/2 products for k blocks instead of dim^2.  Per block,
    with F_i = phi(e_i1), G_j = phi(e_1j) and P = phi(e_11) = F_1 = G_1:

    - F_i * G_j = phi(e_ij) for all i, j;
    - G_j * F_k = delta_jk * P for all j, k;

    and z_a * z_b = 0 for blocks a < b, where z_a = phi(1_a) is computed
    with ``apply``.  Proof that these give every relation: taking j = 1 and
    i = 1 in the first family gives F_i * P = F_i and P * G_l = G_l, so
    phi(e_ij) * phi(e_kl) = F_i (G_j F_k) G_l = delta_jk * F_i P G_l =
    delta_jk * phi(e_il).  In particular each z_m = sum_i phi(e^m_ii) is
    idempotent, and phi(1) = sum_m z_m = 1 is checked.
    Then z_b * z_a = 0 for a < b too, by induction downward on a: assume
    z_m * z_c = 0 whenever a < c < m.  Left-multiplying
    z_a = 1 * z_a = sum_c z_c * z_a by z_m for m > a gives
    z_m * z_a = sum_c z_m * z_c * z_a; the terms c < a vanish because
    z_c * z_a = 0 is checked, the terms c > m because z_m * z_c = 0 is
    checked, the terms a < c < m by the assumption, and the terms c = a and
    c = m are both z_m * z_a; so z_m * z_a = 2 * z_m * z_a, which is 0.
    Within its block z_a * phi(e^a_ij) = phi(e^a_ij) = phi(e^a_ij) * z_a,
    hence phi(e^a_ij) * phi(e^b_kl) = phi(e^a_ij) z_a z_b phi(e^b_kl) = 0
    across blocks.  Conversely each checked identity is one of the
    relations, so the check is exact.

    Once phi is multiplicative it is injective iff no corner image is zero:
    if x != 0 lies in the kernel, pick a block b and (i, j) with x_b[i][j]
    != 0; then e^b_1i * x * e^b_j1 = x_b[i][j] * e^b_11 lies in the kernel
    (a two-sided ideal), so phi(e^b_11) = 0; if phi(e^b_11) = 0, e^b_11 is
    itself a nonzero kernel element.
    """
    source, images, zero = emb.source, emb.images, emb.target.zero()
    if emb.apply(source.one()) != emb.target.one():
        raise ValidationError(unital)
    block_units = []
    for b, (pos, n) in enumerate(source._layout):
        f = images[pos:pos + n * n:n]
        g = images[pos:pos + n]
        for i, fi in enumerate(f):
            for j, gj in enumerate(g):
                if fi * gj != images[pos + i * n + j]:
                    raise ValidationError(multiplicative)
        for j, gj in enumerate(g):
            for k, fk in enumerate(f):
                if gj * fk != (images[pos] if j == k else zero):
                    raise ValidationError(multiplicative)
        block_units.append(emb.apply(source.block_unit(b)))
    for a, za in enumerate(block_units):
        for zb in block_units[a + 1:]:
            if za * zb != zero:
                raise ValidationError(multiplicative)
    if any(images[pos].is_zero() for pos, _ in source._layout):
        raise ValidationError(injective)


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
        _check_homomorphism(self, "embedding does not preserve the unit",
                            "embedding is not multiplicative", "embedding is not injective")

    @classmethod
    def _of(cls, source: SplitSemisimpleAlgebra, target: SplitSemisimpleAlgebra, images):
        """The map with the given images in target, for a caller that checks
        it or builds it correct."""
        self = object.__new__(cls)
        self.__dict__.update(source=source, target=target, images=images)
        return self

    @cached_property
    def _over_one_den(self):
        """(nums, den): the images' integer vectors over one common denominator."""
        den = lcm(*(img.den for img in self.images))
        return tuple(tuple(x * (den // img.den) for x in img.num) for img in self.images), den

    def apply(self, elem: AlgebraElement) -> AlgebraElement:
        if elem.parent != self.source:
            raise ValidationError("element not in the embedding source")
        nums, den = self._over_one_den
        acc = [0] * self.target.dim
        for c, img in zip(elem.num, nums):
            if c:
                acc = [s + c * y for s, y in zip(acc, img)]
        return AlgebraElement._of(self.target, acc, elem.den * den)

    @cached_property
    def _inverse(self):
        """(rows, den): the images eliminated once, for ``preimage``.

        Each image's integer vector (``_over_one_den``) is eliminated with a
        unit vector of Q^dim(source) appended, which records the combination
        of images each echelon row is.  rows holds (p, w) per echelon row,
        p its pivot and w the source coefficients over den of the element
        whose image is 1 at p and 0 at every other pivot.  The images are
        independent (the map is injective, checked or built so), so all k =
        dim(source) pivots lie among the target coordinates; a pivot past
        them is an internal error."""
        nums, den = self._over_one_den
        k = self.source.dim
        echelon, pivots = linalg._echelon(
            [list(num) + [int(i == j) for j in range(k)] for i, num in enumerate(nums)])
        if pivots[-1] >= self.target.dim:
            raise InternalCheckError("embedding images are linearly dependent")
        out_den = lcm(*(row[p] for row, p in zip(echelon, pivots)))
        rows = []
        for row, p in zip(echelon, pivots):
            f = den * (out_den // row[p])
            rows.append((p, [f * x for x in row[-k:]]))
        return rows, out_den

    def preimage(self, elem: AlgebraElement) -> AlgebraElement | None:
        """The x with apply(x) = elem, or None when elem is outside the image.

        The pivot coordinates of elem fix the only candidate (``_inverse``);
        it is applied back and compared exactly, so a candidate for an elem
        outside the image is refused."""
        rows, den = self._inverse
        y = elem.num
        acc = [0] * self.source.dim
        for p, w in rows:
            c = y[p]
            if c:
                acc = [s + c * x for s, x in zip(acc, w)]
        pre = AlgebraElement._of(self.source, acc, elem.den * den)
        return pre if self.apply(pre) == elem else None


def _placed_units(source: SplitSemisimpleAlgebra, target: SplitSemisimpleAlgebra,
                  assignment: list[list[int]]) -> tuple[AlgebraElement, ...]:
    """The image of each source matrix unit when target block j stacks copies
    of the source blocks listed in assignment[j] down its diagonal."""
    images = []
    for bi, i, jj in source.basis_indices():
        places = []
        for tj, (pos, n) in enumerate(target._layout):
            off = 0
            for si in assignment[tj]:
                if si == bi:
                    places.append(pos + (off + i) * n + off + jj)
                off += source.blocks[si]
        images.append(target._units(places))
    return tuple(images)


def diagonal_embedding(source: SplitSemisimpleAlgebra, target: SplitSemisimpleAlgebra,
                       assignment: list[list[int]]) -> AlgebraEmbedding:
    """Block-diagonal embedding: target block j stacks copies of the source
    blocks listed in assignment[j] (sizes must add up exactly)."""
    for j, lst in enumerate(assignment):
        if sum(source.blocks[i] for i in lst) != target.blocks[j]:
            raise ValidationError("assignment does not fill target block %d" % j)
    return AlgebraEmbedding(source, target, _placed_units(source, target, assignment))


class Representation:
    """A faithful unital action of the algebra on Q^space_dim.

    ``Representation(algebra, space_dim, images)`` takes one rational space
    matrix per algebra basis element.  Such an action is an injective
    unit-preserving algebra map into M_space_dim(Q), and it is held as that
    ``AlgebraEmbedding``; ``__post_init__`` checks it in full.  ``images``
    and ``apply`` read its elements back in Fractions.
    """

    __slots__ = ("algebra", "space_dim", "_emb")

    def __init__(self, algebra: SplitSemisimpleAlgebra, space_dim: int, images):
        self.algebra, self.space_dim = algebra, space_dim
        self.__post_init__(images)

    @classmethod
    def _of(cls, emb: AlgebraEmbedding) -> "Representation":
        """The representation held as emb, an embedding into M_s(Q) that its
        caller has checked or built correct."""
        self = object.__new__(cls)
        self.algebra, self.space_dim, self._emb = emb.source, emb.target.blocks[0], emb
        return self

    def __post_init__(self, images):
        """Check the images: their shapes, then the unit, the matrix-unit
        relations and faithfulness."""
        s = self.space_dim
        if len(images) != self.algebra.dim:
            raise ValidationError("representation needs one matrix per basis element")
        for m in images:
            if len(m) != s or any(len(r) != s for r in m):
                raise ValidationError("representation matrix of wrong shape")
        if not s:  # M_0 is no algebra here: nothing acts faithfully on Q^0
            raise ValidationError("representation is not faithful")
        target = SplitSemisimpleAlgebra((s,))
        self._emb = AlgebraEmbedding._of(
            self.algebra, target, tuple(AlgebraElement(target, (m,)) for m in images))
        _check_homomorphism(self._emb, "representation is not unital",
                            "representation is not multiplicative",
                            "representation is not faithful")

    @property
    def images(self) -> tuple[Matrix, ...]:
        """One space matrix per algebra basis element, in Fractions."""
        return tuple(img.data[0] for img in self._emb.images)

    def apply(self, elem: AlgebraElement) -> Matrix:
        if elem.parent != self.algebra:
            raise ValidationError("element not in the represented algebra")
        return self._emb.apply(elem).data[0]


def standard_representation(alg: SplitSemisimpleAlgebra) -> Representation:
    """Column action on the direct sum of the block column spaces: the
    block-diagonal embedding of alg into M_s(Q), s the sum of the block sizes.

    Each block's matrix units are placed once down the diagonal of M_s, which
    is a unital, multiplicative and injective map by construction, so the
    images are not checked again (``diagonal_embedding`` checks the same
    placement in full, and the tests compare the two on every shape)."""
    target = SplitSemisimpleAlgebra((sum(alg.blocks),))
    images = _placed_units(alg, target, [list(range(len(alg.blocks)))])
    return Representation._of(AlgebraEmbedding._of(alg, target, images))


def column_span(mats) -> list[list[int]]:
    """Canonical integer basis (``linalg.span_basis``) of the sum of the
    column spaces of the space matrices."""
    return span_basis([col for m in mats for col in zip(*m)])


# ---------------------------------------------------------------------------
# right ideals


def _idempotent_generator(alg: SplitSemisimpleAlgebra, basis: list, label: str) -> AlgebraElement:
    """Solve for e in span(basis) with e*x = x for every x in the span.

    ``basis`` is the canonical integer basis of a right ideal, used as it
    comes; the zero ideal's is zero.  Inconsistency is an internal error: in
    a semisimple algebra every right ideal has an idempotent generator.  On a
    two-sided ideal K = cA, c a central idempotent, it is K's unit c: a left
    unit e of K lies in K, so e = c*e = e*c = c.
    """
    if not basis:
        return alg.zero()
    xs = _integer_basis(alg, basis)
    # unknowns t_i; equations: sum_i t_i (x_i * x_j) = x_j, all coords, all j
    system = []
    rhs = []
    for x in xs:
        system.extend(zip(*[(v * x).num for v in xs]))
        rhs.extend(x.num)
    sol = linalg.int_solve(system, rhs)
    if sol is None:
        raise InternalCheckError("no idempotent generator found for %s" % label)
    # e = sum t_i x_i, the coefficients t = T / den given as (T, den)
    tn, td = sol
    acc = [0] * alg.dim
    for t, x in zip(tn, xs):
        if t:
            acc = [s + t * y for s, y in zip(acc, x.num)]
    return AlgebraElement._of(alg, acc, td)


def _unit_generators(A: SplitSemisimpleAlgebra) -> list[AlgebraElement]:
    """Matrix units whose products give every matrix unit: e^b_{i,i+1} and
    e^b_{i+1,i} in a block of size n_b >= 2, e^b_11 in a block of size 1.
    For i < j, e_ij = e_{i,i+1} e_{i+1,i+2} ... e_{j-1,j}, and the reverse
    for i > j; e_ii = e_{i,i+1} e_{i+1,i}, or e_{i,i-1} e_{i-1,i} for the
    last i."""
    out = []
    for b, n in enumerate(A.blocks):
        if n == 1:
            out.append(A.basis_element(b, 0, 0))
        for i in range(n - 1):
            out += [A.basis_element(b, i, i + 1), A.basis_element(b, i + 1, i)]
    return out


def _is_right_ideal(A: SplitSemisimpleAlgebra, span) -> bool:
    """Whether the span of the integer coordinate rows ``span`` (a canonical
    basis) is a right ideal X of A.

    X is one exactly when X*s lies in X for each generator s of
    ``_unit_generators``: then X*u lies in X for each matrix unit u, a
    product of generators, and X*A in X by linearity; and each generator
    is a matrix unit."""
    gens = _unit_generators(A)
    return span_leq(((x * s).num for x in _integer_basis(A, span) for s in gens), span)


def right_ideal_generator(A: SplitSemisimpleAlgebra, ideal_basis) -> AlgebraElement:
    """The idempotent e with e*A = span(ideal_basis), for a genuine right ideal."""
    elems = list(ideal_basis)
    for e in elems:
        if e.parent != A:
            raise ValidationError("ideal basis element outside the algebra")
    span = _span_elements(A, elems)
    if not _is_right_ideal(A, span):
        raise ValidationError("ideal_basis does not span a right ideal")
    e = _idempotent_generator(A, span, "right ideal")
    if not e.is_idempotent():
        raise InternalCheckError("generator is not idempotent")
    # e*A = X, both inclusions
    if _span_elements(A, [e * u for u in A.basis()]) != span:
        raise InternalCheckError("generated ideal differs from the input ideal")
    return e


# ---------------------------------------------------------------------------
# idempotent lifting


def _preimages(emb: AlgebraEmbedding, rows, name: str) -> list[AlgebraElement]:
    """The preimages under emb of the elements with the integer coordinate
    rows ``rows``; one outside the image is an internal error naming ``name``."""
    out = []
    for x in _integer_basis(emb.target, rows):
        pre = emb.preimage(x)
        if pre is None:
            raise InternalCheckError("%s escaped the embedded subalgebra" % name)
        out.append(pre)
    return out


def _check_idempotent(x: AlgebraElement, name: str):
    if not x.is_idempotent():
        raise ValidationError("%s must be idempotent" % name)


def _image_span(rep: Representation, elems) -> list[list[int]]:
    """Canonical integer basis of the sum of the column spaces of the elements'
    actions.  An action is an element of M_s(Q) whose integer vector num is
    the matrix, row-major, times a positive denominator: column j is num[j::s]."""
    s = rep.space_dim
    return span_basis([num[j::s] for num in (rep._emb.apply(x).num for x in elems)
                       for j in range(s)])


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
    im_w = _image_span(rep, [emb.apply(w)])
    im_u = _image_span(rep, [u])
    if not span_leq(im_w, im_u):
        raise ValidationError("image precondition fails: im(w) not inside im(u)")

    uN = _span_elements(N, [u * x for x in N.basis()])
    m_embedded = _span_elements(N, emb.images)
    inter = int_span_intersect(uN, m_embedded)
    v = right_ideal_generator(M, _preimages(emb, inter, "intersection"))
    # verified conclusions
    im_v = _image_span(rep, [emb.apply(v)])
    if not (span_leq(im_w, im_v) and span_leq(im_v, im_u)):
        raise InternalCheckError("lifted idempotent misses the image chain")
    return v


def _is_central(alg: SplitSemisimpleAlgebra, x: AlgebraElement) -> bool:
    """x is central exactly when each block of x is a scalar matrix: the
    centre of M_{n_1}(Q) x ... x M_{n_k}(Q) is Q*I_{n_1} x ... x Q*I_{n_k}."""
    num = x.num
    for pos, n in alg._layout:
        d = num[pos]
        if any(num[pos + k] != (d if k % (n + 1) == 0 else 0) for k in range(n * n)):
            return False
    return True


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

    im_b_pi = _image_span(rep, [b, pi])
    im_u_pi = _image_span(rep, [u, pi])
    rep_answer = span_leq(im_b_pi, im_u_pi)

    basis = B.basis()
    ideal = _span_elements(B, [u * x for x in basis] + [pi * x for x in basis])
    direct_answer = span_leq([b.num], ideal)

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
    K = M ∩ pi*M[pi].  K = cM for a central idempotent c of M, so the one
    generator solve that finds K's left unit finds c (``_idempotent_generator``).
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

    chain_lhs = _image_span(rep, [emb.apply(w), pi])
    chain_rhs = _image_span(rep, [u, pi])
    if not span_leq(chain_lhs, chain_rhs):
        raise ValidationError("precondition fails: w*V + pi*V not inside u*V + pi*V")

    if pi.is_zero():
        return lift_idempotent(M, N, emb, rep, u, w)
    if pi == N.one():
        return M.one()

    n_basis = N.basis()
    m_images = list(emb.images)
    pi_n = [pi * x for x in n_basis]
    # S = M[pi] = M + M*pi (pi is central and idempotent)
    s_gens = m_images + [x * pi for x in m_images]
    s_span = _span_elements(N, s_gens)
    ideal_span = _span_elements(N, [u * x for x in n_basis] + pi_n)
    x_pi = int_span_intersect(ideal_span, s_span)

    m0 = _idempotent_generator(N, x_pi, "X_pi")

    # decompose m0 = m1 + m2*pi with m1, m2 in the embedded M
    sol = _coefficients(s_gens, m0)
    if sol is None:
        raise InternalCheckError("generator fell outside M + M*pi")
    m1 = AlgebraElement._of(M, sol[0][:M.dim], sol[1])

    # K = M ∩ pi*S, a two-sided ideal of M; its unit is its idempotent generator
    pi_s = _span_elements(N, [pi * x for x in _integer_basis(N, s_span)])
    k_n = int_span_intersect(_span_elements(N, m_images), pi_s)
    k_basis = _span_elements(M, _preimages(emb, k_n, "K"))
    e = _idempotent_generator(M, k_basis, "K")
    if any(x * e != x for x in _integer_basis(M, k_basis)):
        raise InternalCheckError("two-sided ideal of a semisimple algebra has a unit")

    v = (M.one() - e) * m1
    if not v.is_idempotent():
        raise InternalCheckError("central lift produced a non-idempotent")

    # verified conclusions
    v_n = emb.apply(v)
    im_v_pi = _image_span(rep, [v_n, pi])
    if not (span_leq(chain_lhs, im_v_pi) and span_leq(im_v_pi, chain_rhs)):
        raise InternalCheckError("central lift misses the chain")
    # compatibility with the pi-splitting: (1-pi)(u*v - v) = 0
    resid = (N.one() - pi) * (u * v_n - v_n)
    if not resid.is_zero():
        raise InternalCheckError("lift is not compatible with the pi-splitting")
    # Remark-style direct sum: dim(pi*N) + dim((1-pi)*N) = dim N
    co = N.one() - pi
    d_pi = linalg.rank([x.num for x in pi_n])
    d_co = linalg.rank([(co * x).num for x in n_basis])
    if d_pi + d_co != N.dim:
        raise InternalCheckError("central idempotent does not split the algebra")
    return v
