"""Orbit densities of matrix groups over a prime field, verified exhaustively.

The statement being exercised: if the orbit G*a meets a subspace V in at
least a 1/C fraction of itself, then some subspace W of V generated by its
orbit points has stabilizer index at most 3*C^(4^dim V).  The extremal W is
found by exact maximization of eps(W)^(4^(dim W - dim V)) with cleared-power
integer comparisons; no floating point is involved anywhere.

Internally a point of F_ell^dim is its index in product order (see
``_point_index``) and a point set is an int bitmask over those indices.
Vectors are built only at the boundary: ``orbit``, ``Subspace.points`` and
the fields of an ``OrbitDensityReport``.  A group acts on point indices
through its generators' inverse permutations, whatever its order: orbits
are breadth-first searches over them, and the preimages g^-1*v over the
elements follow the closure's links.  Matrix-vector products over the
elements are made only by the closure and by the walk for the witness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from operator import and_, itemgetter, mul

from .errors import CapExceededError, InternalCheckError, ValidationError
from .integers import FACTOR_LIMIT, is_prime
from .linalg import Memo, free_summand_rows, rank, rref, span_points

#: refuse subspace-lattice work when the ambient point count exceeds this
SUBSPACE_LATTICE_CAP = 3125  # 5^5

#: group closure gives up past this many elements
GROUP_SIZE_CAP = 200_000

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def _mat_vec(a: Mat, v: Vec, ell: int) -> Vec:
    return tuple(sum(map(mul, row, v)) % ell for row in a)


def _point_index(v, ell: int) -> int:
    """Position of v, coordinates taken mod ell, among the points of
    F_ell^dim in product order, the order of
    ``itertools.product(range(ell), repeat=dim)``."""
    i = 0
    for x in v:
        i = i * ell + x % ell
    return i


def _point(i: int, ell: int, dim: int) -> Vec:
    """The point of F_ell^dim with index i; inverse to ``_point_index``."""
    v = [0] * dim
    for k in range(dim - 1, -1, -1):
        i, v[k] = divmod(i, ell)
    return tuple(v)


def _identity(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_ell^dim, canonicalized by its reduced echelon basis.

    Its point set is ``mask``, a bitmask over point indices, built on first
    use and kept on the instance: membership is one bit test, inclusion and
    intersection counts are bit operations.  ``points()`` builds the vectors
    afresh on each call.
    """

    ell: int
    ambient_dim: int
    basis: Mat  # reduced row echelon, possibly empty

    @property
    def dim(self) -> int:
        return len(self.basis)

    def points(self) -> frozenset[Vec]:
        return span_points(self.basis, self.ell, self.ambient_dim)

    @cached_property
    def mask(self) -> int:
        """Bit i is set iff the i-th point of F_ell^dim in product order lies here."""
        return sum(1 << _point_index(p, self.ell) for p in self.points())

    def contains(self, v: Vec) -> bool:
        """Whether v lies in the subspace; coordinates are taken mod ell."""
        v = tuple(v)
        return len(v) == self.ambient_dim and self.mask >> _point_index(v, self.ell) & 1 == 1

    def leq(self, other: "Subspace") -> bool:
        return self.mask & ~other.mask == 0


def subspace_from_vectors(vectors, ell: int, ambient_dim: int) -> Subspace:
    basis, _ = rref(vectors, ell)
    return Subspace(ell, ambient_dim, tuple(map(tuple, basis)))


def all_subspaces(ell: int, dim: int, cap: int = SUBSPACE_LATTICE_CAP, _cache={}) -> list[Subspace]:
    """Every subspace of F_ell^dim, by echelon enumeration (each exactly once).

    The cap is checked before the cache, so a smaller cap refuses a lattice
    an earlier call built.
    """
    if ell ** dim > cap:
        raise CapExceededError(
            "subspace lattice %d^%d exceeds cap %d" % (ell, dim, cap),
            required=ell ** dim,
        )
    key = (ell, dim)
    if key in _cache:
        return _cache[key]
    out = [
        Subspace(ell, dim, basis)
        for r in range(dim + 1)
        for _, rows in free_summand_rows(ell, ell, dim, r)
        for basis in itertools.product(*rows)
    ]
    _cache[key] = out
    return out


@dataclass(frozen=True)
class MatrixGroup:
    """A subgroup of GL_dim(F_ell), fully materialized.

    ``links`` holds, for every element after the identity, the (parent index,
    generator index) of the closure step that found it: elements[k] =
    elements[parent] * generators[gen].

    The group acts on point indices (product order, see ``_point_index``)
    through its generators alone.  On first use it builds the inverse
    permutation of each generator, #generators * ell^dim indices; orbits are
    breadth-first searches over these.  ``preimage_indices(i)`` memoises the
    indices of g^-1*v over ``elements``, in that order, for every point index
    i asked about, by recursion along the links: g_k^-1*v =
    s^-1*(g_parent^-1*v) for g_k = g_parent*s, one list lookup per element.
    Stabilizers and the witness check of one group share the memo, which
    holds at most ell^dim tuples of ``order`` ints and lives as long as the
    group.

    ``_orbits`` (index of a -> ``_Orbit``) and ``_stabilizers`` (W -> the
    stabilizer's keep-mask over ``elements``, one byte each, and its order)
    let every ``extremal_subspace`` and ``verify_bound`` call for one orbit
    share its work.  ``_orbits`` is filled by those two and ``epsilon``,
    ``_stabilizers`` by ``stabilizer``, never by ``orbit``; they hold at most
    one entry per point or lattice subspace.
    """

    ell: int
    dim: int
    generators: tuple[Mat, ...]
    elements: tuple[Mat, ...]
    links: tuple[tuple[int, int], ...] = field(repr=False, compare=False)
    _preimages: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )
    _orbits: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )
    _stabilizers: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def _inverse_perms(self) -> tuple[list[int], ...]:
        """For each generator s, the list j -> index of s^-1*v, v the point of index j."""
        ell = self.ell
        out = []
        for s in self.generators:
            perm = [0] * ell ** self.dim
            for i, p in enumerate(itertools.product(range(ell), repeat=self.dim)):
                perm[_point_index(_mat_vec(s, p, ell), ell)] = i
            out.append(perm)
        return tuple(out)

    def preimage_indices(self, i: int) -> tuple[int, ...]:
        """(index of g^-1*v for g in elements), v the point of index i."""
        out = self._preimages.get(i)
        if out is None:
            perms = self._inverse_perms
            out = [i]
            append = out.append
            for parent, gen in self.links:
                append(perms[gen][out[parent]])
            out = self._preimages[i] = tuple(out)
        return out


def _row_times(m: Mat, ell: int) -> Memo:
    """row -> row * m over F_ell, computed on first lookup and kept."""
    cols = tuple(zip(*m))
    return Memo(lambda row: tuple(sum(map(mul, row, col)) % ell for col in cols))


def generate_group(gens, ell: int, dim: int, cap: int = GROUP_SIZE_CAP) -> MatrixGroup:
    """Breadth-first closure of the generators; deterministic element order.

    In the finite ambient GL the semigroup closure of invertible generators
    is already the group (inverses arise as powers), so multiplying by
    generators suffices.  Each row of x*s is the matching row of x times s,
    so every generator keeps a memo from row to row*s and a product is dim
    lookups; a memo holds at most min(ell^dim, dim * order) rows.
    """
    if ell > FACTOR_LIMIT:
        raise ValidationError(
            "ell of %d bits exceeds 2^64, the limit of the primality test" % ell.bit_length())
    if ell < 2 or not is_prime(ell):
        raise ValidationError("ell must be prime, got %r" % (ell,))
    if dim < 1:
        raise ValidationError("dim must be positive")
    norm: list[Mat] = []
    for gmat in gens:
        m = tuple(tuple(int(x) % ell for x in row) for row in gmat)
        if len(m) != dim or any(len(row) != dim for row in m):
            raise ValidationError("generator of wrong shape for dim %d" % dim)
        if rank(m, ell) != dim:
            raise ValidationError("singular generator %r mod %d" % (gmat, ell))
        norm.append(m)
    times = [_row_times(m, ell).__getitem__ for m in norm]
    ident = _identity(dim)
    seen = {ident}
    order = [ident]
    links = []
    # a queue over ``order`` visits the elements level by level, in the order
    # they were found; the loop reaches the elements appended inside it
    for i, x in enumerate(order):
        for k, row_times in enumerate(times):
            y = tuple(map(row_times, x))
            if y not in seen:
                seen.add(y)
                order.append(y)
                links.append((i, k))
                if len(seen) > cap:
                    raise CapExceededError(
                        "group closure exceeded cap %d" % cap, required=len(seen)
                    )
    return MatrixGroup(ell, dim, tuple(norm), tuple(order), tuple(links))


def _index_of(G: MatrixGroup, a) -> int:
    a = [int(x) % G.ell for x in a]
    if len(a) != G.dim:
        raise ValidationError("vector of wrong dimension")
    return _point_index(a, G.ell)


def _orbit_indices(G: MatrixGroup, i: int) -> list[int]:
    """The indices of G*v, v the point of index i, by breadth-first search over
    the generators' inverse permutations: a finite group's orbit is its
    generators' orbit (inverses are powers), and with no generators it is {v}."""
    found = {i}
    queue = [i]
    for j in queue:
        for perm in G._inverse_perms:
            k = perm[j]
            if k not in found:
                found.add(k)
                queue.append(k)
    return queue


def orbit(G: MatrixGroup, a) -> frozenset[Vec]:
    ell, dim = G.ell, G.dim
    return frozenset([_point(j, ell, dim) for j in _orbit_indices(G, _index_of(G, a))])


def epsilon(G: MatrixGroup, a, W: Subspace) -> Fraction:
    """Exact orbit density inside W: #(G.a intersect W) / #G.a."""
    mask = _orbit_memo(G, a)[1].mask
    return Fraction((mask & W.mask).bit_count(), mask.bit_count())


@dataclass(eq=False)
class _Orbit:
    """What the ``epsilon``, ``extremal_subspace`` and ``verify_bound`` calls
    for one orbit G*a share, kept in ``G._orbits`` under the index of a.

    ``orbit`` is the orbit as vectors (the report field), ``mask`` its point
    set.  ``ranked[d]`` lists the subspaces W of dimension d with
    n = #(G*a intersect W) > 0, sorted by (-n, basis); it is None until the
    first ``extremal_subspace`` call.  ``spanned`` holds each W whose orbit points
    were checked to span it, ``witnesses`` maps each reported W to its
    checked (eps(W), witness g).  ``images`` holds the indices of g*a over
    the first elements of ``G.elements``, as far as a witness walk went.
    """

    orbit: frozenset
    mask: int
    ranked: list | None = None
    spanned: set = field(default_factory=set)
    witnesses: dict = field(default_factory=dict)
    images: list = field(default_factory=list)


def _orbit_memo(G: MatrixGroup, a) -> tuple[int, _Orbit]:
    """(index of a, the memo of G*a), built on first use."""
    i = _index_of(G, a)
    memo = G._orbits.get(i)
    if memo is None:
        indices = _orbit_indices(G, i)
        memo = G._orbits[i] = _Orbit(
            frozenset([_point(j, G.ell, G.dim) for j in indices]), sum(1 << j for j in indices)
        )
    return i, memo


def _rank_lattice(G: MatrixGroup, orb_mask: int) -> list[list[Subspace]]:
    ranked = [[] for _ in range(G.dim + 1)]
    for W in all_subspaces(G.ell, G.dim):
        n = (orb_mask & W.mask).bit_count()
        if n:
            ranked[W.dim].append((-n, W.basis, W))
    return [[W for *_, W in sorted(entries, key=itemgetter(0, 1))] for entries in ranked]


def _density_key_cmp(n1: int, e1: int, n2: int, e2: int, den: int):
    """Compare (n1/den)^e1 vs (n2/den)^e2 exactly; returns -1/0/1."""
    lhs = n1 ** e1 * den ** e2
    rhs = n2 ** e2 * den ** e1
    return (lhs > rhs) - (lhs < rhs)


def extremal_subspace(G: MatrixGroup, a, V: Subspace) -> Subspace:
    """The minimal-dimension maximizer W of eps(W)^(4^(dim W - dim V)) inside V.

    Comparisons clear the rational exponents by raising both sides to the
    power 4^dim V, turning everything into integers: W's key is
    (n_W/den)^(4^dim W), n_W = #(G*a intersect W), den = #G*a.  Ties on
    (quantity, dimension) break to the lexicographically least echelon basis.

    The maximizer is read from the orbit's ranked lattice.  Within one
    dimension d the exponent 4^d is fixed, so the key rises strictly with n_W,
    and the best W <= V of dimension d is the first entry of ``ranked[d]``
    (sorted by (-n_W, basis)) that lies in V.  Since the key comparison is
    exact, the order it induces is total, so the maximizer over V is the best
    of these at most dim V + 1 winners.  They are taken in increasing
    dimension and a later one replaces the best only on a strictly larger
    key; on an equal key the earlier one has the smaller dimension, which is
    the tie-break above.
    """
    _, memo = _orbit_memo(G, a)
    if not memo.mask & V.mask:
        raise ValidationError("orbit density in V is zero")
    if memo.ranked is None:
        memo.ranked = _rank_lattice(G, memo.mask)
    den = len(memo.orbit)
    outside = ~V.mask
    best = None
    for entries in memo.ranked[: V.dim + 1]:
        for W in entries:
            if not W.mask & outside:
                n = (memo.mask & W.mask).bit_count()
                e = 4 ** W.dim
                if best is None or _density_key_cmp(n, e, best[1], best[2], den) > 0:
                    best = (W, n, e)
                break
    W = best[0]
    if W not in memo.spanned:
        # the orbit points in W span W iff they reach rank dim W, since each
        # lies in W; a greedy pick of independent ones stops at dim W of them
        picked = []
        for p in memo.orbit:
            if len(picked) == W.dim:
                break
            if W.contains(p) and rank(picked + [p], G.ell) > len(picked):
                picked.append(p)
        if len(picked) < W.dim:
            raise InternalCheckError("extremal subspace not generated by its orbit points")
        memo.spanned.add(W)
    return W


def stabilizer(G: MatrixGroup, W: Subspace) -> tuple[Mat, ...]:
    """Elements with g*W = W, by a preimage test on the basis.

    g*W = W iff g^-1*W = W, and since g^-1*W has the dimension of W, that
    holds iff g^-1 maps every basis row into W.  The keep-mask over
    ``G.elements`` and the order go to ``G._stabilizers``.
    """
    mask = W.mask
    keep = [1] * G.order
    for row in W.basis:
        preimages = G.preimage_indices(_point_index(row, G.ell))
        keep = map(and_, keep, [mask >> j & 1 for j in preimages])
    keep = bytes(keep)
    stab = tuple(itertools.compress(G.elements, keep))
    G._stabilizers[W] = (keep, len(stab))
    return stab


@dataclass(frozen=True)
class OrbitDensityReport:
    orbit: frozenset
    V: Subspace
    C: Fraction
    W: Subspace
    epsilon_V: Fraction
    epsilon_W: Fraction
    stab_index: int
    bound: Fraction
    bound_ok: bool
    witness_g: Mat
    stabilizer_order: int


def verify_bound(G: MatrixGroup, a, V: Subspace, C=None) -> OrbitDensityReport:
    """Full report: extremal W, stabilizer index, the 3*C^(4^dim V) bound,
    and a witness g with Stab_G(W)*g*a inside W.

    V and C are checked in integers.  W's stabilizer is computed once per
    group, its witness and eps(W) once per orbit (see ``MatrixGroup``).
    """
    i, memo = _orbit_memo(G, a)
    den = len(memo.orbit)
    n_v = (memo.mask & V.mask).bit_count()
    if C is None:
        if n_v == 0:
            raise ValidationError("orbit misses V; supply C explicitly or enlarge V")
        C = Fraction(den, n_v)
    else:
        C = Fraction(C)
    if C.numerator < C.denominator:
        raise ValidationError("C must be at least 1")
    if n_v * C.numerator < C.denominator * den:
        raise ValidationError(
            "density precondition fails: eps(V) = %s < 1/C = %s" % (Fraction(n_v, den), 1 / C)
        )
    W = extremal_subspace(G, a, V)
    if W not in G._stabilizers:
        stabilizer(G, W)
    keep, stab_order = G._stabilizers[W]
    index = G.order // stab_order
    bound = 3 * C ** (4 ** V.dim)
    ok = index * bound.denominator <= bound.numerator
    if not ok:
        raise InternalCheckError(
            "stabilizer index %d violates the bound %s" % (index, bound)
        )
    facts = memo.witnesses.get(W)
    if facts is None:
        in_w = W.mask
        ell = G.ell
        v = _point(i, ell, G.dim)
        images = memo.images
        # the first element in closure order with g*a in W, by products that
        # the walks for one orbit's W's share
        for k, witness in enumerate(G.elements):
            if k == len(images):
                images.append(_point_index(_mat_vec(witness, v, ell), ell))
            if in_w >> images[k] & 1:
                break
        else:
            raise InternalCheckError("eps(W) > 0 guarantees an orbit point in W")
        ga = images[k]
        # the witness orbit H*g*a stays inside W because H stabilizes W;
        # checked on the preimages h^-1*g*a, the same set since H is closed
        # under inverses
        if not all(in_w >> j & 1 for j in itertools.compress(G.preimage_indices(ga), keep)):
            raise InternalCheckError("stabilizer orbit escaped W")
        eps_w = Fraction((memo.mask & W.mask).bit_count(), den)
        facts = memo.witnesses[W] = (eps_w, witness)
    eps_w, witness = facts
    return OrbitDensityReport(
        orbit=memo.orbit,
        V=V,
        C=C,
        W=W,
        epsilon_V=Fraction(n_v, den),
        epsilon_W=eps_w,
        stab_index=index,
        bound=bound,
        bound_ok=ok,
        witness_g=witness,
        stabilizer_order=stab_order,
    )
