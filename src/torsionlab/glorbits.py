"""Orbit densities of matrix groups over a prime field, verified exhaustively.

The statement being exercised: if the orbit G*a meets a subspace V in at
least a 1/C fraction of itself, then some subspace W of V generated by its
orbit points has stabilizer index at most 3*C^(4^dim V).  The extremal W is
found by exact maximization of eps(W)^(4^(dim W - dim V)) with cleared-power
integer comparisons; no floating point is involved anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from operator import and_, mul

from .errors import CapExceededError, InternalCheckError, ValidationError

#: refuse subspace-lattice work when the ambient point count exceeds this
SUBSPACE_LATTICE_CAP = 3125  # 5^5

#: group closure gives up past this many elements
GROUP_SIZE_CAP = 200_000

Vec = tuple[int, ...]
Mat = tuple[Vec, ...]


def _mat_mul(a: Mat, b: Mat, ell: int) -> Mat:
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(map(mul, row, col)) % ell for col in bt) for row in a
    )


def _mat_vec(a: Mat, v: Vec, ell: int) -> Vec:
    return tuple(sum(map(mul, row, v)) % ell for row in a)


def _identity(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _is_invertible(m: Mat, ell: int) -> bool:
    n = len(m)
    a = [list(row) for row in m]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] % ell), None)
        if piv is None:
            return False
        a[col], a[piv] = a[piv], a[col]
        inv = pow(a[col][col], -1, ell)
        a[col] = [x * inv % ell for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [(x - f * y) % ell for x, y in zip(a[r], a[col])]
    return True


def _rref_mod(rows, ell: int) -> tuple[Vec, ...]:
    m = [list(r) for r in rows]
    out = []
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] % ell), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, ell)
        m[r] = [x * inv % ell for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] % ell:
                f = m[i][c]
                m[i] = [(x - f * y) % ell for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(x % ell for x in m[i]) for i in range(r))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F_ell^dim, canonicalized by its reduced echelon basis.

    Membership is a lookup in the point set, built on first use and kept on
    the instance; every entry of the cached ``all_subspaces`` lattice builds
    it at most once.
    """

    ell: int
    ambient_dim: int
    basis: Mat  # reduced row echelon, possibly empty
    _points: frozenset | None = field(
        default=None, init=False, repr=False, compare=False, hash=False
    )

    @property
    def dim(self) -> int:
        return len(self.basis)

    def points(self) -> frozenset[Vec]:
        if self._points is None:
            out = set()
            for coeffs in itertools.product(range(self.ell), repeat=self.dim):
                v = tuple(
                    sum(c * row[j] for c, row in zip(coeffs, self.basis)) % self.ell
                    for j in range(self.ambient_dim)
                )
                out.add(v)
            object.__setattr__(self, "_points", frozenset(out))
        return self._points

    def contains(self, v: Vec) -> bool:
        """Whether v lies in the subspace; coordinates are taken mod ell."""
        pts = self.points()
        v = tuple(v)
        return v in pts or tuple(x % self.ell for x in v) in pts

    def leq(self, other: "Subspace") -> bool:
        pts = other.points()
        return all(row in pts for row in self.basis)


def subspace_from_vectors(vectors, ell: int, ambient_dim: int) -> Subspace:
    basis = _rref_mod([list(v) for v in vectors], ell) if vectors else ()
    return Subspace(ell, ambient_dim, basis)


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
    out = [Subspace(ell, dim, ())]
    for r in range(1, dim + 1):
        for pivots in itertools.combinations(range(dim), r):
            free = [
                (i, j)
                for i in range(r)
                for j in range(dim)
                if j > pivots[i] and j not in pivots
            ]
            for values in itertools.product(range(ell), repeat=len(free)):
                rows = [[0] * dim for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = 1
                for (i, j), val in zip(free, values):
                    rows[i][j] = val
                out.append(Subspace(ell, dim, tuple(tuple(x) for x in rows)))
    _cache[key] = out
    return out


@dataclass(frozen=True)
class MatrixGroup:
    """A subgroup of GL_dim(F_ell), fully materialized.

    ``images(v)`` memoises the tuple of g*v over ``elements``, in that order,
    for every reduced vector v asked about: orbits, stabilizers and the
    witness search of one group share it.  The memo holds at most ell^dim
    tuples of ``order`` vectors and lives as long as the group.
    """

    ell: int
    dim: int
    generators: tuple[Mat, ...]
    elements: tuple[Mat, ...]
    _images: dict = field(
        default_factory=dict, init=False, repr=False, compare=False, hash=False
    )

    @property
    def order(self) -> int:
        return len(self.elements)

    def images(self, v: Vec) -> tuple[Vec, ...]:
        """(g*v for g in elements) for v with coordinates in [0, ell)."""
        out = self._images.get(v)
        if out is None:
            out = tuple(_mat_vec(g, v, self.ell) for g in self.elements)
            self._images[v] = out
        return out


def generate_group(gens, ell: int, dim: int, cap: int = GROUP_SIZE_CAP) -> MatrixGroup:
    """Breadth-first closure of the generators; deterministic element order.

    In the finite ambient GL the semigroup closure of invertible generators
    is already the group (inverses arise as powers), so multiplying by
    generators suffices.
    """
    if ell < 2 or any(ell % k == 0 for k in range(2, isqrt(ell) + 1)):
        raise ValidationError("ell must be prime, got %r" % (ell,))
    if dim < 1:
        raise ValidationError("dim must be positive")
    norm: list[Mat] = []
    for gmat in gens:
        m = tuple(tuple(int(x) % ell for x in row) for row in gmat)
        if len(m) != dim or any(len(row) != dim for row in m):
            raise ValidationError("generator of wrong shape for dim %d" % dim)
        if not _is_invertible(m, ell):
            raise ValidationError("singular generator %r mod %d" % (gmat, ell))
        norm.append(m)
    ident = _identity(dim)
    seen = {ident}
    order = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for gmat in norm:
                y = _mat_mul(x, gmat, ell)
                if y not in seen:
                    seen.add(y)
                    order.append(y)
                    nxt.append(y)
                    if len(seen) > cap:
                        raise CapExceededError(
                            "group closure exceeded cap %d" % cap, required=len(seen)
                        )
        frontier = nxt
    return MatrixGroup(ell, dim, tuple(norm), tuple(order))


def orbit(G: MatrixGroup, a) -> frozenset[Vec]:
    a = tuple(int(x) % G.ell for x in a)
    if len(a) != G.dim:
        raise ValidationError("vector of wrong dimension")
    return frozenset(G.images(a))


def epsilon(G: MatrixGroup, a, W: Subspace) -> Fraction:
    """Exact orbit density inside W: #(G.a intersect W) / #G.a."""
    orb = orbit(G, a)
    return Fraction(len(orb & W.points()), len(orb))


def _density_key_cmp(n1: int, e1: int, n2: int, e2: int, den: int):
    """Compare (n1/den)^e1 vs (n2/den)^e2 exactly; returns -1/0/1."""
    lhs = n1 ** e1 * den ** e2
    rhs = n2 ** e2 * den ** e1
    return (lhs > rhs) - (lhs < rhs)


def extremal_subspace(G: MatrixGroup, a, V: Subspace, _orb=None) -> Subspace:
    """The minimal-dimension maximizer W of eps(W)^(4^(dim W - dim V)) inside V.

    Comparisons clear the rational exponents by raising both sides to the
    power 4^dim V, turning everything into integers.  Ties on (quantity,
    dimension) break to the lexicographically least echelon basis.
    """
    orb = orbit(G, a) if _orb is None else _orb
    den = len(orb)
    candidates = [W for W in all_subspaces(G.ell, G.dim) if W.leq(V)]
    hits = {W: len(orb & W.points()) for W in candidates}
    if not orb & V.points():
        raise ValidationError("orbit density in V is zero")
    best = None
    for W in candidates:
        n = hits[W]
        if n == 0:
            continue
        e = 4 ** W.dim  # cleared exponent: eps(W)^(4^dim W) after scaling
        if best is None:
            best = (W, n, e)
            continue
        cmp = _density_key_cmp(n, e, best[1], best[2], den)
        if cmp > 0 or (
            cmp == 0
            and (W.dim, W.basis) < (best[0].dim, best[0].basis)
        ):
            best = (W, n, e)
    W = best[0]
    span = subspace_from_vectors(list(orb & W.points()), G.ell, G.dim)
    if span.basis != W.basis:
        raise InternalCheckError("extremal subspace not generated by its orbit points")
    return W


def stabilizer(G: MatrixGroup, W: Subspace) -> tuple[Mat, ...]:
    """Elements with g*W = W, by the direct image test on the basis."""
    inside = W.points().__contains__
    keep = [True] * G.order
    for row in W.basis:
        keep = map(and_, keep, map(inside, G.images(row)))
    return tuple(itertools.compress(G.elements, keep))


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
    and a witness g with Stab_G(W)*g*a inside W."""
    orb = orbit(G, a)
    a = tuple(int(x) % G.ell for x in a)
    eps_v = Fraction(len(orb & V.points()), len(orb))
    if C is None:
        if eps_v == 0:
            raise ValidationError("orbit misses V; supply C explicitly or enlarge V")
        C = 1 / eps_v
    C = Fraction(C)
    if C < 1:
        raise ValidationError("C must be at least 1")
    if eps_v < 1 / C:
        raise ValidationError(
            "density precondition fails: eps(V) = %s < 1/C = %s" % (eps_v, 1 / C)
        )
    W = extremal_subspace(G, a, V, _orb=orb)
    eps_w = Fraction(len(orb & W.points()), len(orb))
    stab = stabilizer(G, W)
    index = len(G.elements) // len(stab)
    bound = 3 * C ** (4 ** V.dim)
    ok = Fraction(index) <= bound
    if not ok:
        raise InternalCheckError(
            "stabilizer index %d violates the bound %s" % (index, bound)
        )
    in_w = W.points()
    witness, ga = next(
        ((g, p) for g, p in zip(G.elements, G.images(a)) if p in in_w), (None, None)
    )
    if witness is None:
        raise InternalCheckError("eps(W) > 0 guarantees an orbit point in W")
    # the witness orbit H*g*a stays inside W because H stabilizes W; checked
    for h in stab:
        if not W.contains(_mat_vec(h, ga, G.ell)):
            raise InternalCheckError("stabilizer orbit escaped W")
    return OrbitDensityReport(
        orbit=orb,
        V=V,
        C=C,
        W=W,
        epsilon_V=eps_v,
        epsilon_W=eps_w,
        stab_index=index,
        bound=bound,
        bound_ok=ok,
        witness_g=witness,
        stabilizer_order=len(stab),
    )
