"""An exactly computable model of torsion points: the group (Z/N)^(2g).

Model dictionary: ambient group = the N-torsion of an abelian variety of
dimension g; "abelian subvarieties" = direct summands isomorphic to
(Z/N)^(2b); homothety orbits l^c * a realize the Galois-style action;
"degree" of a union of cosets = its number of components.  Everything is
enumerable, so every claim about orbits, cosets and stabilizers is checked
by exhaustion rather than believed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import reduce
from math import gcd, prod
from operator import or_

from .errors import CapExceededError, InternalCheckError, ValidationError
from .integers import factorize
from .linalg import Memo, smith_normal_form, span_points

#: subgroup/point enumeration refuses to touch ambient groups bigger than this
AMBIENT_ORDER_CAP = 20736  # 12^4

#: torsion_count cross-checks its closed form by enumeration up to this order
TORSION_COUNT_ENUM_CAP = 4096

Vector = tuple[int, ...]


@dataclass(frozen=True)
class ModelAmbient:
    """The group (Z/N)^(2g) with coordinates reduced to [0, N)."""

    N: int
    g: int

    def __post_init__(self):
        if self.N < 1 or self.g < 1:
            raise ValidationError("ModelAmbient requires N >= 1 and g >= 1")

    @property
    def rank(self) -> int:
        return 2 * self.g

    @property
    def order(self) -> int:
        return self.N ** self.rank

    def reduce(self, v) -> Vector:
        if len(v) != self.rank:
            raise ValidationError(
                "point has %d coordinates, ambient rank is %d" % (len(v), self.rank)
            )
        return tuple(int(x) % self.N for x in v)

    def zero(self) -> Vector:
        return (0,) * self.rank

    def add(self, a: Vector, b: Vector) -> Vector:
        return tuple((x + y) % self.N for x, y in zip(a, b))

    def scale(self, m: int, a: Vector) -> Vector:
        return tuple(m * x % self.N for x in a)

    def neg(self, a: Vector) -> Vector:
        return tuple(-x % self.N for x in a)

    def element_order(self, a: Vector) -> int:
        """Order of a: N / gcd(N, all coordinates)."""
        h = self.N
        for x in a:
            h = gcd(h, x)
        return self.N // h

    def elements(self, cap: int = AMBIENT_ORDER_CAP):
        if self.order > cap:
            raise CapExceededError(
                "ambient order %d exceeds cap %d" % (self.order, cap),
                required=self.order,
            )
        return itertools.product(range(self.N), repeat=self.rank)


@dataclass(frozen=True, slots=True)
class ModelSubvariety:
    """A direct summand of the ambient group isomorphic to (Z/N)^(2b).

    There are two ways in.  The public constructor validates: it reduces the
    basis and requires every elementary divisor of the basis matrix's integer
    Smith normal form to be coprime to N, which is equivalent to the rows
    generating a free rank-2b summand.  Built summands of positive rank come
    through ``_from_catalog``, trusting ``_summand_lists`` to have checked
    them mod p: for each prime p | N the rows reduced mod p are the identity
    on the pivot columns of that prime's echelon basis, so their rank mod p
    is 2b, which holds for every p | N exactly when every elementary divisor
    is prime to N.  Row i must reduce to e_i whatever the other rows are, so
    the check runs once per position, on its list of row choices.
    Membership and coset order read a point's quotient coordinates
    (``_quotient``) through the SNF column transform V: the public
    constructor keeps V from its freeness check's Smith form, a built
    summand makes V on its first query and keeps it.
    """

    ambient: ModelAmbient
    basis: tuple[Vector, ...]
    _colmap: tuple[Vector, ...] = field(repr=False, compare=False, default=())

    def __post_init__(self):
        amb = self.ambient
        basis = tuple(amb.reduce(v) for v in self.basis)
        object.__setattr__(self, "basis", basis)
        if len(basis) % 2 != 0:
            raise ValidationError("model subvarieties have even rank 2b")
        if len(basis) > amb.rank:
            raise ValidationError("basis larger than ambient rank")
        if basis:
            d, _, v = smith_normal_form([list(row) for row in basis])
            divisors = [d[i][i] for i in range(len(basis))]
            if any(gcd(x, amb.N) != 1 for x in divisors):
                raise ValidationError(
                    "basis does not span a free direct summand mod %d "
                    "(elementary divisors %s)" % (amb.N, divisors)
                )
            object.__setattr__(self, "_colmap", tuple(map(tuple, v)))

    @classmethod
    def _from_catalog(cls, ambient: ModelAmbient, basis) -> "ModelSubvariety":
        """A built summand, trusted: ``_summand_lists`` checked its rows."""
        self = object.__new__(cls)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "_colmap", ())  # a slot has no class default
        return self

    @property
    def dim(self) -> int:
        return len(self.basis) // 2

    @property
    def order(self) -> int:
        return self.ambient.N ** len(self.basis)

    def _quotient(self, point):
        """The coordinates j >= 2b of x @ V mod N, x the reduced point, as an
        iterable read once: x's image in (Z/N)^(2g) / B, as the elementary
        divisors are units mod N.  The zero summand's are x's own."""
        amb = self.ambient
        x = amb.reduce(point)
        if not self.basis:
            return x
        v = self._colmap
        if not v:
            v = tuple(map(tuple, smith_normal_form([list(r) for r in self.basis])[2]))
            object.__setattr__(self, "_colmap", v)
        n = amb.rank
        return (sum(x[i] * v[i][j] for i in range(n)) % amb.N for j in range(len(self.basis), n))

    def contains(self, point) -> bool:
        """x lies in the summand exactly when its quotient coordinates vanish."""
        return not any(self._quotient(point))

    def elements(self, cap: int = AMBIENT_ORDER_CAP) -> frozenset[Vector]:
        if self.order > cap:
            raise CapExceededError(
                "subgroup order %d exceeds cap %d" % (self.order, cap),
                required=self.order,
            )
        out = span_points(self.basis, self.ambient.N, self.ambient.rank)
        if len(out) != self.order:
            raise InternalCheckError("summand coefficient map is not injective")
        return out


@dataclass(frozen=True)
class TorsionCoset:
    """point + subgroup, with the order of the point in ambient/subgroup."""

    point: Vector
    subgroup: ModelSubvariety
    order: int = 0

    def __post_init__(self):
        pt = self.subgroup.ambient.reduce(self.point)
        object.__setattr__(self, "point", pt)
        object.__setattr__(self, "order", coset_order_raw(pt, self.subgroup))


def coset_order_raw(point: Vector, subgroup: ModelSubvariety) -> int:
    """Minimal m >= 1 with m * point in the subgroup B: m*x lies in B exactly
    when N divides m times each quotient coordinate q_j of x, so the order is
    the lcm of the N / gcd(N, q_j), which is N / gcd(N, all q_j)."""
    N = subgroup.ambient.N
    return N // gcd(N, *subgroup._quotient(point))


def lang_orbit(
    ambient: ModelAmbient, a, c: int, cap: int = AMBIENT_ORDER_CAP
) -> frozenset[Vector]:
    """{ l^c * a : l a unit mod ord(a) }: the homothety-power orbit of a.

    The scan runs over the residues mod d = ord(a); d above ``cap`` is refused
    before it starts."""
    if c < 1:
        raise ValidationError("lang_orbit requires c >= 1")
    a = ambient.reduce(a)
    d = ambient.element_order(a)
    if d == 1:
        return frozenset([a])
    if d > cap:
        raise CapExceededError(
            "orbit scan over the units mod %d exceeds cap %d" % (d, cap), required=d
        )
    powers = {pow(l, c, d) for l in range(1, d) if gcd(l, d) == 1}
    return frozenset(ambient.scale(s, a) for s in powers)


def torsion_count(B: ModelSubvariety, q: int) -> int:
    """#B[q] = gcd(q, N)^(2 dim B); cross-checked by enumeration when B is small."""
    if q < 1:
        raise ValidationError("torsion_count requires q >= 1")
    amb = B.ambient
    closed = gcd(q, amb.N) ** (2 * B.dim)
    if B.order <= TORSION_COUNT_ENUM_CAP:
        enumerated = sum(
            1 for x in B.elements() if all(q * c % amb.N == 0 for c in x)
        )
        if enumerated != closed:
            raise InternalCheckError(
                "torsion count mismatch: enumerated %d, closed form %d"
                % (enumerated, closed)
            )
    return closed


def degree_pushforward(deg_v: int, dim_v: int, stab_torsion: int, q: int) -> int:
    """deg([q]V) = q^(2 dim V) * deg(V) / #B[q] for B the stabilizer."""
    if deg_v < 1 or dim_v < 0 or stab_torsion < 1 or q < 1:
        raise ValidationError("degree_pushforward arguments out of range")
    total = q ** (2 * dim_v) * deg_v
    if total % stab_torsion:
        raise ValidationError(
            "inconsistent inputs: %d does not divide q^(2 dim V) deg V = %d"
            % (stab_torsion, total)
        )
    return total // stab_torsion


# ---------------------------------------------------------------------------
# direct summands


#: no more summands than this are built, counted first: by the closed form in
#: ``enumerate_summands``, by what the set admits in ``summands_within``.  Rank
#: 2 of (Z/5)^6 holds 508 431; rank 4 of (Z/2)^10 holds 53.7M, of (Z/3)^8 75.9M.
CATALOG_SIZE_CAP = 1 << 20


def catalog_size(N: int, n: int, r: int) -> int:
    """Number of free rank-r direct summands of (Z/N)^n (0 <= r <= n): the
    product over p^e || N of the Gaussian binomial [n r]_p times
    p^((e-1) r (n-r)).  N = 1 counts the zero summand alone, at rank 0."""
    if N == 1:
        return int(r == 0)
    out = 1
    for p, e in factorize(N).factors:
        num = den = 1
        for i in range(r):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        out *= num // den * p ** ((e - 1) * r * (n - r))
    return out


def _row_choices(p: int, rows, n: int, r: int):
    """(P, lists) per pivot set P of size r: lists[i] holds the rows of
    ``rows`` (vectors mod p^e, ascending) whose first column prime to p is
    P[i], whose entry there is 1 and which are 0 at the other pivots; a P
    with an empty list is skipped.  Over all of (Z/p^e)^n these are the
    lists of ``linalg.free_summand_rows``, in its order."""
    by_lead = [[] for _ in range(n)]  # P[i] -> (row, mask of its nonzero columns)
    for row in rows:
        lead = next((j for j, x in enumerate(row) if x % p), n)
        if lead < n and row[lead] == 1:
            by_lead[lead].append((row, sum(1 << j for j, x in enumerate(row) if x)))
    for pivots in itertools.combinations(range(n), r):
        mask = sum(1 << c for c in pivots)
        lists = [[row for row, nz in by_lead[c] if not nz & mask & ~(1 << c)] for c in pivots]
        if all(lists):
            yield pivots, lists


def _check_free(i: int, rows, pivots) -> None:
    """Raise unless every row of ``rows`` reduces mod p to the unit vector
    e_i on the columns ``cols``, for each (p, cols) in ``pivots``."""
    for p, cols in pivots:
        unit = [int(k == i) for k in range(len(cols))]
        for row in rows:
            if [row[j] % p for j in cols] != unit:
                raise InternalCheckError(
                    "catalog row %s at position %d is not free mod %d" % (row, i, p)
                )


def _position_lists(parts, sums, keep=None):
    """(pivots, lists) per basis of the primes before the last of ``parts``
    (p, {cols: CRT-scaled rows per position}) and per pivot set of the last:
    lists[i] holds the sums ``sums[a][b]`` of the basis's row i, a, with each
    choice b of the last prime at position i that ``keep`` admits.  A list
    depends on (i, a, pivots) alone: it is built and checked mod p once."""
    *outer, (p, choices) = parts
    heads = ((pivots, basis) for pivots, lists in _position_lists(outer, sums)
             for basis in itertools.product(*lists)) if outer else [((), ())]

    def checked(key):
        i, a, pivots = key
        rows = choices[pivots[-1][1]][i]
        rows = list(map(sums[a].__getitem__, rows)) if a else rows
        rows = list(filter(keep, rows)) if keep else rows
        _check_free(i, rows, pivots)
        return rows

    lists = Memo(checked)
    for head, basis in heads:
        for cols, positions in choices.items():
            pivots = head + ((p, cols),)
            yield pivots, [lists[i, a, pivots]
                           for i, a in enumerate(basis or [()] * len(positions))]


def _summand_lists(ambient: ModelAmbient, rank: int, allowed=None):
    """The builder: (pivots, lists) whose products, in order, are the free
    rank-``rank`` summands (rank > 0) with every basis row in ``allowed``, or
    in the whole ambient for ``None``.  Per p^e || N the rows mod p^e (all,
    or the reductions of ``allowed``, as a row in ``allowed`` reduces to one)
    are sorted into position lists (``_row_choices``) and scaled by their CRT
    idempotent once; ``_position_lists`` combines them, first prime
    outermost, drops the combined rows outside ``allowed`` and checks every
    row before a caller takes the product."""
    N, n = ambient.N, ambient.rank
    parts = []
    for p, e in factorize(N).factors:  # N = 1 is the trivial group: no parts
        q = p ** e
        e_q = N // q * pow(N // q, -1, q) % N
        scaled = Memo(lambda row, e_q=e_q: tuple([e_q * x % N for x in row]))
        rows = (itertools.product(range(q), repeat=n) if allowed is None
                else sorted({tuple([x % q for x in v]) for v in allowed}))
        parts.append((p, {cols: [list(map(scaled.__getitem__, rows)) for rows in positions]
                          for cols, positions in _row_choices(p, rows, n, rank)}))
    if parts:
        sums = Memo(lambda a: Memo(lambda b: tuple([(x + y) % N for x, y in zip(a, b)])))
        keep = None if allowed is None else allowed.__contains__
        yield from _position_lists(parts, sums, keep)


def _check_ambient(ambient: ModelAmbient, cap: int) -> None:
    if ambient.order > cap:
        raise CapExceededError(
            "subgroup enumeration beyond ambient cap %d" % cap, required=ambient.order
        )


def enumerate_summands(
    ambient: ModelAmbient, rank: int, cap: int = AMBIENT_ORDER_CAP
) -> list[ModelSubvariety]:
    """All direct summands of the ambient group isomorphic to (Z/N)^rank, in
    catalog order: the builder over the whole ambient, nothing kept between
    calls.  An ambient over ``cap``, an invalid rank and a catalog of more
    than ``CATALOG_SIZE_CAP`` summands (``catalog_size``) are refused first;
    the zero summand comes from the public constructor."""
    _check_ambient(ambient, cap)
    if rank % 2 != 0 or rank > ambient.rank:
        raise ValidationError("summand rank must be even and at most 2g")
    size = catalog_size(ambient.N, ambient.rank, rank)
    if size > CATALOG_SIZE_CAP:
        raise CapExceededError(
            "catalog of rank-%d summands of (Z/%d)^%d holds %d summands, beyond cap %d"
            % (rank, ambient.N, ambient.rank, size, CATALOG_SIZE_CAP),
            required=size,
        )
    if rank == 0:
        return [ModelSubvariety(ambient, ())]
    return [ModelSubvariety._from_catalog(ambient, basis) for _, lists in
            _summand_lists(ambient, rank) for basis in itertools.product(*lists)]


def all_summands(ambient: ModelAmbient, cap: int = AMBIENT_ORDER_CAP):
    for rank in range(0, ambient.rank + 1, 2):
        yield from enumerate_summands(ambient, rank, cap)


def summands_within(ambient: ModelAmbient, allowed, max_order: int, cap: int = AMBIENT_ORDER_CAP):
    """Every summand of order at most ``max_order`` whose basis vectors all
    lie in the set ``allowed``: the zero summand, then the builder's on
    ``allowed``, rank by rank, each in catalog order.  Every list is built
    and counted before a summand is made, and the call is refused where the
    count passes ``CATALOG_SIZE_CAP`` (``required`` is the count reached), so
    a refusal depends on the set."""
    _check_ambient(ambient, cap)
    if max_order < 1:
        return
    found, count = [], 1
    for rank in range(2, ambient.rank + 1, 2):
        if ambient.N ** rank > max_order:
            break
        for _, lists in _summand_lists(ambient, rank, allowed):
            count += prod(map(len, lists))
            if count > CATALOG_SIZE_CAP:
                raise CapExceededError(
                    "summands of (Z/%d)^%d within the set number %d by rank %d, beyond cap %d"
                    % (ambient.N, ambient.rank, count, rank, CATALOG_SIZE_CAP), required=count)
            found.append(itertools.product(*lists))
    yield ModelSubvariety(ambient, ())
    for basis in itertools.chain(*found):
        yield ModelSubvariety._from_catalog(ambient, basis)


# ---------------------------------------------------------------------------
# closure and the witness search


def block_points(
    ambient: ModelAmbient, alpha: Vector, B: ModelSubvariety, c: int, cap: int
) -> frozenset[Vector]:
    """Point set of the homothety-stable union over the orbit of alpha."""
    orbit = lang_orbit(ambient, alpha, c, cap)
    sub = B.elements(cap)
    return frozenset(
        ambient.add(o, b) for o in orbit for b in sub
    )


def _stable_blocks(ambient: ModelAmbient, inside, orbits, cap: int):
    """(rep, B, block) for each stable block orbit(alpha) + B inside the set
    ``inside``, where ``orbits`` maps each candidate alpha to its orbit: per
    summand B that can fit, the alphas in ascending order, one per coset of B
    and only where alpha + B lies inside; rep is the least point of alpha + B.
    B's points are built once, and each coset once for all the blocks it is in.
    """
    allowed = {ambient.add(x, minus) for minus in map(ambient.neg, orbits) for x in inside}
    for B in summands_within(ambient, allowed, len(inside), cap):
        sub = B.elements(cap)
        cosets: dict[Vector, frozenset[Vector]] = {}  # point -> its coset of B

        def coset(x):
            if x not in cosets:
                pts = frozenset([ambient.add(x, b) for b in sub])
                cosets.update(dict.fromkeys(pts, pts))
            return cosets[x]

        seen = set()
        for alpha in sorted(orbits):
            pts = coset(alpha)
            if pts <= inside and pts not in seen:
                seen.add(pts)
                block = frozenset().union(*map(coset, orbits[alpha]))
                if block <= inside:
                    yield min(pts), B, block


def special_closure(
    ambient: ModelAmbient, S, c: int, cap: int = AMBIENT_ORDER_CAP
) -> list[TorsionCoset]:
    """Smallest homothety-stable union of torsion cosets containing S.

    Any stable union containing a point s contains the whole orbit of s, so
    the minimal point set is forced: the union A of the orbits of S.  Among
    representations of A the component count is minimized by an exact
    set-cover search over the stable blocks inside A (``_stable_blocks``;
    a block reached from several summands keeps the largest, then the least
    basis), iterative deepening with lexicographic tie-breaking.

    The atoms are the orbits of S, atom i (by least point) the bit 1 << i;
    a block orbit(alpha) + B is the union of the orbits of alpha + B, so it
    is held as a mask of atoms.  The search branches on the lowest uncovered
    bit, and one memo shared by every depth keeps the largest budget at
    which each uncovered mask failed.  It changes no answer: a result
    depends on (mask, budget) alone, and no cover within b blocks means
    none within fewer, so the first cover at the least depth is unchanged.
    A node skips a block that covers no uncovered atom beyond what a failed
    block at it covered: the rest it leaves contains a rest that failed, so
    only failing branches are skipped.  The full target is one identity
    summand.
    """
    if ambient.order > cap:
        raise CapExceededError(
            "closure beyond ambient cap %d" % cap, required=ambient.order
        )
    pts = [ambient.reduce(s) for s in S]
    if not pts:
        return []
    atom_of: dict[Vector, frozenset[Vector]] = {}  # target point -> its orbit
    for s in pts:
        if s not in atom_of:
            orb = lang_orbit(ambient, s, c, cap)
            atom_of.update(dict.fromkeys(orb, orb))
    target = frozenset(atom_of)

    # N = 1 has no summand of positive rank; the block search finds {0} + 0
    if ambient.N > 1 and len(target) == ambient.order:
        n = ambient.rank
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        return [TorsionCoset(ambient.zero(), ModelSubvariety(ambient, identity))]

    # candidate blocks fully inside the target, deduplicated by point set
    blocks: dict[frozenset, tuple[Vector, ModelSubvariety]] = {}
    for rep, B, block in _stable_blocks(ambient, target, atom_of, cap):
        prev = blocks.get(block)
        if prev is None or (-B.order, B.basis) < (-prev[1].order, prev[1].basis):
            blocks[block] = (rep, B)
    atoms = sorted(set(atom_of.values()), key=min)
    bit = {p: 1 << i for i, atom in enumerate(atoms) for p in atom}  # point -> its atom's bit
    choices = sorted(blocks.items(), key=lambda kv: (-len(kv[0]), sorted(kv[0])))
    choices = [(reduce(or_, map(bit.get, block)), rep, B) for block, (rep, B) in choices]

    # minimal number of components: a cover of the atoms by iterative
    # deepening; candidate order makes the result deterministic
    failed: dict[int, int] = {}  # uncovered mask -> largest budget that failed

    def search(uncovered: int, budget: int):
        if not uncovered:
            return []
        if budget == 0 or failed.get(uncovered, 0) >= budget:
            return None
        lowest = uncovered & -uncovered
        tried = []  # what each block that failed here covered
        for mask, rep, B in choices:
            if mask & lowest and not any(not mask & uncovered & ~done for done in tried):
                got = search(uncovered & ~mask, budget - 1)
                if got is not None:
                    got.append((rep, B))
                    return got
                tried.append(mask & uncovered)
        failed[uncovered] = budget
        return None

    every = (1 << len(atoms)) - 1
    solution = next((got for k in range(1, len(atoms) + 1)
                     if (got := search(every, k)) is not None), None)
    if solution is None:
        raise InternalCheckError("orbit atoms always admit a cover")
    return sorted((TorsionCoset(rep, B) for rep, B in solution),
                  key=lambda tc: (tc.point, tc.subgroup.basis))


@dataclass(frozen=True)
class WitnessReport:
    alpha: Vector
    subgroup: ModelSubvariety
    order: int
    within_cap: bool


def keyprop_witness(
    ambient: ModelAmbient,
    V,
    a,
    c: int,
    delta_cap: int,
    cap: int = AMBIENT_ORDER_CAP,
) -> WitnessReport:
    """Minimal-order stable coset sandwiched between the orbit of a and V.

    Any candidate block containing a equals orbit(a) + B, so the search runs
    over the stable blocks inside V with alpha = a alone (``_stable_blocks``);
    ties on coset order prefer the larger subgroup, then the lexicographically
    least canonical basis.
    """
    V_set = {ambient.reduce(v) for v in V}
    a = ambient.reduce(a)
    orbit = lang_orbit(ambient, a, c, cap)
    if not orbit <= V_set:
        raise ValidationError("precondition failed: the orbit of a is not inside V")
    best = min(
        (((coset_order_raw(a, B), -B.order, B.basis), B)
         for _, B, _ in _stable_blocks(ambient, V_set, {a: orbit}, cap)),
        default=None,
    )
    if best is None:
        raise InternalCheckError("B = 0 is always a valid candidate")
    (order, _, _), B = best
    # a representative of ambient order exactly ord(a+B) always exists:
    # project a onto a complement of the summand B
    coset_pts = sorted(ambient.add(a, b) for b in B.elements(cap))
    alpha = next((p for p in coset_pts if ambient.element_order(p) == order), None)
    if alpha is None:
        raise InternalCheckError("coset has no representative of its own order")
    return WitnessReport(alpha=alpha, subgroup=B, order=order, within_cap=order <= delta_cap)
