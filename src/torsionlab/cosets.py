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
from math import gcd

from .errors import CapExceededError, InternalCheckError, ValidationError
from .integers import factorize
from .linalg import smith_normal_form

#: subgroup/point enumeration refuses to touch ambient groups bigger than this
AMBIENT_ORDER_CAP = 20736  # 12^4

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


@dataclass(frozen=True)
class ModelSubvariety:
    """A direct summand of the ambient group isomorphic to (Z/N)^(2b).

    The defining test: the integer Smith normal form of the basis matrix has
    all its elementary divisors coprime to N, which is equivalent to the rows
    generating a free rank-2b summand.  The SNF's column transform doubles as
    the membership solver.
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
            mat = [list(v) for v in basis]
            d, _, v = smith_normal_form(mat)
            divisors = [d[i][i] for i in range(len(basis))]
            if any(gcd(x, amb.N) != 1 for x in divisors):
                raise ValidationError(
                    "basis does not span a free direct summand mod %d "
                    "(elementary divisors %s)" % (amb.N, divisors)
                )
            object.__setattr__(
                self, "_colmap", tuple(tuple(row) for row in v)
            )

    @property
    def dim(self) -> int:
        return len(self.basis) // 2

    @property
    def order(self) -> int:
        return self.ambient.N ** len(self.basis)

    def contains(self, point) -> bool:
        """Membership via the Smith transform: x in the span iff the trailing
        coordinates of x @ V vanish mod N."""
        amb = self.ambient
        x = amb.reduce(point)
        if not self.basis:
            return all(c == 0 for c in x)
        v = self._colmap
        n = amb.rank
        r = len(self.basis)
        for j in range(r, n):
            if sum(x[i] * v[i][j] for i in range(n)) % amb.N != 0:
                return False
        return True

    def elements(self, cap: int = AMBIENT_ORDER_CAP) -> frozenset[Vector]:
        if self.order > cap:
            raise CapExceededError(
                "subgroup order %d exceeds cap %d" % (self.order, cap),
                required=self.order,
            )
        amb = self.ambient
        out = set()
        for coeffs in itertools.product(range(amb.N), repeat=len(self.basis)):
            acc = amb.zero()
            for cf, vec in zip(coeffs, self.basis):
                acc = amb.add(acc, amb.scale(cf, vec))
            out.add(acc)
        if len(out) != self.order:
            raise InternalCheckError("summand coefficient map is not injective")
        return frozenset(out)

    def same_subgroup(self, other: "ModelSubvariety") -> bool:
        if self.ambient != other.ambient or len(self.basis) != len(other.basis):
            return False
        return all(self.contains(v) for v in other.basis) and all(
            other.contains(v) for v in self.basis
        )


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

    def points(self, cap: int = AMBIENT_ORDER_CAP) -> frozenset[Vector]:
        amb = self.subgroup.ambient
        return frozenset(amb.add(self.point, b) for b in self.subgroup.elements(cap))

    def same_coset(self, other: "TorsionCoset") -> bool:
        if not self.subgroup.same_subgroup(other.subgroup):
            return False
        diff = self.subgroup.ambient.add(
            self.point, self.subgroup.ambient.neg(other.point)
        )
        return self.subgroup.contains(diff)


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in factorize(n).factors:
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


def coset_order_raw(point: Vector, subgroup: ModelSubvariety) -> int:
    """Minimal m >= 1 with m * point inside the subgroup; scans divisors of N."""
    amb = subgroup.ambient
    for m in _divisors(amb.N):
        if subgroup.contains(amb.scale(m, point)):
            return m
    raise InternalCheckError("N * point must lie in every subgroup")


def coset_order(coset: TorsionCoset) -> int:
    return coset_order_raw(coset.point, coset.subgroup)


def lang_orbit(ambient: ModelAmbient, a, c: int) -> frozenset[Vector]:
    """{ l^c * a : l a unit mod ord(a) }: the homothety-power orbit of a."""
    if c < 1:
        raise ValidationError("lang_orbit requires c >= 1")
    a = ambient.reduce(a)
    d = ambient.element_order(a)
    if d == 1:
        return frozenset([a])
    powers = {pow(l, c, d) for l in range(1, d) if gcd(l, d) == 1}
    return frozenset(ambient.scale(s, a) for s in powers)


def multiply_coset(q: int, coset: TorsionCoset) -> TorsionCoset:
    """[q] on cosets: q * point + the same subgroup; needs gcd(q, N) = 1."""
    amb = coset.subgroup.ambient
    if q < 1:
        raise ValidationError("multiply_coset requires q >= 1")
    if gcd(q, amb.N) != 1:
        raise ValidationError(
            "multiplication by %d is not invertible mod %d" % (q, amb.N)
        )
    return TorsionCoset(amb.scale(q, coset.point), coset.subgroup)


def torsion_count(B: ModelSubvariety, q: int, enum_cap: int = 4096) -> int:
    """#B[q] = gcd(q, N)^(2 dim B); cross-checked by enumeration when B is small."""
    if q < 1:
        raise ValidationError("torsion_count requires q >= 1")
    amb = B.ambient
    closed = gcd(q, amb.N) ** (2 * B.dim)
    if B.order <= enum_cap:
        enumerated = sum(
            1 for x in B.elements(enum_cap) if all(q * c % amb.N == 0 for c in x)
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


def corhin_derive(deg_v: int, dim_v: int, q: int, q_prime: int) -> tuple[int, int, int]:
    """Torsion counts forced by [q]V = [q']V for coprime q, q'."""
    if q < 1 or q_prime < 1:
        raise ValidationError("q and q' must be positive")
    if gcd(q, q_prime) != 1:
        raise ValidationError("q and q' must be coprime")
    if deg_v < 1 or dim_v < 0:
        raise ValidationError("degree/dimension out of range")
    return (
        q ** (2 * dim_v),
        q_prime ** (2 * dim_v),
        (q * q_prime) ** (2 * dim_v),
    )


@dataclass(frozen=True)
class HindryReport:
    hypothesis_holds: bool
    degree: int
    degree_condition_holds: bool
    special: bool
    components: tuple[dict, ...]


def hindry_criterion(V: list[TorsionCoset], q: int, q_prime: int) -> HindryReport:
    """Check [q]V = [q']V as exact coset sets plus deg(V) < (qq')^2.

    Model degree of a union is its component count; every model component is
    a torsion coset, hence special, and its stabilizer is its own subgroup.
    """
    if not V:
        return HindryReport(True, 0, True, True, ())
    amb = V[0].subgroup.ambient
    if any(x.subgroup.ambient != amb for x in V):
        raise ValidationError("all cosets must share one ambient group")
    if gcd(q * q_prime, amb.N) != 1:
        raise ValidationError("q*q' must be prime to N")

    def image(mult):
        return [multiply_coset(mult, x) for x in V]

    def set_eq(xs, ys):
        return all(any(x.same_coset(y) for y in ys) for x in xs) and all(
            any(y.same_coset(x) for x in xs) for y in ys
        )

    distinct = []
    for x in V:
        if not any(x.same_coset(y) for y in distinct):
            distinct.append(x)
    degree = len(distinct)
    hypothesis = set_eq(image(q), image(q_prime))
    deg_ok = degree < (q * q_prime) ** 2
    comps = tuple(
        {
            "point": x.point,
            "stabilizer": x.subgroup,
            "order": x.order,
            "special": True,
        }
        for x in distinct
    )
    return HindryReport(hypothesis, degree, deg_ok, True, comps)


# ---------------------------------------------------------------------------
# direct-summand catalogs


def _free_summand_bases_prime_power(q: int, p: int, n: int, r: int):
    """Canonical bases of the free rank-r direct summands of (Z/q)^n, q = p^e.

    Echelon shape: pivot columns carry the identity; a non-pivot entry right
    of its row's pivot ranges over Z/q, one left of it over p*Z/q (its mod-p
    reduction must vanish there for the mod-p image to be in echelon form).
    Each summand appears exactly once: count per pivot set multiplies out to
    the Gaussian binomial times p^((e-1) r (n-r)).
    """
    if r == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), r):
        free_slots = []
        for i in range(r):
            for j in range(n):
                if j in pivots:
                    continue
                if j > pivots[i]:
                    free_slots.append((i, j, tuple(range(q))))
                else:
                    free_slots.append((i, j, tuple(range(0, q, p))))
        for values in itertools.product(*(vals for _, _, vals in free_slots)):
            rows = [[0] * n for _ in range(r)]
            for i in range(r):
                rows[i][pivots[i]] = 1
            for (i, j, _), val in zip(free_slots, values):
                rows[i][j] = val
            yield tuple(tuple(row) for row in rows)


def _crt_combine(ambient: ModelAmbient, parts, moduli) -> tuple[Vector, ...]:
    rank = len(parts[0])
    n = ambient.rank
    out = []
    for i in range(rank):
        vec = []
        for j in range(n):
            residues = [part[i][j] for part in parts]
            x = 0
            m = 1
            for res, mod in zip(residues, moduli):
                # incremental CRT
                t = (res - x) * pow(m, -1, mod) % mod
                x += m * t
                m *= mod
            vec.append(x % ambient.N)
        out.append(tuple(vec))
    return tuple(out)


#: (N, g, rank) -> (catalog, index); built by _catalog, read through
#: enumerate_summands and summands_within
_CATALOGS: dict = {}


def _catalog(ambient: ModelAmbient, rank: int, cap: int):
    if ambient.order > cap:
        raise CapExceededError(
            "subgroup enumeration beyond ambient cap %d" % cap, required=ambient.order
        )
    key = (ambient.N, ambient.g, rank)
    if key in _CATALOGS:
        return _CATALOGS[key]
    if rank % 2 != 0 or rank > ambient.rank:
        raise ValidationError("summand rank must be even and at most 2g")
    fact = factorize(ambient.N).factors
    result = []
    if rank == 0:
        result.append(ModelSubvariety(ambient, tuple()))
    elif fact:  # N = 1 is the trivial group: no summand of positive rank
        per_prime = []
        moduli = []
        for p, e in fact:
            q = p ** e
            per_prime.append(
                list(_free_summand_bases_prime_power(q, p, ambient.rank, rank))
            )
            moduli.append(q)
        for combo in itertools.product(*per_prime):
            basis = _crt_combine(ambient, combo, moduli)
            result.append(ModelSubvariety(ambient, basis))
    index: dict[Vector, list[ModelSubvariety]] = {}
    for B in result:
        index.setdefault(B.basis[0] if B.basis else (), []).append(B)
    _CATALOGS[key] = (result, index)
    return result, index


def enumerate_summands(
    ambient: ModelAmbient, rank: int, cap: int = AMBIENT_ORDER_CAP
) -> list[ModelSubvariety]:
    """All direct summands of the ambient group isomorphic to (Z/N)^rank.

    Each catalog is built once per (N, g, rank) and cached together with its
    index, which maps a summand's first basis vector to the summands it
    leads (the zero summand sits under the key ``()``); ``summands_within``
    answers from the index instead of scanning the catalog.  The cap is
    checked before the cache, so a smaller cap refuses a catalog an earlier
    call built.
    """
    return _catalog(ambient, rank, cap)[0]


def all_summands(ambient: ModelAmbient, cap: int = AMBIENT_ORDER_CAP):
    for rank in range(0, ambient.rank + 1, 2):
        yield from enumerate_summands(ambient, rank, cap)


def summands_within(ambient: ModelAmbient, allowed, cap: int = AMBIENT_ORDER_CAP):
    """Every summand whose basis vectors all lie in the set ``allowed``.

    The same summands as filtering ``all_summands`` by
    ``all(v in allowed for v in B.basis)``, zero summand included, but
    looked up by leading basis vector; the order is not the catalog's.
    """
    for rank in range(0, ambient.rank + 1, 2):
        index = _catalog(ambient, rank, cap)[1]
        if rank == 0:
            yield from index[()]
            continue
        if len(allowed) < len(index):
            led = (index[v] for v in allowed if v in index)
        else:
            led = (Bs for v, Bs in index.items() if v in allowed)
        for Bs in led:
            for B in Bs:
                if all(v in allowed for v in B.basis[1:]):
                    yield B


# ---------------------------------------------------------------------------
# closure and the witness search


def _block_points(
    ambient: ModelAmbient, alpha: Vector, B: ModelSubvariety, c: int, cap: int
) -> frozenset[Vector]:
    """Point set of the homothety-stable union over the orbit of alpha."""
    orbit = lang_orbit(ambient, alpha, c)
    sub = B.elements(cap)
    return frozenset(
        ambient.add(o, b) for o in orbit for b in sub
    )


def special_closure(
    ambient: ModelAmbient, S, c: int, cap: int = AMBIENT_ORDER_CAP
) -> list[TorsionCoset]:
    """Smallest homothety-stable union of torsion cosets containing S.

    Any stable union containing a point s contains the whole orbit of s, so
    the minimal point set is forced: the union A of the orbits of S.  Among
    representations of A the component count is minimized by an exact
    set-cover search over the summand catalog (blocks fully inside A),
    iterative deepening with lexicographic tie-breaking.
    """
    if ambient.order > cap:
        raise CapExceededError(
            "closure beyond ambient cap %d" % cap, required=ambient.order
        )
    pts = [ambient.reduce(s) for s in S]
    if not pts:
        return []
    covered = set()
    atoms = []
    for s in pts:
        if s in covered:
            continue
        orb = lang_orbit(ambient, s, c)
        covered |= orb
        atoms.append(frozenset(orb))
    target = frozenset(covered)

    if len(target) == ambient.order:
        full = enumerate_summands(ambient, ambient.rank, cap)[0]
        return [TorsionCoset(ambient.zero(), full)]

    # candidate blocks fully inside the target, deduplicated by point set;
    # cheap necessary condition first: basis vectors are differences of
    # target points
    diff_set = {ambient.add(x, ambient.neg(y)) for x in target for y in target}
    blocks: dict[frozenset, tuple[Vector, ModelSubvariety]] = {}
    for B in summands_within(ambient, diff_set, cap):
        if B.order > len(target):
            continue
        sub = B.elements(cap)
        seen_reps = set()
        for alpha in sorted(target):
            rep = min(ambient.add(alpha, b) for b in sub)
            if rep in seen_reps:
                continue
            seen_reps.add(rep)
            if any(ambient.add(alpha, b) not in target for b in sub):
                continue
            block = _block_points(ambient, alpha, B, c, cap)
            if block <= target:
                prev = blocks.get(block)
                cand = (rep, B)
                if prev is None or _block_pref(cand, prev):
                    blocks[block] = cand
    choices = sorted(
        blocks.items(), key=lambda kv: (-len(kv[0]), sorted(kv[0]))
    )

    # minimal number of components: exact cover over the orbit atoms by
    # iterative deepening; candidate order makes the result deterministic
    atom_sets = sorted(atoms, key=lambda a: min(a))

    def search(uncovered, budget, acc):
        if not uncovered:
            return acc
        if budget == 0:
            return None
        first = min(min(a) for a in uncovered)
        for block_pts, (rep, B) in choices:
            if first not in block_pts:
                continue
            rest = [a for a in uncovered if not (a <= block_pts)]
            if len(rest) == len(uncovered):
                continue
            got = search(rest, budget - 1, acc + [(rep, B)])
            if got is not None:
                return got
        return None

    solution = None
    for k in range(1, len(atom_sets) + 1):
        solution = search(atom_sets, k, [])
        if solution is not None:
            break
    if solution is None:
        raise InternalCheckError("orbit atoms always admit a cover")
    out = [TorsionCoset(rep, B) for rep, B in solution]
    out.sort(key=lambda tc: (tc.point, tc.subgroup.basis))
    return out


def _block_pref(cand, prev) -> bool:
    """Prefer the larger subgroup, then the lexicographically smaller basis."""
    _, bc = cand
    _, bp = prev
    return (-bc.order, bc.basis) < (-bp.order, bp.basis)


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
    over summands B only; ties on coset order prefer the larger subgroup,
    then the lexicographically least canonical basis.
    """
    V_set = {ambient.reduce(v) for v in V}
    a = ambient.reduce(a)
    orbit = lang_orbit(ambient, a, c)
    if not orbit <= V_set:
        raise ValidationError("precondition failed: the orbit of a is not inside V")
    best = None
    shifted = {ambient.add(v, ambient.neg(a)) for v in V_set}
    for B in summands_within(ambient, shifted, cap):
        block = _block_points(ambient, a, B, c, cap)
        if not block <= V_set:
            continue
        order = coset_order_raw(a, B)
        key = (order, -B.order, B.basis)
        if best is None or key < best[0]:
            best = (key, B, block)
    if best is None:
        raise InternalCheckError("B = 0 is always a valid candidate")
    _, B, block = best
    order = coset_order_raw(a, B)
    # a representative of ambient order exactly ord(a+B) always exists:
    # project a onto a complement of the summand B
    coset_pts = sorted(ambient.add(a, b) for b in B.elements(cap))
    alpha = next(
        (p for p in coset_pts if ambient.element_order(p) == order), None
    )
    if alpha is None:
        raise InternalCheckError("coset has no representative of its own order")
    return WitnessReport(alpha=alpha, subgroup=B, order=order, within_cap=order <= delta_cap)
