"""Independent oracles used by the test suite.

These deliberately recompute everything from definitions with different
algorithms than the library (gcd scans instead of factor sieves, a fresh
Eratosthenes sieve instead of the cached incremental one), so agreement is
meaningful.  The threshold certificate's (two: the R_k list and the
class-by-class scan), the elimination's, the matrix-unit check's,
the group closure's, the orbit-density report's and the torsion-coset closure's and witness's
references are the library's earlier, direct algorithms
instead, and so are the Fraction references of the rational kernels and of
algebra element arithmetic, the two-sided solve for an ideal's unit and the
divisor scan for a coset's order, and the centre test, right-ideal check
and preimage solve that the lifts made before reading the block structure.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import gcd, isqrt
from operator import mul

import numpy as np

from torsionlab import bounds
from torsionlab.bounds import (
    TAIL_K_CAP,
    THRESHOLD_BIT_BUDGET,
    THRESHOLD_SCAN_CAP,
    closed_form_threshold,
    exponent_constants,
)
from torsionlab.algebras import AlgebraElement, SplitSemisimpleAlgebra
from torsionlab.cosets import TorsionCoset, WitnessReport, enumerate_summands, lang_orbit
from torsionlab.errors import CapExceededError, InternalCheckError, ValidationError
from torsionlab.glorbits import (
    GROUP_SIZE_CAP,
    OrbitDensityReport,
    _density_key_cmp,
    all_subspaces,
)
from torsionlab.integers import factorize, nth_prime
from torsionlab.linalg import ceil_root_fraction, int_solve, lcm, rank, span_leq


def jacobsthal_by_definition(d: int, window: int = 1 << 16) -> int:
    """Smallest M such that every window of M consecutive integers in
    [1, d + M] contains an integer coprime to d, straight from the quantifiers.

    For each window start x the window [x, x + M - 1] contains a coprime iff
    the distance from x to the next coprime is < M; window starts repeat with
    period d, so x ranges over one period, [1, d + 1].  The largest distance
    is taken at x = c + 1 for a coprime c <= d, and it is c' - c - 1 for the
    next coprime c'.  So M is the largest step c' - c between consecutive
    coprimes with c <= d.  The integers up to 2d + 1 are scanned in blocks
    of ``window``, keeping only the last coprime of the block before, and the
    scan stops once that coprime passes d (d + 1 is always coprime to d).
    """
    if d == 1:
        return 1
    best = 0
    last = 1  # 1 is coprime to every d
    for lo in range(2, 2 * d + 2, window):
        xs = np.arange(lo, min(lo + window, 2 * d + 2), dtype=np.int64)
        coprimes = xs[np.gcd(xs, d) == 1]
        if not coprimes.size:
            continue
        starts = np.concatenate(([last], coprimes[:-1]))
        steps = (coprimes - starts)[starts <= d]
        if steps.size:
            best = max(best, int(steps.max()))
        last = int(coprimes[-1])
        if last > d:
            break
    return best


def sieve_upto(limit: int) -> list[int]:
    """All primes <= limit by a plain sieve (independent of the library cache)."""
    if limit < 2:
        return []
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    return [int(i) for i in np.flatnonzero(flags)]


def nth_prime_by_sieve(x: int, _cache: dict = {}) -> int:
    """x-th prime from a fresh sieve, growing the bound until enough appear."""
    if "primes" not in _cache:
        _cache["primes"] = sieve_upto(1000)
        _cache["limit"] = 1000
    while len(_cache["primes"]) < x:
        _cache["limit"] *= 2
        _cache["primes"] = sieve_upto(_cache["limit"])
    return _cache["primes"][x - 1]


def brute_min_coprime_shift(a: int, n: int, d: int, k_max: int = 10 ** 6):
    """Scan k = 0, 1, ... directly; None if no k below k_max works."""
    for k in range(k_max):
        if gcd(a + k * n, d) == 1:
            return k
    return None


def omega_by_gcd(d: int) -> int:
    """Count distinct primes of d by repeated gcd stripping (no factor list)."""
    count = 0
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            count += 1
            while m % p == 0:
                m //= p
        p += 1
    return count + (1 if m > 1 else 0)


# --- threshold certificate: the R_k-list reference -----------------------------------
#
# The violation region as it was first written: every R_k^L is built and kept,
# each violation test compares the primorial with it directly, and the scan
# reads the kept list.  ``final_delta_by_rk_list`` must agree with
# ``bounds.final_delta`` on every shape where both finish.


def _kanold_rhs_powL(k: int, D: int, delta: Fraction, delta_prime: Fraction, L: int) -> int:
    """R_k^L where R_k = max(k+1, D)^delta * 2^((k+1)*delta') bounds the
    right-hand side of both inequalities for any d with omega(d) = k."""
    A = max(k + 1, D)
    return A ** int(delta * L) * 2 ** int((k + 1) * delta_prime * L)


def violation_region_by_rk_list(params):
    """All omega-classes where the Kanold-form system can fail.

    Returns (upper, rhs_by_omega, L): ``upper`` is a certified integer above
    every violating d (1 if none exist); violations with omega(d) = k require
    primorial(k) <= d < R_k, and once primorials outgrow R_k they stay ahead
    because consecutive-prime ratios beat the R-ratio 2^delta' * e.
    """
    _, delta, delta_prime = exponent_constants(params.Delta, params.c, params.eps_slack)
    L = lcm(delta.denominator, delta_prime.denominator)
    dp_ceil = -(-delta_prime.numerator // delta_prime.denominator)
    prime_floor = 3 * 2 ** dp_ceil  # >= e * 2^delta', locks the induction
    upper = 1
    rhs = []
    primorial = 1
    k = 0
    while True:
        R_L = _kanold_rhs_powL(k, params.D, delta, delta_prime, L)
        if R_L.bit_length() > THRESHOLD_BIT_BUDGET * L:
            raise CapExceededError(
                "threshold certificate exceeds the %d-bit budget" % THRESHOLD_BIT_BUDGET
            )
        rhs.append(R_L)
        if primorial ** L < R_L:
            upper = max(upper, ceil_root_fraction(R_L, 1, L))
        elif k + 1 >= delta and nth_prime(k + 1) >= prime_floor:
            break
        if k >= TAIL_K_CAP:
            raise CapExceededError(
                "primorial tail scan exceeded %d primes" % TAIL_K_CAP, required=k
            )
        k += 1
        primorial *= nth_prime(k)
    return upper, rhs, L


def final_delta_by_rk_list(params) -> int:
    """``bounds.final_delta`` over ``violation_region_by_rk_list``."""
    if params.Delta == 0:
        return 1
    upper, rhs, L = violation_region_by_rk_list(params)
    if upper <= THRESHOLD_SCAN_CAP:
        last_bad = 0
        for d in range(1, upper):
            k = factorize(d).omega
            if k < len(rhs) and d ** L < rhs[k]:
                last_bad = d
        searched = last_bad + 1
    else:
        searched = upper
    return max(searched, closed_form_threshold(params))


# --- threshold certificate: the class-by-class scan ------------------------------------
#
# ``bounds._violation_region`` as it was before it started at the first class
# that can lock: every omega-class from k = 0 up is tested, with the primorial
# grown by one prime per class.  The body is unchanged; only bounds' private
# helpers are reached through the module.  The caps are this module's names, so
# a test that patches a cap patches it here too.


def violation_region_by_class_scan(params) -> tuple[int, int]:
    """(upper, k_end) of the omega-class scan from k = 0 (see the section note)."""
    L, dL, dpL = bounds._scaled_exponents(params)
    D = params.D
    budget = THRESHOLD_BIT_BUDGET * L
    prime_floor = 3 * 2 ** -(-dpL // L)  # >= e * 2^delta', locks the induction

    def bits(k: int) -> int:
        return (max(k + 1, D) ** dL).bit_length() + (k + 1) * dpL

    def locks(k: int) -> bool:
        return (k + 1) * L >= dL and nth_prime(k + 1) >= prime_floor

    if bits(TAIL_K_CAP) > budget:
        lo, hi = 0, TAIL_K_CAP
        while lo < hi:
            mid = (lo + hi) // 2
            if bits(mid) > budget:
                hi = mid
            else:
                lo = mid + 1
        if not locks(lo):
            raise bounds._budget_error()
    last_bad = -1
    primorial_L = 1
    k = 0
    while True:
        a = max(k + 1, D) ** dL
        e = (k + 1) * dpL
        if a.bit_length() + e > budget:
            raise bounds._budget_error()
        if primorial_L >> e < a:
            last_bad = k
        elif locks(k):
            break
        if k >= TAIL_K_CAP:
            raise CapExceededError(
                "primorial tail scan exceeded %d primes" % TAIL_K_CAP, required=k
            )
        k += 1
        primorial_L *= nth_prime(k) ** L
    if last_bad < 0:
        return 1, k
    return ceil_root_fraction(bounds._kanold_rhs_powL(last_bad, D, dL, dpL), 1, L), k


# --- decimal output: reading a decimal string back by halves ---------------------------


def int_from_decimal_by_halves(s: str, leaf: int = 2000) -> int:
    """int(s) for a string of decimal digits with an optional leading '-',
    read as hi * 10^len(lo) + lo with lo the second half of the digits, so
    that a string of a million digits reads back in about a second."""
    negative = s.startswith("-")
    digits = s[negative:]
    powers = {}

    def read(lo: int, hi: int) -> int:
        if hi - lo <= leaf:
            return int(digits[lo:hi])
        mid = (lo + hi) // 2
        if hi - mid not in powers:
            powers[hi - mid] = 10 ** (hi - mid)
        return read(lo, mid) * powers[hi - mid] + read(mid, hi)

    value = read(0, len(digits))
    return -value if negative else value


# --- exact linear algebra and the matrix-unit check: the Fraction references ----------
#
# Elimination as it was first written, over Fractions with one division per
# entry of each pivot row and one Fraction per elimination step; and the
# representation and embedding checks as first written: every product of
# two basis images compared, and injectivity decided by rank.  ``linalg.rref``
# must return exactly what ``rref_by_fractions`` returns, and each
# constructor must raise exactly when the ``*_error_by_reference`` function
# names a message, with that message.
#
# The kernels built on elimination (``span_leq``, ``nullspace``,
# ``span_intersect``, ``solve``) and algebra element arithmetic as first
# written, one Fraction at a time, follow; the library computes them in
# integers over one denominator and must agree exactly.  The elimination
# they call is ``rref_by_fractions``.  ``mat_mul`` has no library
# counterpart: the tests multiply Fraction matrices with it.


def zeros(n: int, m: int):
    return tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(n))


def identity(n: int):
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def mat_mul(a, b):
    """a @ b, each output row summed from the rows of b at the nonzero entries
    of the row of a; no zero product is formed, so matrix units are cheap."""
    out = []
    for row in a:
        acc = [Fraction(0)] * (len(b[0]) if b else 0)
        for x, brow in zip(row, b):
            if x:
                for j, y in enumerate(brow):
                    if y:
                        acc[j] += x * y
        out.append(tuple(acc))
    return tuple(out)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a):
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def span_leq_by_fractions(sub, sup) -> bool:
    """True iff span(sub) is contained in span(sup)."""
    base, pivots = rref_by_fractions(sup)
    for vec in sub:
        v = list(map(Fraction, vec))
        for row, p in zip(base, pivots):
            if v[p] != 0:
                f = v[p]
                v = [x - f * y for x, y in zip(v, row)]
        if any(x != 0 for x in v):
            return False
    return True


def span_intersect_by_fractions(a_basis, b_basis):
    """Basis of span(a) ∩ span(b), by the kernel of the stacked coefficient map."""
    a = [list(map(Fraction, r)) for r in a_basis]
    b = [list(map(Fraction, r)) for r in b_basis]
    if not a or not b:
        return []
    na, nb = len(a), len(b)
    # solve sum x_i a_i - sum y_j b_j = 0; columns are the ambient coordinates
    stacked = [[a[i][k] for i in range(na)] + [-b[j][k] for j in range(nb)]
               for k in range(len(a[0]))]
    out = []
    for ker in nullspace_by_fractions(stacked):
        vec = [sum(ker[i] * a[i][k] for i in range(na)) for k in range(len(a[0]))]
        if any(x != 0 for x in vec):
            out.append(vec)
    base, _ = rref_by_fractions(out)
    return base


def nullspace_by_fractions(rows):
    """Basis of the right kernel {x : rows @ x = 0}, free variables in order."""
    base, pivots = rref_by_fractions(rows)
    if not rows:
        return []
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, p in zip(base, pivots):
            v[p] = -row[fc]
        out.append(v)
    return out


def solve_by_fractions(rows, rhs):
    """One exact solution of rows @ x = rhs, or None if inconsistent.

    Free variables are set to zero, which makes the answer deterministic
    under the natural (lexicographic) column order.
    """
    if not rows:
        return None
    aug = [list(map(Fraction, r)) + [Fraction(v)] for r, v in zip(rows, rhs)]
    base, pivots = rref_by_fractions(aug)
    ncols = len(rows[0])
    x = [Fraction(0)] * ncols
    for row, p in zip(base, pivots):
        if p == ncols:
            return None  # pivot in the constant column: inconsistent
        x[p] = row[ncols]
    # verify (cheap, and guards against misuse with dependent rows)
    for r, v in zip(rows, rhs):
        if sum(Fraction(a) * b for a, b in zip(r, x)) != Fraction(v):
            return None
    return x


# Algebra elements as first written: per-block Fraction matrices, with each
# operation the matrix operation block by block.  These take and return the
# per-block data (``AlgebraElement.data``).


def blocks_add(x, y):
    return tuple(mat_add(a, b) for a, b in zip(x, y))


def blocks_sub(x, y):
    return tuple(mat_sub(a, b) for a, b in zip(x, y))


def blocks_mul(x, y):
    return tuple(mat_mul(a, b) for a, b in zip(x, y))


def blocks_scale(c, x):
    return tuple(mat_scale(c, a) for a in x)


def zeros_blocks(alg: SplitSemisimpleAlgebra):
    return tuple(zeros(n, n) for n in alg.blocks)


def identity_blocks(alg: SplitSemisimpleAlgebra):
    return tuple(identity(n) for n in alg.blocks)


def _block_coords(x):
    return [v for mat in x for row in mat for v in row]


def embedding_apply_by_fractions(emb, x):
    """The image of the element with per-block data x: the coordinates of x
    times the images' data, summed."""
    out = zeros_blocks(emb.target)
    for c, img in zip(_block_coords(x), emb.images):
        if c:
            out = blocks_add(out, blocks_scale(c, img.data))
    return out


def representation_apply_by_fractions(rep, x):
    """The matrix by which the element with per-block data x acts."""
    acc = [[Fraction(0)] * rep.space_dim for _ in range(rep.space_dim)]
    for c, m in zip(_block_coords(x), rep.images):
        if c:
            for r in range(rep.space_dim):
                row = m[r]
                arow = acc[r]
                for k in range(rep.space_dim):
                    if row[k]:
                        arow[k] += c * row[k]
    return tuple(tuple(row) for row in acc)


def rref_by_fractions(rows, ell: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form with unit pivots; returns (rows, pivot columns).

    Over Q by default, with Fraction entries; with ``ell`` over F_ell, with
    int entries reduced into [0, ell).  Zero rows are dropped.
    """
    if ell is None:
        m = [list(map(Fraction, r)) for r in rows]

        def normalised(row, p):
            return [x / p for x in row]

        def reduced(row, f, prow):
            return [x - f * y for x, y in zip(row, prow)]
    else:
        m = [[x % ell for x in r] for r in rows]

        def normalised(row, p):
            inv = pow(p, -1, ell)
            return [x * inv % ell for x in row]

        def reduced(row, f, prow):
            return [(x - f * y) % ell for x, y in zip(row, prow)]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = normalised(m[r], m[r][c])
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = reduced(m[i], m[i][c], m[r])
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def primitive_rows(rows) -> list[list[int]]:
    """Each nonzero rational row times the positive factor that makes it a
    primitive integer row: for rref rows, the canonical integer basis that
    ``linalg.span_basis`` returns."""
    out = []
    for row in rows:
        row = list(map(Fraction, row))
        den = lcm(*(x.denominator for x in row))
        ints = [int(x * den) for x in row]
        g = gcd(*ints)
        out.append([x // g for x in ints])
    return out


def standard_representation_images_by_fractions(alg: SplitSemisimpleAlgebra):
    """The images of ``standard_representation(alg)`` built in Fractions:
    the matrix unit (i, j) of block b acts as the space's matrix unit
    (o + i, o + j), o the offset of block b."""
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
    return tuple(images)


def check_matrix_units_all_pairs(alg: SplitSemisimpleAlgebra, images, mul, zero, what: str):
    """Raise unless the images of the basis matrix units multiply like them.

    Matrix units multiply to matrix units (or zero), so the check is an
    index lookup per basis pair: e_ij * e_jk = e_ik, other products vanish.
    """
    idxs = list(alg.basis_indices())
    index = {t: k for k, t in enumerate(idxs)}
    for a, (b1, i1, j1) in enumerate(idxs):
        for c, (b2, i2, j2) in enumerate(idxs):
            expected = images[index[(b1, i1, j2)]] if b1 == b2 and j1 == i2 else zero
            if mul(images[a], images[c]) != expected:
                raise ValidationError("%s is not multiplicative" % what)


def _unit_image(alg: SplitSemisimpleAlgebra, images, add, zero):
    """The image of 1: the sum of the images of the diagonal matrix units."""
    out = zero
    for img, (_, i, j) in zip(images, alg.basis_indices()):
        if i == j:
            out = add(out, img)
    return out


def representation_error_by_reference(alg: SplitSemisimpleAlgebra, space_dim: int, images):
    """The message ``Representation(alg, space_dim, images)`` must raise, or None."""
    try:
        if len(images) != alg.dim:
            raise ValidationError("representation needs one matrix per basis element")
        for m in images:
            if len(m) != space_dim or any(len(r) != space_dim for r in m):
                raise ValidationError("representation matrix of wrong shape")
        zero = zeros(space_dim, space_dim)
        if _unit_image(alg, images, mat_add, zero) != identity(space_dim):
            raise ValidationError("representation is not unital")
        check_matrix_units_all_pairs(alg, images, mat_mul, zero, "representation")
        stacked = [[x for row in m for x in row] for m in images]
        if len(rref_by_fractions(stacked)[1]) != alg.dim:
            raise ValidationError("representation is not faithful")
    except ValidationError as exc:
        return str(exc)
    return None


def embedding_error_by_reference(source: SplitSemisimpleAlgebra,
                                 target: SplitSemisimpleAlgebra, images):
    """The message ``AlgebraEmbedding(source, target, images)`` must raise, or None."""
    try:
        if len(images) != source.dim:
            raise ValidationError("embedding needs one image per source basis element")
        for img in images:
            if img.parent != target:
                raise ValidationError("embedding images live in the wrong algebra")
        # the images' per-block Fraction data, multiplied block by block
        images = [img.data for img in images]
        zero = zeros_blocks(target)
        if _unit_image(source, images, blocks_add, zero) != identity_blocks(target):
            raise ValidationError("embedding does not preserve the unit")
        check_matrix_units_all_pairs(source, images, blocks_mul, zero, "embedding")
        if len(rref_by_fractions([_block_coords(img) for img in images])[1]) != source.dim:
            raise ValidationError("embedding is not injective")
    except ValidationError as exc:
        return str(exc)
    return None


def two_sided_unit_by_solve(alg: SplitSemisimpleAlgebra, basis):
    """The unit of the two-sided ideal whose canonical integer basis is
    ``basis``, zero for the zero ideal: the library's earlier solve, with
    unknowns t_i and the equations y*x = x and x*y = x for y = sum t_i k_i,
    per coordinate, over the basis elements k_i and x."""
    if not basis:
        return alg.zero()
    k_elems = [AlgebraElement._of(alg, row, 1) for row in basis]
    system_k = []
    rhs_k = []
    for x in k_elems:
        system_k.extend(zip(*[(y * x).num for y in k_elems]))
        rhs_k.extend(x.num)
        system_k.extend(zip(*[(x * y).num for y in k_elems]))
        rhs_k.extend(x.num)
    sol_k = int_solve(system_k, rhs_k)
    if sol_k is None:
        raise InternalCheckError("two-sided ideal of a semisimple algebra has a unit")
    tn, td = sol_k
    acc = [sum(t * x.num[k] for t, x in zip(tn, k_elems)) for k in range(alg.dim)]
    return AlgebraElement._of(alg, acc, td)


# --- the lift path's replaced checks -------------------------------------------------
#
# The centre test, the right-ideal check and the preimage solve as they were
# before the library read them off the block structure: commuting with
# every matrix unit (2*dim products, of per-block Fraction data here), the
# ideal times every matrix unit, and one linear solve per element.


def is_central_by_products(alg: SplitSemisimpleAlgebra, x) -> bool:
    """x commutes with every matrix unit of alg."""
    return all(blocks_mul(x.data, u.data) == blocks_mul(u.data, x.data) for u in alg.basis())


def right_ideal_check_by_all_units(alg: SplitSemisimpleAlgebra, span) -> bool:
    """The span of the integer coordinate rows ``span`` (a canonical basis)
    times every matrix unit lies in the span."""
    xs = [AlgebraElement._of(alg, row, 1) for row in span]
    return span_leq(((x * u).num for x in xs for u in alg.basis()), span)


def preimage_by_solve(emb, elem):
    """The x with emb.apply(x) = elem, or None: ``int_solve`` for the
    coefficients of elem in the images, the system cleared over one common
    denominator."""
    den = lcm(elem.den, *(x.den for x in emb.images))
    cols = [[v * (den // x.den) for v in x.num] for x in emb.images]
    sol = int_solve(list(zip(*cols)), [v * (den // elem.den) for v in elem.num])
    return None if sol is None else AlgebraElement._of(emb.source, *sol)


# --- group closure: the matrix-product reference --------------------------------------
#
# The closure as it was first written: every element times every generator
# is a full matrix product.  ``glorbits.generate_group`` must return exactly
# these elements, in this order, and refuse exactly where this refuses, with
# the same ``required``.


def _mat_mul(a, b, ell: int):
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(map(mul, row, col)) % ell for col in bt) for row in a
    )


def group_elements_by_products(gens, ell: int, dim: int, cap: int = GROUP_SIZE_CAP):
    """Breadth-first closure of the generators by matrix products; the elements."""
    if ell < 2 or any(ell % k == 0 for k in range(2, isqrt(ell) + 1)):
        raise ValidationError("ell must be prime, got %r" % (ell,))
    if dim < 1:
        raise ValidationError("dim must be positive")
    norm = []
    for gmat in gens:
        m = tuple(tuple(int(x) % ell for x in row) for row in gmat)
        if len(m) != dim or any(len(row) != dim for row in m):
            raise ValidationError("generator of wrong shape for dim %d" % dim)
        if rank(m, ell) != dim:
            raise ValidationError("singular generator %r mod %d" % (gmat, ell))
        norm.append(m)
    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
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
    return tuple(order)


# --- orbit densities: the per-V lattice scan ----------------------------------------
#
# The report as it was first written: every call rebuilds the orbit, scans the
# whole lattice for the extremal W and recomputes W's stabilizer, witness and
# postconditions.  Images are matrix-vector products over ``G.elements`` and
# point sets are sets of vectors, both built here; only the lattice's
# enumeration and the key comparison come from ``glorbits``.
# ``glorbits.extremal_subspace`` and ``verify_bound`` must return equal
# results and raise the same errors in the same order.

_IMAGES_BY_GROUP = {}  # id(G) -> (G, {v: (g*v for g in G.elements)}); G is kept alive


def images_by_products(G, v):
    """(g*v for g in G.elements) by matrix-vector products, memoised per group."""
    memo = _IMAGES_BY_GROUP.setdefault(id(G), (G, {}))[1]
    out = memo.get(v)
    if out is None:
        ell = G.ell
        out = memo[v] = tuple(
            tuple(sum(map(mul, row, v)) % ell for row in g) for g in G.elements
        )
    return out


def _span_by_coefficients(W, _cache={}):
    """Every combination of W's basis rows mod ell."""
    out = _cache.get(W)
    if out is None:
        ell = W.ell
        out = _cache[W] = frozenset(
            tuple(sum(c * row[j] for c, row in zip(coeffs, W.basis)) % ell
                  for j in range(W.ambient_dim))
            for coeffs in itertools.product(range(ell), repeat=len(W.basis))
        )
    return out


def _orbit_by_products(G, a):
    a = tuple(int(x) % G.ell for x in a)
    if len(a) != G.dim:
        raise ValidationError("vector of wrong dimension")
    return a, frozenset(images_by_products(G, a))


def extremal_subspace_by_scan(G, a, V):
    _, orb = _orbit_by_products(G, a)
    den = len(orb)
    in_v = _span_by_coefficients(V)
    if not orb & in_v:
        raise ValidationError("orbit density in V is zero")
    best = None
    for W in all_subspaces(G.ell, G.dim):
        in_w = _span_by_coefficients(W)
        n = len(orb & in_w)
        if n == 0 or not in_w <= in_v:
            continue
        e = 4 ** W.dim
        if best is None:
            best = (W, n, e)
            continue
        cmp = _density_key_cmp(n, e, best[1], best[2], den)
        if cmp > 0 or (cmp == 0 and (W.dim, W.basis) < (best[0].dim, best[0].basis)):
            best = (W, n, e)
    W = best[0]
    picked = []
    for p in orb & _span_by_coefficients(W):
        if len(picked) == W.dim:
            break
        if rank(picked + [p], G.ell) > len(picked):
            picked.append(p)
    if len(picked) < W.dim:
        raise InternalCheckError("extremal subspace not generated by its orbit points")
    return W


def verify_bound_by_scan(G, a, V, C=None):
    a, orb = _orbit_by_products(G, a)
    eps_v = Fraction(len(orb & _span_by_coefficients(V)), len(orb))
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
    W = extremal_subspace_by_scan(G, a, V)
    in_w = _span_by_coefficients(W)
    eps_w = Fraction(len(orb & in_w), len(orb))
    keep = [True] * len(G.elements)
    for row in W.basis:
        keep = [k and p in in_w for k, p in zip(keep, images_by_products(G, row))]
    stab_order = sum(keep)
    index = len(G.elements) // stab_order
    bound = 3 * C ** (4 ** V.dim)
    ok = Fraction(index) <= bound
    if not ok:
        raise InternalCheckError("stabilizer index %d violates the bound %s" % (index, bound))
    witness, ga = next(
        ((g, p) for g, p in zip(G.elements, images_by_products(G, a)) if p in in_w),
        (None, None),
    )
    if witness is None:
        raise InternalCheckError("eps(W) > 0 guarantees an orbit point in W")
    if not all(p in in_w for p, k in zip(images_by_products(G, ga), keep) if k):
        raise InternalCheckError("stabilizer orbit escaped W")
    return OrbitDensityReport(
        orbit=orb, V=V, C=C, W=W, epsilon_V=eps_v, epsilon_W=eps_w, stab_index=index,
        bound=bound, bound_ok=ok, witness_g=witness, stabilizer_order=stab_order,
    )


# --- torsion-coset closure and witness by a scan per (B, alpha) -------------------


def _summands_by_scan(amb, allowed, max_order):
    """``all_summands`` filtered by order and basis; the catalog of a rank
    whose summands are all larger than ``max_order`` is never built."""
    for rank in range(0, amb.rank + 1, 2):
        if amb.N ** rank > max_order:
            return
        for B in enumerate_summands(amb, rank):
            if all(v in allowed for v in B.basis):
                yield B


def _block_by_scan(amb, alpha, B, c):
    sub = B.elements()
    return frozenset(amb.add(o, b) for o in lang_orbit(amb, alpha, c) for b in sub)


def special_closure_by_scan(amb, S, c):
    """``special_closure`` with its candidate blocks found by a scan: for every
    summand B whose basis lies in the difference set of the target, every
    alpha of the target in ascending order, one per coset of B (keyed by the
    coset's least point), its block built afresh from ``lang_orbit``."""
    pts = [amb.reduce(s) for s in S]
    if not pts:
        return []
    covered, atoms = set(), []
    for s in pts:
        if s not in covered:
            orb = lang_orbit(amb, s, c)
            covered |= orb
            atoms.append(frozenset(orb))
    target = frozenset(covered)
    if len(target) == amb.order:
        return [TorsionCoset(amb.zero(), enumerate_summands(amb, amb.rank)[0])]
    diff_set = {amb.add(x, minus) for minus in map(amb.neg, target) for x in target}
    blocks = {}
    for B in _summands_by_scan(amb, diff_set, len(target)):
        sub = B.elements()
        seen_reps = set()
        for alpha in sorted(target):
            rep = min(amb.add(alpha, b) for b in sub)
            if rep in seen_reps:
                continue
            seen_reps.add(rep)
            if any(amb.add(alpha, b) not in target for b in sub):
                continue
            block = _block_by_scan(amb, alpha, B, c)
            if block <= target:
                prev = blocks.get(block)
                if prev is None or (-B.order, B.basis) < (-prev[1].order, prev[1].basis):
                    blocks[block] = (rep, B)
    choices = sorted(blocks.items(), key=lambda kv: (-len(kv[0]), sorted(kv[0])))

    def search(uncovered, budget, acc):
        if not uncovered:
            return acc
        if budget == 0:
            return None
        first = min(min(a) for a in uncovered)
        for block_pts, (rep, B) in choices:
            if first in block_pts:
                rest = [a for a in uncovered if not a <= block_pts]
                if len(rest) < len(uncovered):
                    got = search(rest, budget - 1, acc + [(rep, B)])
                    if got is not None:
                        return got
        return None

    atom_sets = sorted(atoms, key=min)
    solution = next(filter(None, (search(atom_sets, k, []) for k in range(1, len(atoms) + 1))))
    return sorted((TorsionCoset(rep, B) for rep, B in solution),
                  key=lambda tc: (tc.point, tc.subgroup.basis))


def keyprop_witness_by_scan(amb, V, a, c, delta_cap):
    """``keyprop_witness`` by a scan: every summand whose basis lies in V - a,
    its block orbit(a) + B built afresh from ``lang_orbit``; the least key
    (coset order, -|B|, basis) wins, and alpha is the least point of a + B of
    that order."""
    V_set = {amb.reduce(v) for v in V}
    a = amb.reduce(a)
    if not lang_orbit(amb, a, c) <= V_set:
        raise ValidationError("precondition failed: the orbit of a is not inside V")
    shifted = {amb.add(v, amb.neg(a)) for v in V_set}
    best = None
    for B in _summands_by_scan(amb, shifted, len(V_set)):
        if _block_by_scan(amb, a, B, c) <= V_set:
            key = (TorsionCoset(a, B).order, -B.order, B.basis)
            if best is None or key < best[0]:
                best = (key, B)
    (order, _, _), B = best
    alpha = min(p for p in (amb.add(a, b) for b in B.elements()) if amb.element_order(p) == order)
    return WitnessReport(alpha=alpha, subgroup=B, order=order, within_cap=order <= delta_cap)


def coset_order_by_divisor_scan(point, subgroup, _members={}):
    """Minimal m >= 1 with m * point inside the subgroup, by the library's
    earlier scan over the divisors of N in ascending order; membership is read
    off the subgroup's enumerated points, kept per subgroup."""
    amb = subgroup.ambient
    if subgroup not in _members:
        _members[subgroup] = subgroup.elements()
    divisors = [1]
    for p, e in factorize(amb.N).factors:
        divisors = [d * p ** k for d in divisors for k in range(e + 1)]
    for m in sorted(divisors):
        if amb.scale(m, amb.reduce(point)) in _members[subgroup]:
            return m
    raise InternalCheckError("N * point must lie in every subgroup")
