"""Exact linear algebra helpers: elimination over Q and F_ell, spans mod n,
echelon enumeration of summand bases, integer Smith form, integer roots.

Everything here is deterministic and exact.  Rational matrices are read and
returned as tuples of tuples of Fractions, but the kernels compute in
integers: a rational row is cleared to integer entries over one common
denominator (``over_one_den``) and eliminated in ints, and a Fraction is
built only for an output entry.  Callers that go on computing in integers
take the integer results directly: ``span_basis`` and
``int_span_intersect`` (a canonical integer basis of a span) and
``int_solve`` (a solution over one denominator).  Integer and F_ell
matrices are lists of lists of ints.  No floating point
decides a result: ``iroot`` only seeds its exact iteration with a float
estimate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm, log2
from operator import attrgetter, mul

Row = tuple[Fraction, ...]
Matrix = tuple[Row, ...]

_INT = {int}
_RATIONAL = {int, Fraction}
_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


class Memo(dict):
    """A dict that fills a missing key with ``fn(key)`` on its first lookup."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def over_one_den(values) -> tuple[list[int], int]:
    """(nums, den) with values = nums / den: den is the lcm of the denominators,
    so gcd(den, *nums) = 1."""
    values = list(values)
    types = set(map(type, values))
    if types <= _INT:
        return values, 1
    if not types <= _RATIONAL:
        values = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in values]
    den = lcm(*set(map(_denominator, values)))
    if den == 1:
        return list(map(_numerator, values)), 1
    nums = map(_numerator, values)
    return [n * (den // d) for n, d in zip(nums, map(_denominator, values))], den


def _integral(row) -> list[int]:
    """The row times the lcm of its denominators, as ints."""
    return over_one_den(row)[0]


def _primitive(row: list[int]) -> list[int]:
    """The integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _echelon(rows, ell: int | None = None) -> tuple[list[list[int]], list[int]]:
    """Gauss-Jordan elimination in integers; returns (rows, pivot columns).

    Each returned row is zero in every pivot column but its own, and zero rows
    are dropped: divided by its pivot, row i is row i of the reduced echelon
    form.  Over Q (the default) each row is a primitive integer row; with
    ``ell`` it is reduced into [0, ell).

    One integer loop serves both fields (Bareiss, Math. Comp. 22 (1968)):
    a row is cleared at a pivot p by p*row - a*prow, with no division.  Over
    Q each row starts with its denominators cleared and is kept primitive
    (its gcd content divided out after every step); over F_ell it is reduced
    mod ell.
    """
    if ell is None:
        m = [_primitive(_integral(r)) for r in rows]

        def cleared(row, prow, p, a):
            return _primitive([p * x - a * y for x, y in zip(row, prow)])
    else:
        m = [[x % ell for x in r] for r in rows]

        def cleared(row, prow, p, a):
            return [(p * x - a * y) % ell for x, y in zip(row, prow)]
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
        prow = m[r]
        p = prow[c]
        for i in range(len(m)):
            a = m[i][c]
            if a and i != r:
                m[i] = cleared(m[i], prow, p, a)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rref(rows, ell: int | None = None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form with unit pivots; returns (rows, pivot columns).

    Over Q by default, with Fraction entries; with ``ell`` over F_ell, with
    int entries reduced into [0, ell).  Zero rows are dropped.  The result is
    the canonical basis of the row span, so equal spans give identical output.
    Each row of ``_echelon`` is divided by its pivot once, so a Fraction is
    built only for the output.
    """
    m, pivots = _echelon(rows, ell)
    if ell is None:
        zero = Fraction(0)
        return [[Fraction(x, row[c]) if x else zero for x in row]
                for row, c in zip(m, pivots)], pivots
    out = []
    for row, c in zip(m, pivots):
        inv = pow(row[c], -1, ell)
        out.append([x * inv % ell for x in row])
    return out, pivots


def span_basis(rows) -> list[list[int]]:
    """Canonical integer basis of the row span over Q: the primitive rows of
    ``_echelon``, each with its pivot made positive.

    Row i is the rref row i times a positive integer, and the only such
    multiple that is primitive, so equal spans give identical output, as
    with ``rref``, but no Fraction is built."""
    m, pivots = _echelon(rows)
    return [row if row[c] > 0 else [-x for x in row] for row, c in zip(m, pivots)]


def rank(rows, ell: int | None = None) -> int:
    return len(_echelon(rows, ell)[1])


def span_leq(sub, sup) -> bool:
    """True iff span(sub) is contained in span(sup): each vector of sub, its
    denominators cleared, reduces to zero against sup's integer echelon rows."""
    base, pivots = _echelon(sup)
    for vec in sub:
        v = _integral(vec)
        for row, c in zip(base, pivots):
            a = v[c]
            if a:
                v = _primitive([row[c] * x - a * y for x, y in zip(v, row)])
        if any(v):
            return False
    return True


def span_points(basis, n: int, dim: int) -> frozenset[tuple[int, ...]]:
    """Every sum of c_i * basis[i] mod n with c_i in [0, n), as vectors of length dim."""
    cols = list(zip(*basis)) or [()] * dim
    return frozenset(
        tuple([sum(map(mul, coeffs, col)) % n for col in cols])
        for coeffs in itertools.product(range(n), repeat=len(basis))
    )


def free_summand_rows(q: int, p: int, n: int, r: int):
    """The canonical bases of the free rank-r direct summands of (Z/q)^n,
    q = p^e, one (pivots, rows) per pivot set: rows[i] lists the choices
    for the row whose pivot is pivots[i], and the bases of that pivot set
    are ``itertools.product(*rows)``, in the lexicographic order of their
    free entries.

    Echelon shape: pivot columns carry the identity; a non-pivot entry right
    of its row's pivot ranges over Z/q, one left of it over p*Z/q (its mod-p
    reduction must vanish there for the mod-p image to be in echelon form).
    Each summand appears exactly once: count per pivot set multiplies out to
    the Gaussian binomial times p^((e-1) r (n-r)).  With q = p these are the
    reduced echelon bases of the r-dimensional subspaces of F_p^n.
    """
    for pivots in itertools.combinations(range(n), r):
        yield pivots, [
            list(itertools.product(*(
                (1,) if j == c else (0,) if j in pivots
                else range(q) if j > c else range(0, q, p)
                for j in range(n)
            )))
            for c in pivots
        ]


def _kernel(base, pivots, ncols: int):
    """(v, den) per free column fc: v / den is the kernel vector of the echelon
    rows with 1 at fc and zero at the other free columns; den > 0 is the lcm
    of the pivots it divides by (``math.lcm`` is never negative)."""
    for fc in (c for c in range(ncols) if c not in pivots):
        den = lcm(*(row[p] for row, p in zip(base, pivots) if row[fc]))
        v = [0] * ncols
        v[fc] = den
        for row, p in zip(base, pivots):
            v[p] = -row[fc] * (den // row[p])
        yield v, den


def _intersection(a_basis, b_basis) -> list[list[int]]:
    """Integer vectors spanning span(a) ∩ span(b), by the kernel of the
    stacked coefficient map.  The vectors are scaled to integers first,
    which changes neither span."""
    a = [_integral(r) for r in a_basis]
    b = [_integral(r) for r in b_basis]
    if not a or not b:
        return []
    na, nb = len(a), len(b)
    # solve sum x_i a_i - sum y_j b_j = 0; columns are the ambient coordinates
    stacked = [[a[i][k] for i in range(na)] + [-b[j][k] for j in range(nb)]
               for k in range(len(a[0]))]
    base, pivots = _echelon(stacked)
    cols = list(zip(*a))
    out = []
    for ker, _ in _kernel(base, pivots, na + nb):
        vec = [sum(map(mul, ker, col)) for col in cols]
        if any(vec):
            out.append(vec)
    return out


def span_intersect(a_basis, b_basis) -> list[list[Fraction]]:
    """The canonical (rref) basis of span(a) ∩ span(b); only the result is
    built in Fractions."""
    return rref(_intersection(a_basis, b_basis))[0]


def int_span_intersect(a_basis, b_basis) -> list[list[int]]:
    """The canonical integer basis (``span_basis``) of span(a) ∩ span(b)."""
    return span_basis(_intersection(a_basis, b_basis))


def nullspace(rows) -> list[list[Fraction]]:
    """Basis of the right kernel {x : rows @ x = 0}, free variables in order."""
    if not rows:
        return []
    base, pivots = _echelon(rows)
    return [[Fraction(x, den) for x in v] for v, den in _kernel(base, pivots, len(rows[0]))]


def int_solve(rows, rhs) -> tuple[list[int], int] | None:
    """One exact solution of rows @ x = rhs as (X, den) with x = X / den and
    den > 0, or None if inconsistent.

    Free variables are set to zero, which makes the answer deterministic
    under the natural (lexicographic) column order.  The augmented rows are
    eliminated in integers; den is the lcm of the pivots, and the solution
    is checked against every input row as rows @ X == rhs * den (cheap, and
    guards against misuse with dependent rows).
    """
    if not rows:
        return None
    aug = [_integral(list(r) + [v]) for r, v in zip(rows, rhs)]
    base, pivots = _echelon(aug)
    ncols = len(rows[0])
    if pivots and pivots[-1] == ncols:
        return None  # pivot in the constant column: inconsistent
    den = lcm(*(row[p] for row, p in zip(base, pivots)))
    x = [0] * ncols
    for row, p in zip(base, pivots):
        x[p] = row[ncols] * (den // row[p])
    for row in aug:
        if sum(map(mul, row, x)) != row[ncols] * den:
            return None
    return x, den


def solve(rows, rhs):
    """``int_solve``'s solution in Fractions, or None if inconsistent."""
    sol = int_solve(rows, rhs)
    if sol is None:
        return None
    x, den = sol
    return [Fraction(v, den) for v in x]


# ---------------------------------------------------------------------------
# integer matrices


def smith_normal_form(mat) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form over the integers: returns (D, U, V) with D = U @ mat @ V.

    U and V are unimodular; D is diagonal with d1 | d2 | ... (entries >= 0).
    Intended for the small matrices of the torsion model, not for bulk work.
    """
    a = [list(map(int, row)) for row in mat]
    n = len(a)
    m = len(a[0]) if n else 0
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def clear_pivot(t) -> bool:
        """Zero the column and row at pivot t; True when both are clean."""
        for i in range(t + 1, n):
            if a[i][t]:
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t]:
                    swap_rows(t, i)
                    return False
        for j in range(t + 1, m):
            if a[t][j]:
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j]:
                    swap_cols(t, j)
                    return False
        return True

    t = 0
    while t < min(n, m):
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        while not clear_pivot(t):
            pass
        # pivot must divide the remaining block; merge an offending row and redo
        offender = next(
            ((i, j) for i in range(t + 1, n) for j in range(t + 1, m) if a[i][j] % a[t][t]),
            None,
        )
        if offender is not None:
            add_row(offender[0], t, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def iroot(n: int, k: int) -> int:
    """Floor of the k-th root of a non-negative integer, exactly.

    Newton's iteration starts just above the root, so it decreases to the
    root quadratically; exact steps in both directions then fix the result
    whatever the start was.  A root of at most 64 bits starts from a float
    estimate of log2(n)/k read off the top 64 bits of n and nudged upward by
    2^-20 relative (far more than the estimate's error).  A longer root of b
    bits starts from (iroot(n >> k*s, k) + 1) << s with s = b // 2, which
    exceeds the root and is right to about s bits, so each level of the
    recursion doubles the precision and only the last one works at full size.
    """
    if n < 0 or k < 1:
        raise ValueError("iroot needs n >= 0, k >= 1")
    if n == 0:
        return 0
    if k == 1:
        return n
    if n.bit_length() <= k:  # 1 <= n < 2^k
        return 1
    root_bits = (n.bit_length() - 1) // k + 1
    if root_bits > 64:
        s = root_bits // 2
        x = (iroot(n >> (k * s), k) + 1) << s
    else:
        shift = max(n.bit_length() - 64, 0)
        e = (log2(n >> shift) + shift) / k
        whole = int(e)
        top = int(2.0 ** (e - whole) * (1 + 2.0 ** -20) * (1 << 53)) + 1  # > 2^(e - whole + 53)
        x = top << (whole - 53) if whole >= 53 else (top >> (53 - whole)) + 1
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x ** k > n:
        x -= 1
    while (x + 1) ** k <= n:
        x += 1
    return x


def ceil_root(n: int, k: int) -> int:
    """Smallest integer r with r**k >= n (n >= 0)."""
    r = iroot(n, k)
    return r if r ** k == n else r + 1


def ceil_root_fraction(num: int, den: int, k: int) -> int:
    """Smallest integer t >= (num/den)^(1/k) for positive num/den."""
    t = iroot(num // den, k)
    while t ** k * den < num:
        t += 1
    while t > 0 and (t - 1) ** k * den >= num:
        t -= 1
    return t
