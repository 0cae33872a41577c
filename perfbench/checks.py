"""Output checks for the benchmark, written independently of torsionlab.

Every helper here re-derives a property of an answer with its own arithmetic
(gcd scans, addition closures, plain Gaussian elimination), so that a change
to the library cannot also change what counts as a correct answer.  Checks
return None when the answer is right and a short reason string otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


# --- integers ------------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24 (first 13 prime bases)."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by plain trial division (small n only)."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def gcd_window_scan(d: int) -> int:
    """g(d) by its definition: the longest run of integers sharing a factor
    with d, plus one, found by a gcd scan over one period of rad(d)."""
    if d == 1:
        return 1
    # numpy is imported here, after the timed region, so that its import
    # time and memory stay out of set-up time and peak RSS
    import numpy as np

    rad = 1
    for p in prime_factors(d):
        rad *= p
    coprime = np.flatnonzero(np.gcd(np.arange(1, rad + 1, dtype=np.int64), rad) == 1)
    gaps = np.diff(coprime)
    wrap = int(coprime[0]) + rad - int(coprime[-1])
    return max(int(gaps.max()) if gaps.size else 0, wrap)


def check_jacobsthal(d: int, out) -> str | None:
    g = gcd_window_scan(d)
    return None if out["g"] == g else "g(%d) = %d, scan gives %d" % (d, out["g"], g)


def check_factorize(n: int, out) -> str | None:
    prod = 1
    for p, e in out["factors"]:
        prod *= p ** e
        if not is_prime(p):
            return "factor %d of %d is not prime" % (p, n)
    return None if prod == n else "factors of %d multiply to %d" % (n, prod)


def check_coprime_shift(a: int, n: int, d: int, out) -> str | None:
    k = out["k"]
    if gcd(a + k * n, d) != 1:
        return "a + k n not coprime to d"
    if any(gcd(a + j * n, d) == 1 for j in range(k)):
        return "a smaller shift exists"
    return None


def check_iterates(out) -> str | None:
    its = [int(x) for x in out["f_iterates"]]
    if any(b < a for a, b in zip(its, its[1:])):
        return "f_iterates decrease"
    return None


def omega(n: int) -> int:
    return len(prime_factors(n))


# --- finite fields -----------------------------------------------------------------


def rank_mod(rows, ell: int) -> int:
    m = [[x % ell for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, ell)
        m[rank] = [x * inv % ell for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % ell for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def in_span_mod(basis, vecs, ell: int) -> bool:
    basis = [list(r) for r in basis]
    r = rank_mod(basis, ell) if basis else 0
    return all(rank_mod(basis + [list(v)], ell) == r for v in vecs)


def mat_mul_mod(a, b, ell: int):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % ell for col in zip(*b)) for row in a
    )


def mat_vec_mod(a, v, ell: int):
    return tuple(sum(x * y for x, y in zip(row, v)) % ell for row in a)


def closure_order(gens, ell: int, cap: int) -> int | None:
    """Order of the group generated by gens, or None when it has more than cap elements."""
    dim = len(gens[0])
    ident = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mat_mul_mod(x, g, ell)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > cap:
                        return None
        frontier = nxt
    return len(seen)


def closure_exceeds(gens, ell: int, cap: int) -> bool:
    """True iff the group generated by gens has more than cap elements."""
    return closure_order(gens, ell, cap) is None


def check_orbit_density(req, out) -> str | None:
    ell, gens, a = req["ell"], req["gens"], tuple(req["a"])
    if "refused" in out:
        if out["refused"] <= req["cap"] or not closure_exceeds(gens, ell, req["cap"]):
            return "group refused although it fits the cap"
        return None
    if not out["reports"]:
        return "no subspace met the orbit of a nonzero vector"
    for V, W, index, bound, witness in out["reports"]:
        if Fraction(index) > Fraction(*bound):
            return "stabilizer index above the bound"
        if not in_span_mod(V, W, ell):
            return "W is not inside V"
        if not in_span_mod(W, [mat_vec_mod(witness, a, ell)], ell):
            return "witness does not move a into W"
    return None


# --- the torsion model ---------------------------------------------------------------


def subgroup_points(N: int, basis) -> set:
    """Addition closure of the basis in (Z/N)^n."""
    n = len(basis[0]) if basis else 0
    zero = (0,) * n
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for b in basis:
                y = tuple((u + v) % N for u, v in zip(x, b))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def homothety_orbit(N: int, a, c: int) -> set:
    """{l^c a : l a unit mod ord(a)}, with ord(a) taken from the coordinates."""
    h = N
    for x in a:
        h = gcd(h, x)
    order = N // h
    if order == 1:
        return {tuple(a)}
    return {
        tuple(pow(l, c, order) * x % N for x in a)
        for l in range(1, order)
        if gcd(l, order) == 1
    }


def block_points(N: int, point, basis, c: int) -> set:
    sub = subgroup_points(N, basis) if basis else {(0,) * len(point)}
    return {
        tuple((u + v) % N for u, v in zip(o, b))
        for o in homothety_orbit(N, point, c)
        for b in sub
    }


def check_special_closure(req, out) -> str | None:
    N, c = req["N"], req["c"]
    pts = set()
    for point, basis in out["components"]:
        pts |= block_points(N, point, basis, c)
    if not {tuple(x % N for x in s) for s in req["S"]} <= pts:
        return "closure misses a point of S"
    for l in range(2, N + 2):
        if gcd(l, N) == 1 and {tuple(pow(l, c, N) * x % N for x in p) for p in pts} != pts:
            return "closure not stable under [l^c]"
    return None


def check_keyprop_witness(req, out) -> str | None:
    N, c = req["N"], req["c"]
    block = block_points(N, out["alpha"], out["basis"], c)
    V = {tuple(v) for v in req["V"]}
    a = tuple(x % N for x in req["a"])
    if not homothety_orbit(N, a, c) <= block:
        return "witness block misses the orbit of a"
    if not block <= V:
        return "witness block escapes V"
    return None


# --- rational block algebras ---------------------------------------------------------


def rank_q(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def block_diag(blocks):
    """One square matrix with the given square blocks on its diagonal."""
    size = sum(len(b) for b in blocks)
    out = [[Fraction(0)] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = Fraction(x)
        off += len(b)
    return out


def colspan_leq(small, big) -> bool:
    """Column span of the matrices in small inside that of the matrices in big."""
    cols_big = [list(col) for m in big for col in zip(*m)]
    cols_small = [list(col) for m in small for col in zip(*m)]
    r = rank_q(cols_big)
    return rank_q(cols_big + cols_small) == r


def element_mul(x, y):
    return tuple(
        tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*yb)) for row in xb
        )
        for xb, yb in zip(x, y)
    )


def embed(images, coords):
    """sum_i coords[i] * images[i], blockwise."""
    out = [[[Fraction(0)] * len(b) for _ in b] for b in images[0]]
    for c, img in zip(coords, images):
        if c:
            for ob, ib in zip(out, img):
                for orow, irow in zip(ob, ib):
                    for k, x in enumerate(irow):
                        orow[k] += c * x
    return tuple(tuple(tuple(r) for r in b) for b in out)


def coords_of(element):
    return [x for block in element for row in block for x in row]


def check_lift(req, v) -> str | None:
    """v idempotent in M and im(w) <= im(v) <= im(u), through the embedding."""
    if element_mul(v, v) != v:
        return "v is not idempotent"
    images = req["images"]
    vn = embed(images, coords_of(v))
    wn = embed(images, coords_of(req["w"]))
    if req.get("pi") is None:
        lhs, mid, rhs = [block_diag(wn)], [block_diag(vn)], [block_diag(req["u"])]
    else:
        pi = block_diag(req["pi"])
        lhs = [block_diag(wn), pi]
        mid = [block_diag(vn), pi]
        rhs = [block_diag(req["u"]), pi]
    if not (colspan_leq(lhs, mid) and colspan_leq(mid, rhs)):
        return "v misses the image chain"
    return None


def check_membership(req, answer: bool) -> str | None:
    """b in uB + piB iff im(b) <= im(u) + im(pi), block by block."""
    expected = colspan_leq(
        [block_diag(req["b"])], [block_diag(req["u"]), block_diag(req["pi"])]
    )
    return None if answer == expected else "membership answer %s is wrong" % answer
