"""Seeded request generators, one per workload.

The generators use only their own random stream and their own arithmetic;
the program receives nothing but the requests built here.  The one input
taken from the program is the threshold T of ``threshold_check`` requests,
which the workload defines as ``final_delta`` of the parameters it samples.

A request's shape (the field, dimension and generator count of a group; the
ambient and c of a torsion model; the block sizes of an algebra pair; the
parameter tuple of a bound) sets most of its cost.  Each kind runs every
shape that the acceptance harness draws from exactly once, so the seed
changes the values inside the shapes and never their mix.  Kinds whose input
is an integer from a range take STRATA requests built on equal slices of it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from checks import (closure_exceeds, closure_order, homothety_orbit, is_prime, omega, rank_mod,
                    rank_q)

GL_SHAPES = [(ell, dim) for ell in (2, 3, 5) for dim in (1, 2, 3)]
MODEL_AMBIENTS = [(3, 1), (4, 1), (6, 1), (12, 1), (3, 2), (4, 2), (6, 2), (8, 2), (12, 2)]
GROUP_CAP = 1500
#: (ell, order) of the groups of a few hundred elements that every
#: finite-models list holds, one of each: a conjugate of GL_2(F_5) x 1 in
#: GL_3(F_5) and a conjugate of the affine group AGL_2(F_3) in GL_3(F_3)
MID_GROUPS = [(5, 480), (3, 432)]
DELTA_C = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]
#: D of the bound_report and threshold_check requests
D_GRID = (1, 4, 7, 10)
#: integers per range-drawn kind of thresholds
STRATA = 20
#: cofactors m of the g(d) inputs d = m p, p a prime above 5, one per slice.
#: g(d) makes one object per integer in 1..d prime to d, about d phi(m) / m
#: of them, so with m fixed per slice the slice sets the cost, not the seed.
#: jacobsthal mixes in non-squarefree d; coprime_shift needs squarefree d
JACOBSTHAL_COFACTORS = (1, 4, 9, 12, 2, 8, 18, 25, 6)
SHIFT_COFACTORS = (1, 2, 6, 30, 3)
#: four subcommands, each once in every one of five format slots (_cli_argv)
CLI_SHAPES = 20
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def rng_for(workload: str, seed: int, stream: str = "requests") -> random.Random:
    return random.Random("%s:%s:%d" % (workload, stream, seed))


def slices(lo: int, hi: int, count: int) -> list[tuple[int, int]]:
    """count equal slices of [lo, hi)."""
    width = (hi - lo) / count
    edges = [lo + int(i * width) for i in range(count + 1)]
    return list(zip(edges, edges[1:]))


def strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count integers, the i-th uniform in the i-th of count equal slices of
    [lo, hi), so that the summed cost of a list barely depends on the seed."""
    return [rng.randrange(a, max(b, a + 1)) for a, b in slices(lo, hi, count)]


# --- finite-models -------------------------------------------------------------------


def _invertible_mod(rng, ell: int, dim: int):
    while True:
        m = [[rng.randrange(ell) for _ in range(dim)] for _ in range(dim)]
        if rank_mod(m, ell) == dim:
            return m


def _inverse_mod(m, ell: int):
    n = len(m)
    aug = [[x % ell for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], -1, ell)
        aug[c] = [x * inv % ell for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [(x - f * y) % ell for x, y in zip(aug[r], aug[c])]
    return [row[n:] for row in aug]


def _mat_mod(a, b, ell: int):
    return [[sum(x * y for x, y in zip(row, col)) % ell for col in zip(*b)] for row in a]


def _mid_group(rng, ell: int, order: int) -> dict:
    """An orbit-density request on F_ell^3 whose group is conjugate to a fixed
    one of the given order, with a conjugate to a fixed vector, so that its
    cost does not depend on the seed.  The generators are two random
    [[A, v], [0, 1]] with A in GL_2(F_ell): v = 0 and a = e1 + e3 on F_5, any
    v and a = e3 on F_3."""
    P = _invertible_mod(rng, ell, 3)
    P_inv = _inverse_mod(P, ell)
    a0 = [1, 0, 1] if ell == 5 else [0, 0, 1]
    while True:
        gens0 = []
        for _ in range(2):
            A = _invertible_mod(rng, ell, 2)
            v = [0, 0] if ell == 5 else [rng.randrange(ell) for _ in range(2)]
            gens0.append([A[0] + [v[0]], A[1] + [v[1]], [0, 0, 1]])
        if closure_order(gens0, ell, order) == order:
            break
    gens = [_mat_mod(_mat_mod(P, g, ell), P_inv, ell) for g in gens0]
    a = [row[0] for row in _mat_mod(P, [[x] for x in a0], ell)]
    return {"kind": "orbit_density", "ell": ell, "dim": 3, "gens": gens, "a": a, "cap": GROUP_CAP}


def finite_models(seed: int) -> list[dict]:
    rng = rng_for("finite-models", seed)
    parts = []
    dens = []
    for ell, dim, count in [(ell, dim, count) for ell, dim in GL_SHAPES for count in (1, 2)]:
        # the groups of a few hundred elements are the two below: verify_bound
        # over one costs 0.25 to 0.7 s, so the other groups on F_3^3 and F_5^3
        # are kept out of that range, or throughput would hinge on how many a
        # seed drew.  Two generators are redrawn until they exceed the cap,
        # and a single generator until its order is at most 24
        while True:
            gens = [_invertible_mod(rng, ell, dim) for _ in range(count)]
            if dim < 3 or ell == 2:
                break
            if count == 2 and closure_exceeds(gens, ell, GROUP_CAP):
                break
            if count == 1 and not closure_exceeds(gens, ell, 24):
                break
        a = [0] * dim
        while not any(a):
            a = [rng.randrange(ell) for _ in range(dim)]
        dens.append({"kind": "orbit_density", "ell": ell, "dim": dim, "gens": gens,
                     "a": a, "cap": GROUP_CAP})
    dens += [_mid_group(rng, ell, order) for ell, order in MID_GROUPS]
    parts.append(dens)
    model_shapes = [(N, g, c) for N, g in MODEL_AMBIENTS for c in (1, 2, 3)]
    clos = []
    for N, g, c in model_shapes:
        S = [[rng.randrange(N) for _ in range(2 * g)] for _ in range(rng.randrange(1, 4))]
        clos.append({"kind": "special_closure", "N": N, "g": g, "c": c, "S": S})
    parts.append(clos)
    wits = []
    for N, g, c in model_shapes:
        a = [rng.randrange(N) for _ in range(2 * g)]
        V = homothety_orbit(N, a, c)
        for _ in range(2):
            V |= homothety_orbit(N, [rng.randrange(N) for _ in range(2 * g)], c)
        wits.append({"kind": "keyprop_witness", "N": N, "g": g, "c": c, "a": a,
                     "V": sorted(list(v) for v in V)})
    parts.append(wits)
    return [req for part in parts for req in part]


# --- idempotent-lift -----------------------------------------------------------------


def _mat(rows):
    return tuple(tuple(Fraction(x) for x in r) for r in rows)


def _mul(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _inverse(m):
    n = len(m)
    aug = [list(m[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if aug[r][c] != 0)
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = aug[c][c]
        aug[c] = [x / inv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c] != 0:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return tuple(tuple(row[n:]) for row in aug)


def _random_invertible(rng, n: int):
    while True:
        m = _mat([[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])
        if rank_q(m) == n:
            return m


def _elem_mul(x, y):
    return tuple(_mul(a, b) for a, b in zip(x, y))


def _diag(blocks, pattern):
    return tuple(
        _mat([[int(i == j and bits[i]) for j in range(n)] for i in range(n)])
        for n, bits in zip(blocks, pattern)
    )


def _unit(blocks, bi, i, j):
    return tuple(
        _mat([[int(k == bi and r == i and s == j) for s in range(n)] for r in range(n)])
        for k, n in enumerate(blocks)
    )


def _emb0(x, m_blocks, assignment):
    """Block-diagonal embedding: target block t stacks the source blocks in assignment[t]."""
    out = []
    for lst in assignment:
        size = sum(m_blocks[i] for i in lst)
        rows = [[Fraction(0)] * size for _ in range(size)]
        off = 0
        for si in lst:
            for r, row in enumerate(x[si]):
                for s, v in enumerate(row):
                    rows[off + r][off + s] = v
            off += m_blocks[si]
        out.append(tuple(tuple(r) for r in rows))
    return tuple(out)


def _pair_shapes(max_n_dim: int) -> list[tuple]:
    """Every (M blocks, N assignment) of the c7 shape with dim N <= max_n_dim:
    M has one or two blocks of size <= 2, each used once in N, plus at most
    one extra N block of size <= 3 stacking one or two M blocks."""
    shapes = []
    for m_blocks in ((1,), (2,), (1, 1), (1, 2), (2, 2)):
        base = [[i] for i in range(len(m_blocks))]
        extras = [None] + [[i] for i in range(len(m_blocks))] + [
            [i, j] for i in range(len(m_blocks)) for j in range(i, len(m_blocks))]
        for extra in extras:
            assignment = base + ([extra] if extra else [])
            n_blocks = tuple(sum(m_blocks[i] for i in lst) for lst in assignment)
            if max(n_blocks) <= 3 and sum(n * n for n in n_blocks) <= max_n_dim:
                shapes.append((m_blocks, assignment))
    return shapes


def _subalgebra_pair(rng, shape):
    """M -> N of the given shape, with the embedding conjugated by a random g."""
    m_blocks, assignment = shape
    assignment = [list(lst) for lst in assignment]
    rng.shuffle(assignment)
    n_blocks = tuple(sum(m_blocks[i] for i in lst) for lst in assignment)
    g = tuple(_random_invertible(rng, n) for n in n_blocks)
    g_inv = tuple(_inverse(b) for b in g)

    def emb(x):
        return _elem_mul(_elem_mul(g, _emb0(x, m_blocks, assignment)), g_inv)

    units = [(bi, i, j) for bi, n in enumerate(m_blocks) for i in range(n) for j in range(n)]
    images = [emb(_unit(m_blocks, *t)) for t in units]
    return m_blocks, n_blocks, assignment, g, g_inv, emb, images


def _covering_pair(rng, m_blocks, n_blocks, assignment, g, g_inv, emb):
    """w in M and u in N, both idempotent, with im(emb(w)) inside im(u)."""
    h = tuple(_random_invertible(rng, n) for n in m_blocks)
    h_inv = tuple(_inverse(b) for b in h)
    w0_bits = [[rng.random() < 0.5 for _ in range(n)] for n in m_blocks]
    w = _elem_mul(_elem_mul(h, _diag(m_blocks, w0_bits)), h_inv)
    covered = _emb0(_diag(m_blocks, w0_bits), m_blocks, assignment)
    u0_bits = [[covered[t][i][i] == 1 or rng.random() < 0.5 for i in range(n)]
               for t, n in enumerate(n_blocks)]
    conj = _elem_mul(emb(h), g)
    conj_inv = _elem_mul(g_inv, emb(h_inv))
    u = _elem_mul(_elem_mul(conj, _diag(n_blocks, u0_bits)), conj_inv)
    return u, w


def _central(rng, blocks):
    return _diag(blocks, [[on] * n for n, on in ((n, rng.random() < 0.5) for n in blocks)])


def idempotent_lift(seed: int) -> list[dict]:
    rng = rng_for("idempotent-lift", seed)
    parts = []
    for kind in ("lift", "lift_central", "user_rep"):
        reqs = []
        shapes = _pair_shapes(8 if kind == "user_rep" else 11)
        for shape in shapes:
            m_blocks, n_blocks, assignment, g, g_inv, emb, images = _subalgebra_pair(rng, shape)
            u, w = _covering_pair(rng, m_blocks, n_blocks, assignment, g, g_inv, emb)
            req = {"kind": kind, "M": list(m_blocks), "N": list(n_blocks), "images": images,
                   "u": u, "w": w, "pi": _central(rng, n_blocks) if kind == "lift_central" else None}
            if kind == "user_rep":
                s = sum(n_blocks)
                P = _random_invertible(rng, s)
                P_inv = _inverse(P)
                units = [(bi, i, j) for bi, n in enumerate(n_blocks) for i in range(n) for j in range(n)]
                offs = [sum(n_blocks[:k]) for k in range(len(n_blocks))]
                rep = []
                for bi, i, j in units:
                    E = _mat([[int(r == offs[bi] + i and c == offs[bi] + j) for c in range(s)]
                              for r in range(s)])
                    rep.append(_mul(_mul(P, E), P_inv))
                req["rep"] = rep
            reqs.append(req)
        parts.append(reqs)
    mem = []
    block_shapes = [(1,), (2,), (3,), (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]
    for blocks in block_shapes:
        g = tuple(_random_invertible(rng, n) for n in blocks)
        g_inv = tuple(_inverse(b) for b in g)
        pi = _central(rng, blocks)
        bits = [[rng.random() < 0.5 for _ in range(n)] for n in blocks]
        u = _elem_mul(_elem_mul(g, _diag(blocks, bits)), g_inv)

        def rand_elem():
            return tuple(_mat([[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)])
                         for n in blocks)

        if rng.random() < 0.5:
            x, y = rand_elem(), rand_elem()
            b = tuple(
                tuple(tuple(p + q for p, q in zip(r1, r2)) for r1, r2 in zip(b1, b2))
                for b1, b2 in zip(_elem_mul(u, x), _elem_mul(pi, y))
            )
        else:
            b = rand_elem()
        mem.append({"kind": "membership", "B": list(blocks), "pi": pi, "u": u, "b": b})
    parts.append(mem)
    return [req for part in parts for req in part]


# --- thresholds ----------------------------------------------------------------------


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def _prev_prime(n: int) -> int:
    while not is_prime(n):
        n -= 1
    return n


def _random_prime(rng, lo: int, hi: int) -> int:
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


def _small_omega_d(rng, max_omega: int, lo: int, hi: int) -> int:
    """A d in [lo, hi) with at most max_omega prime factors, all below 50."""
    while True:
        primes = rng.sample(SMALL_PRIMES, rng.randrange(0, max_omega + 1))
        d = 1
        for p in primes:
            d *= p ** rng.choice((1, 1, 2))
        if lo <= d < hi:
            return d


def _with_cofactor(rng, lo: int, hi: int, m: int) -> int:
    """m p in [lo, hi) with p a random prime above 5."""
    return m * _random_prime(rng, max(7, -(-lo // m)), max(8, hi // m))


def _d_with_omega(rng, T: int) -> tuple[int, int]:
    """A d in [T, 10T] with known omega: small odd primes times a power of two."""
    if 10 * T <= 10 ** 9:
        d = rng.randrange(T, 10 * T + 1)
        return d, omega(d)
    odd = rng.sample(SMALL_PRIMES[1:], rng.randrange(0, 4))
    m = 1
    for p in odd:
        m *= p
    e = max(1, T.bit_length() - m.bit_length())
    while m << e < T:
        e += 1
    while e > 1 and m << (e - 1) >= T:
        e -= 1
    return m << e, len(odd) + 1


def thresholds(seed: int, final_delta) -> list[dict]:
    """``final_delta(D, Delta, c)`` supplies T for the threshold_check requests."""
    rng = rng_for("thresholds", seed)
    parts = []
    # D and (Delta, c) also decide whether final_delta scans its violation
    # region, which sets the memory peak
    # d comes from the k-th of 20 slices of [1, 10^5] on a log scale: the
    # g(d) inside costs time and memory about d, and above 10^5 its memory
    # would pass that of the largest jacobsthal request
    shapes = [(D, Delta, c) for D in D_GRID for Delta, c in DELTA_C]
    parts.append([
        {"kind": "bound_report", "D": D, "Delta": Delta, "c": c,
         "d": _small_omega_d(rng, 4, round(10 ** (5 * k / len(shapes))),
                             round(10 ** (5 * (k + 1) / len(shapes)))),
         "p": (0, 2, 3, 5)[k % 4]}
        for k, (D, Delta, c) in enumerate(shapes)
    ])
    # the largest input is fixed, so that the memory peak of the g(d) scan (a
    # d-byte buffer and one object per run of it) does not depend on the seed
    repeats = STRATA // 2
    unique = [_with_cofactor(rng, a, b, m) for (a, b), m in
              zip(slices(2, 2 * 10 ** 6, STRATA - repeats - 1), JACOBSTHAL_COFACTORS)]
    jac = [{"kind": "jacobsthal", "d": d} for d in unique + [_prev_prime(2 * 10 ** 6)]]
    jac += [dict(rng.choice(jac)) for _ in range(repeats)]
    parts.append(jac)
    shifts = []
    for i, (lo, hi) in enumerate(slices(2, 10 ** 6, STRATA)):
        # squarefree d and n prime to it: the g(d') scan inside covers all of d
        d = _with_cofactor(rng, lo, hi, SHIFT_COFACTORS[i % len(SHIFT_COFACTORS)])
        n = rng.randrange(1, 1000)
        while gcd(n, d) != 1:
            n = rng.randrange(1, 1000)
        shifts.append({"kind": "coprime_shift", "a": rng.randrange(0, 1000), "n": n, "d": d})
    parts.append(shifts)
    # trial division stops at the smaller prime, which comes from the strata
    parts.append([
        {"kind": "factorize", "n": _next_prime(lo) * _random_prime(rng, lo, 10 ** 6)}
        for lo in strata(rng, 10 ** 5, 10 ** 6, STRATA)
    ])
    parts.append([{"kind": "cli", "argv": _cli_argv(rng, i)} for i in range(CLI_SHAPES)])
    inequality_checks = []
    for D in D_GRID:
        for Delta, c in DELTA_C:
            d, w = _d_with_omega(rng, final_delta(D, Delta, c))
            inequality_checks.append({"kind": "threshold_check", "D": D, "Delta": Delta,
                                      "c": c, "d": d, "omega": w})
    parts.append(inequality_checks)
    return [req for part in parts for req in part]


# --- in-process CLI requests ---------------------------------------------------------


def _cli_argv(rng, i: int) -> list[str]:
    """Subcommand i % 4, in csv or text when i % 5 == 4.  Slot i // 4 sets the
    parameters that decide the cost; the seed draws the rest."""
    sub, slot = i % 4, i // 4
    if sub == 0:
        argv = ["jacobsthal", str(rng.randrange(2 + 2 * 10 ** 4 * slot, 2 * 10 ** 4 * (slot + 1)))]
    elif sub == 1:
        d = rng.randrange(1, 10 ** 4)
        n = rng.randrange(1, 100)
        while gcd(n, d) != 1:
            n = rng.randrange(1, 100)
        argv = ["coprime-shift", str(rng.randrange(0, 100)), str(n), str(d)]
    elif sub == 2:
        argv = ["delta-bound", "--D", str(D_GRID[slot % len(D_GRID)]), "--Delta", "1",
                "--c", str(1 + slot % 3), "--d", str(_small_omega_d(rng, 3, 1, 10 ** 4 + 1))]
    else:
        argv = ["sigma-set", "--D", str(1 + slot % 3), "--c", str(1 + slot % 2),
                "--d", str(_small_omega_d(rng, 2, 1, 101))]
    if i % 5 == 4:
        argv = ["--format", rng.choice(("csv", "text"))] + argv
    return argv


#: Inputs that ROADMAP item 4 requires to answer or fail fast; each crashes,
#: exhausts memory or runs for minutes at the seed commit.
EDGE_CASES = [
    ("jacobsthal-1e9", ["jacobsthal", "1000000007"], None),
    ("jacobsthal-1e11", ["jacobsthal", "100000000000"], None),
    ("lang-orbit-1e9", ["lang-orbit", "--N", "1000000007", "--g", "1", "--point", "1,0",
                        "--c", "1"], None),
    ("coprime-shift-2^64", ["coprime-shift", "1", "1", "18446744073709551557"], None),
    ("delta-bound-2-3-3", ["delta-bound", "--D", "2", "--Delta", "3", "--c", "3"], None),
    ("delta-bound-2-4-3", ["delta-bound", "--D", "2", "--Delta", "4", "--c", "3"], None),
    ("delta-bound-1-2-3", ["delta-bound", "--D", "1", "--Delta", "2", "--c", "3"], None),
    ("delta-bound-2-3-1", ["delta-bound", "--D", "2", "--Delta", "3", "--c", "1"], None),
    ("gl-verify-big-ell", ["gl-verify", "--input", "@edge-big-ell.json"],
     '{"ell": 1000000007, "dim": 1, "generators": [[[2]]], "a": [1], "V": [[1]]}'),
    ("gl-verify-malformed", ["gl-verify", "--input", "@edge-malformed.json"],
     '{"ell": 5, "dim": 1, "generators": [[[2]]'),
    ("gl-verify-string-ell", ["gl-verify", "--input", "@edge-string-ell.json"],
     '{"ell": "5", "dim": 1, "generators": [[[2]]], "a": [1], "V": [[1]]}'),
]
