"""The acceptance suite: every criterion as a runnable check.

Each criterion returns a CheckResult with a pass flag and a summary line.
The CLI ``selftest`` subcommand and the pytest acceptance module both call
these functions, so CI and users run identical checks.  Oracles here are
deliberately independent of the library paths they judge (gcd scans instead
of factor sieves, addition closures instead of coefficient spans).
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import algebras as alg
from . import bounds as bnd
from . import cosets as cst
from . import glorbits as glo
from .integers import (
    factorize,
    jacobsthal,
    jacobsthal_bounds,
    minimal_coprime_shift,
    nth_prime,
    rosser_upper,
    squarefree_quotient,
)


@dataclass
class CheckResult:
    index: int
    name: str
    passed: bool
    details: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return "criterion %d [%s] %s: %s (%.1fs)" % (
            self.index,
            status,
            self.name,
            self.details,
            self.seconds,
        )


def _result(index, name, t0, violations, checked, extra=""):
    details = "%d checks, %d violations" % (checked, violations)
    if extra:
        details += "; " + extra
    return CheckResult(index, name, violations == 0, details, time.time() - t0)


# --- criterion 1: Jacobsthal -------------------------------------------------------


def _definition_scan(d: int) -> int:
    """Definition oracle: least M with every window of M consecutive integers
    in [1, d+M] containing one coprime to d; gcd-based, no factor sieve."""
    if d == 1:
        return 1
    n = 2 * d + 1
    ar = np.gcd(np.arange(1, n + 1, dtype=np.int64), d)
    pos = np.where(ar == 1, np.arange(n), np.int64(1) << 40)
    next_coprime = np.minimum.accumulate(pos[::-1])[::-1]
    return int((next_coprime[: d + 1] - np.arange(d + 1)).max()) + 1


def criterion_jacobsthal(limit: int = 10 ** 4, **_) -> CheckResult:
    t0 = time.time()
    violations = 0
    checked = 0
    for d in range(1, limit + 1):
        g = jacobsthal(d)
        checked += 1
        if g != _definition_scan(d):
            violations += 1
            continue
        if g != jacobsthal(factorize(d).radical):
            violations += 1
            continue
        kanold, stevens = jacobsthal_bounds(factorize(d))
        if g > kanold:
            violations += 1
        elif stevens is not None and g > stevens:
            violations += 1
    elapsed = time.time() - t0
    res = _result(1, "jacobsthal exact + bounds", t0, violations, checked,
                  "runtime target 60s")
    if elapsed >= 60:
        res.passed = False
        res.details += "; runtime %.1fs exceeded target" % elapsed
    return res


# --- criterion 2: coprime shift -----------------------------------------------------


def criterion_coprime_shift(n_max: int = 60, d_max: int = 500, **_) -> CheckResult:
    t0 = time.time()
    violations = 0
    checked = 0
    for n in range(1, n_max + 1):
        for a in range(0, n):
            for d in range(1, d_max + 1):
                if gcd(a, gcd(n, d)) != 1:
                    continue
                k = minimal_coprime_shift(a, n, d)
                checked += 1
                ok = (
                    gcd(a + k * n, d) == 1
                    and all(gcd(a + j * n, d) != 1 for j in range(k))
                    and k < jacobsthal(squarefree_quotient(d, n))
                )
                if not ok:
                    violations += 1
    return _result(2, "minimal coprime shift exhaustive", t0, violations, checked)


# --- criterion 3: prime upper bound ---------------------------------------------------


def criterion_rosser(x_max: int = 10 ** 4, **_) -> CheckResult:
    t0 = time.time()
    violations = 0
    checked = 1
    if nth_prime(4) != 7:
        violations += 1
    for x in range(4, x_max + 1):
        checked += 1
        if nth_prime(x) > rosser_upper(x):
            violations += 1
    return _result(3, "rosser-form prime bound", t0, violations, checked)


# --- criterion 4: degree-bound consistency ---------------------------------------------


def criterion_bound_consistency(grid_max: int = 50, **_) -> CheckResult:
    t0 = time.time()
    violations = 0
    checked = 0
    lam, delta, dp = bnd.exponent_constants(2, 1, Fraction(1, 2))
    checked += 1
    if (lam, delta, dp) != (Fraction(3, 2), Fraction(10), Fraction(6)):
        violations += 1

    # f >= D^2 N^(2cDelta) over the full grid (cheap: first-level values)
    for D in range(1, grid_max + 1):
        for d in range(1, grid_max + 1):
            for Delta in range(1, 4):
                for c in range(1, 4):
                    params = bnd.BoundParams(D=D, Delta=Delta, c=c, d=d)
                    checked += 1
                    if bnd.f_bound(params) < D ** 2 * bnd.capital_n(params) ** (
                        2 * c * Delta
                    ):
                        violations += 1

    # iterate chains: d enters only through (omega, g), so deduplicate the
    # d-axis by that class; every class present among d <= grid_max is hit
    classes = {}
    for d in range(1, grid_max + 1):
        fi = factorize(d)
        key = (fi.omega, jacobsthal(fi.radical))
        classes.setdefault(key, d)
    for D in range(1, grid_max + 1):
        for d in classes.values():
            for Delta in range(1, 4):
                for c in range(1, 4):
                    params = bnd.BoundParams(D=D, Delta=Delta, c=c, d=d)
                    seq = [bnd.iterated_f(params, i) for i in range(Delta + 1)]
                    checked += 1
                    if any(seq[i] > seq[Delta] for i in range(Delta + 1)):
                        violations += 1
                    if seq[0] != D or seq[1] != bnd.f_bound(params):
                        violations += 1
    return _result(
        4,
        "degree-bound consistency",
        t0,
        violations,
        checked,
        "d deduplicated by (omega, g) class for the iterate chains",
    )


# --- criterion 5: threshold soundness ----------------------------------------------------


def _sample_d_with_omega(rng: random.Random, T: int, primes_pool) -> tuple[int, int]:
    """A d in [T, 2T] with known omega, built from scratch as a prime product."""
    style = rng.randrange(3)
    if style == 0:
        q = primes_pool[rng.randrange(1, len(primes_pool))]
        chosen = {2, q}
        d = 2 * q
    elif style == 1:
        count = rng.randrange(2, 30)
        chosen = {2}
        d = 2
        for p in rng.sample(primes_pool[1:], count):
            if d * p >= 4 * T:
                break
            chosen.add(p)
            d *= p
    else:
        # primorial-style adversary: many small primes, possibly squared
        chosen = {2}
        d = 2
        power = rng.choice((1, 2))
        for p in primes_pool[1:]:
            if d * p ** power >= 4 * T:
                break
            chosen.add(p)
            d *= p ** power
    return _double_up_to(d, T), len(chosen)


def _double_up_to(d: int, T: int) -> int:
    """The least d * 2^k >= T with k >= 0, by one shift and at most one doubling."""
    shift = T.bit_length() - d.bit_length()
    if shift > 0:
        d <<= shift
    return d if d >= T else d << 1


def criterion_threshold_soundness(samples: int = 200, seed: int = 0, **_) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed)
    violations = 0
    checked = 0
    pool = [nth_prime(i) for i in range(1, 1300)]
    for D in range(1, 11):
        for Delta in (1, 2):
            for c in (1, 2):
                params = bnd.BoundParams(D=D, Delta=Delta, c=c)
                T = bnd.final_delta(params)
                for _ in range(samples):
                    if 10 * T <= 10 ** 10:
                        d = rng.randrange(T, 10 * T + 1)
                        omega = factorize(d).omega
                    else:
                        d, omega = _sample_d_with_omega(rng, T, pool)
                        if not T <= d <= 10 * T:
                            violations += 1
                            continue
                    checked += 1
                    if not bnd.threshold_inequalities_hold(d, omega, params):
                        violations += 1
    return _result(5, "order-threshold soundness", t0, violations, checked)


# --- criterion 6: orbit densities ---------------------------------------------------------


def _random_gl_generators(rng, ell, dim, count):
    out = []
    for _ in range(count):
        for _attempt in range(50):
            m = tuple(
                tuple(rng.randrange(ell) for _ in range(dim)) for _ in range(dim)
            )
            if glo._is_invertible(m, ell):
                out.append(m)
                break
    return out


def criterion_orbit_densities(min_groups: int = 200, seed: int = 0, **_) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed)
    group_cap = 1500
    groups = []
    seen = set()
    combos = [(ell, dim) for ell in (2, 3, 5) for dim in (1, 2, 3)]
    # dimension-1 groups are scarce (subgroups of F_ell^*), so the bulk of
    # the quota is taken from the richer combos
    quota = {(ell, dim): (6 if dim == 1 else 40) for ell, dim in combos}
    for ell, dim in combos:
        made = 0
        tries = 0
        while made < quota[(ell, dim)] and tries < 800:
            tries += 1
            gens = _random_gl_generators(rng, ell, dim, rng.randrange(1, 3))
            try:
                G = glo.generate_group(gens, ell, dim, cap=group_cap)
            except Exception:
                continue
            key = frozenset(G.elements)
            if key in seen:
                continue
            seen.add(key)
            groups.append(G)
            made += 1
    violations = 0
    checked = 0
    for G in groups:
        lattice = glo.all_subspaces(G.ell, G.dim)
        # one orbit class per distinct orbit; every (a, V) pair factors
        # through (orbit, V), which is what gets verified
        orbit_reps = {}
        for a in itertools.product(range(G.ell), repeat=G.dim):
            orb = glo.orbit(G, a)
            orbit_reps.setdefault(orb, a)
        for orb, a in orbit_reps.items():
            for V in lattice:
                hits = sum(1 for p in orb if V.contains(p))
                if hits == 0:
                    continue
                checked += 1
                try:
                    rep = glo.verify_bound(G, a, V)  # asserts index bound + witness
                except Exception:
                    violations += 1
                    continue
                eps_w = rep.epsilon_W
                ok = rep.bound_ok
                for Wp in lattice:
                    if Wp.leq(rep.W) and Wp.dim < rep.W.dim:
                        eps_p = Fraction(
                            sum(1 for p in orb if Wp.contains(p)), len(orb)
                        )
                        if not eps_p < eps_w ** (4 ** (rep.W.dim - Wp.dim)):
                            ok = False
                if not ok:
                    violations += 1
    extra = "%d groups" % len(groups)
    res = _result(6, "orbit-density stabilizer bound", t0, violations, checked, extra)
    if len(groups) < min_groups:
        res.passed = False
        res.details += "; only %d groups generated" % len(groups)
    if res.seconds >= 600:
        res.passed = False
        res.details += "; runtime target 600s exceeded"
    return res


# --- criterion 7: idempotent chains ----------------------------------------------------------


def _random_invertible(rng, alg_obj):
    """Random invertible element with entries in [-3, 3], per block."""
    from .linalg import rref

    data = []
    for n in alg_obj.blocks:
        while True:
            rows = [[Fraction(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(n)]
            base, piv = rref(rows)
            if len(piv) == n:
                data.append(tuple(tuple(r) for r in rows))
                break
    return alg.AlgebraElement(alg_obj, tuple(data))


def _inverse(x: alg.AlgebraElement) -> alg.AlgebraElement:
    from .linalg import rref

    data = []
    for mat, n in zip(x.data, x.parent.blocks):
        aug = [list(mat[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        base, piv = rref(aug)
        inv = tuple(tuple(row[n:]) for row in base)
        data.append(inv)
    return alg.AlgebraElement(x.parent, tuple(data))


def _random_subalgebra_pair(rng):
    """Random M -> N with a conjugated block-diagonal embedding."""
    m_blocks = tuple(rng.choice((1, 1, 2)) for _ in range(rng.choice((1, 2))))
    M = alg.SplitSemisimpleAlgebra(m_blocks)
    assignment = []
    n_blocks = []
    # every M block used at least once; N blocks of size <= 3
    forced = list(range(len(m_blocks)))
    rng.shuffle(forced)
    for idx in forced:
        assignment.append([idx])
        n_blocks.append(m_blocks[idx])
    for _ in range(rng.randrange(0, 2)):
        extra = [rng.randrange(len(m_blocks))]
        if m_blocks[extra[0]] + min(m_blocks) <= 3 and rng.random() < 0.5:
            extra.append(rng.randrange(len(m_blocks)))
        if sum(m_blocks[i] for i in extra) <= 3:
            assignment.append(extra)
            n_blocks.append(sum(m_blocks[i] for i in extra))
    N = alg.SplitSemisimpleAlgebra(tuple(n_blocks))
    emb0 = alg.diagonal_embedding(M, N, assignment)
    g = _random_invertible(rng, N)
    g_inv = _inverse(g)
    images = tuple(g * img * g_inv for img in emb0.images)
    emb = alg.AlgebraEmbedding(M, N, images)
    return M, N, emb, emb0, g, g_inv


def _diag_idempotent(rng, alg_obj, lower=None):
    """Random 0/1 diagonal idempotent; with ``lower`` covers its pattern."""
    data = []
    for bi, n in enumerate(alg_obj.blocks):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            forced = lower is not None and lower.data[bi][i][i] == 1
            if forced or rng.random() < 0.5:
                rows[i][i] = Fraction(1)
        data.append(tuple(tuple(r) for r in rows))
    return alg.AlgebraElement(alg_obj, tuple(data))


def criterion_idempotent_chains(
    lifts: int = 500, central: int = 200, memberships: int = 1000, seed: int = 0, **_
) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed)
    violations = 0
    checked = 0

    from .linalg import nullspace, span_leq

    for _ in range(lifts):
        M, N, emb, emb0, g, g_inv = _random_subalgebra_pair(rng)
        rep = alg.standard_representation(N)
        u = g * _diag_idempotent(rng, N) * g_inv
        # w ranges over {w in M : u*emb(w) = emb(w)}; random rational combo
        rows = []
        for x in M.basis():
            diff = u * emb.apply(x) - emb.apply(x)
            rows.append(diff.coords())
        system = [[rows[i][k] for i in range(len(rows))] for k in range(N.dim)]
        kernel = nullspace(system)
        w = M.zero()
        for vec in kernel:
            if rng.random() < 0.7:
                w = w + M.from_coords(vec).scale(rng.randrange(-3, 4))
        checked += 1
        try:
            v = alg.lift_idempotent(M, N, emb, rep, u, w)
        except Exception:
            violations += 1
            continue
        wn, vn, = emb.apply(w), emb.apply(v)
        chain_ok = (
            v.is_idempotent()
            and span_leq(
                alg.column_space(rep.apply(wn)), alg.column_space(rep.apply(vn))
            )
            and span_leq(
                alg.column_space(rep.apply(vn)), alg.column_space(rep.apply(u))
            )
        )
        if not chain_ok:
            violations += 1

    for _ in range(central):
        M, N, emb, emb0, g, g_inv = _random_subalgebra_pair(rng)
        rep = alg.standard_representation(N)
        h = _random_invertible(rng, M)
        h_inv = _inverse(h)
        w0 = _diag_idempotent(rng, M)
        w = h * w0 * h_inv
        hn = emb.apply(h)
        hn_inv = emb.apply(h_inv)
        # u covers w by construction: u = emb(h) g u0 g^-1 emb(h)^-1 with the
        # diagonal u0 covering the unconjugated pattern emb0(w0)
        u0 = _diag_idempotent(rng, N, lower=_pattern_of(emb0.apply(w0), N))
        u = hn * (g * u0 * g_inv) * hn_inv
        pi = _central_idempotent(rng, N)
        checked += 1
        try:
            v = alg.lift_idempotent_central(M, N, emb, rep, pi, u, w)
        except Exception:
            violations += 1
            continue
        vn = emb.apply(v)
        lhs = alg._colspan_sum([rep.apply(emb.apply(w)), rep.apply(pi)])
        mid = alg._colspan_sum([rep.apply(vn), rep.apply(pi)])
        rhs = alg._colspan_sum([rep.apply(u), rep.apply(pi)])
        if not (v.is_idempotent() and span_leq(lhs, mid) and span_leq(mid, rhs)):
            violations += 1

    for _ in range(memberships):
        blocks = tuple(rng.choice((1, 2, 3)) for _ in range(rng.choice((1, 2))))
        B = alg.SplitSemisimpleAlgebra(blocks)
        rep = alg.standard_representation(B)
        g = _random_invertible(rng, B)
        g_inv = _inverse(g)
        pi = _central_idempotent(rng, B)
        u = g * _diag_idempotent(rng, B) * g_inv
        if rng.random() < 0.5:
            x = _random_element(rng, B)
            y = _random_element(rng, B)
            b = u * x + pi * y  # guaranteed member
        else:
            b = _random_element(rng, B)
        checked += 1
        try:
            alg.ideal_membership_mod_pi(B, pi, u, b, rep)  # asserts agreement
        except Exception:
            violations += 1

    return _result(7, "idempotent lifting chains", t0, violations, checked)


def _pattern_of(x: alg.AlgebraElement, alg_obj) -> alg.AlgebraElement:
    """Round a diagonal 0/1-ish element back to its exact pattern."""
    data = []
    for mat, n in zip(x.data, alg_obj.blocks):
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = Fraction(1) if mat[i][i] == 1 else Fraction(0)
        data.append(tuple(tuple(r) for r in rows))
    return alg.AlgebraElement(alg_obj, tuple(data))


def _central_idempotent(rng, alg_obj) -> alg.AlgebraElement:
    data = []
    for n in alg_obj.blocks:
        on = rng.random() < 0.5
        data.append(
            tuple(
                tuple(Fraction(1 if (i == j and on) else 0) for j in range(n))
                for i in range(n)
            )
        )
    return alg.AlgebraElement(alg_obj, tuple(data))


def _random_element(rng, alg_obj) -> alg.AlgebraElement:
    data = []
    for n in alg_obj.blocks:
        data.append(
            tuple(
                tuple(Fraction(rng.randrange(-3, 4)) for _ in range(n))
                for _ in range(n)
            )
        )
    return alg.AlgebraElement(alg_obj, tuple(data))


# --- criterion 8: torsion model ------------------------------------------------------------


def _subgroup_points_by_closure(B: cst.ModelSubvariety) -> frozenset:
    """Oracle: addition-closure of the basis, independent of coefficient spans."""
    amb = B.ambient
    seen = {amb.zero()}
    frontier = [amb.zero()]
    while frontier:
        nxt = []
        for x in frontier:
            for gen in B.basis:
                y = amb.add(x, gen)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def criterion_torsion_model(seed: int = 0, closure_cases: int = 100, **_) -> CheckResult:
    t0 = time.time()
    rng = random.Random(seed)
    violations = 0
    checked = 0

    # torsion counts: enumeration oracle vs closed form, N <= 30, g <= 2, q <= 30
    for N in range(1, 31):
        # coordinate annihilator counts by direct scan (no gcd anywhere)
        ann = {q: sum(1 for x in range(N) if q * x % N == 0) for q in range(1, 31)}
        for g in (1, 2):
            amb = cst.ModelAmbient(N, g)
            full = cst.ModelSubvariety(
                amb, tuple(tuple(int(i == j) for j in range(2 * g)) for i in range(2 * g))
            )
            for q in range(1, 31):
                checked += 1
                if cst.torsion_count(full, q) != ann[q] ** (2 * g):
                    violations += 1
            if g == 2 and N <= 12:
                # a couple of random rank-2 summands, oracle by addition closure
                subs = cst.enumerate_summands(amb, 2)
                for B in rng.sample(subs, min(3, len(subs))):
                    pts = _subgroup_points_by_closure(B)
                    for q in (1, 2, 3, 5, 6, 30):
                        checked += 1
                        direct = sum(
                            1 for x in pts if all(q * c % N == 0 for c in x)
                        )
                        if cst.torsion_count(B, q) != direct:
                            violations += 1

    # degree pushforward: single-coset instances with q | N give one coset
    for N, q in [(15, 3), (15, 5), (12, 2), (12, 3), (30, 5)]:
        amb = cst.ModelAmbient(N, 2)
        subs = cst.enumerate_summands(amb, 2) if N <= 12 else None
        if subs is None:
            B = cst.ModelSubvariety(
                amb, ((1, 0, 0, 0), (0, 1, 0, 0))
            )
        else:
            B = subs[rng.randrange(len(subs))]
        a = amb.reduce(tuple(rng.randrange(N) for _ in range(4)))
        pts = {amb.add(a, b) for b in B.elements()}
        image = {amb.scale(q, x) for x in pts}
        bq = cst.torsion_count(B, q)
        checked += 1
        qa = amb.scale(q, a)
        qB = {amb.scale(q, b) for b in B.elements()}
        one_coset = image == {amb.add(qa, b) for b in qB}
        if not (
            len(image) == len(pts) // bq
            and one_coset
            and cst.degree_pushforward(1, B.dim, bq, q) * bq == q ** (2 * B.dim)
        ):
            violations += 1

    # closure operator properties on randomized subsets
    ambients = [
        (3, 1), (4, 1), (5, 1), (6, 1), (8, 1), (9, 1), (12, 1),
        (2, 2), (3, 2), (4, 2), (6, 2), (12, 2),
    ]
    for i in range(closure_cases):
        N, g = ambients[i % len(ambients)]
        amb = cst.ModelAmbient(N, g)
        c = rng.choice((1, 2, 3))
        size = rng.randrange(1, 4 if (N, g) == (12, 2) else 5)
        S = [tuple(rng.randrange(N) for _ in range(2 * g)) for _ in range(size)]
        comps = cst.special_closure(amb, S, c)
        pts = _closure_point_set(amb, comps, c)
        checked += 1
        ok = set(amb.reduce(s) for s in S) <= pts  # extensive
        again = cst.special_closure(amb, sorted(pts), c)
        ok = ok and _closure_point_set(amb, again, c) == pts  # idempotent
        bigger = cst.special_closure(amb, S + [amb.zero()], c)
        ok = ok and pts <= _closure_point_set(amb, bigger, c)  # monotone
        for l in range(2, N + 2):
            if gcd(l, N) == 1:
                ok = ok and {amb.scale(pow(l, c, N), x) for x in pts} == pts
        if not ok:
            violations += 1

    # witness sandwich on constructed instances
    for i in range(40):
        N, g = ambients[i % len(ambients)]
        amb = cst.ModelAmbient(N, g)
        c = rng.choice((1, 2))
        a = tuple(rng.randrange(N) for _ in range(2 * g))
        orbit = cst.lang_orbit(amb, a, c)
        extras = [tuple(rng.randrange(N) for _ in range(2 * g)) for _ in range(2)]
        V = set(orbit)
        for e in extras:
            V |= cst.lang_orbit(amb, e, c)
        wit = cst.keyprop_witness(amb, V, a, c, delta_cap=N ** (2 * g))
        block = _closure_point_set(amb, [cst.TorsionCoset(wit.alpha, wit.subgroup)], c)
        checked += 1
        if not (orbit <= block <= V and wit.within_cap):
            violations += 1

    return _result(8, "torsion-coset model", t0, violations, checked)


def _closure_point_set(amb, components, c):
    total = set()
    for comp in components:
        sub = comp.subgroup.elements()
        for o in cst.lang_orbit(amb, comp.point, c):
            for b in sub:
                total.add(amb.add(o, b))
    return total


ALL_CRITERIA = [
    (1, "jacobsthal exact + bounds", criterion_jacobsthal),
    (2, "minimal coprime shift exhaustive", criterion_coprime_shift),
    (3, "rosser-form prime bound", criterion_rosser),
    (4, "degree-bound consistency", criterion_bound_consistency),
    (5, "order-threshold soundness", criterion_threshold_soundness),
    (6, "orbit-density stabilizer bound", criterion_orbit_densities),
    (7, "idempotent lifting chains", criterion_idempotent_chains),
    (8, "torsion-coset model", criterion_torsion_model),
]


def run_criteria(indices=None, seed: int = 0, log=None) -> list[CheckResult]:
    out = []
    for idx, name, fn in ALL_CRITERIA:
        if indices and idx not in indices:
            continue
        res = fn(seed=seed)
        out.append(res)
        if log:
            log(res.line())
    return out
