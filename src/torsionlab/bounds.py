"""Explicit constants for the torsion-coset order threshold.

Everything flows from one degree-growth function

    f(D, d) = D^2 * (p(x)^c * g(d * max(1, p)))^(2*c*Delta),
    x = ceil(D^(1/4c)) + D + omega(d) + 1,

its iterates, the exponent pair (delta, delta') derived from them, and the
final sufficiency threshold for the coset order: every d above the threshold
satisfies

    d >= (omega(d)+1)^delta * (2*g(d))^delta'   and
    d >= D^delta * (2*g(d))^delta',

with g bounded by its Kanold form 2^omega.  The threshold returned by
``final_delta`` is *certified*: a primorial-growth argument bounds where
violations of the Kanold-form system can live, the region below a scan cap is
searched exhaustively, and the closed-form comparator is folded in by max.

All authoritative values are exact integers or Fractions; floats appear only
in advisory report fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import CapExceededError, InternalCheckError, ValidationError
from .integers import (
    FactoredInteger,
    factorize,
    jacobsthal,
    nth_prime,
    prime_index_at_least,
    prime_upper,
    primorial,
)
from .linalg import ceil_root, ceil_root_fraction, lcm

#: nth_prime is evaluated exactly up to this index; past it, iterated bounds
#: substitute the certified Rosser ceiling ``integers.prime_upper`` (always >=
#: the true prime).
EXACT_PRIME_INDEX_CAP = 10 ** 6

#: explicit set enumeration refuses to materialize more candidates than this
SIGMA_ENUMERATION_CAP = 10 ** 6

#: primorial tail scans give up after this many primes
TAIL_K_CAP = 10 ** 5

#: certified thresholds larger than this many bits are refused
THRESHOLD_BIT_BUDGET = 2 ** 21

#: violation regions up to this are scanned exhaustively (minimal threshold)
THRESHOLD_SCAN_CAP = 10 ** 6

#: alpha * omega^beta dominates the Kanold bound 2^omega up to the range
POWER_FORM_ALPHA = 2
POWER_FORM_BETA = 8
POWER_FORM_OMEGA_RANGE = 40


def _check_power_form(alpha: int, beta: int, omega_range: int) -> None:
    """Exact proof that alpha * w^beta >= 2^w for 1 <= w <= omega_range."""
    for w in range(1, omega_range + 1):
        if alpha * w ** beta < 2 ** w:
            raise InternalCheckError("alpha*omega^beta fails to dominate 2^omega at omega=%d" % w)


_check_power_form(POWER_FORM_ALPHA, POWER_FORM_BETA, POWER_FORM_OMEGA_RANGE)


@dataclass(frozen=True)
class BoundParams:
    """Inputs the threshold depends on.

    D: degree of the subvariety; Delta: its dimension; c: homothety-power
    exponent; d: order of the torsion coset; p: residue characteristic
    (0 for characteristic zero); eps_slack: the epsilon absorbed into the
    exponent constants (1/2 always suffices); linear_x: use the linear
    variant of x.
    """

    D: int
    Delta: int
    c: int
    d: int = 1
    p: int = 0
    eps_slack: Fraction = Fraction(1, 2)
    linear_x: bool = False

    def __post_init__(self):
        if self.D < 1 or self.c < 1 or self.d < 1:
            raise ValidationError("BoundParams requires D, c, d >= 1")
        if self.Delta < 0 or self.p < 0:
            raise ValidationError("BoundParams requires Delta, p >= 0")
        if self.p:
            fp = factorize(self.p)
            if fp.factors != ((self.p, 1),):
                raise ValidationError(
                    "p must be 0 or a prime (a residue characteristic), got %d" % self.p
                )
        object.__setattr__(self, "eps_slack", Fraction(self.eps_slack))
        if self.eps_slack <= 0:
            raise ValidationError("eps_slack must be positive")

    @property
    def d_factored(self) -> FactoredInteger:
        return factorize(self.d)

    # The constants below depend on the parameters alone; each is derived on
    # its first read and kept by this (frozen) object.

    @cached_property
    def exponents(self) -> tuple[Fraction, Fraction, Fraction]:
        """(lambda, delta, delta'): ``exponent_constants(Delta, c, eps_slack)``."""
        return exponent_constants(self.Delta, self.c, self.eps_slack)

    @cached_property
    def scaled_exponents(self) -> tuple[int, int, int]:
        """(L, delta*L, delta'*L), with L the least common denominator of delta
        and delta', so that every power of the certificate is an integer power."""
        _, delta, delta_prime = self.exponents
        L = lcm(delta.denominator, delta_prime.denominator)
        return L, int(delta * L), int(delta_prime * L)

    @cached_property
    def closed_form(self) -> int:
        """Ceiling of max{a'*b'^{b'}, a'^{b'/(b'-1)} * D^{delta*b'/(b'-1)}} with
        a' = alpha^{delta'} and b' = delta'*beta + delta, for the power-form
        constants alpha and beta."""
        _, delta, delta_prime = self.exponents
        if self.Delta == 0:
            return 1
        beta_prime = delta_prime * POWER_FORM_BETA + delta
        if beta_prime <= 1:
            raise ValidationError("closed form needs beta' > 1 (holds for Delta >= 1)")
        term1 = _ceil_power_product(
            [(POWER_FORM_ALPHA, delta_prime), (beta_prime, beta_prime)]
        )
        ratio = beta_prime / (beta_prime - 1)
        term2 = _ceil_power_product(
            [(POWER_FORM_ALPHA, delta_prime * ratio), (Fraction(self.D), delta * ratio)]
        )
        return max(term1, term2)


def x_value(params: BoundParams) -> int:
    """x = ceil(D^(1/4c)) + D + omega(d) + 1 (or the linear variant 2D + omega(d) + 1)."""
    w = params.d_factored.omega
    if params.linear_x:
        return 2 * params.D + w + 1
    return ceil_root(params.D, 4 * params.c) + params.D + w + 1


def _g_arg(params: BoundParams) -> int:
    return params.d * max(1, params.p)


def capital_n(params: BoundParams) -> int:
    """N = p(x)^c * g(d * max(1, p))."""
    return nth_prime(x_value(params)) ** params.c * jacobsthal(_g_arg(params))


def sigma_set(params: BoundParams) -> list[int]:
    """The set {m^c : 1 <= m <= N, gcd(m, d) = 1, p does not divide m}, sorted."""
    n_cap = capital_n(params)
    if n_cap > SIGMA_ENUMERATION_CAP:
        raise CapExceededError(
            "sigma_set needs to enumerate up to N=%d (cap %d)"
            % (n_cap, SIGMA_ENUMERATION_CAP),
            required=n_cap,
        )
    out = []
    for m in range(1, n_cap + 1):
        if gcd(m, params.d) != 1:
            continue
        if params.p > 0 and m % params.p == 0:
            continue
        out.append(m ** params.c)
    return out


def sigma_size(params: BoundParams) -> int:
    """|Sigma| without enumeration: inclusion-exclusion over the squarefree
    divisors of rad(d) (and p when positive)."""
    n_cap = capital_n(params)
    primes = [p for p, _ in params.d_factored.factors]
    if params.p > 0 and params.p not in primes:
        primes.append(params.p)
    total = 0
    for mask in range(1 << len(primes)):
        e = 1
        bits = 0
        for i, p in enumerate(primes):
            if mask >> i & 1:
                e *= p
                bits += 1
        total += (-1) ** bits * (n_cap // e)
    return total


def f_bound(params: BoundParams) -> int:
    """f(D, d) = D^2 * N^(2*c*Delta), evaluated exactly."""
    return params.D ** 2 * capital_n(params) ** (2 * params.c * params.Delta)


def iterated_f(params: BoundParams, i: int) -> int:
    """f_i(D): f_0 = D, f_{i+1} = f(f_i, d), with d held fixed.

    Past the exact sieve range the prime lookup falls back to the certified
    Rosser ceiling, which keeps every value an upper bound and keeps the
    sequence non-decreasing.

    Before each step, the bit lengths of f_i and g give a lower bound on the
    bit length of f_{i+1}: each factor is at least 2^(bitlen - 1), and
    n >= x > f_i.  An iterate that bound puts past ``THRESHOLD_BIT_BUDGET`` is
    refused before x (a root of f_i) or its power is computed.
    """
    if i < 0 or i > params.Delta:
        raise ValidationError("iterate index must satisfy 0 <= i <= Delta")
    w = params.d_factored.omega
    g = jacobsthal(_g_arg(params))
    e = 2 * params.c * params.Delta
    val = params.D
    for step in range(1, i + 1):
        b = val.bit_length() - 1
        min_bits = 2 * b + e * (params.c * b + g.bit_length() - 1) + 1
        if min_bits > THRESHOLD_BIT_BUDGET:
            raise CapExceededError(
                "iterate f_%d exceeds the %d-bit budget" % (step, THRESHOLD_BIT_BUDGET),
                required=min_bits,
            )
        if params.linear_x:
            x = 2 * val + w + 1
        else:
            x = ceil_root(val, 4 * params.c) + val + w + 1
        n = nth_prime(x) if x <= EXACT_PRIME_INDEX_CAP else prime_upper(x)
        val = val ** 2 * (n ** params.c * g) ** e
    return val


def exponent_constants(Delta: int, c: int, eps) -> tuple[Fraction, Fraction, Fraction]:
    """(lambda, delta, delta') = (c^2*(Delta^2-Delta)/2*(1+eps), 2^Delta*(1+lambda), 2^Delta*lambda/c)."""
    if Delta < 0 or c < 1:
        raise ValidationError("exponent_constants requires Delta >= 0, c >= 1")
    eps = Fraction(eps)
    if eps <= 0:
        raise ValidationError("eps must be positive")
    lam = Fraction(c ** 2) * Fraction(Delta ** 2 - Delta, 2) * (1 + eps)
    delta = Fraction(2) ** Delta * (1 + lam)
    delta_prime = Fraction(2) ** Delta * lam / c
    return lam, delta, delta_prime


def _ceil_power_product(bases_exps: list[tuple[Fraction, Fraction]]) -> int:
    """Exact ceiling of a product of positive rational powers prod b_i^{e_i}."""
    L = 1
    for _, e in bases_exps:
        L = lcm(L, e.denominator)
    prod = Fraction(1)
    for b, e in bases_exps:
        prod *= Fraction(b) ** int(e * L)
    return ceil_root_fraction(prod.numerator, prod.denominator, L)


def closed_form_threshold(params: BoundParams) -> int:
    """The closed-form comparator ``BoundParams.closed_form``."""
    return params.closed_form


def _scaled_exponents(params: BoundParams) -> tuple[int, int, int]:
    """``BoundParams.scaled_exponents``: (L, delta*L, delta'*L)."""
    return params.scaled_exponents


def _kanold_rhs_powL(k: int, D: int, dL: int, dpL: int) -> int:
    """R_k^L where R_k = max(k+1, D)^delta * 2^((k+1)*delta') bounds the
    right-hand side of both inequalities for any d with omega(d) = k; dL and
    dpL are delta*L and delta'*L."""
    return max(k + 1, D) ** dL << (k + 1) * dpL


def _budget_error() -> CapExceededError:
    return CapExceededError(
        "threshold certificate exceeds the %d-bit budget" % THRESHOLD_BIT_BUDGET
    )


def _violation_region(params: BoundParams) -> tuple[int, int]:
    """Where the Kanold-form system can fail, located without building R_k.

    Violations with omega(d) = k require primorial(k) <= d < R_k, and once
    primorials outgrow R_k they stay ahead because consecutive-prime ratios
    beat the R-ratio 2^delta' * e: the scan stops at the first class k where
    primorial(k) >= R_k and that lock holds.  Write R_k^L = a * 2^e with
    a = max(k+1, D)^(delta*L) small and e = (k+1)*delta'*L.  Then
    primorial^L < R_k^L exactly when (primorial^L >> e) < a, and
    bitlen(R_k^L) = bitlen(a) + e, so neither the violation test nor the bit
    budget needs R_k itself.

    Before the scan, a binary search over the same bit lengths finds the
    least k <= TAIL_K_CAP whose R_k breaks the budget, k_over; the bit length
    is nondecreasing in k, so the scan is refused exactly when it reaches
    k_over.

    The scan over k = 0, 1, 2, ... can end only at a class that locks, or at
    a refusal: at the first k over the bit budget, or at TAIL_K_CAP.  Both
    ``locks(k)`` (a lower bound on k and one on p_(k+1)) and the bit length
    of R_k^L are nondecreasing in k.  So no class below

        k_lock = min(least k with locks(k), least k over budget, TAIL_K_CAP)

    ends the scan or is refused, and the scan reaches k_lock whatever those
    classes hold.  When k_lock = k_over (no class below k_over locks), the
    refusal is raised at once, before any primorial is built.  k_lock is read
    off the prime sieve, which grows no further than the scan from k = 0
    would grow it, and the scan starts there, with primorial(k_lock)^L built
    once by a product tree.  A class below k_lock
    matters only as the last violating class, that is when nothing at or
    above k_lock violates; the scan then stops at k_lock itself (it locks and
    does not violate), and only then are the classes below searched,
    downward from k_lock - 1, for the first that violates.  Answers,
    refusals and their order are those of the scan from k = 0.

    Returns (upper, k_end): ``upper`` is a certified integer above every
    violating d (1 if none exist), the ceiling of R_k at the last violating k,
    since R_k is nondecreasing in k; ``k_end`` is the class the scan stopped
    at, and no d of a larger omega can violate.
    """
    L, dL, dpL = _scaled_exponents(params)
    D = params.D
    budget = THRESHOLD_BIT_BUDGET * L
    prime_floor = 3 * 2 ** -(-dpL // L)  # >= e * 2^delta', locks the induction
    k_floor = max(0, -(-dL // L) - 1)  # least k with (k+1)*L >= delta*L

    def bits(k: int) -> int:
        return (max(k + 1, D) ** dL).bit_length() + (k + 1) * dpL

    def locks(k: int) -> bool:
        return k >= k_floor and nth_prime(k + 1) >= prime_floor

    def violates(k: int, primorial_L: int) -> bool:
        return primorial_L >> (k + 1) * dpL < max(k + 1, D) ** dL

    k_over = TAIL_K_CAP + 1  # the least k over the budget, when one is <= TAIL_K_CAP
    if bits(TAIL_K_CAP) > budget:
        lo, hi = 0, TAIL_K_CAP
        while lo < hi:
            mid = (lo + hi) // 2
            if bits(mid) > budget:
                hi = mid
            else:
                lo = mid + 1
        k_over = lo
    k = min(k_over, TAIL_K_CAP)
    if k_floor < k:
        k = max(k_floor, prime_index_at_least(prime_floor, k) - 1)
    if k == k_over:
        raise _budget_error()
    primorial_L = primorial(k) ** L
    last_bad = -1
    while True:
        if violates(k, primorial_L):
            last_bad = k
        elif locks(k):
            break
        if k >= TAIL_K_CAP:
            raise CapExceededError(
                "primorial tail scan exceeded %d primes" % TAIL_K_CAP, required=k
            )
        k += 1
        if k == k_over:
            raise _budget_error()
        primorial_L *= nth_prime(k) ** L
    below = k
    while last_bad < 0 and below > 0:
        primorial_L //= nth_prime(below) ** L
        below -= 1
        if violates(below, primorial_L):
            last_bad = below
    if last_bad < 0:
        return 1, k
    return ceil_root_fraction(_kanold_rhs_powL(last_bad, D, dL, dpL), 1, L), k


def final_delta(params: BoundParams) -> int:
    """A verified order threshold: every d at or above it satisfies both
    Kanold-form inequalities, and the closed-form comparator is folded in.

    ``_violation_region`` certifies the violation region by shift-compares and
    refuses an over-budget region before its first big multiply.  When the
    region fits under ``THRESHOLD_SCAN_CAP`` it is scanned exhaustively and the
    threshold is the exact minimal one; the scan builds R_k^L on demand for the
    few omega-classes below the cap (omega <= 7).  Otherwise the certificate's
    upper end is used directly (sufficient, not minimal).
    """
    if params.Delta == 0:
        return 1
    upper, k_end = _violation_region(params)
    if upper <= THRESHOLD_SCAN_CAP:
        L, dL, dpL = _scaled_exponents(params)
        rhs = {}
        last_bad = 0
        for d in range(1, upper):
            k = factorize(d).omega
            if k <= k_end:
                if k not in rhs:
                    rhs[k] = _kanold_rhs_powL(k, params.D, dL, dpL)
                if d ** L < rhs[k]:
                    last_bad = d
        searched = last_bad + 1
    else:
        searched = upper
    return max(searched, closed_form_threshold(params))


def threshold_inequalities_hold(d_value: int, omega: int, params: BoundParams) -> bool:
    """Exact check of both Kanold-form inequalities for a d of known omega."""
    L, dL, dpL = _scaled_exponents(params)
    lhs = d_value ** L
    two_pow = 2 ** ((omega + 1) * dpL)
    return lhs >= (omega + 1) ** dL * two_pow and lhs >= params.D ** dL * two_pow


@dataclass(frozen=True)
class BoundReport:
    """The full constant ledger for one parameter set."""

    params: BoundParams
    x: int
    n: int
    N: int
    sigma_size: int
    f_value: int
    f_iterates: tuple[int, ...]
    lam: Fraction
    delta_exp: Fraction
    delta_prime_exp: Fraction
    alpha_prime: float
    beta_prime: Fraction
    closed_form: int
    final_delta: int

    def to_json_dict(self) -> dict:
        from .jsonio import encode_int

        return {
            "D": self.params.D,
            "Delta": self.params.Delta,
            "c": self.params.c,
            "d": self.params.d,
            "p": self.params.p,
            "eps": [self.params.eps_slack.numerator, self.params.eps_slack.denominator],
            "x": self.x,
            "n": self.n,
            "N": encode_int(self.N),
            "sigma_size": encode_int(self.sigma_size),
            "f_value": encode_int(self.f_value),
            "f_iterates": [encode_int(v) for v in self.f_iterates],
            "lambda": [self.lam.numerator, self.lam.denominator],
            "delta": [self.delta_exp.numerator, self.delta_exp.denominator],
            "delta_prime": [
                self.delta_prime_exp.numerator,
                self.delta_prime_exp.denominator,
            ],
            "alpha_prime": self.alpha_prime,
            "beta_prime": [self.beta_prime.numerator, self.beta_prime.denominator],
            "closed_form": encode_int(self.closed_form),
            "final_delta": encode_int(self.final_delta),
        }


def bound_report(params: BoundParams) -> BoundReport:
    """Assemble every constant for one parameter set."""
    lam, delta, delta_prime = params.exponents
    x = x_value(params)
    n = nth_prime(x)
    N = capital_n(params)
    iterates = tuple(iterated_f(params, i) for i in range(params.Delta + 1))
    beta_prime = delta_prime * POWER_FORM_BETA + delta
    return BoundReport(
        params=params,
        x=x,
        n=n,
        N=N,
        sigma_size=sigma_size(params),
        f_value=f_bound(params),
        f_iterates=iterates,
        lam=lam,
        delta_exp=delta,
        delta_prime_exp=delta_prime,
        alpha_prime=float(POWER_FORM_ALPHA) ** float(delta_prime),
        beta_prime=beta_prime,
        closed_form=closed_form_threshold(params),
        final_delta=final_delta(params),
    )
