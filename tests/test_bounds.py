import hashlib
import math
import signal
from fractions import Fraction

import pytest

from torsionlab.bounds import (
    BoundParams,
    bound_report,
    capital_n,
    closed_form_threshold,
    exponent_constants,
    f_bound,
    final_delta,
    iterated_f,
    sigma_set,
    sigma_size,
    threshold_inequalities_hold,
    x_value,
)
from torsionlab import bounds, integers
from torsionlab.errors import CapExceededError, InternalCheckError, ValidationError
from torsionlab.integers import factorize, jacobsthal, nth_prime

from oracles import final_delta_by_rk_list, nth_prime_by_sieve, violation_region_by_class_scan


def P(D, Delta, c, d=1, p=0, **kw):
    return BoundParams(D=D, Delta=Delta, c=c, d=d, p=p, **kw)


# --- x, N, Sigma -------------------------------------------------------------


def test_x_value_examples():
    assert x_value(P(1, 1, 1, d=1)) == 3
    assert x_value(P(16, 1, 1, d=6)) == 21
    assert x_value(P(2, 1, 2, d=2)) == 6


def test_x_value_linear_variant():
    assert x_value(P(16, 1, 1, d=6, linear_x=True)) == 2 * 16 + 2 + 1


def test_capital_n_examples():
    assert capital_n(P(1, 1, 1)) == 5          # p(3) * g(1)
    assert capital_n(P(1, 1, 1, p=2)) == 10     # p(3) * g(2)
    assert capital_n(P(1, 1, 2)) == 25          # p(3)^2 * g(1)


def test_sigma_set_examples():
    assert sigma_set(P(1, 1, 1)) == [1, 2, 3, 4, 5]
    # d=2: x = 1+1+1+1 = 4, N = p(4)*g(2) = 7*2 = 14, odd m up to 14
    assert sigma_set(P(1, 1, 1, d=2)) == [1, 3, 5, 7, 9, 11, 13]
    assert sigma_set(P(1, 1, 2, p=2)) == [m ** 2 for m in range(1, 51) if m % 2]


def test_sigma_set_cap(monkeypatch):
    monkeypatch.setattr(bounds, "SIGMA_ENUMERATION_CAP", 100)
    with pytest.raises(CapExceededError) as exc:
        sigma_set(P(50, 3, 3, d=30))
    assert exc.value.required is not None and exc.value.required > 100


def test_sigma_properties():
    for params in [P(3, 1, 2, d=6), P(2, 2, 1, d=10, p=3), P(5, 1, 1, d=4, p=2)]:
        elems = sigma_set(params)
        assert len(set(elems)) == len(elems) == sigma_size(params)
        for v in elems:
            # each element is a c-th power of an admissible m
            m = round(v ** (1.0 / params.c))
            m = next(mm for mm in (m - 1, m, m + 1) if mm ** params.c == v)
            assert math.gcd(m, params.d) == 1
            if params.p:
                assert m % params.p != 0


# --- f and its iterates -------------------------------------------------------


def test_f_bound_examples():
    assert f_bound(P(1, 1, 1)) == 25
    assert f_bound(P(1, 0, 1)) == 1
    assert f_bound(P(2, 1, 1)) == 484  # 4 * p(5)^2 = 4 * 121


def test_f_bound_equals_lemma_form():
    for D in (1, 2, 7, 20):
        for d in (1, 6, 30):
            for Delta in (0, 1, 2):
                for c in (1, 2):
                    params = P(D, Delta, c, d=d)
                    assert f_bound(params) == D ** 2 * capital_n(params) ** (
                        2 * c * Delta
                    )


def test_iterated_f_base_and_first():
    params = P(1, 1, 1)
    assert iterated_f(params, 0) == 1
    assert iterated_f(params, 1) == f_bound(params) == 25


def test_iterated_f_two_steps_cross_checked():
    params = P(1, 2, 1)
    # hand evaluation: f1 = 1 * (p(3)*g(1))^(2*1*2) = 5^4 = 625
    f1 = iterated_f(params, 1)
    assert f1 == 625
    # f2 = 625^2 * (p(ceil(625^(1/4)) + 625 + 0 + 1) * g(1))^4 = 625^2 * p(631)^4
    p631 = nth_prime_by_sieve(631)
    assert iterated_f(params, 2) == 625 ** 2 * p631 ** 4


def test_iterated_f_rejects_beyond_delta():
    with pytest.raises(ValidationError):
        iterated_f(P(1, 1, 1), 2)


def test_iterates_nondecreasing_small_grid():
    for D in (1, 3, 12):
        for d in (1, 6, 10):
            for Delta in (1, 2):
                for c in (1, 2):
                    params = P(D, Delta, c, d=d)
                    seq = [iterated_f(params, i) for i in range(Delta + 1)]
                    assert seq[0] == D
                    assert all(a <= b for a, b in zip(seq, seq[1:]))


def test_f_monotone_via_omega_g_order():
    # f is monotone in D, Delta, c directly, and in d through (omega, g);
    # literal d-monotonicity is false (omega drops from 6 to 7).
    ds = [1, 2, 6, 7, 10, 12]
    keyed = {
        d: (factorize(d).omega, jacobsthal(factorize(d).radical)) for d in ds
    }
    for c in (1, 2):
        for Delta in (1, 2):
            for D1, D2 in [(1, 2), (2, 10)]:
                assert f_bound(P(D1, Delta, c)) <= f_bound(P(D2, Delta, c))
            for d1 in ds:
                for d2 in ds:
                    k1, k2 = keyed[d1], keyed[d2]
                    if k1[0] <= k2[0] and k1[1] <= k2[1]:
                        assert f_bound(P(5, Delta, c, d=d1)) <= f_bound(
                            P(5, Delta, c, d=d2)
                        )


# --- exponent constants -------------------------------------------------------


def test_exponent_constants_examples():
    assert exponent_constants(1, 1, Fraction(1, 2)) == (0, 2, 0)
    lam, delta, dp = exponent_constants(2, 1, Fraction(1, 2))
    assert (lam, delta, dp) == (Fraction(3, 2), 10, 6)
    assert exponent_constants(0, 3, Fraction(1, 2)) == (0, 1, 0)


def test_exponent_constants_exact_rationals():
    lam, delta, dp = exponent_constants(2, 1, Fraction(1, 3))
    assert lam == Fraction(4, 3)
    assert delta == Fraction(28, 3)
    assert dp == Fraction(16, 3)


# --- final threshold ----------------------------------------------------------


def test_final_delta_trivial_dimension():
    assert final_delta(P(1, 0, 1)) == 1


def test_final_delta_delta1_exact_scan():
    # delta = 2, delta' = 0: system is d >= (omega(d)+1)^2 and d >= D^2.
    # Violations: d in {2,3,6} for the first, d < D^2 for the second.
    # closed form at D=1 is max{2^2, 1} = 4, so the scan's 7 wins.
    assert final_delta(P(1, 1, 1)) == 7
    # D=3: last violation max(6, 8) -> searched 9; closed form 3^4 = 81 wins
    assert closed_form_threshold(P(3, 1, 1)) == 81
    assert final_delta(P(3, 1, 1)) == 81


def test_closed_form_examples():
    assert closed_form_threshold(P(1, 1, 1)) == 4
    # alpha'=2^6=64, beta'=58 at (Delta, c) = (2, 1) with defaults
    t = closed_form_threshold(P(2, 2, 1))
    assert t == 64 * 58 ** 58 or t > 10 ** 100  # dominated by the first term
    assert t >= 64 * 58 ** 58


def test_closed_form_threshold_with_a_large_root():
    # a 1195-th root of a number of about 500k bits inside; the digest pins
    # the value an unseeded Newton iteration computed in about 30 s
    t = closed_form_threshold(P(2, 3, 3))
    assert t.bit_length() == 12336
    assert hashlib.sha256(b"%x" % t).hexdigest() == (
        "2db1bfa1d657b7a709ef1a115b7cf7ccfb6526baa9cdae80a5b20a31ba9ff378"
    )


def test_final_delta_soundness_small():
    params = P(1, 1, 1)
    t = final_delta(params)
    for d in range(t, 10 * t + 1):
        assert threshold_inequalities_hold(d, factorize(d).omega, params)
    # the last value below the searched threshold must violate (minimality)
    assert not threshold_inequalities_hold(6, factorize(6).omega, params)


def test_final_delta_regression_pin_2_2_1():
    # Certified threshold for (D, Delta, c) = (2, 2, 1); pinned after the
    # first verified run.  162-digit integer: the certificate's upper end.
    v = final_delta(P(2, 2, 1))
    assert v == final_delta(P(2, 2, 1))  # deterministic
    digits = str(v)
    assert (digits[:12], len(digits), v.bit_length()) == ("461837142733", 162, 538)


# every shape the R_k-list reference finishes in well under a second: the
# 24 shapes (D, 2, 2) with eps of 1/3 or 2/5 take it 2 to 12 s each
# (L = 3 and 5), and at Delta = 2, c = 3 it keeps tens of thousands of R_k
FINAL_DELTA_GRID = [
    (D, Delta, c, eps)
    for D in range(1, 13)
    for Delta in range(3)
    for c in range(1, 4)
    for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5))
    if Delta < 2 or c == 1 or (c, eps) == (2, Fraction(1, 2))
]


def test_final_delta_matches_the_rk_list_reference():
    assert len(FINAL_DELTA_GRID) == 264
    for D, Delta, c, eps in FINAL_DELTA_GRID:
        params = P(D, Delta, c, eps_slack=eps)
        assert final_delta(params) == final_delta_by_rk_list(params), (D, Delta, c, eps)


def _outcome(fn, params):
    try:
        return fn(params)
    except CapExceededError as exc:
        return str(exc), exc.required


@pytest.mark.parametrize("budget", [64, 4096, 1 << 16])
def test_final_delta_refusals_match_the_rk_list_reference(monkeypatch, budget):
    # under small budgets the pre-check refuses where the reference's loop
    # reaches its budget refusal, with the same message, and answers agree
    import oracles

    monkeypatch.setattr(bounds, "THRESHOLD_BIT_BUDGET", budget)
    monkeypatch.setattr(oracles, "THRESHOLD_BIT_BUDGET", budget)
    for D in (1, 10):
        for Delta in (2, 3):
            for c in (1, 2, 3):
                params = P(D, Delta, c)
                assert _outcome(final_delta, params) == _outcome(final_delta_by_rk_list, params)


def test_over_budget_region_is_refused_before_the_loop(monkeypatch):
    # (2, 3, 3) breaks the budget near k = 19 000, where the lock prime 3 * 2^108
    # is out of reach: one sieve query for the lock prime, no class scanned,
    # no primorial
    calls = []
    for name in ("nth_prime", "prime_index_at_least", "primorial"):
        fn = getattr(bounds, name)
        monkeypatch.setattr(bounds, name,
                            lambda *a, name=name, fn=fn: calls.append(name) or fn(*a))
    with pytest.raises(CapExceededError, match="2097152-bit budget"):
        final_delta(P(2, 3, 3))
    assert calls == ["prime_index_at_least"]


def test_final_delta_pin_10_2_2():
    # the violation region's upper end at k = 1724 (delta' = 12)
    v = final_delta(P(10, 2, 2))
    assert v.bit_length() == 21002
    assert hashlib.sha256(b"%x" % v).hexdigest() == (
        "114544c514e04f46d599051aced1b71f46466262ce579a2d148c1e248098b839"
    )


def test_final_delta_pin_1_2_3():
    # the violation region's upper end at k = 63471 (delta' = 18), recorded
    # before the scan started at the first class that can lock
    v = final_delta(P(1, 2, 3))
    assert v.bit_length() == 1143422
    assert hashlib.sha256(b"%x" % v).hexdigest() == (
        "1d94e5315bb6aef0c96fba54cb2b4c5073c32a248e9f7fd2c391fb1e6fa62140"
    )


# --- the violation region against the class-by-class scan --------------------


class _OverTime(Exception):
    pass


def _region_outcome(fn, params):
    try:
        return ("answer",) + fn(params)
    except CapExceededError as exc:
        return type(exc).__name__, str(exc), exc.required


def _reference_outcome(params, cpu_seconds):
    """The class scan's outcome, or None once it has run for cpu_seconds."""
    def expire(signum, frame):
        raise _OverTime

    previous = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, cpu_seconds)
    try:
        return _region_outcome(violation_region_by_class_scan, params)
    except _OverTime:
        return None
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def _compare_regions(Ds, cpu_seconds=0.25):
    """Compare on D in Ds, Delta 0..4, c 1..3 and three eps; the shapes the
    reference cannot finish in cpu_seconds (it scans one class at a time)
    are not compared.  R_k grows with D, so the reference scans at least as
    many classes at a larger D, and is not run there once it has run out of
    time.  Returns the outcomes compared."""
    outcomes = []
    for Delta in range(5):
        for c in (1, 2, 3):
            for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(1)):
                for D in sorted(Ds):
                    params = P(D, Delta, c, eps_slack=eps)
                    expected = _reference_outcome(params, cpu_seconds)
                    if expected is None:
                        break
                    got = _region_outcome(bounds._violation_region, params)
                    assert got == expected, (D, Delta, c, eps)
                    outcomes.append(expected)
    return outcomes


def test_violation_region_matches_the_class_scan():
    outcomes = _compare_regions(range(1, 13))
    # only (D, 2, 3, 1/2), 63 472 classes, is too slow for the reference; the
    # next slowest take about 0.1 CPU s on a 2-vCPU VM
    assert len(outcomes) >= 540 - 12
    assert {o[0] for o in outcomes} == {"answer", "CapExceededError"}
    # Delta = 0 at D = 2 violates only below the first class that locks
    assert bounds._violation_region(P(2, 0, 1)) == (2, 1)


def test_violation_region_refusals_match_the_class_scan(monkeypatch):
    # small caps send shapes to every exit: the refusal before the scan
    # (budget or tail cap below the first lock), the budget and the tail cap
    # met inside the scan, and answers; under a 1-bit budget, (1, 0, c) is
    # refused at its first lock (k = 1), which does not violate
    import oracles

    messages = set()
    for budget, tail_cap in [(1, 100000), (64, 100000), (512, 100000), (1 << 16, 100000),
                             (1 << 21, 10), (1 << 21, 60), (4096, 1000)]:
        for module in (bounds, oracles):
            monkeypatch.setattr(module, "THRESHOLD_BIT_BUDGET", budget)
            monkeypatch.setattr(module, "TAIL_K_CAP", tail_cap)
        messages.update(o[1] if o[0] != "answer" else "answer"
                        for o in _compare_regions((1, 2, 5, 12)))
    assert "answer" in messages
    assert any(m.endswith("-bit budget") for m in messages)
    assert {"primorial tail scan exceeded 10 primes",
            "primorial tail scan exceeded 60 primes"} <= messages


@pytest.mark.parametrize("shape", [(10, 2, 2, Fraction(1, 2)), (1, 2, 3, Fraction(1, 3)),
                                   (1, 2, 1, Fraction(1)), (2, 0, 1, Fraction(1, 2)),
                                   (2, 3, 3, Fraction(1, 2))])
def test_violation_region_sieves_no_further_than_the_class_scan(monkeypatch, shape):
    limits = []
    for fn in (violation_region_by_class_scan, bounds._violation_region):
        monkeypatch.setattr(integers, "_PRIMES", [2, 3, 5, 7, 11, 13])
        monkeypatch.setattr(integers, "_SIEVE_LIMIT", 14)
        _region_outcome(fn, P(*shape[:3], eps_slack=shape[3]))
        limits.append(integers._SIEVE_LIMIT)
    assert limits[1] <= limits[0]


def test_iterate_past_the_bit_budget_is_refused_before_it_is_built():
    # f_3 at (2, 4, 3) has 1 429 772 bits, so f_4 has at least twice that
    params = P(2, 4, 3)
    assert iterated_f(params, 3).bit_length() == 1429772
    with pytest.raises(CapExceededError, match="f_4 exceeds the 2097152-bit budget") as exc:
        iterated_f(params, 4)
    assert exc.value.required > bounds.THRESHOLD_BIT_BUDGET


def test_power_form_check():
    with pytest.raises(InternalCheckError):
        bounds._check_power_form(1, 1, 40)
    # 2 * 44^8 >= 2^44 but 2 * 45^8 < 2^45
    bounds._check_power_form(2, 8, 44)
    with pytest.raises(InternalCheckError, match="omega=45"):
        bounds._check_power_form(2, 8, 45)
    bounds._check_power_form(
        bounds.POWER_FORM_ALPHA, bounds.POWER_FORM_BETA, bounds.POWER_FORM_OMEGA_RANGE
    )


def test_bound_params_rejects_composite_characteristic():
    with pytest.raises(ValidationError):
        BoundParams(D=1, Delta=1, c=1, p=4)
    # prime characteristics and zero pass
    BoundParams(D=1, Delta=1, c=1, p=0)
    BoundParams(D=1, Delta=1, c=1, p=7)


def test_certificate_needed_beyond_closed_form():
    # the closed-form comparator alone is NOT a sufficient threshold for the
    # Kanold-form system: a primorial-heavy d above it still violates, while
    # the certified threshold survives the same adversary
    params = P(10, 2, 1)
    cf = closed_form_threshold(params)
    T = final_delta(params)
    assert T > cf
    k = 48
    primorial = 1
    for i in range(1, k + 1):
        primorial *= nth_prime(i)
    d = primorial
    while d < cf:
        d *= 2
    assert not threshold_inequalities_hold(d, k, params)
    d_t = primorial
    while d_t < T:
        d_t *= 2
    assert threshold_inequalities_hold(d_t, k, params)


def test_bound_report_fields():
    rep = bound_report(P(1, 1, 1))
    assert rep.x == 3 and rep.n == 5 and rep.N == 5
    assert rep.f_iterates == (1, 25)
    assert rep.f_value == 25
    assert rep.sigma_size == 5
    assert rep.lam == 0 and rep.delta_exp == 2 and rep.delta_prime_exp == 0
    assert rep.final_delta == 7
    d = rep.to_json_dict()
    assert d["final_delta"] == 7 and d["lambda"] == [0, 1]


def test_report_n_equals_nth_prime_of_x():
    for params in [P(4, 1, 1, d=6), P(2, 2, 2, d=10)]:
        rep = bound_report(params)
        assert rep.n == nth_prime(rep.x)
        assert list(rep.f_iterates) == sorted(rep.f_iterates)
        assert rep.f_iterates[0] == params.D
