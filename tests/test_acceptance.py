"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to watch the lines appear,
or via the CLI entry point ``torsionlab selftest`` (identical checks).
"""

import pytest

from torsionlab.selfcheck import ALL_CRITERIA


@pytest.mark.parametrize(
    "index,name,fn", ALL_CRITERIA, ids=[f"c{idx}_{name.replace(' ', '_')}" for idx, name, _ in ALL_CRITERIA]
)
def test_acceptance_criterion(index, name, fn):
    result = fn(seed=0)
    print(result.line(), flush=True)
    assert result.passed, result.line()



def test_threshold_sampler_doubling_matches_the_loop(monkeypatch):
    # the c5 harness lifts d to [T, 2T) by one shift and at most one doubling;
    # every d it draws must equal what `while d < T: d *= 2` gives
    import random

    from torsionlab import bounds as bnd
    from torsionlab import selfcheck as sc
    from torsionlab.integers import nth_prime

    doubled = []
    shift_and_double = sc._double_up_to

    def checked(d, T):
        ref = d
        while ref < T:
            ref *= 2
        assert shift_and_double(d, T) == ref
        doubled.append(ref != d)
        return ref

    monkeypatch.setattr(sc, "_double_up_to", checked)
    pool = [nth_prime(i) for i in range(1, 1300)]
    thresholds = [bnd.final_delta(bnd.BoundParams(D=D, Delta=2, c=c)) for D in (1, 4) for c in (1, 2)]
    samples = 0
    for seed in range(3):
        rng = random.Random(seed)
        thresholds.append(rng.getrandbits(rng.randrange(34, 22000)) | 1 << 33)
        for T in thresholds:
            for _ in range(40):
                d, _omega = sc._sample_d_with_omega(rng, T, pool)
                assert T <= d < 4 * T
                samples += 1
    assert len(doubled) == samples and 0 < sum(doubled) < samples


def test_definition_scan_matches_the_window_oracle():
    from oracles import jacobsthal_by_definition

    from torsionlab.selfcheck import _definition_scan

    for d in range(1, 3001):
        assert _definition_scan(d) == jacobsthal_by_definition(d), d
