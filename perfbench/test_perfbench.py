"""Tests of the benchmark's own code.  Run from the checkout root:

    python3 -m pytest -q perfbench
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

def request_digest(name, seed):
    wl = worker.make_workload(name)
    return worker.sha256(workloads.dumps(wl.generate(seed)))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_request_list_depends_on_seed_only(name):
    assert request_digest(name, 3) == request_digest(name, 3)
    assert request_digest(name, 3) != request_digest(name, 4)


@pytest.mark.parametrize("seed", [0, 1])
def test_finite_models_hold_the_fixed_mid_sized_groups(seed):
    import checks
    import gen

    reqs = worker.make_workload("finite-models").generate(seed)
    orders = [(r["ell"], checks.closure_order(r["gens"], r["ell"], gen.GROUP_CAP))
              for r in reqs if r["kind"] == "orbit_density" and r["dim"] == 3 and r["ell"] > 2]
    mid = [(ell, order) for ell, order in orders if order is not None and order > 24]
    assert sorted(mid) == sorted(gen.MID_GROUPS)


def shape(req):
    """The fields of a request that set its cost class (see gen's docstring)."""
    out = [str(req.get(k)) for k in ("kind", "ell", "dim", "g", "c", "M", "B", "D", "Delta")]
    n = req.get("N")
    out += [str(sorted(n) if isinstance(n, list) else n), len(req.get("gens", ()))]
    if req["kind"] == "cli":
        formatted = req["argv"][0] == "--format"
        out += [formatted, req["argv"][2 if formatted else 0]]
    return tuple(out)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_seed_changes_values_not_shapes(name):
    wl = worker.make_workload(name)
    assert sorted(map(shape, wl.generate(1))) == sorted(map(shape, wl.generate(2)))


def sample(wl, per_kind=2):
    """A few requests of each kind, cheapest first."""
    out, seen = [], {}
    for req in wl.requests:
        if seen.get(req["kind"], 0) < per_kind:
            seen[req["kind"]] = seen.get(req["kind"], 0) + 1
            out.append(req)
    return out


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tracer_leaves_answers_unchanged(name):
    wl = worker.make_workload(name)
    wl.setup(0)
    reqs = sample(wl)
    plain = [workloads.dumps(wl.execute(r)) for r in reqs]
    tr = tracer.Tracer()
    tr.install()
    try:
        traced = [workloads.dumps(wl.execute(r)) for r in reqs]
    finally:
        tr.uninstall()
    after = [workloads.dumps(wl.execute(r)) for r in reqs]
    assert traced == plain == after
    assert not tr.missing
    assert sum(tr.calls.values()) > 0


def test_uninstall_restores_every_binding():
    from torsionlab import bounds, cosets, glorbits, integers

    before = (integers.factorize, bounds.factorize, cosets.factorize,
              cosets.smith_normal_form, glorbits.Subspace.__dict__["contains"])
    tr = tracer.Tracer()
    tr.install()
    assert bounds.factorize is not before[1] and bounds.factorize is integers.factorize
    tr.uninstall()
    after = (integers.factorize, bounds.factorize, cosets.factorize,
             cosets.smith_normal_form, glorbits.Subspace.__dict__["contains"])
    assert after == before


def test_self_time_excludes_child_spans():
    from torsionlab import bounds

    tr = tracer.Tracer()
    tr.install()
    t0 = time.perf_counter()
    try:
        bounds.bound_report(bounds.BoundParams(D=3, Delta=2, c=1))
    finally:
        wall = time.perf_counter() - t0
        tr.uninstall()
    assert sum(tr.self_s.values()) <= wall
    assert tr.self_s["bounds.final_delta"] > 0
    assert tr.calls["bounds.final_delta"] == 1
    assert tr.calls["integers.nth_prime"] > 0  # reached through bounds' own binding


class PlantedWrongAnswer(workloads.Thresholds):
    """The thresholds workload on a short list, with one answer corrupted."""

    def generate(self, seed):
        return [r for r in super().generate(seed) if r["kind"] == "jacobsthal"][:4]

    def execute(self, req):
        out = super().execute(req)
        if req is self.requests[1]:
            out = {"g": out["g"] + 1}
        return out


def test_wrong_answer_counts_as_failure():
    res = worker.measure(PlantedWrongAnswer(), seed=0, seconds=0, trace=0, t0=0.0)
    assert list(res["failures"]) == ["1"]
    metrics = run.end_to_end(res, [1.0])
    assert metrics["success_rate"] == pytest.approx(3 / 4)
    assert len(res["latency_s"]) == 3


def test_edge_inputs_are_named_once():
    import gen

    names = [name for name, _, _ in gen.EDGE_CASES]
    assert len(names) == len(set(names)) == 11


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == run.WORKLOADS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_specs()


def test_tail_rank_leaves_ten_samples():
    assert run.tail_rank(1000) == (99.0, 990)
    assert run.tail_rank(100) == (90.0, 90)
    assert run.tail_rank(40) == (75.0, 30)
    assert run.tail_rank(12)[1] == 7  # fewer than twenty: just above the median
