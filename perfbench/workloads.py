"""The two workloads: how each builds its requests, warms up, runs a request
and checks an answer; and the edge slice of inputs that must fail fast.

finite-models is one request family.  exact-arithmetic runs two families in
one list, the idempotent lifts of IdempotentLift and the big-integer
requests of Thresholds; its per-kind p50 metrics keep them apart.

In-process workloads call torsionlab through module attributes (``glo.orbit``,
never a name imported from a module), so that the tracer's wrappers, which
rebind those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import checks
import gen

#: spans the tracer must see at least once on each workload (the layer table)
EXPECTED_SPANS = {
    "finite-models": [
        "glorbits.generate_group", "glorbits.all_subspaces", "glorbits.orbit",
        "glorbits.verify_bound", "glorbits.extremal_subspace", "glorbits.stabilizer",
        "glorbits.Subspace.contains", "cosets.enumerate_summands", "cosets.ModelSubvariety.init",
        "cosets.special_closure", "cosets.keyprop_witness", "cosets.lang_orbit",
        "linalg.smith_normal_form", "integers.factorize",
    ],
    "exact-arithmetic": [
        "algebras.Representation.init", "algebras.AlgebraEmbedding.init",
        "algebras.standard_representation", "algebras.lift_idempotent",
        "algebras.lift_idempotent_central", "algebras.ideal_membership_mod_pi",
        "algebras.right_ideal_generator", "linalg.rref", "linalg.solve", "linalg.span_intersect",
        "integers.factorize", "integers.jacobsthal", "integers.nth_prime",
        "integers.minimal_coprime_shift", "bounds.BoundParams.init", "bounds.bound_report",
        "bounds.final_delta", "bounds.closed_form_threshold", "bounds.iterated_f",
        "bounds.threshold_inequalities_hold", "linalg.iroot", "cli.main", "jsonio.dumps",
    ],
}

#: CPU-second and address-space limits for one edge-slice child
EDGE_CPU_S = 1
EDGE_AS_BYTES = 1 << 29
EDGE_WALL_S = 10.0


def canon(obj):
    """JSON-ready form: rationals as pairs, big integers as hex, sets sorted."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (str, float)):
        return obj
    if isinstance(obj, int):
        return obj if -(1 << 53) < obj < (1 << 53) else "0x%x" % obj
    if isinstance(obj, Fraction):
        return [canon(obj.numerator), canon(obj.denominator)]
    if isinstance(obj, dict):
        return {str(k): canon(v) for k, v in obj.items()}
    if isinstance(obj, (set, frozenset)):
        return sorted(canon(v) for v in obj)
    return [canon(v) for v in obj]


def dumps(obj) -> str:
    return json.dumps(canon(obj), sort_keys=True, separators=(",", ":"))


class Workload:
    """One request mix; subclasses fill in generate / prepare / execute / check."""

    name = ""

    def memo_functions(self):
        """Functions whose memo tables are cleared before every pass, so that
        every pass sees the same cache state and the hit ratio stays a
        property of the request list."""
        from torsionlab import integers

        return [integers.factorize, integers.jacobsthal]

    def reset_memos(self):
        for fn in self.memos:
            clear = getattr(fn, "cache_clear", None)
            if clear is not None:
                clear()

    def setup(self, seed: int):
        self.requests = self.generate(seed)
        self.memos = self.memo_functions()

    def warm_up(self):
        """Build what the program builds lazily, then run the first request of
        each kind.  Requests come in generation order, so each of these has
        the first shape of its kind whatever the seed (see gen)."""
        self.prepare()
        seen = set()
        for req in self.requests:
            if req["kind"] not in seen:
                seen.add(req["kind"])
                self.execute(req)

    def prepare(self):
        pass

    def edge_slice(self):
        return []


class FiniteModels(Workload):
    name = "finite-models"

    def generate(self, seed):
        return gen.finite_models(seed)

    def prepare(self):
        from torsionlab import cosets as cst
        from torsionlab import glorbits as glo

        for ell, dim in gen.GL_SHAPES:
            glo.all_subspaces(ell, dim)
        for N, g in gen.MODEL_AMBIENTS:
            list(cst.all_summands(cst.ModelAmbient(N, g)))

    def execute(self, req):
        from torsionlab import cosets as cst
        from torsionlab import glorbits as glo
        from torsionlab.errors import CapExceededError

        kind = req["kind"]
        if kind == "orbit_density":
            ell, dim, a = req["ell"], req["dim"], req["a"]
            try:
                G = glo.generate_group(req["gens"], ell, dim, cap=req["cap"])
            except CapExceededError as exc:
                return {"refused": exc.required}
            orb = glo.orbit(G, a)
            reports = []
            for V in glo.all_subspaces(ell, dim):
                if any(V.contains(p) for p in orb):
                    rep = glo.verify_bound(G, a, V)
                    if not rep.bound_ok:
                        raise AssertionError("bound_ok is false")
                    reports.append([V.basis, rep.W.basis, rep.stab_index,
                                    [rep.bound.numerator, rep.bound.denominator], rep.witness_g])
            return {"order": len(G.elements), "reports": reports}
        amb = cst.ModelAmbient(req["N"], req["g"])
        if kind == "special_closure":
            comps = cst.special_closure(amb, req["S"], req["c"])
            return {"components": [[tc.point, tc.subgroup.basis] for tc in comps]}
        wit = cst.keyprop_witness(amb, [tuple(v) for v in req["V"]], req["a"], req["c"],
                                  delta_cap=req["N"] ** (2 * req["g"]))
        return {"alpha": wit.alpha, "basis": wit.subgroup.basis, "order": wit.order}

    def check(self, req, out):
        kind = req["kind"]
        if kind == "orbit_density":
            return checks.check_orbit_density(req, out)
        if kind == "special_closure":
            return checks.check_special_closure(req, out)
        return checks.check_keyprop_witness(req, out)


class IdempotentLift(Workload):
    name = "idempotent-lift"

    def generate(self, seed):
        return gen.idempotent_lift(seed)

    def execute(self, req):
        from torsionlab import algebras as alg

        kind = req["kind"]
        if kind == "membership":
            B = alg.SplitSemisimpleAlgebra(tuple(req["B"]))
            rep = alg.standard_representation(B)
            el = {k: alg.AlgebraElement(B, req[k]) for k in ("pi", "u", "b")}
            return {"member": alg.ideal_membership_mod_pi(B, el["pi"], el["u"], el["b"], rep)}
        M = alg.SplitSemisimpleAlgebra(tuple(req["M"]))
        N = alg.SplitSemisimpleAlgebra(tuple(req["N"]))
        emb = alg.AlgebraEmbedding(M, N, tuple(alg.AlgebraElement(N, x) for x in req["images"]))
        if kind == "user_rep":
            rep = alg.Representation(N, sum(N.blocks), tuple(req["rep"]))
        else:
            rep = alg.standard_representation(N)
        u = alg.AlgebraElement(N, req["u"])
        w = alg.AlgebraElement(M, req["w"])
        if kind == "lift_central":
            pi = alg.AlgebraElement(N, req["pi"])
            v = alg.lift_idempotent_central(M, N, emb, rep, pi, u, w)
        else:
            v = alg.lift_idempotent(M, N, emb, rep, u, w)
        return {"v": v.data}

    def check(self, req, out):
        if req["kind"] == "membership":
            return checks.check_membership(req, out["member"])
        return checks.check_lift(req, out["v"])


class Thresholds(Workload):
    name = "thresholds"
    validator = None

    def generate(self, seed):
        from torsionlab import bounds as bnd

        def final_delta(D, Delta, c):
            return bnd.final_delta(bnd.BoundParams(D=D, Delta=Delta, c=c))

        return gen.thresholds(seed, final_delta)

    def execute(self, req):
        from torsionlab import bounds as bnd
        from torsionlab import integers

        kind = req["kind"]
        if kind == "cli":
            from torsionlab import cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(req["argv"])
            if code != 0:
                raise RuntimeError("exit %d" % code)
            return {"stdout": buf.getvalue()}
        if kind == "jacobsthal":
            return {"g": integers.jacobsthal(req["d"])}
        if kind == "factorize":
            return {"factors": integers.factorize(req["n"]).factors}
        if kind == "coprime_shift":
            return {"k": integers.minimal_coprime_shift(req["a"], req["n"], req["d"])}
        if kind == "threshold_check":
            params = bnd.BoundParams(D=req["D"], Delta=req["Delta"], c=req["c"])
            return {"holds": bnd.threshold_inequalities_hold(req["d"], req["omega"], params)}
        params = bnd.BoundParams(D=req["D"], Delta=req["Delta"], c=req["c"], d=req["d"], p=req["p"])
        rep = bnd.bound_report(params)
        return {"x": rep.x, "n": rep.n, "N": rep.N, "sigma_size": rep.sigma_size,
                "f_value": rep.f_value, "f_iterates": list(rep.f_iterates),
                "closed_form": rep.closed_form, "final_delta": rep.final_delta}

    def check(self, req, out):
        kind = req["kind"]
        if kind == "cli":
            return self._check_cli(req["argv"], out["stdout"])
        if kind == "jacobsthal":
            return checks.check_jacobsthal(req["d"], out)
        if kind == "factorize":
            return checks.check_factorize(req["n"], out)
        if kind == "coprime_shift":
            return checks.check_coprime_shift(req["a"], req["n"], req["d"], out)
        if kind == "threshold_check":
            return None if out["holds"] else "d above the threshold violates the inequalities"
        return checks.check_iterates(out)

    def _check_cli(self, argv, stdout):
        """The report parses in its format, fits the report schema, and its
        numbers pass the same checks as the library kinds."""
        fmt = argv[1] if argv[0] == "--format" else "json"
        cmd = argv[2:] if fmt != "json" else argv
        if fmt == "json":
            report = json.loads(stdout)
        else:
            sep = "," if fmt == "csv" else " = "
            report = {k: json.loads(v) for k, v in
                      (line.split(sep, 1) for line in stdout.splitlines())}
        error = next(self._schema().iter_errors(report), None)
        if error is not None:
            return "report fails the schema: %s" % error.message
        if cmd[0] == "jacobsthal":
            return checks.check_jacobsthal(int(cmd[1]), report)
        if cmd[0] == "coprime-shift":
            return checks.check_coprime_shift(*(int(x) for x in cmd[1:4]), report)
        if cmd[0] == "delta-bound":
            return checks.check_iterates(report)
        if report["size"] != len(report["elements"]):
            return "sigma-set size differs from its element count"
        return None

    def _schema(self):
        if self.validator is None:
            import jsonschema

            with open(os.path.join("src", "torsionlab", "report.schema.json")) as fh:
                schema = json.load(fh)
            self.validator = jsonschema.validators.validator_for(schema)(schema)
        return self.validator


class ExactArithmetic(Workload):
    """The idempotent-lift requests followed by the thresholds requests."""

    name = "exact-arithmetic"
    lift_kinds = ("lift", "lift_central", "membership", "user_rep")

    def __init__(self):
        self.lifts, self.thresholds = IdempotentLift(), Thresholds()

    def generate(self, seed):
        return self.lifts.generate(seed) + self.thresholds.generate(seed)

    def family(self, req):
        return self.lifts if req["kind"] in self.lift_kinds else self.thresholds

    def execute(self, req):
        return self.family(req).execute(req)

    def check(self, req, out):
        return self.family(req).check(req, out)

    def edge_slice(self):
        return edge_slice()


# --- the edge slice -------------------------------------------------------------------


def _edge_limits():
    resource.setrlimit(resource.RLIMIT_CPU, (EDGE_CPU_S, EDGE_CPU_S + 1))
    resource.setrlimit(resource.RLIMIT_AS, (EDGE_AS_BYTES, EDGE_AS_BYTES))


def edge_slice() -> list[dict]:
    """Run every edge input once as ``python -m torsionlab``; each passes only
    by exiting 1 or 2 with a single stderr line inside the CPU limit."""
    env = dict(os.environ)
    env.pop("ARITH_MM_CAPS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.abspath("src"),
                                                      env.get("PYTHONPATH")]))
    rows = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-edge-", dir=".") as work:
        for name, argv, content in gen.EDGE_CASES:
            args = []
            for a in argv:
                if a.startswith("@"):
                    a = os.path.join(work, a[1:])
                    with open(a, "w") as fh:
                        fh.write(content)
                args.append(a)
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-m", "torsionlab"] + args, env=env,
                                    stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                    preexec_fn=_edge_limits)
            try:
                _, err = proc.communicate(timeout=EDGE_WALL_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                _, err = proc.communicate()
            lines = err.decode(errors="replace").strip().splitlines()
            rows.append({"name": name, "exit": proc.returncode,
                         "seconds": time.perf_counter() - t0,
                         "ok": proc.returncode in (1, 2) and len(lines) == 1,
                         "stderr_tail": lines[-1][:120] if lines else ""})
    return rows
