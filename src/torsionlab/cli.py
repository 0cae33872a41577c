"""Command-line front end: every operation, machine-readable output.

Exit codes: 0 success, 1 validation error (argument errors included), 2 cap
exceeded, 3 internal invariant violation.  Errors print a single
machine-readable line on stderr.  Caps may be overridden with
ARITH_MM_CAPS=<ambient>,<group>,<lattice> (empty slots keep defaults).

The argument parser is a constant of the program: it is built on the first
``main`` call and reused by every later call in the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import algebras as alg
from . import bounds as bnd
from . import cosets as cst
from . import glorbits as glo
from .errors import CapExceededError, InternalCheckError, ValidationError
from .integers import factorize, jacobsthal, jacobsthal_bounds, minimal_coprime_shift, squarefree_quotient
from .jsonio import dumps, encode_fraction, encode_int


def _caps_from_env():
    caps = {"ambient": cst.AMBIENT_ORDER_CAP, "group": glo.GROUP_SIZE_CAP,
            "lattice": glo.SUBSPACE_LATTICE_CAP}
    raw = os.environ.get("ARITH_MM_CAPS", "")
    if raw:
        parts = raw.split(",")
        for name, part in zip(("ambient", "group", "lattice"), parts):
            part = part.strip()
            if part:
                try:
                    caps[name] = int(part)
                except ValueError:
                    raise ValidationError("bad ARITH_MM_CAPS entry %r" % part)
    return caps


def _emit(report: dict, fmt: str):
    if fmt == "json":
        print(dumps(report))
    elif fmt == "csv":
        for key in sorted(report):
            print("%s,%s" % (key, json.dumps(report[key], sort_keys=True)))
    else:
        for key in sorted(report):
            print("%s = %s" % (key, json.dumps(report[key], sort_keys=True)))


def _parse_vec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.replace(" ", "").split(",") if t != "")
    except ValueError:
        raise ValidationError("bad vector %r; expected comma-separated integers" % text)


def _parse_points(text: str):
    return [_parse_vec(part) for part in text.split(";") if part.strip()]


def _parse_fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise ValidationError("bad rational %r; expected p or p/q" % text)


def _rat(x) -> Fraction:
    if isinstance(x, list) and len(x) != 2:
        raise ValidationError("rational entries are [num, den] pairs")
    try:
        if isinstance(x, list):
            return Fraction(int(x[0]), int(x[1]))
        if isinstance(x, (int, str)):
            return Fraction(int(x))
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise ValidationError("bad rational entry %r" % (x,))


def _is_matrix(m) -> bool:
    return isinstance(m, list) and all(isinstance(row, list) for row in m)


def _rat_matrix(m) -> tuple:
    return tuple(tuple(_rat(x) for x in row) for row in m)


def _element_from_json(algebra: alg.SplitSemisimpleAlgebra, data) -> alg.AlgebraElement:
    if not isinstance(data, list) or len(data) != len(algebra.blocks):
        raise ValidationError("element needs one matrix per block")
    mats = []
    for mat, n in zip(data, algebra.blocks):
        if not _is_matrix(mat) or len(mat) != n or any(len(row) != n for row in mat):
            raise ValidationError("block matrix of wrong shape")
        mats.append(_rat_matrix(mat))
    return alg.AlgebraElement(algebra, tuple(mats))


def _element_to_json(elem: alg.AlgebraElement):
    return [
        [[[x.numerator, x.denominator] for x in row] for row in mat]
        for mat in elem.data
    ]


#: integer literals of an ``--input`` file with at most this many digits are
#: read by ``int()``; longer ones by halves (``_parse_int``)
PARSE_LEAF_DIGITS = 3000


def _parse_int(literal: str) -> int:
    """``int(literal)`` for a JSON integer literal, in subquadratic time.

    ``int()`` is quadratic in the number of digits (CPython 3.11).  A literal
    of more than ``PARSE_LEAF_DIGITS`` digits is split k digits from its end,
    k the largest power of two below its length, and read as
    hi * 10^k + lo = (hi * 5^k << k) + lo, both halves the same way; each
    5^k is made once per literal.  A literal past the interpreter's digit
    limit goes to ``int()``, which refuses it as it always has."""
    digits = literal[literal.startswith("-"):]
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if len(digits) <= PARSE_LEAF_DIGITS or 0 < limit < len(digits):
        return int(literal)
    powers = {}

    def read(lo: int, hi: int) -> int:
        if hi - lo <= PARSE_LEAF_DIGITS:
            return int(digits[lo:hi])
        k = 1 << (hi - lo - 1).bit_length() - 1
        top = read(lo, hi - k)
        if k not in powers:
            powers[k] = 5 ** k
        return (top * powers[k] << k) + read(hi - k, hi)

    value = read(0, len(digits))
    return -value if len(digits) < len(literal) else value


def _read_input(path: str) -> dict:
    """The JSON object of an ``--input`` file; anything else is a validation error."""
    with open(path) as fh:
        try:
            data = json.load(fh, parse_int=_parse_int)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError("input %s is not valid JSON: %s" % (path, exc))
    if not isinstance(data, dict):
        raise ValidationError("input %s must hold a JSON object" % path)
    return data


def _int_field(data: dict, key: str) -> int:
    value = data[key]
    if type(value) is not int:
        raise ValidationError("%r must be an integer, got %r" % (key, value))
    return value


def _int_array(data: dict, key: str, depth: int):
    """data[key] as lists nested ``depth`` deep around plain integers."""

    def ok(x, d):
        return type(x) is int if d == 0 else isinstance(x, list) and all(ok(y, d - 1) for y in x)

    if not ok(data[key], depth):
        raise ValidationError("%r must be a list%s of integers" % (key, " of lists" * (depth - 1)))
    return data[key]


def _coset_to_json(tc: cst.TorsionCoset):
    amb = tc.subgroup.ambient
    return {
        "point": list(tc.point),
        "basis": [list(v) for v in tc.subgroup.basis],
        "N": amb.N,
        "g": amb.g,
        "order": tc.order,
    }


# --- subcommand handlers -----------------------------------------------------


def _cmd_jacobsthal(args, caps):
    d = args.d
    g = jacobsthal(d)
    kanold, _ = jacobsthal_bounds(factorize(d))
    return {"d": d, "g": g, "kanold": kanold}


def _cmd_coprime_shift(args, caps):
    k = minimal_coprime_shift(args.a, args.n, args.d)
    return {
        "k": k,
        "value": args.a + k * args.n,
        "bound": jacobsthal(squarefree_quotient(args.d, args.n)),
    }


def _bound_params(args) -> bnd.BoundParams:
    return bnd.BoundParams(
        D=args.D,
        Delta=args.Delta,
        c=args.c,
        d=args.d,
        p=args.p,
        eps_slack=_parse_fraction(args.eps),
        linear_x=args.linear_x,
    )


def _cmd_delta_bound(args, caps):
    report = bnd.bound_report(_bound_params(args))
    return report.to_json_dict()


def _cmd_sigma_set(args, caps):
    params = _bound_params(args)
    elems = bnd.sigma_set(params)
    return {
        "N": encode_int(bnd.capital_n(params)),
        "size": len(elems),
        "elements": [encode_int(v) for v in elems],
    }


def _cmd_lang_orbit(args, caps):
    amb = cst.ModelAmbient(args.N, args.g)
    pt = amb.reduce(_parse_vec(args.point))
    orbit = sorted(cst.lang_orbit(amb, pt, args.c, cap=caps["ambient"]))
    return {
        "N": args.N,
        "g": args.g,
        "c": args.c,
        "point": list(pt),
        "order": amb.element_order(pt),
        "orbit": [list(v) for v in orbit],
    }


def _cmd_special_closure(args, caps):
    amb = cst.ModelAmbient(args.N, args.g)
    pts = _parse_points(args.points)
    comps = cst.special_closure(amb, pts, args.c, cap=caps["ambient"])
    total = set()
    for comp in comps:
        total |= cst.block_points(amb, comp.point, comp.subgroup, args.c, caps["ambient"])
    return {
        "N": args.N,
        "g": args.g,
        "c": args.c,
        "components": [_coset_to_json(tc) for tc in comps],
        "component_count": len(comps),
        "total_points": len(total),
    }


def _cmd_keyprop_witness(args, caps):
    amb = cst.ModelAmbient(args.N, args.g)
    V = _parse_points(args.set)
    a = _parse_vec(args.a)
    wit = cst.keyprop_witness(amb, V, a, args.c, args.delta_cap, cap=caps["ambient"])
    return {
        "alpha": list(wit.alpha),
        "basis": [list(v) for v in wit.subgroup.basis],
        "N": args.N,
        "g": args.g,
        "order": wit.order,
        "within_cap": wit.within_cap,
    }


def _cmd_gl_verify(args, caps):
    data = _read_input(args.input)
    for key in ("ell", "dim", "generators", "a", "V"):
        if key not in data:
            raise ValidationError("gl-verify input needs %r" % key)
    known = {"ell", "dim", "generators", "a", "V", "C"}
    unknown = set(data) - known
    if unknown:
        raise ValidationError("unknown gl-verify fields: %s" % sorted(unknown))
    ell, dim = _int_field(data, "ell"), _int_field(data, "dim")
    lattice = caps["lattice"]
    if ell >= 2 and dim >= 1:
        # ell^dim >= 2^dim exceeds the cap once dim reaches the cap's bit
        # length; past that the power is not built
        points = ell ** dim if dim < lattice.bit_length() else None
        if points is None or points > lattice:
            raise CapExceededError(
                "subspace lattice %d^%d exceeds cap %d" % (ell, dim, lattice),
                required=points,
            )
    generators = _int_array(data, "generators", 3)
    a = _int_array(data, "a", 1)
    rows = _int_array(data, "V", 2)
    if any(len(row) != dim for row in rows):
        raise ValidationError("'V' rows must have %d coordinates" % dim)
    G = glo.generate_group(generators, ell, dim, cap=caps["group"])
    V = glo.subspace_from_vectors(rows, ell, dim)
    C = _rat(data["C"]) if "C" in data else None
    rep = glo.verify_bound(G, tuple(a), V, C)
    return {
        "ell": data["ell"],
        "dim": data["dim"],
        "group_order": len(G.elements),
        "orbit_size": len(rep.orbit),
        "epsilon_V": encode_fraction(rep.epsilon_V),
        "epsilon_W": encode_fraction(rep.epsilon_W),
        "W_basis": [list(r) for r in rep.W.basis],
        "stab_index": rep.stab_index,
        "stabilizer_order": rep.stabilizer_order,
        "bound": encode_fraction(rep.bound),
        "bound_ok": rep.bound_ok,
        "witness_g": [list(r) for r in rep.witness_g],
    }


def _algebra_inputs(data, need_pi=False):
    required = ("M", "N", "embedding", "u", "w") + (("pi",) if need_pi else ())
    for key in required:
        if key not in data:
            raise ValidationError("input needs %r" % key)
    unknown = set(data) - set(required) - {"representation"}
    if unknown:
        raise ValidationError("unknown input fields: %s" % sorted(unknown))
    M = alg.SplitSemisimpleAlgebra(tuple(_int_array(data, "M", 1)))
    N = alg.SplitSemisimpleAlgebra(tuple(_int_array(data, "N", 1)))
    for algebra in (M, N):
        if algebra.dim > alg.ALGEBRA_DIM_CAP:
            raise CapExceededError(
                "algebra of dimension %d exceeds cap %d" % (algebra.dim, alg.ALGEBRA_DIM_CAP),
                required=algebra.dim,
            )
    if not isinstance(data["embedding"], list):
        raise ValidationError("'embedding' must be a list of elements")
    images = tuple(_element_from_json(N, img) for img in data["embedding"])
    emb = alg.AlgebraEmbedding(M, N, images)
    if "representation" in data:
        rdata = data["representation"]
        if (not isinstance(rdata, dict) or set(rdata) != {"images", "space_dim"}
                or not isinstance(rdata["images"], list)
                or not all(map(_is_matrix, rdata["images"]))):
            raise ValidationError("'representation' must hold a list of matrices "
                                  "'images' and 'space_dim', nothing else")
        s = rdata["space_dim"]
        if type(s) is int and s > alg.REPRESENTATION_DIM_CAP:
            raise CapExceededError(
                "representation on Q^%d exceeds cap %d" % (s, alg.REPRESENTATION_DIM_CAP),
                required=s,
            )
        images_r = tuple(map(_rat_matrix, rdata["images"]))
        rep = alg.Representation(N, _int_field(rdata, "space_dim"), images_r)
    else:
        rep = alg.standard_representation(N)
    u = _element_from_json(N, data["u"])
    w = _element_from_json(M, data["w"])
    pi = _element_from_json(N, data["pi"]) if need_pi else None
    return M, N, emb, rep, u, w, pi


def _cmd_idempotent_lift(args, caps):
    data = _read_input(args.input)
    M, N, emb, rep, u, w, _ = _algebra_inputs(data)
    v = alg.lift_idempotent(M, N, emb, rep, u, w)
    return {"v": _element_to_json(v), "M": list(M.blocks), "idempotent": True}


def _cmd_idempotent_lift_central(args, caps):
    data = _read_input(args.input)
    M, N, emb, rep, u, w, pi = _algebra_inputs(data, need_pi=True)
    v = alg.lift_idempotent_central(M, N, emb, rep, pi, u, w)
    return {"v": _element_to_json(v), "M": list(M.blocks), "idempotent": True}


def _cmd_selftest(args, caps):
    from .selfcheck import run_criteria

    indices = None
    if args.criteria:
        indices = {int(t) for t in args.criteria.split(",")}
    results = run_criteria(indices=indices, seed=args.seed,
                           log=lambda line: print(line, file=sys.stderr, flush=True))
    # timing stays on stderr: stdout must be byte-identical across runs
    report = {
        "seed": args.seed,
        "criteria": [
            {
                "index": r.index,
                "name": r.name,
                "passed": r.passed,
                "details": r.details,
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    if not report["passed"]:
        raise InternalCheckError("acceptance criteria failed: %s" % dumps(report))
    return report


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors raise ValidationError (exit 1, one
    stderr line) instead of printing usage and exiting 2; its subparsers
    are of the same class."""

    def error(self, message):
        # argparse quotes the offending argument, which may be megabytes long
        raise ValidationError(message if len(message) <= 300 else message[:300] + "...")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.  Parsing
    reads it and mutates nothing, and each parse returns a fresh namespace."""
    ap = _Parser(
        prog="torsionlab",
        description="Exact arithmetic for torsion cosets: Jacobsthal machinery, "
        "effective order thresholds, orbit densities, idempotent lifting.",
    )
    ap.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jacobsthal", help="exact Jacobsthal value and Kanold bound")
    p.add_argument("d", type=int)
    p.set_defaults(handler=_cmd_jacobsthal)

    p = sub.add_parser("coprime-shift", help="least k with gcd(a+kn, d) = 1")
    p.add_argument("a", type=int)
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(handler=_cmd_coprime_shift)

    for name, handler in (("delta-bound", _cmd_delta_bound), ("sigma-set", _cmd_sigma_set)):
        p = sub.add_parser(
            name,
            help="full constant report" if name == "delta-bound" else "admissible multiplier set",
        )
        p.add_argument("--D", type=int, required=True)
        p.add_argument("--Delta", type=int, default=1 if name == "delta-bound" else 0)
        p.add_argument("--c", type=int, required=True)
        p.add_argument("--d", type=int, default=1)
        p.add_argument("--p", type=int, default=0)
        p.add_argument("--eps", default="1/2")
        p.add_argument("--linear-x", action="store_true")
        p.set_defaults(handler=handler)

    p = sub.add_parser("lang-orbit", help="homothety-power orbit of a torsion point")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(handler=_cmd_lang_orbit)

    p = sub.add_parser("special-closure", help="smallest stable union of cosets containing S")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--points", required=True, help="semicolon-separated vectors")
    p.add_argument("--c", type=int, required=True)
    p.set_defaults(handler=_cmd_special_closure)

    p = sub.add_parser("keyprop-witness", help="minimal-order stable coset between orbit and V")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--set", required=True, help="semicolon-separated vectors of V")
    p.add_argument("--a", required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--delta-cap", type=int, required=True)
    p.set_defaults(handler=_cmd_keyprop_witness)

    p = sub.add_parser("gl-verify", help="orbit-density bound report from a JSON instance")
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_gl_verify)

    p = sub.add_parser("idempotent-lift", help="lift an idempotent along a subalgebra")
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_idempotent_lift)

    p = sub.add_parser(
        "idempotent-lift-central", help="lift compatibly with a central idempotent"
    )
    p.add_argument("--input", required=True)
    p.set_defaults(handler=_cmd_idempotent_lift_central)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.add_argument("--criteria", default="", help="comma-separated criterion indices")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_selftest)

    return ap


def main(argv=None) -> int:
    # reports print integers of over a million bits; the digit limit is raised
    # here, not at import, so importing torsionlab leaves the interpreter alone
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    try:
        args = build_parser().parse_args(argv)
        caps = _caps_from_env()
        report = args.handler(args, caps)
    except ValidationError as exc:
        print("error: validation: %s" % exc, file=sys.stderr)
        return 1
    except CapExceededError as exc:
        suffix = " (required %s)" % exc.required if exc.required is not None else ""
        print("error: cap-exceeded: %s%s" % (exc, suffix), file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print("error: internal-invariant: %s" % exc, file=sys.stderr)
        return 3
    except OSError as exc:
        print("error: validation: %s" % exc, file=sys.stderr)
        return 1
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
