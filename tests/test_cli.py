import itertools
import json
import os
import random
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import torsionlab
from torsionlab.cli import build_parser, main


#: the directory holding the imported package, put first on a child's PYTHONPATH
SRC = os.path.dirname(os.path.dirname(os.path.abspath(torsionlab.__file__)))

SCHEMA = json.loads(
    resources.files("torsionlab").joinpath("report.schema.json").read_text()
)


def run_cli(argv, capsys, env_caps=None, monkeypatch=None):
    if env_caps is not None and monkeypatch is not None:
        monkeypatch.setenv("ARITH_MM_CAPS", env_caps)
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def child_env() -> dict:
    """The environment of a ``python -m torsionlab`` child: no ARITH_MM_CAPS, and the
    package under test importable without an outer PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "ARITH_MM_CAPS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def validate(payload: str):
    doc = json.loads(payload)
    jsonschema.validate(doc, SCHEMA)
    return doc


def test_jacobsthal_command(capsys):
    code, out, err = run_cli(["jacobsthal", "30"], capsys)
    assert code == 0
    doc = validate(out)
    assert doc == {"d": 30, "g": 6, "kanold": 8}


def test_jacobsthal_zero_exits_1(capsys):
    code, out, err = run_cli(["jacobsthal", "0"], capsys)
    assert code == 1
    assert err.startswith("error: validation:")


def test_coprime_shift_command(capsys):
    code, out, err = run_cli(["coprime-shift", "2", "3", "10"], capsys)
    assert code == 0
    assert validate(out) == {"k": 3, "value": 11, "bound": 4}


def test_coprime_shift_no_solution(capsys):
    code, out, err = run_cli(["coprime-shift", "2", "2", "4"], capsys)
    assert code == 1
    assert "no solution exists" in err


def test_delta_bound_report(capsys):
    code, out, err = run_cli(
        ["delta-bound", "--D", "1", "--Delta", "1", "--c", "1"], capsys
    )
    assert code == 0
    doc = validate(out)
    assert doc["final_delta"] == 7
    assert doc["x"] == 3 and doc["n"] == 5
    assert doc["lambda"] == [0, 1]


def test_sigma_set_command(capsys):
    code, out, err = run_cli(["sigma-set", "--D", "1", "--c", "1", "--d", "2"], capsys)
    assert code == 0
    doc = validate(out)
    assert doc["elements"] == [1, 3, 5, 7, 9, 11, 13]


def test_lang_orbit_command(capsys):
    code, out, err = run_cli(
        ["lang-orbit", "--N", "5", "--g", "1", "--point", "1,0", "--c", "2"], capsys
    )
    assert code == 0
    doc = validate(out)
    assert doc["orbit"] == [[1, 0], [4, 0]]


def test_special_closure_command(capsys):
    code, out, err = run_cli(
        ["special-closure", "--N", "3", "--g", "1", "--points",
         "0,0;0,1;0,2;1,0;1,1;1,2;2,0;2,1;2,2", "--c", "1"],
        capsys,
    )
    assert code == 0
    doc = validate(out)
    assert doc["component_count"] == 1
    assert doc["total_points"] == 9


def test_keyprop_witness_command(capsys):
    orbit = "1,0;2,0;3,0;4,0"
    code, out, err = run_cli(
        ["keyprop-witness", "--N", "5", "--g", "1", "--set", orbit,
         "--a", "1,0", "--c", "1", "--delta-cap", "10"],
        capsys,
    )
    assert code == 0
    doc = validate(out)
    assert doc["alpha"] == [1, 0] and doc["order"] == 5 and doc["within_cap"]


def test_gl_verify_command(tmp_path, capsys):
    payload = {
        "ell": 3,
        "dim": 2,
        "generators": [[[0, 1], [1, 0]]],
        "a": [1, 0],
        "V": [[1, 0]],
        "C": [2, 1],
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["gl-verify", "--input", str(path)], capsys)
    assert code == 0
    doc = validate(out)
    assert doc["bound"] == [48, 1]
    assert doc["bound_ok"] is True
    assert doc["stab_index"] <= 2


#: gl-verify inputs with their stdout, byte for byte, as the matrix-product
#: implementation printed it: a transposition on F_3^2, a conjugate of
#: GL_2(F_5) x 1 (order 480) in GL_3(F_5), and a conjugate of AGL_2(F_3)
#: (order 432) in GL_3(F_3)
GL_VERIFY_PINNED = [
    ({"ell": 3, "dim": 2, "generators": [[[0, 1], [1, 0]]], "a": [1, 0], "V": [[1, 0]],
      "C": [2, 1]},
     '{"W_basis":[[1,0]],"bound":[48,1],"bound_ok":true,"dim":2,"ell":3,"epsilon_V":[1,2],'
     '"epsilon_W":[1,2],"group_order":2,"orbit_size":2,"stab_index":2,"stabilizer_order":1,'
     '"witness_g":[[1,0],[0,1]]}\n'),
    ({"ell": 5, "dim": 3,
      "generators": [[[4, 2, 1], [1, 0, 2], [4, 1, 4]], [[0, 0, 3], [1, 2, 2], [3, 2, 2]]],
      "a": [1, 2, 2], "V": [[1, 2, 2], [1, 0, 0]]},
     '{"W_basis":[[0,1,1]],"bound":["36349724372835319676928",152587890625],"bound_ok":true,'
     '"dim":3,"ell":5,"epsilon_V":[5,24],"epsilon_W":[1,24],"group_order":480,"orbit_size":24,'
     '"stab_index":24,"stabilizer_order":20,"witness_g":[[4,2,1],[0,3,0],[2,2,0]]}\n'),
    ({"ell": 3, "dim": 3,
      "generators": [[[0, 0, 2], [2, 0, 0], [2, 2, 1]], [[1, 1, 2], [2, 1, 0], [2, 0, 1]]],
      "a": [2, 1, 0], "V": [[2, 1, 0], [0, 1, 0]], "C": [9, 1]},
     '{"W_basis":[[0,1,0]],"bound":[5559060566555523,1],"bound_ok":true,"dim":3,"ell":3,'
     '"epsilon_V":[1,3],"epsilon_W":[1,9],"group_order":432,"orbit_size":9,"stab_index":9,'
     '"stabilizer_order":48,"witness_g":[[0,0,2],[2,0,0],[2,2,1]]}\n'),
]


@pytest.mark.parametrize("payload, stdout", GL_VERIFY_PINNED)
def test_gl_verify_stdout_is_pinned(tmp_path, capsys, payload, stdout):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["gl-verify", "--input", str(path)], capsys)
    assert (code, out, err) == (0, stdout, "")


def test_gl_verify_past_the_group_table_cap_answers(tmp_path):
    # SL_2(F_13) x 1 in GL_3(F_13): 2184 elements on 13^3 = 2197 points, more
    # than a permutation table of 2^22 entries holds; the answer is the
    # matrix-product implementation's, byte for byte (0.4 CPU s on a 2-vCPU VM)
    path = tmp_path / "sl2f13.json"
    path.write_text(json.dumps({
        "ell": 13, "dim": 3,
        "generators": [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [1, 1, 0], [0, 0, 1]]],
        "a": [1, 0, 1], "V": [[1, 0, 0], [0, 0, 1]]}))
    proc = _limited_child(["gl-verify", "--input", str(path)], cpu_seconds=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        '{"W_basis":[[1,0,1]],"bound":["6533860013428113408",1],"bound_ok":true,"dim":3,'
        '"ell":13,"epsilon_V":[1,14],"epsilon_W":[1,168],"group_order":2184,"orbit_size":168,'
        '"stab_index":168,"stabilizer_order":13,"witness_g":[[1,0,0],[0,1,0],[0,0,1]]}\n'
    )


def test_gl_verify_answers_for_gl2_f19(tmp_path):
    # GL_2(F_19), 123 120 elements, acts through its three generators; the
    # answer is the matrix-product implementation's, byte for byte (0.6 to 0.9
    # CPU s on a 2-vCPU VM; 1.2 to 2.0 s with a product per element and point)
    path = tmp_path / "gl2f19.json"
    path.write_text(json.dumps({
        "ell": 19, "dim": 2, "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 0], [0, 1]]],
        "a": [1, 0], "V": [[3, 1]]}))
    proc = _limited_child(["gl-verify", "--input", str(path)], cpu_seconds=5)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        '{"W_basis":[[1,13]],"bound":[480000,1],"bound_ok":true,"dim":2,"ell":19,'
        '"epsilon_V":[1,20],"epsilon_W":[1,20],"group_order":123120,"orbit_size":360,'
        '"stab_index":20,"stabilizer_order":6156,"witness_g":[[3,2],[1,1]]}\n'
    )


def test_gl_verify_ranks_the_f2_7_lattice_within_96_mib(tmp_path):
    # the identity group on F_2^7 ranks all 29 212 subspaces of the lattice;
    # holding each one's point set only as a bitmask keeps the answer inside
    # 96 MiB of address space (35 MB peak RSS on a 2-vCPU VM; a frozenset of
    # vectors per subspace as well takes it to 94 MB)
    eye = [[int(i == j) for j in range(7)] for i in range(7)]
    path = tmp_path / "identity_f2_7.json"
    path.write_text(json.dumps({"ell": 2, "dim": 7, "generators": [eye], "a": [1] * 7, "V": eye}))
    proc = _limited_child(["gl-verify", "--input", str(path)], cpu_seconds=10,
                          address_space_mib=96)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        '{"W_basis":[[1,1,1,1,1,1,1]],"bound":[3,1],"bound_ok":true,"dim":7,"ell":2,'
        '"epsilon_V":[1,1],"epsilon_W":[1,1],"group_order":1,"orbit_size":1,"stab_index":1,'
        '"stabilizer_order":1,"witness_g":' + json.dumps(eye, separators=(",", ":")) + "}\n"
    )


def test_gl_verify_rejects_unknown_fields(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"ell": 3, "dim": 1, "generators": [],
                                "a": [1], "V": [[1]], "extra": 1}))
    code, out, err = run_cli(["gl-verify", "--input", str(path)], capsys)
    assert code == 1
    assert "unknown" in err


def test_idempotent_lift_command(tmp_path, capsys):
    payload = {
        "M": [1],
        "N": [2],
        "embedding": [[[[1, 0], [0, 1]]]],
        "u": [[[1, 0], [0, 0]]],
        "w": [[[0]]],
    }
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["idempotent-lift", "--input", str(path)], capsys)
    assert code == 0
    doc = validate(out)
    assert doc["v"] == [[[[0, 1]]]]


def test_idempotent_lift_central_command(tmp_path, capsys):
    payload = {
        "M": [1],
        "N": [2, 2],
        "embedding": [[[[1, 0], [0, 1]], [[1, 0], [0, 1]]]],
        "pi": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]],
        "u": [[[0, 0], [0, 0]], [[1, 0], [0, 0]]],
        "w": [[[0]]],
    }
    path = tmp_path / "lift.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["idempotent-lift-central", "--input", str(path)], capsys)
    assert code == 0
    doc = validate(out)
    assert doc["v"] == [[[[0, 1]]]]


# stdout of idempotent-lift(-central) on requests drawn by perfbench/gen.py, as the
# per-block Fraction implementation of the algebra layer printed it; the third input
# carries a dense representation conjugated by a random P.  Each input is the JSON
# text of an --input file.
ALGEBRA_PINNED = [
    # idempotent_lift(seed=7), request 11 (lift)
    ('idempotent-lift',
     (
         '{"M":[1,2],"N":[2,1],"embedding":[[[[0,0],[0,0]],[[1]]],[[[[2,5],[-3,5]],[[-2,5]'
         ',[3,5]]],[[0]]],[[[[1,5],[1,5]],[[-1,5],[-1,5]]],[[0]]],[[[[6,5],[-9,5]],[[4,5],'
         '[-6,5]]],[[0]]],[[[[3,5],[3,5]],[[2,5],[2,5]]],[[0]]]],"u":[[[[-3,4],[3,4]],[[-7'
         ',4],[7,4]]],[[1]]],"w":[[[1]],[[0,0],[0,0]]]}'
     ),
     '{"M":[1,2],"idempotent":true,"v":[[[[1,1]]],[[[1,1],[0,1]],[[-2,3],[0,1]]]]}\n'),
    # idempotent_lift(seed=7), request 12 (lift)
    ('idempotent-lift',
     (
         '{"M":[1,2],"N":[1,2,1],"embedding":[[[[1]],[[0,0],[0,0]],[[1]]],[[[0]],[[-1,-3],'
         '[[2,3],2]],[[0]]],[[[0]],[[-2,-3],[[4,3],2]],[[0]]],[[[0]],[[1,3],[[-1,3],-1]],['
         '[0]]],[[[0]],[[2,3],[[-2,3],-1]],[[0]]]],"u":[[[1]],[[[-3,2],-3],[[5,4],[5,2]]],'
         '[[1]]],"w":[[[1]],[[[3,4],[3,4]],[[1,4],[1,4]]]]}'
     ),
     '{"M":[1,2],"idempotent":true,"v":[[[[1,1]]],[[[1,1],[0,1]],[[1,3],[0,1]]]]}\n'),
    # idempotent_lift(seed=8), request 35 (user_rep)
    ('idempotent-lift',
     (
         '{"M":[2],"N":[2],"embedding":[[[[[-1,5],[3,5]],[[-2,5],[6,5]]]],[[[[2,5],[-1,5]]'
         ',[[4,5],[-2,5]]]],[[[[-3,5],[9,5]],[[-1,5],[3,5]]]],[[[[6,5],[-3,5]],[[2,5],[-1,'
         '5]]]]],"u":[[[[3,5],[-3,10]],[[-4,5],[2,5]]]],"w":[[[0,[-3,2]],[0,1]]],"represen'
         'tation":{"images":[[[-3,-6],[2,4]],[[-6,-9],[4,6]],[[2,4],[-1,-2]],[[4,6],[-2,-3'
         ']]],"space_dim":2}}'
     ),
     '{"M":[2],"idempotent":true,"v":[[[[1,1],[0,1]],[[-2,3],[0,1]]]]}\n'),
    # idempotent_lift(seed=7), request 29 (lift_central)
    ('idempotent-lift-central',
     (
         '{"M":[1,2],"N":[2,1,2],"embedding":[[[[0,0],[0,0]],[[1]],[[0,0],[0,0]]],[[[[3,2]'
         ',[-3,2]],[[1,2],[-1,2]]],[[0]],[[1,0],[-1,0]]],[[[[3,4],[-9,4]],[[1,4],[-3,4]]],'
         '[[0]],[[1,1],[-1,-1]]],[[[-1,1],[-1,1]],[[0]],[[0,0],[1,0]]],[[[[-1,2],[3,2]],[['
         '-1,2],[3,2]]],[[0]],[[0,0],[1,1]]]],"u":[[[[7,6],[-7,6]],[[1,6],[-1,6]]],[[1]],['
         '[1,0],[0,1]]],"w":[[[1]],[[1,0],[[1,3],0]]],"pi":[[[0,0],[0,0]],[[1]],[[1,0],[0,'
         '1]]]}'
     ),
     '{"M":[1,2],"idempotent":true,"v":[[[[0,1]]],[[[9,7],[-6,7]],[[3,7],[-2,7]]]]}\n'),
    # idempotent_lift(seed=7), request 30 (lift_central)
    ('idempotent-lift-central',
     (
         '{"M":[1,2],"N":[2,1,2],"embedding":[[[[0,0],[0,0]],[[1]],[[1,0],[0,1]]],[[[0,0],'
         '[[3,2],1]],[[0]],[[0,0],[0,0]]],[[[0,0],[[-1,2],0]],[[0]],[[0,0],[0,0]]],[[[-3,-'
         '2],[[9,2],3]],[[0]],[[0,0],[0,0]]],[[[1,0],[[-3,2],0]],[[0]],[[0,0],[0,0]]]],"u"'
         ':[[[2,1],[-2,-1]],[[1]],[[1,0],[0,1]]],"w":[[[1]],[[0,0],[0,0]]],"pi":[[[0,0],[0'
         ',0]],[[0]],[[0,0],[0,0]]]}'
     ),
     '{"M":[1,2],"idempotent":true,"v":[[[[1,1]]],[[[1,1],[0,1]],[[-1,1],[0,1]]]]}\n'),
    # idempotent_lift(seed=8), request 30 (lift_central)
    ('idempotent-lift-central',
     (
         '{"M":[1,2],"N":[1,2,2],"embedding":[[[[1]],[[1,0],[0,1]],[[0,0],[0,0]]],[[[0]],['
         '[0,0],[0,0]],[[[1,2],-1],[[-1,4],[1,2]]]],[[[0]],[[0,0],[0,0]],[[[-1,2],-1],[[1,'
         '4],[1,2]]]],[[[0]],[[0,0],[0,0]],[[[-1,2],1],[[-1,4],[1,2]]]],[[[0]],[[0,0],[0,0'
         ']],[[[1,2],1],[[1,4],[1,2]]]]],"u":[[[0]],[[0,-3],[0,1]],[[[2,3],[-4,3]],[[-1,6]'
         ',[1,3]]]],"w":[[[0]],[[1,0],[[-1,3],0]]],"pi":[[[1]],[[1,0],[0,1]],[[0,0],[0,0]]'
         ']}'
     ),
     '{"M":[1,2],"idempotent":true,"v":[[[[0,1]]],[[[3,4],[-3,4]],[[-1,4],[1,4]]]]}\n'),
]


@pytest.mark.parametrize("command, payload, stdout", ALGEBRA_PINNED,
                         ids=["%s-%d" % (p[0], k) for k, p in enumerate(ALGEBRA_PINNED)])
def test_algebra_stdout_is_pinned(tmp_path, capsys, command, payload, stdout):
    path = tmp_path / "instance.json"
    path.write_text(payload)
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert (code, out, err) == (0, stdout, "")


def test_output_corpus_matches_its_recorded_digests(tmp_path, monkeypatch):
    # tests/corpus.py: 400 idempotent-lift(-central), special-closure and
    # keyprop-witness invocations run in process (about 1 s); a byte of drift
    # in any record fails here.  A deliberate output change records the
    # digests again (``python tests/corpus.py``) and says which inputs changed
    import corpus

    monkeypatch.delenv("ARITH_MM_CAPS", raising=False)
    with open(corpus.DIGESTS) as fh:
        expected = json.load(fh)
    runs = corpus.run(str(tmp_path))
    assert sorted(runs) == sorted(expected)
    got = corpus.digests(runs)
    for command, pairs in runs.items():
        for (argv, rec), short in zip(pairs, expected[command]["records"]):
            assert corpus.short_hash(rec) == short, ("first differing record", argv, rec)
        assert got[command] == expected[command]


def test_group_cap_env_exit_2(tmp_path, capsys, monkeypatch):
    payload = {
        "ell": 5,
        "dim": 2,
        "generators": [[[1, 1], [0, 1]], [[1, 0], [1, 1]]],
        "a": [1, 0],
        "V": [[1, 0]],
        "C": [500, 1],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(
        ["gl-verify", "--input", str(path)], capsys, env_caps=",10,", monkeypatch=monkeypatch
    )
    assert code == 2
    assert err.startswith("error: cap-exceeded:")


def test_lattice_cap_env_exit_2(tmp_path, capsys, monkeypatch):
    # F_5^2 has 25 points: the lattice slot of ARITH_MM_CAPS refuses it
    payload = {"ell": 5, "dim": 2, "generators": [[[2, 0], [0, 1]]],
               "a": [1, 1], "V": [[1, 0], [0, 1]]}
    path = tmp_path / "f52.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["gl-verify", "--input", str(path)], capsys)
    assert code == 0
    code, out, err = run_cli(
        ["gl-verify", "--input", str(path)], capsys, env_caps=",,10", monkeypatch=monkeypatch
    )
    assert code == 2
    assert err.startswith("error: cap-exceeded: subspace lattice 5^2")
    assert "(required 25)" in err


def test_gl_verify_big_ell_fails_fast(tmp_path):
    # refused by the lattice cap before the group is closed; a child process
    # with a CPU limit turns a slow primality scan into a failure
    import resource

    path = tmp_path / "big-ell.json"
    path.write_text(json.dumps({"ell": 1000000007, "dim": 1, "generators": [[[2]]],
                                "a": [1], "V": [[1]]}))

    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (2, 3))

    proc = subprocess.run([sys.executable, "-m", "torsionlab", "gl-verify", "--input", str(path)],
                          capture_output=True, text=True, timeout=30, preexec_fn=limit,
                          env=child_env())
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "error: cap-exceeded: subspace lattice 1000000007^1 exceeds cap 3125 "
        "(required 1000000007)"
    ]


def _limited_child(argv, cpu_seconds=2, address_space_mib=512, program=("-m", "torsionlab")):
    """``python -m torsionlab argv`` (or ``python *program argv``) under a
    CPU-second and address-space limit, so that a missing cap fails the test
    instead of exhausting the host."""
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds + 1))
        limit_bytes = address_space_mib << 20
        resource.setrlimit(resource.RLIMIT_AS, (limit_bytes, limit_bytes))

    return subprocess.run([sys.executable, *program] + argv, capture_output=True,
                          text=True, timeout=max(30, 2 * cpu_seconds), preexec_fn=limit,
                          env=child_env())


def test_lang_orbit_of_huge_order_fails_fast():
    proc = _limited_child(["lang-orbit", "--N", "1000000007", "--g", "1", "--point", "1,0",
                           "--c", "1"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: cap-exceeded: orbit scan over the units mod 1000000007 exceeds cap 20736 "
        "(required 1000000007)"
    ]


@pytest.mark.parametrize("ell, line", [
    (2 ** 61 - 1, "dim must be positive"),
    (2 ** 61, "ell must be prime, got %d" % 2 ** 61),
    (2 ** 89 - 1, "ell of 89 bits exceeds 2^64, the limit of the primality test"),
], ids=["prime-2^61-1", "composite-2^61", "prime-2^89-1"])
def test_gl_verify_tests_a_large_ell_fast(tmp_path, ell, line):
    # dim 0 skips the lattice cap; with ell = 2^61 - 1 the primality test by
    # trial division up to sqrt(ell) was killed at 10 CPU s
    path = tmp_path / "large_ell.json"
    path.write_text(json.dumps({"ell": ell, "dim": 0, "generators": [], "a": [], "V": []}))
    proc = _limited_child(["gl-verify", "--input", str(path)])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == ["error: validation: " + line]


def test_gl_verify_reads_a_2m_digit_ell_fast(tmp_path):
    # an ell of 2 000 000 digits, the most main's digit limit admits, is read
    # by halves and refused by its bit length; read by int() it was killed
    # at 10 CPU s.  One digit more is refused by the limit, as before
    path = tmp_path / "long_ell.json"
    body = ', "dim": 0, "generators": [], "a": [], "V": []}'
    path.write_text('{"ell": ' + "7" * 2_000_000 + body)
    proc = _limited_child(["gl-verify", "--input", str(path)], cpu_seconds=4)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == [
        "error: validation: ell of 6643856 bits exceeds 2^64, the limit of the primality test"]
    path.write_text('{"ell": ' + "7" * 2_000_001 + body)
    proc = _limited_child(["gl-verify", "--input", str(path)], cpu_seconds=4)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines()[-1] == (
        "ValueError: Exceeds the limit (2000000 digits) for integer string conversion: "
        "value has 2000001 digits; use sys.set_int_max_str_digits() to increase the limit")


def _point(n):
    return ",".join(["1"] + ["0"] * (n - 1))


def _one_point_closure(N, g, total):
    return ('{"N":%d,"c":1,"component_count":1,"components":[{"N":%d,"basis":[],"g":%d,'
            '"order":%d,"point":[%s]}],"g":%d,"total_points":%d}\n'
            % (N, N, g, N, _point(2 * g), g, total))


#: all of (Z/2)^12, the set of the one refusal below
_WHOLE_2_6 = ";".join(",".join(map(str, p)) for p in itertools.product(range(2), repeat=12))


@pytest.mark.parametrize("argv, code, out", [
    (["special-closure", "--N", "2", "--g", "5", "--points", _point(10), "--c", "1"],
     0, _one_point_closure(2, 5, 1)),
    (["special-closure", "--N", "3", "--g", "4", "--points", _point(8), "--c", "1"],
     0, _one_point_closure(3, 4, 2)),
    (["special-closure", "--N", "2", "--g", "6", "--points", _point(12), "--c", "1"],
     0, _one_point_closure(2, 6, 1)),
    (["keyprop-witness", "--N", "2", "--g", "5", "--set", _point(10), "--a", _point(10),
      "--c", "1", "--delta-cap", "5"],
     0, '{"N":2,"alpha":[%s],"basis":[],"g":5,"order":2,"within_cap":true}\n' % _point(10)),
    (["keyprop-witness", "--N", "2", "--g", "6", "--set", _WHOLE_2_6, "--a", _point(12),
      "--c", "1", "--delta-cap", "5"],
     2, "error: cap-exceeded: summands of (Z/2)^12 within the set number 1048577 by rank 2, "
        "beyond cap 1048576 (required 1048577)\n"),
], ids=["special-closure-2-5", "special-closure-3-4", "special-closure-2-6",
        "keyprop-witness-2-5", "keyprop-witness-whole-2-6"])
def test_catalog_past_its_size_cap_is_refused_before_it_is_built(argv, code, out):
    # each was killed at 10 CPU s under 1 GiB while it built whole catalogs,
    # then refused by their closed-form counts (0.2 CPU s on a 2-vCPU VM); a
    # one-point input builds no catalog and answers from the zero summand.
    # V = all of (Z/2)^12 admits every summand: its count passes the cap in
    # the first pivot set of rank 2, and it is refused there
    proc = _limited_child(argv)
    want = (code, out, "") if code == 0 else (code, "", out)
    assert (proc.returncode, proc.stdout, proc.stderr) == want


# the 16 points after 0 in product order: (0,0,0,0,0,1) ... (0,0,0,1,0,0)
_SIXTEEN = ";".join(",".join(map(str, p))
                    for p in list(itertools.product(range(4), repeat=6))[1:17])


@pytest.mark.parametrize("N, g, points, stdout", [
    (4, 3, _point(6),
     '{"N":4,"c":1,"component_count":1,"components":[{"N":4,"basis":[],"g":3,'
     '"order":4,"point":[1,0,0,0,0,0]}],"g":3,"total_points":2}\n'),
    (2, 4, _point(8),
     '{"N":2,"c":1,"component_count":1,"components":[{"N":2,"basis":[],"g":4,'
     '"order":2,"point":[1,0,0,0,0,0,0,0]}],"g":4,"total_points":1}\n'),
    (4, 3, _SIXTEEN,
     '{"N":4,"c":1,"component_count":10,"components":['
     '{"N":4,"basis":[],"g":3,"order":4,"point":[0,0,0,0,0,1]},'
     '{"N":4,"basis":[],"g":3,"order":2,"point":[0,0,0,0,0,2]},'
     '{"N":4,"basis":[],"g":3,"order":4,"point":[0,0,0,0,1,0]},'
     '{"N":4,"basis":[],"g":3,"order":4,"point":[0,0,0,0,1,1]},'
     '{"N":4,"basis":[],"g":3,"order":4,"point":[0,0,0,0,1,2]},'
     '{"N":4,"basis":[],"g":3,"order":4,"point":[0,0,0,0,1,3]},'
     '{"N":4,"basis":[],"g":3,"order":2,"point":[0,0,0,0,2,0]},'
     '{"N":4,"basis":[],"g":3,"order":4,"point":[0,0,0,0,2,1]},'
     '{"N":4,"basis":[],"g":3,"order":2,"point":[0,0,0,0,2,2]},'
     '{"N":4,"basis":[],"g":3,"order":4,"point":[0,0,0,1,0,0]}'
     '],"g":3,"total_points":17}\n'),
], ids=["4-3", "2-4", "4-3-sixteen-points"])
def test_largest_catalogs_under_the_size_cap_still_answer(N, g, points, stdout):
    # one point reads the zero summand alone; the sixteen points make a
    # 17-point target, whose difference set holds the basis of 19 of the
    # 166 656 rank-2 summands, and only those are built: 0.16 CPU s on a
    # 2-vCPU VM, 0.37 s when the whole rank-2 catalog was read
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab", "special-closure", "--N", str(N), "--g", str(g),
         "--points", points, "--c", "1"],
        capture_output=True, text=True, timeout=120, env=child_env())
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", stdout)


def test_one_point_closure_builds_no_catalog_it_cannot_use():
    # ranks 2 and 4 of (Z/5)^6 hold 508 431 summands each, and no coset of
    # one fits in a 4-point orbit; building them took 4.6-6.5 CPU s and 166 MB
    proc = _limited_child(["special-closure", "--N", "5", "--g", "3", "--points", _point(6),
                           "--c", "1"])
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", (
        '{"N":5,"c":1,"component_count":1,"components":[{"N":5,"basis":[],"g":3,'
        '"order":5,"point":[1,0,0,0,0,0]}],"g":3,"total_points":4}\n'))


def test_closure_on_the_trivial_group_is_the_zero_subgroup():
    proc = _limited_child(["special-closure", "--N", "1", "--g", "1", "--points", "0,0",
                           "--c", "1"])
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", (
        '{"N":1,"c":1,"component_count":1,"components":[{"N":1,"basis":[],"g":1,'
        '"order":1,"point":[0,0]}],"g":1,"total_points":1}\n'))


def test_cover_search_over_sixteen_single_point_atoms_answers():
    # at N = 2 every orbit is one point, so the 16 points after 0 in product
    # order are 16 atoms; the unmemoised cover search took 35.4 CPU s here,
    # the search that remembers failed uncovered masks 1.2-1.5 CPU s (2-vCPU VM)
    points = ";".join(",".join(map(str, p))
                      for p in list(itertools.product(range(2), repeat=8))[1:17])
    proc = _limited_child(["special-closure", "--N", "2", "--g", "4", "--points", points,
                           "--c", "1"], cpu_seconds=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == (
        '{"N":2,"c":1,"component_count":6,"components":['
        '{"N":2,"basis":[[0,0,0,0,0,1,0,0],[0,0,0,0,0,0,1,1]],"g":4,"order":2,'
        '"point":[0,0,0,0,0,0,0,1]},'
        '{"N":2,"basis":[[0,0,0,0,0,1,0,1],[0,0,0,0,0,0,1,0]],"g":4,"order":2,'
        '"point":[0,0,0,0,0,0,0,1]},'
        '{"N":2,"basis":[[0,0,0,0,0,1,0,1],[0,0,0,0,0,0,1,1]],"g":4,"order":2,'
        '"point":[0,0,0,0,0,0,0,1]},'
        '{"N":2,"basis":[[0,0,0,0,0,0,1,0],[0,0,0,0,0,0,0,1]],"g":4,"order":2,'
        '"point":[0,0,0,0,1,0,0,0]},'
        '{"N":2,"basis":[[0,0,0,0,0,0,1,0],[0,0,0,0,0,0,0,1]],"g":4,"order":2,'
        '"point":[0,0,0,0,1,1,0,0]},'
        '{"N":2,"basis":[],"g":4,"order":2,"point":[0,0,0,1,0,0,0,0]}'
        '],"g":4,"total_points":16}\n')


def _thirty_two_point_closure(g):
    """The stdout of special-closure on the 32 points after 0 in product
    order of (Z/2)^(2g), g >= 3: the four rank-4 blocks through the last
    coordinate that ``special_closure``'s tie-breaks pick, then e_(2g-5)."""
    pad = [0] * (2 * g - 6)
    top = [[0, 1, 0, 0, 0, 1], [0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 0, 1], [0, 0, 0, 0, 1, 1]]
    bases = [[row[:] for row in top] for _ in range(4)] + [top]
    for i in range(4):
        bases[i][i][5] = 0
    comps = [{"N": 2, "basis": [pad + row for row in basis], "g": g, "order": 2,
              "point": pad + [0, 0, 0, 0, 0, 1]} for basis in bases]
    comps.append({"N": 2, "basis": [], "g": g, "order": 2, "point": pad + [1, 0, 0, 0, 0, 0]})
    return json.dumps({"N": 2, "c": 1, "component_count": 6, "components": comps, "g": g,
                       "total_points": 32}, separators=(",", ":"), sort_keys=True) + "\n"


@pytest.mark.parametrize("g", [3, 5])
def test_cover_search_over_thirty_two_single_point_atoms_answers(g):
    # the 32 points after 0 in product order of (Z/2)^6 and (Z/2)^10: 32
    # atoms and 1148 candidate blocks on (Z/2)^6.  Both were killed, on
    # (Z/2)^6 at 40 CPU s and on (Z/2)^10 at 10 CPU s, until a node skipped
    # the blocks that cover nothing beyond what a failed block covered;
    # 0.3-0.4 CPU s each with it (2-vCPU VM)
    points = ";".join(",".join(map(str, p))
                      for p in list(itertools.product(range(2), repeat=2 * g))[1:33])
    proc = _limited_child(["special-closure", "--N", "2", "--g", str(g), "--points", points,
                           "--c", "1"], cpu_seconds=5)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", _thirty_two_point_closure(g))


#: counts the summands within the whole of (Z/N)^(2g), every rank allowed:
#: prints the count, or "refused" and the count the refusal reached
_WHOLE_AMBIENT = """
import sys
from torsionlab.cosets import ModelAmbient, summands_within
from torsionlab.errors import CapExceededError
amb = ModelAmbient(int(sys.argv[1]), int(sys.argv[2]))
try:
    print(sum(1 for _ in summands_within(amb, set(amb.elements()), amb.order)))
except CapExceededError as exc:
    print("refused", exc.required)
"""


@pytest.mark.parametrize("N, g, out", [
    (2, 5, "refused 16951468"), (2, 6, "refused 1048577"), (2, 7, "refused 16777217"),
    (3, 4, "refused 43942982"), (5, 3, "1016864"),
])
def test_summands_within_the_whole_ambient_are_bounded(N, g, out):
    # the cases that tests/test_cosets.py leaves to a child: each answers
    # with every catalog, (Z/5)^6 with 2 x 508 431 + 2 summands, or is
    # refused where its running count passes 2^20, before a summand is made
    proc = _limited_child([str(N), str(g)], cpu_seconds=5, program=("-c", _WHOLE_AMBIENT))
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", out + "\n")


#: runs special-closure cases through cli.main in one process: argv[1] is a
#: JSON list of argument lists; prints [exit code or null, stderr] per case
_IN_PROCESS_CASES = """
import contextlib, io, json, sys, traceback
from torsionlab.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception:
            code = None
            traceback.print_exc()
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def test_special_closure_answers_or_refuses_on_every_small_ambient():
    # every (N, g) with N^(2g) <= 20736 and g <= 7, with the point e_1 and the
    # points {e_1, (1, ..., 1)}: 340 cases, 2.5 CPU s on a 2-vCPU VM
    cases = []
    for g in range(1, 8):
        for N in itertools.takewhile(lambda N: N ** (2 * g) <= 20736, itertools.count(1)):
            for points in (_point(2 * g), _point(2 * g) + ";" + ",".join(["1"] * (2 * g))):
                cases.append(["special-closure", "--N", str(N), "--g", str(g),
                              "--points", points, "--c", "1"])
    assert len(cases) == 340
    proc = _limited_child([json.dumps(cases)], cpu_seconds=30,
                          program=("-c", _IN_PROCESS_CASES))
    assert (proc.returncode, proc.stderr) == (0, "")
    results = json.loads(proc.stdout)
    assert len(results) == len(cases)
    for argv, (code, stderr) in zip(cases, results):
        assert (code, stderr) == (0, "") or (
            code == 2 and len(stderr.splitlines()) == 1
            and stderr.startswith("error: cap-exceeded: ")), (argv, code, stderr)


def test_jacobsthal_search_past_its_cap_fails_fast():
    # the primorial of the first 12 primes; the refusal took 2.0 CPU s on a
    # 2-vCPU VM, interpreter start-up included
    proc = _limited_child(["jacobsthal", "7420738134810"], cpu_seconds=8)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: cap-exceeded: g(7420738134810) covering search exceeds cap 10000000 nodes "
        "(required 10000011)"
    ]


@pytest.mark.parametrize("argv, report", [
    (["jacobsthal", "1000000007"], {"d": 1000000007, "g": 2, "kanold": 2}),
    (["jacobsthal", "100000000000"], {"d": 100000000000, "g": 4, "kanold": 4}),
    (["coprime-shift", "1", "1", "18446744073709551557"], {"k": 0, "value": 1, "bound": 2}),
])
def test_big_integer_inputs_answer_within_a_cpu_second(argv, report):
    proc = _limited_child(argv, cpu_seconds=1)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == report


def test_factoring_two_primes_near_2_to_32_within_a_cpu_second():
    # 4294967279 * 4294967291, the hardest split for rho below 2^64, is factored
    # before g is searched: 0.07 s of factoring and 0.27 s in all on a 2-vCPU VM
    proc = _limited_child(["jacobsthal", "18446743979220271189"], cpu_seconds=1)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"d": 18446743979220271189, "g": 3, "kanold": 4}


@pytest.mark.parametrize("D, Delta, c", [(2, 3, 3), (2, 3, 1), (10, 3, 2), (5, 3, 1), (2, 4, 3)])
def test_delta_bound_past_the_bit_budget_fails_fast(D, Delta, c):
    # each took 0.2 to 0.45 CPU s on a 2-vCPU VM, interpreter start-up
    # included; (2, 4, 3) is refused at its iterate f_4, the others at the
    # violation region's pre-check
    proc = _limited_child(["delta-bound", "--D", str(D), "--Delta", str(Delta), "--c", str(c)])
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cap-exceeded: ")


def test_delta_bound_1_2_3_answers_within_two_cpu_seconds():
    # the 1 143 422-bit threshold: the scan from the first class that can lock
    # and the decimal output by binary splitting; stdout recorded before both
    import hashlib

    proc = _limited_child(["delta-bound", "--D", "1", "--Delta", "2", "--c", "3"])
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "c487bff74860d244410a335560456857bb029e35ed13c53d8114eb8a8f3110e2"
    )


def _unit(blocks, bi, i, j):
    return [[[int((k, a, b) == (bi, i, j)) for b in range(n)] for a in range(n)]
            for k, n in enumerate(blocks)]


@pytest.mark.parametrize("m_blocks, n_blocks", [
    ([12], [12]),  # the identity embedding of M_12, a 67 kB input
    ([1], [1] * 17),  # dimension 17: one over the cap
])
def test_algebras_beyond_the_cap_fail_fast(tmp_path, m_blocks, n_blocks):
    from torsionlab.algebras import ALGEBRA_DIM_CAP

    required = sum(n * n for n in n_blocks)
    assert required > ALGEBRA_DIM_CAP
    if m_blocks == n_blocks:
        embedding = [_unit(m_blocks, bi, i, j) for bi, n in enumerate(m_blocks)
                     for i in range(n) for j in range(n)]
    else:
        embedding = [[_unit(n_blocks, k, 0, 0)[k] for k in range(len(n_blocks))]]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"M": m_blocks, "N": n_blocks, "embedding": embedding,
                                "u": _unit(n_blocks, 0, 0, 0), "w": _unit(m_blocks, 0, 0, 0)}))
    proc = _limited_child(["idempotent-lift", "--input", str(path)])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: cap-exceeded: algebra of dimension %d exceeds cap %d (required %d)"
        % (required, ALGEBRA_DIM_CAP, required)
    ]


def test_many_small_blocks_under_the_cap_answer_fast(tmp_path):
    # sixteen 1x1 blocks: the most matrix-unit products any algebra under the
    # cap makes its representation check; it must answer, not just fit the cap
    blocks = [1] * 16
    embedding = [_unit(blocks, bi, 0, 0) for bi in range(16)]
    path = tmp_path / "blocks.json"
    path.write_text(json.dumps({"M": blocks, "N": blocks, "embedding": embedding,
                                "u": _unit(blocks, 0, 0, 0), "w": _unit(blocks, 0, 0, 0)}))
    proc = _limited_child(["idempotent-lift", "--input", str(path)])
    assert proc.returncode == 0, proc.stderr
    doc = validate(proc.stdout)
    assert doc["idempotent"] is True


def _dense_representation_input(s):
    """idempotent-lift input for sixteen 1x1 blocks acting on Q^s, the images
    conjugated by a random unit-triangular integer matrix P: the most
    products any algebra under the cap makes its check, on dense images."""
    rng = random.Random(3)
    P = [[int(i == j) if j <= i else rng.randint(-3, 3) for j in range(s)] for i in range(s)]
    P_inv = [[int(i == j) for j in range(s)] for i in range(s)]
    for i in range(s - 1, -1, -1):
        for j in range(i + 1, s):
            P_inv[i] = [x - P[i][j] * y for x, y in zip(P_inv[i], P_inv[j])]
    cuts = [k * s // 16 for k in range(17)]
    images = []
    for k in range(16):
        # P e_k P^-1 for the projection e_k onto coordinates cuts[k]..cuts[k+1]
        m = [[0] * s for _ in range(s)]
        for i in range(cuts[k], cuts[k + 1]):
            for r in range(s):
                if P[r][i]:
                    m[r] = [x + P[r][i] * y for x, y in zip(m[r], P_inv[i])]
        images.append(m)
    blocks = [1] * 16
    return {"M": blocks, "N": blocks,
            "embedding": [_unit(blocks, bi, 0, 0) for bi in range(16)],
            "u": _unit(blocks, 0, 0, 0), "w": _unit(blocks, 0, 0, 0),
            "representation": {"images": images, "space_dim": s}}


def test_representation_at_the_cap_answers_fast(tmp_path):
    from torsionlab.algebras import REPRESENTATION_DIM_CAP

    path = tmp_path / "dense.json"
    path.write_text(json.dumps(_dense_representation_input(REPRESENTATION_DIM_CAP)))
    proc = _limited_child(["idempotent-lift", "--input", str(path)])
    assert proc.returncode == 0, proc.stderr
    assert validate(proc.stdout)["idempotent"] is True


@pytest.mark.parametrize("excess", [1, 10 ** 30])
def test_representation_beyond_the_cap_fails_before_its_images_are_parsed(tmp_path, excess):
    from torsionlab.algebras import REPRESENTATION_DIM_CAP

    space_dim = REPRESENTATION_DIM_CAP + excess
    doc = _dense_representation_input(16)
    # an unparsable entry: the refusal comes first
    doc["representation"] = {"images": [[["x"]]] * 16, "space_dim": space_dim}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    proc = _limited_child(["idempotent-lift", "--input", str(path)])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error: cap-exceeded: representation on Q^%d exceeds cap %d (required %d)"
        % (space_dim, REPRESENTATION_DIM_CAP, space_dim)
    ]


def test_gl_verify_huge_dim_refused_without_the_power(tmp_path, capsys):
    path = tmp_path / "huge-dim.json"
    path.write_text(json.dumps({"ell": 3, "dim": 10 ** 12, "generators": [],
                                "a": [1], "V": [[1]]}))
    code, out, err = run_cli(["gl-verify", "--input", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: cap-exceeded:")


@pytest.mark.parametrize("command", ["gl-verify", "idempotent-lift", "idempotent-lift-central"])
@pytest.mark.parametrize("content", ['{"ell": 5, "dim": 1, "generators": [[[2]]', "[1, 2]", ""])
def test_malformed_input_is_a_validation_error(tmp_path, capsys, command, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: validation:")


@pytest.mark.parametrize("field, value", [("ell", "5"), ("ell", 5.0), ("dim", "1"),
                                          ("dim", True), ("ell", None)])
def test_gl_verify_non_integer_ell_dim(tmp_path, capsys, field, value):
    payload = {"ell": 5, "dim": 1, "generators": [[[2]]], "a": [1], "V": [[1]]}
    payload[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["gl-verify", "--input", str(path)], capsys)
    assert code == 1
    assert err.startswith("error: validation: %r must be an integer" % field)


GL_INSTANCE = {"ell": 5, "dim": 1, "generators": [[[2]]], "a": [1], "V": [[1]]}
LIFT_INSTANCE = {"M": [1], "N": [2], "embedding": [[[[1, 0], [0, 1]]]],
                 "u": [[[1, 0], [0, 0]]], "w": [[[0]]], "pi": [[[0, 0], [0, 0]]]}


@pytest.mark.parametrize("command, field, value", [
    ("gl-verify", "generators", "x"),
    ("gl-verify", "generators", [[["2"]]]),
    ("gl-verify", "a", ["q"]),
    ("gl-verify", "V", 7),
    ("gl-verify", "V", [[1, 0]]),
    ("gl-verify", "C", "abc"),
    ("gl-verify", "C", [1, 0]),
    ("idempotent-lift", "M", "ab"),
    ("idempotent-lift", "N", 3),
    ("idempotent-lift", "embedding", 3),
    ("idempotent-lift", "u", [5]),
    ("idempotent-lift", "w", [[["x"]]]),
    ("idempotent-lift", "representation", 3),
    ("idempotent-lift", "representation", {"images": 1, "space_dim": 2}),
    ("idempotent-lift", "representation", {"images": [], "space_dim": "2"}),
    ("idempotent-lift-central", "pi", "x"),
])
def test_wrongly_typed_field_is_one_validation_line(tmp_path, capsys, command, field, value):
    payload = dict(GL_INSTANCE if command == "gl-verify" else LIFT_INSTANCE)
    if command == "idempotent-lift":
        del payload["pi"]
    payload[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli([command, "--input", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: validation:")


def test_output_byte_identical(capsys):
    code1, out1, _ = run_cli(["delta-bound", "--D", "2", "--Delta", "2", "--c", "1"], capsys)
    code2, out2, _ = run_cli(["delta-bound", "--D", "2", "--Delta", "2", "--c", "1"], capsys)
    assert code1 == code2 == 0
    assert out1 == out2


@pytest.mark.parametrize("argv", [
    ["jacobsthal", "abc"],
    ["delta-bound", "--D", "2"],
    ["no-such-command"],
    ["--format", "xml", "jacobsthal", "3"],
    [],
    ["jacobsthal", "9" * 2_000_001],  # past the digit limit that main sets
], ids=["bad-int", "missing-option", "unknown-command", "bad-format", "empty", "too-many-digits"])
def test_argument_errors_are_one_validation_line(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: validation:")
    assert len(err) < 400  # the offending argument is quoted in part


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "idempotent-lift" in capsys.readouterr().out


def _benchmark_cli_argvs(seed: int) -> list[list[str]]:
    """The argvs of the cli requests that perfbench/gen.py draws at ``seed``."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    import gen

    from torsionlab import bounds

    def final_delta(D, Delta, c):
        return bounds.final_delta(bounds.BoundParams(D=D, Delta=Delta, c=c))

    return [r["argv"] for r in gen.thresholds(seed, final_delta) if r["kind"] == "cli"]


def test_shared_parser_leaks_no_state(capsys):
    argvs = _benchmark_cli_argvs(7) + _benchmark_cli_argvs(8)
    random.Random(0).shuffle(argvs)
    csv = next(a for a in argvs if a[:2] == ["--format", "csv"])
    default = next(a for a in argvs if a[0] != "--format")
    # a csv call just before a default-format one, usage errors just before a valid one
    order = [csv, default, ["jacobsthal", "abc"], ["--format", "xml", "jacobsthal", "3"]] + argvs
    build_parser.cache_clear()
    got = []
    for argv in order:
        code = main(argv)
        got.append((code, capsys.readouterr().out))
    assert build_parser.cache_info().misses == 1
    assert sum(code == 1 for code, _ in got) == 2
    fresh = {}
    for argv in map(tuple, order):
        if argv not in fresh:
            proc = subprocess.run([sys.executable, "-m", "torsionlab", *argv],
                                  capture_output=True, text=True, env=child_env())
            fresh[argv] = (proc.returncode, proc.stdout)
    for argv, outcome in zip(order, got):
        assert outcome == fresh[tuple(argv)], argv


def test_csv_and_text_formats(capsys):
    code, out, _ = run_cli(["--format", "csv", "jacobsthal", "10"], capsys)
    assert code == 0
    assert "d,10" in out and "g,4" in out
    code, out, _ = run_cli(["--format", "text", "jacobsthal", "10"], capsys)
    assert code == 0
    assert "g = 4" in out


def test_console_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "torsionlab", "jacobsthal", "12"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"d": 12, "g": 4, "kanold": 4}


def _importable_modules() -> list[str]:
    import pkgutil

    return ["torsionlab." + m.name for m in pkgutil.iter_modules(torsionlab.__path__)
            if m.name != "__main__"]  # importing __main__ runs the CLI


def test_every_module_imports_without_numpy():
    # numpy and sympy are test dependencies only; a child that cannot import
    # them must still import the whole package
    names = _importable_modules()
    assert "torsionlab.selfcheck" in names
    code = ("import sys\nsys.modules['numpy'] = sys.modules['sympy'] = None\nimport %s\n"
            % ", ".join(names))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_importing_leaves_the_int_digit_limit_alone():
    # only cli.main raises the interpreter's int/str digit limit
    code = ("import sys\nbefore = sys.get_int_max_str_digits()\nimport %s\n"
            "assert sys.get_int_max_str_digits() == before\n" % ", ".join(_importable_modules()))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr


def test_selftest_single_criterion(capsys):
    code, out, err = run_cli(["selftest", "--criteria", "3"], capsys)
    assert code == 0
    doc = validate(out)
    assert doc["passed"] is True
    assert doc["criteria"][0]["index"] == 3
    assert "criterion 3 [PASS]" in err
