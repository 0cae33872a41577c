"""A committed output corpus: seeded CLI invocations and the digests of what
they print.

The invocations are built from the requests that ``perfbench/gen.py`` draws
at the seeds in ``SEEDS``:

- ``idempotent-lift``: the ``lift`` and ``user_rep`` requests of
  ``gen.idempotent_lift``, the latter with its representation;
- ``idempotent-lift-central``: its ``lift_central`` requests;
- ``special-closure`` and ``keyprop-witness``: the ``special_closure`` and
  ``keyprop_witness`` requests of ``gen.finite_models``.

A record is (exit code, stdout, stderr) of one ``cli.main`` call.  Input
files are written under fixed relative names in the working directory, so
that no record depends on where the corpus runs.  ``corpus_digests.json``
holds, per subcommand, the sha256 of all its records, the counts of its
answers, validation errors, refusals and internal errors, and a short hash
of each record, by which a mismatch is traced to its argv.

Record the digests from the repository root with
``PYTHONPATH=src python tests/corpus.py``; that rewrites
``tests/corpus_digests.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "corpus_digests.json")
SEEDS = range(4)

#: exit code -> the name of its count
OUTCOMES = {0: "answers", 1: "validation_errors", 2: "refusals", 3: "internal_errors"}


def _gen():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))
    import gen

    return gen


def _rat(x) -> list[int]:
    return [x.numerator, x.denominator]


def _mat(m) -> list:
    return [[_rat(x) for x in row] for row in m]


def _elem(x) -> list:
    return [_mat(block) for block in x]


def _lift_case(seed: int, i: int, req: dict):
    """(subcommand, argv, (file name, file text)) of an idempotent-lift request."""
    data = {"M": req["M"], "N": req["N"], "embedding": [_elem(x) for x in req["images"]],
            "u": _elem(req["u"]), "w": _elem(req["w"])}
    command = "idempotent-lift"
    if req["kind"] == "lift_central":
        command += "-central"
        data["pi"] = _elem(req["pi"])
    if req["kind"] == "user_rep":
        data["representation"] = {"images": [_mat(m) for m in req["rep"]],
                                  "space_dim": sum(req["N"])}
    name = "%s-%d-%d.json" % (req["kind"], seed, i)
    return command, [command, "--input", name], (name, json.dumps(data))


def _points(vectors) -> str:
    return ";".join(",".join(map(str, v)) for v in vectors)


def _model_case(req: dict):
    """(subcommand, argv, None) of a special-closure or keyprop-witness request;
    a witness's delta cap is N // 2, so that both verdicts occur."""
    shape = ["--N", str(req["N"]), "--g", str(req["g"]), "--c", str(req["c"])]
    if req["kind"] == "special_closure":
        return "special-closure", ["special-closure", *shape, "--points", _points(req["S"])], None
    return "keyprop-witness", ["keyprop-witness", *shape, "--set", _points(req["V"]),
                               "--a", _points([req["a"]]), "--delta-cap", str(req["N"] // 2)], None


def cases() -> list[tuple[str, list[str], tuple[str, str] | None]]:
    """Every (subcommand, argv, input file or None) of the corpus, in order."""
    gen = _gen()
    out = []
    for seed in SEEDS:
        out += [_lift_case(seed, i, req) for i, req in enumerate(gen.idempotent_lift(seed))
                if req["kind"] in ("lift", "lift_central", "user_rep")]
        out += [_model_case(req) for req in gen.finite_models(seed)
                if req["kind"] in ("special_closure", "keyprop_witness")]
    return out


def record(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process."""
    from torsionlab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run(workdir: str) -> dict[str, list[tuple[list[str], tuple[int, str, str]]]]:
    """subcommand -> its (argv, record) pairs, input files written in ``workdir``
    and every argv run from there."""
    runs: dict[str, list] = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for command, argv, infile in cases():
            if infile is not None:
                with open(infile[0], "w") as fh:
                    fh.write(infile[1])
            runs.setdefault(command, []).append((argv, record(argv)))
    finally:
        os.chdir(cwd)
    return runs


def short_hash(rec: tuple[int, str, str]) -> str:
    return hashlib.sha256(json.dumps(rec).encode()).hexdigest()[:12]


def digests(runs) -> dict:
    """The digest entry of each subcommand."""
    out = {}
    for command, pairs in sorted(runs.items()):
        recs = [rec for _, rec in pairs]
        counts = {name: sum(rec[0] == code for rec in recs) for code, name in OUTCOMES.items()}
        out[command] = {
            "digest": hashlib.sha256(json.dumps(recs).encode()).hexdigest(),
            **counts,
            "records": [short_hash(rec) for rec in recs],
        }
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = digests(run(tmp))
    with open(DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    for command, entry in table.items():
        print(command, len(entry["records"]), entry["digest"])
