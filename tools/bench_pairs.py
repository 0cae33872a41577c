"""Compare a parent commit with the working tree on the benchmark, in pairs.

Run from the root of a torsionlab checkout:

    python3 tools/bench_pairs.py --parent HEAD~1 --claim finite-models.setup_s \\
        --out BENCH_20.json

The change is the working tree's files that git tracks or would track
(modified and untracked files included, ignored files left out); the parent
is ``git archive`` of ``--parent``.  Each is extracted once into a new
temporary directory (under ``TMPDIR``) and copied afresh for every run, so
no run sees another's ``__pycache__``; the directory is removed at the end.

1. Pairs: for seed S = 0 .. 9, one ``perfbench/run.py --workload all
   --seed S --seconds T --trace 0`` per side, T being BENCHMARK.json's
   ``run_seconds``, the change first on even seeds and the parent first on
   odd ones.
2. Setup-only samples: per workload, one fresh copy per side, one untimed
   ``perfbench/worker.py --setup-only`` process per copy to write its
   bytecode, then 20 processes per side, alternating.
   Each records ``setup_s`` as the worker measures it (from just before
   the spawn) and the child's user + system CPU seconds.
3. Layers: one traced pass per side and workload, ``perfbench/run.py
   --workload W --seed 3 --seconds 5 --trace 1``.

The JSON written to ``--out`` holds per end-to-end metric and workload each
side's median, quartiles and extremes, the number of pairs the change won
(by the metric's direction in BENCHMARK.json; ties count for neither side),
the change's median relative to the parent's and the parent's interquartile
range relative to its median, and every run's value.  A metric whose parent
spread is wider than its bound is listed as unresolved.  ``--claim
WORKLOAD.METRIC`` names a claimed gain, judged as met when the change wins
at least 9 of the 10 pairs and its median is better by more than the
parent's interquartile range.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

WORKLOADS = ["finite-models", "exact-arithmetic"]
PAIRS = 10
SETUP_SAMPLES = 20


def _git(*args, cwd=None) -> bytes:
    return subprocess.run(["git", *args], cwd=cwd, check=True, stdout=subprocess.PIPE).stdout


def extract_parent(rev: str, dest: str) -> str:
    data = _git("archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest)
    return _git("rev-parse", rev).decode().strip()


def extract_worktree(dest: str) -> None:
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, (n.decode() for n in names)):
        if os.path.isfile(name):
            os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(name, os.path.join(dest, name))


def fresh_copy(pristine: str, scratch: str, label: str) -> str:
    path = tempfile.mkdtemp(prefix=label + "-", dir=scratch)
    shutil.copytree(pristine, path, dirs_exist_ok=True)
    return path


def run_bench(root: str, args: list[str], timeout: float) -> tuple[dict, list[str]]:
    """(summary, output digests in workload order) of one perfbench/run.py."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("error: perfbench/run.py %s exited with %d" % (args, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    digests = [line.split()[1] for line in lines if line.startswith("output_sha256 ")]
    return json.loads(lines[-1]), digests


def setup_sample(root: str, workload: str) -> tuple[float, float]:
    """(setup_s, child CPU s) of one setup-only worker process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    cmd = [sys.executable, "perfbench/worker.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--setup-only", "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit("error: setup-only %s worker exited with %d" % (workload, proc.returncode))
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"], cpu


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "min": round(min(values), 6), "max": round(max(values), 6)}


def compare(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    sign = -1 if lower_is_better else 1
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    p, c = spread(parent), spread(change)
    return {
        "parent": p,
        "change": c,
        "change_better_pairs": wins,
        "pairs": len(parent),
        "change_vs_parent_median": round((c["median"] - p["median"]) / p["median"], 4)
        if p["median"] else None,
        "parent_iqr_over_median": round((p["q3"] - p["q1"]) / p["median"], 4)
        if p["median"] else None,
    }


def judge_claim(row: dict, lower_is_better: bool) -> dict:
    """A claimed gain is met when the change wins at least 9 of PAIRS pairs
    and its median is better by more than the parent's interquartile range;
    a ``compare`` row of fewer pairs meets nothing."""
    gap = row["change"]["median"] - row["parent"]["median"]
    iqr = row["parent"]["q3"] - row["parent"]["q1"]
    return {
        "met": row["pairs"] >= PAIRS and row["change_better_pairs"] * 10 >= 9 * row["pairs"]
        and (-gap if lower_is_better else gap) > iqr,
        "change_better_pairs": row["change_better_pairs"],
        "median_gap": round(abs(gap), 6),
        "parent_iqr": round(iqr, 6),
    }


def src_lines(root: str) -> int:
    pkg = os.path.join(root, "src", "torsionlab")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--claim", action="append", default=[], metavar="WORKLOAD.METRIC")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile("BENCHMARK.json"):
        print("error: run from the root of a torsionlab checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    pristine = {"parent": os.path.join(scratch, "pristine-parent"),
                "change": os.path.join(scratch, "pristine-change")}
    for path in pristine.values():
        os.makedirs(path)
    parent_commit = extract_parent(args.parent, pristine["parent"])
    extract_worktree(pristine["change"])

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    runs = {"%s.%s" % (w, m): {"parent": [], "change": []} for w in WORKLOADS for m in metrics}
    digests = {"parent": [], "change": []}
    correct = True
    timeout = 2 * 175 + 4 * seconds
    for seed in range(PAIRS):
        order = ["change", "parent"] if seed % 2 == 0 else ["parent", "change"]
        for side in order:
            root = fresh_copy(pristine[side], scratch, side)
            summary, out = run_bench(root, ["--workload", "all", "--seed", str(seed),
                                            "--seconds", str(seconds), "--trace", "0"],
                                     timeout)
            shutil.rmtree(root)
            correct = correct and summary["correct"]
            digests[side].append(out)
            for name, series in runs.items():
                series[side].append(summary["metrics"][name]["value"])
            log("seed %d %s: %s" % (seed, side, ", ".join(
                "%s %.4g" % (n, summary["metrics"][n]["value"]) for n in sorted(runs))))

    setup_only = {"note": "perfbench/worker.py --setup-only --seed 0 from one fresh copy per "
                          "side after one untimed process wrote its bytecode, alternating "
                          "parent and change; setup_s as the worker measures it, from just "
                          "before the spawn, and the child's user + system CPU s"}
    for workload in WORKLOADS:
        roots = {side: fresh_copy(pristine[side], scratch, side) for side in pristine}
        for root in roots.values():
            setup_sample(root, workload)
        wall = {"parent": [], "change": []}
        cpu = {"parent": [], "change": []}
        for k in range(SETUP_SAMPLES):
            for side in (["change", "parent"] if k % 2 == 0 else ["parent", "change"]):
                w, c = setup_sample(roots[side], workload)
                wall[side].append(w)
                cpu[side].append(c)
        for root in roots.values():
            shutil.rmtree(root)
        lower = metrics["setup_s"]["better"] == "lower"
        setup_only[workload] = {
            "processes_per_side": SETUP_SAMPLES,
            "setup_s": compare(wall["parent"], wall["change"], lower),
            "cpu_s": compare(cpu["parent"], cpu["change"], lower),
            "runs": {"setup_s": wall, "cpu_s": cpu},
        }
        log("setup-only %s: parent %.4f s, change %.4f s (medians)" % (
            workload, statistics.median(wall["parent"]), statistics.median(wall["change"])))

    end_to_end, unresolved = {}, []
    for workload in WORKLOADS:
        end_to_end[workload] = {}
        for name, m in metrics.items():
            series = runs["%s.%s" % (workload, name)]
            row = compare(series["parent"], series["change"], m["better"] == "lower")
            end_to_end[workload][name] = row
            if (row["parent_iqr_over_median"] or 0) > m["bound"]:
                unresolved.append("%s.%s" % (workload, name))

    claims = {}
    for claim in args.claim:
        workload, name = claim.split(".", 1)
        claims[claim] = judge_claim(end_to_end[workload][name],
                                    metrics[name]["better"] == "lower")

    result = {
        "parent_commit": parent_commit,
        "commit": "this change, measured as its working tree on top of parent_commit",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "command": "python3 perfbench/run.py --workload all --seed S --seconds %g --trace 0, "
                   "one run per side per seed, alternating which side runs first (change "
                   "first on even seeds, parent first on odd), each run from a fresh copy "
                   "without __pycache__ directories (git archive of the parent, the "
                   "change's working-tree files); no CPU pinning on either side"
                   % seconds,
        "seeds": [0, PAIRS - 1],
        "claimed_gain": claims or None,
        "output_sha256_identical": digests["parent"] == digests["change"],
        "all_answers_correct": correct,
        "end_to_end": end_to_end,
        "runs": runs,
        "setup_only": setup_only,
        "src_lines": {"parent": src_lines(pristine["parent"]),
                      "change": src_lines(pristine["change"])},
        "unresolved": unresolved,
        "layers": layers(pristine, scratch, timeout),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    shutil.rmtree(scratch)
    return 0


def layers(pristine: dict, scratch: str, timeout: float) -> dict:
    """Per-layer metrics of one traced pass per side and workload."""
    out = {"note": "one traced pass each: python3 perfbench/run.py --workload W --seed 3 "
                   "--seconds 5 --trace 1; self times in s (noisy, one pass)"}
    for workload in WORKLOADS:
        values = {}
        for side in ("parent", "change"):
            root = fresh_copy(pristine[side], scratch, side)
            summary, _ = run_bench(root, ["--workload", workload, "--seed", "3",
                                          "--seconds", "5", "--trace", "1"], timeout)
            shutil.rmtree(root)
            values[side] = {k: v["value"] for k, v in summary["metrics"].items()}
        out[workload] = {name: {"parent": values["parent"][name],
                                "change": values["change"].get(name)}
                         for name in values["parent"]}
    return out


if __name__ == "__main__":
    sys.exit(main())
