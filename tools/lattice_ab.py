"""Paired A/B runs of a base revision against this checkout.

    python3 tools/lattice_ab.py --base HEAD --pairs 10 --out BENCH.json

Run it from the root of a grouplab checkout.  It extracts the base
revision with ``git archive`` under ``.perfbench/`` and removes it
afterwards.  For each workload it alternates ``perfbench/run.py --trace 0``
runs of the two trees: pair i runs seed i, the base first in odd pairs and
this checkout first in even ones.  Each pair also times
``ElementIndex.subgroups()`` on the desk-bound probes in both trees, with
the Cayley table and the element orders built beforehand.  The ``scale``
section runs the 35 theorems once per tree on each probe, in a fresh
process, the base first on odd probes: it records the seconds of the
lattice and its classes, each theorem's seconds and the sha256 of the
verdict rows, or ``refused`` for a probe over the subgroup bound.

Every run lasts BENCHMARK.json's ``run_seconds``, and run.py checks it
against the digests in perfbench/reference.json.  The JSON it writes holds
every pair's metrics and, for each metric, the median of the paired ratios
(this checkout over the base), the number of pairs in which this checkout
is better, and the median and quartiles of each side.  It adds, once per
tree, the ``extend`` calls of the lattice kernel and ``src.lines``, and the
reference digests, ``nproc`` and the Python version.  It exits 1 if a run
is not ``"correct"`` or has failed operations, or if the two trees' verdict
rows differ on a probe.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("verify-core", "verify-small", "explore-lattice")
PROBES = ("direct(symmetric(5),cyclic(8))",
          "direct(symmetric(4),elementary_abelian(2,3))",
          "direct(elementary_abelian(2,5),cyclic(3))",
          "direct(elementary_abelian(2,5),cyclic(27))",
          "elementary_abelian(2,7)")   # refused at the subgroup bound

# argv[1]: "time" or "count"; argv[2]: a JSON list of group names
PROBE_SCRIPT = r'''
import json, sys, time
from grouplab.catalog import builtin_group
from grouplab.cayley import ElementIndex
from grouplab.errors import BoundExceededError
calls = [0]
if sys.argv[1] == "count":
    extend = ElementIndex.extend
    def counting(*args):
        calls[0] += 1
        return extend(*args)
    ElementIndex.extend = counting
out = {}
for name in json.loads(sys.argv[2]):
    G = builtin_group(name)
    index = ElementIndex(G.elements(), G.generators)
    index.column(0)
    index.orders()
    calls[0] = 0
    started = time.perf_counter()
    try:
        found = len(index.subgroups())
    except BoundExceededError:
        found = None
    seconds = time.perf_counter() - started
    out[name] = ({"extend_calls": calls[0], "subgroups": found}
                 if sys.argv[1] == "count" else seconds)
print(json.dumps(out))
'''

# argv[1]: a group name.  The rows are those of the verdict digest.
SCALE_SCRIPT = r'''
import json, sys, time
from grouplab.catalog import builtin_group
from grouplab.context import context_of
from grouplab.errors import BoundExceededError
from grouplab.theorems import THEOREM_IDS, params_for, verify_case
from perfbench.workloads import sha256_json
name = sys.argv[1]
G = builtin_group(name)
started = time.perf_counter()
try:
    context_of(G).subgroup_classes()
except BoundExceededError:
    print(json.dumps({"refused": True}))
    sys.exit()
out = {"lattice_s": time.perf_counter() - started, "theorem_s": {}}
rows = []
for tid in THEOREM_IDS:
    started = time.perf_counter()
    for params in params_for(G, tid):
        r = verify_case(G, tid, params)
        rows.append([name, tid, json.dumps(params, sort_keys=True), r.verdict,
                     r.hypothesis_value, r.conclusion_value])
    out["theorem_s"][tid] = time.perf_counter() - started
out["theorems_s"] = sum(out["theorem_s"].values())
out["rows"] = sha256_json(rows)
print(json.dumps(out))
'''


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the git revision to compare with")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", required=True, type=Path)
    return ap.parse_args(argv)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def python(tree: Path, *args: str) -> dict:
    """The JSON on the last stdout line of python3 args, run in the tree."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("GROUPLAB_")}
    env["PYTHONPATH"] = str(tree / "src")
    proc = subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{tree}: {' '.join(args[:3])} printed nothing "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def src_lines(tree: Path) -> int:
    return sum(len(f.read_text(encoding="utf-8").splitlines())
               for f in sorted((tree / "src" / "grouplab").glob("*.py")))


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: both sides' medians and quartiles, the median paired ratio
    head/base, and the pairs in which head is better."""
    out = {}
    for name in pairs[0]["base"]:
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        lower = better.get(name, "lower") == "lower"
        out[name] = {
            "base": spread(base), "head": spread(head),
            "median_ratio": statistics.median(
                h / b for b, h in zip(base, head) if b),
            "head_better": sum((h < b) if lower else (h > b)
                               for b, h in zip(base, head)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    head = Path.cwd()
    if not (head / "perfbench" / "run.py").is_file():
        print("error: run from the root of a grouplab checkout", file=sys.stderr)
        return 2
    commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    base = head / ".perfbench" / f"ab-{commit[:12]}"
    spec = json.loads((head / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    trees = {"base": base, "head": head}
    problems = []
    base.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(["git", "archive", commit], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
    try:
        report = {
            "base": {"rev": args.base, "commit": commit},
            "head": {"commit": git("rev-parse", "HEAD"),
                     "modified": bool(git("status", "--porcelain",
                                          "--untracked-files=no"))},
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "pairs": args.pairs, "run_seconds": spec["run_seconds"],
            "reference": json.loads((head / "perfbench" / "reference.json")
                                    .read_text(encoding="utf-8")),
            "workloads": {},
        }
        for workload in WORKLOADS:
            pairs = []
            for seed in range(1, args.pairs + 1):
                order = ("base", "head") if seed % 2 else ("head", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    res = python(trees[side], "perfbench/run.py",
                                 "--workload", workload, "--seed", str(seed),
                                 "--seconds", seconds, "--trace", "0")
                    if not res["correct"] or res["failed"]:
                        problems.append(f"{workload} seed {seed} {side}: "
                                        f"correct={res['correct']} "
                                        f"failed={res['failed']}")
                    pair[side] = {k: v["value"]
                                  for k, v in res["metrics"].items()}
                pairs.append(pair)
                print(f"{workload} pair {seed}: wall_s "
                      f"{pair['base']['wall_s']:.3f} (base) "
                      f"{pair['head']['wall_s']:.3f} (head)", file=sys.stderr)
            report["workloads"][workload] = {
                "pairs": pairs, "summary": summarize(pairs, better)}
        pairs = []
        for seed in range(1, args.pairs + 1):
            order = ("base", "head") if seed % 2 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = python(trees[side], "-c", PROBE_SCRIPT, "time",
                                    json.dumps(PROBES))
            pairs.append(pair)
        report["probes"] = {"pairs": pairs, "summary": summarize(pairs, {})}
        report["scale"] = {}
        for i, name in enumerate(PROBES):
            sides = ("base", "head") if i % 2 == 0 else ("head", "base")
            runs = {side: python(trees[side], "-c", SCALE_SCRIPT, name)
                    for side in sides}
            if runs["base"].get("rows") != runs["head"].get("rows"):
                problems.append(f"scale {name}: the verdict rows differ")
            report["scale"][name] = runs
            print(f"scale {name}: " + " ".join(
                f"{side} {run.get('theorems_s', 'refused')}"
                for side, run in runs.items()), file=sys.stderr)
        for side, tree in trees.items():
            report[side]["extend_calls"] = python(
                tree, "-c", PROBE_SCRIPT, "count",
                json.dumps(["symmetric(5)", *PROBES]))
            report[side]["src.lines"] = src_lines(tree)
        report["problems"] = problems
        args.out.write_text(json.dumps(report, indent=1) + "\n",
                            encoding="utf-8")
    finally:
        shutil.rmtree(base)
    for problem in problems:
        print(f"INCORRECT {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
