"""Self-check of the benchmark, run from the root of a checkout:

    python3 perfbench/smoke.py          # three small groups, about a minute
    python3 perfbench/smoke.py --full   # the real workloads, about 12 minutes

For every workload it runs run.py untraced and traced, with two seeds, and
checks that:

- the last line of output has exactly the keys correct, attempted, failed
  and metrics, and its metrics are exactly those of BENCHMARK.json, with
  their units;
- every end-to-end value is a positive number and nothing failed;
- the two traced runs count the same calls on every layer, and their trace
  files carry the same digests although the seeds order the catalog
  differently.

It also checks that run.py refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (1, 2)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(root: Path, workload: str, seed: int, trace: int, full: bool):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if not full:
        argv.append("--smoke")
    return subprocess.run(argv, cwd=root, capture_output=True, text=True,
                          timeout=200)


def check_result(out, specs: list[dict], positive: bool) -> tuple[dict, list[str]]:
    problems = []
    if out.returncode != 0:
        return {}, [f"exit status {out.returncode}: {out.stderr.strip()[-500:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    attempted, failed = result.get("attempted"), result.get("failed")
    if type(attempted) is not int or attempted < 1:
        problems.append(f"attempted {attempted!r}")
    if failed != 0:
        problems.append(f"failed {failed!r}")
    metrics = result.get("metrics", {})
    expected = {s["name"]: s["unit"] for s in specs}
    if list(metrics) != list(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, m in metrics.items():
        value = m.get("value")
        if set(m) != {"value", "unit"} or m["unit"] != expected.get(name):
            problems.append(f"{name}: {m}")
        elif type(value) not in (int, float) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        elif positive and value <= 0:
            problems.append(f"{name}: value {value!r} is not positive")
    return metrics, problems


def check_bare(root: Path) -> list[str]:
    bare = root / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, f"{HERE.name}/run.py",
                              "--workload", "verify-small", "--seed", "1",
                              "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True,
                             timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        return [f"bare directory: exit {out.returncode}, stdout {out.stdout!r}"]
    return []


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--full", action="store_true",
                    help="use the real workloads instead of three small groups")
    args = ap.parse_args(argv)
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_bare(root)
    for workload in (w["name"] for w in spec["workloads"]):
        _, found = check_result(run(root, workload, SEEDS[0], 0, args.full),
                                spec["end_to_end"], positive=True)
        problems += [f"{workload} trace 0: {p}" for p in found]
        calls, digests = [], []
        for seed in SEEDS:
            metrics, found = check_result(run(root, workload, seed, 1, args.full),
                                          spec["per_layer"], positive=False)
            problems += [f"{workload} trace 1 seed {seed}: {p}" for p in found]
            calls.append({k: m["value"] for k, m in metrics.items()
                          if m["unit"] == "count"})
            trace = root / ".perfbench" / f"trace-{workload}-{seed}.json"
            digests.append(json.loads(trace.read_text(encoding="utf-8"))["digest"])
        if calls[0] != calls[1]:
            diff = {k: (calls[0].get(k), calls[1].get(k))
                    for k in set(calls[0]) | set(calls[1])
                    if calls[0].get(k) != calls[1].get(k)}
            problems.append(f"{workload}: call counts differ between runs: {diff}")
        if digests[0] != digests[1]:
            problems.append(f"{workload}: digests differ between seeds: {digests}")
        print(f"{workload}: checked", file=sys.stderr)
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
