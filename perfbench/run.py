"""grouplab benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload verify-core --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports grouplab from ``src/``.  The
workloads and metrics are described in perfbench/README.md and named in
BENCHMARK.json.  The seed only shuffles the catalog order, so every run is
checked against the digests in perfbench/reference.json; a run that does not
match prints ``"correct": false`` and exits with status 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer ones from an untraced and a traced pass, and writes the trace to
.perfbench/trace-<workload>-<seed>.json.  Each pass runs in a fresh worker
process, and every process the benchmark starts is waited for.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-core", "verify-small", "explore-lattice")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="three small groups only; digests are not checked "
                         "against the reference")
    return ap.parse_args(argv)


class Worker:
    """Starts worker.py processes in the checkout, within one deadline."""

    def __init__(self, root: Path, workload: str, seed: int, smoke: bool):
        self.root = root
        self.base = ["--workload", workload, "--seed", str(seed)]
        if smoke:
            self.base.append("--smoke")
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("GROUPLAB_")}
        self.env["PYTHONPATH"] = str(root / "src")
        # keep any temporary file a worker or its pool makes inside the checkout
        tmp = root / ".perfbench" / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env["TMPDIR"] = str(tmp)

    def run(self, *args: str) -> tuple[float, dict | None]:
        """(seconds from start to "ready", the JSON result; None for set-up only)."""
        argv = [sys.executable, str(HERE / "worker.py"), *self.base, *args]
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                stdout=subprocess.PIPE, text=True)
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - started
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if code != 0 or first.strip() != "ready":
            raise BenchError(f"worker {' '.join(args)} exited with {code}")
        lines = rest.strip().splitlines()
        if "setup" in args:
            return setup_s, None
        if not lines:
            raise BenchError(f"worker {' '.join(args)} printed no result")
        return setup_s, json.loads(lines[-1])


# -- correctness ---------------------------------------------------------------

def check(workload: str, results: list[dict], reference: dict | None) -> list[str]:
    """Problems with the outputs: digests differ from the reference (or, in
    smoke mode, from each other), or the warm sweep differs from the cold."""
    problems = []
    digests = [p["digest"] for r in results for p in r["passes"]]
    expected = reference[workload] if reference is not None else digests[0]
    for i, d in enumerate(digests):
        if d != expected:
            problems.append(f"pass {i}: digest {d} != expected {expected}")
    for r in results:
        for p in r["passes"]:
            if p.get("warm_equals_cold") is False:
                problems.append("warm sweep results differ from the cold sweep")
    return problems


# -- metrics ---------------------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(res: dict, setups: list[float]) -> dict[str, float]:
    passes = res["passes"]
    latencies = [s for p in passes for s in p["group_seconds"].values()]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "ops_per_s": statistics.median(p["attempted"] / p["wall_s"]
                                       for p in passes),
        "group_p50_s": statistics.median(latencies),
        # p85: the highest percentile with at least ten of 74 groups beyond it
        "group_p85_s": percentile(latencies, 0.85),
        # verify-* keep no cache between passes: their one pass is the warm one
        "warm_pass_s": statistics.median(p.get("warm_pass_s", p["wall_s"])
                                         for p in passes),
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(base: dict, traced: dict, jobs: int, root: Path) -> dict[str, float]:
    trace = traced["trace"]
    base_pass, traced_pass = base["passes"][0], traced["passes"][0]
    out: dict[str, float] = {}
    for layer, calls in trace["calls"].items():
        out[f"{layer}.calls"] = calls
    for layer, seconds in trace["self_s"].items():
        out[f"{layer}.self_s"] = seconds
    for tid, seconds in trace["theorem_s"].items():
        out[f"theorems.{tid}_s"] = seconds
    memo_calls = trace["memo_calls"]
    out["quasinormal.memo_hit_ratio"] = (
        1 - trace["memo_distinct"] / memo_calls if memo_calls else 0.0)
    out["cache.bytes"] = traced_pass.get("cache_bytes", 0)
    out["catalog.load_s"] = base["load_s"]
    out["harness.serial_s"] = base_pass["busy_s"]
    out["harness.parallel_efficiency"] = (
        base_pass["busy_s"] / (jobs * base_pass["wall_s"]))
    out["trace.wall_s"] = traced_pass["wall_s"]
    out["trace.overhead_s"] = traced_pass["wall_s"] - base_pass["busy_s"]
    out["unattributed_s"] = traced_pass["wall_s"] - sum(trace["self_s"].values())
    out["src.lines"] = sum(len(f.read_text(encoding="utf-8").splitlines())
                           for f in (root / "src" / "grouplab").rglob("*.py"))
    return out


def select(values: dict[str, float], specs: list[dict]) -> dict:
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
            for s in specs}


# -- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "grouplab" / "__init__.py").is_file():
        print(f"error: no grouplab sources under {root / 'src'}; run from the "
              f"root of a grouplab checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    reference = (None if args.smoke else
                 json.loads((HERE / "reference.json").read_text(encoding="utf-8")))
    worker = Worker(root, args.workload, args.seed, args.smoke)
    jobs = (len(os.sched_getaffinity(0)) if args.workload == "verify-core"
            else 1)
    try:
        if args.trace == 0:
            setups = [worker.run("--mode", "setup")[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            setup_s, res = worker.run("--mode", "run", "--jobs", str(jobs),
                                      "--seconds", str(args.seconds))
            setups.append(setup_s)
            results = [res]
            metrics = select(end_to_end(res, setups), spec["end_to_end"])
        else:
            _, base = worker.run("--mode", "run", "--jobs", str(jobs))
            trace_file = (root / ".perfbench"
                          / f"trace-{args.workload}-{args.seed}.json")
            _, traced = worker.run("--mode", "trace", "--jobs", "1",
                                   "--trace-file", str(trace_file))
            results = [base, traced]
            metrics = select(per_layer(base, traced, jobs, root),
                             spec["per_layer"])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = check(args.workload, results, reference)
    for problem in problems:
        print(f"INCORRECT {args.workload}: {problem}", file=sys.stderr)
    passes = results[-1]["passes"]
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
