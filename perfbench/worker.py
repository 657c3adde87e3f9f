"""One benchmark process: set up, run one workload, print what it measured.

Started by run.py from the root of a checkout, with ``PYTHONPATH=src``.  It
prints ``ready`` once set-up is done (run.py times set-up up to that line)
and, unless ``--mode setup``, one JSON line with the raw results at the end.

    --mode setup   set up and exit
    --mode run     run whole passes, untraced, for about --seconds
    --mode trace   run one traced pass and write the trace file
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

import grouplab
from grouplab.catalog import core_catalog_path, load_catalog

import workloads
from tracer import Tracer

SMOKE_GROUPS = ("symmetric(3)", "dihedral(4)", "dicyclic(2)")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--smoke", action="store_true",
                    help=f"use only the groups {', '.join(SMOKE_GROUPS)}")
    ap.add_argument("--trace-file", type=Path)
    return ap.parse_args(argv)


def repeat_passes(run_pass, seconds: float) -> list[dict]:
    """Whole passes until another one would end after `seconds`; at least one."""
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(len(passes)))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the pool workers
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not Path(grouplab.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"grouplab was imported from {grouplab.__file__}, "
                         f"not from {root / 'src'}")
    t0 = time.perf_counter()
    catalog = load_catalog(core_catalog_path())
    load_s = time.perf_counter() - t0
    entries = list(catalog.entries)
    if args.smoke:
        entries = [e for e in entries if e.name in SMOKE_GROUPS]
    random.Random(args.seed).shuffle(entries)
    if args.workload == "verify-small":
        entries = workloads.small_entries(entries)
    tmp_root = root / ".perfbench" / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        print("ready", flush=True)
        if args.mode == "setup":
            return 0

        def run_pass(index: int, tracer=None) -> dict:
            if args.workload == "verify-core":
                return workloads.verify_core_pass(entries, args.jobs, tracer)
            if args.workload == "verify-small":
                return workloads.verify_small_pass(entries, tracer)
            cache_dir = run_dir / f"cache-{index}"
            cache_dir.mkdir()
            return workloads.explore_lattice_pass(entries, cache_dir, tracer)

        result = {"load_s": load_s, "groups": len(entries)}
        if args.mode == "run":
            result["passes"] = repeat_passes(run_pass, args.seconds)
        else:
            tracer = Tracer({e.name: (e.group.degree, e.group.order)
                             for e in entries})
            with tracer:
                result["passes"] = [run_pass(0, tracer)]
            result["trace"] = tracer.summary()
            args.trace_file.parent.mkdir(parents=True, exist_ok=True)
            args.trace_file.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "wall_s": result["passes"][0]["wall_s"],
                "digest": result["passes"][0]["digest"],
                **tracer.trace_file()}))
        result["peak_rss_mb"] = peak_rss_mb()
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
