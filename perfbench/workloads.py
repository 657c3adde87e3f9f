"""The benchmark's three workloads, run in-process against grouplab.

Each pass function runs the workload once over the given catalog entries
and returns a plain dict: wall seconds, per-group seconds, operations
attempted and failed, and the digest the run is checked against.  A
tracer, when given, is told where each group's analysis starts and ends.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import grouplab as gl
from grouplab import harness
from grouplab.catalog import Catalog
from grouplab.context import clear_contexts

WORKLOADS = ("verify-core", "verify-small", "explore-lattice")
SMALL_MAX_ORDER = 24
FORMATIONS = ("N", "U", "S")

# Key under which the timed group runner returns its seconds; it is removed
# from the report before anything is digested.
_SECONDS_KEY = "bench_group_seconds"

_original_run_group = harness._run_group


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def verdict_rows(report: dict) -> list:
    """One row per case, in report order, as the ROADMAP's verdict digest."""
    return [[g["group"], c["theorem"], json.dumps(c["params"], sort_keys=True),
             c["verdict"], c["hypothesis"], c["conclusion"]]
            for g in report["groups"] for c in g["cases"]]


def _timed_run_group(tracer, job):
    """harness._run_group, plus the seconds it took in this process."""
    if tracer is not None:
        tracer.begin_group(job.name)
    started = time.perf_counter()
    try:
        res = _original_run_group(job)
    finally:
        seconds = time.perf_counter() - started
        if tracer is not None:
            tracer.end_group(job.name, seconds)
    res[_SECONDS_KEY] = seconds
    return res


@contextmanager
def _timed_groups(tracer):
    # run_suite looks harness._run_group up when it runs and pickles it for
    # its pool, so pool workers run this wrapper too (untraced: tracer None).
    harness._run_group = partial(_timed_run_group, tracer)
    try:
        yield
    finally:
        harness._run_group = _original_run_group


def _suite(entries, jobs: int, tracer) -> tuple[dict, dict[str, float]]:
    with _timed_groups(tracer):
        report = gl.run_suite(Catalog(tuple(entries)), gl.THEOREM_IDS, jobs=jobs)
    seconds = {g["group"]: g.pop(_SECONDS_KEY) for g in report["groups"]}
    return report, seconds


def _case_counts(report: dict) -> tuple[int, int]:
    s = report["summary"]
    return s["cases"], s["fail"] + s["skipped"]


def verify_core_pass(entries, jobs: int, tracer=None) -> dict:
    """run_suite over the whole catalog, every theorem, with the lattice cache off."""
    started = time.perf_counter()
    report, seconds = _suite(entries, jobs, tracer)
    wall = time.perf_counter() - started
    attempted, failed = _case_counts(report)
    return {
        "wall_s": wall, "group_seconds": seconds,
        "busy_s": sum(seconds.values()),
        "attempted": attempted, "failed": failed,
        "digest": {
            "verdict": sha256_json(verdict_rows(report)),
            "body": hashlib.sha256(
                harness.report_body_without_timing(report)).hexdigest(),
            "summary": report["summary"],
        },
    }


def small_entries(entries):
    return [e for e in entries if e.group.order <= SMALL_MAX_ORDER]


def verify_small_pass(entries, tracer=None) -> dict:
    """One run_suite call per group, so each group's latency is seen by a caller."""
    rows: dict[str, list] = {}
    seconds: dict[str, float] = {}
    summary = {"cases": 0, "pass": 0, "fail": 0, "vacuous": 0, "skipped": 0}
    started = time.perf_counter()
    for e in entries:
        t0 = time.perf_counter()
        report, _ = _suite([e], 1, tracer)
        seconds[e.name] = time.perf_counter() - t0
        rows[e.name] = verdict_rows(report)
        for k in summary:
            summary[k] += report["summary"][k]
    wall = time.perf_counter() - started
    ordered = [r for name in sorted(rows) for r in rows[name]]
    return {
        "wall_s": wall, "group_seconds": seconds,
        "busy_s": sum(seconds.values()),
        "attempted": summary["cases"],
        "failed": summary["fail"] + summary["skipped"],
        "digest": {"verdict": sha256_json(ordered), "summary": summary},
    }


def analyse(G) -> dict:
    """One library-session analysis of G through the public API."""
    lattice = gl.enumerate_subgroups(G)
    reps = [c.representative for c in lattice.classes]
    return {
        "order": G.order,
        "subgroups": lattice.subgroup_count,
        "classes": len(lattice.classes),
        "normals": len(gl.normal_subgroups(G)),
        "chief_factor_orders": sorted(cf.order for cf in gl.chief_factors(G)),
        "hypercenter": [gl.f_hypercenter(G, F).order for F in FORMATIONS],
        "residual": [gl.f_residual(G, F).order for F in FORMATIONS],
        "s_permutable": "".join("1" if gl.is_s_permutable(G, H).holds else "0"
                                for H in reps),
        "u_quasinormal": "".join(
            "1" if gl.is_fs_quasinormal(G, H, "U").holds else "0"
            for H in reps),
    }


def _explore_sweep(entries, tracer) -> tuple[float, dict, dict, int]:
    rows: dict[str, dict | None] = {}
    seconds: dict[str, float] = {}
    failed = 0
    started = time.perf_counter()
    for e in entries:
        clear_contexts()
        if tracer is not None:
            tracer.begin_group(e.name)
        t0 = time.perf_counter()
        try:
            rows[e.name] = analyse(e.group)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rows[e.name] = None
            failed += 1
        seconds[e.name] = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_group(e.name, seconds[e.name])
    return time.perf_counter() - started, rows, seconds, failed


def cache_bytes(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.iterdir() if f.is_file())


def explore_lattice_pass(entries, cache_dir: Path, tracer=None) -> dict:
    """A cold sweep that fills an empty lattice cache, then a warm sweep that reads it."""
    os.environ["GROUPLAB_CACHE"] = "1"
    os.environ["GROUPLAB_CACHE_DIR"] = str(cache_dir)
    try:
        cold_s, cold, seconds, cold_failed = _explore_sweep(entries, tracer)
        written = cache_bytes(cache_dir)
        warm_s, warm, warm_seconds, warm_failed = _explore_sweep(entries, tracer)
    finally:
        clear_contexts()
        del os.environ["GROUPLAB_CACHE"], os.environ["GROUPLAB_CACHE_DIR"]
    ordered = [[name, cold[name]] for name in sorted(cold)]
    return {
        "wall_s": cold_s + warm_s, "cold_pass_s": cold_s, "warm_pass_s": warm_s,
        "group_seconds": seconds,
        "busy_s": sum(seconds.values()) + sum(warm_seconds.values()),
        "attempted": 2 * len(entries), "failed": cold_failed + warm_failed,
        "warm_equals_cold": warm == cold, "cache_bytes": written,
        "digest": {"analysis": sha256_json(ordered)},
    }
