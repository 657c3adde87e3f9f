"""Suite runner: evaluate theorem encodings over a catalog of groups.

Work is parallelised per group with a process pool; the report is assembled
in a deterministic order (catalog name, theorem id, parameter enumeration
order) so identical inputs produce byte-identical report bodies regardless
of worker count or input shuffling.  Wall-clock timing lives in a separate
``timing`` key that determinism comparisons strip off.
"""

from __future__ import annotations

import hashlib
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .catalog import Catalog, CatalogEntry
from .context import clear_contexts
from .errors import BoundExceededError
from .groups import Group
from .perms import from_cycles, to_cycles
from .theorems import IMPORTED_IDS, THEOREM_IDS, params_for, verify_case

__all__ = ["SCHEMA", "run_suite", "report_body_without_timing",
           "format_summary", "select_theorems"]

SCHEMA = "grouplab-report 1"


def select_theorems(selector: str) -> tuple[str, ...]:
    """Resolve a theorem selector: ``all`` or a comma-separated id list."""
    if selector.strip().lower() == "all":
        return THEOREM_IDS
    ids = tuple(t.strip() for t in selector.split(",") if t.strip())
    unknown = [t for t in ids if t not in THEOREM_IDS]
    if unknown:
        raise ValueError(f"unknown theorem ids: {', '.join(unknown)}")
    # keep canonical order regardless of how the user listed them
    chosen = set(ids)
    return tuple(t for t in THEOREM_IDS if t in chosen)


@dataclass(frozen=True)
class _Job:
    name: str
    degree: int
    gens: tuple[str, ...]
    theorem_ids: tuple[str, ...]


def _case_dict(r) -> dict:
    out = {
        "theorem": r.theorem_id,
        "params": r.params,
        "direction": r.direction,
        "imported": r.imported,
        "hypothesis": r.hypothesis_value,
        "conclusion": r.conclusion_value,
        "verdict": r.verdict,
        "witnesses": r.witnesses,
    }
    if r.error is not None:
        out["error"] = r.error
    return out


def _run_group(job: _Job) -> dict:
    """Worker: evaluate every requested theorem for one group.

    The context registry is cleared first, so a worker holds one group's
    contexts at a time.  Results do not depend on it: a witness prints
    generators that depend only on itself and the group, so reports are
    byte-identical across worker counts, catalog orderings and whatever
    this process evaluated earlier.
    """
    clear_contexts()
    G = Group(job.degree, [from_cycles(t, job.degree) for t in job.gens])
    cases = []
    for tid in job.theorem_ids:
        for params in params_for(G, tid):
            try:
                cases.append(_case_dict(verify_case(G, tid, params)))
            except BoundExceededError as exc:
                cases.append({
                    "theorem": tid, "params": dict(params),
                    "direction": "", "imported": tid in IMPORTED_IDS,
                    "hypothesis": False, "conclusion": False,
                    "verdict": "skipped", "witnesses": [],
                    "error": str(exc),
                })
    return {"group": job.name, "order": G.order, "degree": G.degree,
            "cases": cases}


def _catalog_digest(entries) -> str:
    h = hashlib.sha256()
    for e in sorted(entries, key=lambda e: e.name):
        h.update(e.name.encode())
        h.update(str(e.group.degree).encode())
        for g in e.group.generators:
            h.update(to_cycles(g).encode())
        h.update(b"\n")
    return h.hexdigest()


def run_suite(catalog: Catalog, theorem_ids: tuple[str, ...],
              jobs: int = 1) -> dict:
    """Run every selected theorem on every catalog group; return the report."""
    started = time.time()
    entries: list[CatalogEntry] = sorted(catalog.entries, key=lambda e: e.name)
    work = [_Job(e.name, e.group.degree,
                 tuple(to_cycles(g) for g in e.group.generators),
                 theorem_ids)
            for e in entries]
    if jobs > 1 and len(work) > 1:
        # the fork start method starts every worker at once: no more than
        # there are groups
        with ProcessPoolExecutor(max_workers=min(jobs, len(work))) as pool:
            results = list(pool.map(_run_group, work))
    else:
        results = [_run_group(j) for j in work]
    results.sort(key=lambda r: r["group"])

    theorems: dict[str, dict] = {
        tid: {"pass": 0, "fail": 0, "vacuous": 0, "skipped": 0}
        for tid in theorem_ids}
    failures = []
    totals = {"pass": 0, "fail": 0, "vacuous": 0, "skipped": 0}
    for res in results:
        for case in res["cases"]:
            agg = theorems[case["theorem"]]
            agg[case["verdict"]] += 1
            totals[case["verdict"]] += 1
            if case["verdict"] in ("fail", "skipped"):
                failures.append({"group": res["group"], **case})
    for agg in theorems.values():
        checked = sum(agg.values())
        nonvac = agg["pass"] + agg["fail"]
        agg["non_vacuous_ratio"] = (round(nonvac / checked, 6)
                                    if checked else 0.0)
    report = {
        "schema": SCHEMA,
        "catalog_digest": _catalog_digest(entries),
        "theorem_ids": list(theorem_ids),
        "group_count": len(results),
        "summary": {"cases": sum(totals.values()), **totals},
        "theorems": theorems,
        "failures": failures,
        "groups": results,
        "timing": {"seconds": round(time.time() - started, 3),
                   "jobs": jobs},
    }
    return report


def report_body_without_timing(report: dict) -> bytes:
    """Canonical bytes of the report with volatile timing data removed."""
    body = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode()


def format_summary(report: dict) -> str:
    s = report["summary"]
    lines = [f"groups: {report['group_count']}  cases: {s['cases']}  "
             f"pass: {s['pass']}  fail: {s['fail']}  "
             f"vacuous: {s['vacuous']}  skipped: {s['skipped']}"]
    for item in report["failures"]:
        lines.append(f"  {item['verdict'].upper()} {item['theorem']} "
                     f"on {item['group']} params={item['params']}")
    return "\n".join(lines)
