"""Suite runner: selection, report shape, determinism, skip records."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from grouplab import harness
from grouplab.catalog import (
    Catalog,
    CatalogEntry,
    GroupSpec,
    builtin_group,
    core_catalog_path,
    load_catalog,
)
from grouplab.context import clear_contexts, context_of
from grouplab.harness import (
    SCHEMA,
    report_body_without_timing,
    run_suite,
    select_theorems,
)
from grouplab.theorems import THEOREM_IDS


def _entry(name):
    G = builtin_group(name)
    return CatalogEntry(name, G, GroupSpec(name, G.degree, (), G.order))


def _catalog(*names):
    return Catalog(tuple(_entry(n) for n in names))


def test_select_theorems():
    assert select_theorems("all") == THEOREM_IDS
    assert select_theorems("L3.1") == ("L3.1",)
    # canonical order regardless of listing order
    assert select_theorems("T4.4,L3.1") == ("L3.1", "T4.4")
    with pytest.raises(ValueError):
        select_theorems("L9.9")


def test_single_case_report():
    rep = run_suite(_catalog("symmetric(3)"), ("L3.1",), jobs=1)
    assert rep["schema"] == SCHEMA
    assert rep["group_count"] == 1
    assert rep["summary"]["cases"] == 1
    assert rep["summary"]["fail"] == 0
    assert rep["theorems"]["L3.1"]["pass"] == 1
    assert rep["failures"] == []
    assert json.dumps(rep)  # fully serializable


def test_counts_sum_to_case_count():
    rep = run_suite(_catalog("symmetric(4)", "cyclic(6)"),
                    ("L3.1", "T4.4", "L2.1a"), jobs=1)
    s = rep["summary"]
    assert s["pass"] + s["fail"] + s["vacuous"] + s["skipped"] == s["cases"]
    for agg in rep["theorems"].values():
        total = agg["pass"] + agg["fail"] + agg["vacuous"] + agg["skipped"]
        nonvac = agg["pass"] + agg["fail"]
        assert agg["non_vacuous_ratio"] == pytest.approx(nonvac / total)


def test_failures_list_mirrors_fail_verdicts():
    rep = run_suite(_catalog("alternating(5)", "symmetric(3)"),
                    ("L3.1", "L2.10"), jobs=1)
    assert (len([f for f in rep["failures"] if f["verdict"] == "fail"])
            == rep["summary"]["fail"] == 0)


def test_determinism_across_worker_counts_and_order():
    names = ["symmetric(4)", "cyclic(12)", "dicyclic(3)", "alternating(4)",
             "SL(2,3)", "dihedral(7)"]
    ids = ("L3.1", "T4.4", "L2.1a", "L2.12.1")
    a = run_suite(_catalog(*names), ids, jobs=1)
    shuffled = list(names)
    random.Random(7).shuffle(shuffled)
    b = run_suite(_catalog(*shuffled), ids, jobs=3)
    assert report_body_without_timing(a) == report_body_without_timing(b)
    assert a["timing"] != b["timing"] or True  # timing excluded, not compared


def test_parallel_execution_matches_serial():
    names = ["symmetric(5)", "cyclic(30)", "dicyclic(2)"]
    a = run_suite(_catalog(*names), ("L3.1", "L2.3"), jobs=1)
    b = run_suite(_catalog(*names), ("L3.1", "L2.3"), jobs=8)
    assert report_body_without_timing(a) == report_body_without_timing(b)


def test_catalog_digest_is_order_independent():
    a = run_suite(_catalog("symmetric(3)", "cyclic(4)"), ("L3.1",), jobs=1)
    b = run_suite(_catalog("cyclic(4)", "symmetric(3)"), ("L3.1",), jobs=1)
    assert a["catalog_digest"] == b["catalog_digest"]
    c = run_suite(_catalog("cyclic(4)"), ("L3.1",), jobs=1)
    assert c["catalog_digest"] != a["catalog_digest"]


def test_groups_sorted_in_report():
    rep = run_suite(_catalog("symmetric(3)", "cyclic(4)", "alternating(4)"),
                    ("L3.1",), jobs=1)
    names = [g["group"] for g in rep["groups"]]
    assert names == sorted(names)


def test_worker_pool_is_capped_at_the_number_of_groups(monkeypatch):
    """jobs beyond the group count start no extra workers; the executor is
    replaced, so no process starts at all."""
    asked = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingExecutor)
    cat = _catalog("symmetric(3)", "cyclic(4)", "cyclic(5)")
    rep = run_suite(cat, ("L3.1",), jobs=5000)
    assert asked == [3]
    assert rep["group_count"] == 3
    assert rep["timing"]["jobs"] == 5000
    run_suite(cat, ("L3.1",), jobs=2)
    assert asked == [3, 2]


def test_report_body_does_not_depend_on_registry_history(monkeypatch):
    """A witness prints generators that depend only on itself and the group
    passed to verify_case.  With the per-group clear_contexts turned off,
    after every catalog group's context was made in reverse name order, so
    that each element set shared by two catalog groups is held by the later
    one's object, the core run keeps the reference body digest."""
    reference = json.loads((Path(__file__).parents[1] / "perfbench"
                            / "reference.json").read_text())
    catalog = load_catalog(core_catalog_path())
    clear_contexts()
    monkeypatch.setattr(harness, "clear_contexts", lambda: None)
    try:
        for entry in sorted(catalog.entries, key=lambda e: e.name,
                            reverse=True):
            context_of(entry.group).all_subgroups()
        report = run_suite(catalog, THEOREM_IDS, jobs=1)
    finally:
        clear_contexts()
    body = report_body_without_timing(report)
    assert hashlib.sha256(body).hexdigest() == reference["verify-core"]["body"]
