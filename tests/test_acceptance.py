"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
The headline suite over the shipped catalog is executed once per session and
shared by the criteria that read its report.
"""

import random
import time

import pytest

from grouplab.catalog import Catalog, builtin_group, core_catalog_path, load_catalog
from grouplab.context import context_of
from grouplab.errors import BoundExceededError
from grouplab.formations import f_hypercenter, in_formation, is_f_central
from grouplab.groups import set_product
from grouplab.harness import report_body_without_timing, run_suite
from grouplab.lattice import enumerate_subgroups
from grouplab.quasinormal import is_fs_quasinormal, is_fs_quasinormal_variant
from grouplab.structure import chief_factors, is_soluble, series
from grouplab.theorems import THEOREM_IDS

from _chain_oracle import ChainOracle, membership_probes
from _formation_oracle import is_f_central_generic

JOBS = 8


def _line(ok: bool, label: str) -> bool:
    print(f"\n{'PASS' if ok else 'FAIL'} — {label}")
    return ok


@pytest.fixture(scope="session")
def catalog():
    return load_catalog(core_catalog_path())


@pytest.fixture(scope="session")
def headline(catalog):
    started = time.time()
    report = run_suite(catalog, THEOREM_IDS, jobs=JOBS)
    return report, time.time() - started


def test_headline_run(catalog, headline):
    report, elapsed = headline
    orders = sorted(e.group.order for e in catalog.entries)
    names = set(catalog.names())
    composition_ok = (
        len(catalog) >= 80
        and orders[0] == 1 and orders[-1] == 360
        and {"alternating(4)", "symmetric(4)", "alternating(5)",
             "symmetric(5)", "SL(2,3)", "SL(2,5)"} <= names
        and sum(1 for e in catalog.entries if e.group.order <= 24) >= 74)
    s = report["summary"]
    ok = (composition_ok and s["fail"] == 0 and s["skipped"] == 0
          and elapsed <= 600)
    assert _line(ok, f"headline: verify --catalog core --theorems all — "
                     f"{len(catalog)} groups, {s['cases']} cases, "
                     f"fail={s['fail']}, skipped={s['skipped']}, "
                     f"{elapsed:.0f}s (limit 600s, jobs={JOBS})")


def test_l31_nonvacuity(catalog, headline):
    report, _ = headline
    nonsoluble_with_witness = 0
    soluble = 0
    fails = 0
    for g in report["groups"]:
        for case in g["cases"]:
            if case["theorem"] != "L3.1":
                continue
            fails += case["verdict"] == "fail"
            if case["conclusion"]:
                soluble += 1
            elif any(w.get("kind") == "fsq_failure" and w.get("rechecked")
                     for w in case["witnesses"]):
                nonsoluble_with_witness += 1
    ok = nonsoluble_with_witness >= 3 and soluble >= 40 and fails == 0
    assert _line(ok, f"L3.1 equivalence: {nonsoluble_with_witness} nonsoluble "
                     f"groups with rechecked failing-subgroup witnesses "
                     f"(need >= 3), {soluble} soluble groups (need >= 40), "
                     f"{fails} counterexamples")


def test_section4_p2_n1_nonvacuous(headline):
    report, _ = headline
    exercised = {tid: 0 for tid in ("L4.1", "L4.2", "T4.3", "T4.4")}
    fails = 0
    for g in report["groups"]:
        for case in g["cases"]:
            tid = case["theorem"]
            if tid not in exercised:
                continue
            fails += case["verdict"] == "fail"
            p_ok = case["params"].get("p") == 2
            n_ok = case["params"].get("n", 1) == 1
            if p_ok and n_ok and case["verdict"] == "pass":
                exercised[tid] += 1
    ok = all(v >= 10 for v in exercised.values()) and fails == 0
    assert _line(ok, "section-4 suites at p=2, n=1 non-vacuous: " +
                 ", ".join(f"{t}={v}" for t, v in exercised.items()) +
                 f" groups each (need >= 10); {fails} counterexamples")


def test_hypercenter_oracle(catalog):
    mismatches = []
    for e in catalog.entries:
        G = e.group
        uc_limit = series(G, "upper_central").chain[-1]
        if f_hypercenter(G, "N").key != uc_limit.key:
            mismatches.append((e.name, "N-hypercenter vs upper central"))
        for F in "NUS":
            whole = f_hypercenter(G, F).order == G.order
            if whole != in_formation(G, F):
                mismatches.append((e.name, F))
    ok = not mismatches
    assert _line(ok, f"hypercenter oracle on {len(catalog)} groups: "
                     f"Z_inf^N = upper-central limit and Z_inf^F(G)=G <=> "
                     f"G in F; {len(mismatches)} mismatches"), mismatches


def test_f_centrality_dual_path(catalog):
    disagreements = 0
    compared = 0
    bounded = 0
    for e in catalog.entries:
        G = e.group
        for cf in chief_factors(G):
            for F in "NUS":
                fast = is_f_central(G, cf, F)
                try:
                    generic = is_f_central_generic(G, cf, F)
                except BoundExceededError:
                    bounded += 1
                    continue
                compared += 1
                disagreements += fast != generic
    ok = disagreements == 0 and compared > 0
    assert _line(ok, f"F-centrality dual-path agreement: {compared} chief-"
                     f"factor comparisons across the catalog, "
                     f"{disagreements} disagreements "
                     f"({bounded} beyond construction bounds)")


def test_l221_equivalence_up_to_60(catalog):
    checked = 0
    disagreements = 0
    for e in catalog.entries:
        G = e.group
        if G.order > 60:
            continue
        ctx = context_of(G)
        for H in ctx.all_subgroups():
            for F in "NUS":
                a = is_fs_quasinormal(G, H, F).holds
                b = is_fs_quasinormal_variant(G, H, F).holds
                checked += 1
                disagreements += a != b
    ok = disagreements == 0 and checked > 0
    assert _line(ok, f"L2.2(1) equivalence of the two phrasings: {checked} "
                     f"(G, H, F) triples with |G| <= 60, "
                     f"{disagreements} disagreements")


def test_structure_suites(headline):
    report, _ = headline
    ids = ("L2.12.1", "L2.12.3", "L2.12.4", "L2.12.5",
           "L2.13.1", "L2.13.2", "L2.11")
    bad = {tid: report["theorems"][tid]["fail"] for tid in ids}
    ok = all(v == 0 for v in bad.values())
    assert _line(ok, "structure suites L2.12(1,3,4,5), L2.13(1,2), "
                     "L2.11 (n <= 4): " +
                 ", ".join(f"{t}:{v} fails" for t, v in bad.items()))


def test_kernel_oracles(catalog):
    order_ok = membership_ok = True
    for e in catalog.entries:
        chain = ChainOracle(e.group)
        order_ok &= e.group.order == chain.order
        probes = membership_probes(e.group)
        membership_ok &= [x in e.group for x in probes] == [x in chain for x in probes]
    lat = enumerate_subgroups(builtin_group("symmetric(4)"))
    s4_ok = lat.subgroup_count == 30 and len(lat.classes) == 11
    pairs = 0
    criterion_ok = kernel_ok = True
    for e in catalog.entries:
        if e.group.order > 48:
            continue
        ctx = context_of(e.group)
        subs = ctx.all_subgroups()
        for H in subs:
            for K in subs:
                r = set_product(H, K, e.group)
                criterion_ok &= r.is_subgroup == r.commutes
                kernel_ok &= (r.commutes == ctx.permutes(H, K)
                              and r.size == ctx.product_size(H, K))
                pairs += 1
    ok = order_ok and membership_ok and s4_ok and criterion_ok and kernel_ok
    assert _line(ok, f"kernel oracles: chain order = enumeration: {order_ok}, "
                     f"chain membership = element set: {membership_ok} "
                     f"({len(catalog)} groups); S4 lattice 30/11: {s4_ok}; "
                     f"HK subgroup <=> HK=KH on {pairs} pairs (<=48): "
                     f"{criterion_ok}; HK=KH and |HK| = ctx.permutes and "
                     f"ctx.product_size: {kernel_ok}")


def test_determinism(catalog, headline):
    report, _ = headline
    shuffled = list(catalog.entries)
    random.Random(20260826).shuffle(shuffled)
    other = run_suite(Catalog(tuple(shuffled)), THEOREM_IDS, jobs=2)
    ok = (report_body_without_timing(report)
          == report_body_without_timing(other))
    assert _line(ok, "determinism: byte-identical report bodies across "
                     f"worker counts ({JOBS} vs 2) and shuffled catalog "
                     "order (timing excluded)")
