"""Theorem encodings: spot checks of verdicts, witnesses, parameters."""

import pytest

from grouplab.catalog import builtin_group, symmetric
from grouplab.theorems import (
    IFF_IDS,
    IMPORTED_IDS,
    THEOREM_IDS,
    params_for,
    verify_case,
)


def test_theorem_id_inventory():
    assert len(THEOREM_IDS) == 35
    assert len(set(THEOREM_IDS)) == 35
    assert IMPORTED_IDS <= set(THEOREM_IDS)
    assert IFF_IDS <= set(THEOREM_IDS)


def run_one(name, tid, params=None):
    G = builtin_group(name)
    plist = params_for(G, tid)
    if params is not None:
        assert params in plist, (tid, params, plist)
        return verify_case(G, tid, params)
    assert len(plist) == 1
    return verify_case(G, tid, plist[0])


def test_l31_a5_equivalence_on_false_side():
    """[PAPER] A5: not all maximal subgroups of the Sylow 2-subgroup satisfy
    the condition, and A5 is not soluble — equivalence holds with both sides
    false, with a rechecked failing-subgroup witness."""
    r = run_one("alternating(5)", "L3.1")
    assert r.direction == "iff"
    assert r.verdict == "pass"
    assert not r.hypothesis_value and not r.conclusion_value
    assert any(w["kind"] == "fsq_failure" and w["rechecked"]
               for w in r.witnesses)


def test_l31_s4_both_sides_true():
    r = run_one("symmetric(4)", "L3.1")
    assert r.verdict == "pass"
    assert r.hypothesis_value and r.conclusion_value


def test_l31_trivial_group():
    r = run_one("cyclic(1)", "L3.1")
    assert r.verdict == "pass"


def test_abelian_groups_pass_everything():
    G_names = ["cyclic(24)", "elementary_abelian(3,2)"]
    for name in G_names:
        for tid in THEOREM_IDS:
            for params in params_for(builtin_group(name), tid):
                r = verify_case(builtin_group(name), tid, params)
                assert r.verdict in ("pass", "vacuous"), (name, tid, params)


def test_imported_statements_are_tagged():
    r = run_one("symmetric(4)", "L2.8", {"formation": "U"})
    assert r.imported
    r2 = run_one("symmetric(4)", "L3.1")
    assert not r2.imported


def test_t32_includes_trivial_factorization_witness():
    r = run_one("symmetric(4)", "T3.2")
    assert r.verdict in ("pass", "vacuous")
    # S4 is not supersoluble, so no hypothesis-true instance should conclude
    r5 = run_one("symmetric(5)", "T3.2")
    assert r5.verdict in ("pass", "vacuous")


def test_t32_supersoluble_group_nonvacuous():
    r = run_one("symmetric(3)", "T3.2")
    assert r.verdict == "pass"
    assert r.hypothesis_value and r.conclusion_value
    assert any(w["kind"] == "b_trivial_factorization" for w in r.witnesses)


def test_t44_params_gcd_condition():
    G = builtin_group("symmetric(4)")  # order 24
    ps = params_for(G, "T4.4")
    assert {"p": 2} in ps          # gcd(24, 1) = 1
    assert {"p": 3} not in ps      # gcd(24, 2) = 2


def test_t44_s4_equivalence():
    r = run_one("symmetric(4)", "T4.4", {"p": 2})
    assert r.direction == "iff" and r.verdict == "pass"
    # S4 is not 2-nilpotent, so both sides must be false
    assert not r.hypothesis_value and not r.conclusion_value


def test_t44_positive_side_with_witness():
    r = run_one("symmetric(3)", "T4.4", {"p": 2})
    assert r.verdict == "pass"
    assert r.hypothesis_value and r.conclusion_value
    assert any(w["kind"] == "qualifying_normal" for w in r.witnesses)


def test_l41_witness_rechecked():
    r = run_one("symmetric(3)", "L4.1", {"p": 2, "n": 1})
    assert r.verdict == "pass"
    for w in r.witnesses:
        assert w["rechecked"]


def test_section4_p2_n1_always_parameterized():
    """gcd(|G|, 2-1) = 1 always: every group with even order gets (2, 1)."""
    for name in ["symmetric(4)", "alternating(5)", "dicyclic(3)",
                 "cyclic(16)"]:
        G = builtin_group(name)
        for tid in ("L4.1", "L4.2", "T4.3"):
            assert {"p": 2, "n": 1} in params_for(G, tid), (name, tid)


def test_formation_parameterization():
    G = symmetric(4)
    assert params_for(G, "L2.2.1") == [{"formation": F} for F in "NUS"]
    assert params_for(G, "T3.3") == [{"formation": F} for F in ("U", "S")]
    l27 = params_for(G, "L2.7.1")
    assert {"class": "U"} in l27
    assert {"class": "p_nilpotent", "p": 2} in l27
    assert {"class": "p_nilpotent", "p": 3} in l27


def test_iff_vs_implication_directions():
    G = symmetric(3)
    for tid in THEOREM_IDS:
        for params in params_for(G, tid):
            r = verify_case(G, tid, params)
            expected = "iff" if tid in IFF_IDS else "implication"
            assert r.direction == expected


def test_verify_case_is_deterministic():
    G = builtin_group("SL(2,3)")
    for tid in ("L3.1", "L2.1a", "T4.4"):
        for params in params_for(G, tid):
            a = verify_case(G, tid, params)
            b = verify_case(G, tid, params)
            assert (a.verdict, a.hypothesis_value, a.conclusion_value,
                    a.witnesses) == (b.verdict, b.hypothesis_value,
                                     b.conclusion_value, b.witnesses)


@pytest.mark.parametrize("name", [
    "symmetric(3)", "symmetric(4)", "alternating(4)", "alternating(5)",
    "SL(2,3)", "dicyclic(2)", "dihedral(10)", "cyclic(30)",
    "metacyclic(7,3,2)", "direct(cyclic(2),symmetric(4))",
])
def test_no_failures_on_sample(name):
    G = builtin_group(name)
    for tid in THEOREM_IDS:
        for params in params_for(G, tid):
            r = verify_case(G, tid, params)
            assert r.verdict != "fail", (name, tid, params, r.witnesses)


def test_nonsoluble_groups_fail_nothing_but_exercise_false_side():
    for name in ["alternating(5)", "symmetric(5)", "SL(2,5)"]:
        r = run_one(name, "L3.1")
        assert r.verdict == "pass"
        assert not r.conclusion_value


def test_failed_recheck_fails_the_case(monkeypatch):
    """A witness whose independent recheck disagrees turns the case into a
    fail carrying a recheck_failed witness, also when Python runs with -O."""
    from grouplab import theorems

    monkeypatch.setattr(theorems, "_recheck_fsq", lambda *args: False)
    monkeypatch.setattr(theorems, "_recheck_supplement", lambda *args: False)
    for name, tid, params in [("alternating(5)", "L3.1", None),
                              ("symmetric(3)", "L4.1", {"p": 2, "n": 1})]:
        r = run_one(name, tid, params)
        assert r.verdict == "fail", (name, tid)
        assert [w["kind"] for w in r.witnesses] == ["recheck_failed"]
        assert not any(w.get("rechecked") for w in r.witnesses)
