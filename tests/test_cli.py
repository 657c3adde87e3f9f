"""CLI: commands, output shape, exit codes 0/1/2/3."""

import json
import os
import subprocess
import sys

import pytest

from grouplab.catalog import builtin_group
from grouplab.cli import _parse_subgroup
from grouplab.errors import CycleParseError
from grouplab.groups import Group
from grouplab.perms import from_cycles

CLI = [sys.executable, "-m", "grouplab.cli"]


CACHE_VARS = ("GROUPLAB_CACHE", "GROUPLAB_CACHE_DIR")


def run(*args, env=None, **kw):
    """Run the CLI; ``env`` holds overrides to the caller's environment.

    The child keeps the caller's variables (PYTHONPATH among them, so a
    plain checkout finds grouplab), minus any inherited cache settings, so
    no test touches the real ``~/.cache/grouplab``.
    """
    child_env = {k: v for k, v in os.environ.items() if k not in CACHE_VARS}
    child_env.update(env or {})
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=child_env, **kw)


def test_info_pass():
    r = run("info", "symmetric(4)")
    assert r.returncode == 0
    assert "order    24" in r.stdout
    assert "soluble" in r.stdout


def test_info_unknown_group_is_usage_error():
    # "--" keeps click from reading "-cyclic(3)" as an option, so the name
    # walker rejects it: it negates int literals only
    for name in ["nonsense(3)", "-cyclic(3)"]:
        r = run("info", "--", name)
        assert r.returncode == 2
        assert "error" in r.stderr.lower() and "Traceback" not in r.stderr


def test_info_bound_exceeded():
    r = run("info", "symmetric(8)")
    assert r.returncode == 3
    assert "bound" in r.stderr.lower()


def test_info_direct_product_past_the_degree_bound():
    """A direct product acting on 50 + 19 > 64 points exceeds the degree
    bound, though its order, 950, is within the order bound."""
    r = run("info", "direct(cyclic(50),cyclic(19))")
    assert r.returncode == 3
    assert "degree 69 exceeds desk bound 64" in r.stderr
    assert "Traceback" not in r.stderr


def test_info_elementary_abelian_needs_a_prime():
    r = run("info", "elementary_abelian(4,2)")
    assert r.returncode == 2
    assert "requires a prime p" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("group", ["direct(symmetric(5),symmetric(5))",
                                   "elementary_abelian(2,6)"])
def test_lattice_bound_exceeded(group):
    """Order 14400 exceeds the order bound, 2825 subgroups the lattice bound."""
    r = run("lattice", group, timeout=60)
    assert r.returncode == 3
    assert "bound exceeded" in r.stderr
    assert "Traceback" not in r.stderr


def test_check_sperm_holds():
    r = run("check", "s-perm", "--group", "dicyclic(2)",
            "--subgroup", "(1 2 3 4)(5 8 7 6)")
    assert r.returncode == 0
    assert "holds" in r.stdout


def test_check_sperm_fails_with_witness():
    r = run("check", "s-perm", "--group", "symmetric(3)",
            "--subgroup", "(1 2)")
    assert r.returncode == 1
    assert "fails" in r.stdout
    assert "witness" in r.stdout


def test_check_fsq():
    r = run("check", "fsq", "--group", "symmetric(3)",
            "--subgroup", "(1 2)", "--formation", "U")
    assert r.returncode == 0
    assert "holds" in r.stdout
    assert "note" in r.stdout  # records the H*T-subgroup reading


def test_check_supplement_formation_and_prime():
    r = run("check", "supplement", "--group", "symmetric(4)",
            "--subgroup", "(1 2 3); (1 2)(3 4)", "--formation", "U")
    assert r.returncode == 0
    r2 = run("check", "supplement", "--group", "symmetric(4)",
             "--subgroup", "()", "--prime", "3")
    assert r2.returncode == 1


def test_check_bad_subgroup_generators():
    r = run("check", "s-perm", "--group", "symmetric(3)",
            "--subgroup", "(1 9)")
    assert r.returncode == 2


def test_stray_generators_are_rejected_before_closing_them():
    """(1 2) with a 9-cycle generates S9: the check must come before the
    closure, which enumerated all of S9 before failing with exit 3."""
    r = run("check", "s-perm", "--group", "cyclic(9)",
            "--subgroup", "(1 2),(1 2 3 4 5 6 7 8 9)", timeout=60)
    assert r.returncode == 2, r.stderr
    assert "generators do not lie in the ambient group" in r.stderr


def test_parse_subgroup_splits_outside_parentheses():
    G = builtin_group("symmetric(4)")

    def span(*cycles):
        return Group(4, [from_cycles(c, 4) for c in cycles]).element_set()

    H = _parse_subgroup(G, "(1 2)(3 4); (1 3)")
    assert H.element_set() == span("(1 2)(3 4)", "(1 3)") and H.order == 8
    assert _parse_subgroup(G, "(1,2),(3,4)").element_set() == span("(1 2)",
                                                                   "(3 4)")
    assert _parse_subgroup(G, "(1 2);;(1 3)").order == 6
    for bad in ["(1 2", "1 2; (1 3)"]:
        with pytest.raises(CycleParseError):
            _parse_subgroup(G, bad)


def test_lattice_command():
    r = run("lattice", "symmetric(4)")
    assert r.returncode == 0
    assert "30 subgroups in 11 conjugacy classes" in r.stdout
    assert "normal" in r.stdout


def test_verify_small_catalog(tmp_path):
    cat = tmp_path / "small.catalog"
    cat.write_text("group s3\ndegree 3\ngen (1 2)\ngen (1 2 3)\norder 6\nend\n"
                   "group c4\ndegree 4\ngen (1 2 3 4)\nend\n")
    rep = tmp_path / "report.json"
    r = run("verify", "--catalog", str(cat), "--theorems", "L3.1,T4.4",
            "--jobs", "1", "--report", str(rep))
    assert r.returncode == 0, r.stderr
    assert "fail: 0" in r.stdout
    doc = json.loads(rep.read_text())
    assert doc["schema"].startswith("grouplab-report")
    assert doc["group_count"] == 2
    assert doc["summary"]["fail"] == 0


def test_verify_unknown_theorem_is_usage_error(tmp_path):
    cat = tmp_path / "one.catalog"
    cat.write_text("group c2\ndegree 2\ngen (1 2)\nend\n")
    # "," names no theorem at all
    for selector in ("L9.9", ","):
        r = run("verify", "--catalog", str(cat), "--theorems", selector)
        assert r.returncode == 2, selector
        assert "error" in r.stderr, selector


def test_verify_missing_catalog_is_usage_error():
    r = run("verify", "--catalog", "/nonexistent/path.catalog")
    assert r.returncode == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_is_usage_error(tmp_path, jobs):
    cat = tmp_path / "one.catalog"
    cat.write_text("group c4\ndegree 4\ngen (1 2 3 4)\nend\n")
    r = run("verify", "--catalog", str(cat), "--theorems", "L3.1",
            "--jobs", jobs)
    assert r.returncode == 2
    assert "jobs" in r.stderr


def test_cache_stats_and_clear(tmp_path):
    env = {"GROUPLAB_CACHE_DIR": str(tmp_path), "GROUPLAB_CACHE": "1"}
    r = run("cache", "stats", env=env)
    assert r.returncode == 0, r.stderr
    assert str(tmp_path) in r.stdout
    r2 = run("lattice", "symmetric(4)", env=env)
    assert r2.returncode == 0, r2.stderr
    r3 = run("cache", "stats", env=env)
    assert r3.returncode == 0, r3.stderr
    assert "files     1" in r3.stdout
    r4 = run("cache", "clear", env=env)
    assert r4.returncode == 0, r4.stderr
    assert "removed 1" in r4.stdout


def test_usage_error_on_unknown_command():
    r = run("frobnicate")
    assert r.returncode == 2
