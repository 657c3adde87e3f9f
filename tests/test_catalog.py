"""Catalog: builtin constructors, name parsing, ingestion format, the shipped
core catalog."""

import tracemalloc

import pytest

from _core_catalog import CORE_GROUP_NAMES, build_core_entries, format_catalog
from grouplab import catalog
from grouplab.catalog import (builtin_group, core_catalog_path,
                              elementary_abelian, load_catalog)
from grouplab.errors import BoundExceededError, CatalogError


def test_builtin_examples():
    assert builtin_group("symmetric(4)").order == 24
    assert builtin_group("dicyclic(2)").order == 8
    assert builtin_group("SL(2,3)").order == 24
    assert builtin_group("elementary_abelian(2,3)").order == 8
    assert builtin_group("direct(cyclic(2),cyclic(3))").order == 6
    assert builtin_group("metacyclic(7,3,2)").order == 21
    assert builtin_group("heisenberg(3)").order == 27
    assert builtin_group("trivial").order == 1
    assert builtin_group("direct( cyclic(2) , cyclic(3) )").order == 6


def test_builtin_name_errors():
    for bad in ["nonsense(3)", "cyclic", "cyclic(2) trailing",
                "symmetric(4", "direct()", "direct(cyclic(2))",
                "-cyclic(3)", "cyclic(n=3)", "cyclic(2.0)", "cyclic(True)",
                "cyclic('2')", "os.system(1)", "__import__('os')",
                "direct(*[cyclic(2)])", "3", "",
                "\uff43yclic(3)"]:  # ast would fold the fullwidth c to c
        with pytest.raises(CatalogError):
            builtin_group(bad)


@pytest.mark.parametrize("p, k", [(4, 2), (6, 1)])
def test_elementary_abelian_needs_a_prime(p, k):
    """E(4, 2) would be C4 x C4 and E(6, 1) C6, neither elementary."""
    with pytest.raises(CatalogError, match="requires a prime p"):
        elementary_abelian(p, k)
    with pytest.raises(CatalogError, match="requires a prime p"):
        builtin_group(f"elementary_abelian({p},{k})")


def test_sl23_has_o2_of_order_8():
    """[DERIVED] O_2(SL(2,3)) is the quaternion group of order 8."""
    from grouplab.context import context_of
    G = builtin_group("SL(2,3)")
    o2 = context_of(G).O_p(2)
    assert o2.order == 8
    minimal = [H for H in context_of(G).all_subgroups()
               if H.order == 2 and H.element_set() <= o2.element_set()]
    assert len(minimal) == 1  # quaternion: unique involution


def _core():
    return load_catalog(core_catalog_path())


def test_core_catalog_loads_cleanly():
    cat = _core()
    assert len(cat) >= 80
    assert cat.warnings == ()


def test_core_catalog_order_span():
    cat = _core()
    orders = sorted(e.group.order for e in cat.entries)
    assert orders[0] == 1 and orders[-1] == 360


def test_core_catalog_required_members():
    cat = _core()
    names = set(cat.names())
    for req in ["alternating(5)", "symmetric(5)", "SL(2,3)", "SL(2,5)",
                "symmetric(4)", "alternating(4)"]:
        assert req in names, req


def test_core_catalog_all_74_groups_of_order_le_24():
    """There are exactly 74 isomorphism types of order <= 24; the catalog
    realizes them with no isomorphic duplicates."""
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2, 7: 1, 8: 5, 9: 2,
                10: 2, 11: 1, 12: 5, 13: 1, 14: 2, 15: 1, 16: 14, 17: 1,
                18: 5, 19: 1, 20: 5, 21: 2, 22: 2, 23: 1, 24: 15}
    assert sum(expected.values()) == 74
    cat = _core()
    by_order = {}
    for e in cat.entries:
        if e.group.order <= 24:
            by_order.setdefault(e.group.order, []).append(e.group)
    for order, count in expected.items():
        groups = by_order.get(order, [])
        assert len(groups) == count, f"order {order}: {len(groups)} != {count}"
        # pairwise non-isomorphic
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                assert not _isomorphic(groups[i], groups[j]), order


def _isomorphic(A, B):
    """Generator-image backtracking isomorphism test (small orders only)."""
    if A.order != B.order:
        return False
    a_elems = A.elements()
    orders_b = {}
    for e in B.elements():
        orders_b.setdefault(e.order(), []).append(e)
    gens = list(A.generators)

    def extend(mapping, idx):
        if idx == len(gens):
            # verify the map extends to a bijective homomorphism by walking
            # the Cayley graph of A
            from grouplab.perms import identity
            img = {identity(A.degree): identity(B.degree)}
            work = [identity(A.degree)]
            while work:
                x = work.pop()
                for g in gens:
                    y = x * g
                    fy = img[x] * mapping[g]
                    if y in img:
                        if img[y] != fy:
                            return False
                    else:
                        img[y] = fy
                        work.append(y)
            return len(set(img.values())) == B.order
        g = gens[idx]
        for cand in orders_b.get(g.order(), []):
            mapping[g] = cand
            if extend(mapping, idx + 1):
                return True
            del mapping[g]
        return False

    return extend({}, 0)


def test_isomorphism_oracle_sanity():
    assert _isomorphic(builtin_group("cyclic(4)"),
                       builtin_group("metacyclic(4,1,1)"))
    assert not _isomorphic(builtin_group("cyclic(4)"),
                           builtin_group("elementary_abelian(2,2)"))
    assert not _isomorphic(builtin_group("dihedral(4)"),
                           builtin_group("dicyclic(2)"))


def test_core_names_match_file():
    cat = _core()
    assert set(cat.names()) == set(CORE_GROUP_NAMES)
    built = dict(build_core_entries())
    for e in cat.entries:
        G = built[e.name]
        assert e.group.degree == G.degree, e.name
        assert e.group.generators == G.generators, e.name


def test_format_roundtrip(tmp_path):
    cat = _core()
    text = format_catalog([(e.name, e.group) for e in cat.entries])
    p = tmp_path / "roundtrip.catalog"
    p.write_text(text)
    cat2 = load_catalog(p)
    assert cat2.names() == cat.names()
    for a, b in zip(cat.entries, cat2.entries):
        assert a.group.key == b.group.key


def test_empty_file_warns(tmp_path):
    p = tmp_path / "empty.catalog"
    p.write_text("# nothing here\n")
    cat = load_catalog(p)
    assert len(cat) == 0
    assert any("empty" in w for w in cat.warnings)


def test_parse_error_has_line_number(tmp_path):
    p = tmp_path / "bad.catalog"
    p.write_text("group g1\ndegree 3\ngen (1 2\nend\n")
    with pytest.raises(CatalogError) as exc:
        load_catalog(p)
    assert "3" in str(exc.value)  # line number of the bad gen


def test_order_mismatch_is_hard_error(tmp_path):
    p = tmp_path / "bad_order.catalog"
    p.write_text("group g1\ndegree 3\ngen (1 2 3)\norder 25\nend\n")
    with pytest.raises(CatalogError):
        load_catalog(p)


def test_duplicate_groups_flagged(tmp_path):
    p = tmp_path / "dup.catalog"
    p.write_text("group a\ndegree 3\ngen (1 2 3)\nend\n"
                 "group b\ndegree 3\ngen (1 3 2)\nend\n")
    cat = load_catalog(p)
    assert any("duplicate" in w.lower() for w in cat.warnings)


def test_repeated_group_name_is_an_error(tmp_path):
    """Reports name groups by catalog name, so two blocks with one name
    would make the report depend on the catalog's order."""
    p = tmp_path / "dup.catalog"
    p.write_text("group a\ndegree 3\ngen (1 2 3)\nend\n"
                 "group a\ndegree 4\ngen (1 2)\nend\n")
    with pytest.raises(CatalogError,
                       match=r"dup\.catalog:5: repeated group name 'a'"):
        load_catalog(p)


def test_semidirect_constructions_present():
    """At least 5 split-extension constructions beyond direct products."""
    semis = [n for n in CORE_GROUP_NAMES
             if n.startswith(("metacyclic(", "gendihedral(", "heisenberg(",
                              "v4_rtimes_c4", "pauli16", "c3xv4_rtimes_c2"))]
    assert len(semis) >= 5


def test_dihedral_dicyclic_families():
    names = set(CORE_GROUP_NAMES)
    assert sum(1 for n in names if n.startswith("dihedral(")) >= 5
    assert sum(1 for n in names if n.startswith("dicyclic(")) >= 3
    assert sum(1 for n in names if n.startswith("elementary_abelian(")) >= 4


@pytest.mark.parametrize("name", ["heisenberg(60)", "metacyclic(1000,200,1)",
                                  "dicyclic(50000)", "gendihedral(300,300)",
                                  "dihedral(100000)", "symmetric(100000)",
                                  "alternating(100000)"])
def test_an_oversized_builtin_is_refused_before_it_lists_elements(name):
    tracemalloc.start()
    try:
        with pytest.raises(BoundExceededError):
            builtin_group(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cyclic_is_refused_by_its_order_before_it_is_factored(monkeypatch):
    def factor(n):
        raise RuntimeError("factored")

    monkeypatch.setattr(catalog, "prime_divisors", factor)
    with pytest.raises(BoundExceededError):
        builtin_group("cyclic(1001)")
