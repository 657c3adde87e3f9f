"""Memoization: a repeated query returns the stored object, not a recomputation."""

from grouplab.catalog import builtin_group
from grouplab.context import GroupContext, context_of
from grouplab.formations import f_hypercenter, f_residual, hypercenter_preimage
from grouplab.quasinormal import (
    has_f_supplement,
    is_fs_quasinormal,
    is_fs_quasinormal_variant,
    is_s_permutable,
)
from grouplab.perms import Permutation
from grouplab.structure import generalized_fitting


def test_memoized_entry_points_return_the_stored_object(monkeypatch):
    G = builtin_group("symmetric(4)")
    ctx = context_of(G)
    H = ctx.subgroup_classes()[1][0]          # a subgroup of order 2
    N = ctx.normal_subgroups()[1]             # the Klein four-group
    assert H.order == 2 and N.order == 4
    calls = {
        "all_subgroups": ctx.all_subgroups,
        "normal_subgroups": ctx.normal_subgroups,
        "subgroup_classes": ctx.subgroup_classes,
        "core": lambda: ctx.core(H),
        "quotient_ctx": lambda: ctx.quotient_ctx(N),
        "is_s_permutable": lambda: is_s_permutable(G, H),
        "is_fs_quasinormal": lambda: is_fs_quasinormal(G, H, "U"),
        "is_fs_quasinormal_variant":
            lambda: is_fs_quasinormal_variant(G, H, "U"),
        "has_f_supplement": lambda: has_f_supplement(G, H, "U"),
        "f_hypercenter": lambda: f_hypercenter(G, "N"),
        "f_residual": lambda: f_residual(G, "U"),
        "hypercenter_preimage": lambda: hypercenter_preimage(G, N, "U"),
        "generalized_fitting": lambda: generalized_fitting(G),
    }
    # the embedding predicates check H <= G on every call; a stored value
    # otherwise costs no group arithmetic at all
    checks_subgroup = {"is_s_permutable", "is_fs_quasinormal",
                       "is_fs_quasinormal_variant", "has_f_supplement"}
    products = []
    mul = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    for name, call in calls.items():
        first = call()
        products.clear()
        assert call() is first, name
        if name not in checks_subgroup:
            assert not products, name


def test_memo_computes_once_per_table_and_key():
    ctx = GroupContext(builtin_group("symmetric(3)"))
    computed = []

    def compute():
        computed.append(1)
        return False

    assert ctx.memo("test_table", "k", compute) is False
    assert ctx.memo("test_table", "k", compute) is False
    assert ctx.memo("other_table", "k", compute) is False
    assert len(computed) == 2
