"""Memoization: a repeated query returns the stored object, not a recomputation."""

from grouplab.catalog import builtin_group
from grouplab.context import GroupContext, _memoized, context_of
from grouplab.formations import f_hypercenter, f_residual, hypercenter_preimage
from grouplab.quasinormal import (
    has_f_supplement,
    is_fs_quasinormal,
    is_fs_quasinormal_variant,
    is_s_permutable,
)
from grouplab.groups import from_elements
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
    # a stored value costs no group arithmetic at all
    products = []
    mul = Permutation.__mul__
    monkeypatch.setattr(Permutation, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    for name, call in calls.items():
        first = call()
        products.clear()
        assert call() is first, name
        assert not products, name


def test_memo_computes_once_per_table_and_key():
    """compute(*args) runs on the first use of a (table, key) pair only, and
    a stored False or None is a hit."""
    ctx = GroupContext(builtin_group("symmetric(3)"))
    computed = []

    def compute(*args):
        computed.append(args)
        return args[0] if args else False

    for _ in range(3):
        assert ctx.memo("test_table", "k", compute) is False
        assert ctx.memo("test_table", "j", compute, None) is None
        assert ctx.memo("other_table", "k", compute, 1, 2) == 1
    assert computed == [(), (None,), (1, 2)]


def test_memoized_method_runs_once_per_subgroup():
    """A memoized method's body runs once with no argument, and once per
    subgroup element set: an equal subgroup object is a hit."""
    runs = []

    class Probe(GroupContext):
        @_memoized
        def whole(self):
            runs.append("whole")
            return self.group.order

        @_memoized
        def of(self, H):
            runs.append(H.order)
            return H.order

    G = builtin_group("symmetric(3)")
    ctx = Probe(G)
    H = ctx.subgroup_classes()[1][0]
    for _ in range(3):
        assert ctx.whole() == 6
        assert ctx.of(H) == 2
        assert ctx.of(from_elements(G.degree, H.elements())) == 2
        assert ctx.of(G) == 6
    assert runs == ["whole", 2, 6]
