"""Memoization: one decorator, ``context.memoized``, whose table is the
decorated function and whose key is the argument tuple after the context.
A repeated query returns the stored object, not a recomputation."""

from grouplab.catalog import builtin_group
from grouplab.context import GroupContext, context_of, memoized
from grouplab.formations import f_hypercenter, f_residual, hypercenter_preimage
from grouplab.quasinormal import (
    f_supplement,
    fs_quasinormal,
    has_f_supplement,
    is_fs_quasinormal,
    is_fs_quasinormal_variant,
    is_s_permutable,
    s_permutable,
)
from grouplab.groups import from_elements
from grouplab.perms import Permutation
from grouplab.structure import generalized_fitting, holds


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
        "s_permutable": lambda: s_permutable(ctx, H),
        "fs_quasinormal": lambda: fs_quasinormal(ctx, H, "S", True),
        "f_supplement": lambda: f_supplement(ctx, H, "p_nilpotent", 3),
        "holds": lambda: holds(ctx, "p_nilpotent", 2),
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
    """The body runs on the first use of an argument tuple only, each
    decorated function is a table of its own, and a stored False or None is
    a hit."""
    runs = []

    @memoized
    def first(ctx, *args):
        runs.append(("first",) + args)
        return args[0] if args else False

    @memoized
    def second(ctx, *args):
        runs.append(("second",) + args)
        return len(args)

    ctx = GroupContext(builtin_group("symmetric(3)"))
    for _ in range(3):
        assert first(ctx) is False
        assert first(ctx, None) is None
        assert first(ctx, 1, 2) == 1
        assert second(ctx, 1, 2) == 2
    assert runs == [("first",), ("first", None), ("first", 1, 2),
                    ("second", 1, 2)]
    # the tables live in the context: another context computes again
    assert first(GroupContext(builtin_group("symmetric(3)"))) is False
    assert runs[-1] == ("first",)
    assert len(runs) == 5


def test_memoized_method_runs_once_per_subgroup():
    """A memoized method's body runs once with no argument, and once per
    subgroup element set: an equal but distinct subgroup object is a hit."""
    runs = []

    class Probe(GroupContext):
        @memoized
        def whole(self):
            runs.append("whole")
            return self.group.order

        @memoized
        def of(self, H):
            runs.append(H.order)
            return H.order

    G = builtin_group("symmetric(3)")
    ctx = Probe(G)
    H = ctx.subgroup_classes()[1][0]
    copy = from_elements(G.degree, H.elements())
    assert copy is not H and copy == H
    for _ in range(3):
        assert ctx.whole() == 6
        assert ctx.of(H) == 2
        assert ctx.of(copy) == 2
        assert ctx.of(G) == 6
    assert runs == ["whole", 2, 6]
