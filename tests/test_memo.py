"""Memoization: one decorator, ``context.memoized``, whose table is the
decorated function and whose key is the argument tuple after the context.
A repeated query returns the stored object, not a recomputation."""

from collections import Counter

import pytest

import grouplab.structure as structure
from grouplab.catalog import builtin_group
from grouplab.context import GroupContext, clear_contexts, context_of, memoized
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
from grouplab.structure import (
    generalized_fitting,
    holds,
    is_soluble,
    predicate,
)
from grouplab.theorems import THEOREM_IDS, params_for, verify_case


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
        "sylow_all": lambda: ctx.sylow_all(2),
        "core": lambda: ctx.core(H),
        "quotient": lambda: ctx.quotient(N)[0],
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


def test_omitted_default_shares_the_entry_of_the_explicit_one():
    """f(ctx, x) and f(ctx, x, default) are one memo entry; a call missing a
    required argument is still a TypeError."""
    runs = []

    @memoized
    def f(ctx, x, p=None):
        runs.append((x, p))
        return x

    ctx = GroupContext(builtin_group("symmetric(3)"))
    assert f(ctx, 1) == f(ctx, 1, None) == 1
    assert f(ctx, 1, 2) == 1
    assert runs == [(1, None), (1, 2)]
    with pytest.raises(TypeError):
        f(ctx)


def test_predicate_door_and_is_x_door_share_one_entry(monkeypatch):
    """is_soluble(G) and predicate(G, "soluble") run the check body once."""
    clear_contexts()
    runs = []
    check = structure._PREDICATES["soluble"]
    monkeypatch.setitem(structure._PREDICATES, "soluble",
                        lambda ctx, p: runs.append(p) or check(ctx, p))
    G = builtin_group("symmetric(4)")
    assert is_soluble(G) and predicate(G, "soluble")
    assert holds(context_of(G), "soluble", None)
    assert runs == [None]
    clear_contexts()


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


# Cheap questions the 35 theorems ask once per context, or only under a
# memoized caller: a table for them would hold entries that are never read.
_UNTABLED = {
    "context.GroupContext.conjugacy_classes",
    "context.GroupContext.chief_pairs",
    "context.GroupContext.O_upper_p",
    "context.GroupContext.center",
    "context.GroupContext.frattini",
    "context.GroupContext.fitting",
    "structure.components_of",
}

# The misses per table of the 35 theorems on S4 from a clean start: each is
# one body run, so a count above its bound is work the tables stopped
# sparing, and a new table must be added here.
_MISSES_ON_S4 = {
    "context.GroupContext.O_pi": 37,
    "context.GroupContext.all_subgroups": 21,
    "context.GroupContext.chief_centralizer": 7,
    "context.GroupContext.core": 85,
    "context.GroupContext.coset_action": 3,
    "context.GroupContext.covers": 14,
    "context.GroupContext.is_subnormal": 11,
    "context.GroupContext.join": 142,
    "context.GroupContext.maximal_subgroups_of": 6,
    "context.GroupContext.normal_subgroups": 21,
    "context.GroupContext.subgroup_classes": 12,
    "context.GroupContext.subgroups_of": 25,
    "context.GroupContext.sylow_of_subgroup": 11,
    "formations.hypercenter": 15,
    "formations.residual": 2,
    "quasinormal._classes_in": 31,
    "quasinormal._witnessed": 61,
    "quasinormal.f_supplement": 159,
    "quasinormal.fs_quasinormal": 256,
    "quasinormal.s_permutable": 85,
    "structure.generalized_fitting_of": 5,
    "structure.holds": 94,
    "structure.layer_of": 5,
    "structure.series_of": 8,
}

# The hits of the same run, over all tables: each is a question asked again.
# The heredity and correspondence encoders ask each ambient-side question
# once per subgroup, so a count above this is a question asked twice again.
_HITS_ON_S4 = 3337


def test_memo_traffic_of_the_35_theorems_on_s4(monkeypatch):
    """Every context gets a memo table that counts its misses and hits."""
    tables, misses, hits = set(), Counter(), [0]

    class Table(dict):
        def get(self, key, default=None):
            value = dict.get(self, key, default)
            if value is default:
                misses[self.name] += 1
            else:
                hits[0] += 1
            return value

    class Tables(dict):
        def __missing__(self, fn):
            table = self[fn] = Table()
            table.name = (f"{fn.__module__.rpartition('.')[2]}."
                          f"{fn.__qualname__}")
            tables.add(table.name)
            return table

    init = GroupContext.__init__

    def counting_init(ctx, *args, **kwargs):
        init(ctx, *args, **kwargs)
        ctx._memo = Tables()

    monkeypatch.setattr(GroupContext, "__init__", counting_init)
    clear_contexts()
    try:
        G = builtin_group("symmetric(4)")
        for tid in THEOREM_IDS:
            for params in params_for(G, tid):
                assert verify_case(G, tid, params).verdict != "fail"
    finally:
        clear_contexts()
    assert not tables & _UNTABLED
    assert tables <= set(_MISSES_ON_S4)
    over = {name: (n, _MISSES_ON_S4[name]) for name, n in misses.items()
            if n > _MISSES_ON_S4[name]}
    assert not over, over
    assert hits[0] <= _HITS_ON_S4
