"""The section kernels on the element index against the permutation oracle
in ``_section_oracle``: classes of subgroups and of elements, centralizers
of chief factors, HP = PH, quotients, quotient images and hypercenter
preimages."""

import pytest

import _section_oracle as oracle
from grouplab.catalog import (alternating, core_catalog_path, load_catalog,
                              symmetric)
from grouplab.context import clear_contexts, context_of
from grouplab.errors import NotASubgroupError, NotNormalError
from grouplab.formations import FORMATIONS, hypercenter_preimage
from grouplab.groups import Group, from_elements, quotient
from grouplab.perms import Permutation, from_cycles
from grouplab.quasinormal import (
    has_f_supplement,
    is_fs_quasinormal,
    is_fs_quasinormal_variant,
    is_s_permutable,
)

SMALL = [e for e in load_catalog(core_catalog_path()).entries
         if e.group.order <= 60]


@pytest.fixture(autouse=True)
def fresh_contexts():
    clear_contexts()
    yield
    clear_contexts()


def check_kernels(ctx):
    G = ctx.group
    subs = ctx.all_subgroups()
    assert ([[H.key for H in cls] for cls in ctx.subgroup_classes()]
            == oracle.subgroup_class_keys(G, subs))
    assert list(ctx.conjugacy_classes()) == oracle.conjugacy_classes(G)
    normals = ctx.normal_subgroups()
    triv = ctx.trivial_subgroup()
    pairs = (list(ctx.chief_pairs()) + [(N, G) for N in normals]
             + [(triv, N) for N in normals])
    for lower, upper in pairs:
        assert (ctx.chief_centralizer(lower, upper).element_set()
                == oracle.chief_centralizer(G, lower, upper))
    sylows = [P for p in ctx.primes() for P in ctx.sylow_all(p)]
    for H in subs:
        for P in sylows:
            assert ctx.permutes(H, P) == oracle.permutes(H, P), (H, P)
    for N in normals:
        hom = oracle.coset_quotient(G, N).epimorphism
        for cls in ctx.subgroup_classes():
            K = cls[0]
            # G/1 is G itself, not the oracle's regular representation
            want = (K.key if N.order == 1
                    else oracle.quotient_image_key(hom, K))
            assert ctx.quotient_image(N, K).key == want
        for F in FORMATIONS:
            assert (hypercenter_preimage(G, N, F).element_set()
                    == oracle.hypercenter_preimage(G, hom.target, hom, F))


def test_catalog_has_91_groups_of_order_at_most_60():
    assert len(SMALL) == 91


@pytest.mark.parametrize("entry", SMALL, ids=[e.name for e in SMALL])
def test_catalog_kernels_match_oracle(entry):
    check_kernels(context_of(entry.group))


@pytest.mark.parametrize("entry", SMALL, ids=[e.name for e in SMALL])
def test_catalog_quotients_match_oracle(entry):
    """groups.quotient, built from the coset labels of the element index,
    is the permutation oracle's quotient for every normal N, 1 and G
    included; the coset action's position map q sends each element to its
    image in the quotient context's own index."""
    G = entry.group
    ctx = context_of(G)
    for N in ctx.normal_subgroups():
        res, want = quotient(G, N), oracle.coset_quotient(G, N)
        assert res.group.degree == want.group.degree
        assert res.group.generators == want.group.generators
        assert res.group.key == want.group.key
        assert res.epimorphism.images == want.epimorphism.images
        qctx, q = ctx.coset_action(N)
        image_at = qctx._index.elements
        for e, i in zip(G.elements(), ctx.positions(G)):
            assert res.epimorphism(e) == want.epimorphism(e)
            assert image_at[q[i]] == want.epimorphism(e)


def test_quotient_follows_the_callers_generators():
    """A group equal to a registered one but with other generators keeps its
    own generators in its quotient map and in the quotient."""
    ctx = context_of(symmetric(4))
    G = Group(4, [from_cycles("(1 2 3 4)", 4), from_cycles("(1 3)", 4),
                  from_cycles("(2 3)", 4)])
    assert context_of(G) is ctx and G.generators != ctx.group.generators
    for N in ctx.normal_subgroups():
        res, want = quotient(G, N), oracle.coset_quotient(G, N)
        assert res.group.generators == want.group.generators
        assert res.epimorphism.images == want.epimorphism.images


def test_coset_action_needs_a_normal_subgroup():
    S4 = symmetric(4)
    ctx = context_of(S4)
    H = ctx.generated([from_cycles("(1 2)", 4)])
    for build in (ctx.coset_action, ctx.quotient_ctx,
                  lambda N: quotient(S4, N),
                  lambda N: hypercenter_preimage(S4, N, "U")):
        with pytest.raises(NotNormalError):
            build(H)


def test_s4_quotient_kernels_match_oracle():
    ctx = context_of(symmetric(4))
    quotients = [ctx.quotient_ctx(N) for N in ctx.normal_subgroups()]
    assert [Q.group.order for Q in quotients] == [24, 6, 2, 1]
    for qctx in quotients:
        check_kernels(qctx)


def test_permutes_on_every_pair_of_s4():
    ctx = context_of(symmetric(4))
    subs = ctx.all_subgroups()
    for H in subs:
        for K in subs:
            assert ctx.permutes(H, K) == oracle.permutes(H, K), (H, K)


def test_chief_centralizer_needs_a_normal_lower():
    S4 = symmetric(4)
    ctx = context_of(S4)
    H = ctx.generated([from_cycles("(1 2)", 4)])
    with pytest.raises(NotNormalError):
        ctx.chief_centralizer(H, S4)


def test_an_element_outside_the_ambient_is_not_a_subgroup_error():
    ctx = context_of(symmetric(3))
    outside = from_cycles("(1 2)(3 4)", 4)
    with pytest.raises(NotASubgroupError):
        ctx.generated([outside])
    with pytest.raises(NotASubgroupError):
        ctx.subgroup([outside])
    foreign = Group(4, [outside])
    with pytest.raises(NotASubgroupError):
        ctx.mask(foreign)
    with pytest.raises(NotASubgroupError):
        ctx.positions(foreign)


def test_a_subgroup_context_rejects_elements_outside_its_group():
    S4 = symmetric(4)
    H = context_of(S4).generated([from_cycles("(1 2)", 4)])
    hctx = context_of(H)
    three = from_cycles("(1 2 3)", 4)
    with pytest.raises(NotASubgroupError):
        hctx.generated([three])
    with pytest.raises(NotASubgroupError):
        hctx.mask(context_of(S4).generated([three]))


def test_from_elements_generates_a_list_that_is_not_closed():
    listed = [Permutation((0, 1, 2)), from_cycles("(1 2 3)", 3),
              from_cycles("(1 3)", 3)]
    H = from_elements(3, listed)
    assert H.order == 6
    assert H.key == symmetric(3).key


@pytest.mark.parametrize("predicate", [
    lambda G, H: is_s_permutable(G, H),
    lambda G, H: is_fs_quasinormal(G, H, "U"),
    lambda G, H: is_fs_quasinormal_variant(G, H, "U"),
    lambda G, H: has_f_supplement(G, H, "U"),
], ids=["s_permutable", "fs_quasinormal", "fs_quasinormal_variant",
        "supplement"])
def test_a_non_subgroup_raises_on_every_call(predicate):
    """Validation runs on a memo miss; a failed call stores nothing, so a
    repeated call misses and raises again."""
    A4 = alternating(4)
    outside = Group(4, [from_cycles("(1 2)", 4)])
    for _ in range(2):
        with pytest.raises(NotASubgroupError):
            predicate(A4, outside)
