"""The benchmark's tracer still finds every entry point it wraps.

perfbench/tracer.py rebinds grouplab functions and methods by name for a
traced run.  Loading it here, without writing anything next to it, makes a
rename of a wrapped entry point fail the test suite too.
"""

import sys
import types
from pathlib import Path

from grouplab import formations, quasinormal, theorems
from grouplab.catalog import builtin_group
from grouplab.context import GroupContext, clear_contexts
from grouplab.groups import Group, Homomorphism
from grouplab.perms import Permutation

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer() -> types.ModuleType:
    # exec the source instead of importing it, so no bytecode cache is written
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"),
         module.__dict__)
    return module


def _bindings() -> dict:
    """Every callable a grouplab module, dict or traced class binds."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "grouplab" and not name.startswith("grouplab."):
            continue
        for attr, value in vars(module).items():
            if callable(value):
                out[(name, attr)] = value
            elif type(value) is dict:
                out.update(((name, attr, key), item)
                           for key, item in value.items() if callable(item))
    for cls in (GroupContext, Homomorphism, Permutation, Group):
        out.update(((cls.__qualname__, attr), value)
                   for attr, value in vars(cls).items() if callable(value))
    return out


def test_tracer_wraps_and_restores_every_entry_point():
    tracer_mod = _load_tracer()
    before = _bindings()
    G = builtin_group("symmetric(3)")
    tracer = tracer_mod.Tracer({"symmetric(3)": (G.degree, G.order)})
    with tracer:
        during = _bindings()
        tracer.begin_group("symmetric(3)")
        theorems.verify_case(G, "L2.1a", {})
        quasinormal.is_s_permutable(G, G)
        tracer.end_group("symmetric(3)", 0.0)
    after = _bindings()
    wrapped = [k for k in before if during.get(k) is not before[k]]
    assert len(wrapped) >= 30
    assert [k for k in before if after.get(k) is not before[k]] == []
    calls = tracer.summary()["calls"]
    assert calls["theorems.verify_case"] == 1
    assert calls["quasinormal.s_permutable"] == 1


def test_tracer_counts_calls_through_the_public_doors():
    """The encoders and scans call the context-first entries; the tracer's
    quasinormal and formations spans count the calls made through the public
    (G, ...) functions, once each."""
    clear_contexts()
    tracer_mod = _load_tracer()
    G = builtin_group("symmetric(4)")
    tracer = tracer_mod.Tracer({"symmetric(4)": (G.degree, G.order)})
    with tracer:
        tracer.begin_group("symmetric(4)")
        theorems.verify_case(G, "L2.2.2", {"formation": "U"})
        N = formations.f_residual(G, "N")
        formations.hypercenter_preimage(G, N, "U")
        quasinormal.is_fs_quasinormal(G, N, "U")
        tracer.end_group("symmetric(4)", 0.0)
    calls = tracer.summary()["calls"]
    assert calls["theorems.verify_case"] == 1
    assert calls["formations.residual"] == 1
    assert calls["formations.hypercenter_preimage"] == 1
    assert calls["quasinormal.fs_quasinormal"] == 1
    assert calls["quasinormal.s_permutable"] == 0
