"""Per-layer tracing of grouplab from outside the package.

For the length of one traced run, :class:`Tracer` replaces public entry
points of grouplab's modules with wrappers and puts the originals back when
the run ends.  A function is replaced under every name that refers to it,
including the names other modules bound with ``from .x import f`` and the
values of module-level dispatch tables; methods are replaced on their
classes.  Nothing under ``src/`` is edited.

Each span wrapper counts calls and adds self time: the call's duration
minus the time spent in wrapped calls it made.  Kernel operations
(``Permutation.__mul__``, ``groups.closure``, ``Group.__init__``) are only
counted, because timing them would cost more than the work they do.  Spans
of at least ``MIN_SPAN_S`` are also kept, with the group they belong to and
the span that called them, and written out with :meth:`Tracer.trace_file`.
"""

from __future__ import annotations

import itertools
import sys
import time
from collections import defaultdict
from functools import update_wrapper

from grouplab import cache, context, formations, groups, lattice, perms
from grouplab import quasinormal, structure, theorems

MIN_SPAN_S = 1e-3

# Module-level functions timed as spans: layer name -> functions.
FUNCTION_SPANS = {
    "groups.quotient": (groups.quotient,),
    "quasinormal.s_permutable": (quasinormal.is_s_permutable,),
    "quasinormal.fs_quasinormal": (quasinormal.is_fs_quasinormal,
                                   quasinormal.is_fs_quasinormal_variant),
    "quasinormal.supplement": (quasinormal.has_f_supplement,),
    "formations.hypercenter": (formations.f_hypercenter,),
    "formations.hypercenter_preimage": (formations.hypercenter_preimage,),
    "formations.residual": (formations.f_residual,),
    "structure": tuple(getattr(structure, name) for name in (
        "series", "predicate", "chief_factors", "components", "layer",
        "generalized_fitting", "derived_subgroup", "is_abelian", "is_cyclic",
        "is_p_group", "is_soluble", "is_perfect", "is_nilpotent",
        "is_supersoluble", "is_p_nilpotent", "is_simple", "is_quasisimple",
        "is_quasinilpotent")),
    "lattice.enumerate_subgroups": (lattice.enumerate_subgroups,),
    "theorems.verify_case": (theorems.verify_case,),
    "cache.load_lattice": (cache.load_lattice,),
    "cache.store_lattice": (cache.store_lattice,),
}

# Methods timed as spans: layer name -> (class, method name).
METHOD_SPANS = {
    "context.normal_subgroups": (context.GroupContext, "normal_subgroups"),
    "context.subgroup_classes": (context.GroupContext, "subgroup_classes"),
    "context.conjugacy_classes": (context.GroupContext, "conjugacy_classes"),
    "groups.image_of_subgroup": (groups.Homomorphism, "image_of_subgroup"),
    "groups.preimage_elements": (groups.Homomorphism, "preimage_elements"),
}

# GroupContext.all_subgroups is split by the context it runs on: the
# catalog group being analysed, or any subgroup or quotient of it.
AMBIENT_LATTICE = "context.ambient_lattice"
SECTION_LATTICE = "context.section_lattice"

# Calls counted without timing.
COUNTERS = {
    "perms.mul": (perms.Permutation, "__mul__"),
    "groups.group_init": (groups.Group, "__init__"),
}
CLOSURE_COUNTER = "groups.closure"

MEMO_LAYERS = ("quasinormal.s_permutable", "quasinormal.fs_quasinormal",
               "quasinormal.supplement")

SPAN_LAYERS = (tuple(FUNCTION_SPANS) + tuple(METHOD_SPANS)
               + (AMBIENT_LATTICE, SECTION_LATTICE))
COUNT_LAYERS = tuple(COUNTERS) + (CLOSURE_COUNTER,)


class TraceError(RuntimeError):
    """A wrapped entry point could not be found, or was not restored."""


def _get(owner, key):
    """A module's or class's own attribute, or a dict item."""
    return owner[key] if isinstance(owner, dict) else vars(owner)[key]


def _put(owner, key, value) -> None:
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Wraps grouplab's entry points while installed, and aggregates what it sees."""

    def __init__(self, catalog_groups: dict[str, tuple[int, int]]):
        # name -> (degree, order) of every catalog group a run may analyse
        self.catalog_groups = catalog_groups
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.theorem_s: dict[str, float] = defaultdict(float)
        self.group_seconds: list[tuple[str, float]] = []
        self.spans: list[tuple[int, str, str, float, float]] = []
        self.memo_calls = 0
        self.memo_distinct = 0
        self._memo_keys: set = set()
        self._stack: list[list] = []   # [layer, start, seconds in wrapped children]
        self._counters = {name: itertools.count() for name in COUNT_LAYERS}
        self._group_index = -1
        self._ambient: tuple[int, int] | None = None
        self._restore: list = []
        self._origin = time.perf_counter()
        self._summary: dict | None = None

    # -- installing and restoring ------------------------------------------

    def install(self) -> None:
        try:
            for layer, fns in FUNCTION_SPANS.items():
                for fn in fns:
                    self._rebind(fn, self._span(layer, fn))
            for layer, (cls, attr) in METHOD_SPANS.items():
                self._set(cls, attr, self._span(layer, getattr(cls, attr)))
            all_subgroups = context.GroupContext.all_subgroups
            self._set(context.GroupContext, "all_subgroups",
                      self._span(None, all_subgroups))
            for layer, (cls, attr) in COUNTERS.items():
                self._set(cls, attr, self._counted(layer, getattr(cls, attr)))
            self._rebind(groups.closure,
                         self._counted(CLOSURE_COUNTER, groups.closure))
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back, newest first, and check that it is back."""
        while self._restore:
            owner, key, original = self._restore.pop()
            _put(owner, key, original)
            if _get(owner, key) is not original:
                raise TraceError(f"{owner!r}.{key} was not restored")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _set(self, owner, key, value) -> None:
        self._restore.append((owner, key, _get(owner, key)))
        _put(owner, key, value)

    def _rebind(self, original, wrapper) -> None:
        """Replace `original` under every name a grouplab module binds it to."""
        sites = 0
        modules = [m for name, m in sys.modules.items()
                   if name == "grouplab" or name.startswith("grouplab.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                    sites += 1
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            self._set(value, key, wrapper)
                            sites += 1
        if not sites:
            raise TraceError(f"no module binds {original.__qualname__}")

    # -- wrappers ------------------------------------------------------------

    def _counted(self, layer, fn):
        tick = self._counters[layer].__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)

        return update_wrapper(wrapper, fn)

    def _span(self, layer, fn):
        """Time fn as `layer`; layer None marks GroupContext.all_subgroups."""
        stack = self._stack
        calls = self.calls
        clock = time.perf_counter
        memo_tag = fn.__name__ if layer in MEMO_LAYERS else None
        verify = layer == "theorems.verify_case"

        def wrapper(*args, **kwargs):
            name = layer if layer is not None else self._lattice_layer(args[0])
            calls[name] += 1
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.self_s[name] += duration - frame[2]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration
                if duration >= MIN_SPAN_S:
                    self.spans.append((self._group_index, name,
                                       parent[0] if parent else "",
                                       frame[1] - self._origin, duration))
                if memo_tag is not None:
                    self._memo_call(memo_tag, args, kwargs)
                if verify:
                    self.theorem_s[args[1]] += duration

        return update_wrapper(wrapper, fn)

    def _lattice_layer(self, ctx) -> str:
        # Within one catalog group's analysis, a context of the same degree
        # and order is the group itself: subgroups are smaller, and
        # quotients by a non-trivial normal subgroup are smaller too.
        G = ctx.group
        if (G.degree, G.order) == self._ambient:
            return AMBIENT_LATTICE
        return SECTION_LATTICE

    def _memo_call(self, tag, args, kwargs) -> None:
        # The keys a grouplab memo would use, for the contexts of one group:
        # contexts are cleared between groups, so keys are too.
        G, H = args[0], args[1]
        key = (tag, G.degree, G.key, H.key, args[2:],
               tuple(sorted(kwargs.items())))
        self.memo_calls += 1
        if key not in self._memo_keys:
            self._memo_keys.add(key)
            self.memo_distinct += 1

    # -- groups ------------------------------------------------------------------

    def begin_group(self, name: str) -> None:
        self._group_index = len(self.group_seconds)
        self._ambient = self.catalog_groups[name]
        self._memo_keys.clear()

    def end_group(self, name: str, seconds: float) -> None:
        self.group_seconds.append((name, seconds))
        self._ambient = None
        self._memo_keys.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self seconds and memo counts per layer, read once the run is over."""
        if self._summary is None:
            calls = {layer: self.calls.get(layer, 0) for layer in SPAN_LAYERS}
            # reading an itertools.count advances it, so read each one once
            calls.update((layer, next(counter))
                         for layer, counter in self._counters.items())
            self._summary = {
                "calls": calls,
                "self_s": {layer: self.self_s.get(layer, 0.0)
                           for layer in SPAN_LAYERS},
                "theorem_s": {tid: self.theorem_s.get(tid, 0.0)
                              for tid in theorems.THEOREM_IDS},
                "memo_calls": self.memo_calls,
                "memo_distinct": self.memo_distinct,
            }
        return self._summary

    def trace_file(self) -> dict:
        """Everything the run kept in memory, for writing out at its end."""
        ranked = sorted(self.group_seconds, key=lambda gs: -gs[1])
        return {
            **self.summary(),
            "group_seconds": self.group_seconds,
            "top_groups": ranked[:10],
            "min_span_s": MIN_SPAN_S,
            "span_fields": ["group_index", "layer", "parent", "start_s",
                            "duration_s"],
            "spans": self.spans,
        }
