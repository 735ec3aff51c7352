"""Per-module spans and counters, installed from outside the program.

`Tracer.install` replaces every function of the traced modules with a
timing wrapper, both where it is defined and everywhere another module
bound it by name (`from .words import _children` in `patterns`, the
function references held in `checks.SUITES`, the re-exports in the
package).  A name wrapped only where it is defined would have its calls
from those bindings charged to the caller.  Calls inside one module are
not wrapped unless the name is public: they cannot move time between
layers.

A layer's self time is the time its spans cover minus the spans of
other layers nested inside them.  Time outside every span is
`unattributed`, so the layer self times plus `unattributed` add up to
the traced wall time exactly.
"""

from __future__ import annotations

import functools
import gc
import time
import types

LAYERS = ("words", "patterns", "maps", "paths", "series", "counting", "checks", "cli")

#: The program's memoizing caches, as (module, attribute).
CACHES = (
    ("words", "_level"),
    ("patterns", "_avoider_level"),
    ("patterns", "generate_omega"),
    ("counting", "p_coefficients"),
    ("paths", "generate_dyck"),
    ("paths", "generate_dudu_avoiders"),
)

#: Functions whose own calls and self time are reported besides their layer's.
FUNCTIONS = ("words.statistics", "counting.p_coefficients")


class Tracer:
    def __init__(self, package: types.ModuleType):
        self.package = package
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.fn_calls = dict.fromkeys(FUNCTIONS, 0)
        self.fn_self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.check_s: dict[str, float] = {}
        self.spanned_s = 0.0
        # Open spans: [layer, function, start, time of other layers inside].
        self._stack: list[list] = []
        self._fn_depth = dict.fromkeys(FUNCTIONS, 0)
        # Read before wrapping, so the counters come from the caches themselves.
        self.caches = {
            f"{mod}.{name}": getattr(self.modules[mod], name, None) for mod, name in CACHES
        }

    # -- spans ---------------------------------------------------------------

    def _enter(self, layer: str, fn: str, call: bool) -> None:
        if call:
            self.calls[layer] += 1
            if fn in self.fn_calls:
                self.fn_calls[fn] += 1
        if fn in self._fn_depth:
            self._fn_depth[fn] += 1
        self._stack.append([layer, fn, time.perf_counter(), 0.0])

    def _leave(self) -> float:
        end = time.perf_counter()
        layer, fn, start, other = self._stack.pop()
        span = end - start
        own = span - other
        if self._stack:
            parent = self._stack[-1]
            same = parent[0] == layer
            # Time of other layers passes up through spans of the same layer.
            parent[3] += other if same else span
        else:
            same = False
            self.spanned_s += span
        if not same:
            self.self_s[layer] += own
        if fn in self._fn_depth:
            self._fn_depth[fn] -= 1
            if self._fn_depth[fn] == 0:
                self.fn_self_s[fn] += own
        return span

    def _traced(self, target, layer: str, fn: str):
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            tracer._enter(layer, fn, True)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer._leave()
            if isinstance(result, types.GeneratorType):
                return tracer._traced_generator(result, layer, fn)
            return result

        return traced

    def _traced_generator(self, gen, layer: str, fn: str):
        """Charge each resumption of a generator to the layer that made it."""
        try:
            while True:
                self._enter(layer, fn, False)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._leave()
                yield item
        finally:
            gen.close()

    def _timed_check(self, target, tag: str):
        tracer = self

        @functools.wraps(target)
        def check(caps):
            tracer._enter("checks", f"check.{tag}", True)
            try:
                return target(caps)
            finally:
                span = tracer._leave()
                tracer.check_s[tag] = tracer.check_s.get(tag, 0.0) + span

        return check

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        owner = {mod.__name__: layer for layer, mod in self.modules.items()}
        for layer, mod in self.modules.items():
            for obj in list(vars(mod).values()):
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, layer)
        wrappers: dict[int, object] = {}
        for here, mod in [*self.modules.items(), (None, self.package)]:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, (type, types.ModuleType)) or not callable(obj):
                    continue
                layer = owner.get(getattr(obj, "__module__", None))
                if layer is None or (layer == here and name.startswith("_")):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._traced(obj, layer, f"{layer}.{obj.__name__}")
                setattr(mod, name, wrappers[id(obj)])
        suites = self.modules["checks"].SUITES
        timed = {tag: self._timed_check(fn, tag)
                 for entries in suites.values() for tag, _, fn in entries}
        for name, entries in suites.items():
            suites[name] = tuple((tag, text, timed[tag]) for tag, text, _ in entries)

    def _wrap_methods(self, cls: type, layer: str) -> None:
        for name, attr in list(vars(cls).items()):
            fn = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, types.FunctionType):
                setattr(cls, name, self._traced(attr, layer, fn))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._traced(attr.__func__, layer, fn)))

    # -- report --------------------------------------------------------------

    def cache_counters(self) -> dict[str, float | None]:
        """Entries, words held and hit ratio over the caches still present.

        A cache a later version removed reads as None, not as an error.
        """
        out: dict[str, float | None] = {}
        entries = hits = lookups = 0
        held: int | None = 0
        present = False
        for key, cache in self.caches.items():
            info = cache.cache_info() if hasattr(cache, "cache_info") else None
            out[f"cache.{key}.entries"] = None if info is None else info.currsize
            if info is None:
                continue
            present = True
            entries += info.currsize
            hits += info.hits
            lookups += info.hits + info.misses
            words = _words_held(cache)
            held = None if held is None or words is None else held + words
        out["cache.entries"] = entries if present else None
        out["cache.words_held"] = held if present else None
        out["cache.hit_ratio"] = hits / lookups if lookups else None
        return out


def _words_held(cache) -> int | None:
    """Number of words (tuples or strings) in the values a cache holds.

    Reads the cache through the garbage collector's view of it, so the
    cache is not called and does not change.  None when the values
    cannot be reached.
    """
    values = []
    for ref in gc.get_referents(cache):
        values.extend(ref.values() if isinstance(ref, dict) else [ref])
    if cache.cache_info().currsize and not any(isinstance(v, tuple) for v in values):
        return None
    return sum(
        len(v) for v in values
        if isinstance(v, tuple) and v and isinstance(v[0], (tuple, str))
    )
