"""Span tracer installed from outside the program.

Nothing under ``src/`` knows about this module.  A :class:`Tracer` replaces
class and module attributes with wrappers (``patch_*``), records one span per
call, and puts every original object back on :meth:`Tracer.restore`.

A span has a name (``"<layer>:<callable>"``, the layer being the module path
below ``repro.``), a start, an end, and a parent — the span that was open
when it began.  Spans are folded as they close instead of being stored (an
event-engine window closes several million): per name the call count, total
time, *self* time (its duration minus the part its child spans cover) and an
optional work count; per (parent, name) edge the calls and time.

Only synchronous callables get busy-time spans.  ``async`` callables are
recorded as wait samples (how long the caller awaited them); they interleave
across tasks, so they take no part in the parent/child stack, while the
synchronous spans that run between two awaits nest exactly as in the
simulators.
"""

from __future__ import annotations

import inspect
import sys
import time
from functools import partial
from types import MethodType
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (calls, self_s, total_s, extra) per span name, as plain lists so that the
#: wrappers update them in place.
Stat = List[float]
#: ``extra(args, result)`` -> amount of work one call did (bytes, events...).
Extra = Callable[[Tuple[Any, ...], Any], float]


def _layer(module_name: str) -> str:
    """``repro.core.peer`` -> ``core.peer``; other names stay as they are."""
    prefix = "repro."
    return module_name[len(prefix):] if module_name.startswith(prefix) else module_name


def _call(action: Callable[..., Any], *args: Any) -> Any:
    return action(*args)


class _Slot:
    """Where the spans of one name accumulate."""

    __slots__ = ("key", "layer", "stat", "edges")

    def __init__(self, key: str) -> None:
        self.key = key
        self.layer = key.split(":", 1)[0]
        self.stat: Stat = [0, 0.0, 0.0, 0]
        #: parent key -> [calls, total_s]
        self.edges: Dict[str, List[float]] = {}


class Tracer:
    """Patches callables with span wrappers and folds the spans they record."""

    def __init__(self) -> None:
        self._slots: Dict[str, _Slot] = {}
        # The open spans, innermost last, and the time their children took.
        self._open_slots: List[_Slot] = []
        self._child_time: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        #: async callable name -> awaited durations, in completion order
        self.waits: Dict[str, List[float]] = {}
        self._trampolines: Dict[str, Callable[..., Any]] = {}

    # -- wrappers ------------------------------------------------------------

    def _slot(self, key: str) -> _Slot:
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = _Slot(key)
        return slot

    def span(
        self, fn: Callable[..., Any], key: str, extra: Optional[Extra] = None
    ) -> Callable[..., Any]:
        """Wrap synchronous *fn* so each call records a span named *key*.

        *extra* is evaluated only on the outermost span of the layer, so a
        layer's helpers calling each other do not count the work twice.
        """
        slot = self._slot(key)
        stat = slot.stat
        edges = slot.edges
        open_slots = self._open_slots
        child_time = self._child_time
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            # Two flat stacks, not one frame object per span: a span then
            # allocates nothing the garbage collector has to track.
            open_slots.append(slot)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                open_slots.pop()
                stat[0] += 1
                stat[1] += duration - child_time.pop()
                stat[2] += duration
                if open_slots:
                    child_time[-1] += duration
                    parent = open_slots[-1].key
                    edge = edges.get(parent)
                    if edge is None:
                        edge = edges[parent] = [0, 0.0]
                    edge[0] += 1
                    edge[1] += duration
            if extra is not None and not (
                open_slots and open_slots[-1].layer == slot.layer
            ):
                stat[3] += extra(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wait(self, fn: Callable[..., Any], key: str) -> Callable[..., Any]:
        """Wrap ``async`` *fn* so each call records how long it was awaited."""
        samples = self.waits.setdefault(key, [])
        clock = time.perf_counter

        async def awaited(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                samples.append(clock() - start)

        awaited.__wrapped__ = fn  # type: ignore[attr-defined]
        return awaited

    def _wrap(
        self, fn: Callable[..., Any], key: str, extra: Optional[Extra]
    ) -> Callable[..., Any]:
        if inspect.iscoroutinefunction(fn):
            return self.wait(fn, key)
        return self.span(fn, key, extra)

    def callback(self, action: Callable[..., Any]) -> Callable[..., Any]:
        """Span a callback handed across a layer boundary.

        The span belongs to the layer (module) that *defined* the callback.
        A bound method of an engine object (a Poisson clock re-arming
        itself) is returned unwrapped: that time is the engine's own.
        Runs once per scheduled event, so it builds no new wrapper: one
        spanned trampoline per defining module, bound to the action.
        """
        if (
            type(action) is MethodType
            and type(action.__self__).__module__ == "repro.sim.engine"
        ):
            return action
        module = getattr(action, "__module__", None) or "unknown"
        trampoline = self._trampolines.get(module)
        if trampoline is None:
            trampoline = self._trampolines[module] = self.span(
                _call, _layer(module) + ":<callback>"
            )
        return partial(trampoline, action)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: Any, name: str, new: Any) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def patch_module(
        self,
        module: Any,
        extras: Optional[Dict[str, Extra]] = None,
        private: Tuple[str, ...] = (),
    ) -> None:
        """Span every public callable *module* defines.

        Module-level functions are replaced in every loaded ``repro.*`` /
        ``bench.*`` module that holds a reference (``from x import f`` makes
        a second binding); classes get their public methods replaced in
        place.  Properties and dunder methods are left alone, so their time
        stays in the caller's self time.  *private* names module-level
        functions to span although they start with an underscore.
        """
        extras = extras or {}
        layer = _layer(module.__name__)
        holders = [
            held
            for name, held in list(sys.modules.items())
            if held is not None and name.startswith(("repro.", "bench."))
        ]
        for name, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                if name.startswith("_") and name not in private:
                    continue
                wrapper = self._wrap(obj, f"{layer}:{name}", extras.get(name))
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is obj:
                            self._patch(holder, attr, wrapper)
            elif inspect.isclass(obj) and not name.startswith("_"):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    kind = type(member)
                    raw = (
                        member.__func__
                        if kind in (classmethod, staticmethod)
                        else member
                    )
                    if not inspect.isfunction(raw):
                        continue
                    qualified = f"{name}.{attr}"
                    wrapper = self._wrap(
                        raw, f"{layer}:{qualified}", extras.get(qualified)
                    )
                    if kind in (classmethod, staticmethod):
                        wrapper = kind(wrapper)
                    self._patch(obj, attr, wrapper)

    def patch_callback_argument(
        self, owner: Any, name: str, argument: str
    ) -> None:
        """Route the callable passed as *argument* of ``owner.name`` through
        :meth:`callback`, leaving the method itself otherwise unchanged."""
        inner = vars(owner)[name]
        # signature() follows the __wrapped__ chain down to the original.
        index = list(inspect.signature(inner).parameters).index(argument)
        callback = self.callback

        def passing(*args: Any, **kwargs: Any) -> Any:
            if len(args) > index:
                args = (
                    args[:index] + (callback(args[index]),) + args[index + 1:]
                )
            elif argument in kwargs:
                kwargs[argument] = callback(kwargs[argument])
            return inner(*args, **kwargs)

        passing.__wrapped__ = inner  # type: ignore[attr-defined]
        self._patch(owner, name, passing)

    def restore(self) -> None:
        """Put every patched attribute back; the identical objects return."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
            if vars(owner)[name] is not original:
                raise RuntimeError(
                    f"could not restore {owner.__name__}.{name}"
                )

    # -- read-out ------------------------------------------------------------

    def span_overhead(self, calls: int = 50_000) -> Tuple[float, float]:
        """Seconds one span adds to its own self time and to its parent's.

        Measured on a no-op child called in a loop under one parent; used by
        :func:`compensate` to take the tracer's own cost out of the table.
        """
        child = self.span(lambda: None, "trace:child")

        def loop() -> None:
            for _ in range(calls):
                child()

        self.span(loop, "trace:parent")()
        own = self._slots.pop("trace:child").stat[1] / calls
        parent = self._slots.pop("trace:parent").stat[1] / calls
        return own, parent

    def snapshot(self) -> Dict[str, Any]:
        """Copy of the folded state; see :meth:`since`."""
        return {
            "stats": {key: list(s.stat) for key, s in self._slots.items()},
            "edges": {
                (parent, key): list(edge)
                for key, s in self._slots.items()
                for parent, edge in s.edges.items()
            },
            "waits": {key: len(v) for key, v in self.waits.items()},
        }

    def since(self, before: Dict[str, Any]) -> Dict[str, Any]:
        """What was recorded since the snapshot *before*."""
        after = self.snapshot()
        zero = [0, 0.0, 0.0, 0]
        return {
            "stats": {
                key: [a - b for a, b in zip(stat, before["stats"].get(key, zero))]
                for key, stat in after["stats"].items()
            },
            "edges": {
                pair: [
                    a - b
                    for a, b in zip(edge, before["edges"].get(pair, zero))
                ]
                for pair, edge in after["edges"].items()
            },
            "waits": {
                key: self.waits[key][before["waits"].get(key, 0):end]
                for key, end in after["waits"].items()
            },
        }


def compensate(
    window: Dict[str, Any], overhead: Tuple[float, float]
) -> Dict[str, List[float]]:
    """The window's span stats with the tracer's own cost taken out of the
    self times: per call of a span, and per call of each of its children."""
    own, parent = overhead
    children: Dict[str, float] = {}
    for (parent_key, _key), edge in window["edges"].items():
        children[parent_key] = children.get(parent_key, 0) + edge[0]
    return {
        key: [
            stat[0],
            max(0.0, stat[1] - own * stat[0] - parent * children.get(key, 0)),
            stat[2],
            stat[3],
        ]
        for key, stat in window["stats"].items()
    }


def merge(deltas: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum the deltas of several timed chunks into one window."""
    merged: Dict[str, Any] = {"stats": {}, "edges": {}, "waits": {}}
    for delta in deltas:
        for table in ("stats", "edges"):
            for key, values in delta[table].items():
                into = merged[table].setdefault(key, [0] * len(values))
                for index, value in enumerate(values):
                    into[index] += value
        for key, samples in delta["waits"].items():
            merged["waits"].setdefault(key, []).extend(samples)
    return merged
