"""R2 determinism-hazards: ordering must never depend on ambient state.

Scoped to the simulation hot paths (``core/``, ``sim/``, ``faults/``),
where event ordering feeds every downstream RNG draw.  Four hazards:

- iterating a ``set``/``frozenset`` — hash order varies across processes
  (string hashing is salted) and across element insertion histories;
- iterating ``dict.keys()``/``.items()`` views — insertion order is
  deterministic per run but couples event ordering to incidental mutation
  history; hot-path loops must impose an explicit ``sorted(...)`` order
  (or waive with the reason the order is provably immaterial);
- wall-clock reads (``time.time``, ``perf_counter``, ...) — simulation
  logic must consume virtual time only;
- ``id()`` used as a sort key — CPython addresses vary per process.
"""

from __future__ import annotations

import ast
from typing import ClassVar, List, Set, Tuple, Union

from repro.lint.framework import Finding, Rule, SourceModule, path_within

#: Wall-clock call targets banned in simulation logic.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)


class DeterminismHazardRule(Rule):
    """Flag ordering hazards inside the simulation hot paths."""

    id: ClassVar[str] = "R2"
    name: ClassVar[str] = "determinism-hazards"
    hint: ClassVar[str] = (
        "impose an explicit order with sorted(...), or use virtual "
        "simulation time instead of the wall clock"
    )

    SCOPES: ClassVar[Tuple[str, ...]] = ("core", "sim", "faults")

    def __init__(self) -> None:
        super().__init__()
        self._set_names: List[Set[str]] = [set()]

    def applies_to(self, relpath: str) -> bool:
        return path_within(relpath, *self.SCOPES)

    def check(self, module: SourceModule) -> List[Finding]:
        self._set_names = [set()]
        return super().check(module)

    # -- scope tracking for names bound to set-valued expressions ------------

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node)

    def _visit_scope(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        self._set_names.append(set())
        self.generic_visit(node)
        self._set_names.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._set_names[-1].add(target.id)
        self.generic_visit(node)

    def _is_set_name(self, name: str) -> bool:
        return any(name in scope for scope in self._set_names)

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset")
        ):
            return True
        if isinstance(node, ast.Name) and self._is_set_name(node.id):
            return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    # -- hazards --------------------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.expr) -> None:
        for generator in getattr(node, "generators", ()):
            self._check_iterable(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension
    visit_SetComp = _visit_comprehension
    visit_DictComp = _visit_comprehension
    visit_GeneratorExp = _visit_comprehension

    def _check_iterable(self, iterable: ast.expr) -> None:
        if self._is_set_expr(iterable):
            self.flag(
                iterable,
                "iteration over a set in a hot path: hash order is not a "
                "stable order",
            )
        elif (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Attribute)
            and iterable.func.attr in ("keys", "items")
            and not iterable.args
            and not iterable.keywords
        ):
            self.flag(
                iterable,
                f"iteration over dict .{iterable.func.attr}() in a hot path "
                "couples event order to insertion history; wrap in sorted(...)",
            )

    def visit_Call(self, node: ast.Call) -> None:
        assert self.module is not None
        target = self.module.resolve_call_target(node.func)
        if target in WALL_CLOCK_CALLS:
            self.flag(
                node,
                f"wall-clock read {target}() in simulation logic; use the "
                "simulator's virtual clock",
            )
        self._check_id_ordering(node)
        self.generic_visit(node)

    def _check_id_ordering(self, node: ast.Call) -> None:
        is_sorted = isinstance(node.func, ast.Name) and node.func.id == "sorted"
        is_sort = (
            isinstance(node.func, ast.Attribute) and node.func.attr == "sort"
        )
        if not (is_sorted or is_sort):
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            for sub in ast.walk(keyword.value):
                if isinstance(sub, ast.Name) and sub.id == "id":
                    self.flag(
                        node,
                        "id() used as a sort key: CPython addresses are not "
                        "reproducible across processes",
                    )
                    return
