"""R4 float-accumulation and R5 gf256-misuse: numeric-integrity rules.

**R4** — ``sum()`` over floats accumulates rounding error left-to-right,
so two refactorings that merely reorder an iterable produce different
metric values and break byte-identical regression comparisons.  In the
metric/analysis paths (``analysis/``, ``sim/metrics.py``) simulation-time
floats must be accumulated with ``math.fsum`` (exact round-to-nearest).
Integer accumulations are fine — waive them with the reason::

    total = sum(self.peer_degree)  # lint: ok(R4): integer edge counts, exact

**R5** — GF(2^8) vectors are ``uint8`` numpy arrays, so Python's ``+``,
``*``, ``**`` and even ``^`` happily produce *numerically valid but
field-theoretically wrong* results (``+`` wraps mod 256 instead of XOR;
``*`` is integer product, not table lookup).  Any native arithmetic on an
object whose name marks it as field data (``coeff*``, ``gf256*``) in the
coding/protocol layers must go through :mod:`repro.coding.gf256`.
"""

from __future__ import annotations

import ast
import re
from typing import ClassVar, Optional, Tuple, Type

from repro.lint.framework import Rule, path_endswith, path_within


class FloatAccumulationRule(Rule):
    """Flag bare ``sum()`` in metric/analysis paths."""

    id: ClassVar[str] = "R4"
    name: ClassVar[str] = "float-accumulation"
    hint: ClassVar[str] = (
        "use math.fsum(...) for float accumulation, or waive with "
        "# lint: ok(R4): <why> when the operands are exact"
    )

    SCOPES: ClassVar[Tuple[str, ...]] = ("analysis",)
    FILES: ClassVar[Tuple[str, ...]] = ("sim/metrics.py",)

    def applies_to(self, relpath: str) -> bool:
        return path_within(relpath, *self.SCOPES) or any(
            path_endswith(relpath, name) for name in self.FILES
        )

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            self.flag(
                node,
                "bare sum() accumulates float rounding error order-"
                "dependently in a metrics path",
            )
        self.generic_visit(node)


class Gf256MisuseRule(Rule):
    """Flag native Python arithmetic on GF(256)-named objects."""

    id: ClassVar[str] = "R5"
    name: ClassVar[str] = "gf256-misuse"
    hint: ClassVar[str] = (
        "use repro.coding.gf256 (add/mul/combine_rows/vec_scale) for "
        "field arithmetic"
    )

    SCOPES: ClassVar[Tuple[str, ...]] = ("coding", "core")
    #: The field implementation itself is the one place XOR *is* field math.
    EXEMPT_FILES: ClassVar[Tuple[str, ...]] = ("coding/gf256.py",)

    #: Identifiers that mark a value as GF(256) field data.
    GF_NAME = re.compile(r"(^|_)(gf256|gf|coeff\w*)($|_)", re.IGNORECASE)

    FORBIDDEN_OPS: ClassVar[Tuple[Type[ast.AST], ...]] = (
        ast.Add,
        ast.Mult,
        ast.Pow,
        ast.BitXor,
    )

    def applies_to(self, relpath: str) -> bool:
        if any(path_endswith(relpath, name) for name in self.EXEMPT_FILES):
            return False
        return path_within(relpath, *self.SCOPES)

    def _gf_operand(self, node: ast.expr) -> Optional[str]:
        """The GF-marked identifier of *node*, if it names field data."""
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Subscript):
            return self._gf_operand(node.value)
        if name is not None and self.GF_NAME.search(name):
            return name
        return None

    def _op_symbol(self, op: ast.operator) -> str:
        return {
            ast.Add: "+",
            ast.Mult: "*",
            ast.Pow: "**",
            ast.BitXor: "^",
        }.get(type(op), type(op).__name__)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, self.FORBIDDEN_OPS):
            name = self._gf_operand(node.left) or self._gf_operand(node.right)
            if name is not None:
                self.flag(
                    node,
                    f"native {self._op_symbol(node.op)!r} on GF(256) data "
                    f"({name!r}) is integer arithmetic, not field arithmetic",
                )
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, self.FORBIDDEN_OPS):
            name = self._gf_operand(node.target) or self._gf_operand(node.value)
            if name is not None:
                self.flag(
                    node,
                    f"native {self._op_symbol(node.op)!r}= on GF(256) data "
                    f"({name!r}) is integer arithmetic, not field arithmetic",
                )
        self.generic_visit(node)
