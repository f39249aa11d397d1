"""R1 rng-discipline: all randomness flows through seeded substreams.

The simulator's reproducibility contract (see ``sim/rng.py``) is that every
stochastic component draws from a named substream of one root seed.  Any
direct call into the ``random`` module or ``numpy.random`` — construction
(``random.Random(...)``, ``np.random.default_rng(...)``) or module-level
draws (``random.choice``, ``np.random.normal``) — creates an unregistered
stream whose draws either depend on global state or silently decouple from
the experiment's root seed.  Only the body of ``class SeedSequenceRegistry``
in ``sim/rng.py`` may touch the underlying libraries: it is where seeded
streams are made.  The exemption is the class, not the file, so an unseeded
helper parked next to the registry is flagged at its origin — which is why
no interprocedural provenance pass is needed (the retired R6; see
docs/LINTING.md).

Annotations (``rng: random.Random``) and ``isinstance`` checks are fine:
the rule flags *calls*, not references.
"""

from __future__ import annotations

import ast
from typing import ClassVar, Tuple

from repro.lint.framework import Rule, path_endswith


class RngDisciplineRule(Rule):
    """Flag direct ``random.*`` / ``numpy.random.*`` calls."""

    id: ClassVar[str] = "R1"
    name: ClassVar[str] = "rng-discipline"
    hint: ClassVar[str] = (
        "draw from a SeedSequenceRegistry substream "
        "(seeds.python(name) / seeds.numpy(name)) or accept an rng parameter"
    )

    #: The one scope allowed to touch the RNG libraries: (file, class).
    EXEMPT_CLASS: ClassVar[Tuple[str, str]] = (
        "sim/rng.py", "SeedSequenceRegistry",
    )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        assert self.module is not None
        suffix, name = self.EXEMPT_CLASS
        if node.name == name and path_endswith(self.module.relpath, suffix):
            return
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        assert self.module is not None
        target = self.module.resolve_call_target(node.func)
        if target is not None and self._is_forbidden(target):
            self.flag(
                node,
                f"direct call to {target}() bypasses the "
                "SeedSequenceRegistry substream discipline",
            )
        self.generic_visit(node)

    @staticmethod
    def _is_forbidden(target: str) -> bool:
        return target.startswith("random.") or target.startswith("numpy.random.")
