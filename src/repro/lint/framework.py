"""Rule framework: findings, waivers, parsed modules, and the Rule base.

Every rule is an :class:`ast.NodeVisitor` subclass with a stable ``id``
(``R1``..), a severity, and a fix hint.  Rules see one
:class:`SourceModule` at a time — the parsed AST plus the module's import
alias tables, so rules can resolve dotted call targets
(``np.random.default_rng`` -> ``numpy.random.default_rng``) without
importing anything.

Waivers are inline comments of the form::

    offending_code()  # lint: ok(R4): integer counts, exact

The justification after the colon is mandatory; an unjustified waiver (or
one naming an unknown rule) is itself reported under the ``W0`` pseudo-rule.
A waiver written on its own comment line covers the next source line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar, Dict, List, Optional, Tuple

#: Matches one waiver comment; justification (group "why") may be absent.
WAIVER_RE = re.compile(
    r"#\s*lint:\s*ok\(\s*(?P<rule>[A-Za-z0-9_\-]+)\s*\)"
    r"(?:\s*:\s*(?P<why>[^#]*))?"
)

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Pseudo-rule ids used by the framework itself.
RULE_PARSE_ERROR = "E0"
RULE_BAD_WAIVER = "W0"


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic, machine-readable and stable across runs."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    waived: bool = False
    justification: str = ""

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        out: Dict[str, Any] = {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.hint:
            out["hint"] = self.hint
        if self.waived:
            out["waived"] = True
            out["justification"] = self.justification
        return out

    def render(self) -> str:
        """``path:line:col: RULE severity: message`` terminal line."""
        text = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity}: {self.message}"
        )
        if self.hint:
            text += f" [{self.hint}]"
        return text


@dataclass(frozen=True)
class Waiver:
    """One parsed ``# lint: ok(<rule>): <why>`` comment."""

    rule: str
    line: int
    justification: str


@dataclass
class SourceModule:
    """A parsed source file plus the lookup tables rules need."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: local alias -> dotted module name (``np`` -> ``numpy``).
    imports: Dict[str, str] = field(default_factory=dict)
    #: local name -> (module, attribute) for ``from m import a [as b]``.
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: source line (1-based) -> waivers covering findings on that line.
    waivers: Dict[int, List[Waiver]] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, relpath: str, source: str) -> "SourceModule":
        """Parse *source*; raises :class:`SyntaxError` on broken files."""
        tree = ast.parse(source, filename=str(path))
        module = cls(
            path=path,
            relpath=relpath,
            source=source,
            tree=tree,
            lines=source.splitlines(),
        )
        module._collect_imports()
        module._collect_waivers()
        return module

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports are out of scope
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    def _collect_waivers(self) -> None:
        for number, text in enumerate(self.lines, start=1):
            for match in WAIVER_RE.finditer(text):
                waiver = Waiver(
                    rule=match.group("rule"),
                    line=number,
                    justification=(match.group("why") or "").strip(),
                )
                self.waivers.setdefault(number, []).append(waiver)
                if text.lstrip().startswith("#"):
                    # A standalone waiver comment covers the next line.
                    self.waivers.setdefault(number + 1, []).append(waiver)

    def waiver_for(self, rule: str, line: int) -> Optional[Waiver]:
        """The justified waiver covering *rule* on *line*, if any."""
        for waiver in self.waivers.get(line, ()):
            if waiver.rule == rule and waiver.justification:
                return waiver
        return None

    def resolve_call_target(self, func: ast.expr) -> Optional[str]:
        """Fully dotted name of a call target, through import aliases.

        ``np.random.default_rng`` with ``import numpy as np`` resolves to
        ``numpy.random.default_rng``; a name bound by
        ``from random import Random`` resolves to ``random.Random``.
        Returns None for targets not rooted in an imported module
        (locals, ``self.x``, builtins).
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        if node.id in self.imports:
            return ".".join([self.imports[node.id]] + parts)
        if not parts and node.id in self.from_imports:
            module, attr = self.from_imports[node.id]
            return f"{module}.{attr}"
        if parts and node.id in self.from_imports:
            module, attr = self.from_imports[node.id]
            return ".".join([module, attr] + parts)
        return None


class Rule(ast.NodeVisitor):
    """Base class: one determinism/invariant contract, checked per module.

    Subclasses set the class attributes and implement ``visit_*`` methods,
    calling :meth:`flag` for each violation.  A fresh instance state is
    established by :meth:`check`, so one Rule object can scan many modules.
    """

    id: ClassVar[str] = "R0"
    name: ClassVar[str] = "abstract-rule"
    severity: ClassVar[str] = SEVERITY_ERROR
    hint: ClassVar[str] = ""

    def __init__(self) -> None:
        self.module: Optional[SourceModule] = None
        self.findings: List[Finding] = []

    def applies_to(self, relpath: str) -> bool:
        """Whether this rule scans the file at *relpath* (posix-style)."""
        return True

    def check(self, module: SourceModule) -> List[Finding]:
        """Scan one module; returns raw findings (waivers applied later)."""
        self.module = module
        self.findings = []
        self.visit(module.tree)
        return self.findings

    def flag(self, node: ast.AST, message: str, hint: Optional[str] = None) -> None:
        """Record one violation anchored at *node*."""
        assert self.module is not None
        self.findings.append(
            Finding(
                rule=self.id,
                severity=self.severity,
                path=self.module.relpath,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
                hint=self.hint if hint is None else hint,
            )
        )


def path_within(relpath: str, *fragments: str) -> bool:
    """True when posix *relpath* lies under any ``fragment`` directory.

    Matching is by path component (``core`` matches ``repro/core/x.py`` and
    ``core/x.py`` but not ``score/x.py``).
    """
    slashed = "/" + relpath.replace("\\", "/")
    return any(f"/{fragment.strip('/')}/" in slashed for fragment in fragments)


def path_endswith(relpath: str, suffix: str) -> bool:
    """True when posix *relpath* ends with the path *suffix*."""
    slashed = "/" + relpath.replace("\\", "/")
    return slashed.endswith("/" + suffix.lstrip("/"))
