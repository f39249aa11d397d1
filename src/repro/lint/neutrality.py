"""R7: static null-plan neutrality proofs for the hook surfaces.

PR 5/6 established *runtime* bitwise neutrality: a system built with a
null :class:`FaultPlan`/:class:`AdversaryPlan` (or no monitors attached)
replays the exact event sequence of a system built with none at all.
R7 turns that into a *structural* contract checked on every lint run: it
walks the hook-surface methods under the null-plan hypothesis — every
plan knob falsy, every role set empty, the probe hook ``None`` — with an
abstract interpreter that prunes decidable branches, and proves each
method short-circuits before any expensive construct:

- ``rng-draw``: a call on an ``rng``/``_rng`` receiver, or any call fed
  an RNG-valued argument (``exponential(self._rng, ...)``);
- ``alloc``: comprehensions over non-empty iterables, non-empty
  list/dict/set displays, ``list``/``dict``/``set``/``sorted`` over
  non-empty arguments;
- ``trace-emit``: a call on a ``tracer``/``_tracer`` receiver;
- ``schedule``: a ``schedule*`` call on a ``sim``/``_sim`` receiver;
- ``hook-call``: invoking a value proven ``None`` under the hypothesis.

Each surface declares which op classes it must avoid — the simulator's
``run_until`` legitimately allocates (batch heap drains) but must never
invoke the probe hook when ``_probe is None``, while the injector
queries must avoid all five.  Surfaces are keyed by *class name*, not
path, so golden-fixture trees exercise the pass by reusing the names.

A method with no reachable expensive op is *certified*; the certificates
are surfaced through :meth:`NeutralityRule.certified` into the JSON
report, where CI asserts the faults/adversary/monitor surfaces stay
machine-checked.  Everything undecidable is walked conservatively: both
branches of an unknown ``if``, one iteration of an unknown loop — so a
certificate means "no path under the hypothesis reaches the op", while
an unknown value never *suppresses* a finding on code it guards.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.lint.framework import (
    SEVERITY_ERROR,
    Finding,
    Project,
    ProjectRule,
    SourceModule,
)

# -- abstract values under the null-plan hypothesis ------------------------

V_NONE = "none"  # proven None
V_EMPTY = "empty"  # proven falsy: zero knob, empty role set, False
V_FALSY = "falsy"  # falsy, but None-ness unknown (join of none/empty)
V_TRUE = "true"  # proven truthy
V_PLAN = "plan"  # a null plan object: truthy, every attribute falsy
V_RNG = "rng"  # the dedicated RNG substream
V_SIM = "sim"  # the simulation engine
V_TRACER = "tracer"  # Optional[Tracer]: may be live even under null plan
V_UNKNOWN = "unknown"

#: Attribute/parameter names carrying infrastructure values regardless of
#: surface facts.
_INFRA_NAMES: Mapping[str, str] = {
    "rng": V_RNG,
    "_rng": V_RNG,
    "py_rng": V_RNG,
    "_py_rng": V_RNG,
    "np_rng": V_RNG,
    "_np_rng": V_RNG,
    "sim": V_SIM,
    "_sim": V_SIM,
    "tracer": V_TRACER,
    "_tracer": V_TRACER,
}

# -- expensive-op classes --------------------------------------------------

OP_RNG = "rng-draw"
OP_ALLOC = "alloc"
OP_TRACE = "trace-emit"
OP_SCHEDULE = "schedule"
OP_HOOK = "hook-call"

ALL_OPS = frozenset({OP_RNG, OP_ALLOC, OP_TRACE, OP_SCHEDULE, OP_HOOK})

_OP_DESCRIPTION = {
    OP_RNG: "an RNG draw",
    OP_ALLOC: "an allocation-heavy construct",
    OP_TRACE: "a trace emission",
    OP_SCHEDULE: "a scheduler call",
    OP_HOOK: "a hook invocation on a value that is None",
}


@dataclass(frozen=True)
class Surface:
    """One hook surface: a class, its hot methods, and its null facts."""

    class_name: str
    methods: FrozenSet[str]
    #: attribute name -> abstract value under the null-plan hypothesis.
    facts: Mapping[str, str]
    #: op classes this surface must short-circuit before.
    ops: FrozenSet[str] = ALL_OPS


#: The contract: the hook surfaces PR 5/6 proved neutral at runtime.  The
#: shared base classes carry the queries every engine calls — the event
#: simulator through the injectors, the live runtime directly, the fast
#: engine through its masks — so one proof covers all three.
SURFACES: Tuple[Surface, ...] = (
    Surface(
        class_name="FaultVerdicts",
        methods=frozenset(
            {
                "__init__",
                "_sample_polluters",
                "drop_gossip",
                "drop_pull",
                "is_polluter",
                "pollutes",
                "maybe_pollute",
            }
        ),
        facts={"plan": V_PLAN, "polluters": V_EMPTY},
    ),
    Surface(
        class_name="FaultInjector",
        methods=frozenset({"__init__", "start", "stop", "servers_down"}),
        facts={"plan": V_PLAN, "polluters": V_EMPTY},
    ),
    Surface(
        # The simulators never construct one under a null plan (every hook
        # guards on None), but role sampling and the sizing arithmetic
        # must still do nothing when every fraction is zero.
        class_name="AdversaryRoles",
        methods=frozenset(
            {
                "__init__",
                "_sample_roles",
                "capture_probability",
                "sybil_burst_size",
            }
        ),
        facts={
            "plan": V_PLAN,
            "liars": V_EMPTY,
            "freeriders": V_EMPTY,
            "polluters": V_EMPTY,
        },
    ),
    Surface(
        # The queries must short-circuit when every *strategy* is off.
        class_name="AdversaryInjector",
        methods=frozenset(
            {
                "start",
                "stop",
                "is_sybil",
                "suppress_gossip",
                "targets_low_degree",
                "pollutes_gossip",
                "serves_junk",
                "is_adversarial",
                "capture_pull",
            }
        ),
        facts={
            "plan": V_PLAN,
            "liars": V_EMPTY,
            "freeriders": V_EMPTY,
            "polluters": V_EMPTY,
            "_liar_list": V_EMPTY,
            "_sybils": V_EMPTY,
        },
    ),
    Surface(
        # The batch queries must short-circuit on the plan knob before
        # the numpy draw, exactly like the scalar verdicts they extend.
        class_name="FastFaultMasks",
        methods=frozenset(
            {
                "__init__",
                "gossip_loss_mask",
                "pull_loss_mask",
                "outage_timeline",
            }
        ),
        facts={"plan": V_PLAN, "polluters": V_EMPTY},
    ),
    Surface(
        # capture_mask guards on a computed probability (0 when nobody
        # advertises), which the abstract interpreter cannot decide —
        # runtime tests pin it.
        class_name="FastAdversaryMasks",
        methods=frozenset({"__init__", "targets_low_degree"}),
        facts={
            "plan": V_PLAN,
            "liars": V_EMPTY,
            "freeriders": V_EMPTY,
            "polluters": V_EMPTY,
        },
    ),
    Surface(
        # The engine's own batch allocations are the fast path itself;
        # the monitor contract is only that a detached probe is never
        # invoked.
        class_name="Simulator",
        methods=frozenset({"run_until"}),
        facts={"_probe": V_NONE},
        ops=frozenset({OP_HOOK}),
    ),
)


@dataclass
class _Summary:
    """Per-method result: neutral under null? what does it return?"""

    safe: bool = True
    ret: str = V_UNKNOWN
    violations: List[Tuple[ast.AST, str, str]] = field(default_factory=list)


def _join_values(a: str, b: str) -> str:
    if a == b:
        return a
    if {a, b} <= {V_NONE, V_EMPTY, V_FALSY}:
        return V_FALSY
    return V_UNKNOWN


def _decide(value: str) -> Optional[bool]:
    """Truthiness of an abstract value, when decidable."""
    if value in (V_NONE, V_EMPTY, V_FALSY):
        return False
    if value in (V_TRUE, V_PLAN, V_RNG, V_SIM):
        return True
    return None


class _MethodWalker:
    """Abstract interpretation of one method under the null hypothesis."""

    def __init__(
        self,
        surface: Surface,
        summaries: Dict[str, _Summary],
        node: ast.AST,
    ) -> None:
        self.surface = surface
        self.summaries = summaries
        self.node = node
        self.env: Dict[str, str] = {}
        self.returns: List[str] = []
        self.fell_through = False
        self.violations: List[Tuple[ast.AST, str, str]] = []
        self._seed_params()

    def _seed_params(self) -> None:
        args = getattr(self.node, "args")
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.arg in ("self", "cls"):
                continue
            if arg.arg == "plan":
                self.env[arg.arg] = V_PLAN
            elif arg.arg in _INFRA_NAMES:
                self.env[arg.arg] = _INFRA_NAMES[arg.arg]
            else:
                self.env[arg.arg] = V_UNKNOWN

    def run(self) -> _Summary:
        terminated = self.walk_body(getattr(self.node, "body"))
        if not terminated:
            self.returns.append(V_NONE)  # falling off the end returns None
        ret = V_UNKNOWN
        if self.returns:
            ret = self.returns[0]
            for value in self.returns[1:]:
                ret = _join_values(ret, value)
        return _Summary(
            safe=not self.violations, ret=ret, violations=self.violations
        )

    def _flag(self, node: ast.AST, op: str) -> None:
        if op in self.surface.ops:
            self.violations.append((node, op, _OP_DESCRIPTION[op]))

    # -- statements --------------------------------------------------------

    def walk_body(self, body: Sequence[ast.stmt]) -> bool:
        """Walk statements in order; True when every path terminates."""
        for stmt in body:
            if self.walk_statement(stmt):
                return True
        return False

    def walk_statement(self, stmt: ast.stmt) -> bool:
        """Walk one statement; True when it terminates the current path."""
        if isinstance(stmt, ast.Return):
            if stmt.value is None:
                self.returns.append(V_NONE)
            else:
                self.returns.append(self.eval(stmt.value))
            return True
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return True  # terminates this body; loops stay conservative
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc)
            return True
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, value)
            return False
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind(stmt.target, self.eval(stmt.value))
            return False
        if isinstance(stmt, ast.AugAssign):
            self.eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = V_UNKNOWN
            return False
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
            return False
        if isinstance(stmt, ast.If):
            decision = self.decide_expr(stmt.test)
            if decision is True:
                return self.walk_body(stmt.body)
            if decision is False:
                return self.walk_body(stmt.orelse)
            then_ends = self.walk_body(stmt.body)
            else_ends = self.walk_body(stmt.orelse) if stmt.orelse else False
            return then_ends and else_ends
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterable = self.eval(stmt.iter)
            if _decide(iterable) is False:
                return self.walk_body(stmt.orelse)
            self._bind(stmt.target, V_UNKNOWN)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
            return False
        if isinstance(stmt, ast.While):
            decision = self.decide_expr(stmt.test)
            if decision is False:
                return self.walk_body(stmt.orelse)
            self.walk_body(stmt.body)
            self.walk_body(stmt.orelse)
            return False
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value)
            return self.walk_body(stmt.body)
        if isinstance(stmt, ast.Try):
            body_ends = self.walk_body(stmt.body)
            for handler in stmt.handlers:
                self.walk_body(handler.body)
            self.walk_body(stmt.orelse)
            finally_ends = self.walk_body(stmt.finalbody)
            return finally_ends or (body_ends and not stmt.handlers)
        if isinstance(stmt, (ast.Assert, ast.Delete)):
            for node in ast.walk(stmt):
                if isinstance(node, ast.expr) and not isinstance(
                    node, (ast.Name, ast.Constant)
                ):
                    pass
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    self.eval(node)
            return False
        if isinstance(
            stmt,
            (
                ast.FunctionDef,
                ast.AsyncFunctionDef,
                ast.ClassDef,
                ast.Pass,
                ast.Import,
                ast.ImportFrom,
                ast.Global,
                ast.Nonlocal,
            ),
        ):
            return False
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call):
                self.eval(node)
        return False

    def _bind(self, target: ast.expr, value: str) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, V_UNKNOWN)
        # attribute writes don't update surface facts: the facts describe
        # the *hypothesis* state, and the certified methods never violate
        # it (runtime neutrality tests pin that independently).

    # -- expressions -------------------------------------------------------

    def decide_expr(self, expr: ast.expr) -> Optional[bool]:
        """Truth value of a condition under the hypothesis, if decidable."""
        if isinstance(expr, ast.UnaryOp) and isinstance(expr.op, ast.Not):
            inner = self.decide_expr(expr.operand)
            return None if inner is None else not inner
        if isinstance(expr, ast.BoolOp):
            return self._decide_boolop(expr)
        if isinstance(expr, ast.Compare):
            decision = self._decide_compare(expr)
            if decision is not None:
                return decision
            self.eval(expr)
            return None
        return _decide(self.eval(expr))

    def _decide_boolop(self, expr: ast.BoolOp) -> Optional[bool]:
        is_and = isinstance(expr.op, ast.And)
        result: Optional[bool] = is_and  # neutral element
        for value in expr.values:
            decision = self.decide_expr(value)
            if is_and and decision is False:
                return False  # later operands never evaluate
            if not is_and and decision is True:
                return True
            if decision is None:
                result = None
        return result

    def _decide_compare(self, expr: ast.Compare) -> Optional[bool]:
        if len(expr.ops) != 1:
            return None
        op = expr.ops[0]
        left, right = expr.left, expr.comparators[0]
        if isinstance(op, (ast.Is, ast.IsNot)):
            value = None
            if _is_none_const(right):
                value = self.eval(left)
            elif _is_none_const(left):
                value = self.eval(right)
            if value == V_NONE:
                return isinstance(op, ast.Is)
            if value in (V_EMPTY, V_PLAN, V_RNG, V_SIM, V_TRUE):
                return isinstance(op, ast.IsNot)
            return None
        if isinstance(op, (ast.In, ast.NotIn)):
            container = self.eval(right)
            self.eval(left)
            if container == V_EMPTY:
                return isinstance(op, ast.NotIn)
            return None
        if isinstance(op, (ast.Gt, ast.GtE, ast.Lt, ast.LtE)):
            # A falsy knob compares as zero against a numeric literal 0.
            if _is_zero_const(right) and self.eval(left) == V_EMPTY:
                if isinstance(op, ast.Gt):
                    return False
                if isinstance(op, ast.GtE):
                    return True
                if isinstance(op, ast.Lt):
                    return False
                return True  # LtE
            if _is_zero_const(left) and self.eval(right) == V_EMPTY:
                if isinstance(op, ast.Lt):
                    return False
                if isinstance(op, ast.LtE):
                    return True
                if isinstance(op, ast.Gt):
                    return False
                return True  # GtE
        return None

    def eval(self, expr: ast.expr) -> str:
        if isinstance(expr, ast.Constant):
            if expr.value is None:
                return V_NONE
            if isinstance(expr.value, bool):
                return V_TRUE if expr.value else V_EMPTY
            if expr.value == 0 or expr.value == "" or expr.value == b"":
                return V_EMPTY
            return V_TRUE
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id, V_UNKNOWN)
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.BoolOp):
            decision = self._decide_boolop(expr)
            if decision is True:
                return V_TRUE
            if decision is False:
                return V_FALSY
            return V_UNKNOWN
        if isinstance(expr, ast.UnaryOp):
            if isinstance(expr.op, ast.Not):
                decision = self.decide_expr(expr.operand)
                if decision is None:
                    return V_UNKNOWN
                return V_TRUE if not decision else V_EMPTY
            self.eval(expr.operand)
            return V_UNKNOWN
        if isinstance(expr, ast.Compare):
            decision = self._decide_compare(expr)
            if decision is None:
                for sub in [expr.left] + expr.comparators:
                    self.eval(sub)
                return V_UNKNOWN
            return V_TRUE if decision else V_EMPTY
        if isinstance(expr, ast.IfExp):
            decision = self.decide_expr(expr.test)
            if decision is True:
                return self.eval(expr.body)
            if decision is False:
                return self.eval(expr.orelse)
            return _join_values(self.eval(expr.body), self.eval(expr.orelse))
        if isinstance(expr, (ast.List, ast.Set)):
            if expr.elts:
                self._flag(expr, OP_ALLOC)
                for element in expr.elts:
                    self.eval(element)
                return V_UNKNOWN
            return V_EMPTY
        if isinstance(expr, ast.Dict):
            if expr.keys:
                self._flag(expr, OP_ALLOC)
                for key in expr.keys:
                    if key is not None:
                        self.eval(key)
                for value in expr.values:
                    self.eval(value)
                return V_UNKNOWN
            return V_EMPTY
        if isinstance(expr, ast.Tuple):
            for element in expr.elts:
                self.eval(element)
            return V_EMPTY if not expr.elts else V_UNKNOWN
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.DictComp)):
            return self._eval_comprehension(expr)
        if isinstance(expr, ast.GeneratorExp):
            # Lazy: building the generator is cheap; consuming it is the
            # consumer's op (list()/sorted() over it flags there).
            return V_UNKNOWN
        if isinstance(expr, ast.Subscript):
            value = self.eval(expr.value)
            if not isinstance(expr.slice, ast.Slice):
                self.eval(expr.slice)
            return V_EMPTY if value == V_EMPTY else V_UNKNOWN
        if isinstance(expr, ast.NamedExpr):
            value = self.eval(expr.value)
            if isinstance(expr.target, ast.Name):
                self.env[expr.target.id] = value
            return value
        for node in ast.iter_child_nodes(expr):
            if isinstance(node, ast.expr):
                self.eval(node)
        return V_UNKNOWN

    def _eval_comprehension(self, expr: ast.expr) -> str:
        generators = getattr(expr, "generators")
        first = generators[0] if generators else None
        if first is not None and _decide(self.eval(first.iter)) is False:
            return V_EMPTY  # comprehension over nothing builds nothing
        self._flag(expr, OP_ALLOC)
        for generator in generators:
            self._bind(generator.target, V_UNKNOWN)
            for condition in generator.ifs:
                self.eval(condition)
        for sub in ast.iter_child_nodes(expr):
            if isinstance(sub, ast.expr):
                self.eval(sub)
        return V_UNKNOWN

    def _eval_attribute(self, expr: ast.Attribute) -> str:
        base = expr.value
        if isinstance(base, ast.Name) and base.id in ("self", "cls"):
            if expr.attr in self.surface.facts:
                return self.surface.facts[expr.attr]
            if expr.attr in _INFRA_NAMES:
                return _INFRA_NAMES[expr.attr]
            return V_UNKNOWN
        value = self.eval(base)
        if value == V_PLAN:
            return V_EMPTY  # every knob on a null plan is falsy
        return V_UNKNOWN

    def _eval_call(self, call: ast.Call) -> str:
        func = call.func
        # self.method(...): use the class summary.
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")
            and func.attr not in self.surface.facts
            and func.attr not in _INFRA_NAMES
        ):
            summary = self.summaries.get(func.attr)
            self._eval_args(call)
            if summary is not None:
                if not summary.safe:
                    self._flag(call, self._dominant_op(summary))
                return summary.ret
            return V_UNKNOWN
        if isinstance(func, ast.Attribute):
            receiver = self.eval(func.value)
            if receiver == V_RNG:
                self._flag(call, OP_RNG)
                self._eval_args(call)
                return V_UNKNOWN
            if receiver == V_TRACER:
                self._flag(call, OP_TRACE)
                self._eval_args(call)
                return V_UNKNOWN
            if receiver == V_SIM and func.attr.startswith("schedule"):
                self._flag(call, OP_SCHEDULE)
                self._eval_args(call)
                return V_UNKNOWN
            if receiver == V_NONE:
                self._flag(call, OP_HOOK)
                self._eval_args(call)
                return V_UNKNOWN
            if receiver == V_EMPTY and func.attr in (
                "items",
                "keys",
                "values",
                "copy",
            ):
                self._eval_args(call)
                return V_EMPTY
            self._eval_args(call)
            return V_UNKNOWN
        if isinstance(func, ast.Name):
            value = self.env.get(func.id)
            if value == V_NONE:
                self._flag(call, OP_HOOK)
                self._eval_args(call)
                return V_UNKNOWN
            arg_values = self._eval_args(call)
            if V_RNG in arg_values:
                # exponential(self._rng, rate) and friends draw from the
                # stream they are handed.
                self._flag(call, OP_RNG)
                return V_UNKNOWN
            if func.id in ("list", "dict", "set", "sorted", "frozenset"):
                if any(v not in (V_EMPTY, V_NONE, V_FALSY) for v in arg_values):
                    self._flag(call, OP_ALLOC)
                    return V_UNKNOWN
                return V_EMPTY
            if func.id == "bool" and len(arg_values) == 1:
                decision = _decide(arg_values[0])
                if decision is True:
                    return V_TRUE
                if decision is False:
                    return V_EMPTY
                return V_UNKNOWN
            if func.id == "len" and len(arg_values) == 1:
                return V_EMPTY if arg_values[0] == V_EMPTY else V_UNKNOWN
            return V_UNKNOWN
        self.eval(func)
        self._eval_args(call)
        return V_UNKNOWN

    def _eval_args(self, call: ast.Call) -> List[str]:
        values: List[str] = []
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                values.append(self.eval(arg.value))
            else:
                values.append(self.eval(arg))
        for keyword in call.keywords:
            values.append(self.eval(keyword.value))
        return values

    @staticmethod
    def _dominant_op(summary: _Summary) -> str:
        return summary.violations[0][1] if summary.violations else OP_HOOK


def _is_none_const(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is None


def _is_zero_const(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Constant)
        and not isinstance(expr.value, bool)
        and isinstance(expr.value, (int, float))
        and expr.value == 0
    )


class NeutralityRule(ProjectRule):
    """R7: hook surfaces must short-circuit under a null plan."""

    id = "R7"
    name = "null-plan-neutrality"
    severity = SEVERITY_ERROR
    hint = (
        "keep the zero-knob short-circuit ahead of RNG, allocation, "
        "trace and schedule work (docs/LINTING.md, R7)"
    )

    def __init__(self) -> None:
        self._certified: List[str] = []

    def check_project(self, project: Project) -> List[Finding]:
        self._certified = []
        findings: List[Finding] = []
        for surface in SURFACES:
            for module in project:
                for node in ast.walk(module.tree):
                    if (
                        isinstance(node, ast.ClassDef)
                        and node.name == surface.class_name
                    ):
                        findings.extend(
                            self._check_class(surface, module, node)
                        )
        return findings

    def _check_class(
        self, surface: Surface, module: SourceModule, class_node: ast.ClassDef
    ) -> List[Finding]:
        method_nodes: Dict[str, ast.AST] = {}
        for stmt in class_node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_nodes[stmt.name] = stmt
        summaries: Dict[str, _Summary] = {
            name: _Summary() for name in method_nodes
        }
        for _ in range(10):
            changed = False
            for name, node in sorted(method_nodes.items()):
                walker = _MethodWalker(surface, summaries, node)
                summary = walker.run()
                old = summaries[name]
                # once unsafe, stay unsafe (monotone convergence)
                summary.safe = summary.safe and old.safe
                if not summary.violations and old.violations:
                    summary.violations = old.violations
                if (summary.safe, summary.ret) != (old.safe, old.ret):
                    changed = True
                summaries[name] = summary
            if not changed:
                break
        findings: List[Finding] = []
        clean = True
        for name in sorted(surface.methods):
            if name not in method_nodes:
                continue  # surface method absent in this tree: nothing to prove
            summary = summaries[name]
            if summary.safe:
                continue
            clean = False
            for node, op, description in summary.violations:
                findings.append(
                    Finding(
                        rule=self.id,
                        severity=self.severity,
                        path=module.relpath,
                        line=getattr(node, "lineno", 1),
                        col=getattr(node, "col_offset", 0),
                        message=(
                            f"{surface.class_name}.{name} reaches "
                            f"{description} under a null plan"
                        ),
                        hint=self.hint,
                    )
                )
        if clean:
            for name in sorted(surface.methods):
                if name in method_nodes:
                    self._certified.append(
                        f"{surface.class_name}.{name}: neutral under null plan"
                    )
        return findings

    def certified(self) -> List[str]:
        return list(self._certified)
