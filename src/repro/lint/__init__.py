"""repro-lint: AST-based determinism and protocol-invariant checker.

The reproduction's credibility rests on bitwise determinism — one unseeded
draw or unordered-set iteration silently shifts every downstream clock —
and on a handful of protocol invariants (GF(256) arithmetic routed through
the field implementation, no state crossing the worker fork).  This package
enforces those repo-specific contracts by machine:

- **R1 rng-discipline** — all randomness flows through
  :class:`repro.sim.rng.SeedSequenceRegistry` substreams or an explicit
  ``rng`` parameter; no direct ``random.*`` / ``numpy.random.*`` calls
  outside the body of ``class SeedSequenceRegistry`` in ``sim/rng.py``.
- **R2 determinism-hazards** — no iteration over sets, no unsorted dict
  views, no wall-clock reads, no ``id()``-based ordering inside the
  ``core/``, ``sim/`` and ``faults/`` hot paths.
- **R4 float-accumulation** — no bare ``sum()`` over simulation-time floats
  in ``analysis/`` and ``sim/metrics.py``; use ``math.fsum`` or waive.
- **R5 gf256-misuse** — no Python ``+``/``*``/``^``/``**`` on objects named
  as GF(256) vectors; field arithmetic lives in ``repro.coding.gf256``.
- **R8 worker-boundary** — no module-level mutable state, ``global``
  rebinding or closure targets in ``runner/`` and ``chaos/``.

R3, R6 and R7 are retired (ids not reused).  Trace kinds, once R3's job,
are checked where they are emitted: ``Tracer.record`` refuses a kind
missing from ``TRACE_KINDS``.

Run it with ``python -m repro.lint [--strict] [paths...]`` or
``repro lint``.  Findings can be waived inline with a justified comment::

    total = sum(counts)  # lint: ok(R4): integer edge counts, exact

See ``docs/LINTING.md`` for the rule catalog and how to add a rule.
"""

from __future__ import annotations

from repro.lint.framework import Finding, Rule, SourceModule, Waiver
from repro.lint.rules_determinism import DeterminismHazardRule
from repro.lint.rules_numeric import FloatAccumulationRule, Gf256MisuseRule
from repro.lint.rules_rng import RngDisciplineRule
from repro.lint.runner import LintReport, default_rules, run_lint

__all__ = [
    "DeterminismHazardRule",
    "Finding",
    "FloatAccumulationRule",
    "Gf256MisuseRule",
    "LintReport",
    "RngDisciplineRule",
    "Rule",
    "SourceModule",
    "Waiver",
    "default_rules",
    "run_lint",
]
