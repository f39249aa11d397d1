"""Shared experiment machinery: quality presets, sweeps, result records.

Every experiment produces a :class:`SeriesResult` — one x-axis sweep with
several labelled y-series, which is exactly the structure of each figure in
the paper.  Results render as ASCII tables (for the console and
EXPERIMENTS.md) and serialize to JSON (the ``results/`` archive).

Two quality presets control cost:

- ``fast`` — small network, single seed, coarse sweep; minutes of CPU.
  Used by CI and for most of the ``results/`` archive.
- ``full`` — paper-scale sweep with seed replication; tens of minutes.
  Used for ``results/live.json`` and ``results/full/scale.json``.

Task grids
----------

Each experiment additionally exposes its work as a deterministic **task
grid** (:class:`ExperimentPlan`): a flat, ordered list of independent
:class:`SimTask` cells — one per (sweep point, seed) — plus a ``merge``
function that folds the task payloads back into the figure's
:class:`SeriesResult`.  :meth:`ExperimentPlan.run_serial` executes the
tasks in order in-process and merges; the parallel sweep orchestrator
(:mod:`repro.runner`) executes the *same* tasks on a worker pool and calls
the *same* merge, so parallel results are byte-identical to serial ones by
construction:

- every task seeds its own simulation from its ``(params, seed)`` cell —
  tasks share no RNG state, honoring the named-substream discipline of
  :class:`repro.sim.rng.SeedSequenceRegistry`;
- task payloads are normalized through a JSON round-trip on *every* path
  (in-process or journaled to disk), so merge always sees identical bytes;
- ``merge`` looks payloads up **by task id** and folds seeds in declared
  budget order — never in completion order — so float accumulation
  (the R2/R4 determinism contract) is reproduced exactly.
"""

from __future__ import annotations

import json
import math
from functools import partial
from dataclasses import dataclass, field, replace
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar,
)

from repro.core.params import (
    ENGINE_EVENT,
    ENGINE_FAST,
    VALID_ENGINES,
    Parameters,
)
from repro.core.system import CollectionSystem
from repro.sim.metrics import MetricsReport
from repro.stats.workload import Workload
from repro.util.summary import mean
from repro.util.tables import render_series
from repro.util.validation import require_nonnegative, require_positive

QUALITY_FAST = "fast"
QUALITY_FULL = "full"


@dataclass(frozen=True)
class SimBudget:
    """Simulation sizing for one quality level.

    ``warmup`` is finite and >= 0, ``duration`` finite and > 0, and
    ``seeds`` non-empty: a budget that could run no measured window is
    refused here, before any cell starts.  ``engine``/``tau`` select the
    simulation engine for every cell of the sweep (see
    :class:`repro.core.params.Parameters`): ``"event"`` is the
    event-exact default, ``"fast"`` the vectorized struct-of-arrays
    engine with tau-leap step size ``tau`` (> 0).
    """

    n_peers: int
    warmup: float
    duration: float
    seeds: Tuple[int, ...]
    n_servers: int = 4
    engine: str = ENGINE_EVENT
    tau: float = 0.01

    def __post_init__(self) -> None:
        if self.engine not in VALID_ENGINES:
            raise ValueError(
                f"engine must be one of {VALID_ENGINES}, got {self.engine!r}"
            )
        require_positive("tau", self.tau)
        require_nonnegative("warmup", self.warmup)
        require_positive("duration", self.duration)
        if not self.seeds:
            raise ValueError("seeds must name at least one seed")


#: Default budgets.  The paper does not state its simulated N; these sizes
#: are chosen so that finite-N noise is well below the effects being shown
#: (validated by the convergence tests).
BUDGETS: Dict[str, SimBudget] = {
    QUALITY_FAST: SimBudget(n_peers=120, warmup=12.0, duration=16.0, seeds=(1,)),
    QUALITY_FULL: SimBudget(
        n_peers=250, warmup=20.0, duration=32.0, seeds=(1, 2)
    ),
}


def budget_for(quality: str) -> SimBudget:
    """Look up the :class:`SimBudget` for *quality* (raises on typos)."""
    if quality not in BUDGETS:
        raise ValueError(
            f"quality must be one of {sorted(BUDGETS)}, got {quality!r}"
        )
    return BUDGETS[quality]


Shape = TypeVar("Shape")


def preset_shape(
    quality: str, budget: SimBudget, shapes: Mapping[str, Shape]
) -> Tuple[Shape, Optional[int]]:
    """*quality*'s row of a per-preset *shapes* table, and the population
    an explicit ``--n-peers`` put in *budget* (None: the preset's own)."""
    preset = budget_for(quality)
    override = budget.n_peers if budget.n_peers != preset.n_peers else None
    return shapes[quality], override


def parse_seeds(text: str) -> Tuple[int, ...]:
    """Parse a CLI ``--seeds`` list ("1,2,3") into a seed tuple.

    Raises :class:`ValueError` on empty input, non-integer entries, and
    duplicates (a duplicated seed would silently double-weight one
    replication in every seed mean).
    """
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ValueError("--seeds needs at least one integer (e.g. '1,2,3')")
    try:
        seeds = tuple(int(part) for part in parts)
    except ValueError:
        raise ValueError(
            f"--seeds entries must be integers, got {text!r}"
        ) from None
    duplicates = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if duplicates:
        raise ValueError(
            f"--seeds contains duplicate seed(s) {duplicates}: each seed "
            "must appear exactly once or one replication is double-counted"
        )
    return seeds


def override_budget(
    budget: SimBudget,
    seeds: Optional[Sequence[int]] = None,
    n_peers: Optional[int] = None,
    warmup: Optional[float] = None,
    duration: Optional[float] = None,
    n_servers: Optional[int] = None,
    engine: Optional[str] = None,
    tau: Optional[float] = None,
) -> SimBudget:
    """Return *budget* with any non-``None`` field replaced."""
    changes: Dict[str, Any] = {}
    if seeds is not None:
        changes["seeds"] = tuple(int(seed) for seed in seeds)
    if n_peers is not None:
        changes["n_peers"] = int(n_peers)
    if warmup is not None:
        changes["warmup"] = float(warmup)
    if duration is not None:
        changes["duration"] = float(duration)
    if n_servers is not None:
        changes["n_servers"] = int(n_servers)
    if engine is not None:
        changes["engine"] = str(engine)
    if tau is not None:
        changes["tau"] = float(tau)
    return replace(budget, **changes) if changes else budget


@dataclass
class SeriesResult:
    """One figure's worth of reproduced data."""

    name: str
    title: str
    x_name: str
    x_values: List[float]
    series: "Dict[str, List[Optional[float]]]" = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_series(self, label: str, values: Sequence[Optional[float]]) -> None:
        """Attach one labelled y-series aligned with the x sweep."""
        values = list(values)
        if len(values) != len(self.x_values):
            raise ValueError(
                f"series {label!r} has {len(values)} points, x-axis has "
                f"{len(self.x_values)}"
            )
        if label in self.series:
            raise ValueError(f"duplicate series label {label!r}")
        self.series[label] = values

    def add_note(self, note: str) -> None:
        """Record a free-form caveat shown under the table."""
        self.notes.append(note)

    def to_table(self, float_fmt: str = "{:.4f}") -> str:
        """Render as an aligned ASCII table (plus notes)."""
        table = render_series(
            self.x_name,
            self.x_values,
            [(label, values) for label, values in self.series.items()],
            title=self.title,
            float_fmt=float_fmt,
        )
        if self.notes:
            table += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return table

    def to_json(self) -> str:
        """Serialize to JSON (NaN-safe: None stays null)."""
        payload = {
            "name": self.name,
            "title": self.title,
            "x_name": self.x_name,
            "x_values": self.x_values,
            "series": {
                label: [
                    None if v is None or (isinstance(v, float) and math.isnan(v))
                    else v
                    for v in values
                ]
                for label, values in self.series.items()
            },
            "notes": self.notes,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SeriesResult":
        """Round-trip counterpart of :meth:`to_json`."""
        payload = json.loads(text)
        result = cls(
            name=payload["name"],
            title=payload["title"],
            x_name=payload["x_name"],
            x_values=payload["x_values"],
        )
        for label, values in payload["series"].items():
            result.add_series(label, values)
        for note in payload.get("notes", []):
            result.add_note(note)
        return result


#: One task's JSON-normalized output.
Payload = Dict[str, Any]


@dataclass(frozen=True)
class SimTask:
    """One independent cell of an experiment's task grid.

    ``task_id`` is a deterministic, human-readable key (e.g.
    ``"c=8:s=20:seed=2"``) — stable across runs, processes, and code that
    merely reorders the grid.  ``thunk`` performs the cell's work and
    returns a JSON-serializable payload.
    """

    task_id: str
    thunk: Callable[[], Mapping[str, Any]]

    def run(self) -> Payload:
        """Execute the cell and return its JSON-normalized payload.

        The round-trip through ``json`` is deliberate: it guarantees the
        merge step consumes byte-identical inputs whether the payload came
        straight from this process or was journaled to disk by a worker
        (``allow_nan=False`` surfaces any non-finite value loudly instead
        of smuggling ``NaN`` through; cells encode "no sample" as null).
        """
        payload = self.thunk()
        normalized: Payload = json.loads(
            json.dumps(payload, sort_keys=True, allow_nan=False)
        )
        return normalized


@dataclass
class ExperimentPlan:
    """A deterministic task grid plus its aggregation rule.

    ``tasks`` is the grid in canonical order; ``merge_payloads`` folds a
    ``{task_id: payload}`` mapping into the experiment's
    :class:`SeriesResult`.  Merge MUST consume payloads keyed by task id
    (never in completion order) so that serial and parallel execution
    produce byte-identical results.
    """

    experiment: str
    tasks: List[SimTask]
    merge_payloads: Callable[[Mapping[str, Payload]], "SeriesResult"]

    def __post_init__(self) -> None:
        seen: Dict[str, int] = {}
        for task in self.tasks:
            if task.task_id in seen:
                raise ValueError(
                    f"plan {self.experiment!r} has duplicate task id "
                    f"{task.task_id!r}"
                )
            seen[task.task_id] = 1

    def task_ids(self) -> List[str]:
        """Task ids in canonical grid order."""
        return [task.task_id for task in self.tasks]

    def merge(self, payloads: Mapping[str, Payload]) -> "SeriesResult":
        """Aggregate completed payloads (validates grid completeness)."""
        missing = [
            task.task_id for task in self.tasks if task.task_id not in payloads
        ]
        if missing:
            raise ValueError(
                f"cannot merge {self.experiment!r}: {len(missing)} of "
                f"{len(self.tasks)} task payload(s) missing "
                f"(first: {missing[0]!r})"
            )
        return self.merge_payloads(payloads)

    def run_serial(self) -> "SeriesResult":
        """Execute every task in grid order in-process, then merge."""
        return self.merge({task.task_id: task.run() for task in self.tasks})


def report_payload(
    report: MetricsReport, metrics: Sequence[str]
) -> Dict[str, Optional[float]]:
    """Extract *metrics* from *report* as one strict-JSON cell payload.

    Every value becomes a float; ``None``/NaN (e.g. no delay observations)
    becomes ``None``, which :class:`SeedMeans` drops on the other side.
    """
    cell: Dict[str, Optional[float]] = {}
    for name in metrics:
        value = getattr(report, name)
        if value is None or (isinstance(value, float) and math.isnan(value)):
            cell[name] = None
        else:
            cell[name] = float(value)
    return cell


def simulate_cell(
    params: Parameters,
    warmup: float,
    duration: float,
    metrics: Sequence[str],
    seed: int,
    workload: Optional[Workload] = None,
) -> Dict[str, Optional[float]]:
    """Run ONE (parameter point, seed) simulation; extract *metrics*.

    The single-cell unit of every task grid, encoded by
    :func:`report_payload`.  ``params.engine`` selects the simulator: the
    event-exact engine (the default) or the vectorized fast engine
    (abstract mode only; see :mod:`repro.fastsim`).
    """
    if params.engine == ENGINE_FAST:
        if workload is not None:
            raise ValueError(
                "workload requires engine='event': the fast engine "
                "simulates the abstract homogeneous-rate model only"
            )
        from repro.fastsim import FastCollectionSystem

        report = FastCollectionSystem(params, seed=seed).run(warmup, duration)
    else:
        system = CollectionSystem(params, seed=seed, workload=workload)
        report = system.run(warmup, duration)
    return report_payload(report, metrics)


def seed_cells(
    budget: SimBudget,
    prefix: str,
    params: Parameters,
    metrics: Sequence[str],
    workload: Optional[Workload] = None,
) -> List[SimTask]:
    """One :func:`simulate_cell` task per seed, ids ``{prefix}:seed={n}``.

    The cells run on the budget's engine; ``Parameters`` refuses a point
    the fast engine cannot simulate, while the grid is built.
    """
    params = replace(params, engine=budget.engine, tau=budget.tau)
    return [
        SimTask(
            task_id=f"{prefix}:seed={seed}",
            thunk=partial(
                simulate_cell, params, budget.warmup, budget.duration,
                metrics, seed, workload,
            ),
        )
        for seed in budget.seeds
    ]


def require_event_engine(budget: SimBudget, experiment: str) -> None:
    """Refuse a fast-engine budget for a grid that cannot honour it."""
    if budget.engine != ENGINE_EVENT:
        raise ValueError(
            f"{experiment} runs on the event engine only, "
            f"not engine={budget.engine!r}"
        )


@dataclass(frozen=True)
class SeedMeans:
    """What a sweep's fold reads: ``mean(prefix, metric)`` is the mean of
    *metric* over the per-seed cells ``{prefix}:seed={n}``; ``payloads``
    holds every task's raw payload, for the rare task that is not a seed
    cell."""

    payloads: Mapping[str, Payload]
    seeds: Sequence[int]

    def __call__(self, prefix: str, metric: str) -> float:
        """Folds seeds in declared budget order (never completion order),
        drops ``None`` samples, and is NaN when none remain, so a merged
        parallel run reproduces the serial mean bit for bit."""
        values: List[float] = []
        for seed in self.seeds:
            value = self.payloads[f"{prefix}:seed={seed}"][metric]
            if value is not None:
                values.append(float(value))
        return mean(values) if values else math.nan


def add_seed_series(
    result: SeriesResult,
    mean: SeedMeans,
    series: Mapping[str, str],
    prefixes: Sequence[str],
    tag: str = "",
) -> None:
    """Add one series per ``label -> metric`` entry of *series*, labelled
    ``{tag}{label}``: the metric's seed mean at each cell of *prefixes*."""
    for label, metric in series.items():
        result.add_series(
            f"{tag}{label}", [mean(prefix, metric) for prefix in prefixes]
        )


def sweep(
    experiment: str,
    budget: SimBudget,
    cells: Sequence[Tuple[str, Parameters]],
    metrics: Sequence[str],
    fold: Callable[[SeedMeans], SeriesResult],
    workload: Optional[Workload] = None,
) -> ExperimentPlan:
    """A seed-mean experiment: a grid of cells and a fold over their means.

    Each ``(prefix, params)`` cell becomes :func:`seed_cells` over the
    budget's seeds (task ids ``{prefix}:seed={n}``, in cell order), every
    task recording *metrics*; the merge hands *fold* a :class:`SeedMeans`
    over the payloads.
    """
    tasks = [
        task
        for prefix, params in cells
        for task in seed_cells(budget, prefix, params, metrics, workload)
    ]

    def merge(payloads: Mapping[str, Payload]) -> SeriesResult:
        return fold(SeedMeans(payloads, budget.seeds))

    return ExperimentPlan(experiment, tasks, merge)
