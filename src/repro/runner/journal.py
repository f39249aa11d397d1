"""Run-directory journal: durable record of a sweep's progress.

Layout of one run directory (``runs/<run-id>/``)::

    manifest.json        spec + fingerprint + task-id list + status
    tasks/00042-<slug>.json   one file per completed task (atomic)
    events.jsonl         runner telemetry event stream (append-only)
    result.json          merged SeriesResult (written once, at completion)

Every write that other code may read back (manifest, task payloads,
result) goes through an atomic temp-file + ``os.replace`` dance, so a
``kill -9`` mid-write never leaves a torn JSON file: a task either exists
completely or not at all, which is exactly the property ``--resume``
relies on to re-execute only missing cells.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional

from repro.runner.spec import RunSpec
from repro.util.codec import decode, encode

#: Manifest status values over a run's lifecycle.
STATUS_RUNNING = "running"
STATUS_COMPLETE = "complete"

_SLUG_RE = re.compile(r"[^A-Za-z0-9._=-]+")
_SLUG_MAX = 80


def task_slug(task_id: str) -> str:
    """Filesystem-safe slug of a task id (human-debuggable file names)."""
    slug = _SLUG_RE.sub("_", task_id).strip("_")
    return slug[:_SLUG_MAX] or "task"


def _atomic_write(path: Path, text: str) -> None:
    """Write *text* to *path* so readers never observe a partial file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


class JournalError(Exception):
    """A run directory is missing, torn, or belongs to a different spec."""


class RunJournal:
    """Reader/writer for one run directory."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.tasks_dir = run_dir / "tasks"
        self.manifest_path = run_dir / "manifest.json"
        self.events_path = run_dir / "events.jsonl"
        self.result_path = run_dir / "result.json"

    # ---- creation / loading ---------------------------------------------

    @classmethod
    def create(
        cls,
        run_dir: Path,
        spec: RunSpec,
        task_ids: List[str],
        execution: Optional[Mapping[str, Any]] = None,
    ) -> "RunJournal":
        """Initialize a fresh run directory with its manifest."""
        if run_dir.exists() and any(run_dir.iterdir()):
            raise JournalError(
                f"run directory {run_dir} already exists and is not empty "
                "(pass --resume to continue it, or choose another --run-id)"
            )
        journal = cls(run_dir)
        journal.tasks_dir.mkdir(parents=True, exist_ok=True)
        manifest: Dict[str, Any] = {
            "run_id": run_dir.name,
            "spec": encode(spec),
            "fingerprint": spec.fingerprint(task_ids),
            "task_ids": list(task_ids),
            "n_tasks": len(task_ids),
            "status": STATUS_RUNNING,
            "execution": dict(execution or {}),
        }
        journal.write_manifest(manifest)
        return journal

    @classmethod
    def load(cls, run_dir: Path) -> "RunJournal":
        """Open an existing run directory (its manifest must parse)."""
        journal = cls(run_dir)
        journal.manifest()  # validates existence + JSON
        return journal

    def manifest(self) -> Dict[str, Any]:
        """Read the manifest, raising :class:`JournalError` if absent."""
        try:
            loaded = json.loads(self.manifest_path.read_text())
        except FileNotFoundError:
            raise JournalError(
                f"{self.run_dir} is not a run directory (no manifest.json)"
            ) from None
        except json.JSONDecodeError as exc:
            raise JournalError(
                f"torn manifest in {self.run_dir}: {exc}"
            ) from None
        if not isinstance(loaded, dict):
            raise JournalError(f"manifest in {self.run_dir} is not an object")
        return loaded

    def spec(self) -> RunSpec:
        """The spec the manifest records (:class:`JournalError` if malformed)."""
        try:
            return decode(RunSpec, self.manifest().get("spec"))
        except ValueError as exc:
            raise JournalError(
                f"malformed manifest in {self.run_dir}: {exc}"
            ) from None

    def write_manifest(self, manifest: Mapping[str, Any]) -> None:
        """Atomically (re)write the manifest."""
        _atomic_write(
            self.manifest_path,
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        )

    def check_resumable(self, spec: RunSpec, task_ids: List[str]) -> None:
        """Refuse to resume a journal created by a different spec/grid."""
        manifest = self.manifest()
        expected = spec.fingerprint(task_ids)
        found = manifest.get("fingerprint")
        if found != expected:
            raise JournalError(
                f"cannot resume {self.run_dir.name}: its manifest "
                f"fingerprint {str(found)[:12]}... does not match this "
                f"spec's {expected[:12]}... — the run was created with a "
                "different experiment, budget, seeds, or task grid"
            )

    # ---- task payloads ---------------------------------------------------

    def _task_path(self, index: int, task_id: str) -> Path:
        return self.tasks_dir / f"{index:05d}-{task_slug(task_id)}.json"

    def record_task(
        self,
        index: int,
        task_id: str,
        payload: Mapping[str, Any],
        attempts: int,
        elapsed: float,
    ) -> None:
        """Atomically journal one completed task."""
        body = {
            "task_id": task_id,
            "index": index,
            "attempts": attempts,
            "elapsed_seconds": elapsed,
            "payload": payload,
        }
        _atomic_write(
            self._task_path(index, task_id),
            json.dumps(body, sort_keys=True, allow_nan=False) + "\n",
        )

    def iter_task_records(self) -> Iterator[Dict[str, Any]]:
        """Yield every journaled task record (unordered)."""
        if not self.tasks_dir.is_dir():
            return
        for path in sorted(self.tasks_dir.glob("*.json")):
            try:
                record = json.loads(path.read_text())
            except json.JSONDecodeError:
                # A torn file cannot exist via the atomic protocol; if one
                # appears (e.g. a foreign file), skip it — the task will
                # simply re-run.
                continue
            if isinstance(record, dict) and "task_id" in record:
                yield record

    def completed_payloads(self) -> Dict[str, Dict[str, Any]]:
        """Map task_id -> journaled payload for every completed task."""
        payloads: Dict[str, Dict[str, Any]] = {}
        for record in self.iter_task_records():
            payloads[str(record["task_id"])] = dict(record["payload"])
        return payloads

    # ---- events / result -------------------------------------------------

    def append_event(self, event: Mapping[str, Any]) -> None:
        """Append one telemetry event to ``events.jsonl``."""
        with self.events_path.open("a") as handle:
            handle.write(json.dumps(event, sort_keys=True) + "\n")

    def write_result(self, result_json: str) -> None:
        """Atomically write the merged result and mark the run complete."""
        _atomic_write(self.result_path, result_json + "\n")
        manifest = self.manifest()
        manifest["status"] = STATUS_COMPLETE
        self.write_manifest(manifest)
