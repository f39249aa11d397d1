"""The catalogue of seeded defects, and the one runner that proves each is caught.

A check guards a protocol rule only once the rule has been broken and the
check seen to fail.  Each :class:`Mutant` below is that experiment: a named
set of exact-once text patches applied to a fresh copy of ``src/`` and
``tests/``, the checks that must fail against it (``killers``) and the
checks recorded as passing against it (``misses``: what the suite does not
see yet).  A check is one of three kinds:

- :class:`Lint`: ``repro lint`` on the copy reports the rule in the file,
  with no waiver or parse problems;
- :class:`Chaos`: ``repro chaos run`` on the copy exits 1 with a reproducer
  naming the monitor, and ``repro chaos replay`` of it exits 0 on the copy
  and 1 on the shipped tree;
- :class:`Pytest`: ``python -m pytest <ids>`` on the copy exits 1 (any other
  non-zero exit is an error, not a kill).

Every check runs in a subprocess with ``PYTHONPATH`` set to the copy's
``src/``; nothing is patched in a live interpreter.  From the repository
root::

    python -m tests.mutants                       # the whole catalogue
    python -m tests.mutants buffer-cap-off-by-one can-inject-off-by-one

prints the kill matrix and exits 0 when every killer kills and every miss
passes, 1 otherwise, 2 on an unknown name.  The drift guard in
``tests/test_mutants.py`` fails the moment a patch's anchor stops occurring
exactly once in the shipped tree.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

ROOT = Path(__file__).resolve().parent.parent
#: What a mutated copy holds: the package, the suite and the suite's config.
COPIED = ("src", "tests", "pyproject.toml")
#: The seeded campaign every chaos check runs; each chaos mutant trips it.
CAMPAIGN = ("--budget", "5", "--seed", "2026", "--workers", "2", "--max-shrink", "1")


@dataclass(frozen=True)
class Patch:
    """Replace *anchor*, which must occur exactly once in *path*."""

    #: relative to the repository root
    path: str
    anchor: str
    replacement: str


@dataclass(frozen=True)
class Lint:
    """``repro lint`` reports *rule* in *path* (relative to ``src/repro``)."""

    rule: str
    path: str

    def __str__(self) -> str:
        return f"lint {self.rule} {self.path}"


@dataclass(frozen=True)
class Chaos:
    """The seeded campaign :data:`CAMPAIGN` trips *monitor*."""

    monitor: str

    def __str__(self) -> str:
        return f"chaos {self.monitor}"


@dataclass(frozen=True)
class Pytest:
    """These pytest node ids, run together."""

    ids: Tuple[str, ...]

    def __str__(self) -> str:
        return "pytest " + " ".join(self.ids)


Check = Union[Lint, Chaos, Pytest]


@dataclass(frozen=True)
class Mutant:
    """One named seeded defect and what is known to see it."""

    name: str
    patches: Tuple[Patch, ...]
    killers: Tuple[Check, ...] = ()
    misses: Tuple[Check, ...] = ()


@dataclass(frozen=True)
class Row:
    """One cell of the kill matrix."""

    mutant: str
    check: Check
    #: "kill" for a killer, "miss" for a recorded miss
    expected: str
    #: "killed", "survived" or "error"
    verdict: str
    detail: str
    seconds: float

    @property
    def ok(self) -> bool:
        return self.verdict == ("killed" if self.expected == "kill" else "survived")

    def render(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return (
            f"{mark} {self.mutant:<38} {self.expected:<4} {self.verdict:<8} "
            f"{self.seconds:6.1f}s  {self.check}: {self.detail}"
        )


_PEER = "src/repro/core/peer.py"
_ODE = "src/repro/analysis/ode.py"
_ENGINE_TESTS = (
    "tests/test_crossmodel.py", "tests/test_system.py", "tests/test_theorems.py",
)

CATALOGUE: Tuple[Mutant, ...] = (
    Mutant(
        name="buffer-cap-off-by-one",
        patches=(Patch(
            _PEER,
            "        return self.block_count >= self.capacity\n",
            "        return self.block_count >= self.capacity + 1  # BUG: B + 1\n",
        ),),
        killers=(Chaos("buffer-cap"),),
    ),
    Mutant(
        name="decoder-skip-elimination",
        patches=(Patch(
            "src/repro/coding/linalg.py",
            "        for index in range(len(rows) - 2, -1, -1):\n",
            "        for index in ():  # BUG: the Jordan step is skipped\n",
        ),),
        killers=(Chaos("decode-fidelity"),),
    ),
    Mutant(
        name="coefficient-draw-drops-carried-half",
        patches=(Patch(
            "src/repro/coding/rlnc.py",
            "            value |= next_uint32(state) << shift\n",
            "            # BUG: a whole 64-bit output per word; its high half is lost\n"
            "            value |= (rng.bit_generator.random_raw() & 0xFFFFFFFF) << shift\n",
        ),),
        killers=(
            Pytest((
                "tests/test_coded_rows.py::TestRecodeEquivalence"
                "::test_draw_reads_the_stream_other_draws_share",
            )),
            Pytest((
                "tests/test_coded_rows.py::TestRecodeEquivalence"
                "::test_scalar_draw_is_the_array_stream",
            )),
        ),
        # The pinned reports see coefficients only through the rare
        # accidentally redundant block, and none occurs in these sessions.
        misses=(Pytest(("tests/test_coded_rows.py::TestPinnedRlncDigests",)),),
    ),
    Mutant(
        name="churn-leaks-registry-degree",
        patches=(Patch(
            "src/repro/core/segments.py",
            '        """One live block disappeared (TTL expiry or churn loss)."""\n',
            '        """One live block disappeared (TTL expiry or churn loss)."""\n'
            '        self._removals = getattr(self, "_removals", 0) + 1\n'
            "        if self._removals % 7 == 0:\n"
            "            return  # BUG: every 7th removal never reaches the registry\n",
        ),),
        killers=(Chaos("block-conservation"),),
    ),
    Mutant(
        name="rng-smuggled-through-helper",
        patches=(Patch(
            "src/repro/sim/rng.py",
            "def exponential(rng: random.Random, rate: float) -> float:",
            "def ambient_entropy() -> random.Random:\n"
            '    """A fresh, unseeded stream (the defect under test)."""\n'
            "    return random.Random()\n"
            "\n"
            "\n"
            "def exponential(rng: random.Random, rate: float) -> float:",
        ),),
        killers=(Lint("R1", "sim/rng.py"),),
    ),
    Mutant(
        name="fork-shared-result-cache",
        patches=(Patch(
            "src/repro/runner/pool.py",
            "_JOIN_GRACE = 2.0\n",
            "_JOIN_GRACE = 2.0\n\n"
            "# memoized task results (the defect under test)\n"
            "_RESULT_CACHE: Dict[str, Any] = {}\n",
        ),),
        killers=(Lint("R8", "runner/pool.py"),),
    ),
    Mutant(
        name="ode-growth-leaves-at-imax",
        patches=(
            Patch(
                _ODE,
                "        grows = state[degree < self.i_max]"
                "  # reflected at i_max: mass stays\n",
                "        grows = state  # BUG: growth at i_max leaves the system\n",
            ),
            Patch(
                _ODE,
                "            _jumps(n, grows, grows + n_cols, degree[grows]),\n",
                "            _jumps(n, grows, np.where(degree < self.i_max, "
                "grows + n_cols, -1), degree),\n",
            ),
        ),
        killers=(Pytest((
            "tests/test_ode.py::TestConservationLaws::test_m_mass_balance",
        )),),
    ),
    Mutant(
        name="ode-injection-past-room",
        patches=(
            Patch(
                _ODE,
                "        room = peer[: B - s + 1]"
                "  # peers that can take a whole segment\n",
                "        room = peer[: B - s + 2]  # BUG: i <= B - s + 1\n",
            ),
            Patch(
                _ODE,
                "            _jumps(n, room, room + s, np.ones(room.size)),\n",
                "            _jumps(n, room, np.where(room + s <= B, room + s, -1),"
                " np.ones(room.size)),  # the overflow leaves the chain\n",
            ),
        ),
        killers=(Pytest((
            "tests/test_ode.py::TestConservationLaws::test_z_mass_conserved_by_rhs",
        )),),
    ),
    Mutant(
        name="ode-jac-drops-gossip",
        patches=(Patch(
            _ODE,
            "        g_z = _generator(self._n_z, self._z_terms(t, self._gossip_rate(z)))\n",
            "        g_z = _generator(self._n_z, self._z_terms(t, 0.0))"
            "  # BUG: no gossip term\n",
        ),),
        # A wrong Jacobian still converges; only the cost of the solve shows it.
        killers=(Pytest((
            "tests/test_transient.py::TestFlashCrowd::test_stiff_solve_is_cheap",
        )),),
    ),
    Mutant(
        name="call-per-stored-block",
        patches=(Patch(
            _PEER,
            "        self.buffered_blocks.append(block)\n"
            "        self.block_count += 1\n",
            "        self.buffered_blocks.append(block)\n"
            "        self.block_count += 1\n"
            "        (lambda: None)()  # BUG: one more frame per stored block\n",
        ),),
        killers=(Pytest(("tests/test_frame_budget.py",)),),
    ),
    Mutant(
        name="framing-preallocates-declared-length",
        patches=(Patch(
            "src/repro/live/framing.py",
            "        raise FrameGarbage(\"declared header length is 0 "
            "(no JSON object)\")\n"
            "    return header_len, payload_len\n",
            "        raise FrameGarbage(\"declared header length is 0 "
            "(no JSON object)\")\n"
            "    bytearray(header_len + payload_len)"
            "  # BUG: the declared body, allocated up front\n"
            "    return header_len, payload_len\n",
        ),),
        killers=(Pytest((
            "tests/test_live_framing.py::TestBoundedAllocation",
        )),),
    ),
    Mutant(
        name="can-inject-off-by-one",
        patches=(Patch(
            _PEER,
            "        return self.block_count + segment_size <= self.capacity\n",
            "        return self.block_count + segment_size < self.capacity"
            "  # BUG: degree < B - s\n",
        ),),
        killers=(Pytest(("tests/test_peer.py::TestPeer::test_can_inject",)),),
        misses=(Pytest(_ENGINE_TESTS),),
    ),
    Mutant(
        name="gossip-31-tries",
        patches=(Patch(
            "src/repro/core/params.py",
            "GOSSIP_TARGET_TRIES = 32\n",
            "GOSSIP_TARGET_TRIES = 31  # BUG: the rule is 32 tries\n",
        ),),
        misses=(Pytest((
            "tests/test_crossmodel.py", "tests/test_determinism.py",
            "tests/test_fastsim.py", "tests/test_coded_rows.py",
            "tests/test_server_gossip.py",
        )),),
    ),
    Mutant(
        name="pull-uniform-block",
        patches=(Patch(
            "src/repro/core/server.py",
            "        peer = self._sample_nonempty_peer()\n"
            "        if peer is None:\n"
            "            return None\n"
            "        return peer, self._draw_segment(peer)\n",
            "        peer = self._sample_nonempty_peer()\n"
            "        # BUG: a uniform block, where the rule is a uniform non-empty peer\n"
            "        while peer is not None and (\n"
            "            self._rng.random() * peer.capacity >= peer.block_count\n"
            "        ):\n"
            "            peer = self._sample_nonempty_peer()\n"
            "        if peer is None:\n"
            "            return None\n"
            "        return peer, self._draw_segment(peer)\n",
        ),),
        # What fails sees the draws change, not the law: a pinned digest
        # fails on any change to the random stream, and the other two
        # count calls of the peer sampler.
        killers=(
            Pytest(("tests/test_determinism.py::TestPinnedEventDigests",)),
            Pytest((
                "tests/test_pull_trial.py::TestRepullBudgetExhaustion"
                "::test_event_driver",
            )),
            Pytest((
                "tests/test_scheduler.py::TestSchedulerCornerCases"
                "::test_every_candidate_complete_is_redundant_pull",
            )),
        ),
        misses=(Pytest(_ENGINE_TESTS),),
    ),
)

MUTANTS: Dict[str, Mutant] = {mutant.name: mutant for mutant in CATALOGUE}


# -- the applier ---------------------------------------------------------------


def patched_sources(mutant: Mutant) -> Dict[str, str]:
    """The text of every file *mutant* touches, patched; writes nothing.

    Raises ``ValueError`` when an anchor does not occur exactly once: the
    shipped code drifted under the mutant.
    """
    texts: Dict[str, str] = {}
    for patch in mutant.patches:
        if patch.path not in texts:
            texts[patch.path] = (ROOT / patch.path).read_text(encoding="utf-8")
        count = texts[patch.path].count(patch.anchor)
        if count != 1:
            raise ValueError(
                f"mutant {mutant.name}: anchor occurs {count} times in "
                f"{patch.path} (need exactly 1): the shipped code drifted"
            )
        texts[patch.path] = texts[patch.path].replace(
            patch.anchor, patch.replacement
        )
    return texts


def apply_mutant(mutant: Mutant, tree: Path) -> None:
    """Copy the shipped tree to *tree* and apply *mutant* there."""
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, tree / name)
        else:
            shutil.copy2(source, tree / name)
    for path, text in patched_sources(mutant).items():
        (tree / path).write_text(text, encoding="utf-8")


# -- the checks ----------------------------------------------------------------

Verdict = Tuple[str, str]


def _start(argv: Sequence[str], tree: Path) -> "subprocess.Popen[str]":
    """``python argv`` in *tree*, importing ``repro`` from there."""
    return subprocess.Popen(
        [sys.executable, *argv], cwd=tree,
        env={**os.environ, "PYTHONPATH": str(tree / "src")},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _run(argv: Sequence[str], tree: Path) -> Tuple[int, str, str]:
    process = _start(argv, tree)
    out, err = process.communicate()
    return process.returncode, out, err


def _last_line(text: str) -> str:
    lines = [line for line in text.splitlines() if line.strip()]
    return lines[-1].strip() if lines else "(no output)"


def _check_lint(check: Lint, tree: Path, work: Path) -> Verdict:
    code, out, err = _run(
        ["-m", "repro.lint", "--quiet", "--json", "-", "src/repro"], tree
    )
    if code not in (0, 1):
        return "error", f"lint exit {code}: {_last_line(err)}"
    report = json.loads(out)
    if report["problems"]:
        return "error", f"{len(report['problems'])} waiver/parse problem(s)"
    for finding in report["findings"]:
        if finding["rule"] == check.rule and finding["path"].endswith(check.path):
            return "killed", f"line {finding['line']}"
    return "survived", f"{check.rule} silent in {check.path}"


def _monitor_of(repro: Path) -> Optional[str]:
    return json.loads(repro.read_text())["violation"]["monitor"]


def _check_chaos(check: Chaos, tree: Path, work: Path) -> Verdict:
    runs = work / "runs"
    code, out, err = _run(
        [
            "-m", "repro", "chaos", "run", *CAMPAIGN, "--no-progress",
            "--runs-dir", str(runs), "--run-id", check.monitor,
        ],
        tree,
    )
    if code == 0:
        return "survived", "campaign clean"
    if code != 1:
        return "error", f"campaign exit {code}: {_last_line(err)}"
    repros = sorted((runs / check.monitor).glob("repro-*.json"))
    named = [repro for repro in repros if _monitor_of(repro) == check.monitor]
    if not named:
        return "survived", (
            f"no reproducer names {check.monitor} "
            f"({', '.join(str(_monitor_of(r)) for r in repros) or 'none written'})"
        )
    replay = ["-m", "repro", "chaos", "replay", str(named[0])]
    replays = _start(replay, tree), _start(replay, ROOT)
    for process in replays:
        process.communicate()
    codes = tuple(process.returncode for process in replays)
    if codes != (0, 1):
        return "error", (
            f"{named[0].name} replays with exit {codes[0]} on the copy and "
            f"{codes[1]} on the shipped tree (want 0 and 1)"
        )
    return "killed", f"{named[0].name} replays on the copy only"


def _check_pytest(check: Pytest, tree: Path, work: Path) -> Verdict:
    code, out, err = _run(
        ["-m", "pytest", "-p", "no:cacheprovider", *check.ids], tree
    )
    summary = _last_line(out)
    if code == 0:
        return "survived", summary
    if code == 1:
        return "killed", summary
    return "error", f"pytest exit {code}: {summary}"


_CHECKERS = {Lint: _check_lint, Chaos: _check_chaos, Pytest: _check_pytest}


# -- the runner ----------------------------------------------------------------


def run_mutant(mutant: Mutant, work: Path) -> List[Row]:
    """Apply *mutant* to a copy under *work* and run each of its checks."""
    tree = work / "tree"
    apply_mutant(mutant, tree)
    rows: List[Row] = []
    for expected, checks in (("kill", mutant.killers), ("miss", mutant.misses)):
        for check in checks:
            started = time.perf_counter()
            verdict, detail = _CHECKERS[type(check)](check, tree, work)
            rows.append(Row(
                mutant.name, check, expected, verdict, detail,
                time.perf_counter() - started,
            ))
    return rows


def _run_in_temp(name: str) -> List[Row]:
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as work:
        return run_mutant(MUTANTS[name], Path(work))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the named mutants (all with none); print the kill matrix."""
    names = list(sys.argv[1:] if argv is None else argv)
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(
            f"error: unknown mutant(s) {', '.join(unknown)}; "
            f"available: {', '.join(MUTANTS)}",
            file=sys.stderr,
        )
        return 2
    rows: List[Row] = []
    # Two mutants at a time: their checks are subprocesses, and each copy
    # is its own directory.
    with ThreadPoolExecutor(max_workers=2) as pool:
        for mutant_rows in pool.map(_run_in_temp, names or list(MUTANTS)):
            for row in mutant_rows:
                print(row.render(), flush=True)
                rows.append(row)
    failed = [row for row in rows if not row.ok]
    print(
        f"kill matrix: {len(rows) - len(failed)}/{len(rows)} cells as "
        f"recorded over {len(names or MUTANTS)} mutant(s)"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
