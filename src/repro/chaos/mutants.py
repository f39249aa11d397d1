"""Seeded defects: known-bad patches that the chaos layer must catch.

A *mutant* is a deliberate, realistic bug installed into the live code for
the duration of one trial — the positive control of the chaos campaign.
The shipped code passing a campaign proves little unless the same campaign
*fails* when a conservation law is actually broken; ``repro chaos run
--mutant <name>`` runs that experiment, and CI keeps one mutant in the
loop permanently (the ``smoke (chaos)`` job).

Each mutant targets a different invariant monitor:

================================ =====================================
mutant                            caught by
================================ =====================================
``buffer-cap-off-by-one``         ``buffer-cap``
``decoder-skip-elimination``      ``decode-fidelity``
``churn-leaks-registry-degree``   ``block-conservation``
================================ =====================================

Patches are process-local and undone in a ``finally`` — but campaign
workers apply them per *task*, so never mix mutant and clean trials in one
in-process batch without the :func:`apply_mutant` context manager.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterator, Optional, Tuple

from repro.coding import gf256

if TYPE_CHECKING:
    from repro.coding.linalg import IncrementalDecoder
    from repro.core.peer import Peer
    from repro.core.segments import SegmentRegistry, SegmentState

Undo = Callable[[], None]


@dataclass(frozen=True)
class Mutant:
    """One named seeded defect."""

    name: str
    description: str
    #: where the patch lands, for docs and campaign logs
    target: str
    #: the invariant monitor expected to catch it
    caught_by: str
    install: Callable[[], Undo]


def _install_buffer_cap_off_by_one() -> Undo:
    """Classic fencepost: a peer reports "full" one block too late.

    ``Peer.is_full`` gates both gossip-target eligibility and the
    ``add_block`` guard, so the loosened predicate lets gossip push a peer
    to ``B + 1`` buffered blocks — exactly the overflow the ``buffer-cap``
    monitor exists to see.
    """
    from repro.core.peer import Peer

    original = Peer.__dict__["is_full"]

    def is_full_off_by_one(self: "Peer") -> bool:
        return self.block_count >= self.capacity + 1  # BUG: >= B + 1, not B

    setattr(Peer, "is_full", property(is_full_off_by_one))

    def undo() -> None:
        setattr(Peer, "is_full", original)

    return undo


def _install_decoder_skip_elimination() -> Undo:
    """Drop Gauss-Jordan back-substitution when installing a pivot row.

    The decoder's single-pass reduction is only exact while the
    basis stays mutually reduced (see the proof in ``linalg.py``); without
    back-substitution, dependent blocks can be mistaken for innovative and
    ``decode()`` returns linear mixtures instead of the source rows — the
    ``decode-fidelity`` monitor compares them byte-for-byte and objects.
    """
    from repro.coding.linalg import IncrementalDecoder

    original = IncrementalDecoder.__dict__["_insert"]

    def insert_without_elimination(
        self: "IncrementalDecoder", row: bytes, pivot_col: int
    ) -> None:
        pivot_value = row[pivot_col]
        if pivot_value != 1:
            row = row.translate(gf256.SCALE[gf256.inv(pivot_value)])
        # BUG: the back-substitution into the stored rows is skipped entirely.
        self._rows.append(row)
        self._pivot_cols.append(pivot_col)

    setattr(IncrementalDecoder, "_insert", insert_without_elimination)

    def undo() -> None:
        setattr(IncrementalDecoder, "_insert", original)

    return undo


def _install_churn_leaks_registry_degree() -> Undo:
    """Silently drop every 7th block-removal notification to the registry.

    The segment side of the bipartite graph then counts edges the peer
    side already deleted — the exact peer/registry/metrics three-way drift
    the ``block-conservation`` monitor cross-checks on every sweep.
    """
    from repro.core.segments import SegmentRegistry

    original = SegmentRegistry.__dict__["on_block_removed"]
    calls = {"n": 0}

    def leaky_on_block_removed(
        self: "SegmentRegistry", state: "SegmentState", now: float
    ) -> None:
        calls["n"] += 1
        if calls["n"] % 7 == 0:
            return  # BUG: removal never reaches the registry accounting
        original(self, state, now)

    setattr(SegmentRegistry, "on_block_removed", leaky_on_block_removed)

    def undo() -> None:
        setattr(SegmentRegistry, "on_block_removed", original)

    return undo


#: Registry of every seeded defect, keyed by CLI name.
# lint: ok(R8): read-only registry built once at import and never mutated
MUTANTS: Dict[str, Mutant] = {
    mutant.name: mutant
    for mutant in (
        Mutant(
            name="buffer-cap-off-by-one",
            description="Peer.is_full triggers one block past the cap B",
            target="repro.core.peer.Peer.is_full",
            caught_by="buffer-cap",
            install=_install_buffer_cap_off_by_one,
        ),
        Mutant(
            name="decoder-skip-elimination",
            description=(
                "IncrementalDecoder._insert skips Gauss-Jordan "
                "back-substitution"
            ),
            target="repro.coding.linalg.IncrementalDecoder._insert",
            caught_by="decode-fidelity",
            install=_install_decoder_skip_elimination,
        ),
        Mutant(
            name="churn-leaks-registry-degree",
            description=(
                "SegmentRegistry.on_block_removed drops every 7th update"
            ),
            target="repro.core.segments.SegmentRegistry.on_block_removed",
            caught_by="block-conservation",
            install=_install_churn_leaks_registry_degree,
        ),
    )
}


def mutant_names() -> Tuple[str, ...]:
    """Stable CLI-facing listing of available mutants."""
    return tuple(sorted(MUTANTS))


@contextmanager
def apply_mutant(name: Optional[str]) -> Iterator[None]:
    """Install mutant *name* for the duration of the ``with`` block.

    ``name=None`` is a no-op (clean trial), so call sites need no
    branching.  Unknown names raise ``ValueError`` listing the registry.
    """
    if name is None:
        yield
        return
    try:
        mutant = MUTANTS[name]
    except KeyError:
        raise ValueError(
            f"unknown mutant {name!r}; available: {', '.join(mutant_names())}"
        ) from None
    undo = mutant.install()
    try:
        yield
    finally:
        undo()
