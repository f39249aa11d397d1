"""Deterministic random-number management for simulations.

Every stochastic component of the simulator draws from a named substream
derived from one root seed, so

- a whole experiment is reproducible from a single integer,
- adding a new random component does not perturb the draws of existing ones
  (substreams are independent by name, not by draw order), and
- scalar event-timing draws use ``random.Random`` (fast for single values)
  while vectorized coding draws use ``numpy.random.Generator``.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List

import numpy as np


def _derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for substream *name* from *root_seed*."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class SeedSequenceRegistry:
    """Factory of named, independent random substreams.

    Example::

        seeds = SeedSequenceRegistry(42)
        gossip_rng = seeds.python("gossip")     # random.Random
        coding_rng = seeds.numpy("coding")      # numpy Generator

    Requesting the same name twice returns the *same* generator object so
    components can share a stream deliberately; distinct names never collide
    (modulo SHA-256).
    """

    def __init__(self, root_seed: int) -> None:
        if isinstance(root_seed, bool) or not isinstance(root_seed, int):
            raise ValueError(f"root seed must be an integer, got {root_seed!r}")
        self.root_seed = root_seed
        self._python: Dict[str, random.Random] = {}
        self._numpy: Dict[str, np.random.Generator] = {}

    def python(self, name: str) -> random.Random:
        """Return the ``random.Random`` substream called *name*."""
        stream = self._python.get(name)
        if stream is None:
            stream = random.Random(_derive_seed(self.root_seed, "py:" + name))
            self._python[name] = stream
        return stream

    def numpy(self, name: str) -> np.random.Generator:
        """Return the ``numpy.random.Generator`` substream called *name*."""
        stream = self._numpy.get(name)
        if stream is None:
            stream = np.random.default_rng(_derive_seed(self.root_seed, "np:" + name))
            self._numpy[name] = stream
        return stream

    def spawn(self, name: str) -> "SeedSequenceRegistry":
        """Derive a child registry (for nested components such as repeats)."""
        return SeedSequenceRegistry(_derive_seed(self.root_seed, "child:" + name))

    def __repr__(self) -> str:
        return f"SeedSequenceRegistry(root_seed={self.root_seed})"


def exponential(rng: random.Random, rate: float) -> float:
    """Draw an Exp(rate) waiting time; ``rate`` must be > 0."""
    if rate <= 0:
        raise ValueError(f"exponential rate must be > 0, got {rate}")
    return rng.expovariate(rate)


def cohort_size(fraction: float, n: int) -> int:
    """Head count of a population share: at least one member, at most all *n*.

    Every "fraction of the peers" knob (polluters, burst and sybil cohorts,
    adversary roles, process-fault cohorts) sizes its set here, in every
    engine.
    """
    return min(n, max(1, round(fraction * n)))


def sample_cohort(rng: random.Random, fraction: float, n: int) -> List[int]:
    """Draw the members of one :func:`cohort_size` cohort out of ``range(n)``."""
    return rng.sample(range(n), cohort_size(fraction, n))
