"""Fixture: callers of the registry and of the unseeded helper beside it."""
from sim.rng import SeedSequenceRegistry, ambient


class Worker:
    def __init__(self, rng):
        self._rng = rng

    def step(self):
        return self._rng.random()


def build():
    seeds = SeedSequenceRegistry()
    good = Worker(rng=seeds.python("worker"))
    bad = Worker(rng=ambient())
    return good, bad
