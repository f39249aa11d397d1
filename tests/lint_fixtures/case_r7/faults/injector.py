"""Fixture: a hook surface with one broken short-circuit."""


class FaultVerdicts:
    def __init__(self, plan, rng):
        self.plan = plan
        self._rng = rng
        self.polluters = frozenset()

    def drop_gossip(self):
        return self._rng.random() < self.plan.gossip_loss_rate

    def drop_pull(self):
        p = self.plan.pull_loss_rate
        return p > 0.0 and self._rng.random() < p
