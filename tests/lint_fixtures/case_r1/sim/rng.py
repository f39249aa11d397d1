"""Fixture: the registry class itself is allowed to touch the libraries."""

import random


class SeedSequenceRegistry:
    def python(self, seed):
        return random.Random(seed)
