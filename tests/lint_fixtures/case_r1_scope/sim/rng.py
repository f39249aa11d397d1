"""Fixture: R1's exemption is the registry class, not the file around it."""
import random


class SeedSequenceRegistry:
    def python(self, name):
        return random.Random(hash(name))

    def spawn(self, name):
        return SeedSequenceRegistry()


def ambient():
    return random.Random()
