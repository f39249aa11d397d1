"""The fast engine's fault/adversary masks.

*Who misbehaves* is decided by the code the event engine's injectors also
run (``FaultVerdicts`` / ``AdversaryRoles``, which the masks extend), on
the same-named substreams — checked end to end by
``TestSystemLevelAgreement``.  Per-event decisions (loss, capture) are
property-tested: the vectorized mask applies the scalar predicate
``u < p`` elementwise over one uniform vector.

That a zero-knob query draws nothing is ``tests/test_neutrality.py``'s.
"""

import random

import numpy as np
import pytest

from repro.adversary import AdversaryPlan
from repro.core.params import ENGINE_FAST, Parameters
from repro.core.system import CollectionSystem
from repro.fastsim import FastAdversaryMasks, FastFaultMasks
from repro.fastsim.system import FastCollectionSystem
from repro.faults import FaultPlan

N_SLOTS = 60


def make_fault_masks(plan, seed=5):
    return FastFaultMasks(
        plan, random.Random(seed), np.random.default_rng(seed), N_SLOTS
    )


def make_adversary_masks(plan, seed=5):
    return FastAdversaryMasks(
        plan, random.Random(seed), np.random.default_rng(seed), N_SLOTS
    )


class TestFaultMaskBitwiseAgreement:
    def test_polluter_mask_reflects_set(self):
        plan = FaultPlan(pollution_fraction=0.2)
        masks = make_fault_masks(plan)
        mask = masks.polluter_mask()
        assert set(np.flatnonzero(mask)) == set(masks.polluters)

    def test_deterministic_outage_windows_clip_to_horizon(self):
        plan = FaultPlan(outage_windows=((1.0, 2.0), (5.0, 9.0), (20.0, 25.0)))
        masks = make_fault_masks(plan)
        assert masks.outage_timeline(8.0) == ((1.0, 2.0), (5.0, 8.0))

    def test_renewal_outage_windows_are_ordered_and_bounded(self):
        plan = FaultPlan(outage_rate=0.8, outage_duration=0.5)
        masks = make_fault_masks(plan, seed=3)
        windows = masks.outage_timeline(40.0)
        assert windows
        previous_end = 0.0
        for start, end in windows:
            assert previous_end <= start < end <= 40.0
            assert end - start <= 0.5 + 1e-12
            previous_end = end


class TestAdversaryMaskBitwiseAgreement:
    PLAN = AdversaryPlan(
        liar_fraction=0.1, freerider_fraction=0.1, polluter_fraction=0.1
    )

    def test_role_sets_are_disjoint(self):
        masks = make_adversary_masks(self.PLAN)
        assert not masks.liars & masks.freeriders
        assert not masks.liars & masks.polluters
        assert not masks.freeriders & masks.polluters

    def test_capture_probability_formula(self):
        plan = AdversaryPlan(liar_fraction=0.1, liar_inflation=8.0)
        masks = make_adversary_masks(plan)
        k = len(masks.liars)
        expected = 8.0 * k / (8.0 * k + (N_SLOTS - k))
        assert masks.capture_probability(k) == pytest.approx(expected)
        assert masks.capture_probability(0) == 0.0

    def test_capture_attractors_drawn_from_attractor_set(self):
        plan = AdversaryPlan(liar_fraction=0.1)
        masks = make_adversary_masks(plan)
        attractors = np.fromiter(sorted(masks.liars), dtype=np.int64)
        picks = masks.capture_attractors(200, attractors)
        assert set(picks.tolist()) <= set(attractors.tolist())


class TestVectorizedPredicates:
    """The mask IS the scalar predicate, applied elementwise."""

    @pytest.mark.parametrize("p", [0.05, 0.5, 0.95])
    def test_gossip_loss_mask_is_elementwise_u_less_than_p(self, p):
        plan = FaultPlan(gossip_loss_rate=p)
        seed = 17
        masks = make_fault_masks(plan, seed=seed)
        replay = np.random.default_rng(seed)
        uniforms = replay.random(500)
        mask = masks.gossip_loss_mask(500)
        assert mask is not None
        assert np.array_equal(mask, uniforms < p)
        assert np.array_equal(mask, [u < p for u in uniforms])

    def test_pull_loss_mask_is_elementwise_u_less_than_p(self):
        plan = FaultPlan(pull_loss_rate=0.3)
        masks = make_fault_masks(plan, seed=23)
        uniforms = np.random.default_rng(23).random(300)
        mask = masks.pull_loss_mask(300)
        assert mask is not None
        assert np.array_equal(mask, uniforms < 0.3)

    def test_capture_mask_is_elementwise_u_less_than_p(self):
        plan = AdversaryPlan(liar_fraction=0.1, liar_inflation=8.0)
        masks = make_adversary_masks(plan, seed=29)
        k = len(masks.liars)
        p = masks.capture_probability(k)
        uniforms = np.random.default_rng(29).random(400)
        mask = masks.capture_mask(400, k)
        assert mask is not None
        assert np.array_equal(mask, uniforms < p)


class TestSystemLevelAgreement:
    """Same seed, both engines: the misbehaving slots are the same peers."""

    def shared(self, engine_overrides):
        return dict(
            n_peers=80,
            arrival_rate=6.0,
            gossip_rate=8.0,
            deletion_rate=1.0,
            normalized_capacity=3.0,
            segment_size=4,
            n_servers=2,
            faults=FaultPlan(pollution_fraction=0.1),
            adversary=AdversaryPlan(
                liar_fraction=0.1,
                freerider_fraction=0.05,
                polluter_fraction=0.05,
            ),
            **engine_overrides,
        )

    def test_same_seed_systems_pick_same_misbehaving_slots(self):
        seed = 42
        event = CollectionSystem(Parameters(**self.shared({})), seed=seed)
        fast = FastCollectionSystem(
            Parameters(**self.shared(dict(engine=ENGINE_FAST, tau=0.05))),
            seed=seed,
        )
        assert event.faults is not None and fast.fault_masks is not None
        assert event.adversary is not None
        assert fast.adversary_masks is not None
        assert fast.fault_masks.polluters == event.faults.polluters
        assert fast.adversary_masks.liars == event.adversary.liars
        assert fast.adversary_masks.freeriders == event.adversary.freeriders
        assert fast.adversary_masks.polluters == event.adversary.polluters
