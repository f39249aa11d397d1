"""Tests for the adversary subsystem (plan, injector, defenses, system)."""

import random

import pytest

from repro.adversary import (
    AdversaryInjector,
    AdversaryPlan,
    OUTCOME_JUNK,
    OUTCOME_REDUNDANT,
    OUTCOME_USEFUL,
    PullSourceScorer,
    TARGET_UNIFORM,
)
from repro.core.params import Parameters
from repro.core.system import CollectionSystem
from repro.sim.engine import Simulator
from repro.sim.metrics import MetricsCollector
from repro.sim.trace import Tracer


def params(adversary=None, **overrides):
    defaults = dict(
        n_peers=40,
        arrival_rate=6.0,
        gossip_rate=8.0,
        deletion_rate=1.0,
        normalized_capacity=3.0,
        segment_size=4,
        n_servers=2,
    )
    defaults.update(overrides)
    return Parameters(adversary=adversary, **defaults)


def make_injector(plan, n_slots=20, seed=0, tracer=None):
    sim = Simulator()
    metrics = MetricsCollector(
        n_peers=n_slots,
        arrival_rate=1.0,
        segment_size=1,
        normalized_capacity=1.0,
    )
    injector = AdversaryInjector(
        plan=plan,
        sim=sim,
        rng=random.Random(seed),
        n_slots=n_slots,
        metrics=metrics,
        tracer=tracer,
    )
    return sim, metrics, injector


def run_adversarial(plan, seed=3, warmup=2.0, duration=4.0, **overrides):
    system = CollectionSystem(params(adversary=plan, **overrides), seed=seed)
    report = system.run(warmup, duration)
    return system, report


class TestAdversaryPlan:
    def test_default_plan_is_null(self):
        plan = AdversaryPlan()
        assert plan.is_null
        assert plan.static_fraction == 0.0
        assert plan.describe() == "no adversaries"

    @pytest.mark.parametrize(
        "knob",
        ["liar_fraction", "freerider_fraction", "polluter_fraction",
         "sybil_fraction"],
    )
    def test_fractions_validated_with_field_and_value(self, knob):
        with pytest.raises(ValueError, match=knob):
            AdversaryPlan(**{knob: 1.5})
        with pytest.raises(ValueError, match="-0.1"):
            AdversaryPlan(**{knob: -0.1})

    def test_inflation_below_one_rejected(self):
        with pytest.raises(ValueError, match="liar_inflation"):
            AdversaryPlan(liar_fraction=0.1, liar_inflation=0.5)

    def test_targeting_validated(self):
        with pytest.raises(ValueError, match="polluter_targeting"):
            AdversaryPlan(polluter_fraction=0.1, polluter_targeting="bogus")

    def test_role_fractions_must_fit_one_population(self):
        with pytest.raises(ValueError, match="<= 1"):
            AdversaryPlan(
                liar_fraction=0.5, freerider_fraction=0.4,
                polluter_fraction=0.3,
            )

    def test_sybil_rate_requires_fraction(self):
        with pytest.raises(ValueError, match="sybil_fraction"):
            AdversaryPlan(sybil_rate=0.5)

    def test_describe_is_stable(self):
        plan = AdversaryPlan(
            liar_fraction=0.2,
            liar_inflation=8.0,
            freerider_fraction=0.1,
            polluter_fraction=0.1,
            sybil_rate=0.3,
            sybil_fraction=0.1,
        )
        assert plan.describe() == (
            "liars=0.2x8 freeriders=0.1 polluters=0.1(low-degree) "
            "sybils(rate=0.3,frac=0.1)"
        )
        assert AdversaryPlan(freerider_fraction=0.25).describe() == (
            "freeriders=0.25"
        )


class TestFaultPlanDescribe:
    """Satellite: FaultPlan.describe() is a stable one-liner too."""

    def test_describe_is_stable(self):
        from repro.faults import FaultPlan

        plan = FaultPlan(
            gossip_loss_rate=0.25,
            pull_loss_rate=0.5,
            pollution_fraction=0.1,
            burst_rate=0.2,
            burst_fraction=0.3,
        )
        assert plan.describe() == (
            "loss(gossip=0.25,pull=0.5) pollution=0.1 "
            "bursts(rate=0.2,kill=0.3)"
        )


class TestInjectorRoles:
    def test_roles_are_disjoint_and_sized(self):
        plan = AdversaryPlan(
            liar_fraction=0.2, freerider_fraction=0.3, polluter_fraction=0.1
        )
        _, _, injector = make_injector(plan, n_slots=20)
        assert len(injector.liars) == 4
        assert len(injector.freeriders) == 6
        assert len(injector.polluters) == 2
        assert not injector.liars & injector.freeriders
        assert not injector.liars & injector.polluters
        assert not injector.freeriders & injector.polluters

    def test_tiny_fraction_rounds_up_to_one(self):
        plan = AdversaryPlan(liar_fraction=0.01)
        _, _, injector = make_injector(plan, n_slots=20)
        assert len(injector.liars) == 1

    def test_full_fraction_converts_everyone(self):
        plan = AdversaryPlan(freerider_fraction=1.0)
        _, _, injector = make_injector(plan, n_slots=12)
        assert injector.freeriders == frozenset(range(12))
        assert all(injector.suppress_gossip(s, 0) for s in range(12))

    def test_freeriders_serve_honest_blocks(self):
        plan = AdversaryPlan(freerider_fraction=0.5)
        _, _, injector = make_injector(plan, n_slots=10)
        for slot in injector.freeriders:
            assert not injector.serves_junk(slot, 0)
            assert injector.is_adversarial(slot, 0)

    def test_uniform_polluters_do_not_steer_segments(self):
        plan = AdversaryPlan(
            polluter_fraction=0.5, polluter_targeting=TARGET_UNIFORM
        )
        _, _, injector = make_injector(plan, n_slots=10)
        for slot in injector.polluters:
            assert injector.pollutes_gossip(slot)
            assert not injector.targets_low_degree(slot)


class TestInjectorCapture:
    def test_capture_frequency_matches_inflation_model(self):
        plan = AdversaryPlan(liar_fraction=0.2, liar_inflation=8.0)
        _, _, injector = make_injector(plan, n_slots=20)
        k = len(injector.liars)
        expected = 8.0 * k / (8.0 * k + (20 - k))
        draws = 4000
        hits = sum(injector.capture_pull() is not None for _ in range(draws))
        assert hits / draws == pytest.approx(expected, abs=0.03)

    def test_captures_land_on_liar_slots(self):
        plan = AdversaryPlan(liar_fraction=0.25, liar_inflation=16.0)
        _, _, injector = make_injector(plan, n_slots=16)
        targets = {
            slot
            for slot in (injector.capture_pull() for _ in range(500))
            if slot is not None
        }
        assert targets  # inflation 16 over 4 liars captures often
        assert targets <= injector.liars

    def test_accept_capture_honors_trust(self):
        plan = AdversaryPlan(liar_fraction=0.2)
        _, _, injector = make_injector(plan, n_slots=10)
        assert injector.accept_capture(1.0)
        assert not injector.accept_capture(0.0)
        accepted = sum(injector.accept_capture(0.3) for _ in range(2000))
        assert accepted / 2000 == pytest.approx(0.3, abs=0.04)


class TestInjectorSybils:
    def test_start_without_bind_raises(self):
        plan = AdversaryPlan(sybil_rate=1.0, sybil_fraction=0.5)
        _, _, injector = make_injector(plan)
        with pytest.raises(RuntimeError, match="bind"):
            injector.start()

    def test_double_start_raises(self):
        plan = AdversaryPlan(freerider_fraction=0.5)
        _, _, injector = make_injector(plan)
        injector.start()
        with pytest.raises(RuntimeError, match="started"):
            injector.start()

    def test_sybil_lifecycle_rides_generations(self):
        plan = AdversaryPlan(sybil_rate=2.0, sybil_fraction=0.25)
        sim, _, injector = make_injector(plan, n_slots=8)
        generations = {slot: 0 for slot in range(8)}
        killed = []

        def kill(slots):
            for slot in slots:
                generations[slot] += 1
                killed.append(slot)

        injector.bind(kill_slots=kill, get_generation=generations.__getitem__)
        injector.start()
        sim.run_until(4.0)
        assert injector.sybil_bursts_fired > 0
        assert injector.sybil_burst_size() == 2
        assert injector.sybil_conversions == len(killed)
        # every active sybil identity is the post-replacement generation
        for slot in set(killed):
            if injector.is_sybil(slot, generations[slot]):
                assert injector.serves_junk(slot, generations[slot])
                assert injector.suppress_gossip(slot, generations[slot])
        # natural churn replacing the identity clears the mark
        before = injector.active_sybil_count()
        assert before > 0
        for slot in list(generations):
            generations[slot] += 1
        assert injector.active_sybil_count() == 0
        injector.stop()


class TestPullSourceScorer:
    def test_validation_names_field(self):
        with pytest.raises(ValueError, match="alpha"):
            PullSourceScorer(alpha=0.0)
        with pytest.raises(ValueError, match="threshold"):
            PullSourceScorer(threshold=1.5)
        with pytest.raises(ValueError, match="min_pulls"):
            PullSourceScorer(min_pulls=0)

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError, match="outcome"):
            PullSourceScorer().record(0, 0, "great")

    def test_junk_feed_quarantines_after_min_pulls(self):
        scorer = PullSourceScorer(alpha=0.25, threshold=0.25, min_pulls=8)
        flipped = [scorer.record(3, 0, OUTCOME_JUNK) for _ in range(12)]
        assert sum(flipped) == 1  # the transition is reported exactly once
        assert scorer.is_quarantined(3, 0)
        assert scorer.quarantined_identities() == [(3, 0)]
        assert scorer.quarantines == 1

    def test_honest_mixture_never_quarantines(self):
        """Scores fed only useful/redundant stay >= 0.5 > threshold."""
        scorer = PullSourceScorer()
        rng = random.Random(5)
        for pull in range(500):
            outcome = (
                OUTCOME_USEFUL if rng.random() < 0.5 else OUTCOME_REDUNDANT
            )
            assert not scorer.record(pull % 7, 0, outcome)
        assert scorer.quarantines == 0
        assert scorer.tracked_identities() == 7

    def test_admit_probation_probe(self):
        scorer = PullSourceScorer(min_pulls=4, probation_interval=3)
        for _ in range(6):
            scorer.record(1, 0, OUTCOME_JUNK)
        admits = [scorer.admit(1, 0) for _ in range(6)]
        assert admits == [False, False, True, False, False, True]

    def test_quarantine_lifts_after_probe_recovery(self):
        scorer = PullSourceScorer(alpha=0.5, min_pulls=2, threshold=0.25)
        for _ in range(6):
            scorer.record(2, 0, OUTCOME_JUNK)
        assert scorer.is_quarantined(2, 0)
        for _ in range(3):
            scorer.record(2, 0, OUTCOME_USEFUL)
        assert not scorer.is_quarantined(2, 0)
        assert scorer.admit(2, 0)

    def test_new_generation_is_a_fresh_identity(self):
        scorer = PullSourceScorer(min_pulls=2)
        for _ in range(6):
            scorer.record(4, 0, OUTCOME_JUNK)
        assert scorer.is_quarantined(4, 0)
        assert not scorer.is_quarantined(4, 1)
        assert scorer.admit(4, 1)
        assert scorer.trust(4, 1) == 1.0

    def test_trust_defaults_to_full_until_observed(self):
        scorer = PullSourceScorer(min_pulls=4)
        assert scorer.trust(9, 0) == 1.0
        for _ in range(4):
            scorer.record(9, 0, OUTCOME_JUNK)
        assert scorer.trust(9, 0) < 0.5

    def test_disabled_quarantine_only_tracks_trust(self):
        scorer = PullSourceScorer(min_pulls=2, quarantine=False)
        for _ in range(8):
            assert not scorer.record(6, 0, OUTCOME_JUNK)
        assert scorer.admit(6, 0)
        assert scorer.trust(6, 0) < 0.25


class TestParametersIntegration:
    def test_adversary_field_type_checked(self):
        with pytest.raises(ValueError, match="adversary"):
            params(adversary={"liar_fraction": 0.5})

    def test_null_plan_builds_no_injector(self):
        system = CollectionSystem(params(adversary=AdversaryPlan()), seed=1)
        assert system.adversary is None
        assert system.scorer is None

    def test_defense_knobs_build_scorer_without_adversary(self):
        system = CollectionSystem(params(pull_scoring=True), seed=1)
        assert system.adversary is None
        assert system.scorer is not None
        assert system.scorer.quarantine_enabled

    def test_discounting_only_scorer_never_quarantines(self):
        system = CollectionSystem(params(advert_discounting=True), seed=1)
        assert not system.scorer.quarantine_enabled


class TestSystemProperties:
    def test_null_plan_bitwise_neutral_under_monitors(self):
        """fraction=0.0 everywhere changes zero events vs no plan at all,
        even with chaos invariant monitors sweeping the run."""
        from repro.chaos.monitors import MonitorSuite, runtime_monitors

        def trace(plan, monitored):
            tracer = Tracer()
            system = CollectionSystem(
                params(adversary=plan), seed=7, tracer=tracer
            )
            if monitored:
                suite = MonitorSuite(
                    system, every=3, monitors=runtime_monitors(system)
                )
                with suite:
                    system.run(2.0, 4.0)
                    suite.check_now()
                assert suite.checks_run > 10
            else:
                system.run(2.0, 4.0)
            return [event.as_dict() for event in tracer.events]

        baseline = trace(None, monitored=False)
        assert trace(AdversaryPlan(), monitored=True) == baseline
        assert len(baseline) > 100

    def test_fully_adversarial_population_terminates(self):
        """fraction=1.0 (plus sybil bursts) must not livelock the system."""
        plan = AdversaryPlan(
            liar_fraction=0.5,
            freerider_fraction=0.5,
            sybil_rate=1.0,
            sybil_fraction=0.5,
        )
        system, report = run_adversarial(
            plan, mean_lifetime=4.0, pull_scoring=True, advert_discounting=True
        )
        assert report.pulls >= 0  # the run completed
        assert system.adversary.sybil_bursts_fired > 0
        system.consistency_check()

    def test_defenses_on_honest_population_no_false_quarantines(self):
        """Defenses enabled with zero adversaries must convict no one."""
        system = CollectionSystem(
            params(pull_scoring=True, advert_discounting=True), seed=11
        )
        system.run(2.0, 6.0)
        assert system.metrics.false_quarantines == 0
        assert system.metrics.slots_quarantined == 0
        assert system.metrics.pulls_quarantine_rejected == 0
        assert system.scorer.quarantines == 0
        assert system.scorer.tracked_identities() > 0  # it was watching

    def test_liars_degrade_and_scoring_recovers(self):
        plan = AdversaryPlan(liar_fraction=0.3, liar_inflation=8.0)
        kwargs = dict(seed=5, gossip_rate=4.0, arrival_rate=4.0)
        _, undefended = run_adversarial(plan, **kwargs)
        defended_system, defended = run_adversarial(
            plan, pull_scoring=True, advert_discounting=True, **kwargs
        )
        _, honest = run_adversarial(None, **kwargs)
        assert undefended.pulls_captured > 0
        assert undefended.normalized_goodput < honest.normalized_goodput
        assert defended.normalized_goodput > undefended.normalized_goodput
        # transitions may land in warmup; judge on lifetime totals
        assert defended_system.scorer.quarantines > 0
        assert defended_system.metrics.false_quarantines == 0
        defended_system.consistency_check()

    def test_sybil_conversions_counted(self):
        plan = AdversaryPlan(sybil_rate=1.5, sybil_fraction=0.3)
        system, report = run_adversarial(plan, mean_lifetime=5.0)
        assert report.sybil_conversions > 0
        assert (
            system.adversary.sybil_conversions
            >= report.sybil_conversions
        )
        system.consistency_check()


class TestChaosIntegration:
    def test_trial_config_roundtrips_adversary(self):
        from repro.chaos.space import TrialConfig, sample_trial
        from repro.util.codec import decode, encode

        found = 0
        for trial_id in range(60):
            config = sample_trial(99, trial_id)
            back = decode(TrialConfig, encode(config))
            assert back == config
            if config.adversary:
                found += 1
                adversary = config.parameters().adversary
                assert not adversary.is_null
                assert adversary.describe() in config.describe()
        assert found > 5  # the space actually explores adversaries

    def test_old_journals_without_adversary_key_load(self):
        from repro.chaos.space import TrialConfig, sample_trial
        from repro.util.codec import decode, encode

        payload = encode(sample_trial(99, 0))
        payload.pop("adversary")
        config = decode(TrialConfig, payload)
        assert config.adversary == {}
        assert config.parameters().adversary is None

    def test_shrinker_drops_adversary_dimensions(self):
        from dataclasses import replace

        from repro.chaos.shrink import _candidates
        from repro.chaos.space import sample_trial

        config = replace(
            sample_trial(99, 1),
            adversary={
                "liar_fraction": 0.4,
                "liar_inflation": 4.0,
                "sybil_rate": 0.5,
                "sybil_fraction": 0.5,
            },
        )
        candidates = list(_candidates(config))
        adversaries = [c.adversary for c in candidates]
        assert {} in adversaries  # wholesale dismissal probed
        assert {"sybil_rate": 0.5, "sybil_fraction": 0.5} in adversaries
        assert {"liar_fraction": 0.4, "liar_inflation": 4.0} in adversaries
