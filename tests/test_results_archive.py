"""Shape checks on the shipped results archive (results/*.json).

The archive is produced by ``repro all --quality fast --json results/``
(except ``live.json``, the N = 1000 ``--quality full`` run) plus the
full-budget E-SCALE sweep in ``results/full/scale.json``; EXPERIMENTS.md renders its tables from these
files.  Every experiment in ``PLAN_BUILDERS`` must have its archive at
``results/<plan.experiment>.json``, and each archive must show the
qualitative shape the paper (or the extension's design) predicts — who
wins, where curves rise, saturate or hump — without re-running anything.
A change that moves a figure regenerates its archive, and these checks
then say whether the shape survived.
"""

import functools
import importlib.util
import math
import pathlib
import re

import pytest

from repro.experiments import PLAN_BUILDERS
from repro.experiments.base import SeriesResult
from repro.experiments.fig3 import ARRIVAL_RATE, DELETION_RATE, GOSSIP_RATE
from repro.experiments.robustness import CHANNELS
from repro.experiments.transient import BURST_END, BURST_START

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO / "results"

#: CLI experiment name -> archive file name (``plan.experiment``).
EXPERIMENTS = {
    name: builder(quality="fast").experiment
    for name, builder in PLAN_BUILDERS.items()
}


@functools.lru_cache(maxsize=None)
def archive(experiment: str) -> SeriesResult:
    """Load ``results/<experiment>.json`` (``experiment`` may hold a subdir)."""
    path = RESULTS_DIR / f"{experiment}.json"
    assert path.is_file(), f"missing archive {path.relative_to(REPO)}"
    return SeriesResult.from_json(path.read_text())


class TestResultsArchive:
    def test_every_archive_loads(self):
        for experiment in EXPERIMENTS.values():
            result = archive(experiment)
            assert result.name == experiment
            assert result.x_values, experiment
            assert result.series, experiment

    def test_figure_archives_present(self):
        """One archive per ``PLAN_BUILDERS`` entry, and nothing stale."""
        shipped = {path.stem for path in RESULTS_DIR.glob("*.json")}
        assert shipped == set(EXPERIMENTS.values())

    def test_experiments_md_renders_every_archive(self, tmp_path):
        """Each placeholder holds its archive's whole table, the committed
        EXPERIMENTS.md is what the script writes, and a rerun is a no-op."""
        spec = importlib.util.spec_from_file_location(
            "update_experiments_md", REPO / "scripts" / "update_experiments_md.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        md = tmp_path / "EXPERIMENTS.md"
        md.write_text((REPO / "EXPERIMENTS.md").read_text())
        argv = ["update_experiments_md.py", str(RESULTS_DIR), str(md)]

        assert script.main(argv) == 0
        once = md.read_text()
        tables = script.render_tables(RESULTS_DIR)
        for key, placeholder in script.PLACEHOLDERS.items():
            assert f"<!-- {placeholder} -->\n```\n{tables[key]}\n```\n" in once
        assert once == (REPO / "EXPERIMENTS.md").read_text(), (
            "EXPERIMENTS.md is stale: run scripts/update_experiments_md.py"
        )
        assert script.main(argv) == 0
        assert md.read_text() == once


def test_fig3_throughput_vs_segment_size():
    result = archive("fig3")
    capacities = sorted(
        float(label.split("=")[1])
        for label in result.series
        if label.startswith("analytic")
    )
    for c in capacities:
        analytic = result.series[f"analytic c={c:g}"]
        simulated = result.series[f"sim c={c:g}"]
        capacity_line = min(c / ARRIVAL_RATE, 1.0)

        # shape: throughput rises with s...
        assert analytic[-1] > analytic[0], f"analytic curve flat for c={c}"
        assert simulated[-1] > simulated[0], f"sim curve flat for c={c}"
        # ...toward (but never above) the capacity line
        assert analytic[-1] <= capacity_line + 1e-6
        assert analytic[-1] > 0.95 * capacity_line
        assert simulated[-1] <= capacity_line * 1.05
        assert simulated[-1] > 0.9 * capacity_line
        # analytic and simulation agree pointwise
        for a, s in zip(analytic, simulated):
            assert abs(a - s) < 0.1 * capacity_line + 0.02

    # the relative gap to capacity at small s is widest for the largest c
    gaps = [
        1.0 - result.series[f"analytic c={c:g}"][0] / min(c / ARRIVAL_RATE, 1.0)
        for c in capacities
    ]
    assert gaps == sorted(gaps), "capacity gap should widen with c"


def test_fig4_throughput_vs_mu_under_churn():
    result = archive("fig4")

    def mean(label):
        return sum(result.series[label]) / len(result.series[label])

    # ample capacity (c=8=lambda): churn degrades the heavily coded system
    assert mean("c=8 s=30 churn") < mean("c=8 s=30 static") - 0.02

    # scarce capacity (c=2): coding helps, and churn does not erase the gain
    assert mean("c=2 s=30 static") > mean("c=2 s=1 static") + 0.02
    assert mean("c=2 s=30 churn") > mean("c=2 s=1 churn") + 0.02

    # under scarce capacity churn's penalty on the coded system is mild
    degradation = mean("c=2 s=30 static") - mean("c=2 s=30 churn")
    assert degradation < 0.05

    # sanity: every curve lies within (0, capacity]
    for label, values in result.series.items():
        cap = 1.0 if "c=8" in label else 0.25
        for value in values:
            assert 0.0 < value <= cap * 1.08 + 0.02, (label, value)


def test_fig5_block_delay_vs_segment_size():
    result = archive("fig5")
    s_values = result.x_values
    for label, values in result.series.items():
        if label.startswith("analytic"):
            coded = {
                s: v for s, v in zip(s_values, values) if s >= 2
            }
            peak_s = max(coded, key=coded.get)
            # the paper puts the peak around s=5; allow the coded small range
            assert peak_s <= 10, f"{label}: analytic peak at s={peak_s}"
            # decay after the peak
            tail = [v for s, v in coded.items() if s >= peak_s]
            assert tail[-1] < tail[0], f"{label}: no decay after the peak"
        elif label.startswith("sim"):
            # Delay is measured on segments that actually complete; in the
            # scarcest-capacity corner (small c, large s) completions can be
            # absent from the window, leaving NaN points — skip those.
            by_s = {
                s: v
                for s, v in zip(s_values, values)
                if v is not None and not math.isnan(v)
            }
            coded = {s: v for s, v in by_s.items() if s >= 5}
            if len(coded) >= 2:
                largest = max(coded)
                smallest = min(coded)
                assert coded[largest] < coded[smallest], (
                    f"{label}: simulated delay should decay for large s"
                )
            assert all(v > 0 for v in by_s.values())


def test_fig6_saved_data_vs_segment_size():
    result = archive("fig6")
    for label, values in result.series.items():
        # monotone (allowing small simulation noise) decrease with s
        tolerance = 0.0 if label.startswith("analytic") else 0.6
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + tolerance, (label, values)
        # strictly positive reserve at every s
        assert all(v > 0 for v in values), (label, values)
        # the reserve shrinks substantially across the sweep
        assert values[-1] < 0.5 * values[0], (label, values)

    # larger capacity reconstructs more: saved(c=12) < saved(c=4) pointwise
    small_c = result.series["analytic c=4"]
    large_c = result.series["analytic c=12"]
    assert all(b < a for a, b in zip(small_c, large_c))


def test_theorem1_storage_overhead():
    result = archive("theorem1")
    closed_rho = result.series["closed-form rho"][0]
    bound = GOSSIP_RATE / DELETION_RATE

    for ode_rho in result.series["ODE rho"]:
        assert abs(ode_rho - closed_rho) / closed_rho < 0.05
    for sim_rho in result.series["sim rho"]:
        # "regardless of the value of s": occupancy stays near the closed form
        assert abs(sim_rho - closed_rho) / closed_rho < 0.12
    for overhead in result.series["sim overhead"]:
        # Theorem 1's bound overhead < mu/gamma (plus simulation noise)
        assert overhead < bound * 1.08
    for z0 in result.series["sim z0"]:
        assert 0.0 <= z0 < 0.05  # lambda/gamma = 20: empty peers are rare


def test_transient_flash_crowd():
    result = archive("transient")
    times = result.x_values
    demand = dict(zip(times, result.series["demand"]))
    for label in ("fluid occupancy", "sim occupancy"):
        occupancy = dict(zip(times, result.series[label]))
        pre = [v for t, v in occupancy.items() if t < BURST_START]
        burst_and_after = [
            v for t, v in occupancy.items() if BURST_START <= t < BURST_END + 5
        ]
        late = [v for t, v in occupancy.items() if t > BURST_END + 10]
        # buffering zone: occupancy swells well above its pre-burst level...
        assert max(burst_and_after) > 1.3 * max(pre), label
        # ...and drains back down once the backlog clears
        assert late[-1] < 1.2 * max(pre), label

    # smoothing: intake varies much less than demand
    demand_swing = max(demand.values()) / min(demand.values())
    for label in ("fluid intake", "sim intake"):
        intake = [v for t, v in zip(times, result.series[label]) if t > 4]
        intake_swing = max(intake) / min(intake)
        assert intake_swing < demand_swing / 2, label

    # fluid and simulation agree pointwise once past the earliest transient
    for t, fluid, sim in zip(
        times, result.series["fluid occupancy"], result.series["sim occupancy"]
    ):
        if t > BURST_END + 5:
            assert abs(fluid - sim) / fluid < 0.15, (t, fluid, sim)


def test_baseline_flash_crowd_comparison():
    """Push drops the burst permanently; the indirect pool buffers it."""
    result = archive("baseline")
    push = result.series["push intake"]
    indirect = result.series["indirect intake"]

    steady, burst, drain1, drain2 = range(4)

    # push is capacity-clipped during the burst (cannot exceed c/lambda_base
    # = 1.5 by construction) and has nothing left to drain afterwards
    assert push[burst] < 1.65
    assert push[drain1] < 1.15
    assert push[drain2] < 1.15

    # the indirect pool keeps the servers busy above the base rate through
    # the first drain phase — the burst was buffered, not lost
    assert indirect[drain1] > 0.85
    assert indirect[burst] > 1.0

    # the push note must report a substantial permanent drop
    drop_note = next(note for note in result.notes if "dropped" in note)
    dropped = float(re.search(r"dropped ([0-9.]+)%", drop_note).group(1))
    assert dropped > 15.0

    # only the indirect design retains recoverable data of departed peers
    recover_note = next(
        note for note in result.notes if "still recoverable" in note
    )
    pull_rec, indirect_rec = [
        float(m) for m in re.findall(r"([0-9.]+)%", recover_note)
    ]
    assert pull_rec == 0.0
    assert indirect_rec >= 0.0


def test_robustness_degradation_curves():
    result = archive("robustness")
    for channel in CHANNELS:
        delivery = result.series[f"delivery ratio: {channel}"]
        # severity 0 is the shared baseline: exactly no degradation
        assert delivery[0] == 1.0, channel
        assert all(not math.isnan(v) for v in delivery), channel
        assert all(0.0 <= v <= 1.2 for v in delivery), channel

    # link loss starves the protocol monotonically in severity
    loss = result.series["delivery ratio: loss"]
    assert all(a >= b for a, b in zip(loss, loss[1:])), loss
    assert loss[-1] < 0.6 * loss[0]

    # pollution wastes bandwidth: strictly degraded at the top severity
    pollution = result.series["delivery ratio: pollution"]
    assert pollution[-1] < 0.9

    # correlated bursts are the fault coding absorbs best: mild degradation
    bursts = result.series["delivery ratio: bursts"]
    assert min(bursts) > 0.7

    # the RLNC audit must report zero corrupted decodes and real rejections
    audit = next(n for n in result.notes if "rlnc pollution audit" in n)
    assert "0 corrupted decodes" in audit
    assert not audit.startswith("rlnc pollution audit: 0 ")


def test_ablation_ttl():
    result = archive("ablation-ttl")
    occupancy = result.series["occupancy rho"]
    saved = result.series["saved blocks/peer"]
    # occupancy ~ (mu + lambda)/gamma: strictly decreasing in gamma
    assert occupancy == sorted(occupancy, reverse=True)
    # the delayed-delivery reserve shrinks as blocks die faster
    assert saved == sorted(saved, reverse=True)
    # coarse magnitude check at the ends of the sweep
    gammas = result.x_values
    expected_first = 18.0 / gammas[0]
    assert abs(occupancy[0] - expected_first) / expected_first < 0.2


def test_ablation_buffer_cap():
    result = archive("ablation-buffer")
    throughput = result.series["normalized throughput"]
    blocked = result.series["blocked injections"]
    # throughput recovers as B clears the natural occupancy (~18)
    assert throughput[-1] > throughput[0] * 1.5
    # blocking collapses to near zero once B is ample
    assert blocked[0] > 50 * max(blocked[-1], 1)
    # occupancy saturates near (mu + lambda)/gamma for large B
    assert abs(result.series["occupancy rho"][-1] - 18.0) < 3.0


def test_ablation_selection_rule():
    result = archive("ablation-selection")
    prop = result.series["proportional throughput"]
    unif = result.series["uniform throughput"]
    by_s = dict(zip(result.x_values, zip(prop, unif)))
    # at s=1 the two rules coincide (a peer's blocks of a segment = 1 draw)
    p1, u1 = by_s[1.0]
    assert abs(p1 - u1) < 0.03
    # at large s the uniform (literal-protocol) rule pays a visible penalty
    p_large, u_large = by_s[max(by_s)]
    assert u_large < p_large - 0.03
    # but uniform concentrates pulls: its goodput is at least as high
    prop_good = dict(zip(result.x_values, result.series["proportional goodput"]))
    unif_good = dict(zip(result.x_values, result.series["uniform goodput"]))
    s_max = max(by_s)
    assert unif_good[s_max] >= prop_good[s_max] * 0.9


def test_ablation_server_scheduling():
    result = archive("ablation-scheduler")
    policies = [note.split(": ")[1] for note in result.notes if note.startswith("policy")]
    throughput = dict(zip(policies, result.series["throughput"]))
    goodput = dict(zip(policies, result.series["goodput"]))
    efficiency = dict(zip(policies, result.series["efficiency"]))
    # all policies run near the capacity line on the paper's metric
    for policy in policies:
        assert throughput[policy] > 0.35
    # avoiding redundant pulls pushes efficiency to ~1
    assert efficiency["avoid-redundant"] > efficiency["random"]
    assert efficiency["avoid-redundant"] > 0.99
    # the headline: greedy completion multiplies reconstructed-data goodput
    assert goodput["greedy-completion"] > 3.0 * goodput["random"]


def test_ablation_overlay_topology():
    result = archive("ablation-topology")
    throughput = dict(zip(result.x_values, result.series["normalized throughput"]))
    complete_graph = throughput[0.0]
    # the headline finding: mean-field robustness down to very sparse overlays
    for degree, value in throughput.items():
        assert abs(value - complete_graph) / complete_graph < 0.08, (
            degree,
            value,
            complete_graph,
        )


def test_ablation_real_rlnc_vs_abstract():
    result = archive("ablation-coding")
    abstract = result.series["abstract efficiency"]
    rlnc = result.series["rlnc efficiency"]
    for a, r in zip(abstract, rlnc):
        # real coding can only be less efficient than the idealization...
        assert r <= a + 0.02
        # ...but must stay in the same regime (the idealization is usable)
        assert r > 0.5 * a
    # throughput ordering follows efficiency
    for a, r in zip(
        result.series["abstract throughput"], result.series["rlnc throughput"]
    ):
        assert r <= a + 0.02


def test_adversary_defenses_leave_the_honest_path_alone():
    """Defended honest baseline == undefended; zero false quarantines."""
    notes = archive("adversary").notes
    [base] = [n for n in notes if n.startswith("honest baselines")]
    pairs = re.findall(r"(\d+\.\d+)/(\d+\.\d+)", base)
    assert pairs and all(off == on for off, on in pairs), base
    [quarantines] = [n for n in notes if "false quarantines" in n]
    assert "false quarantines across every defended cell: 0 " in quarantines


@pytest.mark.parametrize("experiment", ["scale", "full/scale"])
def test_scale_monitors_clean(experiment):
    notes = archive(experiment).notes
    assert "all array-level invariant monitors clean in every shard" in notes
    assert not any("INVARIANT VIOLATIONS" in note for note in notes)


def test_full_scale_reaches_a_million_peers():
    assert archive("full/scale").x_values == [100_000.0, 1_000_000.0]


@pytest.mark.parametrize(
    "experiment, verdict",
    [("live", "CROSS-VALIDATION PASSED"), ("live_chaos", "E-LIVE-CHAOS PASSED")],
)
def test_live_verdicts(experiment, verdict):
    assert archive(experiment).notes[-1] == verdict
