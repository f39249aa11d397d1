"""Pin every experiment's task grid: its plan name and ordered task ids.

Journals, ``--resume`` and :class:`repro.runner.RunSpec` fingerprints all
key on the task ids, so a refactor that renames, reorders, adds or drops a
cell silently orphans every journaled run.  Each row records
``plan.experiment`` and the SHA-256 of the newline-joined
``plan.task_ids()`` of one builder at one quality preset.
"""

import hashlib

import pytest

from repro.experiments import PLAN_BUILDERS

GRIDS = [
    ("ablation-buffer", "fast", "ablation-buffer",
     "22199317e4a80d709c35f0b8c3400766e1347867b2e49a075a9139f131092973"),
    ("ablation-coding", "fast", "ablation-coding",
     "f8b36d42ea2ca423367b96d9bd6f200df244d39c93af751ee2dafe9456b4f75d"),
    ("ablation-scheduler", "fast", "ablation-scheduler",
     "ab64dd8d5fe0ba5f09da6214e72b41cec8c4d88f3083bebdef1641eba5414726"),
    ("ablation-selection", "fast", "ablation-selection",
     "ad1b4f2d124ed69fe8ecec40c51ba87f815e312820e583986fe54bdb00ec1721"),
    ("ablation-topology", "fast", "ablation-topology",
     "87111ec61aa3e90770dc4aae3f9825f38f72a715b7629d54cdd26ed0cd787b50"),
    ("ablation-ttl", "fast", "ablation-ttl",
     "92b95be323cd697a668fd4d4552c6c38bc208833f64891b6256fb9a732d46553"),
    ("adversary", "fast", "adversary",
     "b6295ad4daa47c568341f158c5994903960f1656d8a012f3d0763ab2b36cdf51"),
    ("baseline", "fast", "baseline",
     "f890149ef17784fef2799063518397255411396d5050e927e6818a17b1ec4b1e"),
    ("fig3", "fast", "fig3",
     "071cb041c1361c209e09f32c151cf6649f9685e3519eb3413e884075851abd1e"),
    ("fig4", "fast", "fig4",
     "3a071c77d29965c119a9b750be20113c1af876c2e3ba0349670dcede6e753a00"),
    ("fig5", "fast", "fig5",
     "071cb041c1361c209e09f32c151cf6649f9685e3519eb3413e884075851abd1e"),
    ("fig6", "fast", "fig6",
     "071cb041c1361c209e09f32c151cf6649f9685e3519eb3413e884075851abd1e"),
    ("live", "fast", "live",
     "109d9f73e6f7a94becf84d148234fe284fff9234bf61999a15838f7785b3f597"),
    ("live-chaos", "fast", "live_chaos",
     "77b036a99883bc2ddb6112e44d12bbe94b34cb63b9217b2bf0ea6838665f459e"),
    ("robustness", "fast", "robustness",
     "21ee72fdabe21a3e44833b80d323cdcb9e55c528f91a620d16a131a00aed644c"),
    ("scale", "fast", "scale",
     "8065e82b47309b82cdc556418fa210830a5a7edc67005c3fbd6e4118608e122b"),
    ("theorem1", "fast", "theorem1",
     "2da24529c34f1b449e1039d1b297a6218f9a8e69c1253cfaef904eb17157face"),
    ("transient", "fast", "transient",
     "d785dec52680dd532b41c4f36fbd018b481793a5efa34cbf8b0efafde2fc3d82"),
    ("ablation-buffer", "full", "ablation-buffer",
     "07f4ffac18ba62afedbaca6a6940a9f3f3f89e1ffa39ba5793e32f233334a87f"),
    ("ablation-coding", "full", "ablation-coding",
     "f8b36d42ea2ca423367b96d9bd6f200df244d39c93af751ee2dafe9456b4f75d"),
    ("ablation-scheduler", "full", "ablation-scheduler",
     "b658b0f21a8a285f23ef9dd1bcf678973f41b2573e90faaf9532e4882cb5ec08"),
    ("ablation-selection", "full", "ablation-selection",
     "41fe7d1abe855ebe8adc0b0b9caf66b5d41ed4b7155bdc46c733430cd1552486"),
    ("ablation-topology", "full", "ablation-topology",
     "87111ec61aa3e90770dc4aae3f9825f38f72a715b7629d54cdd26ed0cd787b50"),
    ("ablation-ttl", "full", "ablation-ttl",
     "27f0350d7508cb2dd59f72407988ab2b26bfb50f425bc2893a0ed02abdb589d9"),
    ("adversary", "full", "adversary",
     "de93a568d7051773b2c3beeae3b35945219cc4283c44f0e16fe060040d5303f2"),
    ("baseline", "full", "baseline",
     "f890149ef17784fef2799063518397255411396d5050e927e6818a17b1ec4b1e"),
    ("fig3", "full", "fig3",
     "463db295078c67e7f3b3cf7feee0c26248accf99408cbfe4fbbf87b861ae10dc"),
    ("fig4", "full", "fig4",
     "5c81dd9009084d3f91430e35abae5091d4ce27f096f41e8ef87c6a8f1826fdc7"),
    ("fig5", "full", "fig5",
     "463db295078c67e7f3b3cf7feee0c26248accf99408cbfe4fbbf87b861ae10dc"),
    ("fig6", "full", "fig6",
     "463db295078c67e7f3b3cf7feee0c26248accf99408cbfe4fbbf87b861ae10dc"),
    ("live", "full", "live",
     "e2aad3aae6ebc458a301ddda89288ec00af13144791c135d992583943369b5a4"),
    ("live-chaos", "full", "live_chaos",
     "32a22fa169b092579d8523a5538584547a6a05656cc0d62193c9b02dd26fe3ca"),
    ("robustness", "full", "robustness",
     "e6e0e6882b905e06a8f243617ccfe7e0b8d0645057fff04a118d913bd12e7f9f"),
    ("scale", "full", "scale",
     "aabff944ea2219dfb9f690abf292049e19eb3ccdcafca159747c07a71fb0e99b"),
    ("theorem1", "full", "theorem1",
     "e061d08acb8c9eaa1d35f7227a6817464607efe03170d01e5f5469787d2bca1d"),
    ("transient", "full", "transient",
     "d785dec52680dd532b41c4f36fbd018b481793a5efa34cbf8b0efafde2fc3d82"),
]


def test_every_builder_is_pinned_at_both_presets():
    pinned = {(name, quality) for name, quality, _, _ in GRIDS}
    assert pinned == {
        (name, quality)
        for name in PLAN_BUILDERS
        for quality in ("fast", "full")
    }


@pytest.mark.parametrize(
    "name,quality,experiment,digest",
    GRIDS,
    ids=[f"{name}-{quality}" for name, quality, _, _ in GRIDS],
)
def test_task_grid_is_pinned(name, quality, experiment, digest):
    plan = PLAN_BUILDERS[name](quality=quality)
    assert plan.experiment == experiment
    ids = "\n".join(plan.task_ids()).encode("utf-8")
    assert hashlib.sha256(ids).hexdigest() == digest
