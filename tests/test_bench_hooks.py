"""Every attribute perfbench/spans.py hooks exists and is called the way its counts read it.

A hook that cannot be installed, or whose count fails on a changed
signature, turns the traced per-layer metrics null in every workload.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import numpy as np  # noqa: E402

import posmap.cli  # noqa: E402
import posmap.positivity  # noqa: E402
from posmap import MapSpec, TauMap  # noqa: E402

import spans  # noqa: E402

ARGVS = [
    ["spanning", "--n", "4", "--k", "3"],
    ["spanning", "--n", "5", "--k", "2"],
    ["positivity", "--n", "4", "--k", "2", "--starts", "2"],
    ["certify", "--n", "4", "--k", "2"],
]


def test_every_hook_installs_and_counts():
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in ARGVS:
            with redirect_stdout(io.StringIO()):
                assert posmap.cli.main(argv) == 0, argv
        # The see-saw runs its starts through _seesaw_batch; call the one-row
        # form the positivity.start hook wraps through the module, where the
        # tracer rebound it, so its count reads the real arguments and result.
        x0 = np.random.default_rng(0).standard_normal(4) + 0.5j
        sweeps = posmap.positivity._seesaw_single(TauMap(MapSpec(4, 2).coupling), x0, 7)[3]
    finally:
        tracer.uninstall()
    assert tracer.missing == {}
    traced = {rec[0] for rec in tracer.spans}
    assert {"spanning.harvest", "spanning.build", "positivity.start"} <= traced
    # (pairs returned, pairs asked for) at (4, 3), then (5, 2), where the family is empty.
    assert [rec[5] for rec in tracer.spans if rec[0] == "spanning.harvest"] == [(8, 8), (0, 10)]
    # One phase pair plus 2n reduction pairs at (4, 3), plus n window pairs at (5, 2).
    assert [rec[5] for rec in tracer.spans if rec[0] == "spanning.build"] == [9, 6]
    assert [rec[5] for rec in tracer.spans if rec[0] == "positivity.start"] == [(sweeps, sweeps >= 7)]
