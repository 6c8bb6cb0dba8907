"""The benchmark's span table still names functions the package has.

`bench/tracing.py` wraps package functions under the names their callers look
them up by (`hybrid.sesd_solve`, `hybrid.optimize_digital`, ...). A rename or
a deleted import there would otherwise surface only when a traced benchmark
run starts.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from hybridprec import baselines, channel, harness, hybrid, wmmse
from hybridprec.channel import SystemConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402

MODULES = {"baselines": baselines, "channel": channel, "harness": harness,
           "hybrid": hybrid, "wmmse": wmmse}


def test_every_traced_name_resolves_and_is_restored():
    originals = {}
    for module, attr, wrapper in tracing.Tracer().replacements(MODULES):
        assert callable(getattr(module, attr)) and callable(wrapper)
        originals[(module.__name__, attr)] = getattr(module, attr)
    assert ("hybridprec.hybrid", "sesd_solve") in originals
    assert ("hybridprec.hybrid", "ep_solve") in originals
    tracer = tracing.Tracer()
    with tracing.patched(tracer.replacements(MODULES)):
        assert hybrid.sesd_solve is not originals[("hybridprec.hybrid", "sesd_solve")]
    for (name, attr), fn in originals.items():
        assert getattr(sys.modules[name], attr) is fn


@pytest.mark.parametrize("solver, kernel, count", [("sesd", "detect.sesd", "nodes"),
                                                   ("ep", "detect.ep", "iters")])
def test_traced_design_records_every_layer(solver, kernel, count):
    """A traced design fills the kernel, digital, analog and design spans, and
    the digital span reads the bisection counts `optimize_digital` returns."""
    config = SystemConfig(n_tx=8, m_rf=2, n_users=2, n_subcarriers=2)
    ch = channel.draw_channel(config, 0)
    target, _ = wmmse.wmmse_fully_digital(
        ch, channel.per_subcarrier_power_mw(config), channel.noise_power_mw(config))
    tracer = tracing.Tracer()
    with tracing.patched(tracer.replacements(MODULES)):
        _, trace = hybrid.alternate(target, config, solver)
    totals = tracer.totals()
    for name in (kernel, "hybrid.digital", "hybrid.analog", "hybrid.design", "alphabets"):
        assert totals[name]["calls"] >= 1, name
    assert totals[kernel][count] > 0
    assert totals["hybrid.design"]["outer_iters"] == trace.n_outer
    assert totals["hybrid.digital"]["calls"] == trace.n_outer
    assert np.isfinite(totals["hybrid.digital"]["bisection_evals"])
