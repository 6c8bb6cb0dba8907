"""The output checks reject deliberately broken precoders.

    python3 -m pytest bench/test_checks.py -q
"""

import json
import math

import envpin

envpin.pin()

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import DESK, DYN, channel, hybrid, wmmse  # noqa: E402


def _design(solver="sesd", mode=workloads.FC):
    ch, target = workloads._target(DESK, 0)
    precoder, trace = hybrid.alternate(target, DESK, solver, mode=mode)
    return ch, precoder, workloads.design_of(target.f_fd, DESK, precoder, trace, solver)


@pytest.fixture(scope="module")
def sd():
    return _design()


def _broken(design, **changes):
    fields = dict(vars(design))
    fields.update(changes)
    return checks.Design(**fields)


def test_valid_designs_pass(sd):
    ch, precoder, design = sd
    assert checks.check_design(design) == pytest.approx(min(design.objectives), rel=1e-12)
    n0 = channel.noise_power_mw(DESK)
    reported = wmmse.sum_rate(ch, precoder.effective(), n0).sum_rate_per_subcarrier_avg
    assert checks.check_rate(ch.h, precoder.effective(), DESK.n_users, n0, reported) \
        == pytest.approx(reported, rel=1e-12)
    for solver in ("sesd", "ep"):
        checks.check_design(_design(solver, DYN)[2])


def test_off_grid_digital_entry_rejected(sd):
    design = sd[2]
    f_bb = design.f_bb.copy()
    f_bb[0, 0] += 0.3 * design.delta
    with pytest.raises(checks.CheckFailed, match="grid"):
        checks.check_digital_grid(f_bb, design.levels, design.delta)
    f_bb[0, 0] = (design.levels / 2 + 0.5) * design.delta * (1 + 1j)  # past the last label
    with pytest.raises(checks.CheckFailed, match="outside"):
        checks.check_digital_grid(f_bb, design.levels, design.delta)


def test_off_alphabet_analog_entry_rejected(sd):
    design = sd[2]
    f_rf = design.f_rf.copy()
    f_rf[3, 1] *= np.exp(0.01j)
    with pytest.raises(checks.CheckFailed, match="grid"):
        checks.check_analog(f_rf, design.analog_bits)
    f_rf[3, 1] = 0.5
    with pytest.raises(checks.CheckFailed, match="unit circle"):
        checks.check_analog(f_rf, design.analog_bits)


def test_over_power_rejected(sd):
    design = sd[2]
    peak = checks.subcarrier_powers(design.f_rf, design.f_bb, design.n_users).max()
    scale = math.sqrt(design.p_s * (1 + design.bisection_tol) / peak)
    checks.check_power(design.f_rf, 0.999 * scale * design.f_bb, design.n_users, design.p_s,
                       design.bisection_tol)
    with pytest.raises(checks.CheckFailed, match="exceeds"):
        checks.check_power(design.f_rf, 1.001 * scale * design.f_bb, design.n_users,
                           design.p_s, design.bisection_tol)


def test_suboptimal_analog_row_rejected(sd):
    design = sd[2]
    f_rf = design.f_rf.copy()
    f_rf[5, 2] = -f_rf[5, 2]  # the other 1-bit label
    broken = _broken(design, f_rf=f_rf, objectives=None)
    checks.check_analog(f_rf, design.analog_bits)  # still on the alphabet
    with pytest.raises(checks.CheckFailed, match="analog row 5"):
        checks.check_sd_rows(broken)
    assert checks.analog_row_gaps(design.target, design.f_rf, design.f_bb,
                                  design.analog_bits).max() <= checks.ROW_GAP_TOL


def test_objective_and_rate_mismatch_rejected(sd):
    ch, precoder, design = sd
    with pytest.raises(checks.CheckFailed, match="trace minimum"):
        checks.check_objective(_broken(design, objectives=[min(design.objectives) * 0.999]))
    n0 = channel.noise_power_mw(DESK)
    with pytest.raises(checks.CheckFailed, match="sum rate"):
        checks.check_rate(ch.h, precoder.effective(), DESK.n_users, n0, 1.001 * math.pi)


def test_bad_switch_rejected():
    design = _design("sesd", DYN)[2]
    switch = design.switch.copy()
    switch[:, 1] = switch[:, 0]
    f_rf = design.f_rf.copy()
    f_rf[:, 1] = f_rf[:, 0]
    with pytest.raises(checks.CheckFailed, match="repeated"):
        checks.check_analog(f_rf, design.analog_bits, dynamic=True, switch=switch)
    switch[:, 1] = 0.0
    f_rf[:, 1] = 0.0
    with pytest.raises(checks.CheckFailed, match="all-zero"):
        checks.check_analog(f_rf, design.analog_bits, dynamic=True, switch=switch)


def test_per_layer_names_match_benchmark_json():
    declared = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    emitted = tracing.per_layer_metrics(tracing.Tracer(), 1, 1.0, 0.0)
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: m["unit"] for name, m in emitted.items()}
