"""The benchmark's three workloads and the checks run on their outputs.

Inputs are fixed lists of channel draws, so every run does the same designs;
`--seed` only permutes the order in which a round visits them. Random draws
per seed would make the run-to-run spread follow the heavy-tailed SD cost
(3-23 s per reference design) instead of the code under test.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hybridprec  # noqa: E402
from hybridprec import baselines, channel, harness, hybrid, wmmse  # noqa: E402
from hybridprec.channel import SystemConfig  # noqa: E402

import checks  # noqa: E402

if not Path(hybridprec.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"hybridprec resolved to {hybridprec.__file__}, not under {ROOT / 'src'}")

MODULES = {"baselines": baselines, "channel": channel, "harness": harness,
           "hybrid": hybrid, "wmmse": wmmse}

# 64 antennas, 8 RF chains, 2 users, 64 sub-carriers, 1-bit phases, 2 levels, seed 0.
REFERENCE = SystemConfig()
# Trials 1 and 3 are typical SD designs (0.17-0.18 M nodes, 2-3 s each); trial 0
# is a hard one (0.74 M nodes, 8-9 s) and carries the tail of the SD cost.
REFERENCE_TRIALS = (1, 0, 3)
# 16 antennas, 4 RF chains, 2 users, 4 sub-carriers.
DESK = SystemConfig(**harness.DESK_SMALL_CONFIG)
DESK_LEVELS = (2, 8)
DESK_TRIALS = 2
DESK_SEED = 1
# Smallest valid scenario: the warm-up runs every code path of a workload once.
WARMUP = SystemConfig(n_tx=8, m_rf=2, n_users=2, n_subcarriers=2)

FC, DYN = hybrid.FULLY_CONNECTED, hybrid.DYNAMIC_CONNECTED
# Schemes that design through `hybrid.alternate`: (solver, mode, analog, digital).
ALTERNATE_SCHEMES = {
    "sd-hybrid": ("sesd", FC, None, None),
    "ep-hybrid": ("ep", FC, None, None),
    "np-analog-ep-digital": ("ep", FC, "np", "ep"),
    "ep-analog-np-digital": ("ep", FC, "ep", "np"),
    "sd-analog-ideal-digital": ("sesd", FC, None, "ls"),
    "ep-analog-ideal-digital": ("ep", FC, None, "ls"),
    "dynamic-sd": ("sesd", DYN, None, None),
    "dynamic-ep": ("ep", DYN, None, None),
}
# Schemes whose designs are hybrid and quantized: the desk quality metrics
# average these only, since fully-digital and the continuous AltMin designs
# never reach the FALS or quantization code.
HYBRID_SCHEMES = (*ALTERNATE_SCHEMES, "altmin1-q", "altmin2-q")


def _budget(config: SystemConfig) -> tuple[float, float]:
    return channel.per_subcarrier_power_mw(config), channel.noise_power_mw(config)


def _target(config: SystemConfig, trial: int):
    p_s, n0 = _budget(config)
    ch = channel.draw_channel(config, trial)
    target, _ = wmmse.wmmse_fully_digital(ch, p_s, n0, tol=config.wmmse_tol,
                                          max_iter=config.wmmse_max_iter)
    return ch, target


def design_of(target: np.ndarray, config: SystemConfig, precoder, trace,
              analog_method: str) -> checks.Design:
    return checks.Design(
        target=target, f_rf=precoder.f_rf, f_bb=precoder.f_bb, delta=precoder.delta,
        analog_bits=config.analog_bits, levels=config.quant_levels,
        n_users=config.n_users, p_s=channel.per_subcarrier_power_mw(config),
        bisection_tol=config.bisection_tol, analog_method=analog_method,
        dynamic=precoder.mode == DYN, switch=precoder.switch,
        objectives=None if trace is None else list(trace.objective_per_outer_iter),
    )


def _row_gaps(design: checks.Design) -> np.ndarray:
    return checks.analog_row_gaps(design.target, design.f_rf, design.f_bb, design.analog_bits)


class _Checked:
    """Checks each design as soon as it is made and keeps only scalars.

    The checks run outside the timed work: `check_s` is their total time,
    which the caller takes out of the timed loop, so neither the checks' time
    nor kept matrices show in the timing or memory metrics.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_s = 0.0
        self.failures = []
        self.rates, self.nmses, self.gaps = [], [], []  # per design

    def _timed_check(self, check, *args) -> None:
        t0 = time.perf_counter()
        try:
            check(*args)
        except checks.CheckFailed as exc:
            self.failures.append(str(exc))
        finally:
            self.check_s += time.perf_counter() - t0

    def quality(self) -> dict:
        return {
            "sum_rate_bps_hz": float(np.mean(self.rates)) if self.rates else math.nan,
            "nmse": float(np.mean(self.nmses)) if self.nmses else math.nan,
            "ep_analog_gap": float(np.mean(self.gaps)) if self.gaps else 0.0,
        }


class Reference(_Checked):
    """Channel, WMMSE target, one design and its rate, per trial of the list."""

    def __init__(self, solver: str):
        super().__init__()
        self.solver = solver

    def warm_up(self) -> None:
        ch, target = _target(WARMUP, 0)
        precoder, _ = hybrid.alternate(target, WARMUP, self.solver)
        wmmse.sum_rate(ch, precoder.effective(), _budget(WARMUP)[1])

    def replacements(self) -> list:
        return []

    def round(self, rng: np.random.Generator) -> list:
        """One design per listed trial; returns seconds per completed trial."""
        config = REFERENCE
        p_s, n0 = _budget(config)
        seconds = []
        for trial in rng.permutation(REFERENCE_TRIALS):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                ch = channel.draw_channel(config, int(trial))
                target, _ = wmmse.wmmse_fully_digital(ch, p_s, n0, tol=config.wmmse_tol,
                                                      max_iter=config.wmmse_max_iter)
                precoder, trace = hybrid.alternate(target, config, self.solver)
                report = wmmse.sum_rate(ch, precoder.effective(), n0)
            except Exception as exc:  # a failed design is counted, not fatal
                self.failed += 1
                print(f"trial {trial}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            seconds.append(time.perf_counter() - t0)
            design = design_of(target.f_fd, config, precoder, trace, self.solver)
            self._timed_check(self._check, ch, design, report.sum_rate_per_subcarrier_avg)
        return seconds

    def _check(self, ch, design: checks.Design, reported: float) -> None:
        n0 = _budget(REFERENCE)[1]
        effective = design.f_rf @ design.f_bb
        self.rates.append(checks.own_sum_rate(ch.h, effective, design.n_users, n0))
        self.nmses.append(checks.frobenius_sq(design.target, design.f_rf, design.f_bb)
                          / checks.energy(design.target))
        if self.solver == "ep":
            self.gaps.append(float(np.mean(_row_gaps(design))))
        checks.check_design(design)
        checks.check_rate(ch.h, effective, design.n_users, n0, reported)

    def verify(self) -> tuple[dict, list]:
        """Returns (quality, failure messages) of the run's designs."""
        return self.quality(), self.failures


class DeskSweep(_Checked):
    """`harness.run_experiment` over every scheme and two label counts, then a CSV."""

    def __init__(self, seed: int, out_dir: Path):
        super().__init__()
        self.seed = seed
        self.csv = out_dir / f"desk-sweep-seed{seed}.csv"
        self.warm_csv = out_dir / f"desk-sweep-warmup-seed{seed}.csv"
        self.captured = []  # checks.Design of each FALS or quantized design of a round
        self.cell_starts = []
        self.mses = []  # (sweep value, trial, mse) of each hybrid CSV row

    def _spec(self, base: SystemConfig, schemes, values, n_trials: int):
        return harness.ExperimentSpec(
            name="desk-sweep", base=base, schemes=list(schemes), n_trials=n_trials,
            seed=DESK_SEED, sweep_parameter="quant_levels", sweep_values=list(values),
            outputs=["sum_rate_avg", "mse"],
        )

    def warm_up(self) -> None:
        spec = self._spec(WARMUP, harness.SCHEMES, DESK_LEVELS, 1)
        harness.emit_csv(harness.run_experiment(spec), self.warm_csv)

    def replacements(self) -> list:
        """Wrappers that keep each design for the checks and mark cell starts.

        The harness draws exactly one channel at the start of every cell.
        """
        alternate, quantize, draw = hybrid.alternate, baselines.quantize_baseline, \
            harness.draw_channel

        def keep_alternate(target, config, solver, mode=FC, analog_method=None, **kwargs):
            precoder, trace = alternate(target, config, solver, mode=mode,
                                        analog_method=analog_method, **kwargs)
            matrix = target.f_fd if hasattr(target, "f_fd") else target
            self.captured.append(design_of(matrix, config, precoder, trace,
                                           analog_method or solver))
            return precoder, trace

        def keep_quantized(f_rf, f_bb, analog_alphabet, levels, p_s, n_users, **kwargs):
            precoder = quantize(f_rf, f_bb, analog_alphabet, levels, p_s, n_users, **kwargs)
            self.captured.append(checks.Design(
                target=None, f_rf=precoder.f_rf, f_bb=precoder.f_bb, delta=precoder.delta,
                analog_bits=analog_alphabet.resolution_bits, levels=levels, n_users=n_users,
                p_s=p_s, bisection_tol=DESK.bisection_tol, analog_method="np",
            ))
            return precoder

        def mark_cell(*args, **kwargs):
            self.cell_starts.append(time.perf_counter())
            return draw(*args, **kwargs)

        return [(hybrid, "alternate", keep_alternate),
                (baselines, "quantize_baseline", keep_quantized),
                (harness, "draw_channel", mark_cell)]

    def round(self, rng: np.random.Generator) -> list:
        """One sweep; returns seconds per cell."""
        spec = self._spec(DESK, rng.permutation(harness.SCHEMES),
                          [int(v) for v in rng.permutation(DESK_LEVELS)], DESK_TRIALS)
        self.cell_starts = []
        rows = harness.run_experiment(spec)
        end = time.perf_counter()
        harness.emit_csv(rows, self.csv)
        self.attempted += len(DESK_LEVELS) * DESK_TRIALS * len(harness.SCHEMES)
        self.failed += sum(1 for row in rows if row.metric == "error")
        edges = self.cell_starts + [end]
        for design in self.captured:
            self._timed_check(self._check_design, design)
        self.captured = []
        self._timed_check(self._check_csv, rows)
        return [b - a for a, b in zip(edges, edges[1:])]

    def _check_design(self, design: checks.Design) -> None:
        if design.analog_method == "ep" and not design.dynamic:
            self.gaps.append(float(np.mean(_row_gaps(design))))
        checks.check_design(design)

    def _check_csv(self, rows: list) -> None:
        """The round's CSV survives a round trip; its hybrid rows give the quality."""
        parsed = harness.parse_csv(self.csv)
        written = _by_key(rows)
        read = _by_key(parsed)
        hybrid_rows = [r for r in parsed if r.scheme in HYBRID_SCHEMES]
        self.rates += [r.value for r in hybrid_rows if r.metric == "sum_rate_avg"]
        self.mses += [(r.sweep_value, r.trial, r.value) for r in hybrid_rows
                      if r.metric == "mse"]
        if written.keys() != read.keys() or not all(
                math.isclose(written[k], v, rel_tol=1e-9) or (math.isnan(written[k])
                                                              and math.isnan(v))
                for k, v in read.items()):
            raise checks.CheckFailed("CSV does not survive an emit_csv/parse_csv round trip")

    def verify(self) -> tuple[dict, list]:
        """Returns (quality, failure messages), adding a re-derived sample cell."""
        norms = {}
        for level in DESK_LEVELS:
            config = DESK.with_updates(quant_levels=level, seed=DESK_SEED)
            for trial in range(DESK_TRIALS):
                _, target = _target(config, trial)
                norms[(str(level), trial)] = checks.energy(target.f_fd)
        self.nmses = [mse / norms[(level, trial)] for level, trial, mse in self.mses]
        return self.quality(), self.failures + self._rederive_sample()

    def _rederive_sample(self) -> list:
        """Re-derive one seed-chosen cell through `alternate` and match the CSV."""
        csv_values = _by_key(harness.parse_csv(self.csv))
        level = DESK_LEVELS[self.seed % len(DESK_LEVELS)]
        trial = (self.seed // len(DESK_LEVELS)) % DESK_TRIALS
        config = DESK.with_updates(quant_levels=level, seed=DESK_SEED)
        ch, target = _target(config, trial)
        n0 = _budget(config)[1]
        failures = []
        for scheme, (solver, mode, analog, digital) in ALTERNATE_SCHEMES.items():
            try:
                precoder, trace = hybrid.alternate(target, config, solver, mode=mode,
                                                   analog_method=analog, digital_method=digital)
                design = design_of(target.f_fd, config, precoder, trace, analog or solver)
                own_mse = checks.check_design(design)
                reported = wmmse.sum_rate(ch, precoder.effective(), n0)
                own_rate = checks.check_rate(ch.h, design.f_rf @ design.f_bb, config.n_users,
                                             n0, reported.sum_rate_per_subcarrier_avg)
                for metric, own in (("mse", own_mse), ("sum_rate_avg", own_rate)):
                    value = csv_values.get((scheme, str(level), trial, metric), math.nan)
                    if not math.isclose(own, value, rel_tol=1e-8, abs_tol=1e-12):
                        raise checks.CheckFailed(
                            f"{scheme} level {level} trial {trial}: re-derived {metric} "
                            f"{own:.9e} != CSV {value:.9e}")
            except Exception as exc:  # a failed re-derivation is a failed check
                failures.append(f"{scheme}: {type(exc).__name__}: {exc}")
        return failures


def _by_key(rows: list) -> dict:
    return {(r.scheme, str(r.sweep_value), r.trial, r.metric): r.value for r in rows}


def make(name: str, seed: int, out_dir: Path):
    if name == "reference-sd":
        return Reference("sesd")
    if name == "reference-ep":
        return Reference("ep")
    if name == "desk-sweep":
        return DeskSweep(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")
