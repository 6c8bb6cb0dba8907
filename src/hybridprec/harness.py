"""Experiment orchestration: scheme registry, Monte Carlo sweeps, CSV output,
runtime benchmarking, and the command-line interface.

Every (sweep value, trial) cell draws a channel from a stream keyed only by
(seed, trial, user), computes the fully-digital target once, and runs every
requested scheme on identical inputs, so schemes are directly comparable and
results are reproducible at any parallelism.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import baselines, hybrid
from .alphabets import make_analog_alphabet, make_digital_alphabet, make_switch_alphabet
from .channel import (ChannelSet, SystemConfig, draw_channel, fronthaul_accounting,
                      has_setting_type, noise_power_mw, per_subcarrier_power_mw)
from .detect import EPNumericalError, brute_force_ml, residual_norm_sq
from .wmmse import FullyDigitalPrecoder, mse_to_target, sum_rate, wmmse_fully_digital

SCHEMA_VERSION = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Schemes designed by hybrid.alternate: (solver, mode, analog method, digital method).
ALTERNATE_SCHEMES = {
    "sd-hybrid": ("sesd", hybrid.FULLY_CONNECTED, None, None),
    "ep-hybrid": ("ep", hybrid.FULLY_CONNECTED, None, None),
    "np-analog-ep-digital": ("ep", hybrid.FULLY_CONNECTED, "np", "ep"),
    "ep-analog-np-digital": ("ep", hybrid.FULLY_CONNECTED, "ep", "np"),
    "sd-analog-ideal-digital": ("sesd", hybrid.FULLY_CONNECTED, None, "ls"),
    "ep-analog-ideal-digital": ("ep", hybrid.FULLY_CONNECTED, None, "ls"),
    "dynamic-sd": ("sesd", hybrid.DYNAMIC_CONNECTED, None, None),
    "dynamic-ep": ("ep", hybrid.DYNAMIC_CONNECTED, None, None),
}
# the continuous AltMin baselines and their quantized ("-q") variants
ALTMIN_SCHEMES = ("altmin1", "altmin1-q", "altmin2", "altmin2-q")
SCHEMES = (*ALTERNATE_SCHEMES, *ALTMIN_SCHEMES, "fully-digital")
METRICS = ("sum_rate_avg", "sum_rate_total", "mse", "runtime", "trace")
# the settings a spec sets or sweeps; the seed is the spec's own
SETTINGS = tuple(f.name for f in dataclasses.fields(SystemConfig) if f.name != "seed")

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_NUMERICAL = 3
EXIT_CHECK_FAILED = 4


class SpecError(ValueError):
    """Malformed experiment specification."""


@dataclass
class ExperimentSpec:
    name: str
    base: SystemConfig
    schemes: list
    n_trials: int = 20
    seed: int = 0
    sweep_parameter: Optional[str] = None
    sweep_values: Optional[list] = None
    outputs: list = field(default_factory=lambda: ["sum_rate_avg", "mse"])

    def __post_init__(self):
        # the name is the output file stem, so it stays inside the output directory
        if (not isinstance(self.name, str) or self.name in ("", ".", "..")
                or any(c in self.name for c in "/\\\0")):
            raise SpecError(f"name must be a plain file name, got {self.name!r}")
        if not self.schemes:
            raise SpecError("scheme list must not be empty")
        if not self.outputs:
            raise SpecError("output list must not be empty")
        for s in self.schemes:
            if s not in SCHEMES:
                raise SpecError(f"unknown scheme {s!r}; choose from {SCHEMES}")
        for m in self.outputs:
            if m not in METRICS:
                raise SpecError(f"unknown metric {m!r}; choose from {METRICS}")
        if not has_setting_type("int", self.seed) or self.seed < 0:
            raise SpecError(f"seed must be an integer of at least 0, got {self.seed!r}")
        if not has_setting_type("int", self.n_trials) or self.n_trials < 1:
            raise SpecError(f"n_trials must be an integer of at least 1, got {self.n_trials!r}")
        if (self.sweep_parameter is None) != (self.sweep_values is None):
            raise SpecError("sweep parameter and values must be given together")
        if self.sweep_parameter is not None and self.sweep_parameter not in SETTINGS:
            raise SpecError(f"sweep parameter {self.sweep_parameter!r} is not a setting other than 'seed'")
        if self.sweep_values is not None and len(self.sweep_values) == 0:
            raise SpecError("sweep values must not be empty")
        for config in map(self.cell_config, self.sweep_values or [None]):  # each cell, before trial 0
            ks = config.n_users * config.n_subcarriers  # target columns; `budget` needs no m_rf <= K*S
            if config.m_rf > ks and set(self.schemes) != {"fully-digital"}:
                raise SpecError(f"m_rf={config.m_rf} exceeds K*S=n_users*n_subcarriers={ks}")
        # a repeat would write rows that share one (scheme, sweep value, trial, metric) key
        for what, items in (("scheme", self.schemes), ("output", self.outputs),
                            ("sweep value", self.sweep_values or [])):
            if repeated := [item for i, item in enumerate(items) if item in items[:i]]:
                raise SpecError(f"repeated {what} {repeated[0]!r}")

    def cell_config(self, sweep_value) -> SystemConfig:
        """The config of one sweep value's cells (``None`` without a sweep), with the spec's seed."""
        sweep = {} if self.sweep_parameter is None else {self.sweep_parameter: sweep_value}
        return self.base.with_updates(**sweep, seed=self.seed)


@dataclass
class ResultRow:
    experiment: str
    scheme: str
    sweep_value: object
    trial: int
    seed: int
    metric: str
    value: float
    wall_time_ms: float

    CSV_FIELDS = ("experiment", "scheme", "sweep_value", "trial", "seed",
                  "metric", "value", "wall_time_ms")

    def sort_key(self):
        return (self.experiment, self.scheme, str(self.sweep_value), self.trial,
                self.metric)


def run_scheme(name: str, channel: ChannelSet, target: FullyDigitalPrecoder,
               config: SystemConfig, altmin: Optional[dict] = None) -> dict:
    """Run one scheme on a fixed channel/target pair; returns metric dict.

    ``altmin`` maps "altmin1"/"altmin2" to the pair's (f_rf, f_bb, seconds), so
    a variant reuses it; the seconds of a reused pair are returned as "altmin_s".
    """
    n0 = noise_power_mw(config)
    p_s = per_subcarrier_power_mw(config)
    out = {}
    if name == "fully-digital":
        eff = target.f_fd
        mse = 0.0
    elif name in ALTMIN_SCHEMES:
        base = name.removesuffix("-q")
        altmin = {} if altmin is None else altmin
        if base in altmin:
            out["altmin_s"] = altmin[base][2]
        else:
            t0 = time.perf_counter()
            f_rf, f_bb, _ = getattr(baselines, base)(target, config)
            altmin[base] = (f_rf, f_bb, time.perf_counter() - t0)
        f_rf, f_bb, _ = altmin[base]
        if name.endswith("-q"):
            quantized = baselines.quantize_baseline(
                f_rf, f_bb, make_analog_alphabet(config.analog_bits),
                config.quant_levels, p_s, config.n_users,
            )
            f_rf, f_bb = quantized.f_rf, quantized.f_bb
        eff = f_rf @ f_bb
        mse = mse_to_target(target, f_rf, f_bb)
    elif name in ALTERNATE_SCHEMES:
        solver, mode, analog_method, digital_method = ALTERNATE_SCHEMES[name]
        precoder, trace = hybrid.alternate(
            target, config, solver, mode=mode,
            analog_method=analog_method, digital_method=digital_method,
        )
        eff = precoder.effective()
        mse = mse_to_target(target, precoder.f_rf, precoder.f_bb)
        out["trace"] = list(trace.objective_per_outer_iter)
    else:
        raise SpecError(f"unknown scheme {name!r}")
    report = sum_rate(channel, eff, n0)
    out.update(sum_rate_avg=report.sum_rate_per_subcarrier_avg,
               sum_rate_total=report.total_sum_rate, mse=mse)
    return out


def _run_cell(spec: ExperimentSpec, sweep_value, trial: int,
              record_timing: bool) -> list:
    """All schemes for one (sweep value, trial) cell."""
    config = spec.cell_config(sweep_value)
    rows = []
    sweep_repr = "" if spec.sweep_parameter is None else sweep_value
    channel = draw_channel(config, trial)
    target, _ = wmmse_fully_digital(channel, per_subcarrier_power_mw(config),
                                    noise_power_mw(config))
    altmin: dict = {}  # one continuous AltMin pair per variant for the whole cell
    for scheme in spec.schemes:
        row = functools.partial(ResultRow, spec.name, scheme, sweep_repr, trial, spec.seed)
        t0 = time.perf_counter()
        try:
            metrics = run_scheme(scheme, channel, target, config, altmin)
        except Exception as exc:
            rows.append(row("error", float("nan"), 0.0))
            print(f"error row: experiment {spec.name}, scheme {scheme}, sweep value "
                  f"{sweep_repr if sweep_repr != '' else '-'}, trial {trial}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        # every scheme built on an AltMin pair is charged its time, in any order
        elapsed = time.perf_counter() - t0 + metrics.get("altmin_s", 0.0)
        elapsed_ms = elapsed * 1e3 if record_timing else 0.0
        for metric in spec.outputs:
            if metric == "runtime":
                rows.append(row("runtime_ms", elapsed_ms, elapsed_ms))
            elif metric == "trace":
                rows.extend(row(f"trace_mse_iter{i:03d}", value, elapsed_ms)
                            for i, value in enumerate(metrics.get("trace", [])))
            else:
                rows.append(row(metric, metrics[metric], elapsed_ms))
    return rows


def run_experiment(spec: ExperimentSpec, parallelism: int = 1,
                   record_timing: bool = True) -> list:
    """Monte Carlo sweep; rows are canonically sorted and independent of
    worker count; at most one worker per cell is started. ``record_timing=False``
    zeroes wall times so repeated runs are byte-identical."""
    cells = [(value, trial) for value in spec.sweep_values or [None] for trial in range(spec.n_trials)]
    rows = []
    workers = min(parallelism, len(cells))
    if workers <= 1:
        for value, trial in cells:
            rows.extend(_run_cell(spec, value, trial, record_timing))
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_cell, spec, value, trial, record_timing)
                       for value, trial in cells]
            for fut in futures:
                rows.extend(fut.result())
    rows.sort(key=ResultRow.sort_key)
    return rows


def runtime_benchmark(m_rf_list: list, config: SystemConfig, n_trials: int) -> list:
    """Mean full-design wall time for the exact and message-passing solvers.

    Returns one dict per (scheme, m_rf) with the mean seconds per design.
    Targets are computed before any timing. Each design is timed three times
    and its fastest kept: a design is deterministic, so a slower timing only
    adds one-off start-up costs or time taken by other processes. A trial's
    designs for one solver are timed back to back over the chain counts, so
    the designs a time ratio compares see the same machine speed.
    """
    if not m_rf_list or n_trials < 1:
        raise ValueError(f"need an RF chain count and a trial, got {m_rf_list} and {n_trials}")
    schemes = ("sd-hybrid", "ep-hybrid")
    configs = [config.with_updates(m_rf=m_rf) for m_rf in m_rf_list]
    targets = [[wmmse_fully_digital(draw_channel(cfg, trial), per_subcarrier_power_mw(cfg),
                                    noise_power_mw(cfg))[0] for cfg in configs]
               for trial in range(n_trials)]
    fastest = np.full((len(schemes), len(configs), n_trials), np.inf)
    for _ in range(3):
        for trial in range(n_trials):
            for i, scheme in enumerate(schemes):
                for j, cfg in enumerate(configs):
                    t0 = time.perf_counter()
                    hybrid.alternate(targets[trial][j], cfg, ALTERNATE_SCHEMES[scheme][0])
                    fastest[i, j, trial] = min(fastest[i, j, trial], time.perf_counter() - t0)
    mean = fastest.mean(axis=2)
    return [{"scheme": scheme, "m_rf": m_rf, "mean_seconds": float(mean[i, j]),
             "n_trials": n_trials}
            for j, m_rf in enumerate(m_rf_list) for i, scheme in enumerate(schemes)]


def _format_value(value) -> str:
    return format(value, ".9e") if isinstance(value, float) else str(value)


def emit_csv(rows: list, path) -> None:
    """Write canonically sorted rows; floats carry nine fractional digits in
    scientific notation so a parse-back recovers them to 1e-9 relative, and a
    field with a comma (an experiment name may hold one) is quoted."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(ResultRow.CSV_FIELDS)
        writer.writerows([_format_value(getattr(row, name)) for name in ResultRow.CSV_FIELDS]
                         for row in sorted(rows, key=ResultRow.sort_key))


def parse_csv(path) -> list:
    """Read back rows written by emit_csv; the sweep value stays a string."""
    with open(path, newline="") as f:
        return [ResultRow(
            experiment=r["experiment"], scheme=r["scheme"], sweep_value=r["sweep_value"],
            trial=int(r["trial"]), seed=int(r["seed"]), metric=r["metric"],
            value=float(r["value"]), wall_time_ms=float(r["wall_time_ms"]),
        ) for r in csv.DictReader(f)]


def config_fingerprint(spec: ExperimentSpec) -> str:
    payload = {"schema_version": SCHEMA_VERSION, **dataclasses.asdict(spec)}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def write_manifest(spec: ExperimentSpec, path, wall_seconds: float) -> None:
    # scipy is a test dependency only: its version comes from package metadata,
    # without importing it, and is null when it is not installed; the import of
    # importlib.metadata (about 20 ms) waits for the first manifest
    from importlib import metadata
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "experiment": spec.name,
        "config_sha256": config_fingerprint(spec),
        "seed": spec.seed,
        "n_trials": spec.n_trials,
        "git_describe": _git_describe(),
        "wall_clock_seconds": wall_seconds,
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
    }
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# --- experiment spec files -------------------------------------------------

_SPEC_KEYS = {"schema_version", "name", "base", "sweep", "schemes", "n_trials",
              "seed", "outputs"}


def _of_type(value, kind: type, what: str):
    """``value`` if it is a ``kind``, else a SpecError naming ``what``."""
    if not isinstance(value, kind):
        raise SpecError(f"{what} must be a JSON {'object' if kind is dict else 'array'}")
    return value


def spec_from_dict(payload: dict) -> ExperimentSpec:
    unknown = set(_of_type(payload, dict, "spec")) - _SPEC_KEYS
    if unknown:
        raise SpecError(f"unknown spec keys: {sorted(unknown)}")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise SpecError(
            f"schema_version must be {SCHEMA_VERSION}, got {payload.get('schema_version')!r}"
        )
    if "name" not in payload or "schemes" not in payload:
        raise SpecError("spec requires 'name' and 'schemes'")
    base_dict = _of_type(payload.get("base", {}), dict, "'base'")
    unknown_cfg = set(base_dict) - set(SETTINGS)
    if unknown_cfg:
        raise SpecError(f"unknown config keys: {sorted(unknown_cfg)}")
    # the keys the payload has; ExperimentSpec holds the defaults of the others
    given = {key: payload[key] for key in ("n_trials", "seed") if key in payload}
    if "outputs" in payload:
        given["outputs"] = list(_of_type(payload["outputs"], list, "'outputs'"))
    sweep = payload.get("sweep")
    if sweep is not None:
        if set(_of_type(sweep, dict, "'sweep'")) != {"parameter", "values"}:
            raise SpecError("sweep must have exactly 'parameter' and 'values'")
        values = _of_type(sweep["values"], list, "sweep 'values'")
        given.update(sweep_parameter=sweep["parameter"], sweep_values=list(values))
    schemes = _of_type(payload["schemes"], list, "'schemes'")
    return ExperimentSpec(
        name=payload["name"], schemes=list(schemes), base=SystemConfig(**base_dict), **given)


def load_spec(path) -> ExperimentSpec:
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    return spec_from_dict(payload)


# --- presets ----------------------------------------------------------------

DESK_CONFIG = dict(n_tx=16, m_rf=8, n_users=2, n_subcarriers=8)
DESK_SMALL_CONFIG = dict(n_tx=16, m_rf=4, n_users=2, n_subcarriers=4)


def preset_specs(preset: str) -> list:
    """Built-in experiment suites at paper scale or reduced desk scale."""
    if preset == "paper":
        base = SystemConfig()
        trials = 100
        power_sweep = [20, 25, 30, 35, 40, 45, 50]
        sub_sweep = [16, 32, 64, 128]
        rf_sweep = [4, 6, 8, 10]
    elif preset == "desk":
        base = SystemConfig(**DESK_CONFIG)
        trials = 20
        power_sweep = [20, 30, 40, 50]
        sub_sweep = [4, 8, 16]
        rf_sweep = [4, 6, 8]
    else:
        raise SpecError(f"unknown preset {preset!r}; choose 'paper' or 'desk'")
    small = SystemConfig(**DESK_SMALL_CONFIG) if preset == "desk" else base
    specs = [
        ExperimentSpec(
            name="convergence", base=base, schemes=["sd-hybrid", "ep-hybrid"],
            n_trials=1, outputs=["sum_rate_avg", "mse", "trace"],
        ),
        ExperimentSpec(
            name="rate-vs-power", base=base,
            schemes=["sd-hybrid", "ep-hybrid", "sd-analog-ideal-digital",
                     "ep-analog-ideal-digital", "altmin1", "altmin1-q",
                     "altmin2-q", "fully-digital"],
            n_trials=trials, sweep_parameter="total_power_dbm",
            sweep_values=power_sweep, outputs=["sum_rate_avg", "mse", "runtime"],
        ),
        ExperimentSpec(
            name="rate-vs-subcarriers", base=small,
            schemes=["ep-hybrid", "altmin2-q", "fully-digital"],
            n_trials=trials, sweep_parameter="n_subcarriers",
            sweep_values=sub_sweep, outputs=["sum_rate_avg", "sum_rate_total", "mse"],
        ),
        ExperimentSpec(
            name="rate-vs-rf-chains", base=small,
            schemes=["ep-hybrid", "np-analog-ep-digital", "ep-analog-np-digital",
                     "altmin2-q"],
            n_trials=trials, sweep_parameter="m_rf", sweep_values=rf_sweep,
            outputs=["sum_rate_avg", "mse"],
        ),
        ExperimentSpec(
            name="rate-vs-levels", base=small, schemes=["ep-hybrid", "altmin2-q"],
            n_trials=trials, sweep_parameter="quant_levels",
            sweep_values=[2, 4, 8, 32], outputs=["sum_rate_avg"],
        ),
        ExperimentSpec(
            name="rate-vs-bits",
            base=small.with_updates(quant_levels=32),
            schemes=["ep-hybrid", "altmin2-q"], n_trials=trials,
            sweep_parameter="analog_bits", sweep_values=[1, 2, 3],
            outputs=["sum_rate_avg"],
        ),
        ExperimentSpec(
            name="dynamic-connected", base=small,
            schemes=["dynamic-sd", "dynamic-ep", "sd-hybrid"],
            n_trials=max(5, trials // 4), outputs=["sum_rate_avg", "mse"],
        ),
    ]
    return specs


# --- consistency checks -----------------------------------------------------

def oracle_check(n_instances: int = 100, seed: int = 0) -> tuple[int, float]:
    """Exactness sweep of the sphere decoder against full enumeration.

    Instances cycle through phase, real digital and {0, 1} switch labels, some
    with the target outside the label box or a repeated (ridge-loaded) column
    of G. Each is decoded through the FALS path the designs use, so 1-bit
    phases and switches are searched on the stacked real system. Half of the
    digital ones (variants 2 and 3 of every 4) are decoded at a multiplier
    mu ~ U(0.1, 10), as the digital bisection decodes, against enumeration on
    (c/s, s G), s = sqrt(mu + 1). Returns (mismatches, worst gap relative to
    max(1, ||c/s||^2)).
    """
    rng = np.random.default_rng(seed)
    mismatches = 0
    worst = 0.0
    for i in range(n_instances):
        m = int(rng.integers(2, 5))
        n = m + int(rng.integers(0, 3))
        kind, variant = i % 3, i // 3
        if kind == 0:
            alphabet = make_analog_alphabet(int(rng.choice([1, 2])))
        elif kind == 1:
            alphabet = make_digital_alphabet(int(rng.choice([2, 4])), float(rng.uniform(0.5, 2.0)))
        else:
            alphabet = make_switch_alphabet()
        g = rng.standard_normal((n, m))
        c = rng.standard_normal(n)
        if kind != 1:  # the analog and switch steps are complex-valued
            g = (g + 1j * rng.standard_normal((n, m))) / np.sqrt(2)
            c = (c + 1j * rng.standard_normal(n)) / np.sqrt(2)
        if variant % 2:
            c *= 4.0 * np.max(np.abs(alphabet.labels)) * np.sqrt(n)
        if variant % 3 == 2:
            g[:, -1] = g[:, 0]
        mu = float(rng.uniform(0.1, 10.0)) if kind == 1 and variant % 4 >= 2 else 0.0
        decoded = hybrid._fals(g, c[:, None], "sesd", alphabet, hybrid.SolverStats())(
            slice(None), mu)
        c, g = c / math.sqrt(mu + 1.0), math.sqrt(mu + 1.0) * g
        exact = brute_force_ml(c, g, alphabet)
        scale = max(1.0, float(np.real(np.vdot(c, c))))
        gap = abs(residual_norm_sq(c, g, decoded[0]) - exact.objective) / scale
        worst = max(worst, gap)
        if gap > 1e-10:
            mismatches += 1
    return mismatches, worst


# --- CLI ---------------------------------------------------------------------

def _cmd_run(args) -> int:
    if args.spec_file:
        specs = [load_spec(args.spec_file)]
    else:
        specs = preset_specs(args.preset)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SpecError(f"cannot create output directory {out_dir}: {exc}") from exc
    for spec in specs:
        t0 = time.perf_counter()
        rows = run_experiment(spec, parallelism=args.parallel,
                              record_timing=not args.no_timing)
        wall = time.perf_counter() - t0
        csv_path = out_dir / f"{spec.name}.csv"
        emit_csv(rows, csv_path)
        write_manifest(spec, out_dir / f"{spec.name}.manifest.json", wall)
        n_err = sum(1 for r in rows if r.metric == "error")
        print(f"{spec.name}: {len(rows)} rows -> {csv_path} ({wall:.1f}s"
              + (f", {n_err} scheme errors" if n_err else "") + ")")
    return EXIT_OK


def _cmd_oracle_check(args) -> int:
    mismatches, worst = oracle_check(args.instances, seed=args.seed)
    print(f"oracle-check: {args.instances} instances, {mismatches} mismatches, "
          f"worst relative objective gap {worst:.3e}")
    return EXIT_OK if mismatches == 0 else EXIT_CHECK_FAILED


def _cmd_bench_runtime(args) -> int:
    m_rf_list = [int(x) for x in args.rf.split(",")]
    config = SystemConfig(**(DESK_CONFIG if args.preset == "desk" else {}))
    table = runtime_benchmark(m_rf_list, config, args.trials)
    print(f"{'scheme':14s} {'m_rf':>4s} {'mean_seconds':>14s}")
    for row in table:
        print(f"{row['scheme']:14s} {row['m_rf']:4d} {row['mean_seconds']:14.4f}")
    return EXIT_OK


def _cmd_budget(args) -> int:
    config = SystemConfig(m_rf=args.rf_chains, n_users=args.users, n_subcarriers=args.subcarriers,
                          n_tx=max(args.rf_chains + 1, SystemConfig.n_tx), quant_levels=args.levels)
    budget = fronthaul_accounting(config, args.modulation_order, args.iq_bits, args.nsym,
                                  args.budget)
    print(f"data_bits_per_symbol            {budget.data_bits_per_symbol:.2f}")
    print(f"precoder_update_bits_per_symbol {budget.precoder_update_bits_per_symbol:.2f}")
    print(f"proposed_total                  {budget.proposed_total:.2f}")
    print(f"conventional_total              {budget.conventional_total:.2f}")
    print(f"max_levels_log2                 {budget.max_levels_log2:.4f}")
    print(f"supported_levels                {budget.supported_levels}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridprec",
        description="Limited-resolution hybrid precoding simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec or a preset suite")
    p_run.add_argument("spec_file", nargs="?", default=None,
                       help="JSON experiment spec (omit to use --preset)")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument("--parallel", type=_positive_int, default=1, help="worker processes")
    p_run.add_argument("--preset", choices=["desk", "paper"], default="desk")
    p_run.add_argument("--no-timing", action="store_true",
                       help="zero wall times for byte-identical reruns")

    p_oracle = sub.add_parser("oracle-check",
                              help="sphere decoder vs exhaustive enumeration")
    p_oracle.add_argument("--instances", type=_positive_int, default=100)
    p_oracle.add_argument("--seed", type=int, default=0)

    p_bench = sub.add_parser("bench-runtime", help="average design time per solver")
    p_bench.add_argument("--rf", default="4,6,8", help="comma-separated RF chain counts")
    p_bench.add_argument("--trials", type=_positive_int, default=5)
    p_bench.add_argument("--preset", choices=["desk", "paper"], default="desk")

    p_budget = sub.add_parser("budget", help="print fronthaul link-budget fields")
    p_budget.add_argument("--levels", type=int, default=SystemConfig.quant_levels)
    p_budget.add_argument("--nsym", type=int, default=140)
    p_budget.add_argument("--rf-chains", type=int, default=SystemConfig.m_rf)
    p_budget.add_argument("--users", type=int, default=SystemConfig.n_users)
    p_budget.add_argument("--subcarriers", type=int, default=SystemConfig.n_subcarriers)
    p_budget.add_argument("--budget", type=float, default=15.0)
    p_budget.add_argument("--modulation-order", type=int, default=16)
    p_budget.add_argument("--iq-bits", type=int, default=12)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "oracle-check": _cmd_oracle_check,
        "bench-runtime": _cmd_bench_runtime,
        "budget": _cmd_budget,
    }
    try:
        return handlers[args.command](args)
    # LinAlgError subclasses ValueError, so numerical failures are caught first
    except (np.linalg.LinAlgError, EPNumericalError, hybrid.InfeasiblePowerError,
            hybrid.AnalogSolveError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (SpecError, ValueError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR


if __name__ == "__main__":
    sys.exit(main())
