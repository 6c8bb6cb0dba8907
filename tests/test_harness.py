"""Tests for experiment orchestration, CSV emission, and the CLI."""

import dataclasses
import json
import re
import runpy
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

import hybridprec.harness as harness
from hybridprec import hybrid
from hybridprec.channel import SystemConfig
from hybridprec.detect import EPNumericalError, SolveResult, sesd_solve
from hybridprec.harness import (
    EXIT_CHECK_FAILED, EXIT_NUMERICAL, EXIT_OK, EXIT_SPEC_ERROR, ExperimentSpec, ResultRow,
    SpecError, config_fingerprint, emit_csv, load_spec, main, oracle_check,
    parse_csv, run_experiment, run_scheme, runtime_benchmark, spec_from_dict,
)

SOLVER_CONSTANTS = ("ep_damping", "ep_max_iter", "ep_tol", "outer_tol", "outer_max_iter",
                    "bisection_tol", "wmmse_tol", "wmmse_max_iter", "carrier_ghz",
                    "noise_figure_db", "subcarrier_bandwidth_hz", "rician_k_db",
                    "n_taps_minus_one", "distance_range_m", "angle_range_rad")
TINY_BASE = dict(n_tx=8, m_rf=3, n_users=2, n_subcarriers=2, total_power_dbm=10.0)


@pytest.fixture
def tiny_spec():
    return ExperimentSpec(
        name="tiny", base=SystemConfig(**TINY_BASE),
        schemes=["fully-digital", "ep-hybrid"], n_trials=2, seed=5,
        outputs=["sum_rate_avg", "mse"],
    )


class TestExperimentSpec:
    def test_rejects_empty_schemes(self):
        with pytest.raises(SpecError):
            ExperimentSpec(name="x", base=SystemConfig(**TINY_BASE), schemes=[])

    def test_rejects_unknown_scheme(self):
        with pytest.raises(SpecError):
            ExperimentSpec(name="x", base=SystemConfig(**TINY_BASE), schemes=["psycho"])

    def test_rejects_half_sweep(self):
        with pytest.raises(SpecError):
            ExperimentSpec(name="x", base=SystemConfig(**TINY_BASE),
                           schemes=["fully-digital"], sweep_parameter="m_rf")

    @pytest.mark.parametrize("fields, message", [
        ({"outputs": ["speed"]}, "unknown metric"),
        ({"outputs": []}, "output list must not be empty"),
        ({"n_trials": 0}, "n_trials"),
        ({"sweep_parameter": "m_rf", "sweep_values": []}, "sweep values"),
        ({"n_trials": 2.0}, "n_trials"),
        ({"seed": 1.0}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": -2}, "seed must be an integer of at least 0"),
        ({"sweep_parameter": "seed", "sweep_values": [0, 5]}, "'seed'"),
        ({"sweep_parameter": "volume", "sweep_values": [1]}, "'volume'"),
        # a repeat wrote rows that share one (scheme, sweep value, trial, metric) key
        ({"schemes": ["fully-digital", "sd-hybrid", "fully-digital"]},
         "repeated scheme 'fully-digital'"),
        ({"outputs": ["mse", "mse"]}, "repeated output 'mse'"),
        ({"sweep_parameter": "total_power_dbm", "sweep_values": [30, 20, 30.0]},
         "repeated sweep value 30.0"),
        # every scheme but the fully-digital target fits m_rf chains to K*S target columns
        ({"base": SystemConfig(n_tx=16, m_rf=8, n_users=2, n_subcarriers=2),
          "schemes": ["sd-hybrid", "altmin1", "fully-digital"]},
         r"m_rf=8 exceeds K\*S=n_users\*n_subcarriers=4"),
        ({"schemes": ["fully-digital", "ep-hybrid"], "sweep_parameter": "n_subcarriers",
          "sweep_values": [2, 1]}, r"m_rf=3 exceeds K\*S=n_users\*n_subcarriers=2"),
    ], ids=["metric", "no-output", "n_trials", "sweep-values", "n_trials-float", "seed-float",
            "seed-bool", "seed-negative", "sweep-seed", "sweep-unknown", "repeated-scheme", "repeated-output",
            "repeated-sweep-value", "m_rf-above-columns", "sweep-m_rf-above-columns"])
    def test_rejects_bad_field(self, fields, message):
        with pytest.raises(SpecError, match=message):
            ExperimentSpec(**{"name": "x", "base": SystemConfig(**TINY_BASE),
                              "schemes": ["fully-digital"], **fields})

    @pytest.mark.parametrize("parameter, values, message", [
        ("m_rf", [3, 9], "M_T=9"),
        ("total_power_dbm", [10.0, "35"], "total_power_dbm is not a valid float"),
    ], ids=["range", "float-string"])
    def test_every_sweep_value_checked_at_construction(self, parameter, values, message):
        """Each sweep value's config is built when the spec is, so a bad value
        fails before the first trial, not mid-run."""
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(name="x", base=SystemConfig(**TINY_BASE), schemes=["fully-digital"],
                           sweep_parameter=parameter, sweep_values=values)

    def test_fully_digital_alone_takes_more_chains_than_columns(self):
        """The fully-digital target has no RF chains to fit, so m_rf > K*S is
        a spec error only with another scheme."""
        spec = ExperimentSpec(name="x", base=SystemConfig(n_tx=16, m_rf=8, n_users=2,
                                                          n_subcarriers=2),
                              schemes=["fully-digital"], n_trials=1)
        rows = run_experiment(spec, record_timing=False)
        assert rows and all(r.metric != "error" for r in rows)

    def test_numpy_integer_counts_accepted(self):
        spec = ExperimentSpec(name="x", base=SystemConfig(**TINY_BASE), schemes=["fully-digital"],
                              n_trials=np.int64(2), seed=np.int64(5))
        assert (spec.n_trials, spec.seed) == (2, 5)


class TestRunExperiment:
    def test_fully_digital_only(self, tiny_spec):
        spec = ExperimentSpec(name="fd", base=tiny_spec.base,
                              schemes=["fully-digital"], n_trials=1, seed=5,
                              outputs=["sum_rate_avg", "mse"])
        rows = run_experiment(spec, record_timing=False)
        assert {r.scheme for r in rows} == {"fully-digital"}
        mse = [r for r in rows if r.metric == "mse"]
        assert len(mse) == 1 and mse[0].value == 0.0
        rates = [r for r in rows if r.metric == "sum_rate_avg"]
        assert rates[0].value > 0

    def test_rows_per_cell(self, tiny_spec):
        rows = run_experiment(tiny_spec, record_timing=False)
        # 2 schemes x 2 trials x 2 metrics
        assert len(rows) == 8
        keys = {(r.scheme, r.sweep_value, r.trial, r.metric) for r in rows}
        assert len(keys) == len(rows)

    def test_parallel_matches_serial(self, tiny_spec, tmp_path):
        serial = run_experiment(tiny_spec, parallelism=1, record_timing=False)
        parallel = run_experiment(tiny_spec, parallelism=2, record_timing=False)
        p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        emit_csv(serial, p1)
        emit_csv(parallel, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_starts_at_most_one_worker_per_cell(self, tiny_spec, monkeypatch):
        """A pool forks all its workers at the first submit, so the worker count
        is capped by the cells, and one cell runs in this process. The fake pool
        runs each cell here and starts no process."""
        built = []

        class FakePool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = harness.concurrent.futures.Future()
                future.set_result(fn(*args))
                return future

        serial = run_experiment(tiny_spec, parallelism=1, record_timing=False)
        monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", FakePool)
        assert run_experiment(tiny_spec, parallelism=64, record_timing=False) == serial
        assert built == [2]  # tiny_spec has 2 cells
        one_cell = dataclasses.replace(tiny_spec, n_trials=1)
        rows = run_experiment(one_cell, parallelism=8, record_timing=False)
        assert built == [2]
        assert rows == run_experiment(one_cell, parallelism=1, record_timing=False)

    def test_error_isolation(self, tiny_spec, monkeypatch):
        """A failing scheme yields an error row without disturbing others."""
        def boom(*args, **kwargs):
            raise RuntimeError("injected failure")
        monkeypatch.setattr(harness.baselines, "altmin1", boom)
        spec = ExperimentSpec(name="iso", base=tiny_spec.base,
                              schemes=["altmin1", "fully-digital"], n_trials=1,
                              seed=5, outputs=["sum_rate_avg"])
        rows = run_experiment(spec, record_timing=False)
        errors = [r for r in rows if r.metric == "error"]
        assert len(errors) == 1 and errors[0].scheme == "altmin1"
        good = [r for r in rows if r.scheme == "fully-digital"]
        assert len(good) == 1 and np.isfinite(good[0].value)

    def test_error_rows_name_their_cause(self, tiny_spec, monkeypatch, capsys):
        """Each error row prints one stderr line with its cell and exception."""
        def boom(*args, **kwargs):
            raise hybrid.InfeasiblePowerError("injected failure")
        monkeypatch.setattr(harness.hybrid, "alternate", boom)
        spec = ExperimentSpec(name="why", base=tiny_spec.base,
                              schemes=["sd-hybrid", "fully-digital"], n_trials=2, seed=5,
                              sweep_parameter="total_power_dbm", sweep_values=[10.0],
                              outputs=["sum_rate_avg"])
        rows = run_experiment(spec, record_timing=False)
        assert sum(r.metric == "error" for r in rows) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error row: experiment why, scheme sd-hybrid, sweep value 10.0, trial {t}: "
            "InfeasiblePowerError: injected failure" for t in range(2)]

    def test_run_scheme_rejects_unknown_name(self, tiny_spec):
        # the name is checked before the channel or the target is read
        with pytest.raises(SpecError, match="unknown scheme 'psycho'"):
            run_scheme("psycho", None, None, tiny_spec.base)

    def test_sweep_applies_parameter(self, tiny_spec):
        spec = ExperimentSpec(name="swp", base=tiny_spec.base,
                              schemes=["fully-digital"], n_trials=1, seed=5,
                              sweep_parameter="total_power_dbm",
                              sweep_values=[0.0, 20.0], outputs=["sum_rate_avg"])
        rows = run_experiment(spec, record_timing=False)
        by_value = {r.sweep_value: r.value for r in rows}
        assert by_value[20.0] > by_value[0.0]

    def test_trace_metric_rows(self, tiny_spec):
        spec = ExperimentSpec(name="tr", base=tiny_spec.base,
                              schemes=["ep-hybrid"], n_trials=1, seed=5,
                              outputs=["trace"])
        rows = run_experiment(spec, record_timing=False)
        names = [r.metric for r in rows]
        assert names == sorted(names)
        assert all(n.startswith("trace_mse_iter") for n in names)
        assert len(rows) >= 2

    @pytest.mark.parametrize("order", [("altmin1", "altmin2", "altmin1-q", "altmin2-q"),
                                       ("altmin2-q", "altmin1-q", "altmin2", "altmin1")])
    def test_quantized_altmin_reuses_the_cell_pair(self, tiny_spec, monkeypatch, order):
        """altmin1-q and altmin2-q rows are the same whether each scheme runs
        alone or with the continuous schemes in one cell, in either order,
        and each continuous AltMin runs once per cell."""
        def spec(schemes):
            return ExperimentSpec(name="am", base=tiny_spec.base, schemes=list(schemes),
                                  n_trials=2, seed=5, outputs=["sum_rate_avg", "mse"])

        alone = [r for s in ("altmin1-q", "altmin2-q")
                 for r in run_experiment(spec([s]), record_timing=False)]
        calls = []

        def counted(name):
            real = getattr(harness.baselines, name)

            def run(*args):
                calls.append(name)
                return real(*args)
            return run

        for name in ("altmin1", "altmin2"):
            monkeypatch.setattr(harness.baselines, name, counted(name))
        together = run_experiment(spec(order), record_timing=False)
        assert sorted(calls) == ["altmin1"] * 2 + ["altmin2"] * 2
        quantized = [r for r in together if r.scheme.endswith("-q")]
        assert sorted(quantized, key=ResultRow.sort_key) == sorted(alone, key=ResultRow.sort_key)

    @pytest.mark.parametrize("order", [("altmin1", "altmin1-q"), ("altmin1-q", "altmin1")])
    def test_shared_altmin_time_charged_to_both_schemes(self, tiny_spec, monkeypatch, order):
        real = harness.baselines.altmin1

        def slow(*args):
            time.sleep(0.05)
            return real(*args)

        monkeypatch.setattr(harness.baselines, "altmin1", slow)
        rows = run_experiment(ExperimentSpec(name="rt", base=tiny_spec.base,
                                             schemes=list(order), n_trials=1, seed=5,
                                             outputs=["runtime"]))
        assert {r.scheme for r in rows} == set(order)
        assert all(r.value >= 50.0 for r in rows)


class TestEmitCsv:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == ",".join(ResultRow.CSV_FIELDS) + "\n"

    def test_round_trip_precision(self, tmp_path):
        rows = [ResultRow("e", "s", 1, 0, 0, "m", np.pi * 10**k, 0.0)
                for k in range(-8, 9)]
        path = tmp_path / "rt.csv"
        emit_csv(rows, path)
        recovered = parse_csv(path)
        for row, back in zip(sorted(rows, key=ResultRow.sort_key), recovered):
            assert back.value == pytest.approx(row.value, rel=1e-9)

    def test_error_row_value_written_as_nan(self, tmp_path):
        path = tmp_path / "error.csv"
        emit_csv([ResultRow("e", "s", "", 0, 0, "error", float("nan"), 0.0)], path)
        assert path.read_text().splitlines()[1] == "e,s,,0,0,error,nan,0.000000000e+00"
        assert np.isnan(parse_csv(path)[0].value)

    def test_comma_field_round_trips(self, tmp_path):
        """An experiment name may hold a comma: its field is quoted, and every
        row reads back with the value written, the sweep value as its string."""
        spec = ExperimentSpec(name="rate, power", base=SystemConfig(**TINY_BASE),
                              schemes=["fully-digital"], n_trials=1, outputs=["sum_rate_avg"],
                              sweep_parameter="total_power_dbm", sweep_values=[10, 20])
        rows = run_experiment(spec, record_timing=False)
        path = tmp_path / "comma.csv"
        emit_csv(rows, path)
        assert path.read_text().splitlines()[1].startswith('"rate, power",fully-digital,10,0,')
        recovered = parse_csv(path)
        assert [dataclasses.replace(r, sweep_value=str(r.sweep_value)) for r in rows] == [
            dataclasses.replace(r, value=pytest.approx(r.value, rel=1e-9)) for r in recovered]

    def test_canonical_sort_stable_under_shuffle(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [ResultRow("e", f"s{i%3}", i % 2, i, 0, "m", float(i), 0.0)
                for i in range(12)]
        shuffled = list(rows)
        rng.shuffle(shuffled)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(rows, p1)
        emit_csv(shuffled, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rerun_byte_identical(self, tiny_spec, tmp_path):
        rows1 = run_experiment(tiny_spec, record_timing=False)
        rows2 = run_experiment(tiny_spec, record_timing=False)
        p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        emit_csv(rows1, p1)
        emit_csv(rows2, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestSpecFiles:
    def test_round_trip(self):
        payload = {
            "schema_version": 1, "name": "demo",
            "base": dict(TINY_BASE), "schemes": ["fully-digital"],
            "n_trials": 3, "seed": 9,
            "sweep": {"parameter": "total_power_dbm", "values": [10, 20]},
            "outputs": ["sum_rate_avg"],
        }
        spec = spec_from_dict(payload)
        assert spec.name == "demo"
        assert spec.base.n_tx == 8
        assert spec.sweep_values == [10, 20]

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecError, match="unknown spec keys"):
            spec_from_dict({"schema_version": 1, "name": "x",
                            "schemes": ["fully-digital"], "bogus": 1})

    def test_unknown_config_key_rejected(self):
        with pytest.raises(SpecError, match="unknown config keys"):
            spec_from_dict({"schema_version": 1, "name": "x",
                            "schemes": ["fully-digital"],
                            "base": {"n_tx": 8, "volume": 11}})

    @pytest.mark.parametrize("missing", ["name", "schemes"])
    def test_required_key_missing(self, missing):
        payload = {"schema_version": 1, "name": "x", "schemes": ["fully-digital"]}
        del payload[missing]
        with pytest.raises(SpecError, match="spec requires 'name' and 'schemes'"):
            spec_from_dict(payload)

    def test_readme_example_parses_to_the_hand_built_spec(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        assert spec_from_dict(json.loads(example)) == ExperimentSpec(
            name="rate-vs-power", base=SystemConfig(**harness.DESK_CONFIG),
            schemes=["sd-hybrid", "ep-hybrid", "altmin2-q", "fully-digital"],
            n_trials=20, seed=1, sweep_parameter="total_power_dbm",
            sweep_values=[20, 30, 40, 50], outputs=["sum_rate_avg", "mse", "runtime"])

    def test_every_setting_parses_to_the_hand_built_spec(self):
        """A spec that sets every setting but the seed, in JSON form, parses
        to the spec built in Python, in the base and in sweep values."""
        settings = dict(
            n_tx=16, m_rf=4, n_users=2, n_subcarriers=4, analog_bits=2, quant_levels=4,
            total_power_dbm=30.5)
        assert set(settings) == set(harness.SETTINGS) == set(
            f.name for f in dataclasses.fields(SystemConfig)) - {"seed"}
        sweep_values = [20, 30.5]
        payload = json.loads(json.dumps({
            "schema_version": 1, "name": "all", "base": settings, "schemes": ["fully-digital"],
            "n_trials": 3, "seed": 4, "outputs": ["mse"],
            "sweep": {"parameter": "total_power_dbm", "values": sweep_values}}))
        assert spec_from_dict(payload) == ExperimentSpec(
            name="all", base=SystemConfig(**settings), schemes=["fully-digital"], n_trials=3,
            seed=4, sweep_parameter="total_power_dbm", sweep_values=sweep_values,
            outputs=["mse"])

    def test_top_level_seed_draws_the_channels(self):
        """The spec's top-level seed is its only seed (a seed in the base or a
        swept seed is a spec error, see the malformed-spec cases), and it is
        the one the channels are drawn from: two seeds give two rates."""
        payload = {"schema_version": 1, "name": "seeds", "base": TINY_BASE,
                   "schemes": ["fully-digital"], "n_trials": 1, "outputs": ["sum_rate_avg"]}
        rates = [run_experiment(spec_from_dict({**payload, "seed": seed}), record_timing=False)
                 for seed in (0, 5)]
        assert rates[0][0].value != rates[1][0].value

    def test_absent_keys_take_the_spec_defaults(self):
        """A spec without n_trials, seed, outputs or sweep is the spec built
        with those fields left at ExperimentSpec's defaults."""
        payload = {"schema_version": 1, "name": "bare", "base": dict(TINY_BASE),
                   "schemes": ["fully-digital"]}
        assert spec_from_dict(payload) == ExperimentSpec(
            name="bare", base=SystemConfig(**TINY_BASE), schemes=["fully-digital"])

    def test_schema_version_enforced(self):
        with pytest.raises(SpecError, match="schema_version"):
            spec_from_dict({"name": "x", "schemes": ["fully-digital"]})

    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "schema_version": 1, "name": "fromfile", "base": dict(TINY_BASE),
            "schemes": ["fully-digital"], "n_trials": 1,
        }))
        spec = load_spec(path)
        assert spec.name == "fromfile"

    def test_fingerprint_stable(self, tiny_spec):
        assert config_fingerprint(tiny_spec) == config_fingerprint(tiny_spec)
        other = ExperimentSpec(name="tiny", base=tiny_spec.base,
                               schemes=["fully-digital", "ep-hybrid"],
                               n_trials=2, seed=6, outputs=["sum_rate_avg", "mse"])
        assert config_fingerprint(other) != config_fingerprint(tiny_spec)

    def test_fingerprint_pinned(self):
        """One fixed spec keeps its fingerprint, so manifests written by
        earlier versions stay comparable (a changed SystemConfig field or
        default changes it, as it should)."""
        spec = ExperimentSpec(
            name="pinned", base=SystemConfig(**harness.DESK_CONFIG, total_power_dbm=30.0),
            schemes=["sd-hybrid", "altmin2-q"], n_trials=3, seed=7,
            sweep_parameter="quant_levels", sweep_values=[2, 8],
            outputs=["sum_rate_avg", "mse"])
        assert config_fingerprint(spec) == (
            "d2a62fae289cd73c67963d2a3c196fec1a56416d8dc2e987eee3ff9fe8888ea6")

    def test_presets_valid(self):
        """Specs that share a base, sweep, trial count and seed would draw each
        cell's channel and target twice and design their common schemes twice,
        so a preset holds one spec per such key; the one power sweep holds the
        limited- and the ideal-digital-resolution schemes."""
        for preset in ("desk", "paper"):
            specs = harness.preset_specs(preset)
            assert {s.name for s in specs} >= {"convergence", "rate-vs-power"}
            keys = [(s.base, s.sweep_parameter, s.sweep_values, s.n_trials, s.seed)
                    for s in specs]
            assert all(key not in keys[:i] for i, key in enumerate(keys)), preset
            power = next(s for s in specs if s.name == "rate-vs-power")
            assert set(power.schemes) >= {
                "sd-hybrid", "ep-hybrid", "sd-analog-ideal-digital", "ep-analog-ideal-digital",
                "altmin1", "altmin1-q", "altmin2-q", "fully-digital"}
            assert power.outputs == ["sum_rate_avg", "mse", "runtime"]
        with pytest.raises(SpecError, match="unknown preset 'huge'"):
            harness.preset_specs("huge")


class TestRuntimeBenchmark:
    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            runtime_benchmark([], SystemConfig(**TINY_BASE), 1)

    @pytest.mark.parametrize("n_trials", [0, -1])
    def test_no_trial_rejected(self, n_trials):
        """No trial gave a NaN table after a "Mean of empty slice" warning."""
        with pytest.raises(ValueError, match=f"got \\[3\\] and {n_trials}"):
            runtime_benchmark([3], SystemConfig(**TINY_BASE), n_trials)

    def test_rows_shape(self):
        table = runtime_benchmark([3, 4], SystemConfig(**TINY_BASE), 1)
        assert {(r["scheme"], r["m_rf"]) for r in table} == {
            ("sd-hybrid", 3), ("sd-hybrid", 4), ("ep-hybrid", 3), ("ep-hybrid", 4)}
        assert all(r["mean_seconds"] > 0 for r in table)


class TestOracleCheckAndCli:
    def test_oracle_check_clean(self):
        mismatches, worst = oracle_check(20, seed=3)
        assert mismatches == 0
        assert worst <= 1e-10

    def test_oracle_check_decodes_as_the_designs_do(self, monkeypatch):
        """1-bit phases and switches are decoded on the stacked real system, as
        the designs decode them; 2-bit phases keep the complex search."""
        systems = []

        def recording(system, alphabet, warm_starts=None):
            systems.append((system.r.dtype, np.any(alphabet.labels.imag)))
            return sesd_solve(system, alphabet, warm_starts)

        monkeypatch.setattr(hybrid, "sesd_solve", recording)
        assert oracle_check(30, seed=3)[0] == 0
        assert len(systems) == 30
        assert all(dtype == (np.complex128 if phases else np.float64)
                   for dtype, phases in systems)
        assert {dtype for dtype, _ in systems} == {np.dtype(np.complex128), np.dtype(np.float64)}

    def test_cli_budget(self, capsys):
        code = main(["budget", "--levels", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "526.63" in out and "6144.00" in out and "14.63" in out

    def test_cli_oracle_check(self, capsys):
        assert main(["oracle-check", "--instances", "10"]) == EXIT_OK

    def test_cli_run_spec_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "schema_version": 1, "name": "cli-tiny", "base": dict(TINY_BASE),
            "schemes": ["fully-digital"], "n_trials": 1,
            "outputs": ["sum_rate_avg"],
        }))
        code = main(["run", str(path), "--out", str(tmp_path / "results"),
                     "--no-timing"])
        assert code == EXIT_OK
        assert (tmp_path / "results" / "cli-tiny.csv").exists()
        manifest = json.loads((tmp_path / "results" / "cli-tiny.manifest.json").read_text())
        assert manifest["experiment"] == "cli-tiny"
        assert len(manifest["config_sha256"]) == 64
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__
        threads = manifest["blas_threads"]
        assert set(threads) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert threads["OPENBLAS_NUM_THREADS"] == "1"
        assert threads["MKL_NUM_THREADS"] is None

    def test_manifest_scipy_null_when_not_installed(self, tmp_path, tiny_spec, monkeypatch):
        """The scipy version comes from package metadata: null without scipy."""
        from importlib import metadata
        version = metadata.version

        def without_scipy(name):
            if name == "scipy":
                raise metadata.PackageNotFoundError(name)
            return version(name)
        monkeypatch.setattr(metadata, "version", without_scipy)
        path = tmp_path / "tiny.manifest.json"
        harness.write_manifest(tiny_spec, path, 0.0)
        manifest = json.loads(path.read_text())
        assert manifest["scipy"] is None
        assert manifest["numpy"] == np.__version__

    @pytest.mark.parametrize("git, described", [
        (None, "unknown"),
        ("#!/bin/sh\nexit 128\n", "unknown"),
        ("#!/bin/sh\necho abc1234-dirty\n", "abc1234-dirty"),
    ], ids=["no-git", "not-a-repository", "described"])
    def test_manifest_git_describe(self, git, described, tmp_path, tiny_spec, monkeypatch):
        """The manifest takes git's description, or "unknown" when git is
        missing or fails, whether or not the tests run in a checkout."""
        bin_dir = tmp_path / "bin"
        bin_dir.mkdir()
        if git is not None:
            (bin_dir / "git").write_text(git)
            (bin_dir / "git").chmod(0o755)
        monkeypatch.setenv("PATH", str(bin_dir))
        path = tmp_path / "tiny.manifest.json"
        harness.write_manifest(tiny_spec, path, 0.0)
        assert json.loads(path.read_text())["git_describe"] == described

    def test_cli_run_preset_suite(self, tmp_path, tiny_spec, monkeypatch):
        """Without a spec file, run takes the --preset suite (desk by default)."""
        presets = []

        def tiny_suite(preset):
            presets.append(preset)
            return [tiny_spec]
        monkeypatch.setattr(harness, "preset_specs", tiny_suite)
        assert main(["run", "--out", str(tmp_path), "--no-timing"]) == EXIT_OK
        assert presets == ["desk"]
        assert (tmp_path / "tiny.csv").exists()

    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "not-json"])
    def test_cli_unreadable_spec_exit_code(self, content, tmp_path, capsys):
        path = tmp_path / "spec.json"
        if content is not None:
            path.write_text(content)
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_SPEC_ERROR
        assert "cannot read spec file" in capsys.readouterr().err

    def test_cli_oracle_check_mismatch_exit_code(self, monkeypatch, capsys):
        """A decoder that misses the enumerated optimum fails the check: exit 4."""
        def first_label(system, alphabet, warm_starts=None):
            return SolveResult(z=np.full(system.d.shape[::-1], alphabet.labels[0]), objective=0.0)
        monkeypatch.setattr(hybrid, "sesd_solve", first_label)
        assert main(["oracle-check", "--instances", "10"]) == EXIT_CHECK_FAILED
        out = capsys.readouterr().out
        assert "10 instances," in out and " 0 mismatches" not in out

    # runpy re-executes the already imported harness module as __main__
    @pytest.mark.filterwarnings("ignore:'hybridprec.harness' found in sys.modules:RuntimeWarning")
    @pytest.mark.parametrize("module", ["hybridprec", "hybridprec.harness"])
    def test_module_entry_points(self, module, monkeypatch, capsys):
        """python -m hybridprec and python -m hybridprec.harness run the CLI and
        exit with its code."""
        monkeypatch.setattr(sys, "argv", [module, "budget", "--levels", "2"])
        with pytest.raises(SystemExit) as exit_info:
            runpy.run_module(module, run_name="__main__")
        assert exit_info.value.code == EXIT_OK
        assert "supported_levels" in capsys.readouterr().out

    def test_cli_bad_spec_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "name": "x",
                                    "schemes": ["fully-digital"], "oops": True}))
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_SPEC_ERROR

    @pytest.mark.parametrize("payload", [
        [],
        [{"a": 1}],
        {"base": 5},
        # the distance range is a constant: in any JSON shape it is an unknown config key
        {"base": {"distance_range_m": 5}},
        {"sweep": 5},
        {"sweep": {"parameter": "m_rf", "values": 5}},
        {"schemes": "fully-digital"},
        {"outputs": "mse"},
        {"n_trials": [1]},
        {"seed": {}},
        {"n_trials": None},
        {"n_trials": 1.7},
        {"n_trials": True},
        {"seed": "3"},
        {"seed": 1.0},
        {"base": {"n_tx": 8, "m_rf": 2.0, "n_users": 2, "n_subcarriers": 2}},
        {"base": {"analog_bits": True}},
        {"sweep": {"parameter": "quant_levels", "values": [2, 4.0]}},
        {"sweep": {"parameter": ["m_rf"], "values": [2]}},
        {"sweep": {"parameter": "with_updates", "values": [2]}},
        {"sweep": {"parameter": "m_rf", "values": [3], "step": 1}},
        {"base": {"total_power_dbm": "35"}},
        {"base": {"total_power_dbm": None}},
        {"base": {"total_power_dbm": True}},
        {"sweep": {"parameter": "total_power_dbm", "values": [10, "20"]}},
        {"sweep": {"parameter": "total_power_dbm", "values": [None]}},
        {"sweep": {"parameter": "total_power_dbm", "values": [True]}},
        # so is the distance range of any length, and in a sweep
        {"base": {"distance_range_m": [100]}},
        {"base": {"distance_range_m": [100, 150, 200]}},
        {"base": {"distance_range_m": [100, "200"]}},
        {"sweep": {"parameter": "distance_range_m", "values": [[100, 200], [100]]}},
        {"base": {"seed": 5}},
        {"sweep": {"parameter": "seed", "values": [0, 5]}},
        {"seed": -1},
        # the update interval and the fronthaul budget are arguments of the link budget only
        {"base": {"n_sym": 100}},
        {"sweep": {"parameter": "fronthaul_budget_bits_per_symbol", "values": [15.0, 30.0]}},
        {"base": {"n_tx": 8, "m_rf": 3, "n_users": 2, "n_subcarriers": 2},
         "sweep": {"parameter": "m_rf", "values": [3, 9]}},
        # the solvers' tuning values and the channel model are constants, not settings
        *({"base": {key: 1}} for key in SOLVER_CONSTANTS),
        *({"sweep": {"parameter": key, "values": [1]}} for key in SOLVER_CONSTANTS),
    ], ids=["empty-array", "array", "base", "base-range", "sweep", "sweep-values", "schemes",
            "outputs", "n_trials-array", "seed-object", "n_trials-null", "n_trials-float",
            "n_trials-bool", "seed-string", "seed-float", "base-int-float", "base-int-bool",
            "sweep-int-float", "sweep-parameter-array", "sweep-parameter-unknown",
            "sweep-extra-key", "base-float-string", "base-float-null", "base-float-bool",
            "sweep-float-string", "sweep-float-null", "sweep-float-bool", "range-length-1",
            "range-length-3", "range-string", "sweep-range-length-1", "base-seed",
            "sweep-seed", "seed-negative", "base-n_sym", "sweep-fronthaul-budget",
            "sweep-m_rf-above-antennas",
            *(f"base-{key}" for key in SOLVER_CONSTANTS),
            *(f"sweep-{key}" for key in SOLVER_CONSTANTS)])
    def test_cli_malformed_spec_shape_exit_code(self, payload, tmp_path, capsys, monkeypatch):
        """A spec, or a field of it, of the wrong JSON type, or a setting out of
        range in the base or in any sweep value, is a spec error (exit 2), not
        a traceback or a silently split string, and no cell runs and --out is
        not made."""
        cells = []
        monkeypatch.setattr(harness, "_run_cell", lambda *args: cells.append(args) or [])
        if isinstance(payload, dict):
            payload = {"schema_version": 1, "name": "x", "schemes": ["fully-digital"],
                       **payload}
        path, out = tmp_path / "bad.json", tmp_path / "out"
        path.write_text(json.dumps(payload))
        assert main(["run", str(path), "--out", str(out)]) == EXIT_SPEC_ERROR
        assert "spec error" in capsys.readouterr().err
        assert not cells and not out.exists()

    def test_cli_more_chains_than_columns_exit_code(self, tmp_path, capsys):
        """A spec whose m_rf exceeds n_users * n_subcarriers is a spec error
        before --out is made, not a run of error rows that exits 0."""
        path, out = tmp_path / "bad.json", tmp_path / "out"
        path.write_text(json.dumps({
            "schema_version": 1, "name": "bad", "n_trials": 1,
            "base": {"n_tx": 16, "m_rf": 8, "n_users": 2, "n_subcarriers": 2},
            "schemes": ["sd-hybrid", "altmin1", "fully-digital"]}))
        assert main(["run", str(path), "--out", str(out)]) == EXIT_SPEC_ERROR
        assert ("spec error: m_rf=8 exceeds K*S=n_users*n_subcarriers=4"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_cli_unusable_out_exit_code(self, out, tmp_path, capsys, monkeypatch):
        """An --out that is, or lies under, an existing file is a spec error
        naming the path before any trial, not a FileExistsError traceback."""
        cells = []
        monkeypatch.setattr(harness, "_run_cell", lambda *args: cells.append(args) or [])
        (tmp_path / "file").write_text("taken")
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"schema_version": 1, "name": "x", "n_trials": 1,
                                    "base": TINY_BASE, "schemes": ["fully-digital"]}))
        assert main(["run", str(path), "--out", str(tmp_path / out)]) == EXIT_SPEC_ERROR
        assert (f"spec error: cannot create output directory {tmp_path / out}"
                in capsys.readouterr().err)
        assert not cells and (tmp_path / "file").read_text() == "taken"

    @pytest.mark.parametrize("where", ["base", "sweep"])
    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_cli_non_finite_float_setting_exit_code(self, number, where, tmp_path, capsys):
        """JSON numbers Python reads as NaN or an infinity (1e400 reads as inf)
        are spec errors naming the setting, in the base and in a sweep."""
        body = ('"base": {"total_power_dbm": %s}' % number if where == "base" else
                '"sweep": {"parameter": "total_power_dbm", "values": [30, %s]}' % number)
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1, "name": "x", "schemes": ["fully-digital"], %s}'
                        % body)
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_SPEC_ERROR
        assert "total_power_dbm is not a valid float setting" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("setting, value, quantity", [
        ("rician_k_db", 1e300, "unknown config keys: ['rician_k_db']"),
        ("total_power_dbm", 1e308, "total power"),
        ("total_power_dbm", -1e308, "total power"),
        ("noise_figure_db", 1e308, "unknown config keys: ['noise_figure_db']"),
        ("noise_figure_db", -1e308, "unknown config keys: ['noise_figure_db']"),
        ("distance_range_m", [1e-300, 1.0], "unknown config keys: ['distance_range_m']"),
        ("distance_range_m", [1e300, 1e301], "unknown config keys: ['distance_range_m']"),
        ("distance_range_m", [100.0, 1e300], "unknown config keys: ['distance_range_m']"),
    ], ids=["rician-overflow", "power-overflow", "power-zero", "noise-overflow", "noise-zero",
            "near-gain-overflow", "gain-underflow", "far-gain-underflow"])
    def test_cli_db_setting_out_of_linear_range_exit_code(self, setting, value, quantity,
                                                         tmp_path, capsys, monkeypatch):
        """A finite total power whose linear value overflows a float, or is 0,
        is a spec error: exit 2 before any trial and before --out is made. The
        channel model's values that once overflowed, or drew all-zero channels,
        cannot be set at all: a spec naming one fails the same way."""
        cells = []
        monkeypatch.setattr(harness, "_run_cell", lambda *args: cells.append(args) or [])
        path, out = tmp_path / "bad.json", tmp_path / "out"
        path.write_text(json.dumps({"schema_version": 1, "name": "x", "n_trials": 1,
                                    "base": {**TINY_BASE, setting: value},
                                    "schemes": ["fully-digital"]}))
        assert main(["run", str(path), "--out", str(out)]) == EXIT_SPEC_ERROR
        assert f"spec error: {quantity}" in capsys.readouterr().err
        assert not cells and not out.exists()

    @pytest.mark.parametrize("setting, value", [("quant_levels", 1), ("analog_bits", 0)])
    def test_cli_setting_out_of_range_exit_code(self, setting, value, tmp_path, capsys,
                                                monkeypatch):
        """A level count below 2 or an analog resolution of 0 bits is a spec
        error before any trial, not an error row."""
        cells = []
        monkeypatch.setattr(harness, "_run_cell", lambda *args: cells.append(args) or [])
        path, out = tmp_path / "bad.json", tmp_path / "out"
        path.write_text(json.dumps({"schema_version": 1, "name": "x", "n_trials": 1,
                                    "base": {**TINY_BASE, setting: value},
                                    "schemes": ["sd-hybrid"]}))
        assert main(["run", str(path), "--out", str(out)]) == EXIT_SPEC_ERROR
        assert f"spec error: {setting} must be in" in capsys.readouterr().err
        assert not cells and not out.exists()

    @pytest.mark.parametrize("args, setting", [
        (["--nsym", "0"], "n_sym"), (["--budget", "-5"], "fronthaul_budget_bits_per_symbol"),
        (["--levels", "1"], "quant_levels"), (["--users", "0"], "n_users"),
        (["--budget", "2e4"], "fronthaul_budget_bits_per_symbol"),
        (["--budget", "3e5"], "fronthaul_budget_bits_per_symbol"),
        (["--nsym", str(10**400)], "n_sym"),
    ])
    def test_cli_budget_out_of_range_exit_code(self, args, setting, capsys):
        """`--nsym 0` and `--users 0` ended in a ZeroDivisionError, `--budget -5`
        printed a negative level budget, `--budget 2e4` a 412-digit level count and
        `--budget 3e5` five lines before an integer-to-string conversion error, and
        an `--nsym` past the float range ended in an OverflowError."""
        assert main(["budget", *args]) == EXIT_SPEC_ERROR
        captured = capsys.readouterr()
        assert f"spec error: {setting} must be in" in captured.err and not captured.out

    @pytest.mark.parametrize("args", [
        ["run", "--parallel", "-3"], ["run", "--parallel", "0"],
        ["bench-runtime", "--trials", "0"], ["oracle-check", "--instances", "-4"],
    ], ids=lambda a: f"{a[1]}={a[2]}")
    def test_cli_count_below_one_exit_code(self, args, capsys, monkeypatch):
        """Worker, trial and instance counts are integers of at least 1: argparse
        exits 2 before the command runs, so an oracle check cannot pass having
        checked nothing."""
        monkeypatch.setattr(harness, "oracle_check", lambda *a, **k: pytest.fail("ran"))
        monkeypatch.setattr(harness, "runtime_benchmark", lambda *a: pytest.fail("ran"))
        monkeypatch.setattr(harness, "run_experiment", lambda *a, **k: pytest.fail("ran"))
        with pytest.raises(SystemExit) as exit_info:
            main(args)
        assert exit_info.value.code == EXIT_SPEC_ERROR
        assert f"argument {args[1]}:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["../escaped", 5, None, "", ".", "..", "a/b", "a\\b"])
    def test_cli_spec_name_not_a_plain_file_name_exit_code(self, name, tmp_path, capsys):
        """The spec name is the output file stem: one that is not a plain file
        name is a spec error, and nothing is written under or above --out."""
        spec_dir, out = tmp_path / "spec", tmp_path / "runs" / "out"
        spec_dir.mkdir()
        path = spec_dir / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "name": name, "n_trials": 1,
                                    "base": TINY_BASE, "schemes": ["fully-digital"]}))
        assert main(["run", str(path), "--out", str(out)]) == EXIT_SPEC_ERROR
        assert "name must be a plain file name" in capsys.readouterr().err
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
            "spec", "spec/bad.json"]

    def test_cli_integer_for_float_setting(self, tmp_path):
        """A JSON integer is a valid value of a float setting, in the base
        and in a sweep."""
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "schema_version": 1, "name": "ints", "base": {**TINY_BASE, "total_power_dbm": 10},
            "sweep": {"parameter": "total_power_dbm", "values": [10, 20]},
            "schemes": ["fully-digital"], "n_trials": 1,
        }))
        assert main(["run", str(path), "--out", str(tmp_path), "--no-timing"]) == EXIT_OK
        rows = parse_csv(tmp_path / "ints.csv")
        assert rows and all(r.metric != "error" for r in rows)

    @pytest.mark.parametrize("failure", [
        np.linalg.LinAlgError("singular matrix"),
        EPNumericalError(3, "posterior moments"),
        hybrid.InfeasiblePowerError("no step meets the budget"),
        hybrid.AnalogSolveError("analog subproblem failed"),
    ], ids=lambda exc: type(exc).__name__)
    def test_cli_numerical_failure_exit_code(self, failure, monkeypatch, capsys):
        """Numerical failures exit with 3, not as a spec error or a traceback."""
        def fail(*args, **kwargs):
            raise failure
        monkeypatch.setattr(hybrid, "alternate", fail)
        assert main(["bench-runtime", "--rf", "3", "--trials", "1"]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_cli_bench_runtime(self, capsys):
        code = main(["bench-runtime", "--rf", "3", "--trials", "1"])
        assert code == EXIT_OK
        assert "sd-hybrid" in capsys.readouterr().out
