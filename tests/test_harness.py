"""Tests for experiment orchestration, CSV emission, and the CLI."""

import json
import time

import numpy as np
import pytest
import scipy

import hybridprec.harness as harness
from hybridprec import hybrid
from hybridprec.channel import SystemConfig
from hybridprec.detect import EPNumericalError
from hybridprec.harness import (
    EXIT_NUMERICAL, EXIT_OK, EXIT_SPEC_ERROR, ExperimentSpec, ResultRow,
    SpecError, config_fingerprint, emit_csv, load_spec, main, oracle_check,
    parse_csv, run_experiment, runtime_benchmark, spec_from_dict,
)

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
        earlier versions stay comparable (a changed SystemConfig default
        changes it, as it should)."""
        spec = ExperimentSpec(
            name="pinned", base=SystemConfig(**harness.DESK_CONFIG, total_power_dbm=30.0),
            schemes=["sd-hybrid", "altmin2-q"], n_trials=3, seed=7,
            sweep_parameter="quant_levels", sweep_values=[2, 8],
            outputs=["sum_rate_avg", "mse"])
        assert config_fingerprint(spec) == (
            "522896f8eba63ab39d170cafa4cc1043c2e3821efd0c0725b889a65a3c51fdbc")

    def test_presets_valid(self):
        for preset in ("desk", "paper"):
            specs = harness.preset_specs(preset)
            assert {s.name for s in specs} >= {"convergence", "rate-vs-power"}


class TestRuntimeBenchmark:
    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            runtime_benchmark([], SystemConfig(**TINY_BASE), 1)

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

    def test_cli_bad_spec_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 1, "name": "x",
                                    "schemes": ["fully-digital"], "oops": True}))
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_SPEC_ERROR

    @pytest.mark.parametrize("payload", [
        [],
        [{"a": 1}],
        {"base": 5},
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
    ], ids=["empty-array", "array", "base", "base-range", "sweep", "sweep-values", "schemes",
            "outputs", "n_trials-array", "seed-object", "n_trials-null", "n_trials-float",
            "n_trials-bool", "seed-string", "seed-float", "base-int-float", "base-int-bool",
            "sweep-int-float", "sweep-parameter-array", "sweep-parameter-unknown"])
    def test_cli_malformed_spec_shape_exit_code(self, payload, tmp_path, capsys):
        """A spec, or a field of it, of the wrong JSON type is a spec error
        (exit 2), not a traceback or a silently split string."""
        if isinstance(payload, dict):
            payload = {"schema_version": 1, "name": "x", "schemes": ["fully-digital"],
                       **payload}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        assert main(["run", str(path), "--out", str(tmp_path)]) == EXIT_SPEC_ERROR
        assert "spec error" in capsys.readouterr().err

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
