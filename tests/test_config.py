"""Tests for the configuration objects (Table 1 and the non-ideality model)."""

from __future__ import annotations

import math

import pytest

from repro.config import (
    DiodeParameters,
    MemristorParameters,
    NonIdealityModel,
    OpAmpParameters,
    SubstrateParameters,
    TABLE1,
    default_parameters,
    ideal_nonidealities,
)
from repro.errors import ConfigurationError


class TestTable1Defaults:
    def test_table1_matches_paper_values(self):
        table = TABLE1.as_table()
        assert table["Memristor LRS resistance (kOhm)"] == 10
        assert table["Memristor HRS resistance (kOhm)"] == 1000
        assert table["Objective function voltage Vflow (V)"] == 3
        assert table["Open loop gain of op-amp"] == 1e4
        assert table["Gain-bandwidth product of op-amp (GHz)"] == 10
        assert table["Number of columns in the crossbar"] == 1000
        assert table["Number of rows in the crossbar"] == 1000
        assert table["Number of voltage levels"] == 20

    def test_default_parameters_returns_fresh_equal_copy(self):
        a = default_parameters()
        b = default_parameters()
        assert a == b
        assert a == TABLE1

    def test_default_parameters_validate(self):
        default_parameters().validate()

    def test_unit_resistance_equals_lrs(self):
        params = default_parameters()
        assert params.unit_resistance_ohm == params.memristor.lrs_resistance_ohm


class TestParameterCopies:
    def test_with_gbw(self):
        params = default_parameters().with_gbw(50e9)
        assert params.opamp.gbw_hz == 50e9
        assert default_parameters().opamp.gbw_hz == 10e9

    def test_with_gain(self):
        assert default_parameters().with_gain(1e5).opamp.open_loop_gain == 1e5

    def test_with_voltage_levels(self):
        assert default_parameters().with_voltage_levels(64).voltage_levels == 64

    def test_with_vflow(self):
        assert default_parameters().with_vflow(6.0).vflow_v == 6.0

    def test_max_vertices(self):
        params = default_parameters()
        assert params.max_vertices == 1000


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rows=0),
            dict(columns=-1),
            dict(unit_resistance_ohm=0.0),
            dict(vflow_v=0.0),
            dict(vdd_v=-1.0),
            dict(voltage_levels=1),
            dict(parasitic_capacitance_f=-1e-15),
            dict(convergence_tolerance=0.0),
            dict(convergence_tolerance=1.5),
            dict(bleed_resistance_factor=-1.0),
        ],
    )
    def test_invalid_substrate_parameters(self, kwargs):
        from dataclasses import replace

        params = replace(default_parameters(), **kwargs)
        with pytest.raises(ConfigurationError):
            params.validate()

    def test_opamp_validation(self):
        with pytest.raises(ConfigurationError):
            OpAmpParameters(open_loop_gain=0.5).validate()
        with pytest.raises(ConfigurationError):
            OpAmpParameters(gbw_hz=0.0).validate()

    def test_memristor_validation(self):
        with pytest.raises(ConfigurationError):
            MemristorParameters(lrs_resistance_ohm=2e6, hrs_resistance_ohm=1e6).validate()
        with pytest.raises(ConfigurationError):
            MemristorParameters(threshold_voltage_v=0.0).validate()

    def test_diode_validation(self):
        with pytest.raises(ConfigurationError):
            DiodeParameters(on_conductance_s=1e-10, off_conductance_s=1e-9).validate()


class TestDerivedQuantities:
    def test_opamp_time_constant(self):
        amp = OpAmpParameters(open_loop_gain=1e4, gbw_hz=10e9)
        assert amp.time_constant_s == pytest.approx(1e4 / (2 * math.pi * 10e9))
        assert amp.dominant_pole_hz == pytest.approx(1e6)

    def test_opamp_power(self):
        amp = OpAmpParameters(supply_current_a=500e-6, supply_voltage_v=1.0)
        assert amp.power_w == pytest.approx(500e-6)

    def test_memristor_on_off_ratio(self):
        assert MemristorParameters().on_off_ratio == pytest.approx(100.0)


class TestNonIdealityModel:
    def test_ideal_by_default(self):
        model = ideal_nonidealities()
        model.validate()
        assert model.is_ideal

    def test_not_ideal_with_any_effect(self):
        assert not NonIdealityModel(resistor_matching=0.01).is_ideal
        assert not NonIdealityModel(opamp_gain=1e3).is_ideal
        assert not NonIdealityModel(parasitic_capacitance_f=1e-15).is_ideal

    def test_effective_mismatch_respects_matching_flag(self):
        model = NonIdealityModel(resistor_tolerance=0.2, resistor_matching=0.005)
        assert model.effective_mismatch() == 0.005
        unmatched = NonIdealityModel(
            resistor_tolerance=0.2, resistor_matching=0.005, use_matching=False
        )
        assert unmatched.effective_mismatch() == 0.2

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(opamp_gain=0.5),
            dict(opamp_gbw_hz=0.0),
            dict(resistor_tolerance=-0.1),
            dict(parasitic_capacitance_f=-1.0),
            dict(diode_forward_voltage_v=-0.2),
        ],
    )
    def test_invalid_nonidealities(self, kwargs):
        with pytest.raises(ConfigurationError):
            NonIdealityModel(**kwargs).validate()


class TestEnvHelpers:
    """The centralized environment-knob parsers (shared by the obs toggle
    and every resilience knob — 'what counts as off' is defined once)."""

    def test_env_flag_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("_REPRO_TEST_FLAG", raising=False)
        from repro.config import env_flag

        assert env_flag("_REPRO_TEST_FLAG") is True
        assert env_flag("_REPRO_TEST_FLAG", default=False) is False

    @pytest.mark.parametrize("spelling", ["0", "off", "OFF", " false ", "No"])
    def test_env_flag_false_spellings(self, monkeypatch, spelling):
        from repro.config import env_flag

        monkeypatch.setenv("_REPRO_TEST_FLAG", spelling)
        assert env_flag("_REPRO_TEST_FLAG") is False

    @pytest.mark.parametrize("spelling", ["1", "on", "yes", "anything"])
    def test_env_flag_true_spellings(self, monkeypatch, spelling):
        from repro.config import env_flag

        monkeypatch.setenv("_REPRO_TEST_FLAG", spelling)
        assert env_flag("_REPRO_TEST_FLAG", default=False) is True

    def test_env_float_and_int(self, monkeypatch):
        from repro.config import env_float, env_int

        monkeypatch.delenv("_REPRO_TEST_NUM", raising=False)
        assert env_float("_REPRO_TEST_NUM", 1.5) == 1.5
        assert env_int("_REPRO_TEST_NUM", 7) == 7
        monkeypatch.setenv("_REPRO_TEST_NUM", "2.5")
        assert env_float("_REPRO_TEST_NUM", 0.0) == 2.5
        monkeypatch.setenv("_REPRO_TEST_NUM", "42")
        assert env_int("_REPRO_TEST_NUM", 0) == 42

    def test_env_numbers_reject_garbage_typed(self, monkeypatch):
        from repro.config import env_float, env_int

        monkeypatch.setenv("_REPRO_TEST_NUM", "tuesday")
        with pytest.raises(ConfigurationError):
            env_float("_REPRO_TEST_NUM", 0.0)
        with pytest.raises(ConfigurationError):
            env_int("_REPRO_TEST_NUM", 0)

    def test_env_plan_grammar(self):
        from repro.config import env_plan

        entries = env_plan(
            "_X_", raw=" kind=stall , stall_s=0.2 ; ; kind=corrupt ;"
        )
        assert entries == [
            {"kind": "stall", "stall_s": "0.2"},
            {"kind": "corrupt"},
        ]
        assert env_plan("_X_", raw="") == []

    def test_env_plan_rejects_malformed(self):
        from repro.config import env_plan

        with pytest.raises(ConfigurationError):
            env_plan("_X_", raw="no-equals-sign")
        with pytest.raises(ConfigurationError):
            env_plan("_X_", raw="=value")

    def test_env_plan_reads_environment(self, monkeypatch):
        from repro.config import env_plan

        monkeypatch.setenv("_REPRO_TEST_PLAN", "kind=error,times=2")
        assert env_plan("_REPRO_TEST_PLAN") == [{"kind": "error", "times": "2"}]
