"""Design parameters and non-ideality models for the analog max-flow substrate.

This module captures Table 1 of the paper ("Design parameters for the max-flow
computing substrate") as :class:`SubstrateParameters`, and the non-ideal
circuit effects discussed in Section 4 (finite op-amp gain and bandwidth,
resistor tolerance and matching, parasitic capacitance, diode forward voltage,
memristor variation) as :class:`NonIdealityModel`.

All values carry SI units unless stated otherwise in the attribute docstring.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from .errors import ConfigurationError

__all__ = [
    "SubstrateParameters",
    "NonIdealityModel",
    "OpAmpParameters",
    "MemristorParameters",
    "DiodeParameters",
    "default_parameters",
    "ideal_nonidealities",
    "TABLE1",
]


# ---------------------------------------------------------------------------
# Device-level parameter groups
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpAmpParameters:
    """Behavioural (single-pole) op-amp macro-model parameters.

    The paper (Table 1) uses an open-loop gain of ``1e4`` and a gain-bandwidth
    product between 10 and 50 GHz.  The op-amp is modelled as

    ``A(s) = open_loop_gain / (1 + s * open_loop_gain / (2*pi*gbw_hz))``

    i.e. a single dominant pole at ``2*pi*gbw_hz / open_loop_gain`` rad/s.
    """

    open_loop_gain: float = 1.0e4
    gbw_hz: float = 10.0e9
    supply_current_a: float = 500.0e-6
    supply_voltage_v: float = 1.0
    output_resistance_ohm: float = 10.0

    @property
    def dominant_pole_hz(self) -> float:
        """Frequency of the dominant open-loop pole in Hz."""
        return self.gbw_hz / self.open_loop_gain

    @property
    def time_constant_s(self) -> float:
        """Open-loop time constant ``tau = A / (2*pi*GBW)`` in seconds."""
        return self.open_loop_gain / (2.0 * math.pi * self.gbw_hz)

    @property
    def power_w(self) -> float:
        """Static power drawn by one op-amp (``I_supply * V_supply``)."""
        return self.supply_current_a * self.supply_voltage_v

    def validate(self) -> None:
        if self.open_loop_gain <= 1.0:
            raise ConfigurationError("op-amp open-loop gain must exceed 1")
        if self.gbw_hz <= 0.0:
            raise ConfigurationError("op-amp gain-bandwidth product must be positive")
        if self.supply_current_a < 0.0 or self.supply_voltage_v < 0.0:
            raise ConfigurationError("op-amp supply current/voltage must be non-negative")


@dataclass(frozen=True)
class MemristorParameters:
    """Behavioural memristor parameters (Section 3 and Table 1)."""

    lrs_resistance_ohm: float = 10.0e3
    hrs_resistance_ohm: float = 1.0e6
    threshold_voltage_v: float = 1.2
    set_pulse_width_s: float = 10.0e-9
    reset_pulse_width_s: float = 10.0e-9
    retention_drift_per_s: float = 1.0e-9
    cycle_to_cycle_sigma: float = 0.0
    tuning_resolution_ohm: float = 10.0

    @property
    def on_off_ratio(self) -> float:
        """HRS/LRS resistance ratio."""
        return self.hrs_resistance_ohm / self.lrs_resistance_ohm

    def validate(self) -> None:
        if self.lrs_resistance_ohm <= 0 or self.hrs_resistance_ohm <= 0:
            raise ConfigurationError("memristor resistances must be positive")
        if self.hrs_resistance_ohm <= self.lrs_resistance_ohm:
            raise ConfigurationError("HRS resistance must exceed LRS resistance")
        if self.threshold_voltage_v <= 0:
            raise ConfigurationError("memristor threshold voltage must be positive")
        if self.cycle_to_cycle_sigma < 0:
            raise ConfigurationError("cycle-to-cycle sigma must be non-negative")


@dataclass(frozen=True)
class DiodeParameters:
    """Piecewise-linear diode model used by the capacity-clamp widgets."""

    forward_voltage_v: float = 0.0
    on_conductance_s: float = 1.0e3
    off_conductance_s: float = 1.0e-9

    def validate(self) -> None:
        if self.on_conductance_s <= self.off_conductance_s:
            raise ConfigurationError("diode on-conductance must exceed off-conductance")
        if self.off_conductance_s <= 0:
            raise ConfigurationError("diode off-conductance must be positive")
        if self.forward_voltage_v < 0:
            raise ConfigurationError("diode forward voltage must be non-negative")


# ---------------------------------------------------------------------------
# Substrate-level parameters (Table 1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubstrateParameters:
    """Design parameters for the max-flow computing substrate (Table 1).

    Attributes
    ----------
    rows, columns:
        Crossbar dimensions.  The paper evaluates a 1000x1000 substrate.
    unit_resistance_ohm:
        The unit resistance ``r`` used by every constraint widget.  Realised
        by a memristor in LRS, hence it defaults to the LRS memristance.
    vflow_v:
        Objective-function drive voltage ``Vflow``.
    vdd_v:
        Supply voltage defining the quantized capacity voltage range.
    voltage_levels:
        Number of discrete capacity voltage levels ``N`` (Section 4.1).
    parasitic_capacitance_f:
        Parasitic capacitance attached to every circuit net (Section 5.1 uses
        20 fF).
    convergence_tolerance:
        Relative tolerance used when declaring the transient converged; the
        paper measures the time until the flow value is within 0.1 % of its
        final value.
    bleed_resistance_factor:
        Common-mode bleed resistor attached from every constraint-widget
        internal node (the negation node ``P`` and the per-vertex node) to
        ground, expressed as a multiple of the unit resistance ``r``.  The
        paper's ideal widgets leave those nodes' common-mode voltage
        undetermined (their KCL rows cancel exactly), which makes the
        substrate arbitrarily sensitive to any mismatch; a weak bleed pins
        the common mode at the cost of a relative constraint error of about
        ``1 / bleed_resistance_factor``.  The default of 0 disables it (the
        textbook-ideal circuit, which reproduces the paper's optimality
        result exactly); device-level transient studies and the variation
        ablation enable it explicitly.  See DESIGN.md, "reproduction
        findings".
    """

    rows: int = 1000
    columns: int = 1000
    unit_resistance_ohm: float = 10.0e3
    vflow_v: float = 3.0
    vdd_v: float = 1.0
    voltage_levels: int = 20
    parasitic_capacitance_f: float = 20.0e-15
    convergence_tolerance: float = 1.0e-3
    bleed_resistance_factor: float = 0.0
    opamp: OpAmpParameters = field(default_factory=OpAmpParameters)
    memristor: MemristorParameters = field(default_factory=MemristorParameters)
    diode: DiodeParameters = field(default_factory=DiodeParameters)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` when any parameter is invalid."""
        if self.rows <= 0 or self.columns <= 0:
            raise ConfigurationError("crossbar dimensions must be positive")
        if self.unit_resistance_ohm <= 0:
            raise ConfigurationError("unit resistance must be positive")
        if self.vflow_v <= 0:
            raise ConfigurationError("Vflow must be positive")
        if self.vdd_v <= 0:
            raise ConfigurationError("Vdd must be positive")
        if self.voltage_levels < 2:
            raise ConfigurationError("at least two voltage levels are required")
        if self.parasitic_capacitance_f < 0:
            raise ConfigurationError("parasitic capacitance must be non-negative")
        if not (0.0 < self.convergence_tolerance < 1.0):
            raise ConfigurationError("convergence tolerance must lie in (0, 1)")
        if self.bleed_resistance_factor < 0:
            raise ConfigurationError("bleed resistance factor must be non-negative")
        self.opamp.validate()
        self.memristor.validate()
        self.diode.validate()

    # -- convenience -------------------------------------------------------

    @property
    def max_vertices(self) -> int:
        """Largest number of graph vertices the crossbar can host."""
        return min(self.rows, self.columns)

    def with_gbw(self, gbw_hz: float) -> "SubstrateParameters":
        """Return a copy with a different op-amp gain-bandwidth product."""
        return replace(self, opamp=replace(self.opamp, gbw_hz=gbw_hz))

    def with_gain(self, open_loop_gain: float) -> "SubstrateParameters":
        """Return a copy with a different op-amp open-loop gain."""
        return replace(self, opamp=replace(self.opamp, open_loop_gain=open_loop_gain))

    def with_voltage_levels(self, levels: int) -> "SubstrateParameters":
        """Return a copy with a different number of quantization levels."""
        return replace(self, voltage_levels=levels)

    def with_vflow(self, vflow_v: float) -> "SubstrateParameters":
        """Return a copy with a different objective drive voltage."""
        return replace(self, vflow_v=vflow_v)

    def as_table(self) -> Dict[str, float]:
        """Return the Table 1 rows as an ordered mapping (paper units)."""
        return {
            "Memristor LRS resistance (kOhm)": self.memristor.lrs_resistance_ohm / 1e3,
            "Memristor HRS resistance (kOhm)": self.memristor.hrs_resistance_ohm / 1e3,
            "Objective function voltage Vflow (V)": self.vflow_v,
            "Open loop gain of op-amp": self.opamp.open_loop_gain,
            "Gain-bandwidth product of op-amp (GHz)": self.opamp.gbw_hz / 1e9,
            "Number of columns in the crossbar": float(self.columns),
            "Number of rows in the crossbar": float(self.rows),
            "Number of voltage levels": float(self.voltage_levels),
        }


#: The literal Table 1 configuration from the paper.
TABLE1 = SubstrateParameters()


def default_parameters() -> SubstrateParameters:
    """Return a fresh copy of the paper's Table 1 parameter set."""
    return SubstrateParameters()


# ---------------------------------------------------------------------------
# Non-ideality model (Section 4)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonIdealityModel:
    """Aggregate description of the non-ideal effects applied to a circuit.

    Attributes
    ----------
    opamp_gain:
        Finite open-loop gain used for negative-resistor realisation
        (``None`` means ideal, i.e. infinite gain).
    opamp_gbw_hz:
        Gain-bandwidth product of the op-amps; only relevant to transient
        (convergence-time) analysis.
    resistor_tolerance:
        Absolute (uncorrelated) relative tolerance of each integrated
        resistor, e.g. ``0.2`` for +/-20 %.
    resistor_matching:
        Relative mismatch *between* resistors after layout matching
        (Section 4.3.1 quotes 0.1 %..1 %).  When matching is enabled the
        common (absolute) part of the variation cancels and only this
        mismatch remains visible to the solution.
    use_matching:
        Whether layout matching is applied (the solution then only sees
        ``resistor_matching``), or not (the solution sees
        ``resistor_tolerance`` per resistor).
    parasitic_capacitance_f:
        Parasitic capacitance added to every circuit node.
    diode_forward_voltage_v:
        Forward drop of the clamp diodes.  The paper compensates it by
        adjusting the clamp sources (footnote 2); the solver mirrors that
        compensation when this is non-zero.
    parasitic_wire_resistance_ohm:
        Series resistance added to every crossbar wire segment.
    memristor_programming_sigma:
        Cycle-to-cycle lognormal sigma of programmed LRS memristances.
    seed:
        Seed for the random draws of the variation terms.
    """

    opamp_gain: Optional[float] = None
    opamp_gbw_hz: float = 10.0e9
    resistor_tolerance: float = 0.0
    resistor_matching: float = 0.0
    use_matching: bool = True
    parasitic_capacitance_f: float = 0.0
    diode_forward_voltage_v: float = 0.0
    parasitic_wire_resistance_ohm: float = 0.0
    memristor_programming_sigma: float = 0.0
    seed: Optional[int] = None

    def validate(self) -> None:
        if self.opamp_gain is not None and self.opamp_gain <= 1.0:
            raise ConfigurationError("finite op-amp gain must exceed 1")
        if self.opamp_gbw_hz <= 0:
            raise ConfigurationError("op-amp GBW must be positive")
        for name in ("resistor_tolerance", "resistor_matching",
                     "memristor_programming_sigma"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
        if self.parasitic_capacitance_f < 0:
            raise ConfigurationError("parasitic capacitance must be non-negative")
        if self.parasitic_wire_resistance_ohm < 0:
            raise ConfigurationError("wire resistance must be non-negative")
        if self.diode_forward_voltage_v < 0:
            raise ConfigurationError("diode forward voltage must be non-negative")

    @property
    def is_ideal(self) -> bool:
        """True when no non-ideal effect is enabled (pure textbook circuit)."""
        return (
            self.opamp_gain is None
            and self.resistor_tolerance == 0.0
            and self.resistor_matching == 0.0
            and self.parasitic_capacitance_f == 0.0
            and self.diode_forward_voltage_v == 0.0
            and self.parasitic_wire_resistance_ohm == 0.0
            and self.memristor_programming_sigma == 0.0
        )

    def effective_mismatch(self) -> float:
        """Mismatch visible to the solution (matching hides the common part)."""
        return self.resistor_matching if self.use_matching else self.resistor_tolerance


def ideal_nonidealities() -> NonIdealityModel:
    """Return a :class:`NonIdealityModel` with every non-ideal effect off."""
    return NonIdealityModel()


# ---------------------------------------------------------------------------
# Environment-variable parsing
# ---------------------------------------------------------------------------
#
# Every runtime knob the library reads from the environment goes through the
# helpers below so that "what counts as off" is defined exactly once
# (``REPRO_OBS`` in :mod:`repro.obs.trace` and the ``REPRO_FAULT_PLAN``/retry
# knobs in :mod:`repro.resilience` all reuse them).

#: Spellings that disable a boolean flag, case-insensitively.
ENV_FALSE_VALUES = frozenset({"0", "off", "false", "no"})


def env_flag(name, default=True):
    """Parse environment variable ``name`` as a boolean flag.

    Unset returns ``default``.  A set value is *false* when it matches
    :data:`ENV_FALSE_VALUES` case-insensitively after stripping, and *true*
    otherwise.

    >>> import os
    >>> os.environ["_REPRO_DEMO_FLAG"] = "OFF"
    >>> env_flag("_REPRO_DEMO_FLAG")
    False
    >>> del os.environ["_REPRO_DEMO_FLAG"]
    >>> env_flag("_REPRO_DEMO_FLAG", default=False)
    False
    """
    raw = os.environ.get(name)
    if raw is None:
        return bool(default)
    return raw.strip().lower() not in ENV_FALSE_VALUES


def env_float(name, default):
    """Parse environment variable ``name`` as a float (unset → ``default``)."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{name}={raw!r} is not a number") from exc


def env_int(name, default):
    """Parse environment variable ``name`` as an int (unset → ``default``)."""
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{name}={raw!r} is not an integer") from exc


def env_plan(name, raw=None):
    """Parse a structured plan variable into a list of key/value dicts.

    The grammar is ``entry[;entry...]`` where each ``entry`` is
    ``key=value[,key=value...]``; whitespace around separators is ignored
    and empty entries are dropped.  Values are returned as strings — the
    consumer owns typing.  Pass ``raw`` to parse a literal spec instead of
    reading the environment (the context-manager API of the fault injector
    uses this).

    >>> env_plan("_UNSET_", raw="backend=analog, kind=convergence; kind=stall")
    [{'backend': 'analog', 'kind': 'convergence'}, {'kind': 'stall'}]
    """
    if raw is None:
        raw = os.environ.get(name, "")
    entries = []
    for chunk in raw.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        entry = {}
        for pair in chunk.split(","):
            pair = pair.strip()
            if not pair:
                continue
            if "=" not in pair:
                raise ConfigurationError(
                    f"{name}: expected key=value, got {pair!r} in {raw!r}"
                )
            key, value = pair.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigurationError(f"{name}: empty key in {raw!r}")
            entry[key] = value.strip()
        if entry:
            entries.append(entry)
    return entries
