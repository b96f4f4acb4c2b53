"""Ferroelectric-layer polarization model (nucleation-limited switching).

The paper relies on a TCAD-calibrated multi-domain FeFET compact model
[22].  We reproduce the behaviours that the TCAM designs depend on with a
domain-fraction rate model:

* The layer state is the up-polarized domain fraction ``s`` in [0, 1];
  polarization ``P = Ps * (2s - 1)``.
* Under a field ``E`` the fraction relaxes toward the field's preferred
  direction with a Kolmogorov-Avrami-Ishibashi (KAI) / NLS characteristic
  time ``tau(E) = tau0 * exp((Ea/|E|)^alpha)`` — steeply decreasing in
  field, which yields:

  - full switching within a write pulse at the write voltage,
  - *partial* switching at the intermediate voltage Vm (the MVT 'X' state
    of the 1.5T1Fe cell, paper Tab. II/III),
  - effectively frozen polarization at read fields (non-volatility and the
    DG-FeFET's disturb-free read).

* Sweeping the field at a finite rate traces a hysteresis loop whose
  apparent coercive field is where ``tau(E)`` matches the sweep timescale
  — the classic rate-dependent loop of HfO2 ferroelectrics.

The model exposes ``preview``/``advance`` so a circuit element can evaluate
trial states inside Newton iterations and commit once per accepted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from ..errors import CalibrationError

__all__ = ["FerroParams", "FerroelectricLayer"]

# Exponent clamp: exp(500) is far beyond any timescale we compare against,
# and math.exp overflows around 709.
_MAX_EXPONENT = 500.0


@dataclass(frozen=True)
class FerroParams:
    """Physical and kinetic parameters of one ferroelectric layer.

    Fields in SI: polarization in C/m^2, thickness/area in m/m^2, fields in
    V/m, times in seconds.
    """

    ps: float = 0.10  # saturation polarization (10 uC/cm^2 = 0.1 C/m^2)
    t_fe: float = 5e-9  # layer thickness
    area: float = 20e-9 * 50e-9  # gate area (paper: 20 x 50 nm devices)
    eps_fe: float = 25.0 * 8.8541878128e-12  # background permittivity
    e_activation: float = 4.3e8  # KAI activation field Ea (V/m)
    alpha: float = 3.0  # KAI steepness exponent
    tau0: float = 2.6e-10  # attempt time (s)
    # Field scale for direction smoothing (V/m).  Chosen far below the
    # smallest field with a finite KAI time, so wherever dynamics are
    # active the target is exactly 0 or 1 (in double precision) and the
    # smoothing only serves Jacobian continuity around E = 0.
    e_smooth: float = 2e6

    def __post_init__(self):
        if self.ps <= 0 or self.t_fe <= 0 or self.area <= 0:
            raise CalibrationError("ps, t_fe and area must be positive")
        if self.tau0 <= 0 or self.e_activation <= 0 or self.alpha <= 0:
            raise CalibrationError("KAI parameters must be positive")

    @property
    def c_static(self) -> float:
        """Linear (background) capacitance of the layer, farads."""
        return self.eps_fe * self.area / self.t_fe

    def with_thickness(self, t_fe: float) -> "FerroParams":
        return replace(self, t_fe=t_fe)


class FerroelectricLayer:
    """Stateful polarization model of a single FE layer.

    The committed state is ``s`` (up-domain fraction).  ``preview`` computes
    the state a timestep *would* reach under a field without mutating
    anything; ``advance`` commits it.
    """

    def __init__(self, params: FerroParams, s: float = 0.0):
        self.params = params
        if not 0.0 <= s <= 1.0:
            raise CalibrationError(f"domain fraction must be in [0,1], got {s}")
        self.s = float(s)
        # Read-disturb bookkeeping (used by SG-FeFETs; see fefet.py).
        self.disturb_events = 0

    # -- kinetics ---------------------------------------------------------------

    def tau(self, e_field: float) -> float:
        """KAI characteristic switching time at field magnitude |E| (s)."""
        e_mag = abs(e_field)
        if e_mag <= 0.0:
            return math.inf
        ratio = self.params.e_activation / e_mag
        # Guard the power itself: tiny fields give astronomically large
        # ratios whose cube would overflow before the exp clamp applies.
        if self.params.alpha * math.log10(ratio) > math.log10(_MAX_EXPONENT):
            return math.inf
        exponent = ratio ** self.params.alpha
        if exponent > _MAX_EXPONENT:
            return math.inf
        return self.params.tau0 * math.exp(exponent)

    def s_target(self, e_field: float) -> float:
        """Equilibrium domain fraction for a sustained field.

        Smoothly interpolates between 0 (negative field) and 1 (positive
        field); the smoothing keeps circuit Jacobians continuous near E=0,
        where ``tau`` is infinite anyway so the target has no effect.
        """
        x = e_field / self.params.e_smooth
        if x > 40.0:
            return 1.0
        if x < -40.0:
            return 0.0
        return 1.0 / (1.0 + math.exp(-x))

    def preview(self, e_field: float, dt: float, s_from: float = None) -> float:
        """Domain fraction after ``dt`` seconds at constant field ``e_field``.

        Exact exponential relaxation step: unconditionally stable and
        bounded in [0, 1] for any dt.
        """
        s0 = self.s if s_from is None else s_from
        if dt <= 0.0:
            return s0
        tau = self.tau(e_field)
        if math.isinf(tau):
            return s0
        target = self.s_target(e_field)
        return target + (s0 - target) * math.exp(-dt / tau)

    def advance(self, e_field: float, dt: float) -> float:
        """Commit a timestep; returns the new domain fraction."""
        self.s = self.preview(e_field, dt)
        return self.s

    # -- observables ------------------------------------------------------------

    @property
    def polarization(self) -> float:
        """Remanent polarization, C/m^2 (signed)."""
        return self.params.ps * (2.0 * self.s - 1.0)

    @property
    def p_normalized(self) -> float:
        """Polarization normalized to [-1, 1]."""
        return 2.0 * self.s - 1.0

    def polarization_of(self, s: float) -> float:
        return self.params.ps * (2.0 * s - 1.0)

    def charge(self, v_fe: float, s: float = None) -> float:
        """Total gate charge of the layer: linear + switched (coulombs)."""
        s_val = self.s if s is None else s
        return (self.params.c_static * v_fe
                + self.params.area * self.polarization_of(s_val))

    def switching_charge(self, s_from: float, s_to: float) -> float:
        """Polarization charge moved between two states (coulombs, >= 0)."""
        return self.params.area * self.params.ps * 2.0 * abs(s_to - s_from)

    # -- characterization helpers -------------------------------------------------

    def effective_coercive_field(self, pulse_width: float) -> float:
        """Field whose KAI time equals ``pulse_width`` — the apparent
        coercive field for that pulse duration (V/m)."""
        if pulse_width <= self.params.tau0:
            return math.inf
        log_ratio = math.log(pulse_width / self.params.tau0)
        return self.params.e_activation / log_ratio ** (1.0 / self.params.alpha)

    def sweep_loop(self, e_peak: float, period: float, points_per_branch: int = 200):
        """Trace a triangular field sweep and return (E, P) arrays.

        Runs two full cycles so the returned (second-cycle) loop is the
        steady-state hysteresis loop; used by characterization tests.
        """
        dt = period / (4.0 * points_per_branch)
        fields = []
        # Triangular wave: 0 -> +E -> -E -> +E -> ... two cycles.
        segments = [(0.0, e_peak), (e_peak, -e_peak), (-e_peak, e_peak),
                    (e_peak, -e_peak), (-e_peak, 0.0)]
        for start, stop in segments:
            steps = 2 * points_per_branch if abs(stop - start) > abs(e_peak) else points_per_branch
            for k in range(steps):
                fields.append(start + (stop - start) * (k + 1) / steps)
        e_trace, p_trace = [], []
        for e in fields:
            self.advance(e, dt)
            e_trace.append(e)
            p_trace.append(self.polarization)
        return e_trace, p_trace

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<FerroelectricLayer s={self.s:.3f} "
                f"P={self.polarization * 1e2:.2f} uC/cm^2>")
