"""Word-line / access-transistor gate dynamics.

Open 9 sits between the word-line driver and the access-transistor gate of
one cell.  The gate is then a floating node charged and discharged through
``R_def``: it no longer follows the row decoder within one operation, so
the cell may stay connected during precharge (the paper's SF0 mechanism:
a stored 0 is charged up by the bit-line precharge) or stay disconnected
during its own access (IRF / TF faults that *cannot* be completed, because
no memory operation manipulates a floating word line).

The gate is simulated analytically (single-RC exponential per phase) and
converted to an access-transistor conduction factor; the nonlinearity thus
stays out of the linear network solver.  :func:`decay_factors`,
:func:`advance_gates` and :func:`conduction_factors` step a whole array
of gates (one per grid point) with the same float operations as
:class:`WordLineGate`, gate for gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["WordLineGate", "decay_factors", "advance_gates", "conduction_factors"]


@dataclass
class WordLineGate:
    """Gate node of one access transistor, possibly behind an open.

    ``resistance`` is the series open resistance (0 for a defect-free word
    line: the gate then follows the driver instantly).
    """

    capacitance: float
    resistance: float = 0.0
    voltage: float = 0.0

    def advance(self, driven: float, duration: float) -> float:
        """Move the gate toward the driver level; return the *mean* voltage.

        The mean over the phase is what determines the average conduction
        of the access transistor during that phase.
        """
        if duration <= 0:
            return self.voltage
        if self.resistance <= 0:
            self.voltage = driven
            return driven
        tau = self.resistance * self.capacitance
        x = duration / tau
        start = self.voltage
        end = driven + (start - driven) * math.exp(-x)
        # Time average of an exponential relaxation over the phase.
        mean = driven + (start - driven) * (1.0 - math.exp(-x)) / x
        self.voltage = end
        return mean

    def conduction(self, mean_voltage: float, v_threshold: float, v_on: float) -> float:
        """Linearized transistor conduction in [0, 1] for a gate level."""
        if v_on <= v_threshold:
            raise ValueError("v_on must exceed v_threshold")
        factor = (mean_voltage - v_threshold) / (v_on - v_threshold)
        return min(1.0, max(0.0, factor))


def decay_factors(
    resistance: np.ndarray, capacitance: float, duration: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-gate ``(x, exp(-x))`` of a phase, ``x = duration / (R C)``.

    ``math.exp`` runs once per distinct ``R C``: NumPy's ``exp`` may round
    differently, which would move gate voltages.  A gate with ``R <= 0``
    follows its driver instantly; ``x = inf`` and ``exp(-x) = 0`` make
    :func:`advance_gates` return exactly the driver level for it.
    """
    r = np.asarray(resistance, dtype=float)
    x = np.full(r.shape, np.inf)
    decay = np.zeros(r.shape)
    live = r > 0
    if live.any():
        tau, inverse = np.unique(r[live] * capacitance, return_inverse=True)
        x_tau = duration / tau
        x[live] = x_tau[inverse]
        decay[live] = np.array([math.exp(-v) for v in x_tau.tolist()])[inverse]
    return x, decay


def advance_gates(
    voltage: np.ndarray, driven: float, x: np.ndarray, decay: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`WordLineGate.advance` for an array of gates and a phase of
    positive duration: ``(end voltages, mean voltages)``."""
    delta = voltage - driven
    return driven + delta * decay, driven + delta * (1.0 - decay) / x


def conduction_factors(
    mean_voltage: np.ndarray, v_threshold: float, v_on: float
) -> np.ndarray:
    """:meth:`WordLineGate.conduction` for an array of gate levels."""
    if v_on <= v_threshold:
        raise ValueError("v_on must exceed v_threshold")
    factor = (mean_voltage - v_threshold) / (v_on - v_threshold)
    # max(0.0, f) and min(1.0, f) keep their first argument unless f is
    # strictly beyond it (NaN included).
    factor = np.where(factor > 0.0, factor, 0.0)
    return np.where(factor < 1.0, factor, 1.0)
