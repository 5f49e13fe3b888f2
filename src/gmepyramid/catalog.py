"""Built-in reference states and their published benchmark values.

The four-qubit benchmark family psi_A..psi_D and the biseparable five-qubit
state phi_12345 are pinned here with exact coefficients so the ``paper``
CLI command works offline. psi_D's large coefficient is the radical
sqrt((5 sqrt(113) + 51) / 32), engineered so that its minimum cut
concurrence is exactly 4/5.
"""

from __future__ import annotations

import math

import numpy as np

from .states import PureState, flat_index


def _from_entries(dims: tuple[int, ...], entries: list[tuple[tuple[int, ...], complex]]) -> PureState:
    amps = np.zeros(math.prod(dims), dtype=complex)
    for digits, value in entries:
        amps[flat_index(dims, digits)] = value
    return PureState(dims, amps, normalize=True)


def ghz_state(n: int) -> PureState:
    """n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    if n < 2:
        raise ValueError("GHZ needs at least 2 qubits")
    return _from_entries((2,) * n, [((0,) * n, 1.0), ((1,) * n, 1.0)])


def w_state(n: int) -> PureState:
    """n-qubit W state: equal superposition of the single-excitation basis states."""
    if n < 2:
        raise ValueError("W needs at least 2 qubits")
    entries = []
    for i in range(n):
        digits = [0] * n
        digits[i] = 1
        entries.append((tuple(digits), 1.0))
    return _from_entries((2,) * n, entries)


def psi_a() -> PureState:
    """(|0000> + |1011> + |1101> + |1110>)/2."""
    return _from_entries(
        (2, 2, 2, 2),
        [((0, 0, 0, 0), 1.0), ((1, 0, 1, 1), 1.0), ((1, 1, 0, 1), 1.0), ((1, 1, 1, 0), 1.0)],
    )


def psi_b() -> PureState:
    """(|0000> + |0101> + |1000> + |1110>)/2."""
    return _from_entries(
        (2, 2, 2, 2),
        [((0, 0, 0, 0), 1.0), ((0, 1, 0, 1), 1.0), ((1, 0, 0, 0), 1.0), ((1, 1, 1, 0), 1.0)],
    )


def psi_c() -> PureState:
    """(|0000> + |1111> + |0011> + |0101> + |0110>)/sqrt(5)."""
    return _from_entries(
        (2, 2, 2, 2),
        [
            ((0, 0, 0, 0), 1.0),
            ((1, 1, 1, 1), 1.0),
            ((0, 0, 1, 1), 1.0),
            ((0, 1, 0, 1), 1.0),
            ((0, 1, 1, 0), 1.0),
        ],
    )


def psi_d() -> PureState:
    """t(|0000> + |0101> + |1010> + |1111>) + i|0001> + |0110> - i|1011>, normalized."""
    t = math.sqrt((5.0 * math.sqrt(113.0) + 51.0) / 32.0)
    return _from_entries(
        (2, 2, 2, 2),
        [
            ((0, 0, 0, 0), t),
            ((0, 1, 0, 1), t),
            ((1, 0, 1, 0), t),
            ((1, 1, 1, 1), t),
            ((0, 0, 0, 1), 1j),
            ((0, 1, 1, 0), 1.0),
            ((1, 0, 1, 1), -1j),
        ],
    )


def phi_biseparable() -> PureState:
    """(|00000> + |01010> + |10100> + |11110>)/2; factorizes as (13)(245)."""
    return _from_entries(
        (2, 2, 2, 2, 2),
        [
            ((0, 0, 0, 0, 0), 1.0),
            ((0, 1, 0, 1, 0), 1.0),
            ((1, 0, 1, 0, 0), 1.0),
            ((1, 1, 1, 1, 0), 1.0),
        ],
    )


def benchmark_states() -> dict[str, PureState]:
    """The fixed benchmark suite, keyed by the identifiers used in reports."""
    return {
        "GHZ4": ghz_state(4),
        "W4": w_state(4),
        "psi_A": psi_a(),
        "psi_B": psi_b(),
        "psi_C": psi_c(),
        "psi_D": psi_d(),
        "phi_12345": phi_biseparable(),
    }


# Published reference values (4 printed decimals). The W4 and psi_C volume
# rows are not reproducible from the defining formulas and get flagged by
# the comparison: W4's print matches only if singleton concurrences enter
# squared, and psi_C's print contradicts its own published C_GME = 0.8
# (every geometric-mean factor is >= 0.8, forcing V >= 0.8^3/3 = 0.1707).
PUBLISHED_VALUES: dict[str, dict[str, float]] = {
    "GHZ4": {"volume": 0.3333},
    "W4": {"volume": 0.1875},
    "psi_A": {"volume": 0.3468, "c_gme": 0.8660},
    "psi_B": {"volume": 0.2788, "c_gme": 0.8660},
    "psi_C": {"volume": 0.1487, "c_gme": 0.8000},
    "psi_D": {"volume": 0.3407, "c_gme": 0.8000},
    "phi_12345": {"volume": 0.0},
}

# Tolerance against the 4-decimal prints, per quantity.
PUBLISHED_TOL = {"volume": 2e-3, "c_gme": 1e-4}
