"""Built-in reference states and their published benchmark values.

Each built-in state is written as kets, ``{bit string: amplitude}`` with
subsystem 1 as the leftmost bit; ``_kets`` checks the qubit count before it
allocates the 2**n amplitudes, and ``ghz_state`` and ``w_state`` check it
before they build their n-bit kets. The paper's benchmark states, GHZ4, W4,
the four-qubit family psi_A..psi_D and the biseparable five-qubit state
phi_12345 (it factorizes as (13)(245)), are one table, ``PAPER_STATES``, with
exact coefficients so the ``paper`` CLI command works offline.
"""

from __future__ import annotations

import math

import numpy as np

from .states import PureState, as_index, check_dims, check_subsystem_count, flat_index


def _kets(n: int, amplitudes: dict[str, complex]) -> PureState:
    """The n-qubit state sum_b amplitudes[b] |b>, normalized; n is checked
    before the 2**n amplitudes are allocated."""
    dims = check_dims((2,) * n)
    vector = np.zeros(2**n, dtype=complex)
    for bits, value in amplitudes.items():
        vector[flat_index(dims, [int(b) for b in bits])] = value
    return PureState(dims, vector, normalize=True)


def ghz_state(n: int) -> PureState:
    """n-qubit GHZ state (|0...0> + |1...1>)/sqrt(2)."""
    n = check_subsystem_count(as_index(n, "qubit count"))
    return _kets(n, {"0" * n: 1.0, "1" * n: 1.0})


def w_state(n: int) -> PureState:
    """n-qubit W state: equal superposition of the single-excitation basis states."""
    n = check_subsystem_count(as_index(n, "qubit count"))
    return _kets(n, {"0" * i + "1" + "0" * (n - 1 - i): 1.0 for i in range(n)})


# psi_D's large coefficient, engineered so that its minimum cut concurrence is exactly 4/5.
_T = math.sqrt((5.0 * math.sqrt(113.0) + 51.0) / 32.0)

# Report id -> (kets before normalization, published values to 4 printed decimals),
# in report order. The W4 and psi_C volume prints are not reproducible from the
# defining formulas and get flagged by the comparison: W4's print matches only if
# singleton concurrences enter squared, and psi_C's print contradicts its own
# published C_GME = 0.8 (every geometric-mean factor is >= 0.8, forcing
# V >= 0.8^3/3 = 0.1707).
PAPER_STATES: dict[str, tuple[dict[str, complex], dict[str, float]]] = {
    "GHZ4": ({"0000": 1.0, "1111": 1.0}, {"volume": 0.3333}),
    "W4": ({"1000": 1.0, "0100": 1.0, "0010": 1.0, "0001": 1.0}, {"volume": 0.1875}),
    "psi_A": ({"0000": 1.0, "1011": 1.0, "1101": 1.0, "1110": 1.0}, {"volume": 0.3468, "c_gme": 0.8660}),
    "psi_B": ({"0000": 1.0, "0101": 1.0, "1000": 1.0, "1110": 1.0}, {"volume": 0.2788, "c_gme": 0.8660}),
    "psi_C": (
        {"0000": 1.0, "1111": 1.0, "0011": 1.0, "0101": 1.0, "0110": 1.0},
        {"volume": 0.1487, "c_gme": 0.8000},
    ),
    "psi_D": (
        {"0000": _T, "0101": _T, "1010": _T, "1111": _T, "0001": 1j, "0110": 1.0, "1011": -1j},
        {"volume": 0.3407, "c_gme": 0.8000},
    ),
    "phi_12345": ({"00000": 1.0, "01010": 1.0, "10100": 1.0, "11110": 1.0}, {"volume": 0.0}),
}

# Tolerance against the 4-decimal prints, per quantity.
PUBLISHED_TOL = {"volume": 2e-3, "c_gme": 1e-4}


def benchmark_states() -> dict[str, PureState]:
    """The fixed benchmark suite, keyed by the identifiers used in reports."""
    return {sid: _kets(len(next(iter(kets))), kets) for sid, (kets, _) in PAPER_STATES.items()}
