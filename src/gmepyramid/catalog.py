"""Built-in reference states and their published benchmark values.

Each built-in state is written as kets, ``{bit string: amplitude}`` with
subsystem 1 as the leftmost bit, exactly as its docstring reads; ``_kets``
checks the qubit count before it allocates the 2**n amplitudes, and
``ghz_state`` and ``w_state`` check it before they build their n-bit kets. The
four-qubit benchmark family psi_A..psi_D and the biseparable five-qubit
state phi_12345 are pinned here with exact coefficients so the ``paper``
CLI command works offline. psi_D's large coefficient is the radical
sqrt((5 sqrt(113) + 51) / 32), engineered so that its minimum cut
concurrence is exactly 4/5.
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


def psi_a() -> PureState:
    """(|0000> + |1011> + |1101> + |1110>)/2."""
    return _kets(4, {"0000": 1.0, "1011": 1.0, "1101": 1.0, "1110": 1.0})


def psi_b() -> PureState:
    """(|0000> + |0101> + |1000> + |1110>)/2."""
    return _kets(4, {"0000": 1.0, "0101": 1.0, "1000": 1.0, "1110": 1.0})


def psi_c() -> PureState:
    """(|0000> + |1111> + |0011> + |0101> + |0110>)/sqrt(5)."""
    return _kets(4, {"0000": 1.0, "1111": 1.0, "0011": 1.0, "0101": 1.0, "0110": 1.0})


def psi_d() -> PureState:
    """t(|0000> + |0101> + |1010> + |1111>) + i|0001> + |0110> - i|1011>, normalized."""
    t = math.sqrt((5.0 * math.sqrt(113.0) + 51.0) / 32.0)
    return _kets(
        4, {"0000": t, "0101": t, "1010": t, "1111": t, "0001": 1j, "0110": 1.0, "1011": -1j}
    )


def phi_biseparable() -> PureState:
    """(|00000> + |01010> + |10100> + |11110>)/2; factorizes as (13)(245)."""
    return _kets(5, {"00000": 1.0, "01010": 1.0, "10100": 1.0, "11110": 1.0})


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
