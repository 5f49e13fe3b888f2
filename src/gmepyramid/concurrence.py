"""Concurrence of pure-state bipartitions via reduced-state purity.

Two independent evaluation paths are kept on purpose. The fast route
(:func:`reduced_purity`) reshapes the amplitude tensor into a cut-by-rest
matrix M and takes the squared Frobenius norm of the Gram matrix M M^dag,
which equals Tr(rho_S^2) without any eigendecomposition. A state whose
amplitudes all have an exactly zero imaginary part is decided real once,
on first use, and its Gram products run on a float64 view (a real
symmetric rank-k update) instead of complex128. A canonical cut carries
its own transpose order; any other spelling of a cut is first mapped to its
canonical cut, so every spelling gives a bit-identical purity. The naive route
(:func:`dense_oracle_purity`) rebuilds the reduced density matrix by
explicit digit-stride index arithmetic, one complement basis state at a
time, and serves as a cross-check against indexing mistakes in the fast
path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bipartitions import Bipartition, canonical_bipartitions, split
from .states import PureState

# Largest reduced dimension the dense oracle will materialize.
DENSE_ORACLE_CAP = 4096


def reduced_purity(state: PureState, cut: Bipartition | Iterable[int]) -> float:
    """Tr(rho_S^2) of the reduced state across ``cut``, clamped to [0, 1]."""
    if not (isinstance(cut, Bipartition) and cut.n == state.n):
        # The side with fewer parties; on a tie, the side holding subsystem 1.
        cut = Bipartition(min(split(cut, state.n), key=lambda s: (len(s), s[0])), state.n)
    t = state._tensor.transpose(cut.axes)
    d_s = math.prod(t.shape[: cut.size])
    m = t.reshape(d_s, -1)
    # Gram matrix of the smaller side; its squared Frobenius norm is the purity.
    g = m @ m.conj().T if d_s * d_s <= t.size else m.conj().T @ m
    purity = float(np.real(np.vdot(g, g)))
    return min(max(purity, 0.0), 1.0)


def concurrence(state: PureState, cut: Bipartition | Iterable[int]) -> float:
    """sqrt(2 [1 - Tr(rho_S^2)]) across ``cut``; symmetric under cut <-> complement."""
    return math.sqrt(2.0 * (1.0 - reduced_purity(state, cut)))


@dataclass(frozen=True)
class ConcurrenceSpectrum:
    """Concurrence of every canonical bipartition of one state.

    ``entries`` is ordered smallest cut first, lexicographic within a size
    group, and always holds 2**(n-1) - 1 values.
    """

    dims: tuple[int, ...]
    entries: dict[Bipartition, float]

    def __post_init__(self) -> None:
        expected = 2 ** (self.n - 1) - 1
        if len(self.entries) != expected:
            raise ValueError(f"expected {expected} canonical cuts, got {len(self.entries)}")

    @property
    def n(self) -> int:
        return len(self.dims)

    def singletons(self) -> list[float]:
        """One-versus-rest concurrences, in subsystem order."""
        return [c for cut, c in self.entries.items() if cut.size == 1]

    def multis(self) -> list[float]:
        """Concurrences of all cuts with two or more subsystems."""
        return [c for cut, c in self.entries.items() if cut.size >= 2]


def full_spectrum(state: PureState) -> ConcurrenceSpectrum:
    """Evaluate every canonical cut of ``state``.

    Cuts are independent pure computations; the result does not depend on
    evaluation order.
    """
    entries = {cut: concurrence(state, cut) for cut in canonical_bipartitions(state.n)}
    return ConcurrenceSpectrum(state.dims, entries)


def dense_oracle_purity(state: PureState, cut: Bipartition | Iterable[int]) -> float:
    """Purity via explicit reconstruction of the reduced density matrix.

    Flat indices are assembled digit by digit from strides, independent of
    the reshape/transpose machinery of :func:`reduced_purity`, and rho_S is
    accumulated as a sum of outer products over complement basis states.
    Intended for verification; refuses reduced dimensions above
    ``DENSE_ORACLE_CAP``.
    """
    subset, comp = split(cut, state.n)
    d_s = math.prod(state.dims[i - 1] for i in subset)
    if d_s > DENSE_ORACLE_CAP:
        raise ValueError(f"reduced dimension {d_s} exceeds the dense cap {DENSE_ORACLE_CAP}")

    strides = [0] * state.n
    acc = 1
    for i in range(state.n - 1, -1, -1):
        strides[i] = acc
        acc *= state.dims[i]

    def offsets(sites: tuple[int, ...]) -> np.ndarray:
        out = []
        for digits in itertools.product(*(range(state.dims[i - 1]) for i in sites)):
            out.append(sum(b * strides[i - 1] for b, i in zip(digits, sites)))
        return np.array(out, dtype=np.intp)

    sub_off = offsets(subset)
    rho = np.zeros((d_s, d_s), dtype=complex)
    for comp_off in offsets(comp):
        col = state.amplitudes[sub_off + comp_off]
        rho += np.outer(col, col.conj())
    return float(np.real(np.trace(rho @ rho)))
