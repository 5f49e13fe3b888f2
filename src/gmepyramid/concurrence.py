"""Concurrence of pure-state bipartitions via reduced-state purity.

Two independent evaluation paths are kept on purpose. The fast route
(:func:`reduced_purity`) reshapes the amplitude tensor into a cut-by-rest
matrix M and takes the squared Frobenius norm of the Gram matrix M M^dag,
which equals Tr(rho_S^2) without any eigendecomposition. A state whose
amplitudes all have an exactly zero imaginary part is decided real once,
on first use, and its Gram products run on a float64 view (a real
symmetric rank-k update) instead of complex128. What depends only on the
shape (the transpose axes of a cut, the dimension of its side and which
side is smaller) is laid out once per ``(dims, cut)`` and kept in a bounded
cache, as is the canonical cut list of each party count; the purities
themselves are computed afresh for every state. The naive route
(:func:`dense_oracle_purity`) rebuilds the reduced density matrix by
explicit digit-stride index arithmetic, one complement basis state at a
time, and serves as a cross-check against indexing mistakes in the fast
path.
"""

from __future__ import annotations

import functools
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
    axes, d_s, left = _cut_layout(state.dims, cut if isinstance(cut, Bipartition) else tuple(cut))
    m = state._tensor.transpose(axes).reshape(d_s, -1)
    # Gram matrix of the smaller side; its squared Frobenius norm is the purity.
    g = m @ m.conj().T if left else m.conj().T @ m
    purity = float(np.real(np.vdot(g, g)))
    return min(max(purity, 0.0), 1.0)


# 4096 entries hold all 4095 canonical cuts of one 13-party shape, or every
# cut of the few smaller shapes a batch sweeps over; an entry takes about
# 450 bytes at N = 13, so a full cache holds under 2 MiB.
@functools.lru_cache(maxsize=4096)
def _cut_layout(
    dims: tuple[int, ...], cut: Bipartition | tuple[int, ...]
) -> tuple[tuple[int, ...], int, bool]:
    """Transpose axes putting ``cut``'s side first, that side's dimension, and
    whether it is the smaller side of the cut-by-rest matrix."""
    subset, rest = split(cut, len(dims))
    d_s = math.prod(dims[i - 1] for i in subset)
    return tuple(i - 1 for i in subset + rest), d_s, d_s * d_s <= math.prod(dims)


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
