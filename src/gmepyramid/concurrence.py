"""Concurrence of pure-state bipartitions via reduced-state purity.

Two independent evaluation paths are kept on purpose. The fast route
(:func:`reduced_purity`) reshapes the amplitude tensor into a cut-by-rest
matrix M and takes the squared Frobenius norm of the Gram matrix M M^dag,
which equals Tr(rho_S^2) without any eigendecomposition. A state whose
amplitudes all have an exactly zero imaginary part is decided real when it
is constructed, and its Gram products run on a float64 view (a real
symmetric rank-k update) instead of complex128. Every spelling of a cut is
mapped by ``bipartitions.canonical_cut`` to one canonical cut, which
carries its transpose order, so all spellings give a bit-identical purity.
The naive route (:func:`dense_oracle_purity`) rebuilds the reduced density
matrix of the given side from flat indices built by explicit digit-stride
arithmetic: it gathers the cut-by-rest amplitude matrix A in one step (one
transient copy of the state), forms rho_S = A A^dag and takes Tr(rho_S^2).
It never reshapes or transposes the state tensor, and serves as a
cross-check against indexing mistakes in the fast path.

:func:`full_spectrum` holds a state's spectrum as one row: the shared
``canonical_bipartitions`` tuple and a tuple of concurrences in the same
order. Because the cuts are grouped by size, the one-versus-rest values are
the slice ``values[:n]`` and the multi-party values ``values[n:]``; a
cut-keyed dict is built only when ``entries`` is read.

It walks the cut forest (``bipartitions.cut_forest``): every cut T below
the top size n // 2 hangs under a canonical cut P = T + {x} one party
larger, and rho_T = Tr_x rho_P. A top-size root with children pays one
transpose and one Gram product, rho_P = M M^dag of its own side; every cut
below it gets its rho by tracing one site out of its parent's, a sum of
d_x slices of the parent's rho, and its purity as ||rho_T||_F^2. A root
without children goes through :func:`reduced_purity`, which keeps the
cheaper Gram orientation; at n <= 3 every cut is such a root. No rho larger
than the state is formed: a root whose own side has d_S^2 > d_S d_rest
(lopsided dims such as (2, 2, 2, 64, 64)) goes through
:func:`reduced_purity` too, and its children become roots in turn. Real
states stay on float64 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bipartitions import Bipartition, canonical_bipartitions, canonical_cut, cut_forest, split
from .states import PureState

# Largest reduced dimension the dense oracle will materialize.
DENSE_ORACLE_CAP = 4096


def reduced_purity(state: PureState, cut: Bipartition | Iterable[int]) -> float:
    """Tr(rho_S^2) of the reduced state across ``cut``, clamped to [0, 1]."""
    cut = canonical_cut(cut, state.n)
    t = state._tensor.transpose(cut.axes)
    d_s = math.prod(t.shape[: cut.size])
    m = t.reshape(d_s, -1)
    # Gram matrix of the smaller side; its squared Frobenius norm is the purity.
    g = m @ m.conj().T if d_s * d_s <= t.size else m.conj().T @ m
    purity = float(np.vdot(g, g).real)
    return min(max(purity, 0.0), 1.0)


def concurrence(state: PureState, cut: Bipartition | Iterable[int]) -> float:
    """sqrt(2 [1 - Tr(rho_S^2)]) across ``cut``; symmetric under cut <-> complement."""
    return math.sqrt(2.0 * (1.0 - reduced_purity(state, cut)))


@dataclass(frozen=True)
class ConcurrenceSpectrum:
    """Concurrence of every canonical bipartition of one state, as one row.

    ``cuts`` holds the 2**(n-1) - 1 canonical cuts of n parties, strictly
    increasing in (size, subset): smallest cut first, lexicographic within a
    size group. ``values[i]`` is the concurrence across ``cuts[i]``, so the
    n one-versus-rest values lead the row in subsystem order.
    """

    dims: tuple[int, ...]
    cuts: tuple[Bipartition, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        n = self.n
        expected = 2 ** (n - 1) - 1
        if len(self.cuts) != expected:
            raise ValueError(f"expected {expected} canonical cuts, got {len(self.cuts)}")
        if len(self.values) != expected:
            raise ValueError(f"expected {expected} values, got {len(self.values)}")
        previous: tuple = (0, ())
        for cut in self.cuts:
            if cut.n != n:
                raise ValueError(f"cut {cut.label()} is for {cut.n} parties, spectrum has {n}")
            key = (len(cut.subset), cut.subset)
            if key <= previous:
                raise ValueError(
                    "cuts must be strictly increasing in (size, subset); "
                    f"{cut.label()} is out of order"
                )
            previous = key

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def entries(self) -> dict[Bipartition, float]:
        """The row as a cut -> concurrence mapping, in canonical order."""
        return dict(zip(self.cuts, self.values))

    def singletons(self) -> tuple[float, ...]:
        """One-versus-rest concurrences, in subsystem order."""
        return self.values[: self.n]

    def multis(self) -> tuple[float, ...]:
        """Concurrences of all cuts with two or more subsystems."""
        return self.values[self.n :]


def full_spectrum(state: PureState) -> ConcurrenceSpectrum:
    """Evaluate every canonical cut of ``state``: one Gram product per root of
    the cut forest that has children, one partial trace per cut below it,
    and one :func:`reduced_purity` call per other root.

    Each value depends only on the state and its cut's path in the forest,
    not on the order in which the cuts are visited.
    """
    cuts = canonical_bipartitions(state.n)
    first, kids, traced = cut_forest(state.n)
    tensor = state._tensor
    values = [0.0] * len(cuts)

    def descend(i: int, rho: np.ndarray) -> None:
        # rho is the reduced state of cut i as a tensor: its sites, then their copies.
        values[i] = math.sqrt(2.0 * (1.0 - min(max(np.vdot(rho, rho).real, 0.0), 1.0)))
        size = rho.ndim // 2
        for j in range(first[i], first[i + 1]):
            c = kids[j]
            descend(c, rho.trace(0, traced[c], size + traced[c]))

    roots = list(range(len(traced), len(cuts)))
    for i in roots:
        cut = cuts[i]
        lo, hi = first[i], first[i + 1]
        if lo < hi:
            t = tensor.transpose(cut.axes)
            shape = t.shape[: cut.size]
            d_s = math.prod(shape)
            if d_s * d_s <= t.size:
                m = t.reshape(d_s, -1)
                rho = m @ m.conj().T
                del m  # the transposed copy goes before the walk and the next root
                descend(i, rho.reshape(shape + shape))
                del rho
                continue
            # Its own side's rho would outgrow the state: the children join the roots.
            roots.extend(kids[lo:hi])
        values[i] = math.sqrt(2.0 * (1.0 - reduced_purity(state, cut)))
    return ConcurrenceSpectrum(state.dims, cuts, tuple(values))


def dense_oracle_purity(state: PureState, cut: Bipartition | Iterable[int]) -> float:
    """Purity via explicit reconstruction of the reduced density matrix.

    Flat indices are assembled from digit grids and site strides,
    independent of the reshape/transpose machinery of
    :func:`reduced_purity`: the d_S x d_rest amplitude matrix A of the
    given side is gathered from the flat vector in one indexing step, and
    rho_S = A A^dag is one product whose Tr(rho_S^2) is returned. The
    gather holds one transient copy of the state plus its index array.
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
        # One column per digit tuple, in row-major order: the first site varies slowest.
        digits = np.indices([state.dims[i - 1] for i in sites], dtype=np.intp)
        site_strides = np.array([strides[i - 1] for i in sites], dtype=np.intp)
        return site_strides @ digits.reshape(len(sites), -1)

    a = state.amplitudes[offsets(subset)[:, None] + offsets(comp)]
    rho = a @ a.conj().T
    return float(np.real(np.trace(rho @ rho)))
