"""Concurrence of pure-state bipartitions via reduced-state purity.

Two independent evaluation paths are kept on purpose. The fast route
(:func:`reduced_purity`) reshapes the amplitude tensor into a cut-by-rest
matrix M and takes the squared Frobenius norm of the Gram matrix M M^dag,
which equals Tr(rho_S^2) without any eigendecomposition. A state whose
amplitudes all have an exactly zero imaginary part is decided real when it
is constructed, and its Gram products run on a float64 view (a real
symmetric rank-k update) instead of complex128. Every spelling of a cut is
mapped by ``Bipartition`` to one canonical cut, which carries its
transpose order, so all spellings give a bit-identical purity.
The naive route (:func:`dense_oracle_purity`) rebuilds the reduced density
matrix of the given side from flat indices built by explicit digit-stride
arithmetic: it gathers the cut-by-rest amplitude matrix A in one step (one
transient copy of the state), forms rho_S = A A^dag and takes Tr(rho_S^2).
It never reshapes or transposes the state tensor, and serves as a
cross-check against indexing mistakes in the fast path.

:func:`full_spectrum` holds a state's spectrum as one row, ``(dims, values)``:
the concurrences in the order of the shared ``canonical_bipartitions`` tuple,
which ``cuts`` reads from the table cache. Because the cuts are grouped by
size, the one-versus-rest values are the slice ``values[:n]`` and the
multi-party values ``values[n:]``; a cut-keyed dict is built only when
``entries`` is read.

It walks the cut forest held in the same table entry as the cuts
(``bipartitions._cut_table``): every cut T below the top size n // 2
hangs under a canonical cut P = T + {x} one party larger, and
rho_T = Tr_x rho_P. A top-size root with children pays one
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

from .bipartitions import Bipartition, _cut_table, canonical_bipartitions, split
from .states import PureState, check_dims

# Largest reduced dimension the dense oracle will materialize.
DENSE_ORACLE_CAP = 4096


def _cut_matrix(state: PureState, cut: Bipartition) -> tuple[np.ndarray, tuple[int, ...]]:
    """The d_S x d_rest amplitude matrix of ``cut`` (a transposed copy) and S's shape."""
    t = state._tensor.transpose(cut.axes)
    shape = t.shape[: cut.size]
    return t.reshape(math.prod(shape), -1), shape


def _purity(rho: np.ndarray) -> float:
    """||rho||_F^2 of a reduced state, clamped to [0, 1] against rounding."""
    return min(max(float(np.vdot(rho, rho).real), 0.0), 1.0)


def _from_purity(purity: float) -> float:
    return math.sqrt(2.0 * (1.0 - purity))


def reduced_purity(state: PureState, cut: Bipartition | Iterable[int]) -> float:
    """Tr(rho_S^2) of the reduced state across ``cut``, clamped to [0, 1]."""
    if not (isinstance(cut, Bipartition) and cut.n == state.n):  # full_spectrum's roots skip the rebuild
        cut = Bipartition(cut, state.n)
    m, _ = _cut_matrix(state, cut)
    # Gram matrix of the smaller side; its squared Frobenius norm is the purity.
    return _purity(m @ m.conj().T if m.shape[0] <= m.shape[1] else m.conj().T @ m)


def concurrence(state: PureState, cut: Bipartition | Iterable[int]) -> float:
    """sqrt(2 [1 - Tr(rho_S^2)]) across ``cut``; symmetric under cut <-> complement."""
    return _from_purity(reduced_purity(state, cut))


@dataclass(frozen=True)
class ConcurrenceSpectrum:
    """Concurrence of every canonical bipartition of one state, as one row.

    ``values[i]`` is the concurrence across ``cuts[i]``, where ``cuts`` is
    the shared ``canonical_bipartitions`` tuple of n = len(dims) parties:
    smallest cut first, lexicographic within a size group, so the n
    one-versus-rest values lead the row in subsystem order. Every value
    lies in [0, sqrt(2)].
    """

    dims: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", check_dims(self.dims))
        object.__setattr__(self, "values", tuple(self.values))
        expected = 2 ** (self.n - 1) - 1
        if len(self.values) != expected:
            raise ValueError(f"expected {expected} values, got {len(self.values)}")
        # Three C-level passes. sqrt(2) is the value of a purity clamped to 0.
        if any(map(math.isnan, self.values)):
            raise ValueError("a concurrence value is NaN")
        lo, hi = min(self.values), max(self.values)
        if lo < 0.0 or hi > math.sqrt(2.0):
            raise ValueError(f"concurrences lie in [0, sqrt(2)], got {lo if lo < 0.0 else hi!r}")

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def cuts(self) -> tuple[Bipartition, ...]:
        """The canonical cuts of n parties, read from the table cache without enumerating."""
        return _cut_table(self.n)[0]

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
    first, kids, traced = _cut_table(state.n)[1]
    dims = state.dims
    values = [0.0] * len(cuts)

    def descend(i: int, rho: np.ndarray) -> None:
        # rho is the reduced state of cut i as a tensor: its sites, then their copies.
        values[i] = _from_purity(_purity(rho))
        size = rho.ndim // 2
        for j in range(first[i], first[i + 1]):
            c = kids[j]
            descend(c, rho.trace(0, traced[c], size + traced[c]))

    roots = list(range(len(traced), len(cuts)))
    for i in roots:
        cut = cuts[i]
        lo, hi = first[i], first[i + 1]
        if lo < hi:
            # Decided before the reshape copies the state.
            d_s = math.prod([dims[s - 1] for s in cut.subset])
            if d_s * d_s <= state.dim:
                m, shape = _cut_matrix(state, cut)
                rho = m @ m.conj().T
                del m  # the transposed copy goes before the walk and the next root
                descend(i, rho.reshape(shape + shape))
                del rho
                continue
            # Its own side's rho would outgrow the state: the children join the roots.
            roots.extend(kids[lo:hi])
        values[i] = concurrence(state, cut)
    return ConcurrenceSpectrum(dims, tuple(values))


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
