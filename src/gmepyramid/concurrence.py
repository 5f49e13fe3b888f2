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

It runs the cut forest held in the same table entry as the cuts
(``bipartitions._cut_table``): every cut T below the top size n // 2
hangs under a canonical cut P = T + {x} one party larger, and
rho_T = Tr_x rho_P. The top-size cuts are the roots, and every root takes
one Gram product, as a rule of its own side, rho_P = M M^dag; every cut
below it gets its rho by tracing one site out of its parent's, a sum of
d_x slices of the parent's rho, and its purity as ||rho_T||_F^2. A
lopsided root, whose own side has
d_S^2 > D (dims such as (2, 2, 2, 64, 64)), takes the Gram product of its
other side instead, which has the same purity and is smaller than the
state; its children become roots in turn. So no rho larger than the
state is formed. The forest becomes a plan once per dims tuple
(:func:`_plan`; at most ``_PLAN_CACHE_SIZE`` plans are kept), from parts
built once per party count (:func:`_forest`);
``canonical_bipartitions.cache_clear`` empties both with the cut tables.
The plan groups the roots by the dimension of the side whose Gram product
they take, cuts each group into chunks and, within a chunk, runs the
roots of one shape and subtree (the sites traced, level by level)
together; a childless or lopsided root traces nothing. A chunk's gathered
cut matrices hold no more amplitudes than the state, or than a floor of
2^11 (``_CHUNK_FLOOR``), whichever is larger, so a state above 2^10
amplitudes takes one root per chunk, cut by a transposed copy as
:func:`reduced_purity` cuts it. A chunk takes one gather, one batched
Gram product, one partial trace per step of each of its subtrees over all
of that subtree's roots, and one pass that reduces every purity of the
chunk from one buffer.

At n <= 3 every cut is a childless root, and :func:`full_spectrum` still
takes one :func:`concurrence` call per cut: the benchmark counts the
spectrum's work by the ``reduced_purity`` calls and pins three on GHZ3
(ROADMAP item 1). Real states stay on float64 throughout. Summation orders
differ from the per-cut route, so values agree with it to a few ulps. The
plan also holds each cut's bound sqrt(2 (m - 1) / m), m = min(d_S,
D / d_S), which :class:`ConcurrenceSpectrum` checks every value against.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .bipartitions import Bipartition, _cut_table, canonical_bipartitions, split
from .states import PureState, check_dims

# Largest reduced dimension the dense oracle will materialize.
DENSE_ORACLE_CAP = 4096

# A chunk's gathered cut matrices hold at most this many amplitudes (32 KiB
# of complex128), or one root's when the state is larger.
_CHUNK_FLOOR = 2**11
# Plans kept, one per dims tuple; a permuted dims tuple is another key.
_PLAN_CACHE_SIZE = 64


def _cut_matrix(state: PureState, cut: Bipartition) -> np.ndarray:
    """The d_S x d_rest amplitude matrix of ``cut``, a transposed copy."""
    t = state._tensor.transpose(cut.axes)
    return t.reshape(math.prod(t.shape[: cut.size]), -1)


def _purity(rho: np.ndarray) -> float:
    """||rho||_F^2 of a reduced state, clamped to [0, 1] against rounding."""
    return min(max(float(np.vdot(rho, rho).real), 0.0), 1.0)


def _from_purity(purity: float) -> float:
    return math.sqrt(2.0 * (1.0 - purity))


def reduced_purity(state: PureState, cut: Bipartition | Iterable[int]) -> float:
    """Tr(rho_S^2) of the reduced state across ``cut``, clamped to [0, 1]."""
    if not (isinstance(cut, Bipartition) and cut.n == state.n):  # full_spectrum's roots skip the rebuild
        cut = Bipartition(cut, state.n)
    m = _cut_matrix(state, cut)
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
        bounds = _plan(self.dims).bounds
        if not all(map(operator.le, self.values, bounds)):
            i = next(i for i, (c, b) in enumerate(zip(self.values, bounds)) if c > b)
            cut = self.cuts[i]
            d_s = math.prod([self.dims[s - 1] for s in cut.subset])
            m = min(d_s, math.prod(self.dims) // d_s)
            raise ValueError(
                f"concurrence {self.values[i]!r} across cut {cut.label()} exceeds "
                f"its bound sqrt(2 (m - 1) / m) = {math.sqrt(2.0 * (m - 1) / m)!r} for m = {m}"
            )

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
    """Evaluate every canonical cut of ``state`` by its dims' plan
    (:func:`_plan`): per chunk of roots one stack of cut matrices, one
    batched Gram product, one partial trace per step of each shared
    subtree and one reduction of the purities. Every cut of four or more
    parties is reached so; at n <= 3 each cut takes one :func:`concurrence`
    call instead.

    Each value depends only on the state and its cut's path in the forest,
    not on the other roots of its chunk.
    """
    cuts = canonical_bipartitions(state.n)
    if state.n <= 3:
        # Per cut until ROADMAP item 1: bench/test_bench.py counts the three
        # reduced_purity calls of GHZ3's spectrum.
        return ConcurrenceSpectrum(state.dims, tuple([concurrence(state, cut) for cut in cuts]))
    plan = _plan(state.dims)
    purities = np.concatenate([_chunk_purities(state, *chunk) for chunk in plan.chunks])
    values = np.empty(len(cuts))
    values[plan.order] = np.sqrt(2.0 * (1.0 - np.clip(purities, 0.0, 1.0)))
    return ConcurrenceSpectrum(state.dims, tuple(values.tolist()))


def _chunk_purities(
    state: PureState, source: tuple[tuple[int, ...], int] | np.ndarray, layout: tuple
) -> np.ndarray:
    """Purities of one chunk's reduced states in the order of its buffer.
    The cut matrices go before the traces, and the buffer on return."""
    d_root, size, starts, runs = layout
    if isinstance(source, tuple):  # one root, cut as reduced_purity cuts it
        axes, d_s = source
        m = state._tensor.transpose(axes).reshape(d_s, -1)
        m = (m if d_s == d_root else m.T)[None]  # a lopsided root: the Gram of the columns
    else:
        m = state._tensor.reshape(-1).take(source)
    rhos = np.empty(size, m.dtype)
    roots = rhos[: len(m) * d_root * d_root].reshape(-1, d_root, d_root)
    np.matmul(m, m.conj().transpose(0, 2, 1), out=roots)
    del m
    for lo, hi, steps in runs:
        stack = [roots[lo:hi]]
        for parent, a, d, b, out in steps:
            # Trace out the parent's middle site: the sum of its d diagonal slices.
            x = stack[parent].reshape(-1, a, d, b, a, d, b)
            y = rhos[out].reshape(-1, a, b, a, b)
            np.add(x[:, :, 0, :, :, 0], x[:, :, 1, :, :, 1], out=y)
            for j in range(2, d):
                y += x[:, :, j, :, :, j]
            stack.append(y)
    flat = rhos.view(np.float64)
    if starts is None:  # one state: one dot product, as cheap as reduced_purity's
        return np.array([flat @ flat])
    return np.add.reduceat(np.square(flat), starts[rhos.itemsize])


class _Plan(NamedTuple):
    """What :func:`full_spectrum` does for one dims tuple, and the bounds
    that :class:`ConcurrenceSpectrum` checks; see :func:`_plan` for the
    chunks, which :func:`full_spectrum` does not run at n <= 3, and
    :func:`_layout` for a chunk's layout."""

    chunks: tuple[tuple[tuple[tuple[int, ...], int] | np.ndarray, tuple], ...]  # (source, layout) each
    order: np.ndarray  # the cut of each purity that the chunks return, in turn
    bounds: tuple[float, ...]  # per cut, sqrt(2 (m - 1) / m) and a rounding slack


@functools.cache
def _forest(n: int) -> tuple[np.ndarray, list[bool], list[int], list[tuple]]:
    """What every plan of ``n`` parties shares, whatever the dims: each
    cut's subset padded with 0s to n // 2 sites, whether it has children,
    its subtree id and the key of each id. A key holds the traced position
    and the subtree id of each child, so equal ids trace equal positions
    level by level; id 0, key ``()``, has no children."""
    cuts, (first, kids, traced) = _cut_table(n)
    subsets = np.zeros((len(cuts), n // 2), dtype=np.intp)
    lo = 0
    for k in range(1, n // 2 + 1):
        hi = lo + (math.comb(n, k) if 2 * k < n else math.comb(n, k) // 2)
        flat = itertools.chain.from_iterable(cut.subset for cut in cuts[lo:hi])
        subsets[lo:hi, :k] = np.fromiter(flat, np.intp, (hi - lo) * k).reshape(-1, k)
        lo = hi
    has_kids = [a < b for a, b in zip(first, first[1:])]
    # Children first: a child's id is known when its parent's key is formed.
    subtree, tree_ids = [0] * len(cuts), {(): 0}
    for i in itertools.compress(range(len(cuts)), has_kids):
        key = tuple([(traced[c], subtree[c]) for c in kids[first[i] : first[i + 1]]])
        subtree[i] = tree_ids.setdefault(key, len(tree_ids))
    return subsets, has_kids, subtree, list(tree_ids)


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(dims: tuple[int, ...]) -> _Plan:
    """The spectrum plan and the cut bounds of ``dims``, a checked dims tuple.

    Every root takes one Gram product. A root whose own side has d_S^2 <= D
    takes its own side's and leads its subtree. A lopsided root (d_S^2 > D)
    takes its other side's; it traces nothing, and its children become
    roots in turn. The roots are grouped by the dimension d_root of the side
    whose Gram product they take and cut into chunks of max(1,
    _CHUNK_FLOOR // D) roots. When D > 2^10 a chunk holds one root, and its
    source is the root's transpose order and d_S: its cut matrix is formed
    as :func:`reduced_purity` forms it, and a lopsided root's Gram side is
    that matrix's columns. Otherwise the source is the (B, d_root, D /
    d_root) flat indices of its roots' matrices, the Gram side's sites
    first. Within a chunk, the roots of one Gram-side shape and one subtree
    id form a run that shares its steps; a childless or lopsided root has
    id 0 and no steps. Built from :func:`_forest` with Python per root and
    per step, none per trace.
    """
    n, total = len(dims), math.prod(dims)
    cuts, (first, kids, traced) = _cut_table(n)
    subsets, has_kids, subtree, keys = _forest(n)
    own = np.array((1,) + dims, dtype=np.intp)[subsets]
    d_s = own.prod(axis=1)
    m = np.minimum(d_s, total // d_s)
    # A value at its bound comes from a purity that may round below 1/m: allow
    # 2 sqrt(D) ulps, a few at small D, growing with the amplitudes summed.
    bounds = np.sqrt(2.0 * (m - 1) / m) * (1.0 + 2.0 * math.sqrt(total) * np.finfo(float).eps)

    sides, flipped = d_s.tolist(), (d_s * d_s > total).tolist()
    roots = list(range(len(traced), len(cuts)))
    for r in roots:  # a lopsided root's children join the roots, and are met in turn
        if flipped[r] and has_kids[r]:
            roots += kids[first[r] : first[r + 1]]

    # Roots by Gram-side dimension, then by Gram-side shape and subtree: a run
    # of like roots shares its steps, and a chunk may hold runs of any shape.
    groups, axes = {}, {}
    for r, row in zip(roots, own[roots].tolist()):
        cut = cuts[r]
        k = len(cut.subset)
        if flipped[r]:
            axes[r] = cut.axes[k:] + cut.axes[:k]
            shape, tree = tuple([dims[a] for a in cut.axes[k:]]), 0
        else:
            axes[r], shape, tree = cut.axes, tuple(row[:k]), subtree[r]
        groups.setdefault(math.prod(shape), {}).setdefault((shape, tree), []).append(r)

    per_chunk = max(1, _CHUNK_FLOOR // total)
    if per_chunk > 1:  # D <= 2^10: gathered flat indices fit 16 bits
        flat_ids = np.arange(total, dtype=np.uint16).reshape(dims)
    chunks, order = [], []
    for d_root, by_run in groups.items():
        runs = [
            (roots, *_subtree_steps(shape, tree, keys, roots, first, kids))
            for (shape, tree), roots in by_run.items()
        ]
        if per_chunk == 1:
            for roots, steps, nodes in runs:
                layout = _layout(d_root, [(steps, 1)])
                chunks += [((cuts[r].axes, sides[r]), layout) for r in roots]
                order.append(nodes.T.ravel())
            continue
        members = [r for roots, _, _ in runs for r in roots]
        for c in range(0, len(members), per_chunk):
            # Each run's share of members[c : c + per_chunk], as (steps, nodes).
            parts, at = [], 0
            for roots, steps, nodes in runs:
                lo, hi = max(c - at, 0), min(c + per_chunk - at, len(roots))
                if lo < hi:
                    parts.append((steps, nodes[:, lo:hi]))
                at += len(roots)
            batch = members[c : c + per_chunk]
            index = np.concatenate([flat_ids.transpose(axes[r]) for r in batch], axis=None)
            layout = _layout(d_root, [(steps, nodes.shape[1]) for steps, nodes in parts])
            chunks.append((index.reshape(-1, d_root, total // d_root), layout))
            order += [nodes[0] for _, nodes in parts] + [nodes[1:].ravel() for _, nodes in parts]
    return _Plan(tuple(chunks), np.concatenate(order), tuple(bounds.tolist()))


def _subtree_steps(
    shape: tuple[int, ...], tree: int, keys: list, roots: list[int], first: Sequence[int], kids: Sequence[int]
) -> tuple[list[tuple[int, int, int, int]], np.ndarray]:
    """The steps below a root of Gram-side ``shape`` and subtree id ``tree``,
    and the cut of every slot under each of ``roots``: slot 0 is the root,
    the others follow breadth first, and a step ``(parent, a, d, b)`` traces
    the site of dimension d between a and b others out of slot ``parent``."""
    steps, nodes, slots = [], [roots], [(shape, tree)]
    for parent, (sites, node) in enumerate(slots):
        for rank, (pos, child) in enumerate(keys[node]):
            steps.append((parent, math.prod(sites[:pos]), sites[pos], math.prod(sites[pos + 1 :])))
            nodes.append([kids[first[i] + rank] for i in nodes[parent]])
            slots.append((sites[:pos] + sites[pos + 1 :], child))
    return steps, np.array(nodes, dtype=np.intp)


def _layout(d_root: int, runs: list[tuple[list, int]]) -> tuple:
    """``(d_root, size, starts, runs)`` of a chunk of d_root x d_root root
    states that holds ``count`` roots of each of its ``(steps, count)``
    runs. Its reduced states fill one buffer of ``size`` amplitudes: every
    root's, then run by run and slot by slot those below, root by root.
    ``starts[itemsize]`` holds where each state begins in the buffer's
    float64 view (1 float per float64 amplitude, 2 per complex128), and
    ``starts`` is None when the buffer holds one state. A run
    with steps becomes ``(lo, hi, steps)``: its roots are rows lo:hi of the
    chunk's, and a step ``(parent, a, d, b, out)`` writes the slice ``out``
    of the buffer."""
    size = sum(count for _, count in runs) * d_root * d_root
    starts, placed, lo = [range(0, size, d_root * d_root)], [], 0
    for steps, count in runs:
        run = []
        for parent, a, d, b in steps:
            length = (a * b) ** 2
            starts.append(range(size, size + count * length, length))
            run.append((parent, a, d, b, slice(size, size + count * length)))
            size += count * length
        if run:
            placed.append((lo, lo + count, tuple(run)))
        lo += count
    if size == d_root * d_root:
        return d_root, size, None, ()
    at = np.fromiter(itertools.chain.from_iterable(starts), dtype=np.intp)
    return d_root, size, {8: at, 16: 2 * at}, tuple(placed)


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


def _clear_shape_caches() -> None:
    """Empty the cut tables and the forest parts and spectrum plans built on them."""
    _cut_table.cache_clear()
    _forest.cache_clear()
    _plan.cache_clear()


# One call empties every shape cache; cache_info still reports the cut tables.
canonical_bipartitions.cache_clear = _clear_shape_caches
