"""Concurrence of pure-state bipartitions via reduced-state purity.

Three purity routes are kept. The spectrum plan of
:func:`full_spectrum`, described below, serves every cut of a state of four
or more parties. :func:`reduced_purity` serves each cut at n <= 3 and every
single-cut call (:func:`concurrence`): it reshapes the amplitude tensor into
a cut-by-rest matrix M and takes the squared Frobenius norm of the Gram
matrix M M^dag, which equals Tr(rho_S^2) without any eigendecomposition.
:func:`dense_oracle_purity` is the cross-check of both. A state whose
amplitudes all have an exactly zero imaginary part is decided real when it
is constructed, and its Gram products run on a float64 view (a real
symmetric rank-k update) instead of complex128. Every spelling of a cut is
mapped by ``Bipartition`` to one canonical cut, which carries its
transpose order, so all spellings give a bit-identical purity.
The oracle, a deliberately naive route that keeps no per-shape state,
forms the reduced density matrix of the side it is given, even when the
other side is smaller: it takes that side's sites from :func:`split`, transposes the complex
amplitudes once into the cut-by-rest matrix A (one transient copy of the
state), forms rho_S = A A^dag and takes Tr(rho_S^2). Its transpose order
is the two sides in turn, not one read from the cut table or a plan, and it
reads ``amplitudes`` rather than the real view the other two routes take of
a real state.

:func:`full_spectrum` holds a state's spectrum as one row, ``(dims, values)``:
the concurrences in the order of the shared ``canonical_bipartitions`` tuple,
which is built only when ``cuts`` or ``entries`` is read. Because the cuts are
grouped by size, the one-versus-rest values are the slice ``values[:n]`` and
the multi-party values ``values[n:]``; a cut-keyed dict is built only when
``entries`` is read.

It runs the cut forest held in the per-N table entry of plain subsets
(``bipartitions._cut_table``): every cut T below the top size n // 2
hangs under a canonical cut P = T + {x} one party larger, and
rho_T = Tr_x rho_P. At odd n = 2k + 1 up to 13 the forest reaches one
level higher: a top-size cut R without sites 1 and n is a node whose
children hang on its rest H, a hub of k + 1 sites that holds 1 and n, and
every other top-size cut is H minus one site for exactly one hub. The
cuts with no parent, the hub roots or else the top-size cuts, are the
roots. Every root takes one Gram product rho = M M^dag of its Gram side:
its own side, or the rest, which has the same purity, when m < d_S (a
lopsided root, dims such as (2, 2, 2, 64, 64)) or when it is a hub root
whose hub is taken. A hub is taken above 2^10 amplitudes when d_H^2 <=
min(2 D, ``_HUB_CAP``), 2^14 amplitudes; its children then take a trace
of rho_H in place of a Gram product of their own (13 qubits: 462 Gram
products in place of 1716), and, each a site of dimension >= 2 smaller,
none of them is lopsided. A lopsided root, or a hub root whose hub is not
taken, traces nothing, and its children become roots in turn. Every other
cut gets its rho by tracing one site out of its parent's, a sum of d_x
slices of the parent's rho, and its purity as ||rho_T||_F^2. So no rho
larger than the state is formed, apart from a taken hub's, which holds at
most twice the state and at most 2^14 amplitudes. The forest becomes a
plan once per dims tuple (:func:`_plan`; at most ``_PLAN_CACHE_SIZE``
plans are kept), which adds to the table entry only what depends on dims;
:func:`clear_shape_caches` empties the plans with the table entries and
the cut tuples. The plan groups the roots by their Gram
side's dimension and cuts each group into chunks of q^2 roots, q = 2^11 // D
the number of states that fit in the floor ``_CHUNK_FLOOR``: a chunk gathers
2^13 amplitudes at D = 2^9 and 2^12 at 2^10, and a state above 2^10
amplitudes takes one root per chunk, whose cut matrix is one transposed
copy of the state, the Gram side's sites first. One builder,
:func:`_chunks`, walks the runs of a chunk (its roots of one shape and
subtree, the sites traced level by level) breadth first and makes the
chunk one flat record: its source, buffer size, state starts and levels.
A level writes every state of one forest depth, across the chunk's runs,
each one site smaller than its parent: per diagonal slice j of the traced
site, one gather from the buffer at flat indices the plan holds, read-only,
and one add, x_0 + x_1, then + x_j while the site's dimension d > j: the
slices are summed in turn, so no value depends on the buffer's layout. A
root that is childless or traces nothing reaches no level. A chunk takes
one gather of its cut matrices, one batched Gram product, its levels in
turn, and one pass that reduces every purity of the chunk from its buffer.
The chunks take their buffers in turn from one allocation per spectrum,
the size of the largest.

At n <= 3 :func:`full_spectrum` runs no plan and still takes one
:func:`concurrence` call per cut: the benchmark counts the spectrum's work
by the ``reduced_purity`` calls and pins three on GHZ3 (ROADMAP item 1).
Real states stay on float64 throughout. Summation orders differ from the
per-cut route, so values agree with it to a few ulps. The plan also holds
each cut's bound sqrt(2 (m - 1) / m), m = min(d_S, D / d_S), which
:class:`ConcurrenceSpectrum` checks every value against.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .bipartitions import _HUB_CAP, Bipartition, _cut_table, _cuts, canonical_bipartitions, split
from .states import PureState, check_dims

# Largest reduced dimension the dense oracle will materialize.
DENSE_ORACLE_CAP = 4096

# A chunk of a state of D amplitudes holds (_CHUNK_FLOOR // D)^2 roots, and
# one root above _CHUNK_FLOOR / 2: the smaller the state, the more a chunk's
# fixed Python and numpy calls cost per flop, so the more roots it takes.
_CHUNK_FLOOR = 2**11
# Plans kept, one per dims tuple; a permuted dims tuple is another key.
_PLAN_CACHE_SIZE = 64


def reduced_purity(state: PureState, cut: Bipartition | Iterable[int]) -> float:
    """Tr(rho_S^2) of the reduced state across ``cut``, clamped to [0, 1]."""
    if not (isinstance(cut, Bipartition) and cut.n == state.n):  # a table cut skips the rebuild
        cut = Bipartition(cut, state.n)
    t = state._tensor.transpose(cut.axes)
    m = t.reshape(math.prod(t.shape[: cut.size]), -1)
    # Gram matrix of the smaller side; its squared Frobenius norm is the purity.
    rho = m @ m.conj().T if m.shape[0] <= m.shape[1] else m.conj().T @ m
    return min(max(float(np.vdot(rho, rho).real), 0.0), 1.0)


def concurrence(state: PureState, cut: Bipartition | Iterable[int]) -> float:
    """sqrt(2 [1 - Tr(rho_S^2)]) across ``cut``; symmetric under cut <-> complement."""
    return math.sqrt(2.0 * (1.0 - reduced_purity(state, cut)))


@dataclass(frozen=True)
class ConcurrenceSpectrum:
    """Concurrence of every canonical bipartition of one state, as one row.

    ``values[i]`` is the concurrence across ``cuts[i]``, where ``cuts`` is
    the shared ``canonical_bipartitions`` tuple of n = len(dims) parties:
    smallest cut first, lexicographic within a size group, so the n
    one-versus-rest values lead the row in subsystem order. Every value
    lies in [0, b], b its cut's bound (below sqrt(2)), checked in one pass;
    only a row that fails it takes the passes that name the fault.
    """

    dims: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", check_dims(self.dims))
        object.__setattr__(self, "values", tuple(self.values))
        expected = 2 ** (self.n - 1) - 1
        if len(self.values) != expected:
            raise ValueError(f"expected {expected} values, got {len(self.values)}")
        # NaN fails the comparison. sqrt(2) is the value of a purity clamped to 0.
        bounds = _plan(self.dims).bounds
        if min(self.values) >= 0.0 and all(map(operator.le, self.values, bounds)):
            return
        if any(map(math.isnan, self.values)):
            raise ValueError("a concurrence value is NaN")
        lo, hi = min(self.values), max(self.values)
        if lo < 0.0 or hi > math.sqrt(2.0):
            raise ValueError(f"concurrences lie in [0, sqrt(2)], got {lo if lo < 0.0 else hi!r}")
        i = next(i for i, (c, b) in enumerate(zip(self.values, bounds)) if c > b)
        table = _cut_table(self.n)
        d_s = math.prod([self.dims[s - 1] for s in table.subsets[i].tolist() if s])
        m = min(d_s, math.prod(self.dims) // d_s)
        raise ValueError(
            f"concurrence {self.values[i]!r} across cut {table.labels[i]} exceeds "
            f"its bound sqrt(2 (m - 1) / m) = {math.sqrt(2.0 * (m - 1) / m)!r} for m = {m}"
        )

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def cuts(self) -> tuple[Bipartition, ...]:
        """The shared ``canonical_bipartitions`` tuple of n parties, built on first read."""
        return _cuts(self.n)

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
    batched Gram product, the chunk's levels, each one partial trace of
    every state of a forest depth by gathers from the chunk's buffer, and
    one reduction of the purities. Every cut of four or more parties is
    reached so; at n <= 3 each cut takes one :func:`concurrence` call
    instead.

    Each value depends only on the state and its cut's path in the forest,
    not on the other roots of its chunk.
    """
    if state.n <= 3:
        # Per cut until ROADMAP item 1: bench/test_bench.py counts the three
        # reduced_purity calls of GHZ3's spectrum.
        cuts = canonical_bipartitions(state.n)
        return ConcurrenceSpectrum(state.dims, tuple([concurrence(state, cut) for cut in cuts]))
    plan = _plan(state.dims)
    # One buffer serves every chunk in turn: a fresh one per chunk, once it
    # outgrows malloc's mmap threshold, faults in all its pages again.
    buffer = np.empty(plan.buffer, state._tensor.dtype)
    purities = np.concatenate([_chunk_purities(state, buffer, *chunk) for chunk in plan.chunks])
    values = np.empty(len(plan.bounds))
    values[plan.order] = np.sqrt(2.0 * (1.0 - np.clip(purities, 0.0, 1.0)))
    return ConcurrenceSpectrum(state.dims, tuple(values.tolist()))


def _chunk_purities(
    state: PureState,
    buffer: np.ndarray,
    source: tuple[int, ...] | np.ndarray,
    d_root: int,
    size: int,
    starts,
    levels,
) -> np.ndarray:
    """Purities of one chunk's reduced states in the order of its buffer,
    the first ``size`` amplitudes of ``buffer``, which the chunk overwrites.
    ``source`` is one root's transpose order, its Gram side's sites first,
    or the chunk's gathered flat indices (:func:`_plan`). The cut matrices
    go before the traces, which run one forest level at a time."""
    if isinstance(source, tuple):  # one root: its transpose order, Gram side first
        m = state._tensor.transpose(source).reshape(1, d_root, -1)
    else:
        m = state._tensor.reshape(-1).take(source)
    rhos = buffer[:size]
    roots = rhos[: len(m) * d_root * d_root].reshape(-1, d_root, d_root)
    np.matmul(m, m.conj().transpose(0, 2, 1), out=roots)
    del m
    for out, gathers in levels:
        # Each state of the level is the sum of its parent's d diagonal
        # slices, term by term in order: x_0 + x_1, then + x_j while d > j.
        y = rhos[out]
        np.add(rhos.take(gathers[0]), rhos.take(gathers[1]), out=y)
        for gather in gathers[2:]:
            part = y[: len(gather)]
            part += rhos.take(gather)
    flat = rhos.view(np.float64)
    if starts is None:  # one state: one dot product, as cheap as reduced_purity's
        return np.array([flat @ flat])
    return np.add.reduceat(np.square(flat, out=flat), starts[rhos.itemsize])


class _Plan(NamedTuple):
    """What :func:`full_spectrum` does for one dims tuple, and the bounds
    that :class:`ConcurrenceSpectrum` checks. Each chunk is one flat record
    ``(source, d_root, size, starts, levels)`` made by :func:`_chunks`; see
    :func:`_plan` for the sources. :func:`full_spectrum` does not run the
    chunks at n <= 3."""

    chunks: tuple[tuple, ...]  # (source, d_root, size, starts, levels) each
    buffer: int  # the largest chunk's buffer size, in amplitudes
    order: np.ndarray  # the cut of each purity that the chunks return, in turn
    bounds: tuple[float, ...]  # per cut, sqrt(2 (m - 1) / m) and a rounding slack


@functools.lru_cache(maxsize=_PLAN_CACHE_SIZE)
def _plan(dims: tuple[int, ...]) -> _Plan:
    """The spectrum plan and the cut bounds of ``dims``, a checked dims tuple.

    The roots start as the table's hub roots, or as every top-size cut when
    it has none. Every root is named by its Gram side, whose Gram product
    it takes: the rest when it is lopsided, m < d_S, or a hub root whose
    hub is taken, else its own side. A hub is taken when a chunk holds one
    root (below) and d_H^2 <= min(2 D, _HUB_CAP). A lopsided root, or a hub
    root whose hub is not taken, traces nothing, and its children become
    roots in turn; every other root traces its subtree. The root's one
    transpose order puts its Gram side's sites first.
    The roots are grouped by their Gram side's dimension d_root and cut
    into chunks of max(1, (_CHUNK_FLOOR // D)^2) roots. When D > 2^10 a chunk
    holds one root, and its source is that transpose order, a tuple.
    Otherwise the source is the (B, d_root, D / d_root) flat indices of its
    roots' matrices in that order. A chunk's members fall into runs of one
    Gram-side shape and one subtree id, and :func:`_chunks` builds the chunk
    from its runs; a root that traces nothing runs as id 0, with no
    levels, as a childless one does. A run's one-root chunks are built at
    once and share all but their sources: their levels and index arrays
    are one object. Built from the table entry of ``len(dims)`` parties,
    whose subsets give every root's transpose order at once, with Python
    per root and per traced state and numpy per level, none per traced
    entry or hub; no cut object is built.
    """
    n, total = len(dims), math.prod(dims)
    table = _cut_table(n)
    first, kids, keys = table.first, table.kids, table.keys
    own = np.array((1,) + dims, dtype=np.intp)[table.subsets]
    d_s = own.prod(axis=1)
    d_rest = total // d_s
    m = np.minimum(d_s, d_rest)
    # A value at its bound comes from a purity that may round below 1/m: allow
    # 2 sqrt(D) ulps, a few at small D, growing with the amplitudes summed.
    bounds = np.sqrt(2.0 * (m - 1) / m) * (1.0 + 2.0 * math.sqrt(total) * np.finfo(float).eps)

    # A root's Gram side is its rest when it is lopsided, m < d_S, or its hub
    # is taken. A lopsided hub root whose hub is not taken still traces
    # nothing, though its children hang on its rest: only a taken hub
    # replaces its children's Gram products with traces.
    lopsided = m < d_s
    per_chunk = max(1, (_CHUNK_FLOOR // total) ** 2)
    hub = np.zeros(len(m), dtype=bool)
    hub[table.hubs] = True
    taken = hub & (d_rest * d_rest <= min(2 * total, _HUB_CAP)) & (per_chunk == 1)
    rest = lopsided | taken
    flipped = ((lopsided | hub) & ~taken).tolist()
    roots = table.hubs.tolist() if len(table.hubs) else list(range(table.roots, len(m)))
    for r in roots:  # a root that traces nothing hands its children to the roots, met in turn
        if flipped[r]:
            roots += kids[first[r] : first[r] + len(keys[table.subtree[r]])]

    # Every root's Gram side as a mask (column 0 takes the padding); its
    # stable argsort is the transpose order.
    inside = np.zeros((len(roots), n + 1), dtype=bool)
    inside[np.arange(len(roots))[:, None], table.subsets[roots]] = True
    gram = inside[:, 1:] != rest[roots, None]
    orders = np.argsort(~gram, axis=1, kind="stable").tolist()

    # Roots by Gram-side dimension, then by Gram-side shape and subtree: a run
    # of like roots shares its levels, and a chunk may hold runs of any shape.
    groups, axes = {}, {}
    for r, ax, k in zip(roots, orders, gram.sum(axis=1).tolist()):
        axes[r], shape = tuple(ax), tuple([dims[a] for a in ax[:k]])
        run = (shape, 0 if flipped[r] else table.subtree[r])
        groups.setdefault(math.prod(shape), {}).setdefault(run, []).append(r)

    if per_chunk > 1:  # D <= 2^10: gathered flat indices fit 16 bits
        flat_ids = np.arange(total, dtype=np.uint16).reshape(dims)
    chunks, order = [], []
    for d_root, by_run in groups.items():
        if per_chunk == 1:  # one root per chunk: a run's chunks share one layout
            parts = [([axes[r] for r in roots], [(run, roots)]) for run, roots in by_run.items()]
        else:
            members = [(run, r) for run, roots in by_run.items() for r in roots]
            parts = []
            for c in range(0, len(members), per_chunk):
                batch = members[c : c + per_chunk]
                index = np.concatenate([flat_ids.transpose(axes[r]) for _, r in batch], axis=None)
                runs = itertools.groupby(batch, operator.itemgetter(0))
                runs = [(run, [r for _, r in part]) for run, part in runs]
                parts.append(([index.reshape(-1, d_root, total // d_root)], runs))
        for sources, runs in parts:
            built, cuts = _chunks(sources, d_root, runs, table)
            chunks += built
            order.append(cuts)
    buffer = max(size for _, _, size, _, _ in chunks)
    return _Plan(tuple(chunks), buffer, np.concatenate(order), tuple(bounds.tolist()))


def _chunks(sources: list, d_root: int, runs: list, table) -> tuple[list, np.ndarray]:
    """The chunks ``(source, d_root, size, starts, levels)`` of ``sources``,
    one each, and the cut of every state in their buffers, chunk by chunk.

    A run ``((shape, tree), roots)`` lists like roots: their Gram side has
    ``shape`` and their subtree id is ``tree``, whose traced positions lie
    in that side (a hub's, in H, for a taken hub's root). One source takes
    all the roots of ``runs``; several share one layout, and each takes one
    root, source j the run's ``roots[j]``.
    A chunk's buffer of ``size`` amplitudes holds its d_root x d_root root
    states, run by run, then level by level the states one site smaller
    than the level before, across all runs. Within a level the states go by
    the traced site's dimension d, largest first, then by the dimensions a
    and b of the sites before and after it, so that like traces sit side by
    side. A level ``(out, gathers)`` writes the buffer slice ``out``, which
    lies after every state it reads: ``gathers[j]`` holds, for each entry
    of the first ``len(gathers[j])`` entries of ``out``, the buffer index of
    its parent's entry in diagonal slice j, and covers exactly the states
    with d > j. The index arrays are read-only and built per level, with
    numpy per run of like traces.
    ``starts[itemsize]`` holds where each state begins in the buffer's
    float64 view (1 float per float64 amplitude, 2 per complex128), and
    ``starts`` is None when the buffer holds one state.
    """
    keys, first, kids = table.keys, table.first, table.kids
    block, share = d_root * d_root, len(sources)
    slots, size = [], 0
    for (shape, tree), roots in runs:
        count = len(roots) // share
        slots.append((shape, tree, size, count, roots))
        size += count * block
    starts, cuts, levels, offsets = [range(0, size, block)], [roots for _, roots in runs], [], {}
    while True:
        traces = [
            ((-sites[pos], math.prod(sites[:pos]), math.prod(sites[pos + 1 :])), slot, pos, child, rank)
            for slot in slots
            for sites in slot[:1]
            for rank, (pos, child) in enumerate(keys[slot[1]])
        ]
        if not traces:
            break
        traces.sort(key=operator.itemgetter(0))
        lo, slots, terms = size, [], []
        for (minus_d, a, b), like in itertools.groupby(traces, operator.itemgetter(0)):
            d, length = -minus_d, (a * b) ** 2
            parent_size, heads = length * d * d, []
            for _, (sites, _, at, count, nodes), pos, child, rank in like:
                heads += range(at, at + count * parent_size, parent_size)
                nodes = [kids[first[i] + rank] for i in nodes]
                slots.append((sites[:pos] + sites[pos + 1 :], child, size, count, nodes))
                starts.append(range(size, size + count * length, length))
                cuts.append(nodes)
                size += count * length
            if (a, d, b) not in offsets:
                # Entry ((i, t, j), (k, t, l)) of a parent of side w = a d b
                # for the output entry ((i, j), (k, l)) and the term t.
                w, rows = a * d * b, (np.arange(a)[:, None] * (d * b) + np.arange(b)).ravel()
                offsets[a, d, b] = (rows[:, None] * w + rows).ravel() + np.arange(d)[:, None] * (b * w + b)
            terms.append((offsets[a, d, b][:, None] + np.array(heads)[:, None]).reshape(d, -1))
        gathers = tuple(np.concatenate([t[j] for t in terms if len(t) > j]) for j in range(len(terms[0])))
        for gather in gathers:
            gather.flags.writeable = False
        levels.append((slice(lo, size), gathers))
    if size == block:
        starts = None
    else:
        at = np.fromiter(itertools.chain.from_iterable(starts), dtype=np.intp)
        starts = {8: at, 16: 2 * at}
    cuts = np.fromiter(itertools.chain.from_iterable(cuts), np.intp).reshape(-1, share).T.ravel()
    levels = tuple(levels)
    return [(source, d_root, size, starts, levels) for source in sources], cuts


def dense_oracle_purity(state: PureState, cut: Bipartition | Iterable[int]) -> float:
    """Purity via explicit reconstruction of the reduced density matrix.

    The d_S x d_rest amplitude matrix A of the given side, whose sites
    :func:`split` names, is one transpose of the complex amplitude tensor,
    and rho_S = A A^dag is one product whose Tr(rho_S^2) is returned. No
    route of :func:`reduced_purity` or :func:`full_spectrum` is shared and
    nothing is kept between calls; A is one transient copy of the state.
    Intended for verification; refuses reduced dimensions above
    ``DENSE_ORACLE_CAP``.
    """
    subset, comp = split(cut, state.n)
    d_s = math.prod(state.dims[i - 1] for i in subset)
    if d_s > DENSE_ORACLE_CAP:
        raise ValueError(f"reduced dimension {d_s} exceeds the dense cap {DENSE_ORACLE_CAP}")
    a = state.amplitudes.reshape(state.dims).transpose([i - 1 for i in subset + comp]).reshape(d_s, -1)
    rho = a @ a.conj().T
    return float(np.real(np.trace(rho @ rho)))


def clear_shape_caches() -> None:
    """Empty every shape cache: the per-N table entries with their render
    frames, the cut tuples and the spectrum plans built on the tables.
    Every output is the same before and after."""
    _cut_table.cache_clear()
    _cuts.cache_clear()
    _plan.cache_clear()
