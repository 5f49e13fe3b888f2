"""Seeded state generators, the state-file writer and the correctness gate.

Everything here is the benchmark's own code and imports nothing from
gmepyramid, so the reference values are independent of the program under
test. Purity comes from the singular values of each cut matrix rather than
from a Gram product, in the cancellation-free Schmidt-tail form
``1 - P = l1 * sum_{j>1} lj + sum_{j>1} lj (1 - lj)`` with ``l = sigma^2``,
so exact product cuts evaluate to ~1e-16 instead of the Gram floor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Bound on |P_program - P_reference| for a unit vector of at most 8192
# amplitudes: both sides sum d <= 8192 products of float64 numbers of
# magnitude <= 1, so each is within d * eps ~ 9.1e-13 of the exact value.
PURITY_TOL = 1e-12

# A cut counts as near zero, for the traced input properties, below this.
NEAR_ZERO = 1e-4

GME, BISEPARABLE, FULLY_SEPARABLE = "GME", "biseparable", "fully-separable"


def haar(rng: np.random.Generator, dims: tuple[int, ...]) -> np.ndarray:
    """Haar-uniform complex unit vector."""
    total = math.prod(dims)
    z = rng.standard_normal(total) + 1j * rng.standard_normal(total)
    return z / np.linalg.norm(z)


def real_gaussian(rng: np.random.Generator, dims: tuple[int, ...]) -> np.ndarray:
    """Unit vector with iid real Gaussian amplitudes."""
    z = rng.standard_normal(math.prod(dims))
    return z / np.linalg.norm(z)


def product(
    rng: np.random.Generator, dims: tuple[int, ...], sites: tuple[int, ...], real: bool
) -> np.ndarray:
    """Exact product of random factors on ``sites`` (1-based) and on the rest."""
    rest = tuple(i for i in range(1, len(dims) + 1) if i not in sites)
    draw = real_gaussian if real else haar
    a = draw(rng, tuple(dims[i - 1] for i in sites))
    b = draw(rng, tuple(dims[i - 1] for i in rest))
    order = sites + rest
    joint = np.multiply.outer(a, b).reshape([dims[i - 1] for i in order])
    return joint.transpose([order.index(s) for s in range(1, len(dims) + 1)]).ravel()


def ghz(n: int) -> np.ndarray:
    v = np.zeros(2**n)
    v[0] = v[-1] = math.sqrt(0.5)
    return v


def w(n: int) -> np.ndarray:
    v = np.zeros(2**n)
    v[[2**k for k in range(n)]] = 1.0 / math.sqrt(n)
    return v


def write_state(path, dims: tuple[int, ...], amps: np.ndarray) -> None:
    """Write the line-based state format: a ``dims`` line, then one ``amp``
    line per nonzero amplitude with shortest round-trip floats."""
    lines = ["dims " + " ".join(map(str, dims))]
    nonzero = np.flatnonzero(amps)
    digits = np.array(np.unravel_index(nonzero, dims)).T
    for idx, ds in zip(nonzero, digits):
        a = complex(amps[idx])
        lines.append(f"amp {' '.join(map(str, ds))} {a.real!r} {a.imag!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def canonical_cuts(n: int) -> list[tuple[int, ...]]:
    """Subsets of size 1..n//2, half-size ones containing party 1."""
    return [
        comb
        for k in range(1, n // 2 + 1)
        for comb in itertools.combinations(range(1, n + 1), k)
        if 2 * k < n or comb[0] == 1
    ]


def label(cut: tuple[int, ...]) -> str:
    return ",".join(map(str, cut))


def cut_concurrence(tensor: np.ndarray, cut: tuple[int, ...], sparse: bool) -> float:
    """Concurrence across ``cut`` from the singular values of the cut matrix."""
    n = tensor.ndim
    keep = [i - 1 for i in cut]
    rest = [i for i in range(n) if i + 1 not in cut]
    m = tensor.transpose(keep + rest).reshape(math.prod(tensor.shape[i] for i in keep), -1)
    if sparse:
        # Zero rows and columns carry no singular value; dropping them keeps
        # sparse states (GHZ) cheap.
        m = m[np.any(m != 0, axis=1)][:, np.any(m != 0, axis=0)]
    if m.shape[0] < m.shape[1]:
        m = m.T
    # The triangular factor of a tall matrix has its singular values.
    lam = np.linalg.svd(np.linalg.qr(m, mode="r"), compute_uv=False) ** 2
    tail = float(np.sum(lam[1:]))
    one_minus_p = lam[0] * tail + float(np.sum(lam[1:] * (1.0 - lam[1:])))
    return math.sqrt(2.0 * max(one_minus_p, 0.0))


def _geometric_mean(values: list[float], zero_tol: float) -> float:
    if min(values) <= zero_tol:
        return 0.0
    return math.exp(math.fsum(map(math.log, values)) / len(values))


@dataclass(frozen=True)
class Reference:
    """Independently computed measures of one state plus its known class."""

    dims: tuple[int, ...]
    concurrences: dict[str, float]
    volume: float
    c_gme: float
    classification: str
    zero_cuts: frozenset[str]
    expected_class: str


def reference(
    dims: tuple[int, ...], amps: np.ndarray, zero_tol: float, expected_class: str
) -> Reference:
    """Reference values for a unit vector; raises if they contradict the class
    the state was built to have, since the inputs would then be unusable."""
    n = len(dims)
    tensor = np.asarray(amps).reshape(dims)
    cuts = canonical_cuts(n)
    sparse = 2 * np.count_nonzero(amps) < amps.size
    conc = {label(c): cut_concurrence(tensor, c, sparse) for c in cuts}
    singles = [conc[label(c)] for c in cuts if len(c) == 1]
    multis = [conc[label(c)] for c in cuts if len(c) > 1]
    a = _geometric_mean(singles, zero_tol)
    h = 1.0 if n == 3 else _geometric_mean(multis, zero_tol)
    vol = n * a * a / (12.0 * math.tan(math.pi / n)) * h
    zero = frozenset(k for k, c in conc.items() if c <= zero_tol)
    if not zero:
        cls = GME
    elif all(c <= zero_tol for c in singles):
        cls = FULLY_SEPARABLE
    else:
        cls = BISEPARABLE
    if cls != expected_class:
        raise ValueError(f"generated state of dims {dims} is {cls}, built as {expected_class}")
    return Reference(dims, conc, vol, min(conc.values()), cls, zero, expected_class)


def concurrence_tol(c_ref: float) -> float:
    """Largest |C - C_ref| compatible with |P - P_ref| <= PURITY_TOL.

    From C^2 = 2 (1 - P): |C - C_ref| = 2 |dP| / (C + C_ref), which is at
    most 2 |dP| / C_ref and at most sqrt(2 |dP|).
    """
    bound = math.sqrt(2.0 * PURITY_TOL)
    return bound if c_ref == 0.0 else min(bound, 2.0 * PURITY_TOL / c_ref)


def check_state(doc: dict, ref: Reference) -> list[str]:
    """Differences between one ``states`` entry of a report and the reference.

    Empty means the entry is correct: concurrences, volume and c_gme within
    tolerances derived from PURITY_TOL, and classification and zero cuts
    equal to the reference and to the class known from construction.
    """
    problems = []
    if tuple(doc["dims"]) != ref.dims:
        return [f"dims {doc['dims']} != {list(ref.dims)}"]
    conc = doc["concurrences"]
    if set(conc) != set(ref.concurrences):
        return [f"cut labels differ: {sorted(set(conc) ^ set(ref.concurrences))}"]
    for key, c_ref in ref.concurrences.items():
        if not abs(conc[key] - c_ref) <= concurrence_tol(c_ref):
            problems.append(f"concurrence {key}: {conc[key]!r} vs reference {c_ref!r}")
    if not abs(doc["c_gme"] - ref.c_gme) <= concurrence_tol(ref.c_gme):
        problems.append(f"c_gme {doc['c_gme']!r} vs reference {ref.c_gme!r}")
    # The volume is a product of geometric means, so its relative error is at
    # most 3x the largest relative error of a nonzero cut concurrence.
    rel = max((concurrence_tol(c) / c for c in ref.concurrences.values() if c > 0), default=0.0)
    volume_tol = 3.0 * rel * ref.volume + 1e-15
    if doc["volume"] is None or not abs(doc["volume"] - ref.volume) <= volume_tol:
        problems.append(f"volume {doc['volume']!r} vs reference {ref.volume!r}")
    if doc["classification"] != ref.classification or doc["classification"] != ref.expected_class:
        problems.append(
            f"classification {doc['classification']!r}: reference {ref.classification!r}, "
            f"built as {ref.expected_class!r}"
        )
    if frozenset(doc["zero_cuts"]) != ref.zero_cuts:
        problems.append(f"zero cuts {sorted(doc['zero_cuts'])} vs {sorted(ref.zero_cuts)}")
    return problems
