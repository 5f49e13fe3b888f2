"""Geometric entanglement measures built from a concurrence spectrum.

The base edge ``a`` is the geometric mean of the one-versus-rest
concurrences and the height ``h`` the geometric mean of every remaining
canonical cut (fixed to 1 for three parties, which have no multi-party
cuts). The measure is the volume of the regular N-gonal pyramid with those
dimensions,

    V = (N a^2 / 12) cot(pi/N) h,

which degenerates to exactly zero when any cut factorizes, is positive iff
the state is genuinely multipartite entangled, and for N = 4 coincides
with a^2 h / 3. Tripartite states additionally get the squared-concurrence
triangle measure, and the minimum cut concurrence (C_GME) is provided as a
comparator.

Every measure reads the spectrum's row directly: ``a`` from the slice
``singletons()`` (the first N values), ``h`` from ``multis()`` (the rest),
C_GME and the zero cuts from the whole row. A report carries the spectrum
itself as ``MeasureReport.spectrum``; its ``entries`` is the cut-keyed view.
Each public entry checks ``zero_tol`` once, by :func:`check_tolerance`, and
hands the checked value to the private helpers it shares with the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bipartitions import Bipartition
from .concurrence import ConcurrenceSpectrum, full_spectrum
from .states import PureState, _plain, as_index

# A cut that factorizes exactly still evaluates to a concurrence of order
# sqrt(machine epsilon) ~ 1e-8 (the square root amplifies the ~1e-16 purity
# noise), never to zero. The cutoff must sit above that floor and stays 5+
# orders of magnitude below genuine concurrences of generic states.
DEFAULT_ZERO_TOL = 1e-7

CLASS_GME = "GME"
CLASS_BISEPARABLE = "biseparable"
CLASS_FULLY_SEPARABLE = "fully-separable"


@dataclass(frozen=True)
class PyramidGeometry:
    """Derived pyramid dimensions and volume for one state."""

    n: int
    base_edge: float
    height: float
    base_area: float
    volume: float


@dataclass(frozen=True)
class MeasureReport:
    """All measure values and the separability classification of one state."""

    state_id: str
    spectrum: ConcurrenceSpectrum
    volume: float | None
    c_gme: float
    triangle: float | None
    classification: str
    zero_cuts: tuple[Bipartition, ...]
    zero_tol: float
    notes: tuple[str, ...] = field(default_factory=tuple)


def check_tolerance(value: float | str) -> float:
    """``value`` as a float; ValueError unless it is finite and >= 0. Text
    takes the one form of every number read from text (``states._plain``:
    ASCII, no ``_``), and bytes are no text here: ``float()`` would read
    them past that form. A bool is refused, not converted, as ``as_index``
    refuses it for an integer, and an integer too large for a float reads
    as ``inf`` of its sign. A negative zero is returned as ``0.0``."""
    try:
        if isinstance(value, (bytes, bytearray, memoryview)):
            raise ValueError
        if isinstance(value, str):
            _plain([value])
        tol = value if isinstance(value, (bool, np.bool_)) else float(value)
    except OverflowError:
        tol = -math.inf if value < 0 else math.inf
    except ValueError:
        raise ValueError(f"tolerance must be a plain ASCII number, got {value!r}") from None
    if not (type(tol) is float and math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tol!r}")
    return abs(tol)  # -0.0 passes the test above; a report states 0.0


def _geometric_mean(values: tuple[float, ...], zero_tol: float) -> float:
    # Short-circuit before taking logarithms: a single (numerically) zero
    # factor annihilates the product, and log(0) is -inf.
    if values and min(values) <= zero_tol:
        return 0.0
    return math.exp(math.fsum(map(math.log, values)) / max(len(values), 1))


def base_area(n: int, edge: float) -> float:
    """Area of the regular n-gon with the given side length: (n e^2/4) cot(pi/n)."""
    n = as_index(n, "vertex count")
    if n < 3:
        raise ValueError("a polygon needs at least 3 vertices")
    if not edge >= 0:
        raise ValueError("edge length must be nonnegative")
    if edge == math.inf:
        raise ValueError("edge length must be finite")
    return n * edge * edge / (4.0 * math.tan(math.pi / n))


def volume(spectrum: ConcurrenceSpectrum, zero_tol: float = DEFAULT_ZERO_TOL) -> PyramidGeometry:
    """Pyramid dimensions and volume V = base_area * h / 3 for N >= 3 parties.

    For N = 4 this equals a^2 h / 3 (cot(pi/4) = 1); for N = 3 the height
    is fixed to 1 and the volume reduces to (sqrt(3)/12) a^2.
    """
    if spectrum.n < 3:
        raise ValueError("the pyramid measure is defined for 3 or more parties")
    return _pyramid(spectrum, check_tolerance(zero_tol))


def _pyramid(spectrum: ConcurrenceSpectrum, zero_tol: float) -> PyramidGeometry:
    """``volume`` for N >= 3 parties and a checked tolerance."""
    a = _geometric_mean(spectrum.singletons(), zero_tol)
    h = _geometric_mean(spectrum.multis(), zero_tol)
    area = base_area(spectrum.n, a)
    return PyramidGeometry(spectrum.n, a, h, area, area * h / 3.0)


def triangle_measure(spectrum: ConcurrenceSpectrum) -> float:
    """Tripartite triangle measure with the squared concurrences as edges.

    F = [ (16/3) Q prod_i (Q - C_i^2) ]^(1/4) with Q = (1/2) sum_i C_i^2.
    The triangle inequality of the squared concurrences holds analytically
    for pure states; each factor is clamped at 0 against rounding.
    """
    if spectrum.n != 3:
        raise ValueError("the triangle measure is defined for exactly 3 parties")
    c_sq = [c * c for c in spectrum.singletons()]
    q = 0.5 * math.fsum(c_sq)
    product = 1.0
    for cs in c_sq:
        product *= max(0.0, q - cs)
    return (16.0 / 3.0 * q * product) ** 0.25


def c_gme(spectrum: ConcurrenceSpectrum) -> float:
    """Minimum concurrence over all canonical bipartitions."""
    return min(spectrum.values)


def classify(
    spectrum: ConcurrenceSpectrum, zero_tol: float = DEFAULT_ZERO_TOL
) -> tuple[str, tuple[Bipartition, ...]]:
    """Separability class plus every cut whose concurrence is (numerically) zero.

    A vanishing concurrence across a cut of a pure state is equivalent to
    factorization across that cut, so the zero cuts are the candidate
    factorizations. All cuts positive means GME; all singleton cuts zero
    means fully separable; anything in between is biseparable. A cut object
    is read from ``spectrum.cuts`` only for a zero cut.
    """
    return _classify(spectrum, check_tolerance(zero_tol))


def _classify(spectrum: ConcurrenceSpectrum, zero_tol: float) -> tuple[str, tuple[Bipartition, ...]]:
    if min(spectrum.values) > zero_tol:
        return CLASS_GME, ()
    zero_cuts = tuple([spectrum.cuts[i] for i, c in enumerate(spectrum.values) if c <= zero_tol])
    if max(spectrum.singletons()) <= zero_tol:
        return CLASS_FULLY_SEPARABLE, zero_cuts
    return CLASS_BISEPARABLE, zero_cuts


def evaluate(
    state: PureState, state_id: str = "state", zero_tol: float = DEFAULT_ZERO_TOL
) -> MeasureReport:
    """Full measure report for one state.

    The pyramid volume needs at least 3 parties and the triangle measure
    exactly 3; fields that do not apply are None. ``zero_tol`` must be
    finite and >= 0; it is checked here once.
    """
    zero_tol = check_tolerance(zero_tol)
    spectrum = full_spectrum(state)
    classification, zero_cuts = _classify(spectrum, zero_tol)
    notes: list[str] = []
    vol = _pyramid(spectrum, zero_tol).volume if spectrum.n >= 3 else None
    tri = None
    if spectrum.n == 3:
        tri = triangle_measure(spectrum)
        if any(d > 2 for d in state.dims):
            notes.append(
                "triangle measure applied beyond qubit subsystems; the formula "
                "was defined for three-qubit states"
            )
    return MeasureReport(
        state_id=state_id,
        spectrum=spectrum,
        volume=vol,
        c_gme=c_gme(spectrum),
        triangle=tri,
        classification=classification,
        zero_cuts=zero_cuts,
        zero_tol=zero_tol,
        notes=tuple(notes),
    )
