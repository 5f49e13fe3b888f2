"""Multipartite pure states with arbitrary local dimensions.

Amplitudes are stored as a flat complex vector in row-major basis order:
subsystem 1 is the slowest-varying digit, so basis digits (b_1, ..., b_N)
map to the flat index sum_f b_f * prod_{g>f} d_g.

State files are UTF-8 text, one record per line::

    # comments and blank lines are ignored
    dims 2 2 2 2
    amp 0 0 0 0  0.7071067811865476 0.0
    amp 1 1 1 1  0.7071067811865476 0.0

The ``dims`` line must come first. Each ``amp`` line gives 0-based basis
digits followed by the real and imaginary parts of the amplitude. Unlisted
basis states are zero; repeating a basis tuple is an error.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

# Fail fast beyond desk scale rather than thrash memory.
MAX_AMPLITUDES = 2**26

_NORM_TOL = 1e-9
_UNITARY_TOL = 1e-10


class StateFormatError(ValueError):
    """A state file (or text) that cannot be parsed."""


def check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """Validated subsystem dimensions: at least 2 subsystems, each >= 2, and
    at most ``MAX_AMPLITUDES`` amplitudes in total.

    Callers run this before allocating anything of the state's size.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ValueError("a multipartite state needs at least 2 subsystems")
    if any(d < 2 for d in dims):
        raise ValueError(f"subsystem dimensions must be >= 2, got {dims}")
    total = math.prod(dims)
    if total > MAX_AMPLITUDES:
        raise ValueError(f"total dimension {total} exceeds the supported maximum {MAX_AMPLITUDES}")
    return dims


def flat_index(dims: Sequence[int], digits: Sequence[int]) -> int:
    """Flat row-major index of the basis state with the given digits.

    Raises ValueError unless there is one digit per subsystem, each in
    range for its dimension.
    """
    if len(digits) != len(dims):
        raise ValueError(f"expected {len(dims)} basis digits, got {len(digits)}")
    idx = 0
    for b, d in zip(digits, dims):
        if not 0 <= b < d:
            raise ValueError(f"basis digit {b} out of range [0, {d}) for dims {tuple(dims)}")
        idx = idx * d + b
    return idx


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of N >= 2 subsystems.

    Immutable after construction: the amplitude array is copied and marked
    read-only, so instances are safe to share across threads (threads that
    race to the lazily cached cut tensor compute the same value). Without
    ``normalize`` the input must already have unit norm (within 1e-9); the
    stored vector is rescaled by the exact computed norm either way, so the
    residual deviation is at machine level. Every amplitude and the norm
    must be finite.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray
    normalize: InitVar[bool] = False

    def __post_init__(self, normalize: bool) -> None:
        dims = check_dims(self.dims)
        total = math.prod(dims)
        amps = np.array(self.amplitudes, dtype=complex).ravel()
        if amps.size != total:
            raise ValueError(
                f"expected {total} amplitudes for dims {dims}, got {amps.size}"
            )
        # A nan or infinite amplitude makes the norm non-finite, and so do
        # finite amplitudes whose squares overflow; that is refused below.
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(amps))
        if not math.isfinite(norm):
            if not np.isfinite(amps).all():
                raise ValueError("amplitudes must be finite (no nan or inf)")
            raise ValueError(f"state norm overflows float64 ({norm}); rescale the amplitudes")
        if norm == 0.0:
            raise ValueError("state vector is zero")
        if not normalize and abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(
                f"state norm {norm:.12g} deviates from 1 beyond {_NORM_TOL}; "
                "pass normalize=True to rescale"
            )
        amps /= norm
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)

    @cached_property
    def _tensor(self) -> np.ndarray:
        """Read-only amplitudes shaped to ``dims`` for the cut products: a
        float64 view when every imaginary part is exactly zero, else complex."""
        amps = self.amplitudes
        return (amps if amps.imag.any() else amps.real).reshape(self.dims)

    @property
    def n(self) -> int:
        """Number of subsystems."""
        return len(self.dims)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return self.amplitudes.size

    def amplitude(self, digits: Sequence[int]) -> complex:
        """Amplitude of one basis state, addressed by its digits."""
        return complex(self.amplitudes[flat_index(self.dims, digits)])


def parse_state(text: str, normalize: bool = False) -> PureState:
    """Parse the line-based state format into a :class:`PureState`.

    Parameters
    ----------
    text : str
        Document in the format described in the module docstring.
    normalize : bool
        Rescale the parsed vector to unit norm instead of requiring it.

    Raises
    ------
    StateFormatError
        Malformed lines, out-of-range digits, duplicate basis tuples, a
        missing ``dims`` line, a nan or infinite amplitude or norm, or
        (without ``normalize``) a norm that deviates from 1 by more than
        1e-9. Messages carry line numbers.
    """
    dims: tuple[int, ...] | None = None
    amps: np.ndarray | None = None
    seen: set[int] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if dims is None:
            if fields[0] != "dims":
                raise StateFormatError(f"line {lineno}: expected 'dims ...' first, got {fields[0]!r}")
            try:
                dims = tuple(int(f) for f in fields[1:])
            except ValueError:
                raise StateFormatError(f"line {lineno}: non-integer dimension in {line!r}") from None
            try:
                dims = check_dims(dims)
            except ValueError as exc:
                raise StateFormatError(f"line {lineno}: {exc}") from None
            amps = np.zeros(math.prod(dims), dtype=complex)
            continue
        if fields[0] != "amp":
            raise StateFormatError(f"line {lineno}: expected 'amp ...', got {fields[0]!r}")
        if len(fields) != 1 + len(dims) + 2:
            raise StateFormatError(
                f"line {lineno}: expected {len(dims)} digits plus re/im, got {len(fields) - 1} fields"
            )
        try:
            digits = [int(f) for f in fields[1 : 1 + len(dims)]]
            re, im = float(fields[-2]), float(fields[-1])
        except ValueError:
            raise StateFormatError(f"line {lineno}: malformed number in {line!r}") from None
        try:
            idx = flat_index(dims, digits)
        except ValueError as exc:
            raise StateFormatError(f"line {lineno}: {exc}") from None
        if idx in seen:
            raise StateFormatError(f"line {lineno}: duplicate basis tuple {tuple(digits)}")
        seen.add(idx)
        assert amps is not None
        amps[idx] = complex(re, im)

    if dims is None:
        raise StateFormatError("no 'dims' line found")
    try:
        return PureState(dims, amps, normalize=normalize)
    except ValueError as exc:
        raise StateFormatError(str(exc)) from None


def load_state(path, normalize: bool = False) -> PureState:
    """Read a state file from disk; see :func:`parse_state`."""
    with open(path, encoding="utf-8") as fh:
        return parse_state(fh.read(), normalize=normalize)


def serialize_state(state: PureState) -> str:
    """Render a state in the line-based file format (nonzero amplitudes only).

    Floats are written with shortest round-trip precision, so
    parse(serialize(s)) reproduces the amplitudes exactly.
    """
    lines = ["dims " + " ".join(str(d) for d in state.dims)]
    for digits, a in zip(np.ndindex(*state.dims), state.amplitudes):
        if a != 0:
            lines.append(
                "amp "
                + " ".join(str(b) for b in digits)
                + f" {float(a.real)!r} {float(a.imag)!r}"
            )
    return "\n".join(lines) + "\n"


def apply_local_unitary(state: PureState, site: int, u: np.ndarray) -> PureState:
    """Apply a unitary on one subsystem (1-based ``site``)."""
    if not 1 <= site <= state.n:
        raise ValueError(f"site {site} out of range 1..{state.n}")
    d = state.dims[site - 1]
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise ValueError(f"unitary shape {u.shape} does not match subsystem dimension {d}")
    defect = float(np.max(np.abs(u @ u.conj().T - np.eye(d))))
    if defect > _UNITARY_TOL:
        raise ValueError(f"matrix is not unitary (defect {defect:.3g})")
    tensor = state.amplitudes.reshape(state.dims)
    tensor = np.moveaxis(np.tensordot(u, tensor, axes=([1], [site - 1])), 0, site - 1)
    return PureState(state.dims, tensor.ravel())


def permute_subsystems(state: PureState, perm: Iterable[int]) -> PureState:
    """Relabel subsystems: position j of the result carries subsystem perm[j].

    ``perm`` is a bijection on 1..N; the amplitude of the result at digits
    (b_perm[1], ..., b_perm[N]) equals the original amplitude at (b_1, ..., b_N).
    """
    order = tuple(int(p) for p in perm)
    if sorted(order) != list(range(1, state.n + 1)):
        raise ValueError(f"{order} is not a permutation of 1..{state.n}")
    axes = [p - 1 for p in order]
    tensor = state.amplitudes.reshape(state.dims).transpose(axes)
    return PureState(tuple(state.dims[i] for i in axes), tensor.ravel())
