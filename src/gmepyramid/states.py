"""Multipartite pure states with arbitrary local dimensions.

Amplitudes are stored as a flat complex vector in row-major basis order:
subsystem 1 is the slowest-varying digit, so basis digits (b_1, ..., b_N)
map to the flat index sum_f b_f * prod_{g>f} d_g.

State files are UTF-8 text, one record per line ending at ``\\n``, ``\\r\\n`` or ``\\r``::

    # comments and blank lines are ignored
    dims 2 2 2 2
    amp 0 0 0 0  0.7071067811865476 0.0
    amp 1 1 1 1  0.7071067811865476 0.0

The ``dims`` line must come first. Each ``amp`` line gives 0-based basis
digits followed by the real and imaginary parts, in ASCII without ``_``.
Unlisted basis states are zero; repeating a basis tuple is an error, and
so is a nan or infinite part.

:func:`parse_state` reads a record with one ``split`` into compact buffers:
the digits as bytes, the parts as float64 through ``float()``. The digit
ranges, the finiteness of the parts and repeated basis tuples are checked
once, over those buffers as arrays. A text is refused at its first faulty
line, as a reader that checks each line in turn would refuse it: a fault
met while reading line L is reported only once the records before L have
been checked and found clean.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import InitVar, dataclass, field
from itertools import islice
from typing import Iterable, Sequence

import numpy as np

# Fail fast beyond desk scale rather than thrash memory.
MAX_AMPLITUDES = 2**26
MAX_PARTIES = MAX_AMPLITUDES.bit_length() - 1  # every dimension is >= 2

_NORM_TOL = 1e-9
# Below it, up to 2**26 subnormal squares can move the norm by more than an ulp.
_NORM_FLOOR = 2.0**-498
_UNITARY_TOL = 1e-10


class StateFormatError(ValueError):
    """A state file (or text) that cannot be parsed."""


def as_index(value, what: str) -> int:
    """``value`` as an int (numpy integers too); a float or bool is refused, not converted."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _plain(fields: list[str]) -> list[str]:
    """``fields`` if they hold only ASCII and no ``_``, else ValueError: int and float
    also read non-ASCII digits and ``_``, which state files and ``--dims`` do not take."""
    joined = "".join(fields)
    if not joined.isascii() or "_" in joined:
        raise ValueError(f"not plain ASCII numbers: {fields!r}")
    return fields


def check_subsystem_count(n: int) -> int:
    """``n`` if a state may have that many subsystems (2 to ``MAX_PARTIES``).

    Costs O(1), so a caller can refuse a count before it builds anything
    of size ``n``.
    """
    if n < 2:
        raise ValueError("a multipartite state needs at least 2 subsystems")
    if n > MAX_PARTIES:
        raise ValueError(f"subsystem count {n} exceeds the supported maximum {MAX_PARTIES}")
    return n


def check_dims(dims: Iterable[int]) -> tuple[int, ...]:
    """Validated subsystem dimensions: 2 to ``MAX_PARTIES`` subsystems, each
    >= 2, and at most ``MAX_AMPLITUDES`` amplitudes in total.

    Callers run this before allocating anything of the state's size.
    """
    dims = tuple(as_index(d, "subsystem dimension") for d in dims)
    check_subsystem_count(len(dims))
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


class _Owned:
    """A freshly built complex128 vector that :class:`PureState` takes over
    instead of copying; no other reference to it may remain."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized pure state of N >= 2 subsystems.

    Immutable after construction: the amplitude array is copied (the parser
    and the Haar sampler hand over their fresh vector instead) and marked
    read-only, so instances are safe to share across threads; a state
    compares and hashes by identity. Without ``normalize`` the input must
    already have unit norm (within 1e-9); the stored vector is rescaled by
    the exact computed norm either way, so the residual deviation is at
    machine level. Every amplitude and the norm must be finite, and a
    nonzero norm at least 2**-498.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray
    normalize: InitVar[bool] = False
    # Amplitudes shaped to dims for the cut products; float64 if all imaginary parts are 0.0.
    _tensor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, normalize: bool) -> None:
        dims = check_dims(self.dims)
        total = math.prod(dims)
        if isinstance(self.amplitudes, _Owned):
            amps = np.asarray(self.amplitudes.array, dtype=complex).ravel()
        else:
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
        if norm < _NORM_FLOOR:
            # Scaling by a power of two is exact and lifts every square out of the subnormals.
            norm = float(np.linalg.norm(amps * 2.0**600)) / 2.0**600
            if norm == 0.0:
                raise ValueError("state vector is zero")
            raise ValueError(f"state norm {norm:.3g} underflows float64; rescale the amplitudes")
        if not normalize and abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(
                f"state norm {norm:.12g} deviates from 1 beyond {_NORM_TOL}; "
                "pass normalize=True to rescale"
            )
        amps /= norm
        amps.setflags(write=False)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "_tensor", (amps if amps.imag.any() else amps.real).reshape(dims))

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
        digits = [as_index(b, "basis digit") for b in digits]
        return complex(self.amplitudes[flat_index(self.dims, digits)])


def parse_state(text: str, normalize: bool = False) -> PureState:
    """Parse the line-based state format into a :class:`PureState`.

    One pass over the lines finds the ``dims`` line, then reads each record
    with one ``split``: the field count and ``amp`` are checked, the basis
    digits go into a byte buffer when each is one ASCII digit, and the real
    and imaginary parts into float64 buffers, through ``float()``. A record
    whose digit fields are anything else (a dimension of 11 or more, ``+1``,
    ``02``, non-ASCII separators) is read field by field with ``int()`` and
    its digit range checked there. Once, over the buffers as arrays, come
    the flat indices (a dot of the digits with the strides, a column at a
    time), the finiteness of every part, the digit ranges and repeated
    basis tuples; the amplitudes are then written in two assignments, one
    per part, so a ``-0.0`` part keeps its sign.

    Parameters
    ----------
    text : str
        Document in the format described in the module docstring.
    normalize : bool
        Rescale the parsed vector to unit norm instead of requiring it.

    Raises
    ------
    StateFormatError
        Malformed lines, a nan or infinite part, out-of-range digits,
        duplicate basis tuples, a missing ``dims`` line, a norm that
        overflows, a nonzero norm below 2**-498, or (without ``normalize``)
        a norm that deviates from 1 by more than 1e-9. Messages carry line
        numbers, apart from the norm's, which belong to the whole vector.
        The fault of the first faulty line is reported; within a record,
        its fields and numbers come first, then finiteness, the digit
        range and repetition.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for start, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = line.split()
            if fields[0] != "dims":
                raise ValueError(f"expected 'dims ...' first, got {fields[0]!r}")
            try:
                dims = tuple(int(f) for f in _plain(fields)[1:])
            except ValueError:
                raise ValueError(f"non-integer dimension in {line!r}") from None
            dims = check_dims(dims)
        except ValueError as exc:
            raise StateFormatError(f"line {start}: {exc}") from None
        break
    else:
        raise StateFormatError("no 'dims' line found")

    n = len(dims)
    # The _plain test on every field at once; if it fails, a line at a time.
    plain = text.isascii() and "_" not in text
    # Per record: n ASCII digits ("0" * n for a record read by int()) and
    # its two parts; the flat index of each record read by int(), by record.
    digits = bytearray()
    reals, imags = array("d"), array("d")
    read_by_int: dict[int, int] = {}
    for lineno, raw in enumerate(islice(lines, start, None), start=start + 1):
        fields = raw.split()
        if len(fields) == n + 3 and fields[0] == "amp" and (plain or raw.isascii() and "_" not in raw):
            head = "".join(fields[1:-2])
            if len(head) == n and head.isdigit():
                try:
                    re, im = float(fields[-2]), float(fields[-1])
                except ValueError:
                    pass  # _amp_record names the fault
                else:
                    reals.append(re)
                    imags.append(im)
                    digits += head.encode()
                    continue
        if not fields or fields[0].startswith("#"):
            continue
        try:
            idx, re, im = _amp_record(raw.strip(), fields, dims)
        except ValueError as exc:
            fault = _check_records(dims, digits, reals, imags, read_by_int, lines, start)[1]
            raise StateFormatError(fault or f"line {lineno}: {exc}") from None
        read_by_int[len(reals)] = idx
        reals.append(re)
        imags.append(im)
        digits += b"0" * n

    idx, fault = _check_records(dims, digits, reals, imags, read_by_int, lines, start)
    if fault:
        raise StateFormatError(fault)
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps.real[idx] = np.frombuffer(reals)
    amps.imag[idx] = np.frombuffer(imags)
    try:
        return PureState(dims, _Owned(amps), normalize=normalize)
    except ValueError as exc:
        raise StateFormatError(str(exc)) from None


def _amp_record(line: str, fields: list[str], dims: tuple[int, ...]) -> tuple[int, float, float]:
    """Flat index and parts of one ``amp`` record, read field by field, or
    ValueError naming its first fault; a repeated basis tuple is left to
    :func:`_check_records`."""
    if fields[0] != "amp":
        raise ValueError(f"expected 'amp ...', got {fields[0]!r}")
    if len(fields) != 1 + len(dims) + 2:
        raise ValueError(f"expected {len(dims)} digits plus re/im, got {len(fields) - 1} fields")
    try:
        digits = [int(f) for f in _plain(fields)[1 : 1 + len(dims)]]
        re, im = float(fields[-2]), float(fields[-1])
    except ValueError:
        raise ValueError(f"malformed number in {line!r}") from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise ValueError(f"non-finite amplitude in {line!r}")
    return flat_index(dims, digits), re, im


def _check_records(
    dims: tuple[int, ...],
    digits: bytearray,
    reals: array,
    imags: array,
    read_by_int: dict[int, int],
    lines: list[str],
    start: int,
) -> tuple[np.ndarray, str | None]:
    """Flat indices of the records buffered from the lines after ``start``,
    and the line-numbered text of the first faulty one, or None.

    A record is faulty if a part is nan or infinite, a digit is out of
    range, or its basis tuple repeats an earlier record's.
    """
    codes = np.frombuffer(digits, dtype=np.uint8).reshape(-1, len(dims))
    strides = [math.prod(dims[j + 1 :]) for j in range(len(dims))]
    idx = np.full(len(codes), -ord("0") * sum(strides), dtype=np.intp)
    for j, stride in enumerate(strides):
        idx += np.multiply(codes[:, j], stride, dtype=np.intp)
    if read_by_int:
        idx[np.fromiter(read_by_int, np.intp)] = np.fromiter(read_by_int.values(), np.intp)
    clean = np.isfinite(np.frombuffer(reals)) & np.isfinite(np.frombuffer(imags))
    # A buffered digit is one ASCII digit, so a dimension of 10 or more admits them all.
    limits = np.array([ord("0") + min(d, 10) for d in dims], dtype=np.uint8)
    in_range = codes < np.tile(limits, (len(codes), 1))
    if not in_range.all():
        clean &= in_range.all(axis=1)
    k = len(codes) if clean.all() else int(np.argmin(clean))
    # A repeat is sought before k, where every index is that of a record in range.
    hit = np.zeros(math.prod(dims), dtype=bool)
    hit[idx[:k]] = True
    repeat = np.count_nonzero(hit) < k
    if repeat:
        _, first = np.unique(idx[:k], return_index=True)
        later = np.ones(k, dtype=bool)
        later[first] = False
        k = int(np.argmax(later))
    elif k == len(codes):
        return idx, None
    # The records are the lines after the dims line that are neither blank nor comments.
    stripped = (raw.strip() for raw in islice(lines, start, None))
    records = ((no, line) for no, line in enumerate(stripped, start + 1) if line and not line.startswith("#"))
    lineno, line = next(islice(records, k, None))
    if repeat:
        digits_k = tuple(int(b) for b in np.unravel_index(idx[k], dims))
        return idx, f"line {lineno}: duplicate basis tuple {digits_k}"
    try:
        _amp_record(line, line.split(), dims)  # names the part or the digit
    except ValueError as exc:
        return idx, f"line {lineno}: {exc}"
    raise AssertionError(f"record {k} was found faulty and reads clean")


def load_state(path, normalize: bool = False) -> PureState:
    """Read a UTF-8 state file from disk, with or without a leading byte-order
    mark; see :func:`parse_state`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return parse_state(raw.decode("utf-8-sig"), normalize=normalize)
    except UnicodeDecodeError as exc:
        offset = exc.start + len(raw) - len(exc.object)  # past a stripped mark
        raise StateFormatError(f"byte {offset}: not UTF-8 ({exc.reason})") from None


def serialize_state(state: PureState) -> str:
    """Render a state in the line-based file format (nonzero amplitudes only).

    Floats are written with shortest round-trip precision, so
    parse(serialize(s)) reproduces the amplitudes exactly.
    """
    lines = ["dims " + " ".join(str(d) for d in state.dims)]
    nonzero = np.flatnonzero(state.amplitudes)
    digits = zip(*(axis.tolist() for axis in np.unravel_index(nonzero, state.dims)))
    values = state.amplitudes[nonzero]
    for basis, re, im in zip(digits, values.real.tolist(), values.imag.tolist()):
        lines.append("amp " + " ".join(map(str, basis)) + f" {re!r} {im!r}")
    return "\n".join(lines) + "\n"


def apply_local_unitary(state: PureState, site: int, u: np.ndarray) -> PureState:
    """Apply a unitary on one subsystem (1-based ``site``); the one-site
    case of :func:`apply_local_unitaries`."""
    return apply_local_unitaries(state, [site], [u])


def apply_local_unitaries(
    state: PureState, sites: Sequence[int], us: Sequence[np.ndarray]
) -> PureState:
    """Apply ``us[k]`` on subsystem ``sites[k]`` (1-based), in the order given.

    The matrices of each local dimension are checked as one stack: shape,
    finite entries and unitarity within 1e-10. Each step is one
    ``tensordot`` on the flat vector the step before left, renormalized by
    its computed norm, as a state built per step would be; the result is
    built once, from the last step.
    """
    sites = [as_index(site, "site") for site in sites]
    if len(us) != len(sites):
        raise ValueError(f"expected {len(sites)} unitaries, got {len(us)}")
    if not sites:
        return state
    for site in sites:
        if not 1 <= site <= state.n:
            raise ValueError(f"site {site} out of range 1..{state.n}")
    us = [np.asarray(u, dtype=complex) for u in us]
    stacks: dict[int, list[np.ndarray]] = {}
    for site, u in zip(sites, us):
        d = state.dims[site - 1]
        if u.shape != (d, d):
            raise ValueError(f"unitary shape {u.shape} does not match subsystem dimension {d}")
        stacks.setdefault(d, []).append(u)
    for d, stack in stacks.items():
        stack = np.stack(stack)
        # A nan entry would pass the defect test below (nan > tol is False).
        if not np.isfinite(stack).all():
            raise ValueError("matrix entries must be finite (no nan or inf)")
        defect = float(np.max(np.abs(stack @ stack.conj().transpose(0, 2, 1) - np.eye(d))))
        if defect > _UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (defect {defect:.3g})")
    amps = state.amplitudes
    for k, (site, u) in enumerate(zip(sites, us)):
        if k:  # the step before's renormalization; the result makes the last
            amps /= float(np.linalg.norm(amps))
        tensor = np.tensordot(u, amps.reshape(state.dims), axes=([1], [site - 1]))
        amps = np.moveaxis(tensor, 0, site - 1).ravel()
    return PureState(state.dims, _Owned(amps))


def permute_subsystems(state: PureState, perm: Iterable[int]) -> PureState:
    """Relabel subsystems: position j of the result carries subsystem perm[j].

    ``perm`` is a bijection on 1..N; the amplitude of the result at digits
    (b_perm[1], ..., b_perm[N]) equals the original amplitude at (b_1, ..., b_N).
    """
    order = tuple(as_index(p, "permutation entry") for p in perm)
    if sorted(order) != list(range(1, state.n + 1)):
        raise ValueError(f"{order} is not a permutation of 1..{state.n}")
    axes = [p - 1 for p in order]
    tensor = state.amplitudes.reshape(state.dims).transpose(axes)
    return PureState(tuple(state.dims[i] for i in axes), tensor.ravel())
