import math
import re
import tracemalloc

import numpy as np
import pytest

from gmepyramid import (
    Bipartition,
    PureState,
    StateFormatError,
    apply_local_unitary,
    base_area,
    canonical_bipartitions,
    ghz_state,
    haar_random_state,
    parse_state,
    permute_subsystems,
    random_local_unitary,
    reduced_purity,
    serialize_state,
    w_state,
)
from gmepyramid.catalog import PAPER_STATES, PUBLISHED_TOL, benchmark_states
from gmepyramid.concurrence import concurrence
from gmepyramid.states import _Owned, _plain, check_dims, flat_index
from gmepyramid.verify import TrialConfig, random_product_state

GHZ4_TEXT = """\
# four-qubit GHZ
dims 2 2 2 2

amp 0 0 0 0 0.7071067811865476 0.0
amp 1 1 1 1 0.7071067811865476 0.0
"""


def basis_state(dims, digits):
    amps = np.zeros(math.prod(dims), dtype=complex)
    amps[flat_index(dims, digits)] = 1.0
    return PureState(tuple(dims), amps)


def loop_parse_state(text, normalize=False):
    """The record-at-a-time parser that ``parse_state`` replaced, kept as its
    reference: each check runs on its line as the line is read, so the
    first faulty line is the one reported."""
    dims = None
    amps = None
    seen = set()

    records = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, raw in enumerate(records, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields = line.split()
            if dims is None:
                if fields[0] != "dims":
                    raise ValueError(f"expected 'dims ...' first, got {fields[0]!r}")
                try:
                    dims = tuple(int(f) for f in _plain(fields)[1:])
                except ValueError:
                    raise ValueError(f"non-integer dimension in {line!r}") from None
                dims = check_dims(dims)
                amps = np.zeros(math.prod(dims), dtype=complex)
                continue
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
            idx = flat_index(dims, digits)
            if idx in seen:
                raise ValueError(f"duplicate basis tuple {tuple(digits)}")
            seen.add(idx)
            amps[idx] = complex(re, im)
        except ValueError as exc:
            raise StateFormatError(f"line {lineno}: {exc}") from None

    if dims is None:
        raise StateFormatError("no 'dims' line found")
    try:
        return PureState(dims, _Owned(amps), normalize=normalize)
    except ValueError as exc:
        raise StateFormatError(str(exc)) from None


class TestParse:
    def test_ghz4(self):
        state = parse_state(GHZ4_TEXT)
        assert state.dims == (2, 2, 2, 2)
        assert state.amplitudes.size == 16
        assert np.count_nonzero(state.amplitudes) == 2
        assert state.amplitude((0, 0, 0, 0)) == pytest.approx(1 / math.sqrt(2))
        assert state.amplitude((1, 1, 1, 1)) == pytest.approx(1 / math.sqrt(2))

    def test_out_of_range_digit(self):
        with pytest.raises(StateFormatError, match="line 2.*out of range"):
            parse_state("dims 2 2 2\namp 0 0 2 1.0 0.0\n")

    def test_duplicate_basis_tuple(self):
        text = "dims 2 2\namp 0 0 0.7 0.0\namp 0 0 0.7 0.0\n"
        with pytest.raises(StateFormatError, match="line 3.*duplicate"):
            parse_state(text)

    def test_dims_line_must_come_first(self):
        with pytest.raises(StateFormatError, match="line 1"):
            parse_state("amp 0 0 1.0 0.0\ndims 2 2\n")

    def test_missing_dims(self):
        with pytest.raises(StateFormatError, match="no 'dims' line"):
            parse_state("# nothing here\n")

    def test_malformed_number(self):
        with pytest.raises(StateFormatError, match="line 2.*malformed"):
            parse_state("dims 2 2\namp 0 0 one 0.0\n")

    def test_wrong_field_count(self):
        with pytest.raises(StateFormatError, match="line 2"):
            parse_state("dims 2 2 2\namp 0 0 1.0 0.0\n")

    def test_norm_gate_without_flag(self):
        text = "dims 2 2\namp 0 0 1.0 0.0\namp 1 1 1.0 0.0\n"
        with pytest.raises(StateFormatError, match="norm"):
            parse_state(text)

    def test_normalize_flag_rescales(self):
        text = "dims 2 2\namp 0 0 1.0 0.0\namp 1 1 1.0 0.0\n"
        state = parse_state(text, normalize=True)
        assert state.amplitude((0, 0)) == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    @pytest.mark.parametrize(
        "dims_line, message",
        [
            ("dims 2", "at least 2 subsystems"),
            ("dims 2 1", ">= 2"),
            ("dims" + " 2" * 27, "exceeds"),
            # Refused by count, before the product of 20000 dims is formed.
            pytest.param("dims" + " 2" * 20000, "exceeds the supported maximum 26$", id="20000-twos"),
        ],
    )
    def test_rejects_bad_dims_line(self, dims_line, message):
        with pytest.raises(StateFormatError, match=f"line 2: .*{message}"):
            parse_state("# header\n" + dims_line + "\n")

    def test_party_count_is_refused_before_any_product(self, monkeypatch):
        def refuse_product(*args):
            raise AssertionError("multiplied the dims")

        monkeypatch.setattr(math, "prod", refuse_product)
        with pytest.raises(StateFormatError, match="^line 1: subsystem count 27 exceeds"):
            parse_state("dims" + " 2" * 27 + "\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize(
        "amp_lines, message",
        [
            pytest.param("amp 0 0 0 nan 0.0", "^line 2: non-finite amplitude", id="nan"),
            pytest.param("amp 0 0 0 0.0 nan", "^line 2: non-finite amplitude", id="imag-nan"),
            pytest.param("amp 0 0 0 inf 0.0", "^line 2: non-finite amplitude", id="inf"),
            pytest.param("amp 0 0 0 1e400 0.0", "^line 2: non-finite amplitude", id="1e400"),
            pytest.param("amp 0 0 0 1e308 0.0\namp 1 1 1 1e308 0.0", "overflows", id="overflow"),
            pytest.param("amp 0 0 0 1e-200 0.0\namp 1 1 1 1e-200 0.0", "underflows", id="underflow"),
        ],
    )
    def test_rejects_non_finite_amplitudes(self, amp_lines, message, normalize):
        with pytest.raises(StateFormatError, match=message):
            parse_state("dims 2 2 2\n" + amp_lines + "\n", normalize=normalize)

    @pytest.mark.parametrize(
        "separator",
        ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"],
    )
    def test_a_comment_holding_a_unicode_line_break_is_one_line(self, separator):
        text = f"# exported by a tool {separator} page 2\n" + GHZ4_TEXT
        assert np.array_equal(parse_state(text).amplitudes, parse_state(GHZ4_TEXT).amplitudes)
        duplicate = text + "amp 0 0 0 0 0.7 0.0\n"
        with pytest.raises(StateFormatError, match="^line 7: duplicate basis tuple"):
            parse_state(duplicate)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
    def test_crlf_and_cr_line_ends_parse(self, newline):
        text = GHZ4_TEXT.replace("\n", newline)
        assert np.array_equal(parse_state(text).amplitudes, parse_state(GHZ4_TEXT).amplitudes)
        with pytest.raises(StateFormatError, match="^line 6: duplicate basis tuple"):
            parse_state(text + "amp 1 1 1 1 0.7 0.0" + newline)

    @pytest.mark.parametrize(
        "record",
        [
            pytest.param("dims \u0662 \u0662", id="arabic-dims"),
            pytest.param("dims 2 2_0", id="underscore-dims"),
            pytest.param("amp \u0660 0 0.7_0710678_11865476 0", id="arabic-digit"),
            pytest.param("amp 0 0 0.7_1 0", id="underscore-amp"),
            pytest.param("amp 1_0 0 1.0 0", id="underscore-digit"),
            pytest.param("amp 0 0 1.0 \uff10", id="fullwidth-imag"),
        ],
    )
    def test_numbers_outside_ascii_or_with_underscores_are_refused(self, record):
        # int() and float() alone would read every one of these fields.
        if record.startswith("dims"):
            text, message = record + "\n", f"line 1: non-integer dimension in {record!r}"
        else:
            text, message = "dims 2 2\n" + record + "\n", f"line 2: malformed number in {record!r}"
        with pytest.raises(StateFormatError, match=f"^{re.escape(message)}$"):
            parse_state(text)

    def test_ascii_fields_parse_whatever_separates_them(self):
        text = "# psi_\u00e9 \u0662\ndims\u00a02\u30002 2 2\namp 0\u20030 0 0 0.7071067811865476\u00a00.0\n"
        text += "amp 1 1 1 1 0.7071067811865476 0.0\n"
        assert np.array_equal(parse_state(text).amplitudes, parse_state(GHZ4_TEXT).amplitudes)

    def test_qudit_dims(self):
        state = parse_state("dims 3 2\namp 2 1 1.0 0.0\n")
        assert state.dims == (3, 2)
        assert state.amplitude((2, 1)) == 1.0


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(lambda: Bipartition((1.5,), 4), "1.5", id="bipartition"),
        pytest.param(lambda: reduced_purity(w_state(3), (1.9,)), "1.9", id="reduced-purity"),
        pytest.param(lambda: permute_subsystems(w_state(3), (1.5, 2, 3)), "1.5", id="permute"),
        pytest.param(lambda: random_product_state((2, 2, 2), (1.7,), 5), "1.7", id="product-sites"),
        pytest.param(lambda: w_state(3).amplitude((0.5, 0, 0)), "0.5", id="amplitude"),
        pytest.param(lambda: PureState((2.5, 2.0), [1, 0, 0, 0]), "2.5", id="state-dims"),
        pytest.param(lambda: PureState((2, 2.0), [1, 0, 0, 0]), "2.0", id="integral-float-dims"),
        pytest.param(lambda: haar_random_state((2.7, 2), seed=1), "2.7", id="haar-dims"),
        pytest.param(lambda: TrialConfig((2.5, 2, 2)), "2.5", id="config-dims"),
        pytest.param(lambda: TrialConfig((2, 2, 2), trials=2.5), "2.5", id="config-trials"),
        pytest.param(lambda: TrialConfig((2, 2, 2), seed=1.5), "1.5", id="config-seed"),
        pytest.param(
            lambda: apply_local_unitary(ghz_state(3), 1.5, np.eye(2)), "1.5", id="unitary-site"
        ),
        pytest.param(lambda: random_local_unitary(2.5, 1), "2.5", id="unitary-dimension"),
        pytest.param(lambda: Bipartition((1,), 4.5), "4.5", id="bipartition-parties"),
        pytest.param(lambda: canonical_bipartitions(4.0), "4.0", id="canonical-parties"),
        pytest.param(lambda: ghz_state(3.0), "3.0", id="ghz-qubits"),
        pytest.param(lambda: base_area(3.5, 1.0), "3.5", id="polygon-vertices"),
        pytest.param(lambda: TrialConfig((2, 2, 2), trials=True), "True", id="config-trials-bool"),
        pytest.param(lambda: Bipartition((True,), 3), "True", id="bipartition-bool"),
        pytest.param(lambda: w_state(3).amplitude((True, True, True)), "True", id="amplitude-bool"),
    ],
)
def test_non_integral_index_is_refused(call, value):
    with pytest.raises(ValueError, match=f"must be an integer, got {value}$"):
        call()


def test_integer_numpy_indices_are_accepted():
    state = w_state(3)
    one, three = np.int64(1), np.int32(3)
    assert reduced_purity(state, (one,)) == reduced_purity(state, (1,))
    assert Bipartition((one,), 3) == Bipartition((1,), 3)
    permuted = permute_subsystems(state, (one, np.int64(2), three))
    assert permuted.amplitude((0, 0, one)) == state.amplitude((0, 0, 1))
    two = np.int64(2)
    assert PureState((two, np.int32(3)), np.eye(6)[0]).dims == (2, 3)
    assert TrialConfig((two, two, two), trials=three, seed=one) == TrialConfig((2, 2, 2), 3, 1)
    assert base_area(np.int64(4), 1.0) == base_area(4, 1.0)


@pytest.mark.parametrize(
    "n, message",
    [
        pytest.param(27, "subsystem count 27 exceeds the supported maximum 26", id="27-qubits"),
        pytest.param(1, "a multipartite state needs at least 2 subsystems", id="1-qubit"),
    ],
)
@pytest.mark.parametrize("build", [ghz_state, w_state])
def test_catalog_checks_qubit_count_before_allocating(monkeypatch, build, n, message):
    def refuse_allocation(*args, **kwargs):
        raise AssertionError("allocated the amplitudes")

    monkeypatch.setattr(np, "zeros", refuse_allocation)
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(n)


@pytest.mark.parametrize("build, n", [(w_state, 20000), (ghz_state, 10**7)], ids=["w", "ghz"])
def test_catalog_refuses_a_huge_qubit_count_in_constant_memory(build, n):
    tracemalloc.start()
    try:
        message = f"^subsystem count {n} exceeds the supported maximum 26$"
        with pytest.raises(ValueError, match=message):
            build(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# An independent copy of the paper's states, to pin catalog.PAPER_STATES against:
# the kets of each state past GHZ4 and W4, psi_D's radical as the paper's
# construction writes it, and the published values in report order.
_T = math.sqrt((5.0 * math.sqrt(113.0) + 51.0) / 32.0)
PINNED_KETS = {
    "psi_A": {"0000": 1.0, "1011": 1.0, "1101": 1.0, "1110": 1.0},
    "psi_B": {"0000": 1.0, "0101": 1.0, "1000": 1.0, "1110": 1.0},
    "psi_C": {"0000": 1.0, "1111": 1.0, "0011": 1.0, "0101": 1.0, "0110": 1.0},
    "psi_D": {"0000": _T, "0101": _T, "1010": _T, "1111": _T, "0001": 1j, "0110": 1.0, "1011": -1j},
    "phi_12345": {"00000": 1.0, "01010": 1.0, "10100": 1.0, "11110": 1.0},
}
PINNED_VALUES = [
    ("GHZ4", {"volume": 0.3333}),
    ("W4", {"volume": 0.1875}),
    ("psi_A", {"volume": 0.3468, "c_gme": 0.8660}),
    ("psi_B", {"volume": 0.2788, "c_gme": 0.8660}),
    ("psi_C", {"volume": 0.1487, "c_gme": 0.8000}),
    ("psi_D", {"volume": 0.3407, "c_gme": 0.8000}),
    ("phi_12345", {"volume": 0.0}),
]


def _pinned_state(kets):
    n = len(next(iter(kets)))
    amps = np.zeros(2**n, dtype=complex)
    for bits, value in kets.items():
        amps[int(bits, 2)] = value
    return PureState((2,) * n, amps, normalize=True)


def test_paper_states_are_bit_identical_to_their_pinned_construction():
    expected = {"GHZ4": ghz_state(4), "W4": w_state(4)}
    expected.update((state_id, _pinned_state(kets)) for state_id, kets in PINNED_KETS.items())
    states = benchmark_states()
    assert list(states) == [state_id for state_id, _ in PINNED_VALUES]
    for state_id, state in states.items():
        pinned = expected[state_id]
        assert state.dims == pinned.dims, state_id
        assert state.amplitudes.tobytes() == pinned.amplitudes.tobytes(), state_id
        assert state._tensor.dtype == pinned._tensor.dtype, state_id


def test_paper_table_keeps_its_order_and_published_values():
    assert [(state_id, row[1]) for state_id, row in PAPER_STATES.items()] == PINNED_VALUES
    assert PUBLISHED_TOL == {"volume": 2e-3, "c_gme": 1e-4}


def ghz_like(dims):
    """sum_k |k ... k> over the levels every subsystem has."""
    amps = np.zeros(math.prod(dims))
    for k in range(min(dims)):
        amps[flat_index(dims, [k] * len(dims))] = 1.0
    return PureState(dims, amps, normalize=True)


def w_like(dims):
    """Every basis state with exactly one nonzero digit, equally weighted."""
    amps = np.zeros(math.prod(dims))
    for site, d in enumerate(dims):
        for k in range(1, d):
            amps[flat_index(dims, [k if s == site else 0 for s in range(len(dims))])] = 1.0
    return PureState(dims, amps, normalize=True)


def real_state(dims, seed):
    """Real Gaussian amplitudes; every other one is negated as a complex
    number, so its imaginary part is -0.0."""
    amps = np.random.default_rng(seed).standard_normal(math.prod(dims)).astype(complex)
    amps[::2] *= -1
    return PureState(dims, amps, normalize=True)


STATE_KINDS = {
    "haar": lambda dims: haar_random_state(dims, seed=[3, *dims]),
    "real": lambda dims: real_state(dims, [4, *dims]),
    "ghz": ghz_like,
    "w": w_like,
    "product": lambda dims: random_product_state(dims, (1, len(dims)), [5, *dims]),
}


PARSE_FAULTS = ("out-of-range", "non-digit", "malformed", "nan", "duplicate")


def put_fault(lines, i, fault, dims, rng):
    """Put ``fault`` into record ``i`` of ``lines`` (the dims line and the
    records as ``serialize_state`` writes them), drawing its field from ``rng``."""
    fields = lines[i].split(" ")
    if fault == "out-of-range":
        j = int(rng.integers(len(dims)))
        fields[1 + j] = str(dims[j])
    elif fault == "non-digit":
        fields[1 + int(rng.integers(len(dims)))] = str(rng.choice(["x", "+", "-", "."]))
    elif fault == "malformed":
        fields[-2] = "0.1.2"
    elif fault == "nan":
        fields[-1] = "nan"
    else:  # a copy of an earlier record goes in at record i (at record 2 if i is 1)
        earlier = int(rng.integers(1, i)) if i > 1 else 1
        lines.insert(i + (i == 1), lines[earlier])
        return
    lines[i] = " ".join(fields)


def parse_mutants(text, dims, seed):
    """(name, text, faulty) cases: the serialized ``text`` under format
    changes and faults, at places drawn from ``seed``. Faults go in before
    format changes, which move the records."""
    rng = np.random.default_rng(seed)
    base = text.splitlines()

    def records(lines, k):
        return sorted(rng.choice(np.arange(1, len(lines)), size=k, replace=False).tolist())

    def insert(lines, line):
        lines.insert(int(rng.integers(len(lines) + 1)), line)

    def tabs(lines):
        for i in range(len(lines)):
            if rng.random() < 0.5:
                lines[i] = lines[i].replace(" ", "\t")

    def unicode_space(lines):
        (i,) = records(lines, 1)
        lines[i] = lines[i].replace(" ", "\u3000", 2)

    def signed_digits(lines):
        for i in records(lines, min(3, len(lines) - 1)):
            j = int(rng.integers(len(dims)))
            fields = lines[i].split(" ")
            fields[1 + j] = rng.choice(["+", "0"] + ["-"] * (fields[1 + j] == "0")) + fields[1 + j]
            lines[i] = " ".join(fields)

    formats = {
        "ascii-comment": lambda lines: insert(lines, "# exported by a tool"),
        "unicode-comment": lambda lines: insert(lines, "# psi_\u00e9 \u0662"),
        "blank-line": lambda lines: insert(lines, " \t "),
        "tabs": tabs,
        "unicode-space": unicode_space,
        "signed-digits": signed_digits,
    }
    newlines = ["\n", "\r\n", "\r"]
    cases = []

    def case(name, faults, fmt=None, newline="\n", one_record=False):
        lines = list(base)
        at = records(lines, 1) * len(faults) if one_record else records(lines, len(faults))
        # The later record first, so the earlier index still points at its record.
        for i, fault in reversed(list(zip(at, faults))):
            put_fault(lines, i, fault, dims, rng)
        if fmt:
            formats[fmt](lines)
        cases.append((name, newline.join(lines) + newline, bool(faults)))

    for newline in newlines:
        case(repr(newline), ())
    for fmt in formats:
        case(fmt, (), fmt, rng.choice(newlines))
    for fault in PARSE_FAULTS:
        case(fault, (fault,))
        fmt = rng.choice(list(formats))
        case(f"{fault} {fmt}", (fault,), fmt, rng.choice(newlines))
        for second in PARSE_FAULTS:
            case(f"{fault} then {second}", (fault, second))
    case("nan and out-of-range in one record", ("nan", "out-of-range"), one_record=True)
    return cases


def parse_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # a refusal of any type is compared
        return exc


def assert_parses_as_the_loop(text):
    """``parse_state`` gives the reference's dims and amplitudes bit for bit,
    or its refusal's type and text; returns the reference's outcome."""
    expected, got = parse_outcome(loop_parse_state, text), parse_outcome(parse_state, text)
    if isinstance(expected, Exception):
        assert (type(got), str(got)) == (type(expected), str(expected))
    else:
        assert isinstance(got, PureState), got
        assert got.dims == expected.dims
        assert np.array_equal(got.amplitudes.view(np.uint64), expected.amplitudes.view(np.uint64))
    return expected


class TestParseAgainstTheLoop:
    @pytest.mark.parametrize(
        "dims, kind",
        [
            pytest.param(dims, kind, id=f"{kind}-{'x'.join(map(str, dims))}")
            for dims in [(2,) * 4, (2, 3, 2, 2, 3), (3, 3) + (2,) * 9, (64, 64, 2, 2, 2), (2,) * 13]
            for kind in STATE_KINDS
            # The real and product states stand for the dense two-digit file.
            if (dims, kind) != ((64, 64, 2, 2, 2), "haar")
        ],
    )
    def test_serialized_states_parse_as_the_loop(self, dims, kind):
        assert isinstance(assert_parses_as_the_loop(serialize_state(STATE_KINDS[kind](dims))), PureState)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize(
        "dims, kind",
        [
            pytest.param(dims, kind, id=f"{kind}-{'x'.join(map(str, dims))}")
            for dims, kind in [
                ((2,) * 4, "haar"),
                ((2,) * 4, "real"),
                ((2, 3, 2, 2, 3), "haar"),
                ((2, 3, 2, 2, 3), "product"),
                ((64, 64, 2, 2, 2), "w"),
                ((3, 3) + (2,) * 9, "ghz"),
            ]
        ],
    )
    def test_mutated_texts_parse_or_are_refused_as_by_the_loop(self, dims, kind, seed):
        text = serialize_state(STATE_KINDS[kind](dims))
        for name, mutant, faulty in parse_mutants(text, dims, [seed, *dims]):
            expected = assert_parses_as_the_loop(mutant)
            # Each fault refuses the text, at a line; no format change does.
            if faulty:
                assert isinstance(expected, StateFormatError) and str(expected).startswith("line "), name
            else:
                assert isinstance(expected, PureState), (name, expected)

    def test_a_13_qubit_parse_peaks_within_2_mib(self):
        # Lists of the fields as strings would take about twice this.
        text = serialize_state(haar_random_state((2,) * 13, 9))
        tracemalloc.start()
        try:
            parse_state(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


class TestRoundTrip:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (3, 3, 2)])
    def test_parse_serialize_parse_is_exact(self, dims):
        original = haar_random_state(dims, seed=[11, *dims])
        reparsed = parse_state(serialize_state(original))
        assert reparsed.dims == original.dims
        np.testing.assert_array_equal(reparsed.amplitudes, original.amplitudes)

    def test_serializer_omits_zeros(self):
        text = serialize_state(parse_state(GHZ4_TEXT))
        assert text.count("amp ") == 2

    def test_serialized_text_is_pinned(self):
        amps = np.zeros(6, dtype=complex)
        amps[[2, 3, 4]] = 0.5j, -0.5, 0.5 + 0.5j
        expected = "dims 2 3\namp 0 2 0.0 0.5\namp 1 0 -0.5 0.0\namp 1 1 0.5 0.5\n"
        assert serialize_state(PureState((2, 3), amps)) == expected


class TestConstructor:
    def test_rejects_single_subsystem(self):
        with pytest.raises(ValueError, match="at least 2"):
            PureState((2,), np.array([1.0, 0.0]))

    def test_rejects_dimension_one(self):
        with pytest.raises(ValueError, match=">= 2"):
            PureState((2, 1), np.array([1.0, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="expected 4 amplitudes"):
            PureState((2, 2), np.array([1.0, 0.0, 0.0]))

    def test_rejects_unnormalized_without_flag(self):
        with pytest.raises(ValueError, match="normalize=True"):
            PureState((2, 2), np.array([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="^state vector is zero$"):
            PureState((2, 2), np.zeros(4), normalize=True)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize(
        "amps, message",
        [
            pytest.param([0.0, 0.0, 0.0, math.nan], "finite", id="nan"),
            pytest.param([0.0, 0.0, 0.0, -math.inf], "finite", id="-inf"),
            pytest.param([1.0, 0.0, 0.0, complex(0.0, math.inf)], "finite", id="imag-inf"),
            pytest.param([1e308, 0.0, 0.0, 1e308], "overflows", id="overflow"),
            pytest.param(
                [1e-200, 0.0, 0.0, 1e-200],
                "^state norm 1.41e-200 underflows float64; rescale the amplitudes$",
                id="underflow",
            ),
            pytest.param([5e-324, 0.0, 0.0, 0.0], "^state norm 4.94e-324 underflows", id="subnormal"),
        ],
    )
    def test_rejects_non_finite(self, amps, message, normalize):
        with pytest.raises(ValueError, match=message):
            PureState((2, 2), np.array(amps, dtype=complex), normalize=normalize)

    def test_rejects_oversized_hilbert_space(self):
        with pytest.raises(ValueError, match="exceeds"):
            PureState((2,) * 27, np.zeros(4))

    def test_amplitude_rejects_bad_digits(self):
        state = ghz_state(4)
        with pytest.raises(ValueError, match="expected 4 basis digits"):
            state.amplitude((0, 0, 0))
        with pytest.raises(ValueError, match="out of range"):
            state.amplitude((0, 0, 2, 0))

    def test_amplitudes_are_read_only(self):
        state = ghz_state(3)
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0

    def test_norm_after_construction(self):
        state = haar_random_state((3, 3, 3), seed=5)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_amplitudes_just_above_the_norm_floor_normalize_to_unit_norm(self):
        state = PureState((2, 2), [1e-149, 0.0, 0.0, 1e-149], normalize=True)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 4e-16
        assert concurrence(state, (1,)) == pytest.approx(1.0, abs=1e-15)

    def test_states_compare_and_hash_by_identity(self):
        state, twin = ghz_state(3), ghz_state(3)
        assert np.array_equal(state.amplitudes, twin.amplitudes)
        assert state != twin
        assert state == state
        assert state not in [twin]
        assert len({state, twin}) == 2
        assert {state: "a", twin: "b"}[twin] == "b"

    def test_a_caller_array_is_copied(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        state = PureState((2, 2, 2), amps)
        amps[0] = 0.5
        assert state.amplitudes[0] == 1.0

    # The parser and the Haar sampler hand their fresh vector over instead
    # of having it copied, so their peak holds one state-sized vector.
    @pytest.mark.parametrize("kind", ["parse", "haar"])
    def test_built_states_are_not_copied(self, kind):
        text = serialize_state(ghz_state(18))

        def build():
            if kind == "parse":
                return parse_state(text)
            return haar_random_state((2,) * 18, seed=6)

        build()
        tracemalloc.start()
        try:
            state = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * state.amplitudes.nbytes


class TestLocalUnitary:
    def test_identity_is_noop(self):
        state = ghz_state(4)
        for site in range(1, 5):
            out = apply_local_unitary(state, site, np.eye(2))
            np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_bit_flip_moves_basis_state(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = apply_local_unitary(basis_state((2, 2, 2, 2), (0, 0, 0, 0)), 1, flip)
        assert out.amplitude((1, 0, 0, 0)) == pytest.approx(1.0)

    def test_rejects_nonunitary(self):
        with pytest.raises(ValueError, match="not unitary"):
            apply_local_unitary(ghz_state(3), 1, np.array([[1.0, 0.0], [0.0, 2.0]]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            apply_local_unitary(ghz_state(3), 2, np.eye(3))

    @pytest.mark.parametrize("entry", [math.nan, math.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_entries(self, entry):
        u = np.eye(2, dtype=complex)
        u[1, 1] = entry
        with pytest.raises(ValueError, match=r"^matrix entries must be finite \(no nan or inf\)$"):
            apply_local_unitary(ghz_state(3), 1, u)

    def test_rejects_bad_site(self):
        with pytest.raises(ValueError, match="site"):
            apply_local_unitary(ghz_state(3), 4, np.eye(2))

    def test_norm_preserved_100_trials(self):
        dims = (3, 3, 3, 3)
        for trial in range(100):
            state = haar_random_state(dims, seed=[31, trial])
            site = trial % 4 + 1
            u = random_local_unitary(dims[site - 1], seed=[32, trial])
            out = apply_local_unitary(state, site, u)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


class TestPermute:
    def test_identity(self):
        state = haar_random_state((2, 3, 2), seed=1)
        out = permute_subsystems(state, (1, 2, 3))
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_swap_relabels_basis_state(self):
        out = permute_subsystems(basis_state((2, 2, 2, 2), (0, 1, 0, 0)), (2, 1, 3, 4))
        assert out.amplitude((1, 0, 0, 0)) == pytest.approx(1.0)

    def test_ghz_is_permutation_symmetric(self):
        state = ghz_state(4)
        out = permute_subsystems(state, (3, 1, 4, 2))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-15)

    def test_dims_follow_the_permutation(self):
        state = haar_random_state((2, 3, 4), seed=2)
        assert permute_subsystems(state, (3, 1, 2)).dims == (4, 2, 3)

    def test_inverse_composes_to_identity(self):
        state = haar_random_state((2, 3, 2, 2), seed=3)
        perm = (3, 1, 4, 2)
        inverse = tuple(perm.index(i) + 1 for i in range(1, 5))
        out = permute_subsystems(permute_subsystems(state, perm), inverse)
        assert out.dims == state.dims
        np.testing.assert_array_equal(out.amplitudes, state.amplitudes)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="permutation"):
            permute_subsystems(ghz_state(3), (1, 1, 2))
