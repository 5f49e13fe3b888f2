import math

import numpy as np
import pytest

from gmepyramid import (
    PureState,
    StateFormatError,
    apply_local_unitary,
    ghz_state,
    haar_random_state,
    parse_state,
    permute_subsystems,
    random_local_unitary,
    serialize_state,
)
from gmepyramid.states import flat_index

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
        ],
    )
    def test_rejects_bad_dims_line(self, dims_line, message):
        with pytest.raises(StateFormatError, match=f"line 2: .*{message}"):
            parse_state("# header\n" + dims_line + "\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize(
        "amp_lines, message",
        [
            pytest.param("amp 0 0 0 nan 0.0", "finite", id="nan"),
            pytest.param("amp 0 0 0 0.0 nan", "finite", id="imag-nan"),
            pytest.param("amp 0 0 0 inf 0.0", "finite", id="inf"),
            pytest.param("amp 0 0 0 1e308 0.0\namp 1 1 1 1e308 0.0", "overflows", id="overflow"),
        ],
    )
    def test_rejects_non_finite_amplitudes(self, amp_lines, message, normalize):
        with pytest.raises(StateFormatError, match=message):
            parse_state("dims 2 2 2\n" + amp_lines + "\n", normalize=normalize)

    def test_qudit_dims(self):
        state = parse_state("dims 3 2\namp 2 1 1.0 0.0\n")
        assert state.dims == (3, 2)
        assert state.amplitude((2, 1)) == 1.0


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
        with pytest.raises(ValueError, match="zero"):
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
