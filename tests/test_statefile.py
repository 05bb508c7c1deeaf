import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entkit.entanglement import entanglement_number_schmidt
from entkit.statefile import StateFileError, parse_complex, parse_state_file

STATES = Path(__file__).resolve().parent.parent / "states"


class TestParseComplex:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("4", 4 + 0j),
            ("-2.5", -2.5 + 0j),
            ("3.", 3.0 + 0j),
            (".5", 0.5 + 0j),
            ("0i", 0j),
            ("-3i", -3j),
            ("+3i", 3j),
            (".5i", 0.5j),
            ("i", 1j),
            ("-i", -1j),
            ("+i", 1j),
            ("4+0i", 4 + 0j),
            ("4-3i", 4 - 3j),
            ("-4-3i", -4 - 3j),
            ("4+i", 4 + 1j),
            ("4-i", 4 - 1j),
            ("1.5e-3+2e4i", 1.5e-3 + 2e4j),
            ("1E2-3.5E-1i", 100 - 0.35j),
        ],
    )
    def test_accepted_literals(self, token, expected):
        assert parse_complex(token) == expected

    @pytest.mark.parametrize(
        "token",
        ["", "4+", "i4", "4i5", "--3i", "3i+4", "4 i", "inf", "nan", "1_0", "4+3", "j", "4..5"],
    )
    def test_rejected_literals(self, token):
        with pytest.raises(ValueError):
            parse_complex(token)

    @pytest.mark.parametrize("token", ["nan", "-inf", "Infinity", "1e400", "-2e308i", "1+1e999i"])
    def test_non_finite_literals_say_so(self, token):
        with pytest.raises(ValueError, match="not finite"):
            parse_complex(token)

    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        st.floats(allow_nan=False, allow_infinity=False, width=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trips_formatted_floats(self, re, im):
        token = f"{re:.17g}{im:+.17g}i"
        assert parse_complex(token) == complex(re, im)


class TestParseStateFile:
    def test_dense_bell_file(self):
        state = parse_state_file((STATES / "bell.state").read_text())
        expected = np.diag([1.0, 1.0]) / math.sqrt(2)
        np.testing.assert_allclose(state.coefficients, expected, atol=1e-15)
        report = entanglement_number_schmidt(state)
        assert report.schmidt_index == 2
        assert report.maximal

    def test_three_by_three_fixture_normalizes(self):
        state = parse_state_file((STATES / "example3.state").read_text())
        raw = np.array([[4, -3j, 5], [-8, 6j, -10], [12, -9j, 15]], dtype=complex)
        assert np.linalg.norm(raw) == pytest.approx(10 * math.sqrt(7), abs=1e-12)
        np.testing.assert_allclose(state.coefficients, raw / (10 * math.sqrt(7)), atol=1e-15)

    def test_sparse_format(self):
        text = "dims 2 2\nnormalize\nsparse\n1 1 1\n2 2 -i\n"
        state = parse_state_file(text)
        expected = np.array([[1, 0], [0, -1j]]) / math.sqrt(2)
        np.testing.assert_allclose(state.coefficients, expected, atol=1e-15)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\ndims 1 2   # trailing\n\ndense\n1 0i  # row\n"
        state = parse_state_file(text)
        np.testing.assert_allclose(state.coefficients, [[1.0, 0.0]], atol=0)

    def test_non_unit_norm_rejected_without_normalize(self):
        text = "dims 2 2\ndense\n0.9 0\n0 0\n"
        with pytest.raises(StateFileError, match="normalize"):
            parse_state_file(text)

    def test_force_normalize_flag(self):
        text = "dims 2 2\ndense\n0.9 0\n0 0\n"
        state = parse_state_file(text, force_normalize=True)
        np.testing.assert_allclose(state.coefficients, [[1, 0], [0, 0]], atol=1e-15)

    def test_error_carries_line_number(self):
        text = "dims 2 2\nnormalize\ndense\n1 0\n1 bogus\n"
        with pytest.raises(StateFileError) as info:
            parse_state_file(text)
        assert info.value.line == 5
        assert "bogus" in str(info.value)

    def test_dense_row_length_mismatch(self):
        with pytest.raises(StateFileError, match="entries, expected"):
            parse_state_file("dims 2 2\nnormalize\ndense\n1 0 0\n0 1\n")

    def test_dense_missing_rows(self):
        with pytest.raises(StateFileError, match="unexpected end"):
            parse_state_file("dims 2 2\nnormalize\ndense\n1 0\n")

    def test_dense_extra_rows(self):
        with pytest.raises(StateFileError, match="unexpected content"):
            parse_state_file("dims 1 1\ndense\n1\n1\n")

    def test_sparse_duplicate_entry(self):
        with pytest.raises(StateFileError, match="duplicate"):
            parse_state_file("dims 2 2\nnormalize\nsparse\n1 1 1\n1 1 1\n")

    def test_sparse_out_of_range(self):
        with pytest.raises(StateFileError, match="outside"):
            parse_state_file("dims 2 2\nnormalize\nsparse\n3 1 1\n")

    def test_sparse_bad_indices(self):
        with pytest.raises(StateFileError, match="integers"):
            parse_state_file("dims 2 2\nnormalize\nsparse\nx 1 1\n")

    def test_missing_dims_header(self):
        with pytest.raises(StateFileError, match="dims"):
            parse_state_file("dense\n1\n")

    def test_bad_dims_values(self):
        with pytest.raises(StateFileError, match="positive"):
            parse_state_file("dims 0 2\ndense\n")

    def test_unknown_format_tag(self):
        with pytest.raises(StateFileError, match="dense.*sparse"):
            parse_state_file("dims 1 1\nweird\n1\n")

    def test_empty_file(self):
        with pytest.raises(StateFileError, match="empty"):
            parse_state_file("# only a comment\n")

    def test_zero_matrix_cannot_normalize(self):
        with pytest.raises(StateFileError, match="all-zero"):
            parse_state_file("dims 2 2\nnormalize\nsparse\n")
        with pytest.raises(StateFileError, match="all-zero"):
            parse_state_file("dims 2 2\nnormalize\ndense\n0 0\n0 0\n")

    @pytest.mark.parametrize("entry", ["1e200", "1e-200", "1e308+1e308i", "5e-324"])
    def test_normalize_is_scale_safe(self, entry):
        # The norm neither overflows nor underflows, and nothing warns.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = parse_state_file(f"dims 2 2\nnormalize\ndense\n{entry} 0\n0 {entry}\n")
        np.testing.assert_allclose(np.abs(state.coefficients), np.eye(2) / math.sqrt(2), atol=1e-15)

    def test_normalize_keeps_bits_of_ordinary_entries(self):
        # The rescaling is by a power of two, which is exact.
        raw = np.array([[3, 1], [1, 1]], dtype=complex)
        state = parse_state_file("dims 2 2\nnormalize\ndense\n3 1\n1 1\n")
        assert np.array_equal(state.coefficients, raw / np.linalg.norm(raw))

    def test_huge_entries_without_normalize_report_their_norm(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StateFileError, match="norm 1.41421e\\+200, not 1"):
                parse_state_file("dims 2 2\ndense\n1e200 0\n0 1e200\n")

    @pytest.mark.parametrize(
        "name,expected_weights",
        [
            ("example4_alpha.state", [1 / 2, 1 / 2]),
            ("example4_beta.state", [1 / 3, 1 / 3, 1 / 3]),
            ("example4_gamma.state", [1 / 2, 1 / 3, 1 / 6]),
            ("example4_delta.state", [7 / 9, 1 / 9, 1 / 9]),
        ],
    )
    def test_quartet_fixtures(self, name, expected_weights):
        state = parse_state_file((STATES / name).read_text())
        report = entanglement_number_schmidt(state)
        np.testing.assert_allclose(report.distribution, expected_weights, atol=1e-10)
