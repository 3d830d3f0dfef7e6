import struct

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trialtensor.io import escape_percent, float_rows, format_float


def _bits(value):
    return struct.pack("<d", value)


class TestFormatFloat:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(-0.0)
    @example(0.0)
    @example(1.0)
    @example(5e-324)  # smallest subnormal
    @example(2.225073858507201e-308)  # largest subnormal
    @example(-1.7976931348623157e308)
    def test_round_trips_exactly(self, value):
        assert _bits(float(format_float(value))) == _bits(value)

    @given(st.floats())
    def test_bytes_match_the_17_digit_form(self, value):
        assert format_float(value) == f"{value:.17g}"


class TestFloatRows:
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(0, 5), st.integers(1, 4)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_matches_per_field_join(self, matrix):
        expected = "".join("\t".join(f"{v:.17g}" for v in row) + "\n" for row in matrix.tolist())
        assert float_rows(matrix) == expected


class TestEscapePercent:
    @given(st.text())
    def test_survives_formatting(self, text):
        assert (escape_percent(text) + "%s") % "" == text
