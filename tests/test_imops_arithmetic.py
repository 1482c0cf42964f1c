"""Tests for repro.imops.arithmetic."""

from __future__ import annotations

import numpy as np

from repro.imops import scale_to_uint8


class TestNormalization:
    def test_scale_to_uint8(self):
        out = scale_to_uint8(np.array([-5.0, 12.4, 300.0]))
        np.testing.assert_array_equal(out, np.array([0, 12, 255], dtype=np.uint8))
        assert out.dtype == np.uint8
