"""Unit tests for the Little's-law oracle in ``tests/oracles.py``."""

import pytest

from oracles import littles_law_l, littles_law_w, relative_gap


def test_l_equals_lambda_w():
    assert littles_law_l(0.5, 4.0) == pytest.approx(2.0)


def test_w_equals_l_over_lambda():
    assert littles_law_w(2.0, 0.5) == pytest.approx(4.0)


def test_roundtrip():
    arrival, wait = 0.7, 3.3
    assert littles_law_w(littles_law_l(arrival, wait), arrival) == pytest.approx(wait)


def test_negative_inputs_rejected():
    with pytest.raises(ValueError):
        littles_law_l(-1.0, 1.0)
    with pytest.raises(ValueError):
        littles_law_w(1.0, 0.0)


def test_relative_gap():
    assert relative_gap(11.0, 10.0) == pytest.approx(0.1)
    assert relative_gap(10.0, 10.0) == 0.0


def test_relative_gap_handles_zero_expected():
    assert relative_gap(1.0, 0.0) > 1e6
