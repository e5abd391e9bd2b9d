"""Tests for the sweep utility."""

import pytest

from repro.experiments import sweep


class TestSweep:
    def test_finds_argmax(self):
        result = sweep([1, 2, 3, 4], lambda v: -((v - 3) ** 2))
        assert result.best == 3
        assert result.metric_by_value[3] == 0.0

    def test_margin_over_runner_up(self):
        result = sweep([1, 2], {1: 100.0, 2: 50.0}.get)
        assert result.margin == pytest.approx(2.0)
        assert not result.is_tie

    def test_tie_detection(self):
        result = sweep([1, 2, 3], lambda v: 10.0)
        assert result.is_tie

    def test_normalized(self):
        result = sweep([1, 2], {1: 50.0, 2: 100.0}.get)
        assert result.normalized() == {1: 0.5, 2: 1.0}

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            sweep([], lambda v: 0.0)

    def test_all_zero_metric(self):
        result = sweep([1, 2], lambda v: 0.0)
        assert result.margin == 1.0
