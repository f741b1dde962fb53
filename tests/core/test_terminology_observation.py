"""Tests for the Table 1 terminology helpers."""

import pytest

from repro.core import (
    collapses_at,
    first_plateau,
    is_monotone,
    plateaus_at,
    stutters_at,
)

# A stuttering prefix mirroring Fig. 1's T-sequence sizes: grows, pauses
# at index 2, grows again, then stays flat.
STUTTER = [{0}, {0, 1}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2, 3}]


class TestTerminology:
    def test_is_monotone(self):
        assert is_monotone(STUTTER)
        assert not is_monotone([{0, 1}, {0}])

    def test_plateaus(self):
        assert plateaus_at(STUTTER, 2)
        assert not plateaus_at(STUTTER, 1)
        assert plateaus_at(STUTTER, 4)

    def test_plateau_bounds_checked(self):
        with pytest.raises(IndexError):
            plateaus_at(STUTTER, len(STUTTER) - 1)

    def test_stutters(self):
        assert stutters_at(STUTTER, 2)  # grows again at index 4
        assert not stutters_at(STUTTER, 4)  # flat to the end of prefix
        assert not stutters_at(STUTTER, 0)  # not even a plateau

    def test_collapses(self):
        assert collapses_at(STUTTER, 4)
        assert not collapses_at(STUTTER, 2)
        assert collapses_at(STUTTER, len(STUTTER) - 1)

    def test_collapse_bounds_checked(self):
        with pytest.raises(IndexError):
            collapses_at(STUTTER, 99)

    def test_first_plateau(self):
        assert first_plateau(STUTTER) == 3  # O2 == O3 detected at k=3
        assert first_plateau([{0}, {1, 0}]) is None

