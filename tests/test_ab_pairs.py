"""The pair statistics of tools/ab_pairs.py."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

PARENT = [4.0, 4.2, 4.1, 4.3, 4.0, 4.4, 4.1, 4.2, 4.0, 4.3]


def test_gain_needs_nine_tenths_of_the_pairs():
    change = [3.0] * 10
    assert ab_pairs.compare(PARENT, change, "lower", 0.25)["verdict"] == "gain"
    # a tie counts for neither side: 8 wins of 10
    change[:2] = PARENT[:2]
    s = ab_pairs.compare(PARENT, change, "lower", 0.25)
    assert s["wins"] == 8 and s["verdict"] == "within"


def test_gain_needs_ten_pairs():
    s = ab_pairs.compare(PARENT[:9], [3.0] * 9, "lower", 0.25)
    assert s["wins"] == 9 and s["verdict"] == "within"


def test_gain_needs_the_median_past_the_parents_spread():
    change = [x - 0.01 for x in PARENT]
    s = ab_pairs.compare(PARENT, change, "lower", 0.25)
    assert s["wins"] == 10 and s["verdict"] == "within"


def test_higher_is_better():
    s = ab_pairs.compare([1.0] * 10, [2.0] * 10, "higher", 0.1)
    assert s["wins"] == 10 and s["verdict"] == "gain" and s["rel"] == 1.0


def test_worse_and_unresolved():
    assert ab_pairs.compare(PARENT, [6.0] * 10, "lower", 0.25)["verdict"] == "worse"
    # the parent's own quartiles lie further apart than the bound allows
    wide = [1.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 1.0, 3.0]
    assert ab_pairs.compare(wide, [3.5] * 10, "lower", 0.25)["verdict"] == "unresolved"


@pytest.mark.parametrize("values,expected", [([2.0], (2.0, 2.0, 2.0)),
                                             ([1.0, 2.0, 3.0, 4.0, 5.0], (2.0, 3.0, 4.0))])
def test_quartiles(values, expected):
    assert ab_pairs.quartiles(values) == expected
