"""The one trend rule: series_trend, the verdict rules that read it, and the
slope and verdict of every evidence series the reports decide from."""

import math

import numpy as np
import pytest

from bergman_lab import (MomentTable, RadialWeight, is_dhat_moments, is_dhat_tail,
                         is_regular)
from bergman_lab import analysis
from bergman_lab.analysis import (AnalysisConfig, FUNCTIONAL_CONTRADICTION_SLOPE,
                                  _conclusion, theorem_check)
from bergman_lab.utils import SLOPE_TOLERANCE, Trend, series_trend
from bergman_lab.weights import DiagnosticsReport

#: values 1, 2, 4 over the scale 0, EDGE, 2 EDGE have the log-slope
#: log(2) / EDGE, which rounds to SLOPE_TOLERANCE = 0.05 exactly; the double
#: nearest log(2) / 0.05 is one ulp shorter and gives a slope one ulp above
EDGE = 13.862943611198906

IN, OUT = ("IN_CLASS", "IN_CLASS"), ("NOT_IN_CLASS", "NOT_IN_CLASS")


class TestSeriesTrend:
    @pytest.mark.parametrize("values, trend", [
        (np.exp(-0.5 * np.arange(8.0)), "falling"),
        (np.full(8, 3.0), "flat"),
        (1.0 + 0.01 * np.arange(8.0), "flat"),
        (np.exp(0.5 * np.arange(8.0)), "rising"),
    ])
    def test_each_trend(self, values, trend):
        t = series_trend(np.arange(8.0), values)
        assert t.trend == trend
        assert math.isfinite(t.slope)

    @pytest.mark.parametrize("values, slope", [([1.0, 2.0, 4.0], SLOPE_TOLERANCE),
                                               ([4.0, 2.0, 1.0], -SLOPE_TOLERANCE)])
    def test_both_edges_are_flat(self, values, slope):
        scale = [0.0, EDGE, 2.0 * EDGE]
        assert series_trend(scale, values) == Trend(slope, "flat")
        # a slightly shorter scale steepens the slope past the edge
        short = np.nextafter(EDGE, 0.0)
        past = series_trend([0.0, short, 2.0 * short], values)
        assert abs(past.slope) > SLOPE_TOLERANCE
        assert past.trend == ("rising" if slope > 0 else "falling")

    def test_two_points_are_short(self):
        t = series_trend([0.0, 1.0], [1.0, 5.0])
        assert t.trend == "short" and math.isnan(t.slope)

    def test_empty_is_short(self):
        assert series_trend(np.array([]), np.array([])).trend == "short"

    def test_infinite_value_is_undefined(self):
        t = series_trend(np.arange(6.0), [1.0, 2.0, 3.0, 4.0, 5.0, math.inf])
        assert t.trend == "undefined" and math.isnan(t.slope)

    def test_only_last_quartile_counts(self):
        """A rise before the last quartile does not move the trend."""
        values = np.concatenate([np.exp(np.arange(12.0)), np.full(4, 1.0e5)])
        assert series_trend(np.arange(16.0), values).trend == "flat"


class TestCaps:
    """Each caller's cap, at the bound and one ulp past it."""

    def test_tail_halving_max_ratio_at_threshold(self):
        w = RadialWeight.standard(0.0)
        top = is_dhat_tail(w).estimated_constant
        at = is_dhat_tail(w, threshold=top)
        assert at.aux["last_quartile_slope"] == 0.0
        assert at.verdict == "INCONCLUSIVE"
        assert "do not jointly certify" in at.notes[-1]
        assert is_dhat_tail(w, threshold=np.nextafter(top, math.inf)).verdict == "IN_CLASS"

    def test_moment_doubling_max_ratio_at_threshold(self):
        t = MomentTable(RadialWeight.exponential(1.0, 1.0))
        top = is_dhat_moments(t).estimated_constant
        at = is_dhat_moments(t, threshold=top)
        assert at.aux["last_quartile_slope"] > SLOPE_TOLERANCE
        assert at.verdict == "NOT_IN_CLASS"
        past = is_dhat_moments(t, threshold=np.nextafter(top, math.inf))
        assert past.verdict == "INCONCLUSIVE"

    def test_regular_spread_at_bound(self):
        w = RadialWeight.standard(2.0)
        spread = is_regular(w).aux["spread"]
        at = is_regular(w, window_bound=spread)
        assert at.verdict == "INCONCLUSIVE"
        assert at.notes[-1] == "bounded slope but spread beyond window"
        assert is_regular(w, window_bound=np.nextafter(spread, math.inf)).verdict == "IN_CLASS"

    def test_regular_out_on_either_side(self):
        """Regularity needs the ratio bounded above and below: a falling
        series is as much OUT as a rising one."""
        report = is_regular(RadialWeight.exponential(1.0, 0.5))
        assert report.aux["last_quartile_slope"] < -SLOPE_TOLERANCE
        assert report.verdict == "NOT_IN_CLASS"

    def test_functional_contradiction_slope(self):
        """M(r) rising is contradicted only past FUNCTIONAL_CONTRADICTION_SLOPE."""
        flat = Trend(0.0, "flat")
        at = Trend(FUNCTIONAL_CONTRADICTION_SLOPE, "rising")
        past = Trend(np.nextafter(FUNCTIONAL_CONTRADICTION_SLOPE, math.inf), "rising")
        assert _conclusion(IN, at, flat)[0] == "INCONCLUSIVE"
        assert _conclusion(IN, past, flat) == (
            "INCONSISTENT", "class weight but functional profile diverges")
        for trend in ("flat", "falling"):
            assert _conclusion(IN, Trend(0.0, trend), flat) == ("CONSISTENT_BOUNDED", None)

    def test_cesaro_rule(self):
        """Only a rising Cesaro profile backs the NOT_IN_CLASS verdicts; an
        undefined one (overflowed means) decides nothing."""
        flat = Trend(0.0, "flat")
        assert _conclusion(OUT, flat, Trend(0.1, "rising")) == ("CONSISTENT_UNBOUNDED", None)
        for trend in ("flat", "falling"):
            assert _conclusion(OUT, flat, Trend(0.0, trend))[0] == "INCONSISTENT"
        assert _conclusion(OUT, flat, Trend(math.nan, "undefined")) == (
            "INCONCLUSIVE", "non-class weight but Cesaro profile overflowed")


def test_overflowed_cesaro_profile_is_inconclusive(monkeypatch):
    """exp(-1000/(1-r)): the Cesaro means overflow from N = 1024, so the
    profile's slope is NaN.  With both class verdicts NOT_IN_CLASS that is
    no evidence of a bounded profile."""
    monkeypatch.setattr(analysis, "is_dhat_tail", lambda w, spec=None: DiagnosticsReport(
        "NOT_IN_CLASS", 1.0, [], "dhat-tail-halving"))
    rep = theorem_check(RadialWeight.exponential(1000.0, 1.0), 2,
                        AnalysisConfig(k_max=8, d_max=4096))
    assert rep.moment_verdict.verdict == "NOT_IN_CLASS"
    assert math.isinf(rep.cesaro_profile[-1][1])
    assert math.isnan(rep.aux["cesaro_slope"])
    assert rep.conclusion == "INCONCLUSIVE"
    assert "Cesaro profile overflowed" in rep.notes[-1]


WEIGHTS = {
    "std0": RadialWeight.standard(0.0),
    "std2": RadialWeight.standard(2.0),
    "log0": RadialWeight.logarithmic(0.0),
    "exp11": RadialWeight.exponential(1.0, 1.0),
    "exp1-0.5": RadialWeight.exponential(1.0, 0.5),
    "exp1000-1": RadialWeight.exponential(1000.0, 1.0),
}

#: (weight, series, verdict, slope) for every evidence series; a slope of
#: None is a series too short for one.  The diagnose trio's verdict is the
#: class verdict, the theorem profiles' verdict is the theorem's conclusion.
PINS = [
    ("std0", "dhat-tail-halving", "IN_CLASS", 0.0),
    ("std0", "dhat-moment-doubling", "IN_CLASS", 0.00040440635117802037),
    ("std0", "regular-tail-density", "IN_CLASS", 0.0),
    ("std2", "dhat-tail-halving", "IN_CLASS", 3.0058601161639636e-07),
    ("std2", "dhat-moment-doubling", "IN_CLASS", 0.0036229440780017586),
    ("std2", "regular-tail-density", "IN_CLASS", -2.0039081606721363e-07),
    ("log0", "dhat-tail-halving", "IN_CLASS", -0.005037549999304449),
    ("log0", "dhat-moment-doubling", "IN_CLASS", -0.018528997582272246),
    ("log0", "regular-tail-density", "IN_CLASS", 0.006749860302241325),
    ("exp11", "dhat-tail-halving", "NOT_IN_CLASS", 138.51417029721304),
    ("exp11", "dhat-moment-doubling", "NOT_IN_CLASS", 16.422260458089205),
    ("exp11", "regular-tail-density", "NOT_IN_CLASS", -0.9946590784387527),
    ("exp1-0.5", "dhat-tail-halving", "NOT_IN_CLASS", 56.68891203458734),
    ("exp1-0.5", "dhat-moment-doubling", "INCONCLUSIVE", 1.8883218242688833),
    ("exp1-0.5", "regular-tail-density", "NOT_IN_CLASS", -0.46900014219601727),
    ("exp1000-1", "dhat-tail-halving", "INCONCLUSIVE", None),
    ("exp1000-1", "dhat-moment-doubling", "NOT_IN_CLASS", 224.25441210284842),
    ("exp1000-1", "regular-tail-density", "INCONCLUSIVE", None),
    ("std0", "functional_slope", "CONSISTENT_BOUNDED", 0.010043152234197798),
    ("std0", "cesaro_slope", "CONSISTENT_BOUNDED", 0.00022327597077374554),
    ("exp11", "functional_slope", "CONSISTENT_UNBOUNDED", 24.754512513034463),
    ("exp11", "cesaro_slope", "CONSISTENT_UNBOUNDED", 0.8080801074499283),
]


@pytest.fixture(scope="module")
def evidence():
    """(weight, series) -> (verdict, slope or None)."""
    cache = {}

    def get(key, series):
        if (key, series) not in cache:
            w = WEIGHTS[key]
            if series.endswith("_slope"):
                rep = theorem_check(w, 2)
                for name in ("functional_slope", "cesaro_slope"):
                    cache[key, name] = rep.conclusion, rep.aux.get(name)
            else:
                for rep in (is_dhat_tail(w), is_dhat_moments(MomentTable(w)), is_regular(w)):
                    cache[key, rep.criterion_id] = (rep.verdict,
                                                    rep.aux.get("last_quartile_slope"))
        return cache[key, series]

    return get


@pytest.mark.parametrize("key, series, verdict, slope", PINS,
                         ids=[f"{k}-{s}" for k, s, _, _ in PINS])
def test_evidence_series_pinned(evidence, key, series, verdict, slope):
    """Slopes to 1e-9 relative: the moment sums' dgemv kernel is chosen per
    CPU, so their last bits may move on another host."""
    got_verdict, got_slope = evidence(key, series)
    assert got_verdict == verdict
    if slope is None:
        assert got_slope is None
    else:
        assert got_slope == pytest.approx(slope, rel=1e-9, abs=1e-15)
