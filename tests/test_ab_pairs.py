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


def test_run_bench_records_the_runs_page_faults(tmp_path):
    """A stand-in bench/run.py that writes 40 MB takes at least one minor
    page fault per 4 KB page of it, and each run is counted apart."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, sys\n"
        "pages = b'x' * (40 << 20)\n"
        "print(json.dumps({'metrics': {}, 'failed': 0, 'attempted': 1,"
        " 'seed': int(sys.argv[sys.argv.index('--seed') + 1])}))\n")
    first = ab_pairs.run_bench(tmp_path, "any", 3)
    second = ab_pairs.run_bench(tmp_path, "any", 4)
    assert first["seed"] == 3 and second["seed"] == 4
    for result in (first, second):
        assert 10_000 <= result["rusage"]["minflt"] < 100_000
        assert result["rusage"]["sys_s"] >= 0.0


def test_rusage_summary():
    runs = [{"rusage": {"minflt": f, "sys_s": s}}
            for f, s in [(100, 0.5), (300, 0.1), (200, 0.2), (400, 0.4), (500, 0.3)]]
    assert ab_pairs.rusage_summary(runs) == \
        "minor faults 300 [200, 400], system 0.300 s [0.200, 0.400]"


def test_seconds_reach_the_bench(tmp_path):
    """--seconds, 10 by default, is passed to bench/run.py for every run."""
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text(
        "import json, sys\n"
        "seconds = float(sys.argv[sys.argv.index('--seconds') + 1])\n"
        "print(json.dumps({'metrics': {'wall_s': {'value': seconds}}, 'failed': 0,"
        " 'attempted': 1}))\n")
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}')
    assert ab_pairs.run_bench(tmp_path, "any", 1)["metrics"]["wall_s"]["value"] == 10.0
    assert ab_pairs.run_bench(tmp_path, "any", 1, 0.5)["metrics"]["wall_s"]["value"] == 0.5
    seen = []
    real = ab_pairs.run_bench
    try:
        ab_pairs.run_bench = lambda *a: seen.append(a[3]) or real(*a)
        assert ab_pairs.main([str(tmp_path), str(tmp_path), "--workload", "any",
                              "--pairs", "1", "--seed", "1", "--seconds", "2.5"]) == 0
    finally:
        ab_pairs.run_bench = real
    assert seen == [2.5, 2.5]
