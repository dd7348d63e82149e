"""The field comparison of tools/report_bytes.py."""

import copy
import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_bytes.py"
_SPEC = importlib.util.spec_from_file_location("report_bytes", _PATH)
report_bytes = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_bytes)

REPORT = {"schema_version": 1, "command": "theorem",
          "results": {"rows": [[0.5, 2.0, None], [0.75, 4.0, 1.0]],
                      "conclusion": "CONSISTENT_BOUNDED", "notes": []}}


def _changed(**edits):
    doc = copy.deepcopy(REPORT)
    doc["results"].update(edits)
    return doc


def test_equal_reports_have_no_changes():
    assert report_bytes.field_changes(REPORT, _changed()) == {}
    assert report_bytes.describe({}) == "identical"


def test_largest_relative_change_per_field():
    """Cells of one table are one field, compared by index; the largest
    relative change from the parent's value is reported."""
    change = _changed(rows=[[0.5, 2.0 * (1 + 1e-15), None], [0.75, 4.0 * (1 - 3e-12), 1.0]])
    got = report_bytes.field_changes(REPORT, change)
    assert list(got) == ["results.rows"]
    assert math.isclose(got["results.rows"].rel, 3e-12, rel_tol=1e-3)
    assert report_bytes.describe(got) == ("results.rows 3e-12 at results.rows[1][1] "
                                          "(4.0 -> 3.999999999988)")


def test_leaf_of_the_largest_change():
    """The leaf path keeps its list indices and carries both values, so a
    move of a tiny number shows where it happened."""
    change = _changed(rows=[[0.5, 2.0, None], [0.75, 4.0, 1.0]],
                      aux={"projection_im": [0.0, 4.41e-18]})
    parent = _changed(aux={"projection_im": [0.0, 4.06e-18]})
    got = report_bytes.field_changes(parent, change)
    assert got == {"results.aux.projection_im": report_bytes.Change(
        (4.41e-18 - 4.06e-18) / 4.06e-18, "results.aux.projection_im[1]", 4.06e-18, 4.41e-18)}
    assert report_bytes.describe(got) == ("results.aux.projection_im 0.0862 at "
                                          "results.aux.projection_im[1] (4.06e-18 -> 4.41e-18)")
    # equal largest changes report the first leaf in path order; a
    # non-numeric difference anywhere in the field wins over any number
    ties = report_bytes.field_changes({"v": [1.0, 2.0, "a"]}, {"v": [2.0, 4.0, "a"]})
    assert ties == {"v": report_bytes.Change(1.0, "v[0]", 1.0, 2.0)}
    assert report_bytes.field_changes({"v": [1.0, "a"]}, {"v": [2.0, "b"]}) == {"v": None}
    assert report_bytes.field_changes({"v": ["a", 1.0]}, {"v": ["b", 2.0]}) == {"v": None}


def test_non_numeric_and_shape_changes():
    change = _changed(conclusion="INCONCLUSIVE", notes=["x=2: point excluded"],
                      rows=[[0.5, 2.0, 1.0], [0.75, 4.0, 1.0]])
    got = report_bytes.field_changes(REPORT, change)
    # a null that became a number, a changed string, a list that grew
    assert got == {"results.conclusion": None, "results.notes": None, "results.rows": None}
    assert report_bytes.describe(got) == ("results.conclusion changed; results.notes changed; "
                                          "results.rows changed")


def test_relative_change_edges():
    assert report_bytes.relative_change(2.0, 2.0) == 0.0
    assert report_bytes.relative_change(math.nan, math.nan) == 0.0
    assert report_bytes.relative_change(0.0, 1e-300) == math.inf
    assert report_bytes.relative_change(math.inf, 1.0) == math.inf
    assert report_bytes.relative_change(-4.0, -3.0) == 0.25
    # booleans are compared as values, not as numbers
    assert report_bytes.field_changes({"ok": True}, {"ok": 1}) == {"ok": None}
