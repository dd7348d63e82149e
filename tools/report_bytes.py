"""Compare the CLI reports of two checkouts of bergman-lab, byte for byte.

    python3 tools/report_bytes.py PARENT CHANGE

Runs a fixed set of reports in both checkouts, each as
`PYTHONPATH=<checkout>/src python3 -m bergman_lab.cli ... --out FILE`, from
weight and symbol descriptors it writes to a temporary directory:

    theorem   std0 and exp11 at --threads 1 and 2, std0 at --n 3, exp11
              and standard(-0.9) at --kmax 8 --dmax 4096, and at those
              flags exp11 at --n 3, std2 at --n 4, exp(c=1000, beta=1)
              (a short tail-halving series, an overflowed Cesaro profile)
              and exp(c=1, beta=0.5) (NOT_IN_CLASS beside INCONCLUSIVE)
    pr-check  std0 and exp11
    kernel    std0, exp11 and standard(-0.9), and exp11 with no label, whose
              report carries the default label exponential(c=1,beta=1)
    diagnose  std0, std2, log0, exp11, a tabulated 1 - r^2, standard(-0.9),
              which keeps more than half of its rho_1 past the moment grid's
              end, exp(c=1000, beta=1) (short tail-halving and regularity
              series) and exp(c=1, beta=0.5) (undecided moment doubling,
              regularity OUT on a falling slope)
    project   the monomial w1^2 w2, and a 9 x 9 x 16 polar-grid symbol of
              1 + Re(lam)/2 at --kmax 4

Each runs at --n 2 unless its arguments name another --n.
The two sides of a report run at the same time.  It prints one line per
report: `identical`, or each field that differs (a JSON path with its list
indices dropped, such as `results.rows`) with the largest relative change
of its numbers, the leaf where it occurs and that leaf's two values, as in
`results.rows 0.0862 at results.rows[3][2] (4.06e-18 -> 4.41e-18)`, or
`changed` where a string, null or the shape differs.
Exit status 0 only when every report is identical.  Standard library only;
the package is never imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

_TABULATED_R = [0.98 * i / 11 for i in range(12)] + [0.99, 0.995, 0.999]

WEIGHTS = {
    "std0": {"kind": "standard", "alpha": 0.0, "label": "std0"},
    "std2": {"kind": "standard", "alpha": 2.0, "label": "std2"},
    "std-0.9": {"kind": "standard", "alpha": -0.9, "label": "std-0.9"},
    "log0": {"kind": "logarithmic", "gamma": 0.0, "label": "log0"},
    "exp11": {"kind": "exponential", "c": 1.0, "beta": 1.0, "label": "exp11"},
    "exp11-unlabelled": {"kind": "exponential", "c": 1.0, "beta": 1.0},
    "exp1000": {"kind": "exponential", "c": 1000.0, "beta": 1.0, "label": "exp1000"},
    "exp1-0.5": {"kind": "exponential", "c": 1.0, "beta": 0.5, "label": "exp1-0.5"},
    "tab": {"kind": "tabulated", "label": "tabulated 1 - r^2",
            "samples": [[r, 1.0 - r * r] for r in _TABULATED_R]},
}


def _polar_grid() -> dict:
    """1 + Re(lam)/2 on 9 radii, 9 moduli and 16 angles."""
    nodes = [i / 8 for i in range(9)]
    args = [2 * math.pi * j / 16 for j in range(16)]
    plane = [[1.0 + 0.5 * m * math.cos(a) for a in args] for m in nodes]
    return {"kind": "custom", "sup_norm_bound": 1.5,
            "polar_grid": {"r_nodes": nodes, "mod_nodes": nodes, "arg_nodes": args,
                           "values_real": [plane] * 9,
                           "values_imag": [[[0.0] * 16] * 9] * 9}}


SYMBOLS = {
    "monomial": {"kind": "monomial", "multi_index": [2, 1]},
    "grid": _polar_grid(),
}

#: (label, weight, symbol or None, extra CLI arguments)
REPORTS = [
    *[(f"theorem {w} --threads {t}", w, None, ["theorem", "--threads", str(t)])
      for w in ("std0", "exp11") for t in (1, 2)],
    ("theorem std0 --n 3", "std0", None, ["theorem", "--n", "3"]),
    ("theorem exp11 --n 3 --kmax 8 --dmax 4096", "exp11", None,
     ["theorem", "--n", "3", "--kmax", "8", "--dmax", "4096"]),
    ("theorem std2 --n 4 --kmax 8 --dmax 4096", "std2", None,
     ["theorem", "--n", "4", "--kmax", "8", "--dmax", "4096"]),
    *[(f"theorem {w} --kmax 8 --dmax 4096", w, None,
       ["theorem", "--kmax", "8", "--dmax", "4096"])
      for w in ("exp11", "std-0.9", "exp1000", "exp1-0.5")],
    *[(f"{c} {w}", w, None, [c]) for c in ("pr-check", "kernel") for w in ("std0", "exp11")],
    ("kernel std-0.9", "std-0.9", None, ["kernel"]),
    ("kernel exp11 unlabelled", "exp11-unlabelled", None, ["kernel"]),
    *[(f"diagnose {w}", w, None, ["diagnose"])
      for w in ("std0", "std2", "log0", "exp11", "tab", "std-0.9", "exp1000", "exp1-0.5")],
    ("project monomial w1^2 w2", "std0", "monomial", ["project"]),
    ("project polar grid --kmax 4", "std0", "grid", ["project", "--kmax", "4"]),
]


def _leaves(doc, path: str = "") -> dict:
    """path -> value for every leaf of a JSON document."""
    if isinstance(doc, dict):
        out = {}
        for key, value in doc.items():
            out.update(_leaves(value, f"{path}.{key}" if path else key))
        return out
    if isinstance(doc, list):
        out = {}
        for i, value in enumerate(doc):
            out.update(_leaves(value, f"{path}[{i}]"))
        return out
    return {path: doc}


_MISSING = object()


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def relative_change(a: float, b: float) -> float:
    """|b - a| / |a|, 0 where they are equal (NaN equals NaN), inf where
    only a is 0 or not finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if a == 0 or not math.isfinite(a) or not math.isfinite(b):
        return math.inf
    return abs(b - a) / abs(a)


class Change(NamedTuple):
    """A field's largest relative change: its leaf and that leaf's values."""

    rel: float
    path: str
    parent: float
    change: float


def field_changes(parent, change) -> dict:
    """field -> the Change of its number with the largest relative change
    from parent to change (the first such leaf in path order), None where a
    leaf that is not a number differs or is present on one side only.  A
    field is a leaf's path without list indices; fields with no difference
    are left out."""
    old, new = _leaves(parent), _leaves(change)
    out = {}
    for path in sorted(old.keys() | new.keys()):
        field = re.sub(r"\[\d+\]", "", path)
        a, b = old.get(path, _MISSING), new.get(path, _MISSING)
        if _is_number(a) and _is_number(b):
            rel = relative_change(float(a), float(b))
            if rel == 0.0 or out.get(field, _MISSING) is None:
                continue
            if field not in out or rel > out[field].rel:
                out[field] = Change(rel, path, a, b)
        elif a != b or type(a) is not type(b):
            out[field] = None
    return out


def describe(changes: dict) -> str:
    """One line for field_changes' result."""
    if not changes:
        return "identical"
    return "; ".join(f"{field} changed" if c is None
                     else f"{field} {c.rel:.3g} at {c.path} ({c.parent!r} -> {c.change!r})"
                     for field, c in changes.items())


def _start(checkout: Path, args: list, out: Path):
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    return subprocess.Popen([sys.executable, "-m", "bergman_lab.cli", *args, "--out", str(out)],
                            cwd=out.parent, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    identical = True
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, doc in {**WEIGHTS, **SYMBOLS}.items():
            (tmp / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        for i, (label, weight, symbol, extra) in enumerate(REPORTS):
            cli = [*extra, "--weight", str(tmp / f"{weight}.json")]
            if "--n" not in extra:
                cli += ["--n", "2"]
            if symbol:
                cli += ["--symbol", str(tmp / f"{symbol}.json")]
            outs = {side: tmp / side / f"{i}.json" for side in sides}
            runs = {}
            for side, checkout in sides.items():
                outs[side].parent.mkdir(exist_ok=True)
                runs[side] = _start(checkout, cli, outs[side])
            errors = {side: proc.communicate()[1].strip().splitlines() or [""]
                      for side, proc in runs.items()}
            codes = {side: proc.returncode for side, proc in runs.items()}
            missing = [side for side in sides if not outs[side].exists()]
            if missing:
                line = "; ".join(f"{side} exit {codes[side]}: {errors[side][-1]}"
                                 for side in missing)
            elif outs["parent"].read_bytes() == outs["change"].read_bytes():
                line = "identical"
            else:
                line = describe(field_changes(json.loads(outs["parent"].read_text("utf-8")),
                                              json.loads(outs["change"].read_text("utf-8"))))
                if line == "identical":
                    line = "bytes differ, every field equal"
            if codes["parent"] != codes["change"]:
                line += f"; exit {codes['parent']} -> {codes['change']}"
            identical &= line == "identical"
            print(f"{label}: {line}", flush=True)
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
