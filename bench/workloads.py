"""The four workloads: their inputs, one round of operations, and checks.

A round is the same list of operations on every run, so the share of
failed operations is the same whatever the seed and the run length.
The seed only picks the project-slice radii and coefficients and the
tabulated weight's interior sample radii; the theorem workloads are
seed-free.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from bergman_lab import cli, kernel, projection, weights
from bergman_lab.quadrature import BallPoint
from bergman_lab.serialize import load_weight_file

import checks
from checks import OpFailed

INPUTS = Path(__file__).resolve().parent / "inputs"
N = 2
D_MAX = 1 << 19

#: Tabulated sampling of 1 - r^2: r = 0, one seeded radius in each of
#: these bands, then fixed closing samples.  The closing three fix the
#: last monotone-cubic segment, whose extrapolation to r -> 1 stays
#: positive (1.07e-7 at r = 1), so no seed yields an invalid weight.
TABULATED_BANDS = np.linspace(0.0, 0.98, 10)
TABULATED_CLOSE = (0.99, 0.995, 0.999)

#: project-slice radii bands, kept below r ~ 0.75 where the custom
#: projection's cost jumps several-fold.  The five operations of a round
#: cost between 2.5 and 5 s each, so the median sits on the middle one.
PHASE_BAND = (0.435, 0.465)
POLY_BANDS = ((0.435, 0.465), (0.585, 0.615))
BLOCH_BANDS = ((0.485, 0.515), (0.685, 0.715))
#: |a| and |b| of a conj(lam) + b conj(lam)^3; signs are seeded too
COEFF_BAND = (1.0, 1.5)


@dataclass
class Op:
    """One timed operation and the check of its result.

    check returns a list of problems; it raises OpFailed when the result
    shows that the operation failed.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    descriptors: list[Path]
    ops: list[Op]
    counters: dict = field(default_factory=dict)

    def symbol_points(self) -> int:
        return sum(s.points for s in self.counters.values())


def run_cli(argv: list[str]):
    """bergman-lab <argv> in-process; returns (exit status, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def _report(result) -> tuple[list[str], dict]:
    """Problems with the exit status, and the parsed report."""
    status, text = result
    if status == 1:
        raise OpFailed("exit status 1")
    return ([] if status == 0 else [f"exit status {status}"]), json.loads(text)


def _checked_report(checker):
    def check(result):
        problems, doc = _report(result)
        return problems + checker(doc)
    return check


# ----------------------------------------------------------------------
# theorem
# ----------------------------------------------------------------------

def _theorem_argv(descriptor: Path) -> list[str]:
    return ["theorem", "--weight", str(descriptor), "--n", str(N),
            "--threads", "1"]


def theorem_class(seed: int, workdir: Path) -> Workload:
    desc = INPUTS / "std0.json"
    argv = _theorem_argv(desc)
    return Workload("theorem-class", [desc], [
        Op("theorem std0", lambda: run_cli(argv),
           _checked_report(checks.check_theorem_class))])


def theorem_nonclass(seed: int, workdir: Path) -> Workload:
    desc = INPUTS / "exp11.json"
    argv = _theorem_argv(desc)
    return Workload("theorem-nonclass", [desc], [
        Op("theorem exp11", lambda: run_cli(argv),
           _checked_report(checks.check_theorem_nonclass))])


# ----------------------------------------------------------------------
# diagnose
# ----------------------------------------------------------------------

#: evidence tolerance per weight: closed forms at 1e-9, quad references
#: for log0 at 1e-7 (observed agreement 1e-8), exp11 at 1e-6
DIAGNOSE_RTOL = {"std0": 1.0e-9, "std2": 1.0e-9, "log0": 1.0e-7, "exp11": 1.0e-6}


def tabulated_samples(seed: int) -> np.ndarray:
    """(r, 1 - r^2) at r = 0, one seeded radius per band, the closing radii."""
    rng = np.random.default_rng(seed)
    lo, hi = TABULATED_BANDS[:-1], TABULATED_BANDS[1:]
    inner = lo + rng.uniform(0.1, 0.9, lo.size) * (hi - lo)
    r = np.concatenate([[0.0], inner, TABULATED_CLOSE])
    return np.column_stack([r, 1.0 - r * r])


def write_tabulated(seed: int, workdir: Path) -> Path:
    csv_path = workdir / "tabulated-samples.csv"
    rows = ["r,value"] + [f"{float(r)!r},{float(v)!r}" for r, v in tabulated_samples(seed)]
    csv_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    desc = workdir / "tabulated.json"
    desc.write_text(json.dumps({"kind": "tabulated", "label": "tab1",
                                "samples_csv": csv_path.name}), encoding="utf-8")
    return desc


def _diagnose_check(label: str):
    def check(result):
        status_problems, doc = _report(result)
        problems, tails = checks.check_diagnose(doc, label, DIAGNOSE_RTOL[label])
        if label == "exp11" and tails:
            raise OpFailed(f"tail drift: {tails[0]} (+{len(tails) - 1} more)")
        return status_problems + problems + tails
    return check


def diagnose_family(seed: int, workdir: Path) -> Workload:
    ops = []
    descs = []
    for label in ("std0", "std2", "log0"):
        desc = INPUTS / f"{label}.json"
        descs.append(desc)
        ops.append(Op(f"diagnose {label}",
                      lambda d=desc: run_cli(["diagnose", "--weight", str(d)]),
                      _diagnose_check(label)))
    tab = write_tabulated(seed, workdir)
    descs.append(tab)
    ops.append(Op("diagnose tab1", lambda: run_cli(["diagnose", "--weight", str(tab)]),
                  _checked_report(checks.check_tabulated)))
    # Fails on every run: moment_tail_ratio divides by a tail that has
    # underflowed to 0, and tail's absolute-tolerance stop lets deep
    # tail-halving ratios drift from the closed form.
    desc = INPUTS / "exp11.json"
    descs.append(desc)
    ops.append(Op("diagnose exp11", lambda: run_cli(["diagnose", "--weight", str(desc)]),
                  _diagnose_check("exp11")))
    return Workload("diagnose-family", descs, ops)


# ----------------------------------------------------------------------
# project-slice
# ----------------------------------------------------------------------

class SliceFunction:
    """phi(r, lam) for BoundedSymbol.custom, counting the lattice points
    at which the projection evaluates it."""

    def __init__(self, fn):
        self.fn = fn
        self.points = 0

    def __call__(self, r, lam):
        self.points += np.size(lam)
        return self.fn(r, lam)


def _fresh_coeffs(desc: Path):
    """What one CLI call builds: the weight, a moment table, a kernel table."""
    w = load_weight_file(desc)
    return w, kernel.build_coeffs(weights.MomentTable(w), N, d_max=D_MAX)


def project_slice(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    r_phase = rng.uniform(*PHASE_BAND)
    r_poly = [rng.uniform(*band) for band in POLY_BANDS]
    r_bloch = [rng.uniform(*band) for band in BLOCH_BANDS]
    a, b = rng.choice([-1.0, 1.0], 2) * rng.uniform(*COEFF_BAND, 2)
    phase = SliceFunction(lambda r, lam: np.conj(lam) / np.abs(lam))
    poly = SliceFunction(lambda r, lam: a * np.conj(lam) + b * np.conj(lam) ** 3)
    phi_phase = projection.BoundedSymbol.custom(phase, 1.0)
    phi_poly = projection.BoundedSymbol.custom(poly, abs(a) + abs(b))
    desc = INPUTS / "std0.json"

    def project(phi, r):
        w, coeffs = _fresh_coeffs(desc)
        return projection.project(coeffs, w, phi, BallPoint.radial(r, N))

    def bloch(r):
        w, coeffs = _fresh_coeffs(desc)
        return projection.project_bloch_image(coeffs, w, phi_phase, [r])

    ops = [Op(f"project phase r={r_phase:.4f}", lambda: project(phi_phase, r_phase),
              lambda v: checks.check_phase_projection(v, r_phase))]
    for r in r_poly:
        ops.append(Op(f"project poly r={r:.4f}", lambda r=r: project(phi_poly, r),
                      lambda v, r=r: checks.check_polynomial_projection(v, a, b, r)))
    for r in r_bloch:
        ops.append(Op(f"bloch phase r={r:.4f}", lambda r=r: bloch(r),
                      lambda prof, r=r: checks.check_phase_bloch(prof, [r])))
    return Workload("project-slice", [desc], ops,
                    counters={"phase": phase, "poly": poly})


WORKLOADS = {
    "theorem-class": theorem_class,
    "theorem-nonclass": theorem_nonclass,
    "diagnose-family": diagnose_family,
    "project-slice": project_slice,
}
