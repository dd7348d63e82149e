"""Checkers: compare one operation's output with bench/reference.py.

Each checker returns a list of problems; an empty list means the output is
correct.  Reports are read as the JSON the CLI prints, so a check sees
exactly what a user of the command line would see.
"""

from __future__ import annotations

import math
import re

import reference as ref

IN, OUT = "IN_CLASS", "NOT_IN_CLASS"
CRITERIA = ("dhat-tail-halving", "dhat-moment-doubling", "regular-tail-density")
EXTRAPOLATION_NOTE = "extrapolated beyond last sample"
_FLOAT = re.compile(r"[-+]?\d+\.?\d*(?:[eE][-+]?\d+)?")


class OpFailed(Exception):
    """The operation failed: an error exit, or a known fault's symptom."""


def close(problems: list, what: str, got, want: float, rtol: float):
    """Record a problem unless got is finite and within rtol of want."""
    ok = (isinstance(got, (int, float)) and math.isfinite(got)
          and abs(got - want) <= rtol * abs(want))
    if not ok:
        problems.append(f"{what}: got {got!r}, want {want!r} (rtol {rtol:g})")


def _equal(problems: list, what: str, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, want {want!r}")


def dyadic(k: int) -> float:
    return 1.0 - 2.0 ** -k


# ----------------------------------------------------------------------
# theorem
# ----------------------------------------------------------------------

def _profile_radii(doc: dict, key: str) -> list[float]:
    return [p for p, _ in doc["results"][key]]


def check_theorem_class(doc: dict, k_max: int = 12) -> list[str]:
    """theorem on rho = 1, n = 2: every profile against its closed form."""
    res = doc["results"]
    problems: list[str] = []
    _equal(problems, "conclusion", res["conclusion"], "CONSISTENT_BOUNDED")
    _equal(problems, "tail-halving verdict", res["dhat_verdict"]["verdict"], IN)
    close(problems, "tail-halving constant",
          res["dhat_verdict"]["estimated_constant"], 2.0, 1.0e-9)
    radii = [dyadic(k) for k in range(1, k_max + 1)]
    for key in ("functional_profile", "majorant_profile"):
        _equal(problems, f"{key} radii", _profile_radii(doc, key), radii)
    for k, (r, m) in enumerate(res["functional_profile"], start=1):
        close(problems, f"M(1-2^-{k})", m, ref.std0_functional(2.0 ** -k), 1.0e-5)
    for k, (r, u) in enumerate(res["majorant_profile"], start=1):
        close(problems, f"U(1-2^-{k})", u, ref.std0_majorant(r), 1.0e-9)
    if not res["cesaro_profile"]:
        problems.append("empty Cesaro profile")
    for N, c in res["cesaro_profile"]:
        close(problems, f"Cesaro N={N}", c, ref.std0_cesaro(N), 1.0e-10)
    return problems


def check_theorem_nonclass(doc: dict, k_max: int = 12,
                           cesaro_n_max: int = 256) -> list[str]:
    """theorem on rho = exp(-1/(1-r)), n = 2: converse direction."""
    res = doc["results"]
    problems: list[str] = []
    _equal(problems, "conclusion", res["conclusion"], "CONSISTENT_UNBOUNDED")
    _equal(problems, "tail-halving verdict", res["dhat_verdict"]["verdict"], OUT)
    _equal(problems, "moment-doubling verdict", res["moment_verdict"]["verdict"], OUT)
    checked = 0
    for N, c in res["cesaro_profile"]:
        if N <= cesaro_n_max:
            checked += 1
            close(problems, f"Cesaro N={N}", c,
                  ref.cesaro_from_moments(ref.exp11_moment, N), 1.0e-8)
    if checked == 0:
        problems.append(f"no Cesaro point with N <= {cesaro_n_max}")
    prof = res["functional_profile"]
    if len(prof) < 3:
        problems.append(f"functional profile has {len(prof)} points")
    for (r0, m0), (r1, m1) in zip(prof, prof[1:]):
        if not (r1 > r0 and m1 > m0):
            problems.append(f"functional profile not increasing at r={r1!r}")
    kept = set(_profile_radii(doc, "functional_profile"))
    named = [float(x) for note in res["notes"] if note.startswith("functional")
             for x in _FLOAT.findall(note.split(" skipped")[0])]
    for k in range(1, k_max + 1):
        r = dyadic(k)
        if r not in kept and not any(abs(x - r) <= 1.0e-9 for x in named):
            problems.append(f"missing radius 1-2^-{k} is named in no note")
    return problems


# ----------------------------------------------------------------------
# diagnose
# ----------------------------------------------------------------------

def _diagnostics(doc: dict) -> dict:
    return {d["criterion_id"]: d for d in doc["results"]["diagnostics"]}


def check_diagnose(doc: dict, label: str, rtol: float,
                   k_max: int = 12) -> tuple[list[str], list[str]]:
    """diagnose on a weight of reference.WEIGHTS.

    Returns (problems, tail_problems): tail_problems are the evidence points
    whose value rests on a tail rhohat, kept apart so a known tail fault can
    be told from other faults.
    """
    log_tail, log_density, moment = ref.WEIGHTS[label]
    diags = _diagnostics(doc)
    problems: list[str] = []
    tails: list[str] = []
    in_class = label != "exp11"
    for cid in CRITERIA:
        if cid not in diags:
            problems.append(f"criterion {cid} missing")
            continue
        _equal(problems, f"{cid} verdict", diags[cid]["verdict"],
               IN if in_class else OUT)
    if len(diags) < len(CRITERIA):
        return problems, tails
    if in_class:
        for cid in ("dhat-tail-halving", "regular-tail-density"):
            params = [p for p, _ in diags[cid]["evidence"]]
            _equal(problems, f"{cid} evidence radii", params,
                   [dyadic(k) for k in range(0, k_max + 1)])
    for r, v in diags["dhat-tail-halving"]["evidence"]:
        u = 1.0 - r
        close(tails, f"{label} tail ratio at r={r!r}", v,
              math.exp(log_tail(u) - log_tail(0.5 * u)), rtol)
    for r, v in diags["regular-tail-density"]["evidence"]:
        u = 1.0 - r
        close(tails, f"{label} regularity ratio at r={r!r}", v,
              math.exp(log_tail(u) - math.log(u) - log_density(u)), rtol)
    for n, v in diags["dhat-moment-doubling"]["evidence"]:
        close(problems, f"{label} moment ratio at n={n!r}", v,
              moment(float(n)) / moment(2.0 * n), rtol)
    close(tails, f"{label} head ratio", diags["dhat-moment-doubling"]["aux"].get(
        "c0_head_ratio"), math.exp(log_tail(1.0) - log_tail(0.5)), rtol)
    mt = doc["results"]["moment_tail"]
    for x, v in zip(mt["x"], mt["ratio"]):
        close(tails, f"{label} moment/tail ratio at x={x!r}", v,
              moment(float(x)) / math.exp(log_tail(1.0 / x)), rtol)
    return problems, tails


def check_tabulated(doc: dict) -> list[str]:
    """A tabulated sampling of 1 - r^2 gets the verdicts of standard(1),
    and each criterion flags the extrapolation past the last sample."""
    diags = _diagnostics(doc)
    problems: list[str] = []
    for cid in CRITERIA:
        if cid not in diags:
            problems.append(f"criterion {cid} missing")
            continue
        _equal(problems, f"{cid} verdict", diags[cid]["verdict"], IN)
        if not any(EXTRAPOLATION_NOTE in n for n in diags[cid]["notes"]):
            problems.append(f"{cid}: extrapolation not flagged")
    return problems


# ----------------------------------------------------------------------
# projection of slice symbols (rho = 1, n = 2, z = r e_1)
# ----------------------------------------------------------------------

PROJECTION_ATOL = 1.0e-9


def _near(problems: list, what: str, got: complex, want: float):
    if not (math.isfinite(abs(got)) and abs(got - want) <= PROJECTION_ATOL):
        problems.append(f"{what}: got {got!r}, want {want!r} "
                        f"(atol {PROJECTION_ATOL:g})")


def check_phase_projection(value: complex, r: float) -> list[str]:
    problems: list[str] = []
    _near(problems, f"P(conj(lam)/|lam|)({r!r} e1)", value, ref.phase_projection(r))
    return problems


def check_polynomial_projection(value: complex, a: float, b: float,
                                r: float) -> list[str]:
    problems: list[str] = []
    _near(problems, f"P({a!r} conj(lam) + {b!r} conj(lam)^3)({r!r} e1)", value,
          ref.polynomial_projection(a, b, r))
    return problems


def check_phase_bloch(profile, radii) -> list[str]:
    problems: list[str] = []
    _equal(problems, "Bloch radii", [p for p, _ in profile], [float(r) for r in radii])
    for r, density in profile:
        _near(problems, f"Bloch density at r={r!r}", density,
              ref.phase_bloch_density(r))
    return problems
