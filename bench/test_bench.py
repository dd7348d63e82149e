"""The benchmark's own tests: python3 -m pytest -q bench

Each checker accepts a report built from the references and rejects the
same report with one value perturbed; each closed-form helper matches a
direct quadrature of its definition.
"""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import PchipInterpolator
from scipy.special import expn

import checks
import reference as ref
import run
import workloads

BENCH = Path(__file__).resolve().parent
K_MAX = 12


def dyadic(k):
    return 1.0 - 2.0 ** -k


def verdict(v, constant=1.0, evidence=(), notes=(), aux=None, cid="x"):
    return {"criterion_id": cid, "verdict": v, "estimated_constant": constant,
            "evidence": [list(e) for e in evidence], "notes": list(notes),
            "aux": aux or {}}


def envelope(results):
    return {"schema_version": 1, "results": results}


# ----------------------------------------------------------------------
# theorem reports built from the references
# ----------------------------------------------------------------------

CESARO_N = [2 ** e for e in range(4, 13)]


@pytest.fixture(scope="module")
def class_doc():
    radii = [dyadic(k) for k in range(1, K_MAX + 1)]
    return envelope({
        "conclusion": "CONSISTENT_BOUNDED",
        "dhat_verdict": verdict(checks.IN, 2.0),
        "moment_verdict": verdict(checks.IN, 2.0),
        "functional_profile": [[r, ref.std0_functional(1.0 - r)] for r in radii],
        "majorant_profile": [[r, ref.std0_majorant(r)] for r in radii],
        "cesaro_profile": [[N, ref.std0_cesaro(N)] for N in CESARO_N],
        "notes": [],
    })


@pytest.fixture(scope="module")
def nonclass_doc():
    kept = [dyadic(k) for k in range(1, 9)]
    skipped = [dyadic(k) for k in range(9, K_MAX + 1)]
    return envelope({
        "conclusion": "CONSISTENT_UNBOUNDED",
        "dhat_verdict": verdict(checks.OUT, 1e9),
        "moment_verdict": verdict(checks.OUT, 1e9),
        "functional_profile": [[r, 10.0 ** k] for k, r in enumerate(kept, 1)],
        "majorant_profile": [],
        "cesaro_profile": [[N, ref.cesaro_from_moments(ref.exp11_moment, N)
                            if N <= 256 else 1e30] for N in CESARO_N],
        "notes": [f"functional at {r:.10g} skipped: TruncationError: tail not "
                  f"certified below 1.0e-07 within d_max=524288 at |t|=0.99"
                  for r in skipped],
    })


def perturbed(doc, path, factor):
    out = copy.deepcopy(doc)
    node = out["results"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = node[path[-1]] * factor
    return out


def replaced(doc, path, value):
    out = copy.deepcopy(doc)
    node = out["results"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def test_theorem_class_accepts_reference(class_doc):
    assert checks.check_theorem_class(class_doc) == []


@pytest.mark.parametrize("path,factor", [
    (("functional_profile", 11, 1), 1 + 2e-5),
    (("functional_profile", 0, 1), 1 - 2e-5),
    (("majorant_profile", 5, 1), 1 + 2e-9),
    (("cesaro_profile", 3, 1), 1 + 2e-10),
    (("dhat_verdict", "estimated_constant"), 1 + 2e-9),
])
def test_theorem_class_rejects_perturbed(class_doc, path, factor):
    assert checks.check_theorem_class(perturbed(class_doc, path, factor))


def test_theorem_class_rejects_wrong_conclusion(class_doc):
    doc = replaced(class_doc, ("conclusion",), "INCONCLUSIVE")
    assert checks.check_theorem_class(doc)


def test_theorem_class_rejects_missing_radius(class_doc):
    doc = replaced(class_doc, ("functional_profile",),
                   class_doc["results"]["functional_profile"][:-1])
    assert checks.check_theorem_class(doc)


def test_theorem_nonclass_accepts_reference(nonclass_doc):
    assert checks.check_theorem_nonclass(nonclass_doc) == []


def test_theorem_nonclass_rejects_perturbed_cesaro(nonclass_doc):
    doc = perturbed(nonclass_doc, ("cesaro_profile", 2, 1), 1 + 2e-8)
    assert checks.check_theorem_nonclass(doc)


def test_theorem_nonclass_rejects_decreasing_profile(nonclass_doc):
    doc = replaced(nonclass_doc, ("functional_profile", 7, 1), 1.0)
    assert checks.check_theorem_nonclass(doc)


def test_theorem_nonclass_rejects_unnamed_skip(nonclass_doc):
    doc = replaced(nonclass_doc, ("notes",), nonclass_doc["results"]["notes"][1:])
    assert checks.check_theorem_nonclass(doc)


@pytest.mark.parametrize("path,value", [
    (("conclusion",), "INCONSISTENT"),
    (("dhat_verdict", "verdict"), checks.IN),
    (("moment_verdict", "verdict"), "INCONCLUSIVE"),
])
def test_theorem_nonclass_rejects_wrong_verdicts(nonclass_doc, path, value):
    assert checks.check_theorem_nonclass(replaced(nonclass_doc, path, value))


# ----------------------------------------------------------------------
# diagnose reports built from the references
# ----------------------------------------------------------------------

def diagnose_doc(label):
    log_tail, log_density, moment = ref.WEIGHTS[label]
    deepest = K_MAX if label != "exp11" else 7
    radii = [dyadic(k) for k in range(0, deepest + 1)]
    ns = [2.0 ** e for e in range(13)]
    xs = [2.0 ** e for e in range(1, 15 if label != "exp11" else 9)]
    v = checks.IN if label != "exp11" else checks.OUT
    return envelope({"diagnostics": [
        verdict(v, cid="dhat-tail-halving", evidence=[
            (r, math.exp(log_tail(1 - r) - log_tail(0.5 * (1 - r)))) for r in radii]),
        verdict(v, cid="dhat-moment-doubling",
                evidence=[(n, moment(n) / moment(2 * n)) for n in ns],
                aux={"c0_head_ratio": math.exp(log_tail(1.0) - log_tail(0.5))}),
        verdict(v, cid="regular-tail-density", evidence=[
            (r, math.exp(log_tail(1 - r) - math.log(1 - r) - log_density(1 - r)))
            for r in radii]),
    ], "moment_tail": {"x": xs, "ratio": [
        moment(x) / math.exp(log_tail(1.0 / x)) for x in xs]}})


@pytest.mark.parametrize("label", ["std0", "std2", "log0", "exp11"])
def test_diagnose_accepts_reference(label):
    doc = diagnose_doc(label)
    assert checks.check_diagnose(doc, label, 1e-9) == ([], [])


@pytest.mark.parametrize("label", ["std0", "std2", "log0", "exp11"])
@pytest.mark.parametrize("criterion,tail_based", [
    (0, True), (1, False), (2, True)])
def test_diagnose_rejects_perturbed_evidence(label, criterion, tail_based):
    doc = diagnose_doc(label)
    doc["results"]["diagnostics"][criterion]["evidence"][3][1] *= 1 + 1e-6
    problems, tails = checks.check_diagnose(doc, label, 1e-7)
    assert (tails if tail_based else problems)


def test_diagnose_rejects_perturbed_moment_tail():
    doc = diagnose_doc("std2")
    doc["results"]["moment_tail"]["ratio"][-1] *= 1 + 1e-8
    assert checks.check_diagnose(doc, "std2", 1e-9)[1]


def test_diagnose_rejects_wrong_verdict():
    doc = diagnose_doc("log0")
    doc["results"]["diagnostics"][2]["verdict"] = "INCONCLUSIVE"
    assert checks.check_diagnose(doc, "log0", 1e-7)[0]


def test_diagnose_rejects_excluded_point():
    doc = diagnose_doc("std0")
    del doc["results"]["diagnostics"][0]["evidence"][-1]
    assert checks.check_diagnose(doc, "std0", 1e-9)[0]


def tabulated_doc():
    note = "tabulated weight extrapolated beyond last sample"
    return envelope({"diagnostics": [verdict(checks.IN, cid=c, notes=[note])
                                     for c in checks.CRITERIA]})


def test_tabulated_accepts_reference():
    assert checks.check_tabulated(tabulated_doc()) == []


def test_tabulated_rejects_missing_flag_and_verdict():
    doc = tabulated_doc()
    doc["results"]["diagnostics"][1]["notes"] = []
    assert checks.check_tabulated(doc)
    doc = tabulated_doc()
    doc["results"]["diagnostics"][2]["verdict"] = checks.OUT
    assert checks.check_tabulated(doc)


# ----------------------------------------------------------------------
# projection
# ----------------------------------------------------------------------

def test_projection_checks():
    r, a, b = 0.41, 1.3, -2.2
    assert checks.check_phase_projection(1.6 * r + 0j, r) == []
    assert checks.check_phase_projection(1.6 * r + 1e-8, r)
    assert checks.check_polynomial_projection(a * r + b * r ** 3 + 0j, a, b, r) == []
    assert checks.check_polynomial_projection(a * r + b * r ** 3 + 1e-8j, a, b, r)
    prof = [(r, (1 - r * r) * 1.6 * r)]
    assert checks.check_phase_bloch(prof, [r]) == []
    assert checks.check_phase_bloch([(r, prof[0][1] * (1 + 1e-8))], [r])
    assert checks.check_phase_bloch(prof, [r + 0.01])


# ----------------------------------------------------------------------
# closed forms against direct quadrature
# ----------------------------------------------------------------------

Q = dict(epsabs=0.0, epsrel=1e-12, limit=400)


@pytest.mark.parametrize("u", [1.0, 0.5, 0.1, 2.0 ** -8])
def test_std2_tail(u):
    direct = quad(lambda s: (s * (2 - s)) ** 2, 0.0, u, **Q)[0]
    assert ref.std2_tail(u) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("x", [1.0, 3.0, 40.0, 500.0])
def test_standard_moments(x):
    assert ref.std0_moment(x) == pytest.approx(
        quad(lambda t: t ** x, 0, 1, **Q)[0], rel=1e-12)
    assert ref.std2_moment(x) == pytest.approx(
        quad(lambda t: t ** x * (1 - t * t) ** 2, 0, 1, points=[1 - 1 / x], **Q)[0],
        rel=1e-10)


@pytest.mark.parametrize("x", [0.3, 1.0, 1.5, 20.0, 300.0, 700.0])
def test_expn_scaled(x):
    assert ref.expn_scaled(2, x) == pytest.approx(math.exp(x) * expn(2, x), rel=1e-13)


@pytest.mark.parametrize("u", [0.9, 0.25, 2.0 ** -5])
def test_exp11_tail(u):
    direct = quad(lambda s: math.exp(-1 / s), 0.0, u, **Q)[0]
    assert math.exp(ref.exp11_log_tail(u)) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("u", [1.0, 0.5, 2.0 ** -6, 2.0 ** -13])
def test_log0_tail(u):
    # e E_2(z) / z with z = 1 - log u, from int_z^inf e^-t t^-2 dt = E_2(z)/z
    z = 1.0 - math.log(u)
    assert ref.log0_tail(u) == pytest.approx(math.e * expn(2, z) / z, rel=1e-12)


@pytest.mark.parametrize("x", [1.0, 30.0, 4096.0])
def test_log0_moment(x):
    direct = quad(lambda t: t ** x / (1 - math.log1p(-t)) ** 2, 0, 1,
                  points=[1 - 1 / x, 1 - 8 / x] if x > 8 else None, **Q)[0]
    assert ref.log0_moment(x) == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("x", [4.0, 77.0, 515.0])
def test_exp11_moment(x):
    direct = quad(lambda t: t ** x * math.exp(-1 / (1 - t)) if t < 1 else 0.0,
                  0, 1, points=[1 - 1 / math.sqrt(x)], **Q)[0]
    assert ref.exp11_moment(x) == pytest.approx(direct, rel=1e-8)


@pytest.mark.parametrize("xi", [0.3, 0.9, 0.99])
def test_std0_circle_mean(xi):
    # mean over the circle of |R K|, R K(t) = 3t/(1-t)^4 for K = (1-t)^-3
    direct = quad(lambda th: abs(3 * xi / (1 - xi * np.exp(1j * th)) ** 4),
                  0, math.pi, points=[0.0], **Q)[0] / math.pi
    assert ref.std0_circle_mean(xi, 1 - xi) == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
def test_std0_majorant(r):
    direct = quad(lambda t: (1 - t / r) / (1 - t) / (1 - t) ** 2, 0, r, **Q)[0]
    assert ref.std0_majorant(r) == pytest.approx(1 + direct, rel=1e-12)


@pytest.mark.parametrize("N", [1, 16, 300])
def test_std0_cesaro(N):
    assert ref.std0_cesaro(N) == pytest.approx(
        ref.cesaro_from_moments(ref.std0_moment, N), rel=1e-14)


def test_std0_functional_direct():
    # M(r) = 8 (1-r^2) int_0^1 A(r v) W(v) dv with W(v) = v int_v^1 s ds
    r = 0.75
    direct = 8 * (1 - r * r) * quad(
        lambda v: ref.std0_circle_mean(r * v, 1 - r * v)
        * v * quad(lambda s: s, v, 1)[0], 0, 1, **Q)[0]
    assert ref.std0_functional(1 - r) == pytest.approx(direct, rel=1e-10)


def test_phase_factor():
    # c_1 int_B |w1| dv, c_1 = 2!/(2 * 1! * 2! * rho_5) = 3, and
    # int_B |w1| dv = 4 int_0^1 r^4 dr * int_S |xi_1| dsigma, the sphere
    # mean being int_D |lam| dA = 2 int_0^1 s^2 ds by the slice identity
    c1 = 2.0 / (2 * 2 * quad(lambda t: t ** 5, 0, 1)[0])
    ball = 4 * quad(lambda t: t ** 4, 0, 1)[0] * 2 * quad(lambda s: s * s, 0, 1)[0]
    assert ref.PHASE_FACTOR == pytest.approx(c1 * ball, rel=1e-13)


# ----------------------------------------------------------------------
# inputs and the benchmark's declared metrics
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(200))
def test_tabulated_samples_extrapolate_positively(seed):
    pts = workloads.tabulated_samples(seed)
    r, v = pts[:, 0], pts[:, 1]
    assert r[0] == 0.0 and np.all(np.diff(r) > 0) and r[-1] < 1.0
    p = PchipInterpolator(r, v, extrapolate=True)
    assert np.all(p(1.0 - np.logspace(-30, math.log10(1 - r[-1]), 400)) > 0)
    assert p(1.0) > 0


def test_seed_picks_inputs():
    assert not np.array_equal(workloads.tabulated_samples(1),
                              workloads.tabulated_samples(2))
    assert np.array_equal(workloads.tabulated_samples(5),
                          workloads.tabulated_samples(5))


def test_benchmark_json_matches_run():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
