"""Command-line front end.

    bergman-lab <command> --weight <path> --n <int> [--tol <real>]
                [--kmax <int>] [--dmax <int>] [--out <path>]
                [--format json|csv] [--seed <int>] [--threads <int>]

Commands: diagnose, kernel, project, theorem, hl-check, pr-check.
Reports are deterministic JSON (schema_version field, fixed float format);
profile tables are additionally emitted as CSV when --format csv.  Exit
status 0 on success, 2 when any verdict is INCONCLUSIVE, 1 on errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (AnalysisConfig, hardy_littlewood_check,
                       hardy_littlewood_converse, pr_estimate_check,
                       theorem_check)
from .errors import (DescriptorError, NumericRangeError, QuadratureError,
                     SymbolFormError, TruncationError, WeightDomainError)
from .kernel import build_coeffs, eval_kernel, eval_rk
from .projection import project, project_bloch_image, surviving_degree
from .quadrature import BallPoint, QuadSpec
from .serialize import (dumps_report, load_symbol_file, load_weight_file,
                        report_envelope, write_csv)
from .utils import dyadic_radii, last_quartile_slice
from .weights import (MomentTable, RadialWeight, dhat_beta_estimate,
                      is_dhat_moments, is_dhat_tail, is_regular,
                      moment_tail_ratio)

COMMANDS = ("diagnose", "kernel", "project", "theorem", "hl-check", "pr-check")


@dataclass
class RunConfig:
    command: str
    weight_path: str
    n: int = 2
    tolerance: float = 1.0e-8
    grid_k_max: int = 12
    d_max: int = 1 << 19
    output_path: str | None = None
    format: str = "json"
    seed: int = 0
    threads: int = 1
    symbol_path: str | None = None
    trials: int = 100

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not (0.0 < self.tolerance < math.inf):
            raise ValueError("tolerance must be a finite positive number")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.command == "pr-check" and self.n < 2:
            raise ValueError("pr-check needs n >= 2")
        if not (1 <= self.grid_k_max <= 24):
            raise ValueError("kmax must be in 1..24")
        if self.d_max < 1:
            raise ValueError("dmax must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.format not in ("json", "csv"):
            raise ValueError("format must be json or csv")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def _emit(config: RunConfig, doc: dict, csv_tables: dict[str, tuple[list, list]]):
    text = dumps_report(doc)
    if config.output_path:
        Path(config.output_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if config.format == "csv":
        base = Path(config.output_path) if config.output_path else Path("report.json")
        for name, (header, rows) in csv_tables.items():
            write_csv(base.with_name(base.stem + f"-{name}.csv"), header, rows)


def _exit_status(verdicts) -> int:
    return 2 if any(v == "INCONCLUSIVE" for v in verdicts) else 0


def _cmd_diagnose(config: RunConfig, w: RadialWeight):
    table = MomentTable(w)
    spec = QuadSpec(tolerance=min(config.tolerance, 1e-10))
    radii = dyadic_radii(config.grid_k_max)
    reports = [
        is_dhat_tail(w, radii, spec=spec),
        is_dhat_moments(table, spec=spec),
        is_regular(w, radii, spec=spec),
    ]
    # the power-envelope exponent needs the full deep grid to separate betas
    beta = dhat_beta_estimate(w, spec=spec) if reports[0].in_class else None
    xs, ratios, notes = [], [], []
    all_xs = 2.0 ** np.arange(1, 15)
    for x, ratio in zip(all_xs, moment_tail_ratio(table, all_xs, spec).tolist()):
        if math.isfinite(ratio):
            xs.append(x)
            ratios.append(ratio)
        else:
            notes.append(f"x={x:g}: tail underflowed, point excluded")
    lq = last_quartile_slice(len(ratios))
    window = (min(ratios[lq]), max(ratios[lq])) if ratios else (None, None)
    if not ratios:
        notes.append("no finite ratio: window and spread reported as null")
    results = {
        "diagnostics": [rep.to_dict() for rep in reports],
        "beta_estimate": (None if beta is None
                          else {"beta0": beta[0], "constant": beta[1]}),
        "moment_tail": {
            "x": xs,
            "ratio": ratios,
            "last_quartile_window": list(window),
            "window_spread": window[1] / window[0] if ratios else None,
            "notes": notes,
        },
    }
    tables = {"evidence": (["criterion", "parameter", "ratio"],
                           [(rep.criterion_id, p, v) for rep in reports
                            for p, v in rep.evidence])}
    doc = report_envelope("diagnose", w.label, config.n,
                          {"kmax": config.grid_k_max}, results)
    return doc, tables, _exit_status([rep.verdict for rep in reports])


def _cmd_kernel(config: RunConfig, w: RadialWeight):
    table = MomentTable(w)
    coeffs = build_coeffs(table, config.n, d_max=config.d_max)
    radii = dyadic_radii(min(config.grid_k_max, 10))
    rows = []
    for r in radii:
        for s in (0.0, 0.5 * r, r):
            z = BallPoint.radial(float(r), config.n)
            wpt = BallPoint.radial(float(s), config.n)
            try:
                kval = eval_kernel(coeffs, z, wpt, config.tolerance)
                rkval = eval_rk(coeffs, z, wpt, config.tolerance)
                rows.append([float(r), float(s), kval.real, rkval.real])
            except (TruncationError, NumericRangeError):
                rows.append([float(r), float(s), None, None])
    results = {"columns": ["r", "s", "kernel", "radial_derivative"],
               "rows": rows, "d_max": coeffs.d_max}
    doc = report_envelope("kernel", w.label, config.n,
                          {"tolerance": config.tolerance}, results)
    return doc, {"values": (results["columns"], rows)}, 0


def _cmd_project(config: RunConfig, w: RadialWeight):
    if not config.symbol_path:
        raise DescriptorError("project needs --symbol <descriptor path>")
    phi = load_symbol_file(config.symbol_path)
    if phi.multi_index is not None and len(phi.multi_index) != config.n:
        raise DescriptorError(
            f"symbol descriptor: multi_index has {len(phi.multi_index)} entries "
            f"but --n is {config.n}", field="multi_index")
    degree = surviving_degree(phi)
    if degree > config.d_max:
        raise DescriptorError(
            f"symbol descriptor: multi_index needs kernel degree {degree} "
            f"but --dmax is {config.d_max}", field="multi_index")
    table = MomentTable(w)
    coeffs = build_coeffs(table, config.n, d_max=config.d_max)
    spec = QuadSpec(tolerance=min(config.tolerance * 1e-2, 1e-10))
    radii = dyadic_radii(min(config.grid_k_max, 10))
    bloch = project_bloch_image(coeffs, w, phi, radii, spec)
    rows = []
    for (r, density) in bloch:
        val = project(coeffs, w, phi, BallPoint.radial(r, config.n), spec)
        rows.append([r, val.real, val.imag, density])
    results = {"columns": ["r", "projection_re", "projection_im", "bloch_density"],
               "rows": rows, "symbol_kind": phi.kind}
    doc = report_envelope("project", w.label, config.n,
                          {"symbol": phi.kind, "tolerance": config.tolerance},
                          results)
    return doc, {"values": (results["columns"], rows)}, 0


def _cmd_theorem(config: RunConfig, w: RadialWeight):
    cfg = AnalysisConfig(k_max=config.grid_k_max, d_max=config.d_max,
                         threads=config.threads)
    report = theorem_check(w, config.n, cfg)
    results = report.to_dict()
    doc = report_envelope("theorem", w.label, config.n,
                          {"kmax": config.grid_k_max, "dmax": config.d_max},
                          results)
    tables = {
        "functional": (["parameter", "value"], report.functional_profile),
        "majorant": (["parameter", "value"], report.majorant_profile),
        "cesaro": (["parameter", "value"], report.cesaro_profile),
    }
    return doc, tables, _exit_status([report.conclusion,
                                      report.dhat_verdict.verdict])


def _cmd_hl_check(config: RunConfig, w: RadialWeight):
    rng = np.random.default_rng(config.seed)
    suite_constant = 2.0
    rows = []
    all_pass = True
    for trial in range(config.trials):
        a = rng.standard_normal(20) + 1j * rng.standard_normal(20)
        lhs_p, rhs_p = hardy_littlewood_check(a, 1.0)
        lhs_q, rhs_q = hardy_littlewood_converse(a, 4.0)
        ok = lhs_p <= suite_constant * rhs_p and lhs_q <= suite_constant * rhs_q
        all_pass &= ok
        rows.append([trial, lhs_p, rhs_p, lhs_q, rhs_q, int(ok)])
    results = {"columns": ["trial", "direct_lhs", "direct_norm_p",
                           "converse_norm_q_q", "converse_rhs", "pass"],
               "rows": rows, "suite_constant": suite_constant,
               "all_pass": bool(all_pass), "seed": config.seed}
    doc = report_envelope("hl-check", w.label, config.n,
                          {"seed": config.seed, "trials": config.trials}, results)
    return doc, {"trials": (results["columns"], rows)}, 0 if all_pass else 1


def _cmd_pr_check(config: RunConfig, w: RadialWeight):
    table = MomentTable(w)
    coeffs = build_coeffs(table, config.n, d_max=config.d_max)
    rows = []
    for s in (0.5, 0.7, 0.9, 0.99):
        lhs, rhs, ratio = pr_estimate_check(coeffs, w, s)
        rows.append([s, lhs, rhs, ratio])
    ratios = [row[3] for row in rows]
    results = {"columns": ["s", "lhs", "rhs", "ratio"], "rows": rows,
               "window": [min(ratios), max(ratios)],
               "window_spread": max(ratios) / min(ratios)}
    doc = report_envelope("pr-check", w.label, config.n, {}, results)
    return doc, {"ratios": (results["columns"], rows)}, 0


_DISPATCH = {
    "diagnose": _cmd_diagnose,
    "kernel": _cmd_kernel,
    "project": _cmd_project,
    "theorem": _cmd_theorem,
    "hl-check": _cmd_hl_check,
    "pr-check": _cmd_pr_check,
}


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        weight = load_weight_file(config.weight_path)
        doc, tables, status = _DISPATCH[config.command](config, weight)
        _emit(config, doc, tables)
        return status
    except (DescriptorError, SymbolFormError, WeightDomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureError, TruncationError, NumericRangeError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial_value", None) or getattr(exc, "partial_sum", None)
        if partial is not None and config.output_path:
            doc = report_envelope(config.command, "", config.n,
                                  {"error": str(exc)},
                                  {"partial_value": float(partial)})
            Path(config.output_path).write_text(dumps_report(doc), encoding="utf-8")
        return 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # to main's error: line; status 2 means INCONCLUSIVE
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bergman-lab",
        description="Weighted Bergman kernel, projection, and Bloch diagnostics")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--weight", required=True, help="weight descriptor JSON")
    parser.add_argument("--n", type=int, default=2, help="complex dimension")
    parser.add_argument("--tol", type=float, default=1.0e-8)
    parser.add_argument("--kmax", type=int, default=12,
                        help="deepest dyadic grid level (r = 1 - 2^-k)")
    parser.add_argument("--dmax", type=int, default=1 << 19,
                        help="kernel series degree cap")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--symbol", default=None,
                        help="symbol descriptor JSON (project command)")
    parser.add_argument("--trials", type=int, default=100,
                        help="randomized trial count (hl-check)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = RunConfig(
            command=args.command, weight_path=args.weight, n=args.n,
            tolerance=args.tol, grid_k_max=args.kmax, d_max=args.dmax,
            output_path=args.out, format=args.format, seed=args.seed,
            threads=args.threads, symbol_path=args.symbol, trials=args.trials)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
