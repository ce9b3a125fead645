"""Command-line surface.

Subcommands map onto the library operations; every run produces a JSON
report (schema "germforge/1") written to --json when given.  Exit status is
0 on pass/success, 1 on a mathematical fail verdict, 2 on errors, and 64 on
usage problems.  Vector field arguments accept either a literal
"[exprA, exprB]" or a catalog reference such as "table:2[n=1]" or
"mt:vii[m=2,n=1,a=1,b=1]" (the X member of a pair family).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import random
import re
import sys
from typing import List, Optional, Tuple

from . import acceptance, mr, numflow, onedim, report
from . import hirzebruch as hz
from .blowup import blowup_vf, divisor_singularities
from .catalog import (
    classify_with_reasons,
    first_integral,
    make_normal_form,
    make_pair,
    parse_id,
)
from .errors import BadParams, GermforgeError
from .germ import (
    RationalFn,
    VectorFieldGerm,
    decompose,
    derive_along,
    lie_bracket,
)
from .numflow import LeafLoopSpec, TimePath, elliptic_loop, leaf_period, siegel_loop
from .parser import parse_to_jet1, parse_to_jet2, parse_vector_field
from .report import Report
from .scalars import EXACT, FLOAT
from .series import DEFAULT_DEGREE, MAX_DEGREE, laurent_residue

USAGE_EXIT = 64


def resolve_field(text: str, mode: str, degree: int) -> VectorFieldGerm:
    """Catalog reference or vector field literal."""
    stripped = text.strip()
    if stripped.startswith("table:") or stripped.startswith("mt:"):
        nf = parse_id(stripped)
        if nf.kind == "table":
            return make_normal_form(nf, mode, degree)
        return make_pair(nf, mode, degree)[0]
    return parse_vector_field(text, mode, degree)


def _config_dict(args) -> dict:
    return {"degree": args.degree, "mode": args.mode, "tol": args.tol}


def _emit(rep: Report, args, lines: List[str]) -> None:
    for line in lines:
        print(line)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(rep.to_json())


# ---------------------------------------------------------------------------
# subcommand handlers: return (exit_code, result_payload, human_lines)
# ---------------------------------------------------------------------------

def cmd_bracket(args) -> Tuple[int, dict, List[str]]:
    x = resolve_field(args.X, args.mode, args.degree)
    y = resolve_field(args.Y, args.mode, args.degree)
    br = lie_bracket(x, y)
    return 0, {"bracket": report.germ_to_json(br)}, [
        f"[X, Y] has order {br.order() if not br.is_zero() else 'infinity (zero)'} "
        f"to valid_through {br.valid_through}"
    ]


def cmd_commute(args) -> Tuple[int, dict, List[str]]:
    x = resolve_field(args.X, args.mode, args.degree)
    y = resolve_field(args.Y, args.mode, args.degree)
    br = lie_bracket(x, y)
    zero = br.is_zero(0.0 if args.mode == EXACT else args.tol)
    code = 0 if zero else 1
    return code, {"commute": zero, "bracket": report.germ_to_json(br)}, [
        "fields commute (bracket vanishes to shared precision)" if zero
        else "fields do NOT commute"
    ]


def cmd_decompose(args) -> Tuple[int, dict, List[str]]:
    z = resolve_field(args.Z, args.mode, args.degree)
    x = resolve_field(args.X, args.mode, args.degree)
    y = resolve_field(args.Y, args.mode, args.degree)
    f, g = decompose(z, x, y)
    return 0, {"f": report.rational_to_json(f), "g": report.rational_to_json(g)}, [
        "Z = f X + g Y with meromorphic f, g (see report payload)"
    ]


def cmd_first_integral(args) -> Tuple[int, dict, List[str]]:
    x = resolve_field(args.X, args.mode, args.degree)
    f = parse_to_jet2(args.F, args.mode, args.degree)
    d = derive_along(x, f)
    zero = d.is_zero(0.0 if args.mode == EXACT else args.tol)
    payload = {"is_first_integral": zero}
    if isinstance(d, RationalFn):
        payload["derivative"] = report.rational_to_json(d)
    else:
        payload["derivative"] = report.jet2_to_json(d)
    return (0 if zero else 1), payload, [
        "F is a first integral of X (derivative vanishes)" if zero
        else "F is NOT a first integral of X"
    ]


def cmd_blowup(args) -> Tuple[int, dict, List[str]]:
    # exact polynomial input so singular points can be recentered exactly
    x = resolve_field(args.X, args.mode, math.inf)
    result = blowup_vf(x, args.chart)
    payload = {
        "chart": result.chart,
        "divisor_order": result.divisor_order,
        "dicritical": result.dicritical,
        "transformed": report.germ_to_json(result.transformed),
    }
    lines = [
        f"chart {result.chart}: divisor order {result.divisor_order}, "
        f"{'dicritical' if result.dicritical else 'non-dicritical'}"
    ]
    if not result.dicritical and args.singularities:
        sings = divisor_singularities(result)
        payload["divisor_singularities"] = [
            {
                "point": report.scalar_to_json(s.point),
                "eigenvalues": [report.scalar_to_json(e) for e in s.linear.eigenvalues]
                if s.linear.eigenvalues else None,
            }
            for s in sings
        ]
        lines.append(f"{len(sings)} singular point(s) on the divisor in this chart")
    return 0, payload, lines


def cmd_classify(args) -> Tuple[int, dict, List[str]]:
    x = resolve_field(args.X, EXACT, math.inf)
    declared = []
    for text in args.declare or []:
        form = parse_to_jet2(text, EXACT, math.inf)
        if isinstance(form, RationalFn):
            raise BadParams(f"declared form {text!r} must be a polynomial, not a quotient")
        declared.append((text, form))
    candidates, reasons = classify_with_reasons(x, declared)
    payload = {
        "candidates": [c.label() for c in candidates],
        "reasons": reasons,
    }
    lines = [f"candidates: {', '.join(c.label() for c in candidates) or '(none)'}"]
    lines += reasons
    return (0 if candidates else 1), payload, lines


def cmd_semicheck(args) -> Tuple[int, dict, List[str]]:
    x = resolve_field(args.X, args.mode, args.degree)
    axes = onedim.invariant_axes(x)
    verdicts = {}
    lines = []
    worst = "pass"
    for axis in axes:
        v = onedim.onedim_check(onedim.restrict_to_axis(x, axis))
        verdicts[axis] = {"status": v.status, "reason": v.reason,
                          "witness": str(v.witness) if v.witness is not None else None}
        lines.append(f"axis {axis}: {v.status}"
                     + (f" ({v.reason})" if v.reason else ""))
        if v.status == "fail":
            worst = "fail"
        elif v.status == "unknown" and worst == "pass":
            worst = "unknown"
    if not axes:
        lines.append("no invariant coordinate axes; nothing to check")
    code = 0 if worst == "pass" else 1
    return code, {"verdicts": verdicts, "overall": worst}, lines


def cmd_residue(args) -> Tuple[int, dict, List[str]]:
    h = parse_to_jet1(args.H, args.mode, args.degree)
    res = laurent_residue(h)
    return 0, {"residue": report.scalar_to_json(res)}, [f"residue of dz/h: {res}"]


def cmd_straighten(args) -> Tuple[int, dict, List[str]]:
    g1 = parse_to_jet1(args.g1, args.mode, args.degree)
    g2 = parse_to_jet1(args.g2, args.mode, args.degree)
    u, beta = onedim.straighten_regular(g1, g2, args.n, args.degree)
    verdict = onedim.siegel_regular_test(g1, g2, args.n, args.degree)
    payload = {
        "u": report.jet2_to_json(u),
        "beta": report.jet2_to_json(beta),
        "verdict": {"status": verdict.status, "reason": verdict.reason,
                    "witness": list(verdict.witness) if verdict.witness else None},
    }
    lines = [f"straightening computed to degree {args.degree}; "
             f"semicompleteness verdict: {verdict.status}"]
    if verdict.witness:
        lines.append(f"witness monomial x*y^{verdict.witness[1]}")
    return (0 if verdict.status == "pass" else 1), payload, lines


def cmd_period(args) -> Tuple[int, dict, List[str]]:
    x = resolve_field(args.field, EXACT, args.degree) if args.field else None
    if x is None and args.catalog:
        nf = parse_id(args.catalog)
        x = make_normal_form(nf, EXACT, args.degree)
    if x is None:
        raise GermforgeError("period needs --field or --catalog")
    xf = x.to_float()
    c = complex(args.leaf_re, args.leaf_im)
    if args.pencil == "elliptic":
        spec = elliptic_loop(c, tol=args.tol)
    else:
        spec = siegel_loop(args.base, c, tol=args.tol)
    if args.loops != 1:
        spec = dataclasses.replace(spec, winding=args.loops)
    period, result = leaf_period(xf, spec)
    payload = {
        "period": report.scalar_to_json(period),
        "closure_defect": result.closure_defect,
        "closed": result.closed,
    }
    lines = [f"period = {period:.10g} (closure defect {result.closure_defect:.2e})"]
    if args.scale is not None:
        lam = complex(args.scale)
        rep = numflow.homothety_period_ratio(xf, spec, lam)
        payload["homothety"] = {
            "lambda": report.scalar_to_json(lam),
            "ratio": report.scalar_to_json(rep.ratio),
            "defect": rep.defect,
        }
        lines.append(f"homothety ratio defect |ratio*lambda - 1| = {rep.defect:.2e}")
    return 0, payload, lines


def cmd_holonomy(args) -> Tuple[int, dict, List[str]]:
    form = mr.MRFormalForm(args.m, args.n, args.p, complex(args.lam))
    field = mr.mr_formal_vf(form, FLOAT, args.degree)
    spec = LeafLoopSpec(base_var="x", center=0j, radius=args.radius, winding=1,
                        seed=complex(args.seed), tol=args.tol, max_step=0.02,
                        polydisc=8.0)
    tracked = numflow.track_leaf(field, spec)
    model = mr.holonomy_model(args.m, args.p, complex(args.lam), args.degree)
    time_one = numflow.integrate_flow_1d(model, complex(args.seed),
                                         TimePath.segment(0, 1, tol=args.tol))
    gap = abs(tracked - time_one)
    payload = {
        "tracked": report.scalar_to_json(tracked),
        "model_time_one": report.scalar_to_json(time_one),
        "difference": gap,
    }
    return 0, payload, [
        f"tracked holonomy {tracked:.8g}; model time-one map {time_one:.8g}; "
        f"difference {gap:.2e}"
    ]


def cmd_linearize(args) -> Tuple[int, dict, List[str]]:
    x = resolve_field(args.X, EXACT, args.degree)
    result = mr.linearize(x, args.degree)
    payload = {
        "obstruction": list(result.obstruction) if result.obstruction else None,
        "linearized": report.germ_to_json(result.linearized),
    }
    if result.obstruction:
        i, j, comp = result.obstruction
        lines = [f"resonant obstruction x^{i} y^{j} on the d{comp} component"]
        code = 1
    else:
        lines = [f"linearizable to degree {args.degree} (no resonant obstruction)"]
        code = 0
    return code, payload, lines


# the largest --n of hirzebruch: a sample's exact arithmetic grows faster
# than n^2 (in-process, least of 3 on 2 shared CPUs, Python 3.11: 10
# samples take 0.01 s at n = 128, 0.05 s at n = 256 and 0.21 s at n = 512,
# and 50 samples 0.05, 0.19 and 1.1 s), so the default 50 samples take well
# under a second at the bound, and n = 1000 with 1000 samples would run for
# minutes
MAX_HIRZEBRUCH_N = 256


def cmd_hirzebruch(args) -> Tuple[int, dict, List[str]]:
    n = args.n
    if n > MAX_HIRZEBRUCH_N:
        raise BadParams(f"--n {n} is above the bound {MAX_HIRZEBRUCH_N}")
    rng = random.Random(args.samples * 7919 + n)
    failures = hz.random_flow_failures(n, rng, args.samples)
    gens = hz.local_generators_at_p(n)
    bracket_zero = lie_bracket(gens.z.derived.truncate(10),
                               gens.y.derived.truncate(10)).is_zero()
    payload = {
        "n": n,
        "samples": args.samples,
        "failures": failures,
        "generator_signs": {"Z": gens.z.sign, "Y": gens.y.sign},
        "bracket_zero": bracket_zero,
        "Z_derived": report.germ_to_json(gens.z.derived.truncate(8)),
        "Y_derived": report.germ_to_json(gens.y.derived.truncate(8)),
    }
    ok = not failures and bracket_zero and gens.z.sign and gens.y.sign
    lines = [
        f"F_{n}: {args.samples} random exact checks "
        f"{'all pass' if not failures else 'FAILED: ' + ','.join(failures)}",
        f"local germs match the closed forms up to signs "
        f"(Z: {gens.z.sign:+d}, Y: {gens.y.sign:+d}); [Z, Y] = 0: {bracket_zero}",
    ]
    return (0 if ok else 1), payload, lines


def cmd_make(args) -> Tuple[int, dict, List[str]]:
    nf = parse_id(args.id)
    if nf.kind == "table":
        x = make_normal_form(nf, args.mode, args.degree)
        payload = {"id": nf.label(), "field": report.germ_to_json(x)}
        integral = first_integral(nf, args.mode)
        if isinstance(integral, RationalFn):
            payload["first_integral"] = report.rational_to_json(integral)
        elif integral is not None:
            payload["first_integral"] = report.jet2_to_json(integral)
        return 0, payload, [f"built {nf.label()}"]
    x, y = make_pair(nf, args.mode, args.degree)
    payload = {"id": nf.label(), "X": report.germ_to_json(x),
               "Y": report.germ_to_json(y)}
    return 0, payload, [f"built commuting pair {nf.label()}"]


def cmd_verify_paper(args) -> Tuple[int, dict, List[str]]:
    cfg = acceptance.SuiteConfig(mode=args.mode, degree=min(args.degree, 14))
    results = acceptance.run_suite(args.only, cfg)
    lines = [r.line() for r in results]
    for r in results:
        if not r.passed:
            lines += [f"    {d}" for d in r.details]
    passed = sum(1 for r in results if r.passed)
    lines.append(f"{passed}/{len(results)} acceptance items pass")
    payload = {
        "items": [
            {"name": r.name, "title": r.title, "passed": r.passed,
             "details": r.details, "seconds": round(r.seconds, 3)}
            for r in results
        ],
        "passed": passed,
        "total": len(results),
    }
    return (0 if passed == len(results) and results else 1), payload, lines


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads only plain decimals as negative numbers, so a value in
        # exponent form (--lam -1e-3), or -inf, -infinity or -nan in any case
        # as float() reads them, would be taken for an option
        self._negative_number_matcher = re.compile(
            r"^-((\d+|\d*\.\d+)(e[+-]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


# Defaults of the options every subcommand shares.  The options themselves
# default to SUPPRESS, so the subcommand's parser sets only those given after
# it and keeps any given before it.
_COMMON_DEFAULTS = {"degree": DEFAULT_DEGREE, "mode": EXACT, "tol": 1e-10, "json": None}


def _degree(text: str) -> int:
    """The --degree type: an int, refused with BadParams above MAX_DEGREE."""
    try:
        degree = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if degree > MAX_DEGREE:
        raise BadParams(f"--degree {degree} is above the bound {MAX_DEGREE}")
    return degree


def build_parser() -> _ArgumentParser:
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--degree", type=_degree,
                        help=f"truncation degree, at most {MAX_DEGREE} (default {DEFAULT_DEGREE})")
    common.add_argument("--mode", choices=[EXACT, FLOAT],
                        help="scalar mode for symbolic commands (default exact)")
    common.add_argument("--tol", type=float,
                        help="float comparison / integrator tolerance (default 1e-10)")
    common.add_argument("--json", metavar="PATH", help="write the JSON report here")
    parser = _ArgumentParser(prog="germforge", parents=[common],
                             description="semicomplete commuting germ toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("bracket", help="Lie bracket of two fields")
    p.add_argument("X"); p.add_argument("Y"); p.set_defaults(fn=cmd_bracket)

    p = add_parser("commute", help="check [X, Y] = 0")
    p.add_argument("X"); p.add_argument("Y"); p.set_defaults(fn=cmd_commute)

    p = add_parser("decompose", help="write Z = f X + g Y")
    p.add_argument("Z"); p.add_argument("X"); p.add_argument("Y")
    p.set_defaults(fn=cmd_decompose)

    p = add_parser("first-integral", help="check derive_along(X, F) = 0")
    p.add_argument("X"); p.add_argument("F"); p.set_defaults(fn=cmd_first_integral)

    p = add_parser("blowup", help="quadratic blow-up in one chart")
    p.add_argument("X")
    p.add_argument("--chart", type=int, choices=[0, 1], default=0)
    p.add_argument("--singularities", action="store_true",
                   help="also locate divisor singularities")
    p.set_defaults(fn=cmd_blowup)

    p = add_parser("classify", help="table rows compatible with the germ")
    p.add_argument("X")
    p.add_argument("--declare", action="append", metavar="FORM",
                   help="extra divisor form, e.g. 'x-y' (repeatable)")
    p.set_defaults(fn=cmd_classify)

    p = add_parser("semicheck", help="axis restrictions vs the 1-D lemma")
    p.add_argument("X"); p.set_defaults(fn=cmd_semicheck)

    p = add_parser("residue", help="residue of dz/h for a 1-D germ h(z)")
    p.add_argument("H"); p.set_defaults(fn=cmd_residue)

    p = add_parser("straighten", help="regular-foliation straightening data")
    p.add_argument("--g1", required=True); p.add_argument("--g2", required=True)
    p.add_argument("--n", type=int, default=1)
    p.set_defaults(fn=cmd_straighten)

    p = add_parser("period", help="time-form period over a leaf loop")
    p.add_argument("--field"); p.add_argument("--catalog")
    p.add_argument("--leaf-re", type=float, default=0.02)
    p.add_argument("--leaf-im", type=float, default=0.0)
    p.add_argument("--loops", type=int, default=1)
    p.add_argument("--pencil", choices=["elliptic", "siegel"], default="siegel")
    p.add_argument("--base", type=float, default=0.5,
                   help="base circle radius for siegel loops")
    p.add_argument("--scale", help="also report the homothety ratio at this lambda")
    p.set_defaults(fn=cmd_period)

    p = add_parser("holonomy", help="tracked holonomy vs model time-one map")
    p.add_argument("--m", type=int, default=1); p.add_argument("--n", type=int, default=1)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--seed", type=float, default=0.05)
    p.add_argument("--radius", type=float, default=1.0)
    p.set_defaults(fn=cmd_holonomy)

    p = add_parser("linearize", help="normalize a Siegel-diagonal field")
    p.add_argument("X"); p.set_defaults(fn=cmd_linearize)

    p = add_parser("hirzebruch", help="exact surface-flow verification")
    p.add_argument("--n", type=int, default=1, help=f"the index of F_n, at most {MAX_HIRZEBRUCH_N}")
    p.add_argument("--samples", type=int, default=50)
    p.set_defaults(fn=cmd_hirzebruch)

    p = add_parser("make", help="build a catalog germ or pair")
    p.add_argument("id"); p.set_defaults(fn=cmd_make)

    p = add_parser("verify-paper", help="run the acceptance suite")
    p.add_argument("--only", help="substring filter on item names")
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv, argparse.Namespace(**_COMMON_DEFAULTS))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except BadParams as exc:
        print(f"error: {exc}")
        return 2
    rep = Report(command=list(argv) if argv is not None else sys.argv[1:],
                 config=_config_dict(args))
    try:
        code, payload, lines = args.fn(args)
    except GermforgeError as exc:
        rep.status = "error"
        rep.diagnostics.append(f"{type(exc).__name__}: {exc}")
        _emit(rep, args, [f"error: {exc}"])
        return 2
    rep.status = "ok" if code == 0 else "fail"
    rep.result = payload
    _emit(rep, args, lines)
    return code


if __name__ == "__main__":
    sys.exit(main())
