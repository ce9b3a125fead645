"""Per-call times of the graded solvers, the exact Lie bracket, the parser and
the Hirzebruch flows.

Times germ.CoordinateChange.inverse, series.series_ode_solve,
mr.linearize and series.jet_reciprocal (the degree-by-degree series
inverse) on every call that the exact-normalize jobs of the benchmark
(germbench/jobs.py) make in sweeps 0-1, and germ.lie_bracket,
parser.parse_vector_field and the two Hirzebruch flows
(hirzebruch.phi_flow and psi_flow, the kernel hirzebruch_flow, a row per
flow) on every call that the exact-algebra jobs make in sweeps 0-1, once
with the germforge of a parent checkout and once with this checkout's,
and writes both, their ratio and whether the outputs
agree as JSON.  The parse_vector_field kernel also times the fixed
user-shaped fields of USER_FIELDS, in a row per mode that lists each
text's time too, and the exact parse_to_jet2 of the rational functions of
USER_RATIONALS, in a row of its own.

Usage, from the root of a checkout:

    python3 tools/bench_graded_solves.py --parent PATH --seeds 11 97 --out BENCH_graded_solves.json \
        --kernels inverse series_ode_solve linearize jet_reciprocal
    python3 tools/bench_graded_solves.py --parent PATH --seeds 11 5 --out BENCH_bracket.json \
        --kernels lie_bracket
    python3 tools/bench_graded_solves.py --parent PATH --seeds 11 5 --out BENCH_parse.json \
        --kernels parse_vector_field
    python3 tools/bench_graded_solves.py --parent PATH --seeds 11 5 --out BENCH_hirzebruch.json \
        --kernels hirzebruch_flow

PATH is the root of a checkout of the parent commit.  Each tree is timed
in a process of its own (the same script with --time SRC): it runs every
job once to capture the solver calls with their inputs, then times each
captured call REPEAT times (a user-shaped parse USER_REPEAT times) and
keeps the least time, which is the one least disturbed by other work on
the machine.  The trees take turns
ROUNDS times per seed, and each call keeps its least time over the
rounds too.  A solver's time is the sum over its calls.  The outputs of
every call are compared through a digest of their stored numerators,
sorted by exponent, valid_through and obstruction (a point of F_n through
its chart and the stored ints of its three coordinates); a call that raises a
GermforgeError is compared by the error's type and message.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each kernel with the workload whose calls it is timed on
KERNELS = {"inverse": "exact-normalize", "series_ode_solve": "exact-normalize",
           "linearize": "exact-normalize", "jet_reciprocal": "exact-normalize",
           "lie_bracket": "exact-algebra", "parse_vector_field": "exact-algebra",
           "hirzebruch_flow": "exact-algebra"}
# the functions a kernel times, where it is not the one of its own name
FUNCTIONS = {"hirzebruch_flow": ("phi_flow", "psi_flow")}
SWEEPS, REPEAT, ROUNDS = 2, 5, 4
# a user-shaped parse takes 5-50 microseconds, so its least time needs more calls
USER_REPEAT = 200
# Field texts as users write them: those of tests/test_parser.py,
# tests/test_cli.py and the console step of .github/workflows/tier1.yml,
# parsed at the CLI's default degree in both modes, and two divisible
# quotients.  The last three are malformed or have a zero denominator.
USER_FIELDS = [
    "[x, y]", "[x, -y]", "[x,-y]", "[y, x]", "[y, 0]", "[x*y, 0]", "[x*y, x*y]", "[x^2, y]",
    "[x^3, y]", "[x^3, 0]", "[x^2, 0]", "[x^2, y^2]", "[x^2, x*y]", "[x*y, y^2]", "[x^2, -x*y]",
    "[x*x*y, -x*y*y]", "[x + x^2*y, -y]", "[x^2*y, 0]", "[x-1/2, y]", "[x^2, -y*(x-2*y)]",
    "[x + y^2, 2*y + x^3]", "[x/2+3/4*x^2, -y/2]", "[2/3*x^2*y+x/5, -y/5]",
    "[x^2*y/3, -x*y^2/3]", "[(2+i)*x, (-2-i)*y]", "[(1)*x, (1)*y]",
    "[(1/2+3/4*i)*x^2*y, (2)*x*y^2]", "[3/4*x^2+(2-i)*y, y^3/5-x*y]",
    "[x*y/7, (1+2*i)/3*x^2-i*y]", "[(1/2+i/3)*x^3-y^2/9, 0.25*x*y]", "[x^2/6, (5/2)*y^4]",
    "[x + x^2*y + x^3 + y^2, -y + x*y^2 + x^2 + 3*x*y]",
    "[x/(1+y), y]", "[((2) + (-3)*x^1 + (3+3*i)*x^2*y^1 + (1/2-3/4*i)*x^3)/(1-x), y]",
    "[x, y+$]", "[(2)*x^2 + $, y]", "[x, (1 + y) / (x - x)]",
]
# Rational functions as the first-integral command reads them, parsed
# exactly: the first two divide by constants, so the parser reads them twice.
USER_RATIONALS = ["(3/4)*x/y+y^2/5", "(51/300)/(y)+(y)", "y^2/(y-x^2)", "x/y"]


def _jet(jet):
    return jet.mode, jet.den, sorted(jet.re.items()), sorted(jet.im.items()), jet.valid_through


def _canonical(name, out):
    if isinstance(out, Exception):
        return type(out).__name__, str(out)
    if name in FUNCTIONS["hirzebruch_flow"]:
        return out.n, out.chart, [(g.den, g.re_num, g.im_num)
                                  for g in (out.base, out.fiber_num, out.fiber_den)]
    if name == "inverse":
        return _jet(out.comp1), _jet(out.comp2)
    if name == "linearize":
        return (_jet(out.change.comp1), _jet(out.change.comp2), _jet(out.linearized.a),
                _jet(out.linearized.b), out.obstruction)
    if name == "lie_bracket" or name.startswith("parse_vector_field"):
        return _jet(out.a), _jet(out.b)
    if name.startswith("parse_to_jet2"):
        return _jet(out.num), _jet(out.den)
    return _jet(out)


def time_tree(src: str, seed: int, kernels) -> dict:
    """Capture and time the calls of *kernels* with the germforge under *src*."""
    sys.path.insert(0, src)
    sys.path.insert(0, str(ROOT / "germbench"))
    import jobs
    from germforge import germ, hirzebruch, mr, parser, series
    from germforge.errors import GermforgeError

    owners = {"inverse": germ.CoordinateChange, "series_ode_solve": series, "linearize": mr,
              "jet_reciprocal": series, "lie_bracket": germ, "parse_vector_field": parser,
              "hirzebruch_flow": hirzebruch}
    calls = []
    undo = []
    for kernel in kernels:
        owner = owners[kernel]
        for name in FUNCTIONS.get(kernel, (kernel,)):
            original = getattr(owner, name)

            def wrapper(*args, _name=name, _original=original, **kwargs):
                calls.append((_name, _original, args, kwargs))
                return _original(*args, **kwargs)

            # rebind it wherever germforge holds it, as germbench/tracer.py does
            holders = [owner] if isinstance(owner, type) else [
                module for key, module in sorted(sys.modules.items())
                if module is not None and (key == "germforge" or key.startswith("germforge."))]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, key, value))
                        setattr(holder, key, wrapper)
    for name in sorted({KERNELS[k] for k in kernels}):
        workload = jobs.WORKLOADS[name](seed)
        for sweep in range(SWEEPS):
            for i in range(workload.slots):
                workload.job(i, sweep).run()
    for holder, key, value in undo:
        setattr(holder, key, value)
    if "parse_vector_field" in kernels:
        calls += [(f"parse_vector_field (user-shaped, {mode})", parser.parse_vector_field,
                   (text, mode, series.DEFAULT_DEGREE), {})
                  for mode in ("exact", "float") for text in USER_FIELDS]
        calls += [("parse_to_jet2 (user-shaped RationalFn, exact)", parser.parse_to_jet2,
                   (text, "exact", series.DEFAULT_DEGREE), {}) for text in USER_RATIONALS]
    times, digests = [], []
    for name, fn, args, kwargs in calls:
        best = float("inf")
        for _ in range(USER_REPEAT if "user-shaped" in name else REPEAT):
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except GermforgeError as exc:
                out = exc
            best = min(best, time.perf_counter() - t0)
        times.append(best)
        digests.append(hashlib.sha256(repr(_canonical(name, out)).encode()).hexdigest())
    return {"names": [c[0] for c in calls], "times": times, "digests": digests}


def _run_child(tree: Path, seed: int, kernels) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--time", str(tree / "src"),
           "--seeds", str(seed), "--kernels", *kernels]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def _commit(tree: Path) -> str:
    """The last commit that changed src/ in *tree*, marked when src/ has
    edits not committed."""
    def git(*cmd):
        return subprocess.run(["git", "-C", str(tree), *cmd, "--", "src"], check=True,
                              capture_output=True, text=True).stdout.strip()
    try:
        return git("log", "-1", "--format=%h") + (" with edits" if git("status", "--porcelain")
                                                  else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def compare(args) -> dict:
    parent = Path(args.parent).resolve()
    trees = {"parent": parent, "change": ROOT}
    report = {
        "what": "per-call times of " + ", ".join(args.kernels) + " on the inputs of "
                + " and ".join(sorted({KERNELS[k] for k in args.kernels}))
                + f" in sweeps 0-{SWEEPS - 1}: least of {REPEAT} timed calls, and of "
                f"{ROUNDS} alternating rounds of the two trees",
        "command": "python3 tools/bench_graded_solves.py --parent PARENT --seeds "
                   + " ".join(map(str, args.seeds)) + " --kernels " + " ".join(args.kernels),
        "commits": {side: _commit(tree) for side, tree in trees.items()},
        "machine": {"python": platform.python_version(), "processor": platform.machine(),
                    "system": platform.system(), "cpus": os.cpu_count()},
        "seeds": {},
    }
    for seed in args.seeds:
        best = {}
        for r in range(ROUNDS):
            for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                got = _run_child(trees[side], seed, args.kernels)
                if side in best:
                    assert best[side]["names"] == got["names"]
                    got["times"] = [min(a, b) for a, b in zip(best[side]["times"], got["times"])]
                best[side] = got
        rows = {}
        for name in dict.fromkeys(best["change"]["names"]):
            sides = {side: [t for n, t in zip(best[side]["names"], best[side]["times"])
                            if n == name] for side in trees}
            same = [a == b for n, a, b in zip(best["parent"]["names"], best["parent"]["digests"],
                                              best["change"]["digests"]) if n == name]
            total = {side: sum(ts) for side, ts in sides.items()}
            rows[name] = {
                "calls": len(sides["change"]),
                "parent_s": round(total["parent"], 6),
                "change_s": round(total["change"], 6),
                "speedup": round(total["parent"] / total["change"], 3) if total["change"] else None,
                "parent_median_call_ms": round(1e3 * statistics.median(sides["parent"]), 4),
                "change_median_call_ms": round(1e3 * statistics.median(sides["change"]), 4),
                "identical_outputs": f"{sum(same)}/{len(same)}",
            }
            if "user-shaped" in name:
                # each text's least time in microseconds, parent then change
                texts = USER_RATIONALS if name.startswith("parse_to_jet2") else USER_FIELDS
                rows[name]["per_call_us"] = {
                    text: [round(1e6 * p, 2), round(1e6 * c, 2)]
                    for text, p, c in zip(texts, sides["parent"], sides["change"])}
        report["seeds"][str(seed)] = rows
    return report


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="root of a checkout of the parent commit")
    ap.add_argument("--seeds", type=int, nargs="+", default=[11])
    ap.add_argument("--out", default="BENCH_graded_solves.json")
    ap.add_argument("--kernels", nargs="+", choices=list(KERNELS), default=list(KERNELS))
    ap.add_argument("--time", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.time:
        print(json.dumps(time_tree(args.time, args.seeds[0], args.kernels)))
        return 0
    if not args.parent:
        ap.error("--parent is required")
    report = compare(args)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report["seeds"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
