"""Benchmark of the germforge toolkit: one closed-loop client, seeded jobs.

Usage, from the root of a checkout:

    python3 germbench/run.py --workload exact-algebra --seed 1 --seconds 30 --trace 0
    python3 germbench/run.py --workload all --seed 1 --seconds 30

Workloads (jobs.py): exact-algebra, exact-normalize, float-flows.  A run
imports germforge from ``src/`` of the checkout and makes a fixed number of
job slots from the seed.  It sweeps over the slots until --seconds have
passed, starting each job only after the previous one has been checked: no
threads, no pool.  A slot keeps its structure (kind, degree, sizes,
monomials, parameters) in every sweep and gets fresh values each sweep, so
exact inputs rarely repeat.  Only the germforge calls of a job are timed;
making inputs and checking outputs are not.

Jobs are pure computation, and on a shared machine the same work can take
twice as long from one second to the next.  So a fixed pure-Python kernel
(``reference_kernel``) is timed just before every job, and each job time is
scaled by REF_S over the kernel's recent time: times read as on a machine
where the kernel takes REF_S.  A slot's latency is the median of its scaled
attempts; ``job_p50_ms`` and ``job_p90_ms`` are quantiles over the slots and
``jobs_per_s`` is slots over the sum of their latencies.  The unscaled
figures are printed too.

--trace 0 prints the end-to-end metrics.  ``setup_s`` is the median over
fresh processes of the time from process start until the first job is
ready (interpreter start, ``import germforge``, building the workload and
its first job).  It is not scaled: start-up is mostly loading files and
libraries, which the reference kernel does not track.  ``fail_ratio``
(failed over attempted jobs) is printed with them; it is zero when all is
well, so it is not a bounded metric, and the result line carries it as
``failed`` and ``attempted``.

--trace 1 runs the same jobs with every wrapped germforge function
recording spans (tracer.py) and prints the per-layer metrics.  Before that
it runs one round of the job kinds untraced; the traced outputs of those
jobs must match exactly, and every function the workload is meant to
exercise must record calls, or the run is reported incorrect.  The spans
are written to .bench_out/ in the checkout.

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.  A job that raises, fails its check or
exceeds JOB_LIMIT_S counts as failed and the run goes on.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("exact-algebra", "exact-normalize", "float-flows")
JOB_LIMIT_S = 60.0
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60.0
# the reference kernel's time at the speed every reported time is scaled to
REF_S = 0.0007


class JobTimeout(BaseException):
    """Raised by the alarm when a job exceeds JOB_LIMIT_S (not an Exception,
    so no handler inside germforge can swallow it)."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def reference_kernel():
    """Fixed pure-Python work of the kinds germforge does: rational and
    complex arithmetic, dict updates.  It does not touch germforge, so its
    time measures only the speed the machine gives this process right now."""
    q, z, seen = Fraction(0), 0j, {}
    for k in range(1, 100):
        q = q * Fraction(k, k + 1) + Fraction(1, k)
        z = z * (0.5 + 0.25j) + k
        seen[(k, k & 3)] = q
    return q, z, len(seen)


class Speed:
    """Scale factor REF_S / (median of the last five reference-kernel times).

    A time multiplied by it reads as if the machine ran at the reference
    speed.  The kernel runs just before each timed job, so the factor follows
    the machine's speed changes, which last seconds to minutes.
    """

    def __init__(self):
        self.recent = deque(maxlen=5)
        self.factors = []

    def factor(self) -> float:
        t0 = time.perf_counter()
        reference_kernel()
        self.recent.append(time.perf_counter() - t0)
        f = REF_S / statistics.median(self.recent)
        self.factors.append(f)
        return f


def import_germforge():
    """Import germforge from this checkout's src/, or exit with code 2."""
    # series.default_degree() reads this silently and it changes truncation
    os.environ.pop("GERMFORGE_DEGREE", None)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import germforge
    except ImportError as exc:
        print(f"germbench: cannot import germforge from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(germforge.__file__).resolve().parent != src / "germforge":
        print(f"germbench: imported germforge from {germforge.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    import jobs
    return jobs


def run_jobs(workload, seconds, tracer=None, count=None):
    """Sweep the slots until *seconds* pass, or run the first *count* jobs once."""
    slots = workload.slots if count is None else count
    samples = [[] for _ in range(slots)]
    attempt_latencies = []
    speed = Speed()
    fingerprints = {}
    errors = []
    kinds, degrees, densities, bits = Counter(), Counter(), [], []
    keys = set()
    repeated = attempted = failed = 0
    if count is None:
        order = ((sweep, i) for sweep in itertools.count() for i in range(slots))
    else:
        order = ((0, i) for i in range(count))
    deadline = time.perf_counter() + seconds
    for sweep, i in order:
        if count is None and attempted and time.perf_counter() >= deadline:
            break
        job = workload.job(i, sweep)
        kinds[job.kind] += 1
        degrees[job.degree] += 1
        if job.density is not None:
            densities.append(job.density)
        if job.bits is not None:
            bits.append(job.bits)
        key = hash(job.key)
        repeated += key in keys
        keys.add(key)
        ok = False
        scale = speed.factor()
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        try:
            span = tracer.begin_job(attempted) if tracer else None
            t0 = time.perf_counter()
            try:
                out = job.run()
            finally:
                t1 = time.perf_counter()
                if tracer:
                    tracer.end_job(span)
            ok, fingerprint = job.check(out)
            if sweep == 0:           # kept for the traced/untraced comparison
                fingerprints[i] = fingerprint
            if not ok:
                errors.append(f"job {i} of sweep {sweep} ({job.kind}): check failed")
        except JobTimeout:
            errors.append(f"job {i} of sweep {sweep} ({job.kind}): "
                          f"exceeded {JOB_LIMIT_S:.0f} s")
        except Exception as exc:
            errors.append(f"job {i} of sweep {sweep} ({job.kind}): "
                          f"{type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        attempted += 1
        failed += not ok
        attempt_latencies.append((t1 - t0) * scale)
        if ok:
            samples[i].append((t1 - t0) * scale)
    return {
        "latencies": [statistics.median(x) for x in samples if x],
        "attempt_latencies": attempt_latencies,
        "speed": statistics.median(speed.factors) if speed.factors else 1.0,
        "fingerprints": fingerprints, "errors": errors,
        "attempted": attempted, "failed": failed, "slots": slots,
        "sweeps": attempted / slots,
        "inputs": {
            "kinds": dict(kinds),
            "degree_histogram": {str(d): c for d, c in sorted(degrees.items())},
            "term_density_mean": statistics.fmean(densities) if densities else None,
            "coeff_bits_max": max(bits) if bits else None,
            "coeff_bits_mean": statistics.fmean(bits) if bits else None,
            "repeated_share": repeated / attempted,
        },
    }


def measure_setup(name, seed):
    """Median over fresh processes of start-to-first-job-ready seconds."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"germbench: set-up probe failed: {proc.stderr.strip()}", file=sys.stderr)
            sys.exit(2)
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(samples), samples


def end_to_end(result):
    lat_ms = sorted(t * 1000.0 for t in result["latencies"])
    return {
        "jobs_per_s": (len(lat_ms) * 1000.0 / sum(lat_ms), "1/s"),
        "job_p50_ms": (statistics.median(lat_ms), "ms"),
        "job_p90_ms": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def describe(name, seed, seconds, trace, result):
    print(f"germbench workload={name} seed={seed} seconds={seconds} trace={trace}")
    print(f"  python {platform.python_version()} on {platform.machine()}, "
          f"nproc {len(os.sched_getaffinity(0))}, GERMFORGE_DEGREE unset")
    print(f"  jobs attempted {result['attempted']} in {result['sweeps']:.2f} sweeps "
          f"of {result['slots']} slots, failed {result['failed']}")
    for line in result["errors"][:10]:
        print(f"  error: {line}")
    inputs = result["inputs"]
    print(f"  inputs: kinds {inputs['kinds']}")
    print(f"  inputs: degree histogram {inputs['degree_histogram']}")
    density = inputs["term_density_mean"]
    mean_bits = inputs["coeff_bits_mean"]
    print(f"  inputs: term density {density if density is None else round(density, 3)}, "
          f"coefficient bits max {inputs['coeff_bits_max']} "
          f"mean {mean_bits if mean_bits is None else round(mean_bits, 1)}, "
          f"repeated inputs {inputs['repeated_share']:.1%}")


def main_untraced(jobs, args):
    workload = jobs.WORKLOADS[args.workload](args.seed)
    result = run_jobs(workload, args.seconds)
    metrics = end_to_end(result)
    setup, samples = measure_setup(args.workload, args.seed)
    metrics = {"setup_s": (setup, "s"), **metrics}
    describe(args.workload, args.seed, args.seconds, 0, result)
    print(f"  latency samples: {len(result['latencies'])} slots, median of "
          f"{result['sweeps']:.2f} attempts each on average")
    print(f"  speed factor: median {result['speed']:.4f} (wall-clock time is "
          f"about scaled time / factor)")
    print(f"  set-up samples (s): {', '.join(f'{s:.4f}' for s in samples)}")
    print(f"  fail_ratio: {result['failed'] / result['attempted']:.4f} ratio")
    return result, metrics, result["failed"] == 0


def main_traced(jobs, args):
    import tracer as spans

    workload = jobs.WORKLOADS[args.workload](args.seed)
    reference = run_jobs(workload, 0, count=len(workload.kinds))
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run_jobs(workload, args.seconds, tracer=tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary(result["attempted"], result["speed"])
    describe(args.workload, args.seed, args.seconds, 1, result)
    ok = result["failed"] == 0 and reference["failed"] == 0
    mismatched = [i for i, fp in reference["fingerprints"].items()
                  if result["fingerprints"].get(i, fp) != fp]
    if mismatched:
        ok = False
        print(f"  self-check: traced outputs differ from untraced on jobs {mismatched}")
    missing = [name for name in workload.required if not summary["metrics"][name][0]]
    if missing:
        ok = False
        print(f"  self-check: nothing recorded for {', '.join(missing)}")
    if not mismatched and not missing:
        print(f"  self-check: first {reference['attempted']} jobs identical traced and "
              f"untraced; all {len(workload.required)} required metrics recorded work")
    untraced = sum(reference["attempt_latencies"])
    traced = sum(result["attempt_latencies"][:reference["attempted"]])
    print(f"  tracing overhead on the first {reference['attempted']} jobs: "
          f"{traced / untraced:.3f}x; traced jobs_per_s "
          f"{end_to_end(result)['jobs_per_s'][0]:.4f} 1/s")
    print(f"  wrapped functions' share of job time: {summary['layer_share']:.1%}")
    shares = ", ".join(f"{m} {s:.1%}" for m, s in
                       sorted(summary["module_share"].items(), key=lambda kv: -kv[1]) if s)
    print(f"  self time by module: {shares}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{args.workload}.spans")
    print(f"  {summary['spans']} spans written to .bench_out/{args.workload}.spans")
    return result, summary["metrics"], ok


def run_all(args):
    """Each workload in its own process, so set-up and memory are its own."""
    rows = []
    ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        rows.append((name, result))
    print()
    for name, result in rows:
        cells = [f"fail_ratio={result['failed'] / result['attempted']:.4f} ratio"]
        if args.trace == 0:
            cells += [f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()]
        else:
            cells.append(f"{len(result['metrics'])} per-layer metrics")
        print(f"{name}: " + "  ".join(cells))
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    jobs = import_germforge()
    if args.probe_setup:
        jobs.WORKLOADS[args.workload](args.seed).job(0)
        print(time.monotonic())
        return 0
    if args.workload == "all":
        return run_all(args)
    signal.signal(signal.SIGALRM, _on_alarm)
    run = main_traced if args.trace else main_untraced
    result, metrics, ok = run(jobs, args)
    for name, (value, unit) in metrics.items():
        print(f"  {name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(ok),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
