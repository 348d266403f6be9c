#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the jcgrid CLI.

    python3 perfbench/run.py --workload exact-verify --seed 1 --seconds 30 --trace 0

Runs from the root of a jcgrid source tree and imports ``jcgrid`` from its
``src/``.  One process, no extra threads: each workload is a fixed list of
CLI commands (see ``workloads.py``) run in-process through
``jcgrid.cli.main(argv)``, with stdout captured and checked.

``--trace 0`` (end-to-end, tracing off): the command list is run round-robin
until ``--seconds`` have passed (at least one full pass).  Before each command
the package's lru caches are cleared and garbage is collected, untimed, so
each command starts as cold as a fresh CLI process.  Metrics:

    wall_s       sum over commands of the median command time: the time to
                 run the whole list once
    max_job_s    the largest median command time
    setup_s      median over SETUP_PROBES fresh interpreters of the time from
                 process start to a ready job list (numpy + jcgrid import)
    peak_rss_mb  peak resident set of this process after the timed loop

wall_s and max_job_s are in seconds at the reference speed: a frozen
reference kernel (``reference.py``) runs between commands, and each command
time is divided by the mean of the reference times around it and multiplied
by the kernel's nominal duration.  This cancels most of the host's slow and
fast stretches; the raw seconds go to the summary and the record.  setup_s
is raw: import time does not slow down with the reference kernel.

``--trace 1``: one untraced pass, then one pass with every layer boundary
wrapped (``tracing.py``); prints the per-layer metrics and writes the span
aggregates per command to ``.bench_out/``.

The last stdout line is the JSON result; the line before it records the
environment.  A human-readable summary, including the fail ratio, goes to
stderr.  The exit code is 0 only if every output check passed.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_tree():
    """Import numpy and jcgrid from this tree's src/, then the workloads."""
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401
    import jcgrid
    if not os.path.abspath(jcgrid.__file__).startswith(SRC + os.sep):
        raise ImportError(f"jcgrid imported from {jcgrid.__file__}, not from {SRC}")
    import workloads
    return jcgrid, workloads


def _setup_probe(args):
    _, workloads = _import_tree()
    workloads.build_jobs(args.workload, args.seed)
    print("ready", flush=True)


def _measure_setup(args):
    """Seconds from spawning a fresh interpreter to its ready job list, per probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed with exit code {code}")
        times.append(elapsed)
    return times


def _environment(jcgrid, args):
    import numpy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "jcgrid_file": os.path.relpath(jcgrid.__file__, ROOT),
        "backend": jcgrid.BACKEND,
        "jcgrid_pure": os.environ.get("JCGRID_PURE", ""),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "machine": platform.machine(),
    }


def _commit():
    """HEAD of the tree's own .git, read without leaving the tree; 'unknown' if none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Runner:
    """Runs jobs through the CLI in-process and records times and failures."""

    def __init__(self, workloads, jobs, ref):
        from jcgrid import cli
        self.cli = cli
        self.workloads = workloads
        self.jobs = jobs
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self._caches = [obj for name, mod in sorted(sys.modules.items())
                        if name == "jcgrid" or name.startswith("jcgrid.")
                        for obj in vars(mod).values()
                        if callable(getattr(obj, "cache_clear", None))]

    def run(self, job):
        """Run one job; returns its wall time in seconds."""
        for cached in self._caches:
            cached.cache_clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(list(job.argv))
            except Exception as exc:  # a crash is a failed command, not a failed benchmark
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self.attempted += 1
        problems = self.workloads.check_output(job, code, out.getvalue())
        if problems:
            self.failed += 1
            job.failures += problems
        return elapsed

    def timed_loop(self, seconds):
        """Round-robin over the jobs until ``seconds`` pass, after one full
        pass.  Returns per job its (seconds, reference seconds) samples; the
        reference kernel runs between jobs, and a job's reference time is
        the mean of the runs just before and just after it."""
        samples = [[] for _ in self.jobs]
        deadline = time.perf_counter() + seconds
        passes = 0
        ref_before = self.ref.time()
        while True:
            for i, job in enumerate(self.jobs):
                if passes and time.perf_counter() >= deadline:
                    return samples
                elapsed = self.run(job)
                ref_after = self.ref.time()
                samples[i].append((elapsed, (ref_before + ref_after) / 2))
                ref_before = ref_after
            passes += 1

    def one_pass(self, tracer=None):
        total = 0.0
        for job in self.jobs:
            if tracer is not None:
                tracer.command = job.label
            total += self.run(job)
        return total

    def final_checks(self, workload, seed):
        before = sum(bool(job.failures) for job in self.jobs)
        self.workloads.final_checks(workload, self.jobs, seed)
        self.failed += sum(bool(job.failures) for job in self.jobs) - before


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _medians(samples, scale_s):
    """Median raw seconds and median seconds at the reference speed, from
    (seconds, reference seconds) samples."""
    return (statistics.median(t for t, _ in samples),
            statistics.median(t / ref_s for t, ref_s in samples) * scale_s)


def _untraced(args, runner):
    setup_times = _measure_setup(args)
    samples = runner.timed_loop(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw, scaled = zip(*(_medians(s, runner.ref.scale_s) for s in samples))
    metrics = {
        "wall_s": _metric(sum(scaled), "s"),
        "max_job_s": _metric(max(scaled), "s"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    detail = {"raw_s": {"wall_s": sum(raw), "max_job_s": max(raw)},
              "reference": runner.ref.kind, "setup_probe_s": setup_times,
              "commands": [{"command": job.label, "samples": s}
                           for job, s in zip(runner.jobs, samples)]}
    return metrics, detail


def _traced(args, runner, jcgrid, workloads):
    untraced_s = runner.one_pass()
    tracer = tracing.Tracer()
    installed = tracing.Installation(tracer, jcgrid)
    try:
        traced_s = runner.one_pass(tracer)
    finally:
        installed.remove()
    metrics = {name: _metric(value, unit)
               for name, (value, unit) in tracing.layer_metrics(tracer).items()}
    metrics["trace.overhead_ratio"] = _metric(traced_s / untraced_s, "1")
    missing = tracing.zero_call_spans(tracer, workloads.PREDICTED[args.workload])
    detail = {"untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
              "zero_call_spans": missing, "spans": tracer.dump()}
    return metrics, detail, missing


def main(argv=None):
    args = _parse_args(argv)
    if args.setup_probe:
        _setup_probe(args)
        return 0
    jcgrid, workloads = _import_tree()
    if args.workload not in workloads.PREDICTED:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.PREDICTED)}",
              file=sys.stderr)
        return 2
    jobs = workloads.build_jobs(args.workload, args.seed)
    env = _environment(jcgrid, args)
    runner = Runner(workloads, jobs, reference.Reference(workloads.REFERENCE[args.workload]))

    span_problems = []
    if args.trace:
        metrics, detail, span_problems = _traced(args, runner, jcgrid, workloads)
    else:
        metrics, detail = _untraced(args, runner)
    runner.final_checks(args.workload, args.seed)

    failures = {job.label: job.failures for job in jobs if job.failures}
    correct = not failures and not span_problems
    result = {"correct": correct, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    _write_record(args, env, result, detail, failures)

    fail_ratio = runner.failed / runner.attempted
    print(f"{args.workload} seed={args.seed} backend={env['backend']} "
          f"attempted={runner.attempted} failed={runner.failed}", file=sys.stderr)
    for name, m in sorted(metrics.items()):
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    for name, value in detail.get("raw_s", {}).items():
        print(f"  {name + ' (raw)':40s} {value:.6g} s", file=sys.stderr)
    print(f"  {'fail_ratio':40s} {fail_ratio:.6g} 1", file=sys.stderr)
    for label, problems in failures.items():
        print(f"  FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    for name in span_problems:
        print(f"  FAILED predicted span {name} recorded no call", file=sys.stderr)

    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0 if correct else 1


def _write_record(args, env, result, detail, failures):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"env": env, "result": result, "failures": failures, **detail}, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
