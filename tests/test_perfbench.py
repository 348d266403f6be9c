"""The benchmark's traced run: every layer span a workload is predicted to
exercise records a call, so that ``perfbench/run.py --trace 1`` passes."""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

import jcgrid
from jcgrid import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """The module ``perfbench/<name>.py``, imported from its path under a
    name of its own (registered, as its dataclasses need)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing, workloads = _load("tracing"), _load("workloads")


@pytest.mark.parametrize("workload", list(workloads.PREDICTED))
def test_every_predicted_span_records_a_call(workload):
    tracer = tracing.Tracer()
    installed = tracing.Installation(tracer, jcgrid)
    try:
        for job in workloads.build_jobs(workload, seed=1):
            tracer.command = job.label
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(list(job.argv))
            assert workloads.check_output(job, code, out.getvalue()) == [], job.label
    finally:
        installed.remove()
    assert tracing.zero_call_spans(tracer, workloads.PREDICTED[workload]) == []
