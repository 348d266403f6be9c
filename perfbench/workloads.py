"""Workload command lists and the checks on their outputs.

Each workload is a fixed list of ``jcgrid`` CLI commands.  The workload seed
only fills the ``--seed`` flag of the seeded commands (``verify projection``
and ``verify matrix-units``), through one ``random.Random(seed)`` draw per
seeded command in list order.

A command's output is checked every time it runs (exit code, verify reports
``overall == "pass"``, construct output identical to its first run); the
heavier checks (JSON round trips, SVD oracle) run once per benchmark run,
after the timed loop.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field

import numpy as np

from jcgrid import grids, hnk, numlin, opspace, serialize

# Workload name -> layer spans it is predicted to exercise; the traced run
# fails when one of them records no call.
PREDICTED = {
    "exact-verify": ["cli.main", "numlin.exact_mul", "numlin.exact_new",
                     "triple.partial_isometry", "triple.triple_product",
                     "triple.classify_relation", "grids.verify_grid", "grids.construct",
                     "grids.transform", "hnk.build", "hnk.realization", "hnk.indices",
                     "hnk.words", "serialize.dumps"],
    "hnk-build": ["cli.main", "numlin.exact_mul", "numlin.exact_new",
                  "triple.partial_isometry", "triple.triple_product", "grids.construct",
                  "hnk.build", "hnk.realization", "hnk.indices", "serialize.dumps",
                  "serialize.matrix_pretty"],
    "float-norms": ["cli.main", "numlin.exact_mul", "numlin.exact_new", "numlin.eigen",
                    "numlin.to_approx", "hnk.build", "hnk.projection",
                    "opspace.cb_separation_report", "serialize.dumps"],
}

# Workload name -> the reference kernel (``reference.py``) its times are scaled by.
REFERENCE = {"exact-verify": "exact", "hnk-build": "write", "float-norms": "eigen"}

PROJECTION_SAMPLES = 100
SVD_RTOL = 1e-9


@dataclass
class Job:
    argv: list
    first_output: str | None = None
    failures: list = field(default_factory=list)

    @property
    def label(self):
        return " ".join(self.argv)


def _commands(workload):
    """(argv, seeded) pairs in run order."""
    if workload == "exact-verify":
        grid_kinds = [["--kind", "hermitian", "--m", "6"],
                      ["--kind", "symplectic", "--m", "5"],
                      ["--kind", "spin", "--r", "2"],
                      ["--kind", "spin", "--r", "2", "--odd"],
                      ["--kind", "rectangular", "--p", "4", "--q", "4"]]
        cmds = [(["verify", "grid", *g, "--format", "json"], False) for g in grid_kinds]
        cmds.append((["verify", "hnk", "--n", "6", "--k", "3", "--format", "json"], False))
        cmds.append((["verify", "uij-grid", "--n", "4", "--k", "2", "--format", "json"], False))
        for kind in ("hermitian", "symplectic"):
            cmds.append((["verify", "matrix-units", "--kind", kind, "--m", "6",
                          "--conjugations", "5", "--format", "json"], True))
        return cmds
    if workload == "hnk-build":
        cmds = [(["construct", "hnk", "--n", str(n), "--k", str(k), "--format", "json"], False)
                for n in range(1, 8) for k in range(1, n + 1)]
        cmds.append((["construct", "hnk", "--n", "8", "--k", "3", "--format", "json"], False))
        cmds.append((["construct", "spin-system", "--k", "8", "--format", "json"], False))
        cmds.append((["construct", "hermitian", "--m", "6", "--format", "pretty"], False))
        return cmds
    if workload == "float-norms":
        cmds = [(["verify", "projection", "--n", str(n), "--k", str(k),
                  "--samples", str(PROJECTION_SAMPLES), "--format", "json"], True)
                for n in range(2, 7) for k in range(1, n + 1)]
        cmds += [(["witness", "--n", "6", "--k", str(k)], False) for k in range(1, 7)]
        cmds.append((["verify", "trace", "--n", "6", "--k", "3", "--format", "json"], False))
        return cmds
    raise KeyError(workload)


def build_jobs(workload, seed):
    rng = random.Random(seed)
    jobs = []
    for argv, seeded in _commands(workload):
        if seeded:
            argv = argv + ["--seed", str(rng.randrange(2 ** 31))]
        jobs.append(Job(argv))
    return jobs


def _flag(argv, name):
    return int(argv[argv.index(name) + 1])


# -- checks after each run of a command -----------------------------------------

_WITNESS_RE = re.compile(r"^(row|col) witness: norm=([0-9.]+)", re.M)


def check_output(job, code, out):
    """Problems with one run's output; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    argv = job.argv
    if argv[0] == "verify":
        try:
            report = json.loads(out)
        except ValueError:
            return ["verify output is not JSON"]
        if report.get("overall") != "pass" or not report.get("checks"):
            return [f"report overall {report.get('overall')!r}"]
        return []
    if argv[0] == "construct":
        if job.first_output is None:
            job.first_output = out
            return []
        return [] if out == job.first_output else ["output differs from its first run"]
    # witness: norms sqrt(k) and sqrt(n - k + 1), printed to 8 decimals
    n, k = _flag(argv, "--n"), _flag(argv, "--k")
    norms = dict(_WITNESS_RE.findall(out))
    want = {"row": math.sqrt(k), "col": math.sqrt(n - k + 1)}
    if set(norms) != set(want):
        return ["witness norms missing"]
    return [f"{side} witness norm {norms[side]} != {v:.8f}"
            for side, v in want.items() if abs(float(norms[side]) - v) > 1e-7]


# -- checks once per benchmark run ----------------------------------------------


def final_checks(workload, jobs, seed):
    """Heavier oracle checks; failures are appended to the jobs they concern."""
    if workload == "hnk-build":
        for job in jobs:
            if job.first_output is not None:
                job.failures += _check_construct(job.argv, job.first_output)
            job.first_output = None
    elif workload == "float-norms":
        _check_norms(jobs, seed)


def _check_construct(argv, out):
    kind = argv[1]
    payload = json.loads(out) if argv[argv.index("--format") + 1] == "json" else None
    if kind == "hnk":
        n, k = _flag(argv, "--n"), _flag(argv, "--k")
        if serialize.hnk_basis_from_json(payload) != list(hnk.build_hnk(n, k).basis):
            return ["JSON does not parse back to build_hnk's basis"]
    elif kind == "spin-system":
        k = _flag(argv, "--k")
        mats = [serialize.matrix_from_json(e) for e in payload["elements"]]
        if mats != grids.spin_system(k):
            return ["JSON does not parse back to spin_system's matrices"]
    elif kind == "hermitian":
        m = _flag(argv, "--m")
        if out.count(" =\n") != m * (m + 1) // 2:
            return ["pretty output does not list every grid element"]
    return []


def _check_norms(jobs, seed):
    """operator_norm against numpy's SVD on a seeded subset of the spaces."""
    rng = np.random.default_rng(seed)
    projections = [j for j in jobs if j.argv[:2] == ["verify", "projection"]]
    for idx in sorted(rng.choice(len(projections), size=3, replace=False)):
        job = projections[idx]
        space = hnk.build_hnk(_flag(job.argv, "--n"), _flag(job.argv, "--k"))
        x = rng.standard_normal(space.shape) + 1j * rng.standard_normal(space.shape)
        px = hnk.hnk_projection(space, x).array
        for name, arr in (("x", x), ("Px", px)):
            job.failures += _norm_mismatch(name, arr)
    witnesses = [j for j in jobs if j.argv[0] == "witness"]
    job = witnesses[int(rng.integers(len(witnesses)))]
    space = hnk.build_hnk(_flag(job.argv, "--n"), _flag(job.argv, "--k"))
    basis = list(space.basis)
    for name, elem in (("row witness", opspace.row_witness(space)),
                       ("col witness", opspace.col_witness(space))):
        job.failures += _norm_mismatch(name, elem.materialize(basis))


def _norm_mismatch(name, arr):
    got = numlin.operator_norm(arr)
    want = float(np.linalg.svd(arr, compute_uv=False)[0])
    if abs(got - want) > SVD_RTOL * max(want, 1e-300):
        return [f"operator_norm({name}) = {got!r}, svd gives {want!r}"]
    return []
