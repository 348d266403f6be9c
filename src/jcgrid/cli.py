"""Command-line front end.

Subcommands:
    construct  build a space/grid/spin system and write it (json/csv/pretty)
    verify     run a verification suite and report pass/fail
    witness    print the block-row/column witness norms and ratios

Exit codes: 0 pass, 1 verification failure (a broken transform identity
included), 2 usage error, 3 capacity exceeded, 4 internal error (any other
exception), 141 stdout closed by its reader (a pipe into `head`).  Output on
stdout is deterministic byte-for-byte for fixed flags (including --seed);
timings go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import shutil
import sys
import time
from typing import List, Optional

import numpy as np

from . import grids, hnk, opspace, serialize
from .errors import CapacityError, DimensionError, TransformError
from .numlin import operator_norm
from .report import VerificationReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAPACITY = 3
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

# Matrix entries per block of `verify projection` samples: each block is drawn,
# projected and measured as one stack, so memory does not grow with --samples.
PROJECTION_BLOCK_ENTRIES = 2 ** 14


class _UsageError(Exception):
    pass


# Exception type -> (exit code, stderr message); the first matching row wins,
# so CapacityError (a ValueError) precedes the usage row.
_EXIT_TABLE = (
    (CapacityError, EXIT_CAPACITY, "capacity: {exc}"),
    ((_UsageError, ValueError), EXIT_USAGE,
     "usage error: {exc}\nrun with --help for flag documentation"),
    (Exception, EXIT_INTERNAL, "internal error: {name}: {exc}"),
)


# subcommand -> its help line in the full parser
_COMMANDS = {"construct": "build and print a space, grid or spin system",
             "verify": "run a verification suite",
             "witness": "block witness norms and cb lower bounds"}


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """``argv`` parsed by the parser of its subcommand alone when it starts
    with one.  The full parser, with every subcommand registered, parses the
    rest: top-level help, a missing or unknown command, options before the
    command, and arguments the subcommand does not know, which it reports
    with its own usage line.  The help width is measured once and passed to
    every formatter, where argparse would measure it for each one."""
    width = shutil.get_terminal_size().columns - 2
    formatter = functools.partial(argparse.HelpFormatter, width=width)
    command = argv[0] if argv else None
    if command in _COMMANDS:
        p = argparse.ArgumentParser(prog=f"jcgrid {command}", formatter_class=formatter)
        _add_flags(p, command)
        args, extra = p.parse_known_args(argv[1:])
        if not extra:
            args.command = command
            return args
    p = argparse.ArgumentParser(
        prog="jcgrid", description=__doc__,
        formatter_class=functools.partial(argparse.RawDescriptionHelpFormatter, width=width))
    sub = p.add_subparsers(dest="command", required=True)
    for name, text in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=text, formatter_class=formatter), name)
    return p.parse_args(argv)


def _add_flags(p: argparse.ArgumentParser, command: str) -> None:
    """The arguments of ``command``."""
    if command == "construct":
        p.add_argument("kind", choices=["hnk", "rectangular", "hermitian", "symplectic",
                                        "spin", "spin-system", "diag-hnk", "diag-rect"])
        _size_flags(p)
        p.add_argument("--format", choices=["json", "csv", "pretty"], default="pretty")
    elif command == "verify":
        p.add_argument("target", choices=["grid", "hnk", "uij-grid", "projection",
                                          "trace", "split", "matrix-units"])
        p.add_argument("--kind", choices=["rectangular", "hermitian", "symplectic", "spin"],
                       help="grid kind for the grid / matrix-units targets")
        _size_flags(p)
        p.add_argument("--samples", type=_positive_int, default=200,
                       help="random samples for the projection contractivity check")
        p.add_argument("--conjugations", type=_positive_int, default=20,
                       help="seeded conjugation count for matrix-units naturality")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=["text", "json"], default="text")
    else:
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _size_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--odd", action="store_true")
    p.add_argument("--ks", type=str, help="comma-separated strictly decreasing k list")


def _need(args, *names):
    vals = []
    for name in names:
        v = getattr(args, name)
        if v is None:
            raise _UsageError(f"--{name} is required here")
        vals.append(v)
    return vals


def _print_matrices(names, mats, fmt: str) -> None:
    if fmt == "pretty":
        for name, m in zip(names, mats):
            print(f"{name} =")
            print(serialize.matrix_pretty(m))
            print()
    elif fmt == "csv":
        for name, m in zip(names, mats):
            print(f"# {name}")
            for line in serialize.matrix_to_csv_lines(m):
                print(line)


def _cmd_construct(args) -> int:
    fmt = args.format
    if args.kind == "hnk":
        n, k = _need(args, "n", "k")
        space = hnk.build_hnk(n, k)
        if fmt == "json":
            print(serialize.dumps(serialize.hnk_to_json(space)))
        else:
            _print_matrices([f"u_{i}" for i in range(1, n + 1)], space.basis, fmt)
        return EXIT_PASS
    if args.kind == "diag-hnk":
        n, ks = _need(args, "n", "ks")
        real = hnk.diag_hnk(n, [int(t) for t in ks.split(",")])
        mats = [real.matrix(i) for i in range(1, real.n + 1)]
        if fmt == "json":
            payload = {"kind": "diag-hnk", "n": n, "ks": [int(t) for t in ks.split(",")],
                       "elements": serialize.matrices_to_json(mats)}
            print(serialize.dumps(payload))
        else:
            _print_matrices([f"u_{i}" for i in range(1, real.n + 1)], mats, fmt)
        return EXIT_PASS
    if args.kind == "spin-system":
        (k,) = _need(args, "k")
        mats = grids.spin_system(k)
        if fmt == "json":
            print(serialize.dumps(serialize.spin_system_to_json(k, mats)))
        else:
            _print_matrices([f"s_{i}" for i in range(1, k + 1)], mats, fmt)
        return EXIT_PASS
    g = _construct_grid_for(args)
    if fmt == "json":
        print(serialize.dumps(serialize.grid_to_json(g)))
    else:
        _print_matrices([g.label(i) for i in g.indices], g.matrices(), fmt)
    return EXIT_PASS


# the size flags of each grid kind, in the order of its constructor's arguments
_GRID_FLAGS = {"rectangular": ("p", "q"), "hermitian": ("m",), "symplectic": ("m",),
               "spin": ("r",), "diag-rect": ("p", "q")}


def _grid_sizes(args) -> dict:
    """The grid kind's size flags by name; a missing one is a usage error."""
    flags = _GRID_FLAGS[args.kind]
    return dict(zip(flags, _need(args, *flags)))


def _construct_grid_for(args) -> grids.Grid:
    sizes = _grid_sizes(args)
    if args.kind == "spin":
        return grids.spin_grid(sizes["r"], args.odd)
    build = {"rectangular": grids.rectangular_grid, "hermitian": grids.hermitian_grid,
             "symplectic": grids.symplectic_grid, "diag-rect": hnk.diag_rect}[args.kind]
    return build(*sizes.values())


def _verify_projection(args) -> VerificationReport:
    n, k = _need(args, "n", "k")
    space = hnk.build_hnk(n, k)
    rep = VerificationReport(subject=f"projection(n={n}, k={k})")
    basis_fixed = all(hnk.hnk_projection_exact(space, b) == b for b in space.basis)
    rep.add("fixes_basis_exactly", basis_fixed)
    rng = np.random.default_rng(np.random.PCG64(args.seed))
    rows, cols = space.shape
    block = max(1, PROJECTION_BLOCK_ENTRIES // (rows * cols))
    worst_idem = 0.0
    worst_ratio = 0.0
    for start in range(0, args.samples, block):
        # sample i draws its real part, then its imaginary part: the stream
        # is the same for every block size
        z = rng.standard_normal((min(block, args.samples - start), 2, rows, cols))
        x = z[:, 0] + 1j * z[:, 1]
        del z
        nx = operator_norm(x)
        px = hnk.hnk_projection(space, x).array
        del x
        npx = operator_norm(px)
        ppx = hnk.hnk_projection(space, px).array
        denom = np.maximum(1.0, np.abs(px).max(axis=(-2, -1)))
        idem = np.abs(ppx - px).max(axis=(-2, -1)) / denom
        worst_idem = max(worst_idem, float(idem.max()))
        del px, ppx
        nonzero = nx > 1e-12
        if nonzero.any():
            worst_ratio = max(worst_ratio, float((npx[nonzero] / nx[nonzero]).max()))
    rep.add_counted("idempotent", worst_idem <= 1e-12, args.samples, "samples",
                    residual=worst_idem)
    rep.add("contractive", worst_ratio <= 1.0 + 1e-9,
            residual=max(0.0, worst_ratio - 1.0),
            detail=f"max ratio {worst_ratio:.12f}")
    return rep


def _verify_trace(args) -> VerificationReport:
    n, k = _need(args, "n", "k")
    space = hnk.build_hnk(n, k)
    rep = VerificationReport(subject=f"trace(n={n}, k={k})")
    coeffs = [1] * n
    tr = hnk.trace_formula_check(space, coeffs)
    rep.add("trace_norm_matches_multiplicity_formula", tr.residual <= 1e-9,
            residual=tr.residual,
            detail=f"lhs={tr.lhs:.12f} rhs=m*||a||={tr.rhs:.12f}")
    rep.add("single_eigenvalue_with_multiplicity", tr.exact_verified,
            detail=f"eigenvalue={tr.eigenvalue} multiplicity={tr.multiplicity}")
    rep.flag("alternative_sqrt_normalization",
             f"the sqrt(m) reading gives sqrt(m)*||a|| = {tr.sqrt_multiplicity_value:.12f}; "
             f"idempotence forces m*||a|| = {tr.rhs:.12f}, so the sqrt(m) value is "
             f"reported for comparison only, never as a target")
    return rep


def _verify_split(args) -> VerificationReport:
    if args.ks is not None:
        (n,) = _need(args, "n")
        ks = [int(t) for t in args.ks.split(",")]
        real = hnk.diag_hnk(n, ks)
        rep = VerificationReport(subject=f"split(diag-hnk n={n} ks={ks})")
        p_part, q_part, proj = hnk.peirce_split(real)
        i_r_p, _ = hnk.indices(p_part)
        rep.add("p_part_verified", grids.verify_grid(p_part.as_grid()).passed)
        if q_part.n:
            i_r_q, _ = hnk.indices(q_part)
            rep.add("q_part_verified", grids.verify_grid(q_part.as_grid()).passed)
            rep.add("strict_index_drop", i_r_q < i_r_p,
                    detail=f"i_R: {i_r_p} -> {i_r_q}")
        else:
            rep.flag("q_part_empty", "projection acts as identity on the family")
        rep.add("cross_orthogonality", hnk.split_cross_orthogonal(real, proj))
        return rep
    p, q = _need(args, "p", "q")
    # an over-cap grid is refused from its size flags, before it is built
    grids.check_verify_size(grids.grid_size("diag-rect", p=p, q=q))
    g = hnk.diag_rect(p, q)
    rep = VerificationReport(subject=f"split(diag-rect {p}x{q})")
    rep.add("grid_verified", grids.verify_grid(g).passed)
    p_grid, q_grid, _ = hnk.grid_support_split(g)
    rep.add("p_part_verified", grids.verify_grid(p_grid).passed)
    rep.add("p_part_ternary_closed_matrix_units",
            hnk.ternary_matrix_unit_image(p_grid))
    if q_grid is not None:
        rep.add("q_part_verified", grids.verify_grid(q_grid).passed)
    return rep


def _verify_matrix_units(args) -> VerificationReport:
    import random as _random
    kind = args.kind or "hermitian"
    if kind not in ("hermitian", "symplectic"):
        raise _UsageError(f"matrix-units needs --kind hermitian or symplectic, got {kind}")
    (m,) = _need(args, "m")
    if kind == "symplectic" and m < grids.SYMPLECTIC_TRANSFORM_MIN_SIZE:
        raise _UsageError(f"matrix-units --kind symplectic needs --m >= "
                          f"{grids.SYMPLECTIC_TRANSFORM_MIN_SIZE}, got {m}")
    # an over-cap grid is refused from its size flags, before it is built
    grids.check_verify_size(grids.grid_size(kind, m=m))
    rep = VerificationReport(subject=f"matrix-units({kind}, m={m})")
    build = grids.hermitian_grid if kind == "hermitian" else grids.symplectic_grid
    to_units = (grids.hermitian_to_matrix_units if kind == "hermitian"
                else grids.symplectic_to_matrix_units)
    g = build(m)
    try:
        rep.add("canonical_units_recovered", to_units(g).is_canonical())
    except (TransformError, DimensionError) as exc:  # failures carry the identity name
        rep.add("transform", False, detail=str(exc))
        return rep
    rng = _random.Random(args.seed)
    size = g.family().shape[0]
    # drawn a batch at a time, left then right for each conjugation
    pairs = ((grids.random_signed_permutation(size, rng),
              grids.random_signed_permutation(size, rng)) for _ in range(args.conjugations))
    natural, errors = grids.conjugation_naturality(g, pairs)
    bad, error = natural.count(False), next(filter(None, errors), None)
    failure = f"{bad} of {args.conjugations} conjugations break naturality"
    rep.add_counted("conjugation_naturality", bad == 0, args.conjugations,
                    "seeded signed-permutation conjugations",
                    failure=failure if error is None else f"{failure}; first error: {error}")
    return rep


def _cmd_verify(args) -> int:
    if args.target == "grid":
        if args.kind is None:
            raise _UsageError("--kind is required for the grid target")
        # an over-cap grid is refused from its size flags, before it is built
        grids.check_verify_size(grids.grid_size(args.kind, odd=args.odd, **_grid_sizes(args)))
        rep = grids.verify_grid(_construct_grid_for(args))
    elif args.target == "hnk":
        n, k = _need(args, "n", "k")
        space = hnk.build_hnk(n, k)
        rep = grids.verify_grid(space.as_grid())
        rep.subject = f"hnk(n={n}, k={k})"
        i_r, i_l = hnk.indices(space.realization())
        rep.add("support_indices", (i_r, i_l) == (k, n - k + 1),
                detail=f"(i_R, i_L) = ({i_r}, {i_l})")
    elif args.target == "uij-grid":
        n, k = _need(args, "n", "k")
        space = hnk.build_hnk(n, k)
        rep = hnk.verify_uIJ_grid(space.realization(), space)
        checked, failures = hnk.ones_triple_coherence(space.realization())
        rep.add_counted("ones_triple_sign_coherence", failures == 0, checked, "triples",
                        failure=f"{failures} of {checked} triples incoherent")
    elif args.target == "projection":
        rep = _verify_projection(args)
    elif args.target == "trace":
        rep = _verify_trace(args)
    elif args.target == "split":
        rep = _verify_split(args)
    elif args.target == "matrix-units":
        rep = _verify_matrix_units(args)
    else:  # pragma: no cover
        raise _UsageError(f"unknown target {args.target}")
    if args.format == "json":
        print(serialize.dumps(rep.to_json_dict()))
    else:
        print(rep.render_text())
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _cmd_witness(args) -> int:
    rep = opspace.cb_separation_report(args.n, args.k)
    for line in rep.lines():
        print(line)
    return EXIT_FAIL if rep.mismatches() else EXIT_PASS


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    start = time.perf_counter()
    try:
        if args.command == "construct":
            code = _cmd_construct(args)
        elif args.command == "verify":
            code = _cmd_verify(args)
        else:
            code = _cmd_witness(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, which is no fault; point the stdout
        # descriptor at devnull so the flush at interpreter exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as exc:  # the CLI boundary: every exception becomes an exit code
        code, message = next((c, m) for types, c, m in _EXIT_TABLE if isinstance(exc, types))
        print(message.format(exc=exc, name=type(exc).__name__), file=sys.stderr)
        return code
    print(f"elapsed {1000.0 * (time.perf_counter() - start):.1f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
