"""CLI behaviour: outputs, exit codes, determinism, round trips."""

import argparse
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from conftest import cli_env, random_exact
from jcgrid import cli, grids, hnk, numlin, opspace, triple
from jcgrid.errors import (CapacityError, DecompositionError, DimensionError,
                           NumericError, TransformError)
from jcgrid.hnk import build_hnk, hnk_projection
from jcgrid.numlin import ExactMatrix, ExactScalar
from jcgrid.serialize import hnk_basis_from_json, matrix_from_json


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "jcgrid", *args],
                          capture_output=True, text=True, env=cli_env())


class TestConstruct:
    def test_hnk_pretty_shows_example_matrices(self):
        res = run_cli("construct", "hnk", "--n", "3", "--k", "2", "--format", "pretty")
        assert res.returncode == 0
        assert "u_1 =" in res.stdout and "u_3 =" in res.stdout
        # the three displayed matrices, flattened
        assert "0   0  0" in res.stdout

    def test_hnk_json_matches_library(self):
        res = run_cli("construct", "hnk", "--n", "3", "--k", "2", "--format", "json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert hnk_basis_from_json(payload) == list(build_hnk(3, 2).basis)

    def test_trivial_space(self):
        res = run_cli("construct", "hnk", "--n", "1", "--k", "1", "--format", "pretty")
        assert res.returncode == 0
        assert "u_1 =\n1" in res.stdout

    def test_spin_system_json(self):
        res = run_cli("construct", "spin-system", "--k", "4", "--format", "json")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["k"] == 4 and len(payload["elements"]) == 4
        for m in payload["elements"]:
            assert matrix_from_json(m).shape == (4, 4)

    def test_csv_format(self):
        res = run_cli("construct", "rectangular", "--p", "2", "--q", "2",
                      "--format", "csv")
        assert res.returncode == 0
        assert "# u_1_1" in res.stdout
        assert "1,0,0,0" in res.stdout

    def test_missing_flags_usage_error(self):
        res = run_cli("construct", "hnk", "--n", "3")
        assert res.returncode == 2
        # counts below 1 would make the sampled checks pass vacuously
        for flag, target in [("--samples", ("projection", "--n", "3", "--k", "2")),
                             ("--conjugations",
                              ("matrix-units", "--kind", "symplectic", "--m", "5"))]:
            for value in ("0", "-5"):
                res = run_cli("verify", *target, flag, value)
                assert res.returncode == 2 and res.stdout == "", (flag, value)

    def test_capacity_exit_code(self):
        res = run_cli("construct", "hnk", "--n", "9", "--k", "4")
        assert res.returncode == 3


class TestVerify:
    def test_hnk_pass(self):
        res = run_cli("verify", "hnk", "--n", "4", "--k", "3")
        assert res.returncode == 0
        assert "overall: pass" in res.stdout

    def test_grid_kinds(self):
        assert run_cli("verify", "grid", "--kind", "hermitian", "--m", "3").returncode == 0
        assert run_cli("verify", "grid", "--kind", "spin", "--r", "2", "--odd").returncode == 0

    def test_uij_small(self):
        res = run_cli("verify", "uij-grid", "--n", "4", "--k", "2")
        assert res.returncode == 0

    def test_projection_seeded(self):
        res = run_cli("verify", "projection", "--n", "4", "--k", "2",
                      "--samples", "50", "--seed", "7")
        assert res.returncode == 0

    def test_trace_prints_both_normalizations(self):
        res = run_cli("verify", "trace", "--n", "3", "--k", "2")
        assert res.returncode == 0
        assert "alternative_sqrt_normalization" in res.stdout
        assert "FLAGGED" in res.stdout

    def test_split_targets(self):
        assert run_cli("verify", "split", "--n", "3", "--ks", "2,1").returncode == 0
        assert run_cli("verify", "split", "--p", "2", "--q", "2").returncode == 0

    def test_matrix_units(self):
        res = run_cli("verify", "matrix-units", "--kind", "symplectic", "--m", "5",
                      "--conjugations", "2")
        assert res.returncode == 0

    @pytest.mark.parametrize("kind", ["hermitian", "symplectic"])
    def test_matrix_units_transform_error_on_a_conjugation_fails(self, monkeypatch, capsys,
                                                                   kind):
        # the left factors of the second and third conjugations are doubled, so
        # their conjugated elements are no partial isometries: a failed check
        # naming the first error, as on the canonical grid, not exit 2 or 4
        orig, draws = grids.random_signed_permutation, []

        def doubled(n, rng):
            draws.append(n)
            perm = orig(n, rng)
            return perm.scale(2) if len(draws) in (3, 5) else perm

        monkeypatch.setattr(grids, "random_signed_permutation", doubled)
        transforms = _count_calls(monkeypatch, grids, f"_{kind}_units")
        argv = ["verify", "matrix-units", "--kind", kind, "--m", "5", "--conjugations", "4",
                "--format", "json"]
        assert cli.main(argv) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["status"] for c in checks] == ["pass", "fail"]
        assert checks[1]["detail"] == ("2 of 4 conjugations break naturality; first error: "
                                       "conjugated grid: matrix fails the partial isometry "
                                       "identity v v* v = v")
        # one transform of the canonical grid, then one batch of all 4 conjugations
        assert (len(draws), len(transforms)) == (8, 2)

    def test_matrix_units_isotope_unit_not_a_partial_isometry_fails(self, monkeypatch, capsys):
        # e_11 in place of u_22 makes v = sum u_ii = 2 e_11 + e_33 + e_44 + e_55:
        # a failed transform check, not a usage error (exit 2)
        orig = grids.hermitian_grid

        def broken(m):
            g = orig(m)
            return grids.Grid(g.kind, g.params, [(i, ExactMatrix.unit(m, m, 0, 0) if i == (2, 2)
                                                  else g.matrix(i)) for i in g.indices])

        monkeypatch.setattr(grids, "hermitian_grid", broken)
        argv = ["verify", "matrix-units", "--kind", "hermitian", "--m", "5", "--format", "json"]
        assert cli.main(argv) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["name"], c["status"], c["detail"]) for c in checks] == [
            ("transform", "fail", "isotope unit v = sum u_ii: matrix fails the partial "
                                  "isometry identity v v* v = v")]

    @pytest.mark.parametrize("kind", ["spin", "rectangular"])
    def test_matrix_units_rejects_kind_without_transform(self, kind):
        res = run_cli("verify", "matrix-units", "--kind", kind, "--m", "5")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "hermitian or symplectic" in res.stderr

    @pytest.mark.parametrize("m", ["3", "4"])
    def test_matrix_units_symplectic_below_transform_size(self, m):
        # symplectic_grid accepts m = 4, the transform needs m >= 5: a usage error,
        # not a verification failure
        res = run_cli("verify", "matrix-units", "--kind", "symplectic", "--m", m)
        assert res.returncode == 2
        assert res.stdout == ""
        assert "--m >= 5" in res.stderr

    def test_hnk_empty_pair_set_is_flagged(self):
        res = run_cli("verify", "hnk", "--n", "1", "--k", "1", "--format", "json")
        assert res.returncode == 0
        checks = {c["name"]: c for c in json.loads(res.stdout)["checks"]}
        assert checks["pairwise_relations"]["status"] == "flagged"
        assert checks["pairwise_relations"]["detail"] == "0 pairs: nothing to check"

    @pytest.mark.parametrize("args,empty", [
        (("hnk", "--n", "1", "--k", "1"),
         {"minimality": "pairs", "rank_one_identities": "instances"}),
        (("grid", "--kind", "rectangular", "--p", "1", "--q", "1"),
         {"minimality": "pairs", "rectangular_chain_identity": "chains"}),
        (("grid", "--kind", "rectangular", "--p", "1", "--q", "3"),
         {"rectangular_chain_identity": "chains"}),
    ], ids=["hnk-1-1", "rectangular-1-1", "rectangular-1-3"])
    def test_grid_checks_without_instances_are_flagged(self, args, empty):
        res = run_cli("verify", *args, "--format", "json")
        assert res.returncode == 0
        checks = {c["name"]: c for c in json.loads(res.stdout)["checks"]}
        for name, unit in empty.items():
            assert checks[name]["status"] == "flagged", name
            assert checks[name]["detail"] == f"0 {unit}: nothing to check"
        # the checks that found instances still pass with their counts
        assert checks["triple_products"]["status"] == "pass"
        assert checks["triple_products"]["detail"].split()[0] != "0"

    @pytest.mark.parametrize("n,empty", [
        ("1", {"uij_orthogonality": "ordered pairs", "uij_colinearity": "ordered pairs",
               "uij_associative_orthogonality": "products",
               "ones_triple_sign_coherence": "triples"}),
        ("2", {"uij_orthogonality": "ordered pairs", "ones_triple_sign_coherence": "triples"}),
    ], ids=["1", "2"])
    def test_uij_empty_triple_set_is_flagged(self, n, empty):
        res = run_cli("verify", "uij-grid", "--n", n, "--k", "1", "--format", "json")
        assert res.returncode == 0
        checks = {c["name"]: c for c in json.loads(res.stdout)["checks"]}
        for name, unit in empty.items():
            assert checks[name]["status"] == "flagged", name
            assert checks[name]["detail"] == f"0 {unit}: nothing to check"
        # every other uij check counted a nonempty set and passed
        for name, check in checks.items():
            if name.startswith("uij_") and name not in empty:
                assert check["status"] == "pass", name
                assert check["detail"].split()[0] != "0", name

    def test_json_format(self):
        res = run_cli("verify", "hnk", "--n", "3", "--k", "2", "--format", "json")
        payload = json.loads(res.stdout)
        assert payload["overall"] == "pass"
        assert all(c["status"] != "fail" for c in payload["checks"])

    def test_capacity(self):
        res = run_cli("verify", "uij-grid", "--n", "6", "--k", "3")
        assert res.returncode == 3


class TestWitness:
    def test_3_2_values(self):
        res = run_cli("witness", "--n", "3", "--k", "2")
        assert res.returncode == 0
        assert "norm=1.41421356" in res.stdout
        assert "norm=1.73205081" in res.stdout

    def test_4_2_ratio(self):
        res = run_cli("witness", "--n", "4", "--k", "2")
        assert res.returncode == 0
        assert "ratio=1.41421356" in res.stdout

    def test_degenerate(self):
        res = run_cli("witness", "--n", "2", "--k", "2")
        assert res.returncode == 0
        assert "ratio=1.00000000" in res.stdout
        assert "degenerate" in res.stdout

    def test_follows_the_build_cap(self, capsys):
        assert cli.main(["witness", "--n", "8", "--k", "4"]) == 0
        out = capsys.readouterr().out
        # sqrt(4) and sqrt(5)
        assert "row witness: norm=2.00000000" in out
        assert "col witness: norm=2.23606798" in out
        assert cli.main(["witness", "--n", "9", "--k", "2"]) == 3
        assert capsys.readouterr().err.startswith("capacity: ")


class TestWitnessFailures:
    """The exact identities fix every witness norm; a false identity or an
    off norm fails the command instead of certifying it."""

    @pytest.mark.parametrize("n,k", [(3, 2), (3, 3)])
    def test_false_support_identity(self, monkeypatch, capsys, n, k):
        monkeypatch.setattr(opspace, "support_sum_identities", lambda space: (True, False))
        assert cli.main(["witness", "--n", str(n), "--k", str(k)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "sum u_i* u_i = (n-k+1).I: False" in lines[3]
        assert lines[-1] == "not certified: sum u_i* u_i != (n-k+1).I"
        assert not any(line.startswith("certified:") for line in lines)

    def test_perturbed_float_norm(self, monkeypatch, capsys):
        monkeypatch.setattr(opspace, "operator_norm",
                            lambda a: numlin.operator_norm(a) * (1 + 1e-8))
        assert cli.main(["witness", "--n", "3", "--k", "2"]) == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("not certified: row witness norm=1.414213576")
        assert "but sqrt(k)=1.414213562373" in last
        for name in ("col witness norm", "image-in-row-space norm", "image-in-col-space norm"):
            assert name in last

    def test_norm_within_tolerance_passes(self, monkeypatch, capsys):
        monkeypatch.setattr(opspace, "operator_norm",
                            lambda a: numlin.operator_norm(a) * (1 + 1e-10))
        assert cli.main(["witness", "--n", "3", "--k", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("certified:")


def _regrid(g, mats):
    """A grid of the kind, parameters and indices of ``g`` on the matrices
    ``mats``."""
    return grids.Grid(g.kind, g.params, list(zip(g.indices, mats)))


def _one_negated(g):
    """The grid ``g`` with its first element negated."""
    first, *rest = g.matrices()
    return _regrid(g, [-first, *rest])


class TestSplitFailures:
    """Each verdict line of ``verify split --p --q`` fails, alone and with
    exit 1, on a seeded fault that reaches that line only."""

    @pytest.mark.parametrize("line", ["grid_verified", "p_part_verified",
                                      "p_part_ternary_closed_matrix_units", "q_part_verified"])
    def test_each_line_fails_alone(self, monkeypatch, capsys, line):
        verify, split = grids.verify_grid, hnk.grid_support_split
        if line in ("grid_verified", "p_part_verified"):
            # the grid, or its p part, reaches the verifier with one element
            # negated.  A fault in the grid is carried into its parts, and a
            # part that is a ternary matrix-unit image is a grid, so no fault
            # of the grid or of the split fails either line alone
            faulty, calls = (0 if line == "grid_verified" else 1), []

            def faulty_verify(g):
                calls.append(g)
                return verify(_one_negated(g) if len(calls) - 1 == faulty else g)

            monkeypatch.setattr(grids, "verify_grid", faulty_verify)
        else:
            # the split hands over its q part with one element negated, or
            # its p part transposed: transposition keeps every Jordan triple
            # product, so that part still verifies as a grid, but it
            # reverses the associative product u_ij u_kl* u_mn
            def faulty_split(g):
                p_grid, q_grid, proj = split(g)
                if line == "q_part_verified":
                    return p_grid, _one_negated(q_grid), proj
                return _regrid(p_grid, [m.adjoint() for m in p_grid.matrices()]), q_grid, proj

            monkeypatch.setattr(hnk, "grid_support_split", faulty_split)
        assert cli.main(["verify", "split", "--p", "2", "--q", "3", "--format", "json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["name"] for c in checks] == ["grid_verified", "p_part_verified",
                                               "p_part_ternary_closed_matrix_units",
                                               "q_part_verified"]
        assert [c["name"] for c in checks if c["status"] != "pass"] == [line]


def _half_projection(space, x):
    # P/2: contractive, but P/2 P/2 = P/4 is not P/2
    return numlin.ApproxMatrix(hnk_projection(space, x).array / 2)


def _oblique_projection(space, x):
    # sum_i trace(x V_i*)/m U_i with V_i = U_i + 4m E, for a unit E off the
    # support of every U_j: trace(U_j V_i*) = m delta_ij still, so this is an
    # idempotent onto the span, but E goes to 4 sum_i U_i, of norm above 1
    basis, m = space.basis_array, space.multiplicity
    r, c = np.argwhere((basis == 0).all(axis=0))[0]
    v = basis.copy()
    v[:, r, c] = 4 * m
    coeffs = np.tensordot(x, v.conj(), axes=([-2, -1], [1, 2])) / m
    return numlin.ApproxMatrix(np.tensordot(coeffs, basis, axes=(-1, 0)))


class TestProjectionFailures:
    """Each line of ``verify projection`` fails, alone and with exit 1, on
    its own seeded fault.  ``fixes_basis_exactly`` reads the exact
    projection ``hnk_projection_exact``; the other two lines sample the
    float projection ``hnk_projection``."""

    def _failing(self, capsys):
        argv = "verify projection --n 3 --k 2 --samples 5 --format json".split()
        assert cli.main(argv) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["name"] for c in checks] == ["fixes_basis_exactly", "idempotent", "contractive"]
        return [c["name"] for c in checks if c["status"] != "pass"]

    def test_moved_basis_element_fails_alone(self, monkeypatch, capsys):
        exact = hnk.hnk_projection_exact

        def faulty(space, x):
            # the projection of the second basis element comes back halved
            p = exact(space, x)
            return p.scale(Fraction(1, 2)) if x == space.basis[1] else p

        monkeypatch.setattr(hnk, "hnk_projection_exact", faulty)
        assert self._failing(capsys) == ["fixes_basis_exactly"]

    @pytest.mark.parametrize("fault, line", [(_half_projection, "idempotent"),
                                             (_oblique_projection, "contractive")],
                             ids=["half", "oblique"])
    def test_float_projection_fault_fails_one_line(self, monkeypatch, capsys, fault, line):
        monkeypatch.setattr(hnk, "hnk_projection", fault)
        assert self._failing(capsys) == [line]


class TestTraceFailures:
    """Each verdict line of ``verify trace`` fails, alone and with exit 1, on
    its own seeded fault.  ``single_eigenvalue_with_multiplicity`` reads the
    exact products x x* and (x x*)^2; the multiplicity formula reads the
    float trace norm of x."""

    def _failing(self, capsys):
        assert cli.main("verify trace --n 4 --k 2 --format json".split()) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["name"] for c in checks] == ["trace_norm_matches_multiplicity_formula",
                                               "single_eigenvalue_with_multiplicity",
                                               "alternative_sqrt_normalization"]
        return [c["name"] for c in checks if c["status"] == "fail"]

    @pytest.mark.parametrize("faulted", [0, 1], ids=["gram", "square"])
    def test_product_fault_fails_the_eigenvalue_line(self, monkeypatch, capsys, faulted):
        build, product = hnk.build_hnk, numlin._product
        calls = []

        def faulty(x, y):
            # of the products after the build, x x* and then (x x*)^2, the
            # one numbered ``faulted`` comes back doubled
            calls.append(1)
            p = product(x, y)
            return p.scale(2) if len(calls) - 1 == faulted else p

        def armed(n, k):
            space = build(n, k)
            monkeypatch.setattr(numlin, "_product", faulty)
            return space

        monkeypatch.setattr(hnk, "build_hnk", armed)
        assert self._failing(capsys) == ["single_eigenvalue_with_multiplicity"]
        assert len(calls) == 2

    def test_trace_norm_fault_fails_the_formula_line(self, monkeypatch, capsys):
        norm = hnk.trace_norm
        monkeypatch.setattr(hnk, "trace_norm", lambda a: 1.5 * norm(a))
        assert self._failing(capsys) == ["trace_norm_matches_multiplicity_formula"]


class TestSupportIndicesFailure:
    """``support_indices`` of ``verify hnk`` cannot turn to FAIL: a wrong
    ``hnk.indices`` result first fails ``build_hnk``'s own assertion, an
    internal error with exit 4 and no report."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_wrong_indices_stop_the_build(self, monkeypatch, capsys, fmt):
        monkeypatch.setattr(hnk, "indices", lambda real: (3, 2))  # (2, 3) for H(4, 2)
        assert cli.main(["verify", "hnk", "--n", "4", "--k", "2", "--format", fmt]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "constructed space has wrong support indices" in err


class TestValidityBeforeCapacity:
    """An invalid input that exceeds no cap is a usage error, not capacity."""

    @pytest.mark.parametrize("args", [
        ("witness", "--n", "3", "--k", "5"),
        ("witness", "--n", "0", "--k", "0"),
        ("construct", "spin-system", "--k", "1"),
    ], ids=" ".join)
    def test_usage_error(self, capsys, args):
        assert cli.main(list(args)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage error: ")


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("construct", "hnk", "--n", "4", "--k", "2", "--format", "json"),
        ("construct", "spin", "--r", "2", "--odd", "--format", "csv"),
        ("verify", "projection", "--n", "3", "--k", "2", "--samples", "25", "--seed", "3"),
        ("witness", "--n", "3", "--k", "2"),
    ])
    def test_stdout_byte_identical(self, args):
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode
        assert a.stdout == b.stdout


# sha256 of stdout, recorded before the exact layer moved to integer numerator
# arrays; the exact representation must not change a byte of any output.
GOLDEN_STDOUT = {
    ("construct", "hnk", "--n", "4", "--k", "2", "--format", "json"):
        "681c55d643377275835d2f82e66a1d172567f211a63629e1a9369b0808617671",
    ("construct", "hnk", "--n", "4", "--k", "2", "--format", "csv"):
        "e7ea98cdf35122c5be8471ca97ef9d88786a03a938dd192b973d68af935938da",
    ("construct", "hnk", "--n", "4", "--k", "2", "--format", "pretty"):
        "666e1790c964d42ef3ff62b7874024b1b77fa6363d4c7d99cb9bef068256cbd1",
    ("construct", "spin-system", "--k", "4", "--format", "json"):
        "b7eb530e1e8d455a250a83cee67b653bef3d8ba21517423530affd44cdcce626",
    ("construct", "hermitian", "--m", "3", "--format", "csv"):
        "a4777c1a9b99a20335df8c5b7a35809735d38141b33c2d115d7f2bf756a4c2e4",
    ("construct", "spin", "--r", "2", "--format", "pretty"):
        "091424fcb345403ab5495846b964e36dfb5e0d6cacdff5c0e10b83792cec15d8",
    ("verify", "hnk", "--n", "4", "--k", "3", "--format", "json"):
        "ac84988aff2d29884498b524b1f48ccca9ee695db9a676c6ec6e786b1dc880d6",
    ("witness", "--n", "3", "--k", "2"):
        "a1acd6782baa66bf8d48bb48432d08e1dda7b03b606a34088d77cafeb45515ec",
    # recorded while spin_grid still searched the governing scalar with the
    # verifier as oracle: the closed-form grid must be the grid it accepted
    ("construct", "spin", "--r", "5", "--odd", "--format", "json"):
        "b03f5bfe11c267d2e77b6d32c55b0eeeeac19dd6006278b96493b4355e94be83",
    ("construct", "spin", "--r", "6", "--odd", "--format", "json"):
        "d59441a6b0cf398ea00eddbca425d6891bdde950067bdf10ee3ec2bee8a25b32",
    ("verify", "grid", "--kind", "spin", "--r", "3", "--odd", "--format", "json"):
        "2f015df9a91d8576370dceb7d4a429401e5a790854ef4ff1cbf300458ee561bf",
    # recorded while build_hnk, realization() and as_grid() each re-validated
    ("verify", "hnk", "--n", "6", "--k", "3", "--format", "json"):
        "f8f41dce2dfb7f2b4db1e02b6a5817472d96c2c2450dab7f952cff2180abe806",
    ("verify", "split", "--n", "3", "--ks", "2,1"):
        "c7117ed8cd346c7ac6894fe0304cb3b32b7f1e7c3876e9dd45d66d7121f5fd87",
    # recorded while serialize.dumps was json.dumps(indent=2, sort_keys=True)
    ("construct", "hnk", "--n", "8", "--k", "3", "--format", "json"):
        "34db5047fc5610c1e8788d3476b1a5d545489421713f54eb1c8d218f27646b23",
    ("construct", "diag-hnk", "--n", "3", "--ks", "2,1", "--format", "json"):
        "5349aaee30f44aa971235581d2c97ba8d11eb850827c5564c11e0ecd6fae396d",
    ("construct", "hermitian", "--m", "4", "--format", "json"):
        "878df3772ed2c609df0125e21ea899bb461afb0e92c196eeb6b4ea025afe4fd8",
    ("verify", "grid", "--kind", "hermitian", "--m", "4", "--format", "json"):
        "114b40dc79c67482ede6cb6320e7ecb3ac9e546a7d81f49d3166a8a9023f9000",
    # re-recorded when the triple table became exhaustive at every size:
    # "500 triples (sampled 500)" became "4851 triples (exhaustive)", no
    # other byte changed
    ("verify", "grid", "--kind", "hermitian", "--m", "6", "--format", "json"):
        "f7f4c687a006385345db32b80128be37de06fe920d6eb6b29e5b7d9884079250",
    # recorded while every triple, minimality and unit-product check was one
    # ExactMatrix product at a time
    ("verify", "grid", "--kind", "symplectic", "--m", "5", "--format", "json"):
        "1fddffa811118a91faaf009101c07328148e93b7faeff41b337d71d4fa8e7362",
    ("verify", "grid", "--kind", "rectangular", "--p", "4", "--q", "4", "--format", "json"):
        "8c0089202d2fdc5b9a3ec5e4bc6a5a15ebe775257b731a9bba9ca3d6da363010",
    ("verify", "grid", "--kind", "spin", "--r", "2", "--odd", "--format", "json"):
        "c79d252c7b3a63f39e616bc949de9cae8e87593c23d362820259ce676f5d24d3",
    ("verify", "uij-grid", "--n", "4", "--k", "2", "--format", "json"):
        "d551a36ac79cd2c9e179edb2faabb41ad12d885d4393c8f3d03dbcf44392d2a4",
    ("verify", "matrix-units", "--kind", "hermitian", "--m", "6", "--conjugations", "5",
     "--seed", "7", "--format", "json"):
        "8f289222f42395053763969aa25103399372ca94092e359107493acf8b801d3e",
    ("verify", "matrix-units", "--kind", "symplectic", "--m", "6", "--conjugations", "5",
     "--seed", "7", "--format", "json"):
        "9a019fa113ad295ea62a99adb1345ff7942daa3e13e91e2db33242db05b819dc",
    # recorded while the expected pair relations and minimal elements were
    # per-kind index rules beside the triple rule
    ("verify", "grid", "--kind", "hermitian", "--m", "6"):
        "2c4066dbd98cd66f043765f10e662d640daff74b81d039c30ae03c808913b85c",
    ("verify", "grid", "--kind", "symplectic", "--m", "5"):
        "0e3749f9abce5c0f572acb5260158b4b96c95567d78ff54c6e508ae699110d05",
    ("verify", "grid", "--kind", "spin", "--r", "2"):
        "67ea02a865e1a9a3b442f12fc580572f4785e432468b96b98f1f95406a3f6e7c",
    ("verify", "grid", "--kind", "spin", "--r", "2", "--odd"):
        "ceab7081df65f6d5c64a361aa051fdf8f6eb4866c2178a0a2f97898986dd69e0",
    ("verify", "grid", "--kind", "rectangular", "--p", "4", "--q", "4"):
        "558d95868def6c186b7f78ecf64440b820f3dc59d0e79408aed165cd701b539f",
    ("verify", "split", "--p", "3", "--q", "3"):
        "2143bf82213dea6203e922ac03c1fcfbf636c35bada5f07dc53b36ca686eecbc",
    ("verify", "split", "--n", "4", "--ks", "3,1"):
        "95a6a506df3669a7ff506ebd8f0f2b8d09ca1554c623d7ebeb6aa5b8b670892e",
    # recorded while dumps laid out every row of cells, equal or not
    ("construct", "hnk", "--n", "7", "--k", "4", "--format", "json"):
        "434fcbe3d16d824c17fb44212f6ba40cfa644ffa8ff39e493e53f061aaf71be4",
    ("construct", "spin-system", "--k", "8", "--format", "json"):
        "cd561b05e49f40d22e4a936e422d25a5fe00b1ce9d8b5e4727bcec18424f6036",
    # recorded while ExactFamily.ternary returned its numerators without
    # their denominator, joined by hand in the transforms
    ("verify", "matrix-units", "--kind", "hermitian", "--m", "5", "--conjugations", "3",
     "--seed", "7", "--format", "json"):
        "95327031a772a9f7e54ab59f52b44bfc28d1ff03fc7c6ed33e5791a1c6bdefe1",
    ("verify", "matrix-units", "--kind", "symplectic", "--m", "5", "--conjugations", "3",
     "--seed", "7", "--format", "json"):
        "71883aab7760a9d37f5d971f6462f3aec8049a73f2cfe16f126df862c495809a",
    # recorded while every family table of a monomial family formed its
    # products with batched matmuls
    ("verify", "split", "--p", "6", "--q", "6", "--format", "json"):
        "1398af052dc27744a400e57ed6a3029064a6c19f71cb2fdbb3b985bff28239cb",
    ("verify", "uij-grid", "--n", "5", "--k", "3", "--format", "json"):
        "4a97778e3ec8d2009e3d3b2b3113b920af5ae9af1a6cfb2ee3c995057fe414a0",
}


class TestGoldenOutput:
    @pytest.mark.parametrize("args", list(GOLDEN_STDOUT), ids=" ".join)
    def test_stdout_sha256(self, args):
        res = run_cli(*args)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == GOLDEN_STDOUT[args]


# (exit code, sha256 of stdout, sha256 of stderr, last stderr line) of the
# parser's help and usage errors at a width of 80 columns, recorded while
# every command built the full parser with all three subcommands: a
# subcommand's --help and a usage error of each subcommand, then what the
# full parser handles (top-level help, a missing, unknown or late command,
# arguments the subcommand does not know)
GOLDEN_PARSER = {
    ('construct', '--help'):
        (0, "f39539fe686ca6508840ca279640c1fafe8c5a2243035f57f0214d2a602f8886",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         ''),
    ('verify', '--help'):
        (0, "cf0fd3107a40e4ac3c5e591894f7291a035ef91013f48cd016ed9b6c360d2436",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         ''),
    ('witness', '--help'):
        (0, "3d6d48543f4b289c2e4bc25b72c0ac6e11ebb39b418534dc509342fb3d49186c",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         ''),
    ('--help',):
        (0, "6848e1934d08b3f5c9612bef6900aea155a54dfb7a86544e2e4c1af0762ac3ef",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         ''),
    ():
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "388df58499a3ece54b9320af48acd03aebfc5095c27e05ff0362707a52b8b195",
         'jcgrid: error: the following arguments are required: command'),
    ('construct', 'nope'):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "67ff58e039399fe12c2a8453018bb148148283329e77e4d5097d091186f1bb97",
         "jcgrid construct: error: argument kind: invalid choice: 'nope' (choose from 'hnk', 'rectangular', 'hermitian', 'symplectic', 'spin', 'spin-system', 'diag-hnk', 'diag-rect')"),
    ('verify',):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "8afcdfe1d3d632d4e1affa9e6905013f194134b5e8b4db6b4965ff48a3fe6361",
         'jcgrid verify: error: the following arguments are required: target'),
    ('witness', '--n', '3'):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "d41b5b29a6c1da2af59d2593b13ef4f235e73de6397ccd3cd8da53a661f08945",
         'jcgrid witness: error: the following arguments are required: --k'),
    ('verify', 'grid', '--bogus'):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "48a04c69758f1e741e876e621152a0c4a31b57f491533361638a6a5f8d45b20d",
         'jcgrid: error: unrecognized arguments: --bogus'),
    ('bogus',):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "518589ebaa0e7a944250693ec82bc88fcdac32330295162d10a58e2ee2492bbe",
         "jcgrid: error: argument command: invalid choice: 'bogus' (choose from 'construct', 'verify', 'witness')"),
    ('--x', 'verify', 'grid'):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "94482f13142aaaa8ea6902d498342a461cf67a02e7323647c3806ea52cb45a93",
         'jcgrid: error: unrecognized arguments: --x'),
    ('verify', 'grid', '--kind', 'hermitian', '--m', 'x'):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "eac8ed5599cd920dc6fba561950041280a31fa18921bb14745fcc0878f784ed4",
         "jcgrid verify: error: argument --m: invalid int value: 'x'"),
    ('verify', '-h', 'grid'):
        (0, "cf0fd3107a40e4ac3c5e591894f7291a035ef91013f48cd016ed9b6c360d2436",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         ''),
    ('witness', '--n', '3', '--k', '2', 'extra'):
        (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "82d47d0fe07dc3674ffcc7c682111f6daf816c9742e9af711fbca6bc738f0524",
         'jcgrid: error: unrecognized arguments: extra'),
}


class TestParser:
    @pytest.mark.parametrize("argv", list(GOLDEN_PARSER), ids=lambda a: " ".join(a) or "empty")
    def test_help_and_usage_errors(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "80")
        code = cli.main(list(argv))
        out, err = capsys.readouterr()
        last = err.splitlines()[-1] if err else ""
        digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
        assert (code, digest(out), digest(err), last) == GOLDEN_PARSER[argv]

    @pytest.mark.parametrize("argv,parsers", [
        (["verify", "grid", "--kind", "hermitian", "--m", "3"], 1),
        (["witness", "--n", "3", "--k", "2"], 1),
        # the subcommand's parser finds --bogus, the full one reports it
        (["verify", "grid", "--bogus"], 5),
        (["--help"], 4),
    ], ids=["verify", "witness", "unknown-argument", "help"])
    def test_a_command_builds_its_own_parser_only(self, monkeypatch, capsys, argv, parsers):
        built = _count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
        cli.main(argv)
        capsys.readouterr()
        assert len(built) == parsers


class TestExitCodeTable:
    """Every exception leaving a command maps to one exit code and one
    stderr line; nothing escapes as a traceback with exit 1."""

    @pytest.mark.parametrize("exc,code,prefix", [
        (CapacityError("too big"), 3, "capacity: too big"),
        (ValueError("bad input"), 2, "usage error: bad input"),
        (DimensionError("bad shape"), 2, "usage error: bad shape"),
        (TransformError("e_11 vanished"), 4, "internal error: TransformError: e_11 vanished"),
        (DecompositionError("factor vanished"), 4,
         "internal error: DecompositionError: factor vanished"),
        (NumericError("no convergence"), 4, "internal error: NumericError: no convergence"),
        (KeyError("u_1"), 4, "internal error: KeyError: 'u_1'"),
    ], ids=["CapacityError", "ValueError", "DimensionError", "TransformError",
            "DecompositionError", "NumericError", "KeyError"])
    def test_exception_maps_to_exit_code(self, monkeypatch, capsys, exc, code, prefix):
        def raise_exc(*args, **kwargs):
            raise exc

        monkeypatch.setattr(hnk, "build_hnk", raise_exc)
        assert cli.main(["verify", "hnk", "--n", "3", "--k", "2"]) == code
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert lines[0] == prefix
        # usage errors add the pointer to --help; the others print one line
        assert len(lines) == (2 if code == 2 else 1)


def _count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` with a wrapper that counts its calls."""
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestValidateOnce:
    """Each value is validated where it is made; verifiers reuse it."""

    def test_verify_hnk_builds_each_element_once(self, monkeypatch, capsys):
        isometries = _count_calls(monkeypatch, triple.PartialIsometry, "__init__")
        realizations = _count_calls(monkeypatch, hnk.RankOneRealization, "__init__")
        assert cli.main(["verify", "hnk", "--n", "6", "--k", "3"]) == 0
        assert "overall: pass" in capsys.readouterr().out
        assert (len(isometries), len(realizations)) == (6, 1)

    def test_verify_spin_grid_runs_the_verifier_once(self, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, grids, "verify_grid")
        assert cli.main(["verify", "grid", "--kind", "spin", "--r", "2", "--odd"]) == 0
        assert "overall: pass" in capsys.readouterr().out
        assert len(calls) == 1

    def test_verify_uij_decomposes_each_word_once(self, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, hnk, "decompose_into_ones")
        assert cli.main(["verify", "uij-grid", "--n", "4", "--k", "2"]) == 0
        assert "overall: pass" in capsys.readouterr().out
        # C(4, 1) * C(4, 2) = 24 words
        assert len(calls) == 24

    def test_verify_projection_stacks_the_basis_once(self, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, numlin.ExactFamily, "__init__")
        assert cli.main(["verify", "projection", "--n", "6", "--k", "3"]) == 0
        assert "overall: pass" in capsys.readouterr().out
        # 6 while each exact projection of a basis element stacked the basis
        assert len(calls) == 1


class TestSharedWork:
    """Work done for one check is read by the next, not redone."""

    def test_rank_one_named_checks_read_the_triple_table(self, monkeypatch, capsys):
        sizes = []
        orig = numlin.ExactFamily.equal

        def counted(self, ia, ib, ic, want=None, sym=False):
            if sym:
                sizes.append(len(ia))
            return orig(self, ia, ib, ic, want, sym)

        monkeypatch.setattr(numlin.ExactFamily, "equal", counted)
        assert cli.main(["verify", "hnk", "--n", "6", "--k", "3"]) == 0
        assert "overall: pass" in capsys.readouterr().out
        # the realization's colinearity check, {a,a,b} = b/2 for the 6 * 5
        # ordered pairs, when build_hnk makes the space (none while it formed
        # one triple product per pair); then the relations' halves c = 1 at
        # (x, x, z) and (z, z, x) for the 15 pairs, all colinear, so no c = 2
        # pass; [126] while the relations were classified pair by pair.  Then
        # one batched evaluation: the exhaustive table, 6 * 6 * 21 triples
        # with x <= z.  The 6 * 5 * (1 + 1 + 4) named rank-one instances are
        # read off it; they were evaluated with it, as [126 + 180], before
        assert sizes == [30, 30, 126]

    # exact-product kernel calls, one product each.  While the kernel summed
    # the two terms of a triple product in one call, the figures were
    # (calls, product terms): (108, 108), (44, 44), (8, 8), (0, 0) and
    # (6, 6), every call one term.  Before triple_product and
    # classify_relation summed their products in one call, every term was
    # its own call: 137, 1,388 and 145.  The terms were 524 and 10,124
    # while every support projection and every one was formed afresh where
    # it was read; uij-grid was 185 and construct hnk 368 while the
    # realization formed six products per pair, and (125, 137) and (73, 129) while it formed one triple product, of
    # two terms, per ordered pair: 12 and 56 calls, now one family table.
    # uij-grid was (113, 113), construct hnk (17, 17) and projection (13, 13)
    # while the indices of a monomial realization were found by multiplying
    # its support projections (2 + 3, 3 + 6 and 3 + 4 products); now they are
    # read off the family's gather form.
    @pytest.mark.parametrize("args,products", [
        (("verify", "uij-grid", "--n", "4", "--k", "2"), 108),
        # 1100 and 1388 while each Grid checked its matrices one at a time, two
        # products each (96 for the three grids); 1052 and 1340 while the
        # relations were classified pair by pair, 4 products per pair that
        # is not orthogonal.  The 44 left are the support split's own; 60
        # while (1 - p) u was formed as a second product, not as u - p u
        (("verify", "split", "--p", "4", "--q", "4"), 44),
        # 8 validations of 1 product.  (17, 17) while 3 + 6 support products
        # found the indices (3, 6); (89, 145) while each support projection
        # u u* and u* u was formed as a product: 8 validations of 2 products
        # and 8 right supports; then the 56 x 28 and 28 x 56 Grams were read
        # off the row norms as kept diagonals
        (("construct", "hnk", "--n", "8", "--k", "3"), 8),
        # 834 while naturality formed left * E_ij * right for the 36 units of
        # each of the 5 conjugations.  474 while conjugate_grid formed left * u
        # * right per element (210) and each Grid checked its 21 elements one
        # at a time (252); 12 while the isotope unit v of each of the 6
        # transforms was checked as its own matrix, v v* and then v v* v
        (("verify", "matrix-units", "--kind", "hermitian", "--m", "6", "--conjugations", "5"),
         0),
        # 91 while the exact projection formed x U* for each of the 6 basis
        # elements of each of the 6 basis elements it fixes; (55, 85) while
        # the 6 left and 6 right supports of H(6,3) were formed as products,
        # (43, 73) while the 30 ordered pairs were one triple product each,
        # (13, 13) while 3 + 4 support products found the indices (3, 4)
        (("verify", "projection", "--n", "6", "--k", "3", "--samples", "10"), 6),
    ], ids=["uij-grid", "split", "construct-hnk", "matrix-units", "projection"])
    def test_exact_products(self, monkeypatch, capsys, args, products):
        calls = _count_calls(monkeypatch, numlin, "_product")
        assert cli.main(list(args)) == 0
        out = capsys.readouterr().out
        assert args[0] == "construct" or "overall: pass" in out
        assert len(calls) == products

    def test_transforms_form_no_product_per_unit(self, monkeypatch):
        sizes = (5, 6, 8)
        made = [(grids.hermitian_grid(m), grids.symplectic_grid(m)) for m in sizes]
        calls = _count_calls(monkeypatch, numlin, "_product")
        for herm, sympl in made:
            grids.hermitian_to_matrix_units(herm)
            grids.symplectic_to_matrix_units(sympl)
        # [1, 1] per size while the hermitian isotope unit v was checked as
        # its own matrix (v v*, v v* v); now it is a member of the family
        assert calls == []

    def test_uij_family_builds_each_word_once(self, monkeypatch, capsys):
        calls = _count_calls(monkeypatch, hnk, "_word_matrix")
        assert cli.main(["verify", "uij-grid", "--n", "4", "--k", "2"]) == 0
        assert "overall: pass" in capsys.readouterr().out
        assert len(calls) == 24


def _projection_report(capsys, *args):
    assert cli.main(["verify", "projection", *args, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["checks"]


def _per_sample_projection(n, k, samples, seed):
    """The projection check one sample at a time, as the CLI ran it before
    it drew and measured its samples in stacked blocks: (worst idempotence
    residual, worst norm ratio)."""
    space = build_hnk(n, k)
    rng = np.random.default_rng(np.random.PCG64(seed))
    rows, cols = space.shape
    worst_idem = worst_ratio = 0.0
    for _ in range(samples):
        x = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        px = hnk.hnk_projection(space, x).array
        ppx = hnk.hnk_projection(space, px).array
        denom = max(1.0, float(np.abs(px).max()))
        worst_idem = max(worst_idem, float(np.abs(ppx - px).max()) / denom)
        nx = numlin.operator_norm(x)
        npx = numlin.operator_norm(px)
        if nx > 1e-12:
            worst_ratio = max(worst_ratio, npx / nx)
    return worst_idem, worst_ratio


class TestProjectionBlocks:
    """`verify projection` draws, projects and measures its samples one
    stacked block at a time."""

    def test_one_block_makes_two_projections_and_two_norm_calls(self, monkeypatch, capsys):
        # 200 of each while every sample was projected and measured alone
        projections = _count_calls(monkeypatch, hnk, "hnk_projection")
        eigen = _count_calls(monkeypatch, numlin, "singular_values")
        checks = _projection_report(capsys, "--n", "4", "--k", "2", "--samples", "100")
        assert [c["status"] for c in checks] == ["pass"] * 3
        assert (len(projections), len(eigen)) == (2, 2)

    def test_block_size_does_not_change_the_report(self, monkeypatch, capsys):
        args = ("--n", "4", "--k", "2", "--samples", "100", "--seed", "5")
        one = _projection_report(capsys, *args)
        rows, cols = build_hnk(4, 2).shape
        monkeypatch.setattr(cli, "PROJECTION_BLOCK_ENTRIES", 15 * rows * cols)
        projections = _count_calls(monkeypatch, hnk, "hnk_projection")
        seven = _projection_report(capsys, *args)
        assert len(projections) == 2 * 7  # 6 blocks of 15 samples and one of 10
        assert [c["status"] for c in seven] == [c["status"] for c in one]
        assert seven[2]["detail"] == one[2]["detail"]
        assert seven[1]["detail"] == one[1]["detail"] == "100 samples"
        assert abs(seven[1]["residual"] - one[1]["residual"]) <= 1e-15

    def test_matches_the_per_sample_oracle(self, capsys):
        # the 20 projection commands of the float-norms benchmark workload,
        # seeded as its seed 1 seeds them
        seeds = random.Random(1)
        for n in range(2, 7):
            for k in range(1, n + 1):
                seed = seeds.randrange(2 ** 31)
                checks = _projection_report(capsys, "--n", str(n), "--k", str(k),
                                            "--samples", "100", "--seed", str(seed))
                idem, ratio = _per_sample_projection(n, k, 100, seed)
                assert [c["status"] for c in checks] == [
                    "pass", "pass" if idem <= 1e-12 else "fail",
                    "pass" if ratio <= 1.0 + 1e-9 else "fail"]
                assert checks[2]["detail"] == f"max ratio {ratio:.12f}"
                assert abs(checks[1]["residual"] - idem) <= 1e-15


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self._fd


class TestBrokenPipe:
    def test_closed_stdout_exits_141_silently(self, monkeypatch, capsys, tmp_path):
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
            assert cli.main(["verify", "hnk", "--n", "3", "--k", "2"]) == 141
            assert capsys.readouterr().err == ""
            # the descriptor now writes to devnull, so the exit flush cannot fail
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)

    def test_reader_closing_after_one_line(self):
        # 2.4 MB of JSON: far more than a pipe holds, so the writer meets the close
        proc = subprocess.Popen(
            [sys.executable, "-m", "jcgrid", "construct", "hnk", "--n", "8", "--k", "3",
             "--format", "json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=cli_env())
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert first == b"{\n"
        assert err == b""


E = ExactMatrix.unit


def _embedded(m, block):
    """The m x m identity with ``block`` on its leading rows and columns."""
    rows = [[block[r][c] if r < len(block) and c < len(block) else int(r == c)
             for c in range(m)] for r in range(m)]
    return ExactMatrix.from_rows(rows)


# exact unitaries with every entry of the leading 2 x 2 block nonzero
ROTATION = [[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]]
COMPLEX_ROTATION = [[ExactScalar(Fraction(3, 5)), ExactScalar(0, Fraction(4, 5))],
                    [ExactScalar(0, Fraction(4, 5)), ExactScalar(Fraction(3, 5))]]


class TestConjugatedUnit:
    """The naturality check's left * E_ij * right for every unit E_ij, the
    canonical unit stack conjugated by ``ExactFamily.conjugate``, member by
    member against the dense product."""

    def _check(self, left, right):
        m = left.cols
        got = numlin.ExactFamily(_stacks=[grids._canonical_units(m).conjugate([left], [right])])
        assert (len(got), got.shape) == (m * m, (left.rows, right.cols))
        for i in range(m):
            for j in range(m):
                assert got.member(i * m + j) == left * E(m, m, i, j) * right
        return got.re

    def test_signed_permutations(self):
        rng = random.Random(4)
        for m in (2, 5, 6):
            for _ in range(4):
                self._check(grids.random_signed_permutation(m, rng), grids.random_signed_permutation(m, rng))

    @pytest.mark.parametrize("block", [ROTATION, COMPLEX_ROTATION], ids=["real", "complex"])
    def test_non_monomial_unitary(self, block):
        rng = random.Random(9)
        m = 4
        u = _embedded(m, block)
        assert u * u.adjoint() == ExactMatrix.identity(m)
        perm = grids.random_signed_permutation(m, rng)
        self._check(u * perm, perm * u.adjoint())
        self._check(u, u)

    def test_any_exact_matrices(self):
        rng = np.random.default_rng(2)
        for rows, inner, cols in [(3, 3, 3), (2, 4, 5)]:
            self._check(random_exact(rng, rows, inner), random_exact(rng, inner, cols))

    def test_pairs_stack_pair_by_pair(self):
        # one call for every pair: the members of each pair's own call, in
        # pair order, over the lcm of the denominators
        rng = random.Random(6)
        u = _embedded(4, COMPLEX_ROTATION)
        perm = lambda: grids.random_signed_permutation(4, rng)
        pairs = [(perm(), perm()), (u, u.adjoint()), (u * perm(), perm())]
        units = grids._canonical_units(4)
        got = numlin.ExactFamily(_stacks=[units.conjugate(*zip(*pairs))])
        assert got.members() == [x for left, right in pairs for x in numlin.ExactFamily(
            _stacks=[units.conjugate([left], [right])]).members()]
        assert got.den == 25 and got.im is not None

    def test_units_are_compares_every_part(self):
        # conjugating the complex factors keeps every real part and negates
        # every imaginary part of left * E_ij * right
        u = _embedded(5, COMPLEX_ROTATION)
        conj = ExactMatrix(5, 5, [e.conjugate() for e in u.entries])
        units = grids._canonical_units(5)
        for kind in ("hermitian", "symplectic"):
            g = getattr(grids, f"{kind}_grid")(5)
            fam = getattr(grids, f"{kind}_to_matrix_units")(grids.conjugate_grid(g, u, u)).family
            assert grids._same_blocks(fam, units.conjugate([u], [u]), 1).all()
            assert not grids._same_blocks(fam, units.conjugate([conj], [conj]), 1).any()
            assert not grids._same_blocks(fam, units.conjugate([u], [ExactMatrix.identity(5)]),
                                          1).any()

    def test_wide_numerators_run_on_python_ints(self):
        big = 1 << 40
        left = ExactMatrix.from_rows([[big, 1], [3, ExactScalar(0, big)]])
        right = ExactMatrix.from_rows([[ExactScalar(big, 1), 2], [5, -big]])
        assert self._check(left, right).dtype == object
        # 2^62 and up: the products themselves leave int64
        wide = ExactMatrix.from_rows([[1 << 62, 1], [0, 1]])
        assert self._check(wide, wide).dtype == object
