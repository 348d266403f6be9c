"""CLI behaviour: outputs, exit codes, determinism, round trips."""

import json
import subprocess
import sys

import pytest

from jcgrid.hnk import build_hnk
from jcgrid.serialize import hnk_basis_from_json, matrix_from_json


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "jcgrid", *args],
                          capture_output=True, text=True)


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

    @pytest.mark.parametrize("kind", ["spin", "rectangular"])
    def test_matrix_units_rejects_kind_without_transform(self, kind):
        res = run_cli("verify", "matrix-units", "--kind", kind, "--m", "5")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "hermitian or symplectic" in res.stderr

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
