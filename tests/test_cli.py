"""CLI behaviour: outputs, exit codes, determinism, round trips."""

import hashlib
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

    @pytest.mark.parametrize("n", ["1", "2"])
    def test_uij_empty_triple_set_is_flagged(self, n):
        res = run_cli("verify", "uij-grid", "--n", n, "--k", "1", "--format", "json")
        assert res.returncode == 0
        checks = {c["name"]: c for c in json.loads(res.stdout)["checks"]}
        coherence = checks["ones_triple_sign_coherence"]
        assert coherence["status"] == "flagged"
        assert coherence["detail"] == "0 triples: nothing to check"

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
}


class TestGoldenOutput:
    @pytest.mark.parametrize("args", list(GOLDEN_STDOUT), ids=" ".join)
    def test_stdout_sha256(self, args):
        res = run_cli(*args)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == GOLDEN_STDOUT[args]
