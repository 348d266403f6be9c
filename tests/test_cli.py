"""CLI behaviour: outputs, exit codes, determinism, round trips."""

import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from jcgrid import cli, grids, hnk, numlin, opspace, triple
from jcgrid.errors import (CapacityError, DecompositionError, DimensionError,
                           NumericError, TransformError)
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
}


class TestGoldenOutput:
    @pytest.mark.parametrize("args", list(GOLDEN_STDOUT), ids=" ".join)
    def test_stdout_sha256(self, args):
        res = run_cli(*args)
        assert res.returncode == 0
        assert hashlib.sha256(res.stdout.encode()).hexdigest() == GOLDEN_STDOUT[args]


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


def _count_product_terms(monkeypatch):
    """Patch every binding of the exact-product kernel in ``jcgrid`` with a
    wrapper that records the number of product terms of each call."""
    terms = []
    orig = numlin._product_sum

    def counted(pairs, q=1):
        terms.append(len(pairs))
        return orig(pairs, q)

    for name, mod in list(sys.modules.items()):
        if name == "jcgrid" or name.startswith("jcgrid."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, attr, counted)
    return terms


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
        # one batched evaluation: the exhaustive table, 6 * 6 * 21 triples
        # with x <= z, and the 6 * 5 * (1 + 1 + 4) named rank-one instances
        assert sizes == [126 + 180]

    # (exact-product kernel calls, product terms); ExactMatrix.__mul__ is a
    # one-term call.  Before triple_product and classify_relation summed
    # their products in one call, every term was its own call: 137, 1,388 and
    # 145.  The terms were 524 and 10,124 while every support projection and
    # every one was formed afresh where it was read; uij-grid was 185 and
    # construct hnk 368 while the realization formed six products per pair.
    @pytest.mark.parametrize("args,products", [
        (("verify", "uij-grid", "--n", "4", "--k", "2"), (125, 137)),
        (("verify", "split", "--p", "4", "--q", "4"), (1100, 1388)),
        # 8 validations of 2 products, 56 ordered pairs of 2, 8 right
        # supports, and 3 + 6 support products to find the indices (3, 6)
        (("construct", "hnk", "--n", "8", "--k", "3"), (89, 145)),
    ], ids=["uij-grid", "split", "construct-hnk"])
    def test_exact_products(self, monkeypatch, capsys, args, products):
        terms = _count_product_terms(monkeypatch)
        assert cli.main(list(args)) == 0
        out = capsys.readouterr().out
        assert args[0] == "construct" or "overall: pass" in out
        assert (len(terms), sum(terms)) == products

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
             "--format", "json"], stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 141
        assert first == b"{\n"
        assert err == b""
