"""End-to-end command-line checks: exit codes, JSON determinism, and the
round trip between emitted payloads and library objects."""

import json

import pytest

from sutwist.cli import main
from sutwist.classification import ParamTuple


def param_entry(n=3, q="1/2", taus=("0", "0"), omega12="0"):
    tau = list(taus)
    omega = [["0"] * n for _ in range(n)]
    omega[0][1] = omega12
    omega[1][0] = negate(omega12)
    # last row/column balance so every line sums to zero
    omega[0][n - 1] = negate(omega12)
    omega[n - 1][0] = omega12
    omega[1][n - 1] = omega12
    omega[n - 1][1] = negate(omega12)
    return {"n": n, "q": q, "tau": tau, "omega": omega}


def negate(text):
    from fractions import Fraction

    f = Fraction(text) % 1
    return str((-f) % 1)


def write_params(tmp_path, entries, name="params.json"):
    path = tmp_path / name
    path.write_text(json.dumps(entries))
    return str(path)


class TestClassify:
    def test_direct_and_mirror(self, tmp_path, capsys):
        entries = [
            param_entry(taus=("1/3", "0")),
            param_entry(taus=("1/3", "0")),
            param_entry(taus=("0", "2/3")),
        ]
        path = write_params(tmp_path, entries)
        assert main(["classify", "--param", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        m = payload["isomorphism_matrix"]
        assert m[0][0] == "direct"
        assert m[0][1] == "direct"
        assert m[0][2] == "mirror"
        assert payload["count"] == 3

    def test_kac_value_rejected(self, tmp_path, capsys):
        path = write_params(tmp_path, [param_entry(q="1")])
        assert main(["classify", "--param", path]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["classify", "--param", "/nonexistent/params.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deterministic_output(self, tmp_path, capsys):
        path = write_params(tmp_path, [param_entry(taus=("1/3", "2/3"))])
        main(["classify", "--param", path])
        first = capsys.readouterr().out
        main(["classify", "--param", path])
        assert capsys.readouterr().out == first


class TestCanonical:
    def test_round_trip_is_fixed_point(self, tmp_path, capsys):
        path = write_params(tmp_path, [param_entry(taus=("1/3", "1/3"))])
        assert main(["canonical", "--param", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        forms = payload["canonical_forms"]
        assert len(forms) == 1
        again = write_params(tmp_path, forms, name="canonical.json")
        assert main(["canonical", "--param", again]) == 0
        assert json.loads(capsys.readouterr().out)["canonical_forms"] == forms

    def test_parsed_form_is_valid_param(self, tmp_path, capsys):
        path = write_params(tmp_path, [param_entry(taus=("2/3", "0"), omega12="1/6")])
        main(["canonical", "--param", path])
        payload = json.loads(capsys.readouterr().out)
        restored = ParamTuple.from_json(payload["canonical_forms"][0])
        assert restored.n == 3


class TestCohomology:
    def test_rank_three_table(self, capsys):
        assert main(["cohomology", "--n", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["group"] == "Z/3"
        assert len(payload["classes"]) == 9
        indices = sorted(row["class_index"] for row in payload["classes"])
        assert indices == [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def test_missing_rank(self, capsys):
        assert main(["cohomology"]) == 2
        assert "error:" in capsys.readouterr().err


class TestPresent:
    def test_json_census(self, tmp_path, capsys):
        path = write_params(tmp_path, [param_entry()])
        assert main(["present", "--param", path]) == 0
        rels = json.loads(capsys.readouterr().out)
        n = 3
        expected = 2 * n * 3 + 2 * 3 * 3 + 1  # two single-family counts, two double, det
        assert len(rels) == expected

    def test_latex_output(self, tmp_path, capsys):
        path = write_params(tmp_path, [param_entry()])
        assert main(["present", "--param", path, "--format", "latex"]) == 0
        out = capsys.readouterr().out
        assert "v_{11}" in out

    def test_multiple_tuples_rejected(self, tmp_path, capsys):
        path = write_params(tmp_path, [param_entry(), param_entry()])
        assert main(["present", "--param", path]) == 2
        assert "error:" in capsys.readouterr().err


class TestSpinVerify:
    def test_default_rank(self, capsys):
        assert main(["spin-verify"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"
        names = [item["name"] for item in payload["items"]]
        assert "pairing-classical" in names

    def test_with_q(self, capsys):
        assert main(["spin-verify", "--n", "3", "--q", "1/4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert any("invariant-scalar-map" in item["name"] for item in payload["items"])

    def test_even_rank_rejected(self, capsys):
        assert main(["spin-verify", "--n", "4"]) == 2
        capsys.readouterr()

    def test_nonsquare_q_rejected(self, capsys):
        assert main(["spin-verify", "--n", "3", "--q", "1/2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_q_with_other_rank_rejected(self, capsys):
        assert main(["spin-verify", "--n", "5", "--q", "1/4"]) == 2
        capsys.readouterr()

    def test_rank_above_work_budget_refused_before_any_basis(self, capsys, monkeypatch):
        from sutwist import spin
        from sutwist.cli import SPIN_MAX_N

        def no_basis(*args, **kwargs):
            raise AssertionError("a spin basis was built")

        monkeypatch.setattr(spin, "SubsetBasis", no_basis)
        monkeypatch.setattr(spin, "VectorBasis", no_basis)
        n = SPIN_MAX_N + 2
        assert main(["spin-verify", "--n", str(n)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"2^{n - 1} = {2 ** (n - 1)}" in err
        assert "Traceback" not in err


class TestSelftest:
    def test_quick_scale(self, capsys):
        assert main(["selftest", "--scale", "quick"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "pass"
        assert len(payload["items"]) >= 10

    def test_text_report(self, capsys):
        assert main(["selftest", "--scale", "quick", "--report", "text"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out.lower()


class TestBadInput:
    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["classify", "--param", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_entry_diagnostics(self, tmp_path, capsys):
        path = write_params(tmp_path, [param_entry(), {"n": 3}])
        assert main(["classify", "--param", str(path)]) == 2
        assert "entry 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry",
        [
            param_entry(q="1/0"),
            param_entry(taus=("1/0", "0")),
            {**param_entry(), "omega": [["0", "2/0", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
        ],
        ids=["q", "tau", "omega"],
    )
    def test_zero_denominator_is_input_error(self, tmp_path, capsys, entry):
        path = write_params(tmp_path, [entry])
        assert main(["classify", "--param", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "entry 0" in err
        assert "Traceback" not in err
