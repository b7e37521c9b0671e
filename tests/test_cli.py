"""End-to-end command-line checks: exit codes, JSON determinism, and the
round trip between emitted payloads and library objects."""

import json
from math import factorial

import pytest

from sutwist.cli import SPIN_Q_MAX_N, main
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

    def test_rank_above_work_budget_refused_before_any_relation(self, tmp_path, capsys, monkeypatch):
        from sutwist import cli
        from sutwist.cli import PRESENT_MAX_N

        def no_relations(*args, **kwargs):
            raise AssertionError("a relation was built")

        monkeypatch.setattr(cli, "generate_relations", no_relations)
        n = PRESENT_MAX_N + 1
        entry = {"n": n, "q": "1/2", "tau": ["0"] * (n - 1), "omega": [["0"] * n for _ in range(n)]}
        assert main(["present", "--param", write_params(tmp_path, [entry])]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"n! = {factorial(n)}" in err
        assert "Traceback" not in err


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
        assert main(["spin-verify", "--n", str(SPIN_Q_MAX_N + 2), "--q", "1/4"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "n, q, message",
        [
            (11, "abc", "invalid rational 'abc'"),
            (3, "1/0", "invalid rational '1/0'"),
            (3, "-1/4", "--q must be positive, got -1/4"),
            (3, "0", "--q must be positive, got 0"),
            (3, "1/2", "--q 1/2: 1/2 is not a square of a rational"),
            (SPIN_Q_MAX_N + 2, "4/9", f"the limit is --n {SPIN_Q_MAX_N}"),
        ],
    )
    def test_bad_q_refused_before_any_basis(self, capsys, monkeypatch, n, q, message):
        from sutwist import spin

        def no_basis(*args, **kwargs):
            raise AssertionError("a spin basis was built")

        for name in ("build_spin_rep", "SubsetBasis", "VectorBasis"):
            monkeypatch.setattr(spin, name, no_basis)
        assert main(["spin-verify", "--n", str(n), f"--q={q}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    def test_one_parser_keeps_no_state_between_calls(self, capsys):
        assert main(["spin-verify", "--n", "3", "--q", "1/4"]) == 0
        capsys.readouterr()
        assert main(["spin-verify", "--n", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert not any("invariant-scalar-map" in item["name"] for item in payload["items"])

    @pytest.mark.parametrize("spelling", [["--q=-1/4"], ["--q", "-1/4"]])
    def test_negative_q_named_in_either_spelling(self, capsys, spelling):
        assert main(["spin-verify", "--n", "3", *spelling]) == 2
        err = capsys.readouterr().err
        assert err == "error: --q must be positive, got -1/4\n"

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
        "entry, message",
        [
            ({**param_entry(), "n": 3.9}, "n must be an integer, got 3.9"),
            ({**param_entry(), "n": 3.0}, "n must be an integer, got 3.0"),
            ({**param_entry(), "n": True}, "n must be an integer, got True"),
            ({**param_entry(), "n": "3"}, "n must be an integer, got '3'"),
            (param_entry(q=0.1), "q must be an integer or a rational string"),
            (param_entry(q="0.1"), "q must be an integer or a rational string"),
            (param_entry(q=True), "q must be an integer or a rational string"),
            (param_entry(taus=(0.5, "0")), "tau entry must be an integer or a rational string"),
            (param_entry(taus=(False, "0")), "tau entry must be an integer or a rational string"),
            ({**param_entry(), "tau": "12"}, "tau must be a JSON list"),
            (
                {**param_entry(), "omega": [[0.0, "0", "0"], ["0", "0", "0"], ["0", "0", "0"]]},
                "omega entry must be an integer or a rational string",
            ),
            ({**param_entry(), "omega": ["000", "000", "000"]}, "omega row must be a JSON list"),
        ],
        ids=[
            "n-float", "n-integral-float", "n-bool", "n-string", "q-float", "q-decimal-string",
            "q-bool", "tau-float", "tau-bool", "tau-string", "omega-float", "omega-row-string",
        ],
    )
    def test_inexact_or_mistyped_value_is_input_error(self, tmp_path, capsys, entry, message):
        path = write_params(tmp_path, [entry])
        assert main(["classify", "--param", path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "entry 0" in err and message in err
        assert "Traceback" not in err

    def test_integer_values_are_accepted(self, tmp_path, capsys):
        entry = {**param_entry(), "tau": [0, 0], "omega": [[0] * 3 for _ in range(3)]}
        assert main(["canonical", "--param", write_params(tmp_path, [entry])]) == 0
        assert json.loads(capsys.readouterr().out)["canonical_forms"][0]["tau"] == ["0/1", "0/1"]

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
