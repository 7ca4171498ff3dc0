"""CLI input text: float flags that are not finite, the curve text A,B, and
the incomplete-gamma grid the lemmas records describe."""

import json

import pytest

from romanoff_lab import lemmas
from romanoff_lab.cli import run
from romanoff_lab.errors import ParameterError
from romanoff_lab.sequences import format_curve, parse_curve, parse_sequence_spec


class TestFiniteFloatFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["sieve", "--x", "inf"],
            ["moments", "--report", "poly", "--poly", "1,1", "--z", "inf"],
            ["extremal", "--M", "1000", "--y", "nan", "--z", "10"],
            ["elliptic", "--curve", "1,1", "--x", "inf"],
            ["romanoff", "--report", "order-sum", "--P", "inf"],
            ["romanoff", "--report", "order-sum", "--P", "nan"],
            ["romanoff", "--report", "order-sum", "--P", "1e400"],
            ["lemmas", "--gamma", "--x-max=-inf"],
        ],
    )
    def test_exit_2_without_traceback(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "is not a finite number" in err
        assert "Traceback" not in err

    def test_text_that_is_no_float_keeps_its_message(self, capsys):
        assert run(["sieve", "--x", "ten"]) == 2
        assert "invalid float value: 'ten'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alphas,entry", [("0.5,,0.4", "''"), ("", "''"), ("0.5,x", "'x'"), ("0.5,nan", "'nan'")]
    )
    def test_alpha_list_names_the_flag_and_the_entry(self, alphas, entry, capsys):
        assert run(["extremal", "--M", "1000", "--alphas", alphas]) == 2
        err = capsys.readouterr().err
        assert "argument --alphas: " in err and entry in err
        assert "Traceback" not in err


class TestCurveText:
    def test_round_trip(self):
        for text in ("1,1", "-41,-35", "0,7"):
            assert format_curve(parse_curve(text)) == text

    @pytest.mark.parametrize("text", ["1,2,3", "1", "1,x", ""])
    def test_malformed(self, text):
        with pytest.raises(ParameterError):
            parse_curve(text)

    @pytest.mark.parametrize("curve", ["1,2,3", "0,0"])
    def test_flag_and_sequence_spec_fail_alike(self, curve, capsys):
        assert run(["elliptic", "--curve", curve, "--x", "100"]) == 2
        flag_err = capsys.readouterr().err
        assert run(["moments", "--seq", f"ecorders:{curve}", "--x", "100"]) == 2
        assert capsys.readouterr().err == flag_err
        with pytest.raises(ParameterError) as exc:
            parse_sequence_spec(f"ecorders:{curve}")
        assert flag_err == f"error: {exc.value}\n"


class TestGammaGridRecord:
    def test_records_describe_the_grid_that_ran(self, tmp_path):
        out = tmp_path / "lemmas.json"
        assert run(["lemmas", "--gamma", "--s-max", "2", "--out", str(out)]) == 0
        for record in json.loads(out.read_text())["records"]:
            params = record["parameters"]
            assert params["x_min"] == lemmas.GAMMA_GRID_X_MIN
            assert params["step"] == lemmas.GAMMA_GRID_STEP
