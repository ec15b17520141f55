import csv
import io
import math

import pytest
from click.testing import CliRunner

from partsel import OptPrimitive, PrivacyParams, pi_opt
from partsel.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def _rows(output: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(output)))


def _write_input(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        f.write("user_id,partition\n")
        for user, part in rows:
            f.write(f"{user},{part}\n")


class TestProbs:
    def test_optimal_curve(self, runner):
        result = runner.invoke(main, ["probs", "--epsilon", "1", "--delta", "1e-5", "--n-max", "25"])
        assert result.exit_code == 0
        rows = _rows(result.output)
        assert [int(r["n"]) for r in rows] == list(range(26))
        probs = [float(r["prob"]) for r in rows]
        assert probs[0] == 0.0
        assert all(b >= a for a, b in zip(probs, probs[1:]))
        assert probs[-1] == 1.0

    def test_optimal_dominates_laplace_pointwise(self, runner):
        args = ["--epsilon", "1", "--delta", "1e-5", "--n-max", "40"]
        opt = _rows(runner.invoke(main, ["probs", *args, "--strategy", "opt"]).output)
        lap = _rows(runner.invoke(main, ["probs", *args, "--strategy", "laplace"]).output)
        for o, l in zip(opt, lap):
            assert float(o["prob"]) >= float(l["prob"]) - 1e-12

    def test_high_privacy_regime_curves(self, runner):
        args = ["--epsilon", "0.1", "--delta", "1e-10", "--n-max", "300"]
        opt = _rows(runner.invoke(main, ["probs", *args]).output)
        lap = _rows(runner.invoke(main, ["probs", *args, "--strategy", "laplace"]).output)
        assert float(opt[300]["prob"]) >= 0.9999
        assert all(float(r["prob"]) < 1.0 for r in lap[150:301])

    def test_gaussian_strategy(self, runner):
        result = runner.invoke(
            main, ["probs", "--epsilon", "1", "--delta", "1e-5", "--strategy", "gauss", "--n-max", "30"]
        )
        assert result.exit_code == 0
        probs = [float(r["prob"]) for r in _rows(result.output)]
        assert probs[0] == 0.0
        assert all(b >= a for a, b in zip(probs, probs[1:]))

    def test_invalid_budget_exits_2(self, runner):
        result = runner.invoke(main, ["probs", "--epsilon", "1", "--delta", "2.0"])
        assert result.exit_code == 2


class TestMidpoints:
    def test_single_point_sweep(self, runner):
        result = runner.invoke(
            main,
            ["midpoints", "--sweep", "eps", "--grid-min", "1", "--grid-max", "1",
             "--points", "1", "--delta", "1e-5"],
        )
        assert result.exit_code == 0
        (row,) = _rows(result.output)
        assert row["lap50"] == "12"
        assert int(row["opt50"]) <= 12
        assert int(row["opt05"]) <= int(row["opt50"]) <= int(row["opt95"])

    def test_optimal_never_behind_laplace(self, runner):
        result = runner.invoke(
            main, ["midpoints", "--sweep", "eps", "--points", "12", "--delta", "1e-5"]
        )
        assert result.exit_code == 0
        for row in _rows(result.output):
            assert int(row["opt50"]) <= int(row["lap50"])

    def test_delta_sweep_gap_is_constant(self, runner):
        result = runner.invoke(
            main, ["midpoints", "--sweep", "delta", "--epsilon", "1", "--points", "10"]
        )
        assert result.exit_code == 0
        rows = _rows(result.output)
        assert rows[0]["del"]
        gaps = [int(r["lap50"]) - int(r["opt50"]) for r in rows]
        assert max(gaps) - min(gaps) <= 1


class TestKappa:
    def test_crossing_shape_and_consistency(self, runner):
        result = runner.invoke(
            main, ["kappa", "--epsilon", "1", "--delta", "1e-5", "--kappa-max", "4"]
        )
        assert result.exit_code == 0
        rows = _rows(result.output)
        assert int(rows[0]["opt_mid"]) < int(rows[0]["gauss_mid"])
        assert int(rows[3]["gauss_mid"]) < int(rows[3]["opt_mid"])
        # the kappa=1 column agrees with the plain midpoint sweep
        single = _rows(
            runner.invoke(
                main,
                ["midpoints", "--sweep", "eps", "--grid-min", "1", "--grid-max", "1",
                 "--points", "1", "--delta", "1e-5"],
            ).output
        )[0]
        assert rows[0]["opt_mid"] == single["opt50"]
        assert rows[0]["lap_mid"] == single["lap50"]


class TestSelect:
    def test_deterministic_output(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        _write_input(data, [(f"u{i}", f"p{i % 20}") for i in range(400)])
        args = ["select", "--input", str(data), "--epsilon", "1", "--delta", "0.05", "--seed", "3"]
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert runner.invoke(main, [*args, "--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, [*args, "--out", str(out2)]).exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes()  # something was selected at this delta

    def test_replace_model_equals_halved_budget(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        _write_input(data, [(f"u{i}", f"p{i % 10}") for i in range(200)])
        common = ["select", "--input", str(data), "--seed", "2"]
        out1, out2 = tmp_path / "r.txt", tmp_path / "h.txt"
        r1 = runner.invoke(
            main, [*common, "--epsilon", "1", "--delta", "0.1",
                   "--neighboring", "replace", "--out", str(out1)]
        )
        r2 = runner.invoke(
            main, [*common, "--epsilon", "0.5", "--delta", "0.05", "--out", str(out2)]
        )
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_release_counts_schema(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        _write_input(data, [(f"u{i}", "big") for i in range(50)])
        result = runner.invoke(
            main,
            ["select", "--input", str(data), "--mode", "release-counts",
             "--epsilon", "1", "--delta", "1e-5", "--seed", "0"],
        )
        assert result.exit_code == 0
        (row,) = _rows(result.output)
        assert row["partition"] == "big"
        assert int(row["noisy_count"]) > 11

    def test_dual_mode(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        _write_input(data, [("u1", "present")])
        public = tmp_path / "public.txt"
        public.write_text("known-a\nknown-b\n", encoding="utf-8")
        result = runner.invoke(
            main,
            ["select", "--input", str(data), "--mode", "dual", "--epsilon", "1",
             "--delta", "1e-5", "--seed", "0", "--public-file", str(public),
             "--public-threshold", "0"],
        )
        assert result.exit_code == 0
        for row in _rows(result.output):
            assert row["partition"] in {"present", "known-a", "known-b"}

    def test_strict_violation_exits_3(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        _write_input(data, [("u1", "a"), ("u1", "b")])
        result = runner.invoke(
            main, ["select", "--input", str(data), "--epsilon", "1", "--delta", "1e-5"]
        )
        assert result.exit_code == 3
        assert "u1" in result.output

    def test_first_wins_accepts_conflicts(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        _write_input(data, [("u1", "a"), ("u1", "b")])
        result = runner.invoke(
            main,
            ["select", "--input", str(data), "--epsilon", "1", "--delta", "0.9",
             "--conflict", "first-wins"],
        )
        assert result.exit_code == 0

    def test_malformed_input_exits_2(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        for body, line in (
            ("u1,a\nu2\n", 3),
            ('u1,a\nu2,"unterminated', 3),
            ('u1,"a"b\n', 2),
            ("u1," + "x" * 131_073 + "\n", 2),
        ):
            data.write_text("user_id,partition\n" + body, encoding="utf-8")
            result = runner.invoke(
                main, ["select", "--input", str(data), "--epsilon", "1", "--delta", "1e-5"]
            )
            assert result.exit_code == 2
            assert f"line {line}:" in result.output

    def test_dual_without_public_config_exits_2(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        _write_input(data, [("u1", "a")])
        result = runner.invoke(
            main,
            ["select", "--input", str(data), "--mode", "dual", "--epsilon", "1", "--delta", "1e-5"],
        )
        assert result.exit_code == 2

    def test_dual_flags_outside_dual_mode_exit_2(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        _write_input(data, [("u1", "a")])
        public = tmp_path / "public.txt"
        public.write_text("a\n", encoding="utf-8")
        for mode in ("select", "release-counts"):
            for flag in (["--public-file", str(public)], ["--public-threshold", "0"]):
                result = runner.invoke(
                    main,
                    ["select", "--input", str(data), "--mode", mode, "--epsilon", "1",
                     "--delta", "1e-5", *flag],
                )
                assert result.exit_code == 2
                assert "--mode dual" in result.output

    def test_kappa_divides_budget_and_relaxes_bound(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        _write_input(data, [("u1", "a"), ("u1", "b"), ("u2", "a")])
        result = runner.invoke(
            main,
            ["select", "--input", str(data), "--epsilon", "2", "--delta", "0.2",
             "--kappa", "2", "--seed", "1"],
        )
        assert result.exit_code == 0


class TestBench:
    def test_reports_timings(self, runner):
        result = runner.invoke(main, ["bench", "--iterations", "20000"])
        assert result.exit_code == 0
        assert "ns/op" in result.output
        assert "scalar" in result.output
