import ast
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import partsel
from partsel import (
    LaplacePrimitive,
    OptPrimitive,
    PrivacyParams,
    cli,
    percentile_n,
    pi_laplace,
    pi_opt,
    pipeline,
)
from partsel.cli import _geomspace, _parser, main
from partsel.params import RELEASE_MODES, IngestMode


def _rows(output: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(output)))


def _write_input(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        f.write("user_id,partition\n")
        for user, part in rows:
            f.write(f"{user},{part}\n")


def _python(args: list[str], stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """A child interpreter that imports this ``partsel``, run on ``args`` with
    stderr captured as bytes.

    The child runs without ``site`` (``python -S``), and ``PYTHONPATH`` names
    only the directory of this ``partsel``. So site-packages is off its path,
    and it runs on the standard library alone: a third-party import fails it.
    Its stdout is block-buffered (``PYTHONUNBUFFERED`` is dropped), so a short
    output is written only by the flush at the end of the process.
    """
    src = str(Path(partsel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-S", *args], env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=120, check=False
    )


def _modules_after(packages: list[str], argvs: list[list[str]]) -> list[str]:
    """The modules of ``packages`` loaded after running ``partsel.cli.main`` on
    each argv, one after another in a fresh interpreter."""
    script = (
        "import json, sys\n"
        "assert sys.flags.no_site\n"
        "import partsel\n"
        "packages = json.loads(sys.argv[2])\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    from partsel.cli import main  # in the loop: with no argv, nothing but partsel loads\n"
        "    try:\n"
        "        code = main(argv)\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "    if code:\n"
        "        sys.exit(f'{argv} exited {code}')\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in packages)))\n"
    )
    proc = _python(["-c", script, json.dumps(argvs), json.dumps(packages)])
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.splitlines()[-1])


def _select_argvs(tmp_path) -> list[list[str]]:
    """`--help` and one `select` run in each mode, on small inputs under ``tmp_path``.

    The count mode also runs at a budget whose noise bound k is 8.5 million,
    and dual mode at kappa 3 under first-wins on users with 4 or 5
    partitions, so ingest fills slots 2 and 3 and drops rows.
    """
    data, multi = tmp_path / "rows.csv", tmp_path / "multi.csv"
    _write_input(data, [(f"u{i}", f"p{i % 5}") for i in range(50)])
    _write_input(multi, [(f"u{i % 97}", f"p{i * 7 % 13}") for i in range(400)])
    public = tmp_path / "public.txt"
    public.write_text("p1\nabsent\n", encoding="utf-8")
    out = ["--out", str(tmp_path / "out")]
    run = ["select", "--input", str(data), *out]
    common = [*run, "--epsilon", "1", "--delta", "0.05"]
    dual = ["--mode", "dual", "--public-file", str(public), "--public-threshold", "0"]
    return [
        ["--help"],
        common,
        [*common, "--mode", "release-counts"],
        [*common, *dual],
        [*run, "--mode", "release-counts", "--epsilon", "1e-6", "--delta", "1e-10"],
        ["select", "--input", str(multi), *out, "--epsilon", "1", "--delta", "0.05",
         "--kappa", "3", "--conflict", "first-wins", *dual],
    ]


def _table_argvs(tmp_path) -> list[list[str]]:
    """`probs` with each strategy, `midpoints` with each sweep and `kappa`, writing under ``tmp_path``.

    Among them are a one-point sweep, kappa 1 under replace, and a Laplace
    table at epsilon 1e-307: probs computes no search bound, so an epsilon
    whose bound 64 / epsilon overflows still tabulates when --n-max sets the
    table's size.
    """
    out = ["--out", str(tmp_path / "out")]
    budget = ["--epsilon", "1", "--delta", "1e-5"]
    return [
        *(["probs", *budget, "--strategy", s, *out] for s in ("opt", "laplace", "gauss")),
        ["probs", "--strategy", "laplace", "--epsilon", "1e-307", "--delta", "1e-5", "--n-max", "3", *out],
        ["midpoints", "--sweep", "eps", "--points", "3", *out],
        ["midpoints", "--sweep", "delta", "--points", "3", *out],
        ["midpoints", "--sweep", "delta", "--points", "1", *out],
        ["kappa", *budget, "--kappa-max", "2", *out],
        ["kappa", *budget, "--kappa-max", "1", "--neighboring", "replace", *out],
    ]


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
        for argv in (
            ["--epsilon", "1", "--delta", "2.0"],
            # An infinite Laplace threshold.
            ["--strategy", "laplace", "--epsilon", "5e-324", "--delta", "1e-5", "--n-max", "5"],
            # A default table past the row limit, which would otherwise not end.
            ["--epsilon", "1e-300", "--delta", "1e-300"],
        ):
            result = runner.invoke(main, ["probs", *argv])
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

    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.floats(1e-15, 100.0),
        hi=st.floats(1e-15, 100.0),
        points=st.integers(1, 300),
        same_ends=st.booleans(),
    )
    @example(lo=99.9940182376353, hi=1e-15, points=14, same_ends=False)
    @example(lo=1.3042583637612347e-08, hi=2.3864599441572465, points=102, same_ends=False)
    def test_grid_follows_numpy_geomspace(self, lo, hi, points, same_ends):
        # numpy.geomspace's steps, with the logs taken by math.log10: numpy's
        # SIMD log10 can differ from libm's by 1 ulp, which the power step
        # amplifies to tens of ulps (73 against np.geomspace at the second
        # example). Given the same logs, only the power may round differently.
        hi = lo if same_ends else hi
        grid = _geomspace(lo, hi, points)
        assert len(grid) == points
        assert grid[0] == lo and grid[-1] == (hi if points > 1 else lo)
        expected = np.power(10.0, np.linspace(math.log10(lo), math.log10(hi), points))
        expected[0] = lo
        expected[-1] = hi if points > 1 else lo
        for got, want in zip(grid, expected.tolist()):
            assert abs(got - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize(
        ("sweep", "lo", "hi", "budget"),
        [
            ("eps", 0.01, 3.0, lambda e: PrivacyParams(e, 1e-5)),
            ("delta", 1e-12, 1e-3, lambda d: PrivacyParams(1.0, d)),
        ],
    )
    def test_default_table_equals_library_rows_on_numpy_grid(self, runner, sweep, lo, hi, budget):
        # The comparison the benchmark makes on its budget-sweep workload.
        def row(value: float) -> list:
            params = budget(value)
            prim = OptPrimitive.from_params(params)
            lap = LaplacePrimitive.from_params(params)
            lap_upper = math.ceil(lap.threshold) + math.ceil(64.0 / lap.epsilon)
            return [format(value, ".12g")] + [
                percentile_n(lambda n: pi_opt(prim, n), q, upper=prim.n2 + 1)
                for q in (0.05, 0.5, 0.95)
            ] + [
                percentile_n(lambda n: pi_laplace(lap, n), q, upper=lap_upper)
                for q in (0.05, 0.5, 0.95)
            ]

        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["eps" if sweep == "eps" else "del", "opt05", "opt50", "opt95", "lap05", "lap50", "lap95"])
        writer.writerows(row(float(v)) for v in np.geomspace(lo, hi, 64))
        result = runner.invoke(main, ["midpoints", "--sweep", sweep])
        assert result.exit_code == 0
        assert result.output == expected.getvalue()

    def test_non_positive_grid_exits_2(self, runner):
        for bound in (["--grid-min", "0"], ["--grid-max", "-1"], ["--grid-min", "nan"]):
            result = runner.invoke(main, ["midpoints", "--sweep", "eps", *bound])
            assert result.exit_code == 2
            assert "must be > 0" in result.output


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

    def test_gaussian_baseline_loads_only_scipy_special(self, tmp_path):
        # The Gaussian baseline runs on the standard library: not even scipy.special loads.
        out = ["--out", str(tmp_path / "out")]
        budget = ["--epsilon", "1", "--delta", "1e-5"]
        argvs = [
            ["kappa", *budget, "--kappa-max", "2", *out],
            ["probs", *budget, "--strategy", "gauss", *out],
        ]
        assert _modules_after(["numpy", "scipy"], argvs) == []


def test_each_curve_is_built_at_one_call_site():
    # probs, midpoints and kappa build every strategy's primitive and keep
    # probability through one helper, so each constructor is called once.
    source = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    constructors = {"OptPrimitive", "LaplacePrimitive", "gaussian_primitive"}
    called = Counter(
        getattr(part, "id", None) or getattr(part, "attr", None)
        for call in ast.walk(source)
        if isinstance(call, ast.Call)
        for part in ast.walk(call.func)
    )
    assert {name: called[name] for name in constructors} == dict.fromkeys(constructors, 1)


# sha256 of the sweep tables as the CLI writes them. The tables compare the
# optimal curve with the Laplace and Gaussian baselines; a change to any
# float operation behind them shows here. probs --strategy gauss is left out:
# its 7th digit moves with ulp-level differences between libm builds.
SWEEP_TABLE_SHA256 = [
    pytest.param(
        ["midpoints", "--sweep", "eps"],
        "d0149089c40b35d1e610b4bb77a3397de6e1375ec45d54d33f0c243430febdf8",
        id="midpoints-eps",
    ),
    pytest.param(
        ["midpoints", "--sweep", "delta"],
        "1a87e068d1980d58ea0c8a34a895883bd7231b22860806bd2e672146a42265fc",
        id="midpoints-delta",
    ),
    pytest.param(
        ["kappa", "--epsilon", "1", "--delta", "1e-5", "--kappa-max", "7"],
        "c71fb0090492901dfc79599f3d2edfec8d54d4e1e49c98161b6d9ae2129f7ce2",
        id="kappa-1-1e-5-7",
    ),
    pytest.param(
        ["kappa", "--epsilon", "0.1", "--delta", "1e-10", "--kappa-max", "10"],
        "bad3ef3e56f35b7647516b33cd418b033c6db4890fad25102cf91407847882d1",
        id="kappa-0.1-1e-10-10",
    ),
]


@pytest.mark.parametrize(("argv", "sha256"), SWEEP_TABLE_SHA256)
def test_sweep_tables_are_pinned(runner, tmp_path, argv, sha256):
    out = tmp_path / "table.csv"
    assert runner.invoke(main, [*argv, "--out", str(out)]).exit_code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


def _pinned_rows(spread: bool) -> list[tuple[str, str]]:
    """3,000 users on 55 partitions, every fifth user's row twice, in a fixed scrambled order.

    Partition ``p<h>`` holds the users u with isqrt(u) = h, so the counts
    run from 1 to 107; every seventh key has a comma in it. With ``spread``,
    every third user also touches one to four neighbouring partitions.
    """
    rows = []
    for u in range(3000):
        home = math.isqrt(u)
        key = f"p{home}" if home % 7 else f"p{home},x"
        rows.append((f"u{u}", key))
        if u % 5 == 0:
            rows.append((f"u{u}", key))
        if spread and u % 3 == 0:
            rows += [(f"u{u}", f"p{(home + j) % 55}") for j in range(1, 2 + u % 5)]
    order = sorted(range(len(rows)), key=lambda i: hashlib.sha256(b"%d" % i).digest())
    return [rows[i] for i in order]


# sha256 of select's output in each mode. kappa 2 and 3 under first-wins
# drop 2,000 and 1,200 of the spread input's 6,600 rows; 600 rows repeat a pair.
# Select mode writes its 7 kept keys with a comma, "p7,x" to "p49,x", quoted.
SELECT_OUTPUT_SHA256 = [
    pytest.param(
        False, ["--mode", "select"],
        "e29dd24575459d9569fff1e3c2a07cd496a7a55920b66b6de2f8347bb1ede47a",
        id="select-strict-kappa1",
    ),
    pytest.param(
        True, ["--mode", "release-counts", "--kappa", "2", "--conflict", "first-wins"],
        "491518b9ec1342e0075d08bd70bf941a019942d8976cec22ccf97e25d7e3d72b",
        id="release-counts-first-wins-kappa2",
    ),
    pytest.param(
        True, ["--mode", "dual", "--kappa", "3", "--conflict", "first-wins",
               "--public-file", "{public}", "--public-threshold", "0"],
        "e5acd9c872f39d4f4a0049b0265c602e9bf1656a419addeed9ef14ab2f3d561a",
        id="dual-first-wins-kappa3",
    ),
]


@pytest.mark.parametrize(("spread", "argv", "sha256"), SELECT_OUTPUT_SHA256)
def test_select_outputs_are_pinned(runner, tmp_path, spread, argv, sha256):
    data = tmp_path / "rows.csv"
    with open(data, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["user_id", "partition"])
        writer.writerows(_pinned_rows(spread))
    public = tmp_path / "public.txt"
    public.write_text(
        "".join(f"p{i}\n" for i in range(0, 60, 3)) + "".join(f"absent{i}\n" for i in range(30)),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    argv = [arg.format(public=public) for arg in argv]
    result = runner.invoke(
        main,
        ["select", "--input", str(data), *argv, "--epsilon", "1", "--delta", "1e-5",
         "--seed", "5", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


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

    def test_one_user_with_a_line_break_key_leaves_the_run_standing(self, runner, tmp_path):
        # Adding u3's valid row must not turn a release into a refusal; the key
        # decisions are per key, so "a" is decided the same in both runs.
        outputs = []
        for n, extra in enumerate(["", 'u3,"x\ny"\n']):
            data, out = tmp_path / f"rows{n}.csv", tmp_path / f"keys{n}.csv"
            data.write_text("user_id,partition\nu1,a\nu2,a\n" + extra, encoding="utf-8", newline="")
            result = runner.invoke(
                main,
                ["select", "--input", str(data), "--epsilon", "1", "--delta", "1e-5",
                 "--seed", "0", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            with open(out, newline="", encoding="utf-8") as f:
                outputs.append(list(csv.reader(f)))
        assert set(map(tuple, outputs[0])) <= {("a",)}
        assert [row for row in outputs[1] if row != ["x\ny"]] == outputs[0]

    @pytest.mark.parametrize("mode", ["select", "release-counts", "dual"])
    def test_count_modes_round_trip_keys_with_line_breaks(self, runner, tmp_path, mode):
        # csv's minimal quoting leaves a lone CR bare, and a reader splits the row there.
        keys = ["a\nb", "a\r\nb", "a\rb", "\r", "plain"]
        data = tmp_path / "rows.csv"
        with open(data, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n", quoting=csv.QUOTE_ALL)
            writer.writerow(["user_id", "partition"])
            writer.writerows((f"u{k}-{i}", key) for k, key in enumerate(keys) for i in range(40))
        public = tmp_path / "public.txt"
        public.write_text("known\n", encoding="utf-8")
        counts = tmp_path / "counts.csv"
        argv = ["select", "--input", str(data), "--mode", mode, "--epsilon", "5", "--delta", "0.1",
                "--out", str(counts)]
        if mode == "dual":
            argv += ["--public-file", str(public), "--public-threshold", "0"]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        with open(counts, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
        if mode == "select":
            # 40 users put each key past every threshold at (5, 0.1), so every key is kept.
            assert rows == [[key] for key in sorted(keys)]
        else:
            header, *rows = rows
            assert header == ["partition", "noisy_count"]
            assert all(len(row) == 2 and int(row[1]) > 0 for row in rows)
            assert set(keys) <= {row[0] for row in rows} <= {*keys, "known"}

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

    @pytest.mark.parametrize(
        ("bad_line", "eol"), [(3, b"\n"), (5000, b"\n"), (3, b"\r")], ids=["lf-3", "lf-5000", "cr-3"]
    )
    def test_non_utf8_input_names_file_and_line(self, runner, tmp_path, bad_line, eol):
        # Line 5000 lies past the first chunk the text layer decodes.
        data = tmp_path / "rows.csv"
        lines = [b"user_id,partition", *(b"u%d,p" % i for i in range(2, bad_line)), b"u0,b\xff", b"u1,c"]
        data.write_bytes(eol.join(lines) + eol)
        result = runner.invoke(
            main, ["select", "--input", str(data), "--epsilon", "1", "--delta", "1e-5"]
        )
        assert result.exit_code == 2
        assert f"line {bad_line}:" in result.output
        assert str(data) in result.output

    def test_non_utf8_public_file_fails_before_ingest(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        # This input breaks strict mode (exit 3) once ingested.
        _write_input(data, [("u1", "a"), ("u1", "b")])
        public = tmp_path / "public.txt"
        public.write_bytes(b"known-a\nknown-\xffb\n")
        result = runner.invoke(
            main,
            ["select", "--input", str(data), "--mode", "dual", "--epsilon", "1",
             "--delta", "1e-5", "--public-file", str(public), "--public-threshold", "0"],
        )
        assert result.exit_code == 2
        assert "line 2:" in result.output
        assert str(public) in result.output

    def test_public_file_with_byte_order_mark_fails_before_ingest(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        # This input breaks strict mode (exit 3) once ingested.
        _write_input(data, [("u1", "k1"), ("u1", "k2")])
        public = tmp_path / "public.txt"
        # Read as text, the mark would stay on the first key: '\ufeffk1', not 'k1'.
        public.write_bytes(b"\xef\xbb\xbfk1\nk2\n")
        result = runner.invoke(
            main,
            ["select", "--input", str(data), "--mode", "dual", "--epsilon", "1",
             "--delta", "1e-5", "--public-file", str(public), "--public-threshold", "0"],
        )
        assert result.exit_code == 2
        assert "line 1:" in result.output
        assert "byte-order mark" in result.output
        assert str(public) in result.output

    def test_dual_without_public_config_exits_2(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        # The second input breaks strict mode (exit 3): the flags are checked before it is read.
        for rows in ([("u1", "a")], [("u1", "a"), ("u1", "b")]):
            _write_input(data, rows)
            result = runner.invoke(
                main,
                ["select", "--input", str(data), "--mode", "dual", "--epsilon", "1", "--delta", "1e-5"],
            )
            assert result.exit_code == 2
            assert "dual mode requires" in result.output

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--seed", "-1"], "seed must be an integer in [0, 2^64), got -1"),
            (["--seed", str(2**64)], f"seed must be an integer in [0, 2^64), got {2**64}"),
            (["--mode", "dual", "--public-threshold", "99"],
             "public threshold must be an integer in [-k, k] = [-11, 11], got 99"),
            (["--mode", "release-counts", "--delta", "1"],
             "effective delta must be in (0, 1), got 1.0"),
            # 1 - p rounds to 1 at these budgets: no noise distribution exists.
            (["--mode", "release-counts", "--epsilon", "1e-17"],
             "effective epsilon 1e-17 too small to represent the noise distribution in binary64"),
            (["--mode", "dual", "--public-threshold", "0", "--epsilon", "3e-17", "--kappa", "3"],
             "effective epsilon 9.999999999999999e-18 too small to represent the noise "
             "distribution in binary64"),
            # Both ends subnormal: the crossover counts overflow binary64.
            (["--epsilon", "5e-324", "--delta", "5e-324"],
             "effective budget (epsilon 5e-324, delta 5e-324) too small: the crossover counts "
             "of the optimal primitive overflow binary64"),
            # Below one step of the uniform grid, 2^-53 (about 1.11e-16), in every mode.
            (["--delta", "1e-17"], "effective delta 1e-17 too small: below 2^-53, one step of the uniform grid"),
            (["--delta", "0"], "effective delta 0.0 too small: below 2^-53, one step of the uniform grid"),
            (["--mode", "release-counts", "--delta", "1e-16"],
             "effective delta 1e-16 too small: below 2^-53, one step of the uniform grid"),
        ],
        ids=["negative-seed", "seed-2^64", "public-threshold-past-k", "count-mode-delta-1",
             "count-mode-epsilon-1e-17", "dual-epsilon-3e-17-kappa-3", "select-subnormal-budget",
             "select-delta-1e-17", "select-delta-0", "count-mode-delta-1e-16"],
    )
    def test_release_values_are_checked_before_ingest(self, runner, tmp_path, flags, message):
        data = tmp_path / "rows.csv"
        # This input breaks strict mode (exit 3) once ingested.
        _write_input(data, [("u1", "k1"), ("u1", "k2")])
        public = tmp_path / "public.txt"
        public.write_text("k1\n", encoding="utf-8")
        argv = ["select", "--input", str(data), "--epsilon", "1", "--delta", "1e-5", *flags]
        if "dual" in flags:
            argv += ["--public-file", str(public)]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2
        assert result.output == f"error: {message}\n"

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
                assert "only to dual mode" in result.output

    def test_kappa_divides_budget_and_relaxes_bound(self, runner, tmp_path):
        data = tmp_path / "rows.csv"
        _write_input(data, [("u1", "a"), ("u1", "b"), ("u2", "a")])
        result = runner.invoke(
            main,
            ["select", "--input", str(data), "--epsilon", "2", "--delta", "0.2",
             "--kappa", "2", "--seed", "1"],
        )
        assert result.exit_code == 0


class TestUsageErrors:
    """Malformed command lines exit 2 and name the offending option."""

    @pytest.mark.parametrize(
        ("argv", "named"),
        [
            (["--input", "{tmp}/missing.csv", "--epsilon", "1", "--delta", "1e-5"], "--input"),
            (["--input", "{tmp}", "--epsilon", "1", "--delta", "1e-5"], "--input"),
            (["--input", "{data}", "--mode", "dual", "--public-file", "{tmp}/missing.txt",
              "--public-threshold", "0", "--epsilon", "1", "--delta", "1e-5"], "--public-file"),
            (["--input", "{data}", "--mode", "counts", "--epsilon", "1", "--delta", "1e-5"], "--mode"),
            (["--input", "{data}", "--delta", "1e-5"], "--epsilon"),
            (["--input", "{data}", "--epsilon", "1", "--delta", "tiny"], "--delta"),
        ],
        ids=["missing-input", "directory-input", "missing-public-file", "unknown-mode",
             "missing-epsilon", "non-numeric-delta"],
    )
    def test_select_usage_error_exits_2(self, runner, tmp_path, argv, named):
        data = tmp_path / "rows.csv"
        _write_input(data, [("u1", "a")])
        argv = [arg.format(tmp=tmp_path, data=data) for arg in argv]
        result = runner.invoke(main, ["select", *argv])
        assert result.exit_code == 2
        assert named in result.output

    @pytest.mark.parametrize("command", ["select", "midpoints"])
    @pytest.mark.parametrize(
        "out", ["{tmp}", "{tmp}/missing/out.txt", ""], ids=["directory", "missing-parent", "empty"]
    )
    def test_unopenable_out_exits_2_before_any_work(self, runner, tmp_path, command, out):
        data = tmp_path / "rows.csv"
        # This input breaks strict mode (exit 3) once ingested.
        _write_input(data, [("u1", "a"), ("u1", "b")])
        argv = {
            "select": ["select", "--input", str(data), "--epsilon", "1", "--delta", "1e-5"],
            "midpoints": ["midpoints", "--sweep", "eps", "--points", "3"],
        }[command]
        result = runner.invoke(main, [*argv, "--out", out.format(tmp=tmp_path)])
        assert result.exit_code == 2
        assert "argument --out" in result.output
        assert not (tmp_path / "missing").exists()

    def test_conflict_and_mode_choices_are_the_params_definitions(self):
        (commands,) = _parser()._subparsers._group_actions
        choices = {action.dest: action.choices for action in commands.choices["select"]._actions}
        assert choices["conflict"] == [m.value for m in IngestMode]
        assert choices["mode"] is RELEASE_MODES
        assert partsel.IngestMode is pipeline.IngestMode is IngestMode
        # No name is spelled out in cli.py ("select" is also the command's name).
        names = {m.value for m in IngestMode} | set(RELEASE_MODES) - {"select"}
        source = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        assert names.isdisjoint(node.value for node in ast.walk(source) if isinstance(node, ast.Constant))


# A generated `select` run: mostly well-formed rows and arguments, with quoted
# keys, keys with line breaks, CR/LF mixes, malformed CSV, NUL, byte-order
# marks, invalid UTF-8, strict violations and extreme budgets among them.
_ONE_IN_EIGHT = st.sampled_from([False] * 7 + [True])


def _mostly(common: list, rare: list) -> st.SearchStrategy:
    """One of ``common`` seven times in eight, else one of ``rare``."""
    return _ONE_IN_EIGHT.flatmap(lambda rarely: st.sampled_from(rare if rarely else common))


_ROW = st.builds(
    lambda user, key: user + b"," + key,
    st.sampled_from([b"u1", b"u2", b"u3", b"u4", b'"u,5"']),
    _mostly([b"k1", b"k2", b"k3"], [b'"k""4"', b'"k\r\n5"', b"\xc3\xa9"]),
)
_JUNK = st.sampled_from(
    [b'"', b'u1,"k1', b'u1,k"1', b"u1", b"u1,k1,x", b",k1", b"u1,", b"\x00", b"u\x001,k1",
     b"\xff\xfe", b"\xc3", b"\xef\xbb\xbfu1,k1"]
)
_LINE = st.tuples(
    _ONE_IN_EIGHT.flatmap(lambda junk: _JUNK if junk else _ROW), st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\n"])
)
_BODY = st.builds(
    lambda header, lines: header + b"".join(line + eol for line, eol in lines),
    _mostly(
        [b"user_id,partition\n", b"user_id,partition\r\n"],
        [b"\xef\xbb\xbfuser_id,partition\n", b"user,partition\n", b""],
    ),
    st.lists(_LINE, max_size=10),
)
_PUBLIC = st.builds(
    b"".join,
    st.lists(_mostly([b"k1\n", b"k2\r\n", b"absent\n", b"\n"], [b"\xef\xbb\xbfk1\n", b"\xff\n"]), max_size=4),
)


# Option values of a generated `select` run: the common ones, and the rare
# ones, extreme or invalid, of which a run takes at most two.
_COMMON = {
    "epsilon": ["1", "0.5", "3"],
    "delta": ["1e-5", "0.1"],
    "kappa": [None, "2", "3"],
    "seed": [None, "7"],
    "public-threshold": ["0", "1"],
}
_RARE = {
    "epsilon": ["0", "-1", "1e-17", "2e-16", "1e-300", "5e-324", "37", "40", "1e300", "inf", "nan"],
    "delta": ["0", "1", "1e-300", "1e-310", "5e-324", "-1e-9", "2", "nan"],
    "kappa": ["0", "-1", "1000000"],
    "seed": ["-1", str(2**64), str(2**200)],
    "public-threshold": ["-3", "99", str(-(10**7))],
}


@st.composite
def _select_args(draw) -> tuple[list[str], bytes | None]:
    """The options of a `select` run, and its public file's bytes or None.

    Each option is written --flag=value, so that argparse takes a value such
    as "-1e-9" for a value and not for an option.
    """
    rare = draw(st.sets(st.sampled_from(sorted(_RARE)), max_size=2))
    options = {name: draw(st.sampled_from((_RARE if name in rare else _COMMON)[name])) for name in _COMMON}
    options["mode"] = mode = draw(st.sampled_from(["select", "release-counts", "dual"]))
    options["conflict"] = draw(st.sampled_from([None, "first-wins"]))
    options["neighboring"] = draw(st.sampled_from([None, "replace"]))
    # One run in eight has the dual flags where they do not belong, or lacks them.
    dual = (mode == "dual") != draw(_ONE_IN_EIGHT)
    if not dual:
        del options["public-threshold"]
    public = draw(_PUBLIC) if dual and not draw(_ONE_IN_EIGHT) else None
    return [f"--{flag}={value}" for flag, value in options.items() if value is not None], public


# Option values of a generated `probs`, `midpoints` or `kappa` run, by the
# same rule. --n-max, --points and --kappa-max stay small, so no table is long.
_TABLE_COMMON = {
    "epsilon": _COMMON["epsilon"],
    "delta": _COMMON["delta"],
    "n-max": ["0", "5", "12"],
    "kappa": [None, "2", "3"],
    "points": ["1", "2", "3"],
    "grid-min": [None, "0.1"],
    "grid-max": [None, "2"],
    "kappa-max": ["1", "2", "3"],
}
_TABLE_RARE = {
    "epsilon": _RARE["epsilon"],
    "delta": _RARE["delta"],
    "n-max": ["-1"],
    "kappa": _RARE["kappa"],
    "points": ["0", "-1"],
    "grid-min": ["0", "-1", "5e-324", "1e-300", "1e300", "inf", "nan"],
    "grid-max": ["0", "-1", "5e-324", "1e-300", "1e300", "inf", "nan"],
    "kappa-max": ["0", "-1"],
}
_TABLE_OPTIONS = {
    "probs": ("epsilon", "delta", "n-max", "kappa"),
    "midpoints": ("epsilon", "delta", "points", "grid-min", "grid-max"),
    "kappa": ("epsilon", "delta", "kappa-max"),
}


@st.composite
def _table_argv(draw) -> list[str]:
    """The command and options of a `probs`, `midpoints` or `kappa` run."""
    command = draw(st.sampled_from(sorted(_TABLE_OPTIONS)))
    names = _TABLE_OPTIONS[command]
    rare = draw(st.sets(st.sampled_from(names), max_size=2))
    options = {name: draw(st.sampled_from((_TABLE_RARE if name in rare else _TABLE_COMMON)[name])) for name in names}
    if command == "probs":
        options["strategy"] = draw(st.sampled_from(["opt", "laplace", "gauss"]))
    if command == "midpoints":
        options["sweep"] = draw(st.sampled_from(["eps", "delta"]))
    options["neighboring"] = draw(st.sampled_from([None, "replace"]))
    return [command, *(f"--{flag}={value}" for flag, value in options.items() if value is not None)]


def _exit_and_output(argv: list[str], out: str) -> int:
    """``main(argv)``'s exit status, after checking what the run left: a failure
    writes stderr starting ``error:`` and no ``out``, a success ``out`` and no stderr."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", out])
    if code:
        assert stderr.getvalue().startswith("error:")
        assert not os.path.exists(out)
    else:
        assert stderr.getvalue() == ""
        assert os.path.exists(out)
    return code


# The rows of a valid input, and of one more user: any keys, quoted or not,
# with commas, quotes and line breaks among them.
_VALID_KEY = st.sampled_from(["k1", "k2", "a,b", 'q"2', "x\ny", "a\r\nb", "a\rb", "\u2028"])
_VALID_ROWS = st.lists(st.tuples(st.sampled_from(["u1", "u2", "u3", "u,4"]), _VALID_KEY), max_size=12)
_ONE_USER_KEYS = st.lists(_VALID_KEY, min_size=1, max_size=4)


class TestExitStatus:
    """Whatever the input, public file and arguments, `select` exits 0, 2 or 3,
    and `probs`, `midpoints` and `kappa` exit 0 or 2."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=_VALID_ROWS,
        keys=_ONE_USER_KEYS,
        mode=st.sampled_from(["select", "release-counts", "dual"]),
        budget=st.sampled_from([("1", "1e-5"), ("5", "0.1")]),
        kappa=st.sampled_from(["1", "3"]),
    )
    @example(rows=[("u1", "a"), ("u2", "a")], keys=["x\ny"], mode="select", budget=("1", "1e-5"), kappa="1")
    def test_one_more_user_never_makes_a_run_fail(self, rows, keys, mode, budget, kappa):
        # Whether a release exists at all must not depend on one user's rows,
        # so under first-wins, which never refuses a user, both runs exit 0.
        with tempfile.TemporaryDirectory() as tmp:
            public = os.path.join(tmp, "public.txt")
            Path(public).write_text("k1\nabsent\n", encoding="utf-8")
            argv = ["select", f"--mode={mode}", f"--epsilon={budget[0]}", f"--delta={budget[1]}",
                    f"--kappa={kappa}", "--conflict=first-wins"]
            if mode == "dual":
                argv += [f"--public-file={public}", "--public-threshold=0"]
            for n, body in enumerate([rows, rows + [("u-new", key) for key in keys]]):
                data = os.path.join(tmp, f"rows{n}.csv")
                with open(data, "w", encoding="utf-8", newline="") as f:
                    writer = csv.writer(f, lineterminator="\n", quoting=csv.QUOTE_ALL)
                    writer.writerow(["user_id", "partition"])
                    writer.writerows(body)
                assert _exit_and_output([*argv, "--input", data], os.path.join(tmp, f"out{n}")) == 0

    @settings(max_examples=150, deadline=None)
    @given(body=_BODY, args=_select_args())
    @example(
        body=b"user_id,partition\nu1,k1\n",
        args=(["--mode=release-counts", "--epsilon=1e-17", "--delta=1e-5"], None),
    )
    # Crossover counts past binary64; the input breaks strict mode (exit 3) once read.
    @example(body=b"user_id,partition\nu1,k1\nu1,k2\n", args=(["--epsilon=5e-324", "--delta=5e-324"], None))
    @example(body=b"user_id,partition\nu1,k1\n", args=(["--epsilon=1e-310", "--delta=1e-310"], None))
    def test_exit_is_0_2_or_3_and_a_failure_writes_nothing(self, body, args):
        options, public = args
        with tempfile.TemporaryDirectory() as tmp:
            data, out = os.path.join(tmp, "rows.csv"), os.path.join(tmp, "out")
            Path(data).write_bytes(body)
            argv = ["select", "--input", data, *options]
            if public is not None:
                Path(tmp, "public.txt").write_bytes(public)
                argv.append(f"--public-file={os.path.join(tmp, 'public.txt')}")
            assert _exit_and_output(argv, out) in (0, 2, 3)

    @settings(max_examples=150, deadline=None)
    @given(argv=_table_argv())
    # Budgets that binary64 cannot carry: an infinite crossover, Laplace
    # threshold or search bound.
    @example(argv=["probs", "--strategy=laplace", "--epsilon=5e-324", "--delta=1e-5", "--n-max=5"])
    @example(argv=["probs", "--epsilon=5e-324", "--delta=5e-324", "--n-max=5"])
    @example(argv=["kappa", "--epsilon=5e-324", "--delta=1e-5"])
    @example(argv=["kappa", "--epsilon=1e-310", "--delta=0.5", "--kappa-max=1"])
    @example(argv=["midpoints", "--sweep=delta", "--epsilon=5e-324"])
    # Default probs tables that would not end.
    @example(argv=["probs", "--epsilon=1e-300", "--delta=1e-300"])
    @example(argv=["probs", "--strategy=laplace", "--epsilon=1e-300", "--delta=1e-5"])
    @example(argv=["probs", "--strategy=laplace", "--epsilon=1e-10", "--delta=1e-5"])
    def test_tables_exit_0_or_2_and_a_failure_writes_nothing(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            assert _exit_and_output(argv, os.path.join(tmp, "out")) in (0, 2)


class TestImports:
    """Each command loads only the modules it needs."""

    def test_no_command_loads_a_heavy_module(self, tmp_path):
        # dataclasses loads inspect, ast, dis and tokenize; click, numpy and
        # scipy are not runtime dependencies at all.
        argvs = [*_select_argvs(tmp_path), *_table_argvs(tmp_path)]
        assert _modules_after(["click", "dataclasses", "inspect", "numpy", "scipy"], argvs) == []

    def test_help_and_select_load_no_baselines(self, tmp_path):
        # Keyed BLAKE2b comes from _blake2, so no OpenSSL through hashlib either.
        loaded = _modules_after(["partsel", "hashlib", "_hashlib"], _select_argvs(tmp_path))
        assert "partsel.baselines" not in loaded
        assert "hashlib" not in loaded and "_hashlib" not in loaded

    def test_baseline_commands_load_no_pipeline(self, tmp_path):
        loaded = _modules_after(["partsel"], _table_argvs(tmp_path))
        assert "partsel.baselines" in loaded
        assert "partsel.pipeline" not in loaded

    def test_import_partsel_loads_no_submodule(self):
        assert _modules_after(["partsel"], []) == ["partsel"]

    def test_every_module_compiles_and_imports_without_a_warning(self, tmp_path):
        # An empty bytecode cache makes the child compile each module from
        # source, so a warning at compile, such as an invalid escape, fails it
        # as one at import does.
        script = (
            "import importlib, pkgutil\n"
            "import partsel\n"
            "names = [f'partsel.{m.name}' for m in pkgutil.iter_modules(partsel.__path__)]\n"
            "for name in names:\n"
            "    importlib.import_module(name)\n"
            "print(*names)\n"
        )
        cache = tmp_path / "pycache"
        cache.mkdir()
        proc = _python(["-W", "error", "-X", f"pycache_prefix={cache}", "-c", script])
        assert proc.returncode == 0, proc.stderr.decode()
        package = Path(partsel.__file__).parent
        modules = sorted(f"partsel.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__")
        assert proc.stdout.decode().split() == modules


class TestProcessEntry:
    """``python -m partsel.cli`` ends its process through ``cli.run``: the same
    status, stdout and stderr as ``main`` in-process, and the exit handlers run."""

    @pytest.mark.parametrize(
        ("argv", "code"),
        [
            (["--help"], 0),
            (["select", "--input", "{rows}", "--delta", "1e-5"], 2),
            (["probs", "--epsilon", "1", "--delta", "2.0"], 2),
            (["select", "--input", "{strict}", "--epsilon", "1", "--delta", "1e-5"], 3),
            (["probs", "--epsilon", "1", "--delta", "1e-5"], 0),
            (["select", "--input", "{rows}", "--epsilon", "5", "--delta", "0.1", "--seed", "7", "--out", "-"], 0),
        ],
        ids=["help", "usage-error", "budget-error", "strict-violation", "probs-to-stdout", "select-to-stdout"],
    )
    def test_process_matches_main_in_process(self, tmp_path, monkeypatch, argv, code):
        # Keys that need quoting or are not ASCII, each held by 40 users.
        keys = ["a,b", "\u00e9", "x\ny", 'q"2']
        rows, strict = tmp_path / "rows.csv", tmp_path / "strict.csv"
        with open(rows, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f, lineterminator="\n")
            writer.writerow(["user_id", "partition"])
            writer.writerows((f"u{k}-{i}", key) for k, key in enumerate(keys) for i in range(40))
        _write_input(strict, [("u1", "a"), ("u1", "b")])
        argv = [arg.format(rows=rows, strict=strict) for arg in argv]
        monkeypatch.setenv("COLUMNS", "80")  # the width argparse wraps help and usage to

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                expected = main(argv)
            except SystemExit as exc:  # argparse's --help and usage errors
                expected = exc.code
        proc = _python(["-m", "partsel.cli", *argv])
        assert expected == code
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")
        )
        assert proc.stdout if code == 0 else proc.stderr
        if argv[0] == "select" and code == 0:
            # 40 users put each key past every threshold at (5, 0.1): a reader gets every key back.
            kept = list(csv.reader(io.StringIO(proc.stdout.decode("utf-8"), newline="")))
            assert kept == [[key] for key in sorted(keys)]

    @pytest.mark.parametrize(
        ("argv", "code"),
        [(["--help"], 0), (["probs", "--epsilon", "1", "--delta", "2.0"], 2),
         (["probs", "--epsilon", "1", "--delta", "1e-5", "--n-max", "2"], 0)],
        ids=["help", "budget-error", "probs"],
    )
    def test_exit_handlers_run_and_the_process_ends_in_the_module(self, tmp_path, argv, code):
        marker = tmp_path / "marker"
        script = (
            "import atexit, runpy, sys\n"
            "marker = sys.argv[1]\n"
            "def handler():\n"
            "    with open(marker, 'w', encoding='utf-8') as f:\n"
            "        f.write('ran')\n"
            "    print('handler printed')\n"
            "atexit.register(handler)\n"
            "sys.argv = ['partsel', *sys.argv[2:]]\n"
            "runpy.run_module('partsel.cli', run_name='__main__')\n"
            "print('after the module')\n"
        )
        proc = _python(["-c", script, str(marker), *argv])
        assert proc.returncode == code, proc.stderr
        assert marker.read_text(encoding="utf-8") == "ran"
        # A handler's output is flushed too, and nothing after the module runs.
        assert proc.stdout.endswith(b"handler printed\n")
        assert b"after the module" not in proc.stdout

    @pytest.mark.parametrize(
        ("tool", "report"),
        [(["cProfile", "-m"], b"function calls"), (["profile", "-m"], b"function calls"),
         (["trace", "--listfuncs", "--module"], b"functions called:")],
        ids=["cProfile", "profile", "trace"],
    )
    def test_a_profiler_or_tracer_reports_after_the_run(self, tool, report):
        # The tool reports once the module returns, which os._exit would prevent.
        proc = _python(["-m", *tool, "partsel.cli", "probs", "--epsilon", "1", "--delta", "1e-5", "--n-max", "1"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(b"n,prob\n0,0\n1,1e-05\n")
        assert report in proc.stdout

    def test_exit_handlers_run_once_under_a_profiler(self, tmp_path):
        marker = tmp_path / "marker"
        script = (
            "import atexit, runpy, sys\n"
            "marker = sys.argv[1]\n"
            "def handler():\n"
            "    with open(marker, 'a', encoding='utf-8') as f:\n"
            "        f.write('ran\\n')\n"
            "atexit.register(handler)\n"
            "sys.argv = ['cProfile', '-m', 'partsel.cli', *sys.argv[2:]]\n"
            "runpy.run_module('cProfile', run_name='__main__')\n"
        )
        proc = _python(["-c", script, str(marker), "probs", "--epsilon", "1", "--delta", "1e-5", "--n-max", "1"])
        assert proc.returncode == 0, proc.stderr
        assert b"function calls" in proc.stdout
        assert marker.read_text(encoding="utf-8") == "ran\n"

    def test_closed_stdout_leaves_a_file_output_standing(self, tmp_path):
        # A process started with file descriptor 1 closed has sys.stdout None.
        out = tmp_path / "out.csv"
        script = (
            "import os, runpy, sys\n"
            "os.close(1)\n"
            "sys.stdout = None\n"
            "sys.argv = ['partsel', *sys.argv[1:]]\n"
            "runpy.run_module('partsel.cli', run_name='__main__')\n"
        )
        proc = _python(["-c", script, "probs", "--epsilon", "1", "--delta", "1e-5", "--n-max", "1", "--out", str(out)])
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert out.read_text(encoding="utf-8") == "n,prob\n0,0\n1,1e-05\n"

    @pytest.mark.parametrize("n_max", ["5", "200000"], ids=["at-the-last-flush", "while-writing"])
    def test_closed_stdout_pipe_exits_1_without_a_traceback(self, n_max):
        # The read end is closed before the child starts, so its first write
        # to stdout fails: a short table's at the last flush, a long one's
        # inside main once the buffer fills.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _python(["-m", "partsel.cli", "probs", "--epsilon", "1", "--delta", "1e-5", "--n-max", n_max],
                           stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_flush_leaves_through_the_interpreter_teardown(self):
        # Every write to /dev/full fails with ENOSPC. The table fits in the
        # buffer, so main succeeds and the flush in run fails; the teardown's
        # own flush fails again and reports it, with Python's status 120.
        with open("/dev/full", "wb") as full:
            proc = _python(["-m", "partsel.cli", "probs", "--epsilon", "1", "--delta", "1e-5", "--n-max", "5"],
                           stdout=full)
        assert proc.returncode == 120
        assert b"[Errno 28]" in proc.stderr
        assert b"Traceback" not in proc.stderr
