"""Command line interface: probability curves, midpoint sweeps, and release runs."""

from __future__ import annotations

import csv
import functools
import math
import sys
import time

import click
import numpy as np

from . import baselines, pipeline
from .params import Neighboring, PrivacyParams
from .primitive import OptPrimitive, pi_opt, pi_opt_many, should_keep


def _friendly_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except pipeline.StrictViolationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (pipeline.ConfigurationError, pipeline.InputFormatError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)

    return wrapper


def _params(epsilon: float, delta: float, neighboring: str) -> PrivacyParams:
    return PrivacyParams(epsilon, delta, Neighboring(neighboring))


def _neighboring_option(fn):
    return click.option(
        "--neighboring",
        type=click.Choice([m.value for m in Neighboring]),
        default=Neighboring.ADD_REMOVE.value,
        show_default=True,
        help="Neighboring-database model; 'replace' halves the effective budget.",
    )(fn)


def _out_option(fn):
    return click.option(
        "--out", default="-", show_default=True, help="Output path ('-' for stdout)."
    )(fn)


def _write_csv(path: str, header: list[str], rows) -> None:
    with click.open_file(path, "w", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return format(x, ".12g")


@click.group()
def main() -> None:
    """Differentially private partition selection toolkit."""


@main.command()
@click.option("--epsilon", type=float, required=True, help="Privacy budget epsilon.")
@click.option("--delta", type=float, required=True, help="Privacy budget delta.")
@click.option("--n-max", type=int, default=None, help="Largest count to tabulate (default: past saturation).")
@click.option(
    "--strategy",
    type=click.Choice(["opt", "laplace", "gauss"]),
    default="opt",
    show_default=True,
)
@click.option("--kappa", type=int, default=1, show_default=True, help="Per-user partition bound; sizes the Gaussian noise.")
@_neighboring_option
@_out_option
@_friendly_errors
def probs(epsilon, delta, n_max, strategy, kappa, neighboring, out) -> None:
    """Tabulate the keep probability pi(n) for one strategy."""
    params = _params(epsilon, delta, neighboring)
    if strategy == "opt":
        prim = OptPrimitive.from_params(params)
        evaluate = lambda n: pi_opt(prim, n)
        default_max = prim.n2 + 5 if params.effective_delta and params.effective_epsilon else 100
    elif strategy == "laplace":
        lap = baselines.LaplacePrimitive.from_params(params)
        evaluate = lambda n: baselines.pi_laplace(lap, n)
        default_max = math.ceil(lap.threshold) + math.ceil(5.0 / lap.epsilon)
    else:
        gauss = baselines.gaussian_primitive(params, kappa)
        evaluate = lambda n: baselines.pi_gaussian(gauss, n)
        default_max = math.ceil(gauss.threshold + 5.0 * gauss.sigma)
    top = n_max if n_max is not None else default_max
    if top < 0:
        raise pipeline.ConfigurationError(f"--n-max must be >= 0, got {top}")
    _write_csv(out, ["n", "prob"], ((n, _fmt(evaluate(n))) for n in range(top + 1)))


def _percentile_row(params: PrivacyParams) -> list[int]:
    prim = OptPrimitive.from_params(params)
    lap = baselines.LaplacePrimitive.from_params(params)
    opt_upper = prim.n2 + 1
    lap_upper = math.ceil(lap.threshold) + math.ceil(64.0 / lap.epsilon)
    row = [
        baselines.percentile_n(lambda n: pi_opt(prim, n), q, upper=opt_upper)
        for q in (0.05, 0.5, 0.95)
    ]
    row += [
        baselines.percentile_n(lambda n: baselines.pi_laplace(lap, n), q, upper=lap_upper)
        for q in (0.05, 0.5, 0.95)
    ]
    return row


@main.command()
@click.option("--sweep", type=click.Choice(["eps", "delta"]), required=True)
@click.option("--epsilon", type=float, default=1.0, show_default=True, help="Fixed epsilon for --sweep delta.")
@click.option("--delta", type=float, default=1e-5, show_default=True, help="Fixed delta for --sweep eps.")
@click.option("--grid-min", type=float, default=None, help="Smallest swept value (default 0.01 eps / 1e-12 delta).")
@click.option("--grid-max", type=float, default=None, help="Largest swept value (default 3 eps / 1e-3 delta).")
@click.option("--points", type=int, default=64, show_default=True)
@_neighboring_option
@_out_option
@_friendly_errors
def midpoints(sweep, epsilon, delta, grid_min, grid_max, points, neighboring, out) -> None:
    """5th/50th/95th release-percentile counts across a log-spaced budget grid."""
    if points < 1:
        raise pipeline.ConfigurationError(f"--points must be >= 1, got {points}")
    if sweep == "eps":
        lo = grid_min if grid_min is not None else 0.01
        hi = grid_max if grid_max is not None else 3.0
        grid = np.geomspace(lo, hi, points)
        budgets = [_params(float(e), delta, neighboring) for e in grid]
        key = "eps"
    else:
        lo = grid_min if grid_min is not None else 1e-12
        hi = grid_max if grid_max is not None else 1e-3
        grid = np.geomspace(lo, hi, points)
        budgets = [_params(epsilon, float(d), neighboring) for d in grid]
        key = "del"
    rows = [_percentile_row(b) for b in budgets]
    header = [key, "opt05", "opt50", "opt95", "lap05", "lap50", "lap95"]
    _write_csv(out, header, ([_fmt(float(g))] + row for g, row in zip(grid, rows)))


@main.command("kappa")
@click.option("--epsilon", type=float, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--kappa-max", type=int, default=7, show_default=True)
@_neighboring_option
@_out_option
@_friendly_errors
def kappa_cmd(epsilon, delta, kappa_max, neighboring, out) -> None:
    """Midpoint comparison as the per-user partition bound grows.

    The opt and Laplace strategies divide the budget by kappa; the Gaussian
    strategy keeps the whole budget and scales its noise to sensitivity
    sqrt(kappa).
    """
    if kappa_max < 1:
        raise pipeline.ConfigurationError(f"--kappa-max must be >= 1, got {kappa_max}")
    params = _params(epsilon, delta, neighboring)

    def row(kap: int) -> list[int]:
        divided = params.split(kap)
        prim = OptPrimitive.from_params(divided)
        lap = baselines.LaplacePrimitive.from_params(divided)
        gauss = baselines.gaussian_primitive(params, kap)
        opt_mid = baselines.midpoint(lambda n: pi_opt(prim, n), upper=prim.n2 + 1)
        lap_mid = baselines.midpoint(
            lambda n: baselines.pi_laplace(lap, n),
            upper=math.ceil(lap.threshold) + math.ceil(64.0 / lap.epsilon),
        )
        gauss_mid = baselines.midpoint(
            lambda n: baselines.pi_gaussian(gauss, n),
            upper=math.ceil(gauss.threshold) + math.ceil(64.0 / gauss.epsilon),
        )
        return [kap, opt_mid, lap_mid, gauss_mid]

    rows = [row(k) for k in range(1, kappa_max + 1)]
    _write_csv(out, ["kappa", "opt_mid", "lap_mid", "gauss_mid"], rows)


@main.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--mode",
    type=click.Choice(["select", "release-counts", "dual"]),
    default="select",
    show_default=True,
)
@click.option("--epsilon", type=float, required=True)
@click.option("--delta", type=float, required=True)
@click.option("--kappa", type=int, default=1, show_default=True, help="Divide the budget for users touching up to kappa partitions.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option(
    "--conflict",
    type=click.Choice([m.value for m in pipeline.IngestMode]),
    default=pipeline.IngestMode.STRICT.value,
    show_default=True,
    help="What to do when a user exceeds the partition bound.",
)
@click.option("--public-file", type=click.Path(exists=True, dir_okay=False), default=None, help="Known partition keys, one per line (dual mode).")
@click.option("--public-threshold", type=int, default=None, help="Release bound for public keys, in [-k, k] (dual mode).")
@_neighboring_option
@_out_option
@_friendly_errors
def select(
    input_path, mode, epsilon, delta, kappa, seed, conflict,
    public_file, public_threshold, neighboring, out,
) -> None:
    """Run the private release pipeline over a user_id,partition CSV."""
    if mode != "dual" and (public_file is not None or public_threshold is not None):
        raise pipeline.ConfigurationError(
            "--public-file and --public-threshold apply only to --mode dual"
        )
    params = _params(epsilon, delta, neighboring).split(kappa)
    hist = pipeline.ingest(
        pipeline.read_rows(input_path),
        mode=pipeline.IngestMode(conflict),
        max_partitions_per_user=kappa,
    )
    if mode == "select":
        prim = OptPrimitive.from_params(params)
        kept = pipeline.select_partitions(hist, prim, seed)
        with click.open_file(out, "w", encoding="utf-8") as f:
            pipeline.write_selection(kept, f)
        return
    if mode == "release-counts":
        records = pipeline.thresholded_release(hist, params, seed)
    else:
        if public_file is None or public_threshold is None:
            raise pipeline.ConfigurationError(
                "dual mode requires --public-file and --public-threshold"
            )
        with open(public_file, encoding="utf-8") as f:
            public = [line.rstrip("\n") for line in f if line.strip()]
        records = pipeline.dual_threshold_release(hist, public, params, public_threshold, seed)
    with click.open_file(out, "w", encoding="utf-8") as f:
        pipeline.write_release(records, f)


@main.command()
@click.option("--iterations", type=int, default=1_000_000, show_default=True)
@click.option("--epsilon", type=float, default=1.0, show_default=True)
@click.option("--delta", type=float, default=1e-5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_friendly_errors
def bench(iterations, epsilon, delta, seed) -> None:
    """Time closed-form keep decisions (probability evaluation + Bernoulli draw)."""
    if iterations < 1:
        raise pipeline.ConfigurationError(f"--iterations must be >= 1, got {iterations}")
    params = PrivacyParams(epsilon, delta)
    prim = OptPrimitive.from_params(params)
    rng = np.random.default_rng(seed)
    for label, n in (("n=1", 1), (f"n=n1={prim.n1}", prim.n1), (f"n=n2+100={prim.n2 + 100}", prim.n2 + 100)):
        ns = np.full(iterations, n, dtype=np.int64)
        start = time.perf_counter()
        kept = rng.random(iterations) < pi_opt_many(prim, ns)
        elapsed = time.perf_counter() - start
        click.echo(
            f"bulk {label}: {elapsed * 1e9 / iterations:.1f} ns/op "
            f"({iterations} decisions in {elapsed:.4f} s, kept {int(kept.sum())})"
        )
    scalar_iters = min(iterations, 100_000)
    start = time.perf_counter()
    for _ in range(scalar_iters):
        should_keep(prim, prim.n1, rng)
    elapsed = time.perf_counter() - start
    click.echo(f"scalar n=n1: {elapsed * 1e9 / scalar_iters:.0f} ns/op ({scalar_iters} calls)")


if __name__ == "__main__":
    main()
