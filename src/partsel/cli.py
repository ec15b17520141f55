"""Command line interface: probability curves, midpoint sweeps, and release runs.

Start-up loads only what every command needs: ``argparse``, ``csv``, and the
package's ``params`` and ``primitive``. Each command imports the rest itself:
``probs``, ``midpoints`` and ``kappa`` the baselines, ``select`` the
pipeline. No command loads numpy, nor ``dataclasses`` or ``inspect``.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import csv
import functools
import io
import math
import os
import sys
from typing import Callable, Iterator, NoReturn, TextIO

from .params import RELEASE_MODES, ConfigurationError, IngestMode, Neighboring, PrivacyParams, StrictViolationError
from .primitive import OptPrimitive, pi_opt


def _params(epsilon: float, delta: float, neighboring: str) -> PrivacyParams:
    return PrivacyParams(epsilon, delta, Neighboring(neighboring))


def _existing_file(path: str) -> str:
    """argparse type of ``--input`` and ``--public-file``: a readable file, not a directory."""
    if not os.path.exists(path):
        raise argparse.ArgumentTypeError(f"file {path!r} does not exist")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    if not os.access(path, os.R_OK):
        raise argparse.ArgumentTypeError(f"file {path!r} is not readable")
    return path


def _output_file(path: str) -> str:
    """argparse type of ``--out``: '-' for stdout, or a file that can be opened for writing."""
    if path == "-":
        return path
    if not path:
        raise argparse.ArgumentTypeError("the path is empty")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    parent = os.path.dirname(path) or os.curdir
    if not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(f"directory {parent!r} does not exist")
    target = path if os.path.exists(path) else parent
    if not os.access(target, os.W_OK):
        raise argparse.ArgumentTypeError(f"{target!r} is not writable")
    return path


@contextlib.contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """The UTF-8 text output: stdout for '-', else the file at ``path``."""
    if path != "-":
        with open(path, "w", encoding="utf-8") as f:
            yield f
        return
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8")
    yield sys.stdout


def _write_csv(path: str, header: list[str], rows) -> None:
    with _output(path) as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return format(x, ".12g")


# The most rows a probs table may have when --n-max does not set its size.
_DEFAULT_ROWS_LIMIT = 10**6


def _ceil(x: float) -> int | float:
    """``math.ceil(x)``, with inf and nan passed through instead of raising."""
    return math.ceil(x) if math.isfinite(x) else x


def _curve(strategy: str, params: PrivacyParams, kappa: int = 1) -> tuple[object, Callable[[int], float]]:
    """A strategy's primitive at this budget, and its keep probability pi(n).

    ``gauss`` keeps the whole budget and scales its noise to sensitivity
    sqrt(kappa); ``opt`` and ``laplace`` take the budget as given.
    """
    from . import baselines

    if strategy == "opt":
        prim, pi = OptPrimitive.from_params(params), pi_opt
    elif strategy == "laplace":
        prim, pi = baselines.LaplacePrimitive.from_params(params), baselines.pi_laplace
    else:
        prim, pi = baselines.gaussian_primitive(params, kappa), baselines.pi_gaussian
    return prim, functools.partial(pi, prim)


def _search_upper(prim) -> int:
    """Where a percentile search over a curve stops: n2 + 1 for the optimal
    primitive, and 64 / epsilon counts past the threshold for a baseline."""
    if isinstance(prim, OptPrimitive):
        return prim.n2 + 1
    span = 64.0 / prim.epsilon
    if math.isinf(span):
        raise ConfigurationError(f"epsilon {prim.epsilon} too small: the search bound 64 / epsilon overflows binary64")
    return math.ceil(prim.threshold) + math.ceil(span)


def probs(epsilon, delta, n_max, strategy, kappa, neighboring, out) -> None:
    """Tabulate the keep probability pi(n) for one strategy."""
    params = _params(epsilon, delta, neighboring)
    prim, pi = _curve(strategy, params, kappa)
    if n_max is None:
        if strategy == "opt":
            n_max = prim.n2 + 5 if params.effective_delta and params.effective_epsilon else 100
        elif strategy == "laplace":
            n_max = _ceil(prim.threshold) + _ceil(5.0 / prim.epsilon)
        else:
            n_max = _ceil(prim.threshold + 5.0 * prim.sigma)
        if not n_max < _DEFAULT_ROWS_LIMIT:
            raise ConfigurationError(
                f"the default table would have more than {_DEFAULT_ROWS_LIMIT} rows; "
                "choose its last count with --n-max"
            )
    elif n_max < 0:
        raise ConfigurationError(f"--n-max must be >= 0, got {n_max}")
    _write_csv(out, ["n", "prob"], ((n, _fmt(pi(n))) for n in range(n_max + 1)))


def _percentile_row(params: PrivacyParams) -> list[int]:
    from . import baselines

    bounded = [(pi, _search_upper(prim)) for prim, pi in (_curve("opt", params), _curve("laplace", params))]
    return [baselines.percentile_n(pi, q, upper=upper) for pi, upper in bounded for q in (0.05, 0.5, 0.95)]


def _geomspace(lo: float, hi: float, points: int) -> list[float]:
    """``points`` log-spaced values from ``lo`` to ``hi``, both ends included.

    Takes ``numpy.geomspace``'s steps: ``linspace`` over the base-10 logs of
    the ends (``i * step + a``, the last point ``b``), ``10 ** y``, and both
    ends pinned. numpy may run ``log10`` and ``power`` through SIMD kernels,
    so interior points can differ from numpy's by some tens of ulps.
    """
    if not (lo > 0.0 and hi > 0.0):
        raise ConfigurationError(f"grid ends must be > 0, got {lo} and {hi}")
    a, b = math.log10(lo), math.log10(hi)
    step = (b - a) / (points - 1) if points > 1 else 0.0
    grid = [10.0 ** (i * step + a) for i in range(points)]
    grid[0] = lo
    if points > 1:
        grid[-1] = hi
    return grid


def midpoints(sweep, epsilon, delta, grid_min, grid_max, points, neighboring, out) -> None:
    """5th/50th/95th release-percentile counts across a log-spaced budget grid."""
    if points < 1:
        raise ConfigurationError(f"--points must be >= 1, got {points}")
    if sweep == "eps":
        key, lo, hi, budget = "eps", 0.01, 3.0, lambda e: _params(e, delta, neighboring)
    else:
        key, lo, hi, budget = "del", 1e-12, 1e-3, lambda d: _params(epsilon, d, neighboring)
    grid = _geomspace(lo if grid_min is None else grid_min, hi if grid_max is None else grid_max, points)
    budgets = [budget(g) for g in grid]
    rows = [_percentile_row(b) for b in budgets]
    header = [key, "opt05", "opt50", "opt95", "lap05", "lap50", "lap95"]
    _write_csv(out, header, ([_fmt(g)] + row for g, row in zip(grid, rows)))


def kappa_cmd(epsilon, delta, kappa_max, neighboring, out) -> None:
    """Midpoint comparison as the per-user partition bound grows.

    The opt and Laplace strategies divide the budget by kappa; the Gaussian
    strategy keeps the whole budget and scales its noise to sensitivity
    sqrt(kappa).
    """
    from . import baselines

    if kappa_max < 1:
        raise ConfigurationError(f"--kappa-max must be >= 1, got {kappa_max}")
    params = _params(epsilon, delta, neighboring)

    def row(kap: int) -> list[int]:
        divided = params.split(kap)
        curves = [_curve("opt", divided), _curve("laplace", divided), _curve("gauss", params, kap)]
        return [kap] + [baselines.midpoint(pi, upper=_search_upper(prim)) for prim, pi in curves]

    rows = [row(k) for k in range(1, kappa_max + 1)]
    _write_csv(out, ["kappa", "opt_mid", "lap_mid", "gauss_mid"], rows)


def select(
    input_path, mode, epsilon, delta, kappa, seed, conflict,
    public_file, public_threshold, neighboring, out,
) -> None:
    """Run the private release pipeline over a user_id,partition CSV."""
    from . import pipeline

    public = pipeline.read_keys(public_file) if public_file is not None else None
    released = pipeline.release(
        pipeline.read_rows(input_path), _params(epsilon, delta, neighboring), mode,
        kappa=kappa, conflict=conflict, seed=seed, public_keys=public, public_threshold=public_threshold,
    )
    with _output(out) as f:
        (pipeline.write_release if isinstance(released, dict) else pipeline.write_selection)(released, f)


def _command(commands, name: str, run: Callable[..., None]) -> argparse.ArgumentParser:
    doc = run.__doc__ or ""
    parser = commands.add_parser(
        name, help=doc.partition("\n")[0], description=doc, add_help=False, allow_abbrev=False
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    parser.set_defaults(run=run)
    return parser


def _neighboring_and_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--neighboring",
        choices=[m.value for m in Neighboring],
        default=Neighboring.ADD_REMOVE.value,
        help="Neighboring-database model; 'replace' halves the effective budget. "
        "Default: %(default)s.",
    )
    parser.add_argument("--out", type=_output_file, default="-", help="Output path ('-' for stdout). Default: %(default)s.")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partsel",
        description="Differentially private partition selection toolkit.",
        add_help=False,
        allow_abbrev=False,
    )
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    p = _command(commands, "probs", probs)
    p.add_argument("--epsilon", type=float, required=True, help="Privacy budget epsilon.")
    p.add_argument("--delta", type=float, required=True, help="Privacy budget delta.")
    p.add_argument("--n-max", type=int, help="Largest count to tabulate (default: past saturation).")
    p.add_argument("--strategy", choices=["opt", "laplace", "gauss"], default="opt", help="Default: %(default)s.")
    p.add_argument("--kappa", type=int, default=1, help="Per-user partition bound; sizes the Gaussian noise. Default: %(default)s.")
    _neighboring_and_out(p)

    p = _command(commands, "midpoints", midpoints)
    p.add_argument("--sweep", choices=["eps", "delta"], required=True)
    p.add_argument("--epsilon", type=float, default=1.0, help="Fixed epsilon for --sweep delta. Default: %(default)s.")
    p.add_argument("--delta", type=float, default=1e-5, help="Fixed delta for --sweep eps. Default: %(default)s.")
    p.add_argument("--grid-min", type=float, help="Smallest swept value (default 0.01 eps / 1e-12 delta).")
    p.add_argument("--grid-max", type=float, help="Largest swept value (default 3 eps / 1e-3 delta).")
    p.add_argument("--points", type=int, default=64, help="Default: %(default)s.")
    _neighboring_and_out(p)

    p = _command(commands, "kappa", kappa_cmd)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--kappa-max", type=int, default=7, help="Default: %(default)s.")
    _neighboring_and_out(p)

    p = _command(commands, "select", select)
    p.add_argument("--input", dest="input_path", metavar="FILE", type=_existing_file, required=True)
    p.add_argument("--mode", choices=RELEASE_MODES, default=RELEASE_MODES[0], help="Default: %(default)s.")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--kappa", type=int, default=1, help="Divide the budget for users touching up to kappa partitions. Default: %(default)s.")
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        help="The only secret of the release: anyone who knows it can recompute every key's "
        "uniform and read counts from the output, so use a random value and keep it private. "
        "The default, %(default)s, protects nothing. A seed serves one release: a later release, "
        "of the same input or not, needs another seed.",
    )
    p.add_argument(
        "--conflict",
        choices=[m.value for m in IngestMode],
        default=IngestMode.STRICT.value,
        help="What to do when a user exceeds the partition bound. Default: %(default)s.",
    )
    p.add_argument("--public-file", metavar="FILE", type=_existing_file, help="Known partition keys, one per line (dual mode).")
    p.add_argument("--public-threshold", type=int, help="Release bound for public keys, in [-k, k] (dual mode).")
    _neighboring_and_out(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command in ``argv`` (default ``sys.argv[1:]``) and return its exit code.

    Usage errors exit 2 through argparse. A configuration, input-format or
    budget error returns 2 and a strict-mode violation 3, each after an
    ``error: ...`` line on stderr.
    """
    args = vars(_parser().parse_args(argv))
    run = args.pop("run")
    try:
        run(**args)
    except StrictViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigurationError and InputFormatError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _stdout_gone() -> int:
    """Point stdout at ``os.devnull`` once its reader has closed the pipe, as in
    ``partsel probs ... | head -1``, so that no later flush raises again.
    Returns 1, the status Python exits with on a broken pipe."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 1


def run() -> NoReturn:
    """The process entry point of ``python -m partsel.cli`` and the ``partsel`` script.

    Runs :func:`main`, then the registered :mod:`atexit` handlers, flushes
    stdout and stderr and ends the process with ``os._exit``. Each command
    closes every file it opens before ``main`` returns and starts no thread,
    so the interpreter's own teardown of modules and objects is skipped. If a
    flush fails, or a profiler or tracer runs the module and reports once it
    returns, the process leaves through ``sys.exit`` and that teardown. A
    closed stdout pipe exits 1 with no traceback.
    """
    try:
        code = main()
    except SystemExit as exc:  # argparse's --help and usage errors
        code = exc.code
    except BrokenPipeError:
        code = _stdout_gone()
    # Exit handlers run before the final flush, so that what they print is written too.
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the file descriptor was closed at start-up
                stream.flush()
    except BrokenPipeError:
        code = _stdout_gone()
    except OSError:
        sys.exit(code)
    monitoring = getattr(sys, "monitoring", None)  # 3.12+: cProfile hooks in here, not via setprofile
    if not (sys.getprofile() or sys.gettrace() or monitoring and any(map(monitoring.get_tool, range(6)))):
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    run()
