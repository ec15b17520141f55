import contextlib
import io
from dataclasses import dataclass

import pytest

from partsel import PrivacyParams

GRID_EPS = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0]
GRID_DELTA = [1e-12, 1e-10, 1e-5, 1e-2]


@pytest.fixture(scope="session")
def budget_grid() -> list[PrivacyParams]:
    """The 24-point (epsilon, delta) grid used by the equivalence suites."""
    return [PrivacyParams(eps, delta) for eps in GRID_EPS for delta in GRID_DELTA]


@dataclass
class CliResult:
    exit_code: int
    output: str  # stdout and stderr, interleaved as written


class CliRunner:
    """Runs ``main(argv)`` in-process, as a command line would."""

    def invoke(self, main, argv: list[str]) -> CliResult:
        output = io.StringIO()
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's usage errors and --help
                code = exc.code
        return CliResult(code or 0, output.getvalue())


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()
