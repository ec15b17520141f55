"""Correctness checks on the program's outputs.

Each check returns a list of failure messages; an empty list is a pass.
Nothing here pins a seed-specific output: the checks hold for any seed
derivation and for any realised keep probabilities within float error of the
paper's, so they keep working when those change.
"""

from __future__ import annotations

import csv
import io
import math

from partsel import OptPrimitive, pi_opt, tsgd_tail

# Released counts further than this many standard deviations from their
# expectation fail the check (about 2e-9 two-sided for a normal count).
Z_LIMIT = 6.0


def same_bytes(label: str, cli: bytes, lib: bytes) -> list[str]:
    if cli == lib:
        return []
    return [f"{label}: CLI output ({len(cli)} B) differs from library output ({len(lib)} B)"]


def counts_match(counts: dict[str, int], reference: dict[str, int]) -> list[str]:
    if counts == reference:
        return []
    diff = sorted(k for k in set(counts) | set(reference) if counts.get(k) != reference.get(k))
    return [
        f"ingest counts differ from the reference on {len(diff)} partition(s), "
        f"e.g. {diff[0]!r}: {counts.get(diff[0])} vs {reference.get(diff[0])}"
    ]


def _keys_sorted_unique_known(keys: list[str], known) -> list[str]:
    failures = []
    if keys != sorted(keys):
        failures.append("released keys are not sorted")
    if len(set(keys)) != len(keys):
        failures.append("released keys are not unique")
    unknown = [k for k in keys if k not in known]
    if unknown:
        failures.append(f"{len(unknown)} released key(s) are not candidates, e.g. {unknown[0]!r}")
    return failures


def _released_count(released: int, probs: list[float]) -> list[str]:
    mean = math.fsum(probs)
    sd = math.sqrt(math.fsum(p * (1.0 - p) for p in probs))
    if abs(released - mean) <= Z_LIMIT * sd + 1.0:
        return []
    return [f"released {released} keys, expected {mean:.1f} +- {sd:.1f} (z limit {Z_LIMIT})"]


def parse_selection(text: str) -> list[str]:
    return text.splitlines()


def parse_release(text: str) -> list[tuple[str, int]]:
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["partition", "noisy_count"]:
        raise ValueError("missing header 'partition,noisy_count'")
    return [(key, int(noisy)) for key, noisy in reader]


def check_selection(text: str, counts: dict[str, int], prim: OptPrimitive) -> list[str]:
    """Selection mode: keys sorted, unique and present; n > n2 kept; size plausible."""
    keys = parse_selection(text)
    failures = _keys_sorted_unique_known(keys, counts)
    kept = set(keys)
    missed = [k for k, n in counts.items() if n > prim.n2 and k not in kept]
    if missed:
        failures.append(f"{len(missed)} key(s) with n > n2 = {prim.n2} were dropped, e.g. {missed[0]!r}")
    failures += _released_count(len(keys), [pi_opt(prim, n) for n in counts.values()])
    return failures


def check_release(
    text: str,
    counts: dict[str, int],
    noise,
    public: set[str] = frozenset(),
    public_threshold: int | None = None,
) -> list[str]:
    """Count modes: keys sorted, unique and candidates; n >= 2k+1 kept; noise in [-k, k];
    every noisy count clears its bound; size plausible.

    ``noise`` is the :class:`~partsel.TsgdParams` the release used. Public keys
    (dual mode) are candidates at count 0 when absent and clear
    ``public_threshold`` instead of k.
    """
    try:
        records = parse_release(text)
    except ValueError as exc:
        return [f"unparseable release: {exc}"]
    k = noise.k
    keys = [key for key, _ in records]
    failures = _keys_sorted_unique_known(keys, set(counts) | set(public))

    def bound(key: str) -> int:
        return public_threshold if key in public else k

    noisy = dict(records)
    missed = [key for key, n in counts.items() if n >= 2 * k + 1 and key not in noisy]
    if missed:
        failures.append(f"{len(missed)} key(s) with n >= 2k+1 = {2 * k + 1} were dropped, e.g. {missed[0]!r}")
    off = [key for key, v in records if abs(v - counts.get(key, 0)) > k]
    if off:
        failures.append(f"{len(off)} noisy count(s) differ from the true count by more than k = {k}")
    low = [key for key, v in records if v <= bound(key)]
    if low:
        failures.append(f"{len(low)} released count(s) do not exceed their threshold, e.g. {low[0]!r}")
    candidates = set(counts) | set(public)
    probs = [tsgd_tail(noise, counts.get(key, 0), bound(key) + 1) for key in candidates]
    failures += _released_count(len(records), probs)
    return failures


def check_sweep_table(text: str, header: list[str], rows: int) -> list[str]:
    """`midpoints`/`kappa` tables: header, row count, and ordered percentiles.

    The optimal primitive is pointwise at least the Laplace rule, so its
    percentile counts never exceed Laplace's.
    """
    table = list(csv.reader(io.StringIO(text)))
    if not table or table[0] != header:
        return [f"sweep table header is {table[:1]!r}, expected {header!r}"]
    body = table[1:]
    failures = [] if len(body) == rows else [f"sweep table has {len(body)} rows, expected {rows}"]
    cols = {name: i for i, name in enumerate(header)}
    for row in body:
        v = {name: float(row[i]) for name, i in cols.items()}
        if "opt50" in v:
            ordered = v["opt05"] <= v["opt50"] <= v["opt95"] and v["lap05"] <= v["lap50"] <= v["lap95"]
            dominated = all(v[f"opt{q}"] <= v[f"lap{q}"] for q in ("05", "50", "95"))
        else:
            ordered, dominated = True, v["opt_mid"] <= v["lap_mid"]
        if not ordered or not dominated:
            failures.append(f"sweep row {row} breaks percentile order or opt <= laplace")
            break
    return failures
