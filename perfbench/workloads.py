"""Seeded input generator for the partsel benchmark.

Standalone: it does not import partsel. For a workload name and a seed it
writes the files the program under test receives, plus reference unique-user
counts computed by an independent plain-dict replay of dedup and first-wins.

    python3 perfbench/workloads.py --workload zipf-select --seed 1 --out DIR

The same seed always gives byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os

import numpy as np


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark input shape and the `select` flags it is run with.

    ``command`` is "select" for the row workloads and "sweep" for the
    budget-sweep workload, which runs `midpoints` and `kappa` instead.
    For "sweep" the row fields describe a small probe file used only by the
    traced run, so every per-layer metric has a value on every workload.
    """

    name: str
    why: str
    command: str
    rows: int
    universe: int  # size of the partition key space
    zipf: float  # exponent of the Zipf law partitions are drawn from
    dup_frac: float = 0.0  # share of rows that repeat a (user, partition) pair
    parts_per_user: tuple[int, int] = (1, 1)  # inclusive range of draws per user
    public_keys: int = 0  # dual mode: size of the public key file
    mode: str = "select"
    kappa: int = 1
    conflict: str = "strict"
    public_threshold: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "zipf-select",
            "ingest and CSV parse dominate; a decision-layer change should barely move lib_s",
            command="select",
            rows=60_000,
            universe=3_000,
            zipf=1.1,
            dup_frac=0.2,
        ),
        Workload(
            "longtail-release",
            "per-key decision and noise dominate and almost nothing is released; mirror of zipf-select",
            command="select",
            rows=10_000,
            universe=50_000,
            zipf=0.6,
            dup_frac=0.05,
            mode="release-counts",
        ),
        Workload(
            "kappa3-dual",
            "kappa>1 ingest keeps per-user state and drops rows; dual mode decides absent public keys",
            command="select",
            rows=40_000,
            universe=2_000,
            zipf=1.0,
            parts_per_user=(1, 5),
            public_keys=2_000,
            mode="dual",
            kappa=3,
            conflict="first-wins",
            public_threshold=0,
        ),
        Workload(
            "budget-sweep",
            "only workload on the baselines layer and the CLI sweep thread pools (midpoints, kappa)",
            command="sweep",
            rows=20_000,
            universe=1_000,
            zipf=1.1,
            dup_frac=0.2,
        ),
    )
}

EPSILON = 1.0
DELTA = 1e-5


def _zipf_draws(rng: np.random.Generator, universe: int, exponent: float, size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, universe + 1, dtype=np.float64) ** exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    idx = np.searchsorted(cdf, rng.random(size), side="right")
    return np.minimum(idx, universe - 1)


def generate_rows(w: Workload, rng: np.random.Generator) -> tuple[list[tuple[str, str]], list[str]]:
    """Rows in input order, and the public key list (empty outside dual mode).

    Partition ranks are mapped to keys through a random permutation so that
    popular keys are not clustered in sort order.
    """
    key_ids = rng.permutation(2 * w.universe)  # the upper half names absent public keys
    lo, hi = w.parts_per_user
    if hi == 1:
        users = round(w.rows * (1.0 - w.dup_frac))
        user_of = np.arange(users)
        part_of = _zipf_draws(rng, w.universe, w.zipf, users)
        repeat = rng.integers(0, users, w.rows - users)
        user_col = np.concatenate([user_of, repeat])
        part_col = np.concatenate([part_of, part_of[repeat]])
    else:
        draws = rng.integers(lo, hi + 1, w.rows)
        draws = draws[: int(np.searchsorted(np.cumsum(draws), w.rows)) + 1]
        user_col = np.repeat(np.arange(draws.size), draws)[: w.rows]
        part_col = _zipf_draws(rng, w.universe, w.zipf, user_col.size)
    order = rng.permutation(user_col.size)
    user_ids = rng.permutation(int(user_col.max()) + 1)
    rows = [
        (f"u{user_ids[u]}", f"p{key_ids[p]}")
        for u, p in zip(user_col[order].tolist(), part_col[order].tolist())
    ]
    public: list[str] = []
    if w.public_keys:
        present = np.unique(part_col)
        half = min(w.public_keys // 2, present.size)
        chosen = rng.choice(present, half, replace=False)
        absent = w.universe + rng.choice(w.universe, w.public_keys - half, replace=False)
        public = [f"p{key_ids[p]}" for p in np.concatenate([chosen, absent]).tolist()]
    return rows, public


def reference_counts(
    rows: list[tuple[str, str]], kappa: int, first_wins: bool
) -> tuple[dict[str, int], dict[str, int]]:
    """Unique-user count per partition, replaying dedup and the partition bound.

    A row whose (user, partition) pair is already counted is a duplicate. A
    row that would give its user more than ``kappa`` distinct partitions is
    dropped under first-wins; in strict mode it is an error.
    """
    kept: dict[str, list[str]] = {}
    counts: dict[str, int] = {}
    duplicates = dropped = 0
    for user, part in rows:
        parts = kept.setdefault(user, [])
        if part in parts:
            duplicates += 1
        elif len(parts) >= kappa:
            if not first_wins:
                raise ValueError(f"user {user!r} exceeds {kappa} partition(s) in strict mode")
            dropped += 1
        else:
            parts.append(part)
            counts[part] = counts.get(part, 0) + 1
    stats = {
        "rows": len(rows),
        "users": len(kept),
        "partitions": len(counts),
        "duplicate_rows": duplicates,
        "dropped_rows": dropped,
    }
    return counts, stats


def generate(w: Workload, seed: int, out_dir: str) -> dict:
    """Write the workload's files into ``out_dir``; return the manifest."""
    rng = np.random.default_rng([seed, *w.name.encode()])
    rows, public = generate_rows(w, rng)
    counts, stats = reference_counts(rows, w.kappa, w.conflict == "first-wins")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "rows.csv"), "w", encoding="utf-8", newline="") as f:
        f.write("user_id,partition\n")
        f.write("".join(f"{u},{p}\n" for u, p in rows))
    if public:
        with open(os.path.join(out_dir, "public.txt"), "w", encoding="utf-8") as f:
            f.write("".join(k + "\n" for k in public))
    with open(os.path.join(out_dir, "reference.csv"), "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["partition", "count"])
        writer.writerows(sorted(counts.items()))
    manifest = {
        "workload": w.name,
        "seed": seed,
        "epsilon": EPSILON,
        "delta": DELTA,
        "public_keys": len(public),
        "reference": stats,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")
    return manifest


def read_reference(out_dir: str) -> dict[str, int]:
    with open(os.path.join(out_dir, "reference.csv"), newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        next(reader)
        return {key: int(n) for key, n in reader}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory to write the files into")
    args = ap.parse_args()
    print(json.dumps(generate(WORKLOADS[args.workload], args.seed, args.out), sort_keys=True))


if __name__ == "__main__":
    main()
