"""Benchmark of the partsel release path, end to end and layer by layer.

Run from the root of a partsel checkout:

    python3 perfbench/run.py --workload zipf-select --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` it measures what a user sees: a ``python -m partsel.cli``
child on the generated files (``job_s``, ``peak_rss_mb``), the same work
through the library API in this process (``lib_s``), and CLI start-up
(``setup_s``). With ``--trace 1`` it records spans around its calls into each
layer and reports per-layer metrics instead. Every output is checked; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import gc
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import uuid

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import probes  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Every run takes at least this many samples of each timing, whatever --seconds says.
MIN_ROUNDS = 3

END_TO_END = {"job_s": "s", "lib_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "read_rows.ns_per_row": "ns/row",
    "read_rows.rows": "count",
    "ingest.ns_per_row": "ns/row",
    "ingest.partitions": "count",
    "ingest.users": "count",
    "ingest.duplicate_rows": "count",
    "ingest.dropped_rows": "count",
    "ingest.peak_mb": "MB",
    "decide.ns_per_key": "ns/key",
    "decide.keys": "count",
    "decide.released": "count",
    "decide.release_ratio": "ratio",
    "decide.peak_mb": "MB",
    "write.ns_per_key": "ns/key",
    "write.bytes": "B",
    "primitive.from_params.us_per_call": "us/call",
    "primitive.pi_opt.ns_per_call": "ns/call",
    "primitive.pi_opt_many.ns_per_key": "ns/key",
    "truncated_geometric.tsgd_params.us_per_call": "us/call",
    "truncated_geometric.tsgd_sample.ns_per_call": "ns/call",
    "truncated_geometric.tsgd_sample_many.ns_per_draw": "ns/draw",
    "baselines.gaussian_primitive.ms_per_call": "ms/call",
    "baselines.calibrate_gaussian_sigma.ms_per_call": "ms/call",
    "baselines.percentile_n.us_per_call": "us/call",
    "cli.import_s": "s",
    "cli.import.baselines_s": "s",
    "cli.import.numpy_s": "s",
    "cli.import.click_s": "s",
    "cli.job.cpu_s": "s",
    "cli.job.cpu_per_wall": "ratio",
    "trace.lib_s": "s",
    "trace.overhead_s": "s",
    "host.loop_probe_ms": "ms",
}

SWEEP_TABLES = {
    "eps": ["eps", "opt05", "opt50", "opt95", "lap05", "lap50", "lap95"],
    "delta": ["del", "opt05", "opt50", "opt95", "lap05", "lap50", "lap95"],
    "kappa": ["kappa", "opt_mid", "lap_mid", "gauss_mid"],
}

# The loop probe: pure-Python work of the kind lib_s times that calls nothing
# of partsel, so no change to partsel can move it. lib_s is scaled to the host
# speed at which the probe takes LOOP_REF_S.
LOOP_PROBE_ITERATIONS = 100_000
LOOP_REF_S = 0.040

SWEEP_POINTS = 64  # the CLI's default --points
SWEEP_KAPPA_MAX = 7


def load_partsel(root: str):
    """Import partsel from the checkout's ``src``; exit without a result if it is not there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "partsel", "__init__.py")):
        sys.exit(f"error: no partsel sources under {src}; run from the root of a partsel checkout")
    sys.path.insert(0, src)
    import partsel
    import partsel.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(partsel.__file__))) != src:
        sys.exit(f"error: imported partsel from {partsel.__file__}, not from {src}")
    return partsel


@dataclasses.dataclass
class Job:
    """One workload's generated inputs and the budget and flags they run with."""

    w: workloads.Workload
    dir: str
    manifest: dict
    seed: int  # the program's --seed

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    @property
    def params(self):
        return ps.PrivacyParams(self.manifest["epsilon"], self.manifest["delta"]).split(self.w.kappa)

    def public_keys(self) -> list[str]:
        if not self.w.public_keys:
            return []
        with open(self.path("public.txt"), encoding="utf-8") as f:
            return [line.rstrip("\n") for line in f if line.strip()]


# --- the library path -------------------------------------------------------


def decide(job: Job, hist, public: list[str]):
    w = job.w
    if w.mode == "select":
        return ps.select_partitions(hist, ps.OptPrimitive.from_params(job.params), job.seed)
    if w.mode == "release-counts":
        return ps.thresholded_release(hist, job.params, job.seed)
    return ps.dual_threshold_release(hist, public, job.params, w.public_threshold, job.seed)


def pipeline_job(job: Job, out_path: str, tracer: tracing.Tracer | None = None):
    """read_rows -> ingest -> decide -> write, as the README quickstart does it.

    Untraced, rows stream from the reader into ingest. Traced, the rows are
    materialised first so that parsing and ingest get a span each.
    """
    span = tracer.span if tracer else tracing.no_span
    w = job.w
    with span("read_rows") as counts:
        rows = ps.read_rows(job.path("rows.csv"))
        if tracer:
            rows = list(rows)
            counts["rows"] = len(rows)
    with span("ingest") as counts:
        hist = ps.ingest(rows, mode=ps.IngestMode(w.conflict), max_partitions_per_user=w.kappa)
        counts["partitions"] = len(hist)
    with span("decide") as counts:
        public = job.public_keys()
        out = decide(job, hist, public)
    counts["keys"] = len(set(hist.keys()).union(public))
    counts["released"] = len(out)
    with span("write") as counts:
        with open(out_path, "w", encoding="utf-8") as f:
            if w.mode == "select":
                ps.write_selection(out, f)
            else:
                ps.write_release(out, f)
        counts["bytes"] = os.path.getsize(out_path)
    return hist


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _percentile_row(params) -> list[int]:
    prim = ps.OptPrimitive.from_params(params)
    lap = ps.LaplacePrimitive.from_params(params)
    lap_upper = math.ceil(lap.threshold) + math.ceil(64.0 / lap.epsilon)
    row = [ps.percentile_n(lambda n: ps.pi_opt(prim, n), q, upper=prim.n2 + 1) for q in (0.05, 0.5, 0.95)]
    row += [ps.percentile_n(lambda n: ps.pi_laplace(lap, n), q, upper=lap_upper) for q in (0.05, 0.5, 0.95)]
    return row


def _kappa_row(params, kap: int) -> list[int]:
    divided = params.split(kap)
    prim = ps.OptPrimitive.from_params(divided)
    lap = ps.LaplacePrimitive.from_params(divided)
    gauss = ps.gaussian_primitive(params, kap)
    return [
        kap,
        ps.midpoint(lambda n: ps.pi_opt(prim, n), upper=prim.n2 + 1),
        ps.midpoint(
            lambda n: ps.pi_laplace(lap, n),
            upper=math.ceil(lap.threshold) + math.ceil(64.0 / lap.epsilon),
        ),
        ps.midpoint(
            lambda n: ps.pi_gaussian(gauss, n),
            upper=math.ceil(gauss.threshold) + math.ceil(64.0 / gauss.epsilon),
        ),
    ]


def _write_table(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def sweep_rows(job: Job, table: str) -> list[list]:
    """One `midpoints --sweep eps|delta` or `kappa` table through the public API."""
    eps, delta = job.manifest["epsilon"], job.manifest["delta"]
    if table == "eps":
        grid = np.geomspace(0.01, 3.0, SWEEP_POINTS)
        return [[_fmt(float(e))] + _percentile_row(ps.PrivacyParams(float(e), delta)) for e in grid]
    if table == "delta":
        grid = np.geomspace(1e-12, 1e-3, SWEEP_POINTS)
        return [[_fmt(float(d))] + _percentile_row(ps.PrivacyParams(eps, float(d))) for d in grid]
    params = ps.PrivacyParams(eps, delta)
    return [_kappa_row(params, k) for k in range(1, SWEEP_KAPPA_MAX + 1)]


def output_names(job: Job) -> list[str]:
    """The files the workload writes: one per CLI child and per in-process part."""
    return [f"{t}.csv" for t in SWEEP_TABLES] if job.w.command == "sweep" else ["out.txt"]


def library_part(job: Job, name: str, out_dir: str, tracer: tracing.Tracer | None = None):
    """Write output ``name`` in-process; the select path returns its histogram."""
    if job.w.command == "select":
        return pipeline_job(job, os.path.join(out_dir, name), tracer)
    table = name.removesuffix(".csv")
    with (tracer.span if tracer else tracing.no_span)(f"sweep.{table}"):
        _write_table(os.path.join(out_dir, name), SWEEP_TABLES[table], sweep_rows(job, table))
    return None


# --- the CLI path -------------------------------------------------------------


def cli_argvs(job: Job, out_dir: str) -> list[tuple[list[str], str]]:
    """Each CLI child of the workload, with the name of the output file it writes."""
    base = [sys.executable, "-m", "partsel.cli"]
    eps, delta = repr(job.manifest["epsilon"]), repr(job.manifest["delta"])
    out = lambda name: os.path.join(out_dir, name)  # noqa: E731
    if job.w.command == "sweep":
        return [
            (base + ["midpoints", "--sweep", "eps", "--delta", delta, "--out", out("eps.csv")], "eps.csv"),
            (base + ["midpoints", "--sweep", "delta", "--epsilon", eps, "--out", out("delta.csv")], "delta.csv"),
            (base + ["kappa", "--epsilon", eps, "--delta", delta,
                     "--kappa-max", str(SWEEP_KAPPA_MAX), "--out", out("kappa.csv")], "kappa.csv"),
        ]
    w = job.w
    argv = base + [
        "select", "--input", job.path("rows.csv"), "--mode", w.mode,
        "--epsilon", eps, "--delta", delta, "--kappa", str(w.kappa),
        "--seed", str(job.seed), "--conflict", w.conflict,
    ]
    if w.mode == "dual":
        argv += ["--public-file", job.path("public.txt"), "--public-threshold", str(w.public_threshold)]
    return [(argv + ["--out", out("out.txt")], "out.txt")]


# --- one run ------------------------------------------------------------------


class Run:
    """Counts operations and failures, and keeps the reference library output."""

    def __init__(self, job: Job, root: str):
        self.job = job
        self.env = probes.cli_env(root)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cli_dir = os.path.join(job.dir, "cli")
        self.lib_dir = os.path.join(job.dir, "lib")
        os.makedirs(self.cli_dir, exist_ok=True)
        os.makedirs(self.lib_dir, exist_ok=True)
        self.expected: dict[str, bytes] = {}

    def record(self, failures: list[str]) -> None:
        """Count one operation, failed if any check reported a failure."""
        self.attempted += 1
        self.failed += bool(failures)
        self.failures += failures

    def _read(self, directory: str, name: str) -> bytes:
        with open(os.path.join(directory, name), "rb") as f:
            return f.read()

    def _clear(self, directory: str) -> None:
        for name in os.listdir(directory):
            os.remove(os.path.join(directory, name))

    def setup_probe(self) -> probes.ChildRun:
        child = probes.run_child([sys.executable, "-m", "partsel.cli", "--help"], self.job.dir, self.env)
        self.record([] if child.returncode == 0 else [f"--help exited {child.returncode}"])
        return child

    def first_library_job(self) -> None:
        """Warm-up pass whose output every later pass and CLI child must reproduce."""
        names = output_names(self.job)
        hist = [library_part(self.job, name, self.lib_dir) for name in names][0]
        self.expected = {name: self._read(self.lib_dir, name) for name in names}
        self.record(semantic_checks(self.job, hist, self.expected))

    def timed_library_job(self, tracer: tracing.Tracer | None = None) -> list[float]:
        """One in-process pass; the wall time of each part.

        Garbage left by earlier passes is collected first, so that no pass
        pays for another's.
        """
        self._clear(self.lib_dir)
        gc.collect()
        times = []
        for name in self.expected:
            start = time.perf_counter()
            library_part(self.job, name, self.lib_dir, tracer)
            times.append(time.perf_counter() - start)
        self.record([f for name, data in self.expected.items()
                     for f in checks.same_bytes(f"library {name}", self._read(self.lib_dir, name), data)])
        return times

    def cli_job(self) -> list[probes.ChildRun]:
        """One CLI child per output; a child fails on a non-zero exit or a wrong output."""
        self._clear(self.cli_dir)
        children = []
        for argv, name in cli_argvs(self.job, self.cli_dir):
            child = probes.run_child(argv, self.job.dir, self.env)
            children.append(child)
            if child.returncode != 0:
                self.record([f"{' '.join(argv[3:5])} exited {child.returncode}: {child.stderr[-500:]}"])
            else:
                self.record(checks.same_bytes(name, self._read(self.cli_dir, name), self.expected[name]))
        return children


def semantic_checks(job: Job, hist, outputs: dict[str, bytes]) -> list[str]:
    """Checks that need the true counts: reference counts and release properties."""
    if job.w.command == "sweep":
        rows = {"eps": SWEEP_POINTS, "delta": SWEEP_POINTS, "kappa": SWEEP_KAPPA_MAX}
        return [f for t, header in SWEEP_TABLES.items()
                for f in checks.check_sweep_table(outputs[f"{t}.csv"].decode(), header, rows[t])]
    counts = hist.counts()
    failures = checks.counts_match(counts, workloads.read_reference(job.dir))
    text = outputs["out.txt"].decode("utf-8")
    if job.w.mode == "select":
        return failures + checks.check_selection(text, counts, ps.OptPrimitive.from_params(job.params))
    noise = ps.tsgd_params(job.params)
    return failures + checks.check_release(
        text, counts, noise, set(job.public_keys()), job.w.public_threshold
    )


def loop_probe() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs Python just now."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(LOOP_PROBE_ITERATIONS):
        key = "k%d" % (i % 4096)
        counts[key] = counts.get(key, 0) + i
    return time.perf_counter() - start


def _rounds(seconds: float, body) -> None:
    """Call ``body`` until ``seconds`` would be exceeded by one more round (at least MIN_ROUNDS)."""
    start = time.perf_counter()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        body()
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - r0) > start + seconds:
            return


def summary(values: list[float]) -> dict:
    """Median, best, the highest percentile the sample count supports, and the count.

    A percentile needs at least ten samples beyond it; with fewer than twenty
    samples no percentile qualifies and the maximum is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n >= 20:
        q = math.floor(100 * (n - 10) / n)
        tail = (f"p{q}", ordered[max(0, math.ceil(q / 100 * n) - 1)])
    else:
        tail = ("max", ordered[-1])
    return {"median": statistics.median(ordered), "min": ordered[0], tail[0]: tail[1], "n": n}


def median_total(samples: list[list[float]]) -> float:
    """Median over a run's passes of each pass's total over its parts (CLI children, sweep tables)."""
    return statistics.median(sum(parts) for parts in samples)


def measure_end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Medians over the whole run; lib_s is scaled to the reference host speed.

    On a shared host a core's speed changes with its neighbours' load, in
    phases that can outlast a run. The loop probe runs before every
    in-process pass, and lib_s is its raw median times LOOP_REF_S over the
    probe's median (see README.md). The raw samples stay in the report.
    """
    setup, rss, loop = [], [], []
    job_parts: list[list[float]] = []
    lib_parts: list[list[float]] = []

    def one_round():
        setup.append(run.setup_probe().wall_s)
        children = run.cli_job()
        job_parts.append([c.wall_s for c in children])
        rss.append(max(c.peak_rss_mb for c in children))
        # In-process passes for two thirds of the CLI job's time: the median
        # of lib_s, and of its probe, needs many more samples than job_s.
        spent = 0.0
        while spent < sum(job_parts[-1]) * 2 / 3:
            loop.append(loop_probe())
            lib_parts.append(run.timed_library_job())
            spent += sum(lib_parts[-1])

    _rounds(seconds, one_round)
    samples = {"job_s": [sum(p) for p in job_parts], "lib_s": [sum(p) for p in lib_parts],
               "setup_s": setup, "peak_rss_mb": rss, "loop_probe_s": loop}
    metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
    metrics["lib_s"] *= LOOP_REF_S / statistics.median(loop)
    detail = {name: summary(v) for name, v in samples.items()}
    detail["samples"] = samples
    return metrics, detail


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Best over ``repeats`` of the mean ns per call of ``fn`` over ``calls`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter_ns() - start) / calls)
    return min(times)


def layer_probes(job: Job, hist, tracer: tracing.Tracer) -> dict[str, float]:
    """Per-call costs of the primitive, noise and baselines entry points.

    pi_opt and pi_opt_many run over the workload's own counts, so they bound
    the per-key decision from below.
    """
    params = job.params
    prim = ps.OptPrimitive.from_params(params)
    noise = ps.tsgd_params(params)
    counts = list(hist.counts().values())
    arr = np.asarray(counts, dtype=np.int64)
    rng = np.random.default_rng(job.seed)
    eps, delta = params.effective_epsilon, params.effective_delta
    out = {}
    with tracer.span("primitive"):
        out["primitive.from_params.us_per_call"] = _per_call(lambda: ps.OptPrimitive.from_params(params), 200) / 1e3
        with tracer.span("primitive.pi_opt"):
            out["primitive.pi_opt.ns_per_call"] = _per_call(lambda: [ps.pi_opt(prim, n) for n in counts], 1) / len(counts)
        with tracer.span("primitive.pi_opt_many"):
            out["primitive.pi_opt_many.ns_per_key"] = _per_call(lambda: ps.pi_opt_many(prim, arr), 20) / arr.size
    with tracer.span("truncated_geometric"):
        out["truncated_geometric.tsgd_params.us_per_call"] = _per_call(lambda: ps.tsgd_params(params), 200) / 1e3
        out["truncated_geometric.tsgd_sample.ns_per_call"] = _per_call(lambda: ps.tsgd_sample(noise, rng), 20_000)
        out["truncated_geometric.tsgd_sample_many.ns_per_draw"] = (
            _per_call(lambda: ps.tsgd_sample_many(noise, rng, 100_000), 5) / 100_000
        )
    with tracer.span("baselines"):
        kappa = job.w.kappa
        base = ps.PrivacyParams(job.manifest["epsilon"], job.manifest["delta"])
        out["baselines.gaussian_primitive.ms_per_call"] = _per_call(lambda: ps.gaussian_primitive(base, kappa), 1, 3) / 1e6
        out["baselines.calibrate_gaussian_sigma.ms_per_call"] = (
            _per_call(lambda: ps.calibrate_gaussian_sigma(eps, delta, math.sqrt(kappa)), 10) / 1e6
        )
        out["baselines.percentile_n.us_per_call"] = (
            _per_call(lambda: ps.percentile_n(lambda n: ps.pi_opt(prim, n), 0.5, upper=prim.n2 + 1), 500) / 1e3
        )
    return out


def memory_probe(job: Job) -> dict[str, float]:
    """tracemalloc peaks of ingest and of the decision, above what was live before each."""
    rows = list(ps.read_rows(job.path("rows.csv")))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        hist = ps.ingest(rows, mode=ps.IngestMode(job.w.conflict), max_partitions_per_user=job.w.kappa)
        ingest_peak = tracemalloc.get_traced_memory()[1] - before
        public = job.public_keys()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        decide(job, hist, public)
        decide_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return {"ingest.peak_mb": ingest_peak / 2**20, "decide.peak_mb": decide_peak / 2**20}


def measure_layers(run: Run, seconds: float, tracer: tracing.Tracer) -> tuple[dict, dict]:
    job = run.job
    start = time.perf_counter()
    imports = [probes.import_times(job.dir, run.env) for _ in range(2)]
    metrics = {
        "cli.import_s": min(i["cli"] for i in imports),
        "cli.import.baselines_s": min(i["baselines"] for i in imports),
        "cli.import.numpy_s": min(i["numpy"] for i in imports),
        "cli.import.click_s": min(i["click"] for i in imports),
    }
    # The row layers run on the workload's rows; budget-sweep has a small
    # probe file for them, run in select mode.
    rows_job = job if job.w.command == "select" else dataclasses.replace(
        job, w=dataclasses.replace(job.w, command="select")
    )
    hist = pipeline_job(rows_job, os.path.join(run.lib_dir, "probe.txt"))
    if rows_job is not job:
        with open(os.path.join(run.lib_dir, "probe.txt"), "rb") as f:
            run.record(semantic_checks(rows_job, hist, {"out.txt": f.read()}))
    metrics.update(layer_probes(rows_job, hist, tracer))
    metrics.update(memory_probe(rows_job))

    cli_cpu, cli_ratio, traced, untraced, loops = [], [], [], [], []

    def one_round():
        children = run.cli_job()
        cpu = sum(c.cpu_s for c in children)
        cli_cpu.append(cpu)
        cli_ratio.append(cpu / sum(c.wall_s for c in children))
        loops.append(loop_probe())
        untraced.append(run.timed_library_job())
        with tracer.span("lib"):
            traced.append(run.timed_library_job(tracer))
        if rows_job is not job:
            with tracer.span("probe"):
                pipeline_job(rows_job, os.path.join(run.lib_dir, "probe.txt"), tracer)

    _rounds(max(0.0, seconds - (time.perf_counter() - start)), one_round)
    ref = job.manifest["reference"]
    spans = {s["name"]: s["counts"] for s in tracer.spans}  # counts are identical in every pass
    rows_n = spans["read_rows"]["rows"]
    keys, released = spans["decide"]["keys"], spans["decide"]["released"]
    metrics.update({
        "read_rows.ns_per_row": tracer.median_ns("read_rows") / rows_n,
        "read_rows.rows": rows_n,
        "ingest.ns_per_row": tracer.median_ns("ingest") / rows_n,
        "ingest.partitions": spans["ingest"]["partitions"],
        "ingest.users": ref["users"],
        "ingest.duplicate_rows": ref["duplicate_rows"],
        "ingest.dropped_rows": ref["dropped_rows"],
        "decide.ns_per_key": tracer.median_ns("decide") / keys,
        "decide.keys": keys,
        "decide.released": released,
        "decide.release_ratio": released / keys,
        "write.ns_per_key": tracer.median_ns("write") / max(1, released),
        "write.bytes": spans["write"]["bytes"],
        "cli.job.cpu_s": statistics.median(cli_cpu),
        "cli.job.cpu_per_wall": statistics.median(cli_ratio),
        "trace.lib_s": median_total(traced),
        "trace.overhead_s": median_total(traced) - median_total(untraced),
        "host.loop_probe_ms": statistics.median(loops) * 1e3,
    })
    return metrics, {"trace.lib_s": summary([sum(p) for p in traced]),
                     "lib_s.untraced": summary([sum(p) for p in untraced])}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    root = os.getcwd()
    global ps, checks
    ps = load_partsel(root)
    import checks
    if args.workload == "all":
        return run_all(root, args)

    # The CLI children, and the default recorded here, use the default thread count.
    os.environ.pop("DP_PS_THREADS", None)
    threads_fn = getattr(ps.cli, "_threads", None)
    env = probes.environment(root, bool(args.trace), threads_fn() if threads_fn else None)
    w = workloads.WORKLOADS[args.workload]
    work = os.path.join(root, "perfbench", "_work")
    job_dir = os.path.join(work, f"{w.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(job_dir, ignore_errors=True)
    manifest = workloads.generate(w, args.seed, job_dir)
    job = Job(w, job_dir, manifest, seed=args.seed % 2**64)
    run = Run(job, root)
    run.first_library_job()
    tracer = tracing.Tracer(f"{w.name}-{args.seed}-{uuid.uuid4().hex[:12]}")
    if args.trace:
        metrics, detail = measure_layers(run, args.seconds, tracer)
        names = PER_LAYER
    else:
        metrics, detail = measure_end_to_end(run, args.seconds)
        names = END_TO_END
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in names.items()},
    }
    report = dict(result, workload=w.name, seed=args.seed, environment=env, manifest=manifest,
                  detail=detail, failures=run.failures)
    stem = os.path.join(work, f"result-{w.name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        tracer.dump(stem + ".trace.json")
    with open(stem + ".json", "w", encoding="utf-8") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    shutil.rmtree(job_dir, ignore_errors=True)
    print_report(report, names)
    print(json.dumps(result))


def print_report(report: dict, names: dict[str, str]) -> None:
    w = workloads.WORKLOADS[report["workload"]]
    print(f"# {w.name} (seed {report['seed']}): {w.why}")
    print(f"# env {json.dumps(report['environment'], sort_keys=True)}")
    rows = report["manifest"]["reference"]["rows"]
    loop = report["detail"].get("loop_probe_s")
    if loop:
        print(f"# loop probe: median {loop['median'] * 1e3:.2f} ms over {loop['n']} samples; lib_s is its raw median"
              f" x {LOOP_REF_S * 1e3:g} ms / that; the figures after n= are raw")
    for name, unit in names.items():
        value = report["metrics"][name]["value"]
        extra = report["detail"].get(name)
        line = f"{name:<48} {value:>14.6g} {unit:<8}"
        if extra:
            line += f" n={extra['n']} " + ", ".join(f"{k} {v:.4g}" for k, v in extra.items() if k != "n")
        if name in ("job_s", "lib_s") and w.command == "select":
            line += f"; {value / rows * 1e9:.0f} ns/row over {rows} rows"
        print(line)
    print(f"{'failed_frac':<48} {report['failed'] / report['attempted']:>14.6g} ratio    "
          f"{report['failed']} of {report['attempted']} operations")
    for failure in report["failures"][:20]:
        print(f"FAILED: {failure}")


def run_all(root: str, args) -> None:
    """Run every workload in its own process and print their metrics together."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} failed:\n{proc.stderr}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
