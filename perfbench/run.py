"""End-to-end benchmark of the `lscat` CLI.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload spin9-caps --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One process, one client, one op at a time: each op is an in-process call
of `lscat.cli.main` with its output captured.  A run

1. sets up `SETUP_REPEATS` times (purge and import `lscat`, generate and
   write the SU(n) fixtures) and reports the median as `setup_s`;
2. checks the generated fixtures;
3. runs `VERIFY_PASSES` untimed passes over the workload's op mix, checking
   each op's first output against known answers;
4. with `--trace 0`, runs whole timed passes for `--seconds` (at least
   `RSS_PASSES`, after which it reads `peak_rss_mb`) and reports the
   end-to-end metrics; with `--trace 1`, runs untraced passes for
   half the time, installs the outside-in tracer and runs traced passes for
   the other half, and reports the per-layer metrics;
5. schema-validates one JSON report per input.

Every reported time is calibrated against the machine's current speed
(see calibration.py); the uncalibrated values are printed alongside.
An op fails on a nonzero exit code, a known-answer mismatch, or output
that differs in bytes from the same op's first output in the run.  The
seed fixes the order of the ops in every pass.  The last line of standard
output is the result object; the exit code is nonzero when any op failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from calibration import slowdown, smoothed
from fixtures import enumerated_series, product_series, su_factors, su_fixture
from spans import MODEL_SETUP_SPANS, Tracer
from workloads import SPIN9_CAPS, SU_LADDER, WORKLOADS, fixture_check_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

SETUP_REPEATS = 11
VERIFY_PASSES = 2
# Timed passes before peak_rss_mb is read: a fixed amount of work, enough
# for memory kept alive per op (the `Algebra.basis` caches) to show.
RSS_PASSES = 20
MIN_TAIL_SAMPLES = 11  # the tail percentile needs ten samples beyond it
MIN_TRACED_PASSES = 2
HARD_LIMIT_S = 150.0

# Spans each workload is meant to reach (checked in traced runs).
EXPECTED_SPANS = {
    "spin9-caps": (
        "weights.LoopSpaceModel.find_obstruction",
        "weights.LoopSpaceModel.mwgt_lower_bound",
        "specseq.truncate", "specseq.apply_differential",
        "specseq.classify_truncation", "specseq.infer_differentials",
        "specseq.koszul_e2", "steenrod.SteenrodAction.total_square",
        "steenrod.SteenrodAction.image_of_sq",
        "algebra.Element.homogeneous_part", "algebra.Element.__mul__",
        "algebra.Algebra.basis", "gf2.rref", "spaces.validate",
        "bounds.assemble_bracket", "report.build_report",
        "report.build_ledger", "cli.json.dumps",
    ),
    "su-ladder": (
        "weights.LoopSpaceModel.find_obstruction",
        "weights.LoopSpaceModel.mwgt_lower_bound",
        "specseq.truncate", "specseq.classify_truncation",
        "specseq.infer_differentials", "specseq.koszul_e2",
        "steenrod.SteenrodAction.total_square",
        "algebra.Element.homogeneous_part", "algebra.Element.__mul__",
        "algebra.Algebra.basis", "spaces.SpacePresentation.load",
        "spaces.validate", "bounds.assemble_bracket",
        "report.build_report", "cli.json.dumps",
    ),
    "pages": (
        "specseq.koszul_e2", "specseq.infer_differentials",
        "specseq.apply_differential", "algebra.Algebra.basis", "gf2.rref",
        "spaces.validate", "spaces.SpacePresentation.load",
        "report.page_at", "specseq.BigradedPage.to_json", "cli.json.dumps",
    ),
}
# weights.stages_past_saturation per pass: the stages m = 0..cap above the
# largest E2 column, 23/28/34 for spin9 at caps 36/44/52 and n^2 - n for
# SU(n) (cap n^2 - 1, largest column n - 1).
SPIN9_PAST_SATURATION = {36: 23, 44: 28, 52: 34}
STAGES_PAST_SATURATION = {
    "spin9-caps": sum(SPIN9_PAST_SATURATION[cap] for cap in SPIN9_CAPS),
    "su-ladder": sum(n * n - n for n in SU_LADDER),
    "pages": 0,
}


class BenchmarkError(RuntimeError):
    pass


class Runner:
    """Runs ops through the CLI and checks their outputs."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first: dict[str, tuple[str, str]] = {}  # key -> (sha256, stdout)
        self.tracer = None  # numbers the ops while tracing

    def run(self, op) -> float:
        """Run one op; return its wall time in seconds."""
        if self.tracer is not None:
            self.tracer.op += 1
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an op that crashes is a failed op, not a crash
            code = None
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t0
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {err.getvalue().strip()[-400:]}")
        first = self.first.get(op.key)
        if first is None:
            self.first[op.key] = (digest, text)
            if not problems:
                problems.extend(op.check(text))
        elif first[0] != digest:
            problems.append("output differs in bytes from its first run")
        self.record(op.key, problems)
        return dt

    def record(self, key: str, problems: list[str]):
        """Count one checked op or check; it failed if `problems` is nonempty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{key}: {'; '.join(problems)}")


def _purge_lscat():
    for name in [n for n in sys.modules if n == "lscat" or n.startswith("lscat.")]:
        del sys.modules[name]


def setup_once(workload, work_dir: Path):
    """Import lscat and write the workload's fixtures; return (seconds, cli, paths)."""
    _purge_lscat()
    t0 = time.perf_counter()
    importlib.import_module("lscat")
    cli = importlib.import_module("lscat.cli")
    paths = {}
    for n in workload.su_fixtures:
        path = work_dir / f"su{n}.json"
        path.write_text(json.dumps(su_fixture(n), indent=2) + "\n")
        paths[n] = str(path)
    return time.perf_counter() - t0, cli, paths


def check_fixtures(runner: Runner, paths: dict[int, str]):
    """Independent checks on the generated files (untimed)."""
    for n, path in sorted(paths.items()):
        data = json.loads(Path(path).read_text())
        same = enumerated_series(data) == product_series(su_factors(n), n * n - 1)
        runner.record(f"fixture-check series su{n}", [] if same else [
            "Poincare series of the file is not prod(1 + t^(2j-1))"
        ])
    for op in fixture_check_ops(paths):
        runner.run(op)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least ten
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < MIN_TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - MIN_TAIL_SAMPLES], 100.0 * (n - MIN_TAIL_SAMPLES + 1) / n


class Passes:
    """Wall times of whole passes and of the workload's largest op.

    A pass's wall time is the sum of its ops' times.  The machine slowdown
    is measured before each pass, and again right before and after each
    run of the largest op, whose samples are calibrated by the mean of
    those two closer measurements.
    """

    def __init__(self, size: int):
        self.size = size  # ops per pass
        self.walls: list[float] = []
        self.slowdowns: list[float] = []
        self.largest: list[tuple[float, float]] = []  # (seconds, slowdown)

    def calibrated_walls(self) -> list[float]:
        return [w / f for w, f in zip(self.walls, smoothed(self.slowdowns))]

    def calibrated_largest(self) -> list[float]:
        return [dt / f for dt, f in self.largest]

    @property
    def ops_per_s(self) -> float:
        """Ops per second at the median calibrated pass time."""
        return self.size / statistics.median(self.calibrated_walls())


def run_passes(runner, ops, rng, seconds, min_passes=1, min_samples=0,
               on_pass_start=None, on_pass_end=None) -> Passes:
    """Whole passes until `seconds` have passed and the minimums are met."""
    log = Passes(len(ops))
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        done = elapsed >= seconds and len(log.walls) >= min_passes \
            and len(log.largest) >= min_samples
        if done or (log.walls and elapsed >= HARD_LIMIT_S):
            return log
        order = rng.sample(ops, len(ops))
        log.slowdowns.append(slowdown())
        if on_pass_start:
            on_pass_start()
        wall = 0.0
        for op in order:
            before = slowdown() if op.largest else None
            dt = runner.run(op)
            wall += dt
            if before is not None:
                log.largest.append((dt, (before + slowdown()) / 2))
        log.walls.append(wall)
        if on_pass_end:
            on_pass_end()


def schema_check(runner: Runner, ops):
    """Validate the first JSON report of every report op (untimed)."""
    try:
        import jsonschema
    except ImportError:
        runner.record("schema", ["jsonschema is not installed"])
        return
    schema = json.loads(
        (SRC / "lscat" / "schemas" / "report.schema.json").read_text()
    )
    for op in ops:
        if op.kind != "report" or op.key not in runner.first:
            continue
        try:
            jsonschema.validate(json.loads(runner.first[op.key][1]), schema)
            problems = []
        except (jsonschema.ValidationError, json.JSONDecodeError) as exc:
            problems = [str(exc).splitlines()[0]]
        runner.record(f"schema {op.key}", problems)


def timed_metrics(runner, ops, rng, seconds, setup):
    """End-to-end metrics from untraced passes; returns (metrics, notes).

    Times are calibrated (see calibration.py); `setup` is a list of
    (seconds, slowdown) pairs.
    """
    rss = []

    def read_rss():
        if len(rss) < RSS_PASSES:
            rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    log = run_passes(runner, ops, rng, seconds, min_passes=RSS_PASSES,
                     min_samples=MIN_TAIL_SAMPLES, on_pass_end=read_rss)
    largest = log.calibrated_largest()
    tail, pct = tail_percentile(largest)
    setup_s = [s / f for (s, _), f in zip(setup, smoothed([f for _, f in setup]))]
    metrics = {
        "ops_per_s": (log.ops_per_s, "1/s"),
        "largest_op_s.p50": (statistics.median(largest), "s"),
        "largest_op_s.tail": (tail, "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (rss[-1], "MiB"),
    }
    name = next(op.key for op in ops if op.largest)
    raw = [dt for dt, _ in log.largest]
    notes = [
        f"{len(log.walls)} timed passes of {len(ops)} ops in "
        f"{sum(log.walls):.3f} s; largest op '{name}': {len(largest)} "
        f"samples, tail = p{pct:.1f} (at least {MIN_TAIL_SAMPLES - 1} "
        "samples above it)",
        f"machine slowdown (median over passes): "
        f"{statistics.median(log.slowdowns):.4f}; uncalibrated: ops_per_s "
        f"{log.size / statistics.median(log.walls):.6g}, largest_op_s.p50 "
        f"{statistics.median(raw):.6g}, largest_op_s.tail "
        f"{tail_percentile(raw)[0]:.6g}, setup_s "
        f"{statistics.median(s for s, _ in setup):.6g}",
        f"peak_rss_mb read after {VERIFY_PASSES} verification and "
        f"{len(rss)} timed passes ({rss[0]:.2f} MiB after the first)",
        f"setup: {SETUP_REPEATS} repeats, calibrated s: "
        + ", ".join(f"{s:.4f}" for s in setup_s),
    ]
    return metrics, notes


def traced_metrics(runner, ops, rng, seconds, workload_name):
    """Per-layer metrics: untraced passes for half the time, then traced
    passes for the other half.  Returns (metrics, notes)."""
    plain_ops_per_s = run_passes(runner, ops, rng, seconds / 2).ops_per_s
    tracer = Tracer()
    tracer.install({n: m for n, m in sys.modules.items()
                    if n == "lscat" or n.startswith("lscat.")})
    reports = sum(1 for op in ops if op.kind == "report")
    counters, times, fired = [], [], []
    shapes = {}

    def end_pass():
        counters.append(tracer.counters(reports))
        times.append(tracer.times())
        fired.append(set(tracer.fired()))
        shapes.update(tracer.rref_shapes)

    runner.tracer = tracer
    try:
        log = run_passes(runner, ops, rng, seconds / 2,
                         min_passes=MIN_TRACED_PASSES,
                         on_pass_start=tracer.reset, on_pass_end=end_pass)
    finally:
        runner.tracer = None

    problems = []
    for i, c in enumerate(counters[1:], start=2):
        if c != counters[0]:
            diff = {k: (counters[0][k], v) for k, v in c.items() if counters[0][k] != v}
            problems.append(f"counters of traced pass {i} differ from pass 1: {diff}")
    problems += [f"expected span {name} did not fire"
                 for name in EXPECTED_SPANS[workload_name] if name not in fired[0]]
    if workload_name == "pages":
        search = sorted(n for n in fired[0]
                        if n.startswith("weights.") and n not in MODEL_SETUP_SPANS)
        if search:
            problems.append(f"weight/witness-search spans fired on pages: {search}")
    past = counters[0]["weights.stages_past_saturation"]
    if past != STAGES_PAST_SATURATION[workload_name]:
        problems.append(f"weights.stages_past_saturation is {past}, want "
                        f"{STAGES_PAST_SATURATION[workload_name]}")

    metrics = {k: (v, "count") for k, v in counters[0].items()}
    factors = smoothed(log.slowdowns)
    metrics.update({k: (statistics.median(t[k] / f for t, f in zip(times, factors)), "s")
                    for k in times[0]})
    metrics["trace_overhead"] = (plain_ops_per_s / log.ops_per_s - 1.0, "ratio")
    notes = [
        f"untraced {plain_ops_per_s:.4f} ops/s, traced {log.ops_per_s:.4f} "
        f"ops/s over {len(times)} traced passes",
        f"trace check failures: {len(problems)}",
        "gf2.rref shapes per pass (rows x pivot columns: calls): " + ", ".join(
            f"{r}x{c}: {n}" for (r, c), n in sorted(shapes.items())
        ),
    ] + [f"TRACE CHECK FAILED: {p}" for p in problems]
    return metrics, notes


def metadata(args, backend) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "lscat").rglob("*")):
        if path.suffix in (".py", ".json", ".pyx") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "gf2_backend": backend,
        "LSCAT_GF2_BACKEND": os.environ.get("LSCAT_GF2_BACKEND"),
    }


def git_commit() -> str | None:
    """HEAD's commit id, or None outside a git checkout or without git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    work_dir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run_workload(args, workload, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def _run_workload(args, workload, work_dir: Path) -> int:
    setup = []
    for _ in range(SETUP_REPEATS):
        factor = slowdown()
        dt, cli, paths = setup_once(workload, work_dir)
        setup.append((dt, factor))
    lscat = sys.modules["lscat"]
    if not Path(lscat.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"lscat was imported from {lscat.__file__}, not {SRC}")

    runner = Runner(cli)
    check_fixtures(runner, paths)
    ops = workload.build(paths)
    rng = random.Random(args.seed)
    run_passes(runner, ops, rng, 0.0, min_passes=VERIFY_PASSES)

    if args.trace:
        metrics, notes = traced_metrics(runner, ops, rng, args.seconds,
                                        workload.name)
    else:
        metrics, notes = timed_metrics(runner, ops, rng, args.seconds,
                                       setup)
    schema_check(runner, ops)
    correct = runner.failed == 0
    lines = [f"# perfbench {workload.name}"] + [f"# {n}" for n in notes]
    lines.append("# meta " + json.dumps(metadata(args, lscat.GF2_BACKEND)))
    for key, (digest, _) in sorted(runner.first.items()):
        lines.append(f"# sha256 {digest} {key}")
    lines.extend(f"# FAILED: {f}" for f in runner.failures)
    lines.append(
        f"# failed_ratio = {runner.failed}/{runner.attempted} = "
        f"{runner.failed / runner.attempted:.4f}"
    )
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    lines.append(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        results[name] = {"exit": proc.returncode, "result": result}
    print(json.dumps({"workloads": results}))
    return int(any(r["exit"] for r in results.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lscat" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no lscat sources under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        return run_workload(args)
    except BenchmarkError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
