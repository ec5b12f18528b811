"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` and
the golden tables from ``tests/test_acceptance.py``; without them the run
exits with code 2 and prints no result.

``--trace 0`` measures the end-to-end metrics: passes run back to back
within ``--seconds`` (at least one), each op is timed, and set-up is timed
in fresh interpreters.  Times are reported at a reference machine speed: a
fixed calibration kernel is timed between ops, and every timed piece is
scaled by the samples taken either side of it, to the workload's power in
``SPEED_EXPONENT`` (see ``calibration_sample``).  Set-up is not scaled.
``--trace 1`` runs untraced passes for half the time, then one pass with
span and counter wrappers installed, and reports the per-layer metrics.
Every op's output is checked after timing.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``bench/README.md`` for the workloads and
the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

SETUP_REPEATS = 7
# The kernel of ``calibration_sample`` takes this long at the reference speed:
# its median over ten 20-second runs on the shared 2-core Xeon VM the baseline
# was measured on, so scaled times stay close to wall times there.
CALIBRATION_REF_S = 3.0e-3
# How far each workload's times follow the kernel: a timed piece is scaled by
# (CALIBRATION_REF_S / kernel time) ** exponent.  Each is the exponent, of 0,
# 0.5 and 1, under which the end-to-end timings of repeated runs of the
# workload spread least on the baseline machine (see bench/README.md).
# multinomial_table's large-array numpy passes barely follow the kernel, and
# scaling their few long pieces added noise, so they are reported as measured.
SPEED_EXPONENT = {
    "multinomial_table": 0.0,
    "truncated_tables": 1.0,
    "mvg_systems": 1.0,
    "cli_oracle": 0.5,
}
# A new calibration sample is taken between two ops once this much time has
# passed since the previous one, and at the start and end of every pass.
CALIBRATE_EVERY_S = 0.05
TAIL_LEVELS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "first_value_s": "s",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
}

# Reported with the per-layer metrics, which carry no bound, instead of with
# the end-to-end ones: the typical op is a 0.1-20 ms call that sits between
# groups of ops of different lengths, and even at the reference speed its
# spread between runs of the same code on mvg_systems stayed at 15-20% on the
# shared 2-core Xeon VM, too close to any bound a later change could be held to.
UNGATED = {"op_ms_p50": "ms"}

PER_LAYER = {**tracing.PER_LAYER, **UNGATED}


@dataclass
class PassResult:
    """One pass; ``seconds``, ``first_value_s`` and ``latencies`` are scaled
    to the reference speed, ``raw_seconds`` is the unscaled sum of the same
    timed pieces."""

    seconds: float
    first_value_s: float
    latencies: list[float]
    outputs: dict = field(repr=False)
    raw_seconds: float = 0.0
    calibration_s: list[float] = field(default_factory=list, repr=False)


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: int):
        self.x = x
        self.y = x + 1


def _visit(point: _Point, table: dict) -> int:
    return point.x + table.get(point.y, 0)


_KERNEL_INPUT = None


def calibration_sample() -> float:
    """Seconds a fixed kernel of the benchmark's own takes at this moment.

    The shared VM's speed drifts by up to 2x within seconds and between
    runs, and every op slows with it.  The kernel is the mix most ops run:
    4,500 small Python calls with attribute and dict lookups, then 450
    numpy ufunc calls on a 50-element array.  Timing it beside the ops gives
    the machine's current speed.  numpy is imported here, not at the top, so
    that set-up time still includes its import.
    """
    global _KERNEL_INPUT
    import numpy as np

    if _KERNEL_INPUT is None:
        points = [_Point(i) for i in range(1500)]
        table = {i: i for i in range(0, 1500, 3)}
        _KERNEL_INPUT = (points, table, np.arange(50.0))
    points, table, small = _KERNEL_INPUT
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(3):
        for point in points:
            acc += _visit(point, table)
    for _ in range(450):
        acc += float(np.exp(small * -0.01).sum())
    return time.perf_counter() - t0


def scale(raw: list[float], opened_by: list[int], samples: list[float], exponent: float = 1.0) -> list[float]:
    """Each timed piece at the reference speed.

    Piece j ran after calibration sample ``opened_by[j]`` and before the
    next one; with c the mean of those two samples it is scaled by
    ``(CALIBRATION_REF_S / c) ** exponent``.
    """
    return [t * (2.0 * CALIBRATION_REF_S / (samples[o] + samples[o + 1])) ** exponent for t, o in zip(raw, opened_by)]


def run_pass(items, lm, Raised, tracer=None, exponent: float = 1.0) -> PassResult:
    """Build each item and run its ops; library errors become values.

    The timed pieces are each item's build, each op and the release of the
    item's model; calibration runs between them, outside every piece.
    ``exponent`` is the workload's entry of ``SPEED_EXPONENT``.
    """
    outputs: dict = {}
    now = time.perf_counter
    samples = [calibration_sample()]
    last_sample = now()
    raw: list[float] = []
    opened_by: list[int] = []
    op_pieces: list[int] = []
    first_pieces: list[int] = []

    def between_pieces():
        nonlocal last_sample
        if now() - last_sample >= CALIBRATE_EVERY_S:
            samples.append(calibration_sample())
            last_sample = now()

    def piece(seconds: float) -> int:
        raw.append(seconds)
        opened_by.append(len(samples) - 1)
        return len(raw) - 1

    for item in items:
        if tracer is not None:
            tracer.op = f"build:{item.name}"
        between_pieces()
        t0 = now()
        ctx = item.build()
        first_pieces.append(piece(now() - t0))
        for i, op in enumerate(item.ops):
            if tracer is not None:
                tracer.op = op.name
            between_pieces()
            t0 = now()
            try:
                value = op.run(ctx)
            except lm.LifemomentsError as e:
                value = Raised(f"{type(e).__name__}: {e}")
            op_pieces.append(piece(now() - t0))
            if i == 0:
                first_pieces.append(op_pieces[-1])
            outputs[op.name] = value
        t0 = now()
        del ctx  # the next item's model must not coexist with this one
        piece(now() - t0)
    samples.append(calibration_sample())
    scaled = scale(raw, opened_by, samples, exponent)
    return PassResult(
        seconds=math.fsum(scaled),
        first_value_s=math.fsum(scaled[j] for j in first_pieces),
        latencies=[scaled[j] for j in op_pieces],
        outputs=outputs,
        raw_seconds=math.fsum(raw),
        calibration_s=samples,
    )


def typical_op(passes: list[PassResult]) -> float:
    """Median over ops of each op's median latency across passes.

    Ops run in the same order in every pass.  Taking each op once keeps the
    median on one op: pooled samples put it on the boundary between two
    groups of ops (2-3 ms and 6 ms ops in truncated_tables, 13 ms and 23 ms
    invocations in cli_oracle), where run-to-run noise flips which it reports.
    """
    return statistics.median(statistics.median(lat) for lat in zip(*(res.latencies for res in passes)))


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """(value, level, samples beyond) at the highest level of TAIL_LEVELS that
    still leaves TAIL_MIN_BEYOND samples above it; the median when none does."""
    xs = sorted(samples)
    n = len(xs)
    best = None
    for level in TAIL_LEVELS:
        rank = max(1, math.ceil(level / 100.0 * n))
        if n - rank >= TAIL_MIN_BEYOND:
            best = (xs[rank - 1], level, n - rank)
    if best is None:
        rank = max(1, math.ceil(n / 2))
        best = (xs[rank - 1], 50.0, n - rank)
    return best


# ---------------------------------------------------------------------------
# set-up in fresh interpreters
# ---------------------------------------------------------------------------

def setup_only(workload: str, seed: int) -> int:
    """Import the library and generate the workload's inputs; print the time."""
    t0 = time.perf_counter()
    import workloads

    workdir = OUT / f"setup-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workloads.generate(workload, seed, workdir)
        elapsed = time.perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def time_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter, unscaled.

    Set-up is mostly imports, whose time did not follow the calibration
    kernel: scaling each child's time by samples taken beside it made the
    spread between children larger, not smaller (see bench/README.md).
    """
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-only", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_passes(items, passes: list[PassResult], workloads) -> dict:
    """Verdicts for every op of every pass, and the failure tallies."""
    ops = [op for item in items for op in item.ops]
    failing: dict[str, object] = {}
    verdicts: dict[str, object] = {}
    unexpected = 0
    for res in passes:
        for op in ops:
            v = op.check(res.outputs[op.name], res.outputs)
            verdicts.setdefault(op.name, v)
            if not v.ok:
                failing.setdefault(op.name, v)
                if workloads.known_defect(op.name, v.kind) is None:
                    unexpected += 1
    errs = [v.err_over_d for v in verdicts.values() if v.err_over_d is not None]
    bound_bad = [name for name, v in failing.items() if v.kind == "bound"]
    closed_bad = [op.name for op in ops if op.closed_form and op.name in failing]
    return {
        "ops": ops,
        "failing": failing,
        "unexpected": unexpected,
        "truncated_ops": len(errs),
        "bound_violations": len(bound_bad),
        "err_over_d_max": max(errs, default=0.0),
        "closed_form_wrong": len(closed_bad),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # String hashing is randomised per interpreter, and with it the layout of
    # every dict and set keyed by strings; pass times of one seed moved by
    # several per cent between interpreters.  Fix it by restarting this
    # interpreter once with a fixed hash seed (set-up children inherit it).
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": "0"})
    # One single-threaded process: a BLAS thread pool would spin on the second
    # core between calls and make timings depend on whatever else runs there.
    # Set before numpy is imported; set-up children inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "lifemoments" / "__init__.py").is_file() or not (
        ROOT / "tests" / "test_acceptance.py"
    ).is_file():
        print(f"bench: no library sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    if args.setup_only:
        return setup_only(args.workload, args.seed)

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    import lifemoments as lm

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        items = workloads.generate(args.workload, args.seed, workdir)
        untraced_budget = args.seconds / 2 if args.trace else args.seconds
        exponent = SPEED_EXPONENT[args.workload]
        calibration_sample()  # the first call pays numpy's first-use costs
        setup_samples: list[float] = []
        passes: list[PassResult] = []
        in_passes = 0.0
        # a pass starts only if one of median length still ends within budget
        while not passes or in_passes + statistics.median(res.raw_seconds for res in passes) <= untraced_budget:
            # set-up children are spread over the run, between passes and
            # outside the budget, so that each run's median mixes the speed
            # levels the machine switches between instead of catching one
            while len(setup_samples) < min(SETUP_REPEATS, 1 + SETUP_REPEATS * in_passes / untraced_budget):
                setup_samples.append(time_setup(args.workload, args.seed))
            t0 = time.perf_counter()
            passes.append(run_pass(items, lm, workloads.Raised, exponent=exponent))
            in_passes += time.perf_counter() - t0
            if len(passes) == 1:
                # the peak of one cold pass, as a one-table CLI process sees
                # it: later passes reuse freed heap in an allocator-dependent way
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup_samples) < SETUP_REPEATS:
            setup_samples.append(time_setup(args.workload, args.seed))
        traced = tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(lm)
            try:
                traced = run_pass(items, lm, workloads.Raised, tracer, exponent)
            finally:
                tracer.uninstall()
        checked = check_passes(items, passes + ([traced] if traced else []), workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops_per_pass = len(checked["ops"])
    latencies = [x for res in passes for x in res.latencies]
    tail_value, tail_level, tail_beyond = tail_percentile(latencies)
    pass_s = statistics.median(res.seconds for res in passes)
    end_to_end = {
        "setup_s": statistics.median(setup_samples),
        "pass_s": pass_s,
        "first_value_s": statistics.median(res.first_value_s for res in passes),
        "op_ms_tail": tail_value * 1e3,
        "peak_rss_mb": peak_rss_mb,
        # add-one so the ratio is never 0; the raw counts are in the report
        "fail_frac": (len(checked["failing"]) + 1) / (ops_per_pass + 1),
    }
    correct = checked["unexpected"] == 0
    op_ms_p50 = typical_op(passes) * 1e3
    layer = {}
    if traced is not None:
        layer = tracer.layer_metrics(traced.raw_seconds)
        layer.update({
            "orderstats.truncated_ops": checked["truncated_ops"],
            "orderstats.bound_violations": checked["bound_violations"],
            "orderstats.err_over_d_max": checked["err_over_d_max"],
            "mvg.closed_form_wrong": checked["closed_form_wrong"],
            "trace.overhead_frac": (traced.seconds - pass_s) / pass_s,
            "op_ms_p50": op_ms_p50,
        })
        # spans and the traced pass are both unscaled wall time
        closure = math.fsum(tracer.self_times()) + layer["trace.unattributed_s"] - traced.raw_seconds
        if abs(closure) > 1e-6 * max(1.0, traced.raw_seconds):
            print(f"bench: self times do not add up to the traced pass (off by {closure:.3g} s)", file=sys.stderr)
            correct = False
        tracer.write(OUT / f"spans-{args.workload}.csv.gz")

    import numpy
    import scipy

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "passes": len(passes),
        "traced_passes": int(traced is not None),
        "ops_per_pass": ops_per_pass,
        "ops_failing": len(checked["failing"]),
        "op_ms_tail_level": tail_level,
        "op_ms_tail_samples": len(latencies),
        "op_ms_tail_beyond": tail_beyond,
        "setup_repeats": SETUP_REPEATS,
        "calibration_ref_s": CALIBRATION_REF_S,
        "speed_exponent": SPEED_EXPONENT[args.workload],
        "calibration_median_s": statistics.median(c for res in passes for c in res.calibration_s),
        "calibration_samples": sum(len(res.calibration_s) for res in passes),
        "setup_samples_s": setup_samples,
        "pass_samples_s": [res.seconds for res in passes],
        "pass_raw_samples_s": [res.raw_seconds for res in passes],
    }
    failures = {
        name: {"kind": v.kind, "reason": v.reason, "known_defect": workloads.known_defect(name, v.kind)}
        for name, v in checked["failing"].items()
    }
    units = END_TO_END if not args.trace else PER_LAYER
    values = end_to_end if not args.trace else layer
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    report = {"provenance": provenance, "end_to_end": end_to_end, "op_ms_p50": op_ms_p50,
              "per_layer": layer, "failures": failures}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    for name, v in failures.items():
        tag = f"known: {v['known_defect']}" if v["known_defect"] else "UNEXPECTED"
        print(f"# fail {name} [{v['kind']}] {v['reason']} ({tag})")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"op_ms_p50 = {op_ms_p50:.6g} ms (no bound; traced runs report it with the per-layer metrics)")
    print(json.dumps({"provenance": provenance}))
    attempted = ops_per_pass * (len(passes) + int(traced is not None))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": checked["unexpected"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
