"""Benchmark of the edgecloud CLI, driven in-process through ``edgecloud.cli.dispatch``.

    python3 perfbench/run.py --workload cli-default --seed 0 --seconds 40 --trace 0

Run it from anywhere in a checkout; it imports ``edgecloud`` from the
checkout's ``src/`` and exits 2 without a result when that is missing. The
workload's plan file is generated from ``harness.default_plan(seed)``; the
program sees only that file and ``--out``. One closed-loop client runs one
command at a time on one BLAS thread. Every command's output is checked.

``--trace 0`` trains the plan in set-up, then for ``--seconds`` repeats a
one-epoch ``train``, ``evaluate`` and ``sweep``, and reports each command's
median in units of a reference computation timed between them. ``--trace 1`` runs train -> evaluate -> sweep on the full plan
once untraced and once traced (see tracing.py) and reports the per-layer
metrics. The last line of standard output is the
result: ``{"correct", "attempted", "failed", "metrics"}``. The line before it
records the environment, the raw samples and ``outputs.sha256``.
"""

import argparse
import contextlib
import copy
import io
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
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")

# A run makes at least this many timed iterations; the set-up steps that are
# repeated (imports, plan generation) are timed this many times too.
MIN_SAMPLES = 5

# The workloads' plan is the default plan on a fifth of its data: the models
# still train to the default plan's operating points, and each timed command
# takes about 0.2 s, short enough that many samples fit in a run.
DATA_N = 2_000

# The CLI sweeps {0, *c2_grid, c1}; one interior point keeps a sweep short.
SWEEP_C2_GRID = [0.3]

# Set-up trains the full plan this many times (median).
SETUP_TRAINS = 3

# The per-layer metrics are those of the default plan's 7 layer shapes.
# BENCHMARK.json lists them; test_perfbench.py keeps the two in step.
SHAPE_LABELS = ("dense-16x8", "dense-8x7", "dense-16x64", "dense-64x64", "dense-64x7",
                "dense-8x64", "residual-64x64")

END_TO_END = (("setup_s", "s"), ("pipeline_ref", "ref"), ("stage.train_epoch_ref", "ref"),
              ("stage.evaluate_ref", "ref"), ("sweep_configs_per_ref", "1/ref"),
              ("peak_rss_mb", "MB"))

# Session.times label of the reference computation's samples.
REFERENCE = "reference"


# Workload name -> the plan's recall_boost. Both run the same closed loop.
WORKLOADS = {
    # Default plan: training is ~85% of the wall time, routing ~15%.
    "cli-default": False,
    # Three-objective edge bundle: the only workload that reaches moo, and
    # its edge offloads every validation row.
    "cli-recall-boost": True,
}
LOOP = ("train", "evaluate", "sweep")


def make_plan(harness, recall_boost: bool, seed: int):
    plan = harness.default_plan(seed)
    plan.recall_boost = recall_boost
    plan.data.n = DATA_N
    plan.c2_grid = list(SWEEP_C2_GRID)
    return plan


def one_epoch(plan):
    """The plan with every training stage cut to one epoch."""
    cut = copy.deepcopy(plan)
    for stage in cut.stages.values():
        stage.epochs = 1
    return cut


def sweep_grid_size(plan) -> int:
    """Configurations one ``sweep`` command scores (the CLI adds 0 and c1)."""
    c1 = plan.policies[0].c1 if plan.policies else 0.8
    return len({0.0, *plan.c2_grid, c1})


class Session:
    """Runs CLI commands one after another, times them and checks their outputs."""

    def __init__(self, cli, checks, grid_size: int) -> None:
        self.cli = cli
        self.checks = checks
        self.grid_size = grid_size
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        # label -> wall times; a label is a command on one plan.
        self.times: dict[str, list[float]] = {}
        self.reference: dict[str, dict[str, str]] = {}

    def command(self, label: str, cmd: str, plan_path: str, out_dir: str) -> float:
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.cli.dispatch([cmd, "--config", plan_path, "--out", out_dir])
        except Exception:  # a crash is one failed command; the run goes on
            rc = None
            sink.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        self.attempted += 1
        self.times.setdefault(label, []).append(seconds)
        if rc == 0:
            problems = self.verify(label, cmd, out_dir)
        else:
            problems = [f"{label}: {cmd} exited {rc}: {sink.getvalue()[-400:].strip()}"]
        if problems:
            self.failed += 1
            self.problems += problems
        return seconds

    def verify(self, label: str, cmd: str, out_dir: str) -> list[str]:
        checks = self.checks
        names = {"train": checks.TRAIN_FILES, "evaluate": checks.EVALUATE_FILES,
                 "sweep": checks.SWEEP_FILES}[cmd]
        try:
            problems = []
            if cmd == "evaluate":
                problems += checks.check_reports(checks.read_rows(os.path.join(out_dir, "reports.csv")))
            elif cmd == "sweep":
                rows = checks.read_rows(os.path.join(out_dir, "sweep.csv"))
                reports = checks.read_rows(os.path.join(out_dir, "reports.csv"))
                problems += checks.check_sweep(rows, reports)
                if len(rows) != self.grid_size:
                    problems.append(f"sweep: {len(rows)} rows, expected {self.grid_size}")
            digests = checks.dir_digests(out_dir, names)
        except (OSError, KeyError, ValueError) as exc:
            return [f"{label}: unreadable output ({exc!r})"]
        reference = self.reference.setdefault(label, digests)
        changed = sorted(n for n in names if digests[n] != reference[n])
        if changed:
            problems.append(f"{label}: repeat differs from the first in {', '.join(changed)}")
        return problems

    def outputs_digest(self) -> str:
        merged = {f"{label}/{name}": d
                  for label, ds in self.reference.items() for name, d in ds.items()}
        return self.checks.combined_digest(merged)


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = list(dict.fromkeys(line.split()[-1] for line in fh if "openblas" in line.lower()))
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit(root: str) -> str:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_files() -> list[str]:
    pkg = os.path.join(SRC, "edgecloud")
    return sorted(os.path.join(pkg, n) for n in os.listdir(pkg) if n.endswith(".py"))


def environment(numpy, checks, args) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(ROOT),
        "src_sha256": checks.combined_digest(
            {os.path.basename(p): checks.file_digest(p) for p in source_files()}),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
    }


def count_lines(paths) -> int:
    total = 0
    for path in paths:
        with open(path, "rb") as fh:
            total += sum(1 for _ in fh)
    return total


def parse_args(argv):
    parser = argparse.ArgumentParser(description="edgecloud CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_loop(session: Session, plan_path: str, out_dir: str) -> float:
    """train -> evaluate -> sweep on one plan into one output directory."""
    return sum(session.command(cmd, cmd, plan_path, out_dir) for cmd in LOOP)


def reference_seconds() -> float:
    """Wall time of a fixed computation that uses no edgecloud code: 80 SGD
    steps of a 16-64-64-7 MLP on a 64-row batch, then 200 rows forwarded one
    at a time. It is the same kind of work as the program's (small numpy
    calls driven from Python), so a busy shared host slows both alike."""
    import numpy as np
    rng = np.random.default_rng(0)
    w1, w2, w3 = (0.1 * rng.standard_normal(shape) for shape in ((16, 64), (64, 64), (64, 7)))
    x, y = rng.standard_normal((64, 16)), rng.integers(0, 7, 64)
    rows = np.arange(64)
    start = time.perf_counter()
    for _ in range(80):
        h1 = np.maximum(x @ w1, 0.0)
        h2 = np.maximum(h1 @ w2, 0.0)
        z = h2 @ w3
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[rows, y] -= 1.0
        d2 = (p @ w3.T) * (h2 > 0)
        d1 = (d2 @ w2.T) * (h1 > 0)
        w3 -= 0.01 * (h2.T @ p)
        w2 -= 0.01 * (h1.T @ d2)
        w1 -= 0.01 * (x.T @ d1)
    for i in range(200):
        float(np.tanh(np.maximum(x[i % 64:i % 64 + 1] @ w1, 0.0) @ w2).max())
    return time.perf_counter() - start


def measure(session: Session, plan_path: str, epoch_plan_path: str, work: str,
            seconds: float) -> None:
    """Closed loop for ``seconds``, after set-up has trained ``plan_path``
    into ``work/trained``. One iteration runs a one-epoch ``train`` into
    ``work/epoch``, then ``evaluate`` and ``sweep`` on the trained
    checkpoints, each preceded by one ``reference_seconds`` sample.
    Iterations go on until the next would overrun, and at least
    ``MIN_SAMPLES`` are made."""
    trained, epoch = os.path.join(work, "trained"), os.path.join(work, "epoch")
    steps = (("train-epoch", "train", epoch_plan_path, epoch),
             ("evaluate", "evaluate", plan_path, trained),
             ("sweep", "sweep", plan_path, trained))
    reference = session.times.setdefault(REFERENCE, [])
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        iteration = time.perf_counter()
        for step in steps:
            reference.append(reference_seconds())
            session.command(*step)
        durations.append(time.perf_counter() - iteration)
        if len(durations) >= MIN_SAMPLES and \
                time.perf_counter() - start + statistics.median(durations) > seconds:
            break


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing the CLI from ``src/``."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import edgecloud.cli"], cwd=ROOT, check=True,
                   env=dict(os.environ, PYTHONPATH=SRC), stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def end_to_end(session: Session, setup_s: float, grid_size: int) -> dict[str, float]:
    """Timed commands in units of the reference computation: the median of a
    command's samples over the median of the reference samples taken between
    them. Co-tenant load on the shared host slows whole runs by up to half;
    the ratio cancels that, where a time in seconds would carry it."""
    ref = {label: statistics.median(ts) / statistics.median(session.times[REFERENCE])
           for label, ts in session.times.items()}
    return {
        "setup_s": setup_s,
        "pipeline_ref": ref["train-epoch"] + ref["evaluate"] + ref["sweep"],
        "stage.train_epoch_ref": ref["train-epoch"],
        "stage.evaluate_ref": ref["evaluate"],
        "sweep_configs_per_ref": grid_size / ref["sweep"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace_checks(tracer, absent, recall_boost: bool, plan, ds, grid_size: int) -> list[str]:
    """Exact call counts one traced ``LOOP`` must show; functions found
    absent are skipped."""
    exact = {"policy.route_sample": len(ds.val_idx) * (len(plan.policies) + grid_size)}
    if not recall_boost:
        n = len(ds.train_idx)
        steps = sum(s.epochs * math.ceil(n / s.batch_size) for s in plan.stages.values())
        exact.update({"nncore.adjoints": steps, "moo.solve_min_norm": 0})
    problems = [f"trace: {name} called {tracer.calls(name)} times, expected {want}"
                for name, want in exact.items()
                if name not in absent and tracer.calls(name) != want]
    if recall_boost and "moo.solve_min_norm" not in absent and \
            tracer.calls("moo.solve_min_norm") == 0:
        problems.append("trace: moo.solve_min_norm never called with recall boosting")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread: set before numpy is first imported.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "edgecloud", "__init__.py")):
        print(f"error: no edgecloud package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import numpy
    import edgecloud
    from edgecloud import cli, harness
    from perfbench import checks, tracing
    if os.path.dirname(os.path.abspath(edgecloud.__file__)) != os.path.join(SRC, "edgecloud"):
        print(f"error: edgecloud imported from {edgecloud.__file__}, not {SRC}", file=sys.stderr)
        return 2

    recall_boost = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(work)
    try:
        # Set-up: a fresh interpreter's imports and the two plan files, each
        # timed MIN_SAMPLES times (median).
        import_s = statistics.median([import_seconds() for _ in range(MIN_SAMPLES)])
        plan_path = os.path.join(work, "plan.json")
        epoch_plan_path = os.path.join(work, "plan-epoch.json")
        plan_times = []
        for _ in range(MIN_SAMPLES):
            start = time.perf_counter()
            plan = make_plan(harness, recall_boost, args.seed)
            harness.save_plan(plan_path, plan)
            harness.save_plan(epoch_plan_path, one_epoch(plan))
            plan_times.append(time.perf_counter() - start)
        grid_size = sweep_grid_size(plan)
        session = Session(cli, checks, grid_size)
        setup_s = import_s + statistics.median(plan_times)

        if args.trace == 0:
            # The full training that evaluate and sweep need is set-up too;
            # its repeats must write identical checkpoints.
            trained = os.path.join(work, "trained")
            setup_s += statistics.median(session.command("train", "train", plan_path, trained)
                                         for _ in range(SETUP_TRAINS))
            measure(session, plan_path, epoch_plan_path, work, args.seconds)
            values = end_to_end(session, setup_s, grid_size)
            specs = END_TO_END
            extra = {"median_s": {label: statistics.median(ts)
                                  for label, ts in session.times.items()},
                     "samples": session.times}
        else:
            untraced = run_loop(session, plan_path, os.path.join(work, "it0"))
            tracer = tracing.Tracer()
            edge, cloud, adapter = harness.build_models(plan)
            probes = tracing.Probes(tracer, edge.name, cloud.name)
            with tracing.installed(tracer, probes.hooks()) as absent:
                traced = run_loop(session, plan_path, os.path.join(work, "it1"))
            ds = harness.build_dataset(plan)
            session.problems += trace_checks(tracer, absent, recall_boost, plan, ds, grid_size)
            shapes = tracing.shape_labels((edge, cloud, adapter))
            if shapes != list(SHAPE_LABELS):
                session.problems.append(f"trace: plan layer shapes {shapes} != {list(SHAPE_LABELS)}")
            routed = 2 * len(ds.val_idx)  # one evaluate and one sweep
            values = tracing.layer_values(
                tracer, probes, SHAPE_LABELS, absent=absent, val_rows_routed=routed,
                flop_ratio=tracing.branch_flop_ratio(cloud, adapter),
                overhead_share=traced / untraced - 1.0,
                src_lines=count_lines(source_files()))
            specs = tracing.metric_specs(SHAPE_LABELS)
            extra = {"absent": absent, "untraced_s": untraced, "traced_s": traced,
                     "observed_shapes": sorted(probes.layers)}
        info = {"env": environment(numpy, checks, args), "outputs.sha256": session.outputs_digest(),
                "problems": session.problems, **extra}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    for problem in session.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not session.problems,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
