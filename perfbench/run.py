"""rmfperc benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload tree-sweep --seed 1729 --seconds 20 --trace 0

Run from the root of a source checkout; rmfperc is imported from its
``src/``.  Each workload is a list of README CLI jobs (``workloads.py``)
run in-process through ``rmfperc.cli.main`` as a closed loop: one
process, one thread, BLAS/OpenMP pinned to one thread, jobs back to back.

A run measures set-up in fresh interpreters, runs the job list once to
warm up, then repeats it for ``--seconds``.  Every output is checked
(``checks.py``) and its sha256 recorded; a later pass must reproduce the
first pass byte for byte.  ``--trace 0`` reports the end-to-end metrics
with tracing off; ``--trace 1`` alternates untraced passes with traced
ones (``tracing.py``) and reports the per-layer metrics.  The last line
of stdout is one JSON object; full results, job digests and spans go to
``.perfbench/results/``.
"""

import os

# pinned before numpy loads; probes inherit the environment
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench" / "results"

SETUP_RUNS = 4  # fresh-interpreter set-ups per run; the median is reported
MIN_PASSES = 3  # timed passes of each kind, even past --seconds


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int) -> list:
    """Set-up records from fresh interpreters: ``setup_s`` from spawn to
    ready (the monotonic clock is system-wide) and per-import times.  One
    extra first probe fills the bytecode caches and is dropped."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    records = []
    for i in range(SETUP_RUNS + 1):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        record = json.loads(proc.stdout.splitlines()[-1])
        record["setup_s"] = record.pop("ready") - start
        if i:
            records.append(record)
    return records


class _Stdout:
    """Stands in for sys.stdout while a job runs; keeps its bytes."""

    def __init__(self):
        self.buffer = io.BytesIO()

    def write(self, text: str) -> int:
        return self.buffer.write(text.encode())

    def flush(self) -> None:
        pass


class Runner:
    """Runs a job list through ``rmfperc.cli.main`` and judges every output.

    A job fails on a nonzero exit code, an exception, a failed check, or
    output bytes that differ from the job's first output."""

    def __init__(self, cli, jobs: list, workdir: Path):
        self.cli = cli
        self.jobs = jobs
        self.workdir = workdir
        self.first = [None] * len(jobs)  # (sha256, check error or None)
        self.attempted = 0
        self.failures = []
        self.output_bytes = 0  # of the latest pass

    def run_pass(self, tracer=None) -> float:
        """Run every job once; returns the wall time of the jobs alone.
        With ``tracer``, the jobs run traced; checks never are."""
        if tracer is None:
            start = time.perf_counter()
            outputs = [self._run(job) for job in self.jobs]
            wall = time.perf_counter() - start
        else:
            outputs = []
            with tracer:
                start = time.perf_counter()
                for i, job in enumerate(self.jobs):
                    tracer.job = i
                    outputs.append(self._run(job))
                wall = time.perf_counter() - start
        self.output_bytes = sum(len(payload) for _, payload in outputs)
        for i, (error, payload) in enumerate(outputs):
            self.attempted += 1
            if error is None:
                error = self._judge(i, payload)
            if error is not None:
                self.failures.append(f"{' '.join(self.jobs[i].argv)}: {error}")
        return wall

    def _run(self, job):
        """(error or None, output bytes) of one job."""
        argv = list(job.argv)
        out = self.workdir / job.out if job.out else None
        if out:
            argv += ["--out", str(out)]
        saved, sys.stdout = sys.stdout, _Stdout()
        try:
            code = self.cli.main(argv)
        except Exception:
            return f"raised\n{traceback.format_exc()}", b""
        finally:
            captured, sys.stdout = sys.stdout, saved
        if code != 0:
            return f"exit code {code}", b""
        if out is None:
            return None, captured.buffer.getvalue()
        payload = out.read_bytes()
        out.unlink()
        return None, payload

    def _judge(self, i: int, payload: bytes):
        digest = hashlib.sha256(payload).hexdigest()
        if self.first[i] is None:
            try:
                self.jobs[i].check(payload)
                error = None
            except checks.CheckError as exc:
                error = f"check failed: {exc}"
            self.first[i] = (digest, error)
        first_digest, error = self.first[i]
        if digest != first_digest:
            return "output differs from the job's first output"
        return error

    @property
    def digests(self) -> list:
        return [first[0] if first else None for first in self.first]


def timed_passes(runner: Runner, seconds: float, traced: bool = False) -> list:
    """(wall, tracer or None) per pass, for at least ``seconds`` and
    MIN_PASSES of each kind.  Traced passes alternate with untraced ones,
    so that drift in machine speed hits both alike."""
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES * (1 + traced) or time.perf_counter() < deadline:
        tracer = tracing.Tracer() if traced and len(passes) % 2 else None
        passes.append((runner.run_pass(tracer), tracer))
    return passes


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def metadata() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "loop": "closed, one client: one process, one thread, jobs back to back",
        "limits": "shared 2-core sandbox: no hardware counters, no cache dropping",
    }


def declared_units(trace: int) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this kind of
    run: end-to-end for untraced runs, per-layer for traced ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def median_of(records: list, key) -> float:
    return statistics.median(key(r) for r in records)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rmfperc" / "__init__.py").is_file():
        print(f"perfbench: no rmfperc sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_units(args.trace)
    sys.path.insert(0, str(SRC))
    setup = measure_setup(args.workload, args.seed)

    import rmfperc.cli

    if not Path(rmfperc.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: rmfperc imported from {rmfperc.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    jobs = workloads.jobs(args.workload, args.seed)
    RESULTS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS.parent, prefix="work-") as work:
        runner = Runner(rmfperc.cli, jobs, Path(work))
        runner.run_pass()  # warm-up; its outputs are the reference
        passes = timed_passes(runner, args.seconds, traced=bool(args.trace))

    walls = [wall for wall, _ in passes]
    if args.trace:
        traced = sorted((p for p in passes if p[1] is not None), key=lambda p: p[0])
        # the traced pass with the median wall time gives the layer numbers
        _, tracer = traced[(len(traced) - 1) // 2]
        metrics = tracing.layer_metrics(tracer, [job.command for job in jobs], runner.output_bytes)
        metrics["trace.overhead_s"] = statistics.median(w for w, _ in traced) - statistics.median(
            w for w, t in passes if t is None
        )
        metrics["setup.import_s"] = median_of(setup, lambda r: sum(r["import_s"].values()))
        for label in setup[0]["import_s"]:
            metrics[f"setup.import.{label}_s"] = median_of(setup, lambda r: r["import_s"][label])
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": median_of(setup, lambda r: r["setup_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: extra {sorted(set(metrics) - set(units))}, "
            f"missing {sorted(set(units) - set(metrics))}"
        )

    failed = len(runner.failures)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": metadata(),
        "jobs": [list(job.argv) for job in jobs],
        "digests": runner.digests,
        "passes_s": walls,
        "setup": setup,
        "attempted": runner.attempted,
        "failed": failed,
        "failures": runner.failures,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        results["spans"] = f"{stem}-spans.json"
        (RESULTS / results["spans"]).write_text(json.dumps([s.as_dict() for s in tracer.spans]))
    (RESULTS / f"{stem}.json").write_text(json.dumps(results, indent=1))

    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} timed passes, "
          f"{runner.attempted} jobs attempted, {failed} failed")
    for name in sorted(metrics):
        print(f"  {name:45s} {metrics[name]:.6g} {units[name]}")
    print(f"  {'fail_frac':45s} {failed / runner.attempted:.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
