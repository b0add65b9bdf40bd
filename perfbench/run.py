"""Benchmark of the pressurelab command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run of the CLI is a fresh interpreter against this checkout's
``src/``, one child at a time, in a fresh output directory, with the disk
cache variable removed and BLAS pinned to one thread.  Every run's
artifacts are checked against stdlib oracles (``workloads.py``) and its
``run.csv`` must match the first correct run of the same invocation byte
for byte; a run failing either check counts as failed.

``--trace 0`` reports the end-to-end metrics: the medians over the CLI
runs of wall time (spawn to exit), set-up time (package import plus the
CLI's own config parse and resolve, measured in the child), child CPU
time and child peak RSS.
``--trace 1`` alternates untraced and traced runs and reports the
per-layer metrics of the traced ones (``tracer.py``) plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS, check_run, read_artifacts  # noqa: E402

WORK = ROOT / ".perfbench_out"
MIN_RUNS = 3          # CLI runs per end-to-end run, even past the deadline
MIN_TRACED = 2        # traced CLI runs per --trace 1 run, to compare counts
CHILD_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS")


def child_env():
    """Environment of every child: hermetic, single-threaded BLAS."""
    env = dict(os.environ)
    env.pop("PRESSURELAB_CACHE", None)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    report: dict
    problems: list = field(default_factory=list)
    csv_sha256: str = ""
    artifact_bytes: int = 0
    artifacts: object = None


def spawn(phase, argv, env):
    """Run runner.py once in a fresh directory and measure the child."""
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    out_dir = run_dir / "out"
    report_path = run_dir / "report.json"
    cmd = [sys.executable, str(HERE / "runner.py"), str(report_path), phase,
           *argv, "--out", str(out_dir)]
    try:
        with open(run_dir / "stderr.txt", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        report = {}
        if report_path.exists():
            report = json.loads(report_path.read_text())
        sample = Sample(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                        peak_rss_mb=usage.ru_maxrss / 1024.0,
                        exit_code=proc.returncode, report=report)
        if "setup_s" not in report:
            tail = (run_dir / "stderr.txt").read_text(errors="replace")
            sample.problems.append("child exit %d without a report: %s"
                                   % (proc.returncode, tail.strip()[-400:]))
        if out_dir.exists():
            csv_path = out_dir / "run.csv"
            if csv_path.exists():
                sample.csv_sha256 = hashlib.sha256(
                    csv_path.read_bytes()).hexdigest()
            sample.artifact_bytes = sum(p.stat().st_size
                                        for p in out_dir.iterdir())
            sample.artifacts = read_artifacts(str(out_dir),
                                              proc.returncode)
        return sample
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


class Runs:
    """CLI runs of one workload and seed, checked as they complete."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.argv = workload.argv(seed)
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.versions = {}
        self.ref_sha = ""   # run.csv sha256 of this invocation's first run

    def cli(self, phase, extra_check=None):
        """One checked CLI run; ``extra_check(sample)`` may add problems."""
        sample = spawn(phase, self.argv, self.env)
        art = sample.artifacts
        if art is None:
            sample.problems.append("no output directory (exit %d)"
                                   % sample.exit_code)
        else:
            sample.problems += check_run(self.workload, self.seed, art)
            self.versions = {k[len("version."):]: v
                             for k, v in art.record.items()
                             if k.startswith("version.")}
        if extra_check is not None:
            sample.problems += extra_check(sample)
        if not sample.problems:
            if not self.ref_sha:
                self.ref_sha = sample.csv_sha256
            elif sample.csv_sha256 != self.ref_sha:
                sample.problems.append("run.csv sha256 %s differs from the "
                                       "first run's %s"
                                       % (sample.csv_sha256[:12],
                                          self.ref_sha[:12]))
        self.attempted += 1
        if sample.problems:
            self.failed += 1
            self.problems.append("%s run %d: %s" % (phase, self.attempted,
                                                    "; ".join(sample.problems)))
        return sample


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _time_left(deadline, durations, minimum):
    """True while fewer than minimum ran or one more fits the deadline."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() + statistics.median(durations) <= deadline


def end_to_end(runs, seconds):
    deadline = time.perf_counter() + seconds
    samples, durations = [], []
    while _time_left(deadline, durations, MIN_RUNS):
        started = time.perf_counter()
        samples.append(runs.cli("run"))
        durations.append(time.perf_counter() - started)
    setup = [s.report["setup_s"] for s in samples if "setup_s" in s.report]
    series = {
        "wall_s": ([s.wall_s for s in samples], "s"),
        "setup_s": (setup, "s"),
        "cpu_s": ([s.cpu_s for s in samples], "s"),
        "peak_rss_mb": ([s.peak_rss_mb for s in samples], "MB"),
    }
    metrics, detail = {}, {}
    for name, (values, unit) in series.items():
        q1, q3 = _quartiles(values)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        detail[name] = {"median": statistics.median(values), "q1": q1,
                        "q3": q3, "n": len(values), "unit": unit}
    return metrics, detail


def _counts(sample):
    """The traced run's deterministic per-layer values (not times)."""
    layers = sample.report.get("layers", {})
    counts = {name: layers.get(name) for name, unit in tracer.UNITS.items()
              if unit != "s"}
    counts["cli.artifact_bytes"] = sample.artifact_bytes
    return counts


def traced(runs, seconds):
    deadline = time.perf_counter() + seconds
    plain, spans, durations = [], [], []

    def same_counts(sample):
        if not spans:
            return []
        first, now = _counts(spans[0]), _counts(sample)
        return ["%s is %s, first traced run had %s" % (name, now[name], value)
                for name, value in first.items() if now[name] != value]

    while _time_left(deadline, durations, MIN_TRACED):
        started = time.perf_counter()
        plain.append(runs.cli("run"))
        spans.append(runs.cli("trace", same_counts))
        durations.append(time.perf_counter() - started)
    layers = [s.report.get("layers", {}) for s in spans]
    counts = _counts(spans[0])
    metrics = {}
    for name, unit in tracer.UNITS.items():
        value = counts.get(name)
        if unit == "s":
            value = statistics.median(layer.get(name, 0.0) for layer in layers)
        metrics[name] = {"value": value, "unit": unit}
    metrics["cli.artifact_bytes"] = {"value": counts["cli.artifact_bytes"],
                                     "unit": "bytes"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(s.wall_s for s in spans)
        - statistics.median(s.wall_s for s in plain), "unit": "s"}
    detail = {"traced_runs": len(spans), "untraced_runs": len(plain),
              "traced_wall_s": [s.wall_s for s in spans],
              "untraced_wall_s": [s.wall_s for s in plain],
              "traced_main_s": [s.report.get("main_s") for s in spans]}
    return metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must not be negative")
    if not (ROOT / "src" / "pressurelab" / "__init__.py").exists():
        print("no pressurelab sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runs = Runs(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, detail = traced(runs, args.seconds)
    else:
        metrics, detail = end_to_end(runs, args.seconds)
    meta = {
        "workload": args.workload, "seed": args.seed,
        "argv": ["pressurelab", *runs.argv],
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": runs.versions.get("python", platform.python_version()),
        "numpy": runs.versions.get("numpy", "unknown"),
        "commit": _git_commit(), "seconds": args.seconds,
        "trace": args.trace,
    }
    for line in runs.problems:
        print("FAILED %s" % line, file=sys.stderr)
    for name, entry in metrics.items():
        print("%-30s %.6g %s" % (name, entry["value"], entry["unit"]))
    print(json.dumps({"meta": meta, "detail": detail}))
    print(json.dumps({"correct": runs.failed == 0,
                      "attempted": runs.attempted, "failed": runs.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
