"""Tests of the benchmark's own code.

Run from the repository root with

    python3 -m pytest perfbench -q
"""

import json
import math
import subprocess
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _ticking_clock():
    """Per-thread clock advancing by 1 on every reading."""
    local = threading.local()

    def clock():
        local.now = getattr(local, "now", -1) + 1
        return float(local.now)

    return clock


def test_self_time_subtracts_children():
    spans = tracer.Tracer(clock=_ticking_clock())
    # outer reads 0 and 5; inner reads 1 and 2; leaf reads 3 and 4
    spans.call("outer", lambda: (spans.call("inner", lambda: None),
                                 spans.call("leaf", lambda: None)))
    totals = spans.totals()
    assert totals["inclusive"] == {"outer": 5.0, "inner": 1.0, "leaf": 1.0}
    assert totals["self"] == {"outer": 3.0, "inner": 1.0, "leaf": 1.0}
    assert totals["roots"] == [(0.0, 5.0)]


def test_same_name_nesting_counts_once():
    spans = tracer.Tracer(clock=_ticking_clock())
    spans.call("walk", lambda: spans.call("walk", lambda: None))
    totals = spans.totals()
    assert totals["calls"]["walk"] == 1
    assert totals["inclusive"]["walk"] == totals["self"]["walk"] == 1.0


def test_threads_keep_their_own_parent_stack():
    spans = tracer.Tracer(clock=_ticking_clock())
    both_inside = threading.Barrier(2, timeout=10)

    def worker():
        def outer():
            both_inside.wait()
            spans.call("inner", lambda: None)
            both_inside.wait()
        spans.call("outer", outer)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    totals = spans.totals()
    # each thread: outer reads 0 and 3, inner reads 1 and 2
    assert totals["calls"] == {"outer": 2, "inner": 2}
    assert totals["self"]["outer"] == 2 * 2.0
    assert totals["self"]["inner"] == 2 * 1.0
    assert sorted(totals["roots"]) == [(0.0, 3.0), (0.0, 3.0)]


def test_covered_seconds_merges_overlapping_threads():
    intervals = [(1.0, 4.0), (2.0, 5.0), (7.0, 8.0), (9.0, 12.0)]
    assert tracer.covered_seconds(intervals, 0.0, 10.0) == 4.0 + 1.0 + 1.0


def test_oracles_reproduce_cookie_3_3():
    exact = math.log(2.0) / math.log(3.0)
    assert abs(workloads.moran_root((3.0, 3.0)) - exact) < 1e-12
    assert abs(workloads.expectation_root(0.0) - exact) < 1e-12
    # averaging over letters moves the root up: log is concave
    assert workloads.expectation_root(0.2) > exact


def _cli(argv, out_dir):
    proc = subprocess.run(
        [sys.executable, "-m", "pressurelab.cli", *argv, "--out",
         str(out_dir)], env=run.child_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=300)
    return workloads.read_artifacts(str(out_dir), proc.returncode)


def test_install_rebinds_every_reference():
    script = """
import sys
sys.path.insert(0, %r)
import pressurelab
from pressurelab import cli, config, cylinders, pressure, lyapunov, bowen
import tracer
originals = [cylinders.build_levels, pressure.logsumexp, bowen.bowen_root,
             lyapunov.periodic_point, config.parse_args,
             pressurelab.dynamics.cookie_cutter,
             pressurelab.random_bundle.random_bowen_roots]
tracer.install(tracer.Tracer())
left = []
for mod in tracer._package_modules():
    for key, value in vars(mod).items():
        values = value.values() if isinstance(value, dict) else [value]
        left += ["%%s.%%s" %% (mod.__name__, key) for v in values
                 if any(v is o for o in originals)]
print(left)
""" % str(HERE)
    proc = subprocess.run([sys.executable, "-c", script], env=run.child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_traced_dimension_run_counts(tmp_path):
    report = tmp_path / "report.json"
    argv = ["--mode", "dimension", "map=cookie_cutter(3,3)", "depth=8",
            "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, str(HERE / "runner.py"), str(report), "trace",
         *argv], env=run.child_env(), cwd=ROOT, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(report.read_text())["layers"]
    assert set(layers) == set(tracer.UNITS)
    # one walk per depth (4 and 8); each depth solves the lower and upper root
    assert layers["cylinders.walks"] == 2
    assert layers["cylinders.words"] == sum(2 ** k for k in range(1, 5)) \
        + sum(2 ** k for k in range(1, 9))
    assert layers["bowen.solves"] == 4
    assert layers["dynamics.maps_built"] >= 1
    assert layers["lyapunov.periodic_points"] == 0
    assert 0.0 <= layers["cli.other_s"] < 5.0


def test_stability_circle_csv_same_at_one_and_two_workers(tmp_path):
    # a schedule that certifies on circle(2,0.05); the default one does not
    argv = ["--mode", "stability", "map=circle(2,0.05)", "conj_depth=16",
            "eps_schedule=0.05,0.025,0.0125", "--seed", "3"]
    _cli(argv + ["--workers", "2"], tmp_path / "two")
    _cli(argv + ["--workers", "1"], tmp_path / "one")
    two = (tmp_path / "two" / "run.csv").read_bytes()
    assert two and two == (tmp_path / "one" / "run.csv").read_bytes()


def test_check_rejects_failed_levels_despite_exit_zero(tmp_path):
    art = _cli(["--mode", "stability", "map=circle(2,0.05)", "seeds=2"],
               tmp_path / "out")
    assert art.exit_code == 0 and art.record["status"] == "ok"
    problems = workloads.check_run(workloads.WORKLOADS["stability-cookie"],
                                   0, art)
    assert any("NaN" in p for p in problems)
    assert any("failures." in p for p in problems)

