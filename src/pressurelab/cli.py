"""Batch front end: runs configured experiments and writes run artifacts.

Every run leaves four files in the output directory: ``run.csv`` with the
mode's result table, ``certificates.txt`` with the flat key=value
certificates backing the numbers, ``gaps.svg`` for stability sweeps, and
``record.txt`` tying the outputs to the config's canonical fields.  CSV
bodies contain no timestamps, so identical configs reproduce them byte
for byte.

A run loads only the modules of its mode: ``parse_args`` loads them once
the config names the mode, and the pipelines reach them through the
package's lazy names.
"""

import atexit
import csv
import gc
import math
import os
import sys
import time
from importlib import import_module
from typing import NamedTuple

import numpy as np

import pressurelab as pl

from .config import build_map, build_potential, family_shape
from .config import parse_args as parse_config
from .errors import ConfigError, PressureLabError

# the modules each mode runs on top of config, dynamics and cylinders
_MODE_MODULES = {"dimension": ("bowen",), "pressure": ("pressure",),
                 "lyapunov": ("lyapunov",),
                 "entropy": ("random_bundle",),
                 "stability": ("random_bundle",), "checks": ("checks",)}


class Outcome(NamedTuple):
    """What a mode pipeline produced.

    The contents of run.csv, certificates.txt, the record's summary and
    gaps.svg (files that are None are not written), the error text of a
    run that produced nothing usable (empty otherwise), and the (stage,
    seconds) pairs of the stages the pipeline timed itself.
    """

    header: tuple = None
    rows: list = None
    certificates: dict = None
    summary: dict = None
    svg: str = None
    error: str = ""
    stages: tuple = ()


# -- formatting helpers -----------------------------------------------------

def _cell(value):
    if isinstance(value, float):
        return "%.12g" % value
    return value


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _flat_lines(obj, prefix=""):
    if isinstance(obj, dict):
        return [line for key, val in obj.items() for line in _flat_lines(
            val, "%s.%s" % (prefix, key) if prefix else str(key))]
    return ["%s=%s" % (prefix, _cell(obj))]


def _write_certificates(path, cert):
    with open(path, "w") as fh:
        fh.write("\n".join(_flat_lines(cert)) + "\n")


def _gap_svg(rows):
    """Single series line plot of the root gap against the noise level."""
    pts = sorted((r.epsilon, r.gap_t) for r in rows
                 if not math.isnan(r.gap_t))
    width, height = 640, 400
    left, right, top, bottom = 80, 20, 40, 60
    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" '
             'height="%d" viewBox="0 0 %d %d">' % (width, height, width,
                                                   height),
             '<rect width="%d" height="%d" fill="white"/>' % (width, height),
             '<text x="%d" y="22" font-size="15" text-anchor="middle" '
             'font-family="sans-serif">root gap vs noise level</text>'
             % (width // 2)]
    if pts:
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = 0.0, max(max(ys), 1e-12) * 1.08
        if x_hi <= x_lo:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5

        def px(x):
            return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

        def py(y):
            return height - bottom - (y - y_lo) / (y_hi - y_lo) \
                * (height - top - bottom)

        for axis in ((left, height - bottom, width - right, height - bottom),
                     (left, top, left, height - bottom)):
            parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" '
                         'stroke="black" stroke-width="1"/>' % axis)
        coords = " ".join("%.2f,%.2f" % (px(x), py(y)) for x, y in pts)
        parts.append('<polyline points="%s" fill="none" stroke="#1f77b4" '
                     'stroke-width="2"/>' % coords)
        for x, y in pts:
            parts.append('<circle cx="%.2f" cy="%.2f" r="3.5" '
                         'fill="#1f77b4"/>' % (px(x), py(y)))
        for x, y, anchor, text in (
                (px(x_lo), height - bottom + 18, "middle", "%.6g" % x_lo),
                (px(x_hi), height - bottom + 18, "middle", "%.6g" % x_hi),
                (left - 8, py(y_lo) + 4, "end", "0"),
                (left - 8, py(y_hi) + 4, "end", "%.3g" % y_hi),
                (width // 2, height - 16, "middle", "epsilon")):
            parts.append('<text x="%.2f" y="%.2f" font-size="12" '
                         'font-family="sans-serif" text-anchor="%s">%s'
                         '</text>' % (x, y, anchor, text))
        parts.append('<text x="20" y="%d" font-size="12" '
                     'font-family="sans-serif" text-anchor="middle" '
                     'transform="rotate(-90 20 %d)">gap to reference root'
                     '</text>' % (height // 2, height // 2))
    else:
        parts.append('<text x="%d" y="%d" font-size="13" '
                     'text-anchor="middle" font-family="sans-serif">'
                     'no finite gaps to plot</text>'
                     % (width // 2, height // 2))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _map_certificates(cfg, mapping):
    return {
        "map": cfg.map,
        "dim": mapping.dim,
        "branches": len(mapping.branches),
        "min_expansion": mapping.min_expansion,
        "max_expansion": mapping.max_expansion,
        "diam": mapping.diam,
        "separation_epsilon": mapping.resolve_epsilon(),
    }


def _family_certificates(family):
    cert = dict(family.certificate)
    cert.update({
        "family": family.describe(),
        "gamma_bound": family.gamma_bound,
        "holder_budget": family.holder_budget,
    })
    return cert


# -- mode pipelines ----------------------------------------------------------

def _run_dimension(cfg):
    mapping = build_map(cfg.map)
    rep = pl.dimension_report(mapping, depth=cfg.depth)
    header = ("map", "depth", "t_lower", "t_upper", "t_root", "separation")
    rows = [(cfg.map, cfg.depth, rep.t_lower, rep.t_upper, rep.t_root,
             rep.separation)]
    summary = {"t_root": rep.t_root, "t_lower": rep.t_lower,
               "t_upper": rep.t_upper}
    return Outcome(header, rows, _map_certificates(cfg, mapping), summary)


def _run_pressure(cfg):
    mapping = build_map(cfg.map)
    potential = build_potential(cfg.potential)
    value = pl.pressure_additive(mapping, potential, cfg.depth)
    header = ("map", "potential", "depth", "value")
    rows = [(cfg.map, cfg.potential, cfg.depth, value)]
    summary = {"pressure": value}
    return Outcome(header, rows, _map_certificates(cfg, mapping), summary)


def _run_lyapunov(cfg):
    mapping = build_map(cfg.map)
    word = tuple(cfg.orbit_word)
    exponents = pl.lyapunov_exponents(mapping, word)
    word_text = "".join(str(s) for s in word)
    header = ("map", "orbit_word", "index", "exponent")
    rows = [(cfg.map, word_text, i, v) for i, v in enumerate(exponents)]
    screen = pl.average_conformal_check(mapping)
    cert = _map_certificates(cfg, mapping)
    cert["conformality_spread"] = screen.spread
    cert["conformal"] = screen.conformal
    summary = {"lyapunov_max": exponents[0],
               "conformality_spread": screen.spread}
    return Outcome(header, rows, cert, summary)


def _run_entropy(cfg):
    kind, params = family_shape(cfg.map)
    family = pl.RandomFamily(kind, params, cfg.epsilon, cfg.letters)
    value = pl.random_entropy(family)
    header = ("map", "epsilon", "letters", "entropy")
    rows = [(cfg.map, cfg.epsilon, cfg.letters, value)]
    summary = {"entropy": value}
    return Outcome(header, rows, _family_certificates(family), summary)


def _run_stability(cfg):
    kind, params = family_shape(cfg.map)
    carrier = pl.RandomFamily(kind, params, 0.0, cfg.letters)
    result = pl.stability_experiment(
        carrier, cfg.eps_schedule, depth=cfg.depth, seeds=cfg.seeds,
        conj_depth=cfg.conj_depth or None, base_seed=cfg.seed)
    rows = [(r.epsilon, r.t_root, result.t_reference, r.gap_t, r.std_error,
             cfg.depth, cfg.seeds) for r in result.rows]
    cert = {"reference_root": result.t_reference}
    for eps, entry in result.certificates["per_epsilon"].items():
        cert["eps_%g" % eps] = entry
    finite = [r for r in result.rows if not math.isnan(r.gap_t)]
    failures = [r for r in result.rows if r.failure]
    for r in failures:
        cert.setdefault("failures", {})["eps_%g" % r.epsilon] = r.failure
    summary = {"t0": result.t_reference, "rows": len(result.rows),
               "failed_levels": len(failures)}
    if finite:
        summary["final_t_root"] = finite[-1].t_root
        summary["final_gap_t"] = finite[-1].gap_t
    header = ("epsilon", "t_root", "t0", "gap_t", "std_err", "n", "seeds")
    error = ("no noise level produced a root; see failures.* certificates"
             if len(failures) == len(result.rows) else "")
    return Outcome(header, rows, cert, summary, _gap_svg(result.rows), error)


def _run_checks(cfg):
    timed = pl.checks.run_battery(cfg)
    rows = [row for row, _ in timed]
    failed = ["%s.%s" % row[:2] for row in rows if row[2] != "pass"]
    cert = {"checks_total": len(rows),
            "checks_passed": len(rows) - len(failed),
            "status": "fail" if failed else "ok"}
    cert.update(("check.%s.%s" % row[:2], row[2]) for row in rows)
    summary = {"checks_total": len(rows), "checks_failed": len(failed)}
    error = "failed checks: %s" % ", ".join(failed) if failed else ""
    stages = tuple(("check.%s.%s" % row[:2], took) for row, took in timed)
    return Outcome(("module", "check", "status", "detail"), rows, cert,
                   summary, error=error, stages=stages)


_PIPELINES = {"dimension": _run_dimension, "pressure": _run_pressure,
              "lyapunov": _run_lyapunov, "entropy": _run_entropy,
              "stability": _run_stability, "checks": _run_checks}


# -- orchestration ------------------------------------------------------------

def parse_args(argv=None):
    """The run's config, with the modules of its mode loaded.

    They load as soon as the config names the mode, so all of a run's
    start-up comes before its work, and no other mode's module loads.
    """
    cfg = parse_config(argv)
    for name in _MODE_MODULES[cfg.mode]:
        import_module("." + name, __package__)
    return cfg


def _emit(cfg, outcome, timings, status=None):
    """Write the artifacts of a run.

    The status is fail when the outcome carries an error text and ok
    otherwise, unless ``status`` says so.  record.txt lists the config's
    canonical fields as ``config.*`` lines, the (stage, seconds) pairs of
    ``timings``, the time spent writing the other files and the count of
    modules loaded.
    """
    start = time.perf_counter()
    os.makedirs(cfg.out, exist_ok=True)
    files = []
    if outcome.header is not None:
        _write_csv(os.path.join(cfg.out, "run.csv"), outcome.header,
                   outcome.rows)
        files.append("run.csv")
    if outcome.certificates is not None:
        _write_certificates(os.path.join(cfg.out, "certificates.txt"),
                            outcome.certificates)
        files.append("certificates.txt")
    if outcome.svg is not None:
        with open(os.path.join(cfg.out, "gaps.svg"), "w") as fh:
            fh.write(outcome.svg)
        files.append("gaps.svg")
    timings = list(timings) + [("write", time.perf_counter() - start)]
    if status is None:
        status = "fail" if outcome.error else "ok"
    versions = {"package": "pressurelab %s" % pl.__version__,
                "python": sys.version.split()[0], "numpy": np.__version__}
    lines = ["config.%s" % item for item in cfg.canonical().split("\n")]
    lines.append("status=%s" % status)
    if outcome.error:
        lines.append("error=%s" % outcome.error)
    lines += ["version.%s=%s" % kv for kv in sorted(versions.items())]
    lines.append("files=%s" % ";".join(files + ["record.txt"]))
    summary = outcome.summary or {}
    for key in sorted(summary):
        lines.append("summary.%s=%s" % (key, _cell(summary[key])))
    lines += ["timing.%s=%.6f" % item for item in timings]
    # this module counts whether it runs as pressurelab.cli or __main__
    loaded = {name for name in sys.modules if name.startswith("pressurelab.")}
    lines.append("count.modules=%d" % len(loaded | {"pressurelab.cli"}))
    lines.append("timestamp=%s" % time.strftime("%Y-%m-%dT%H:%M:%S",
                                                time.gmtime()))
    with open(os.path.join(cfg.out, "record.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run(cfg, startup=()):
    """Execute one experiment, persist its artifacts and return its Outcome.

    ``cfg`` is a resolved config, as ``parse_args`` returns it.  An
    outcome with an error text (a stability sweep in which every level
    failed, a checks battery with a failed check) keeps its rows and
    certificates but is recorded with status=fail.  Computation errors are
    recorded in record.txt with status=error before propagating, so a
    failed run still leaves a traceable record.  ``startup`` holds the
    (stage, seconds) pairs of the import and the parse, timed by ``main``.
    """
    start = time.perf_counter()
    try:
        outcome = _PIPELINES[cfg.mode](cfg)
    except PressureLabError as exc:
        _emit(cfg, Outcome(error="%s: %s" % (type(exc).__name__, exc)),
              list(startup) + [("run", time.perf_counter() - start)],
              status="error")
        raise
    _emit(cfg, outcome, list(outcome.stages) + list(startup)
          + [("run", time.perf_counter() - start)])
    return outcome


def main(argv=None):
    started = time.perf_counter()
    # the teardown collections would only visit what dies with the process
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    try:
        cfg = parse_args(argv)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    startup = [("import", started - pl._IMPORT_START),
               ("parse", time.perf_counter() - started)]
    try:
        outcome = run(cfg, startup)
    except PressureLabError as exc:
        print("error [%s] %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1
    for key in sorted(outcome.summary):
        print("%s=%s" % (key, _cell(outcome.summary[key])))
    print("artifacts in %s" % cfg.out)
    if outcome.error:
        print("run failed: %s" % outcome.error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
