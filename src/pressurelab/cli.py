"""Batch front end: runs configured experiments and writes run artifacts.

Every run leaves four files in the output directory: ``run.csv`` with the
mode's result table, ``certificates.txt`` with the flat key=value
certificates backing the numbers, ``gaps.svg`` for stability sweeps, and
``record.txt`` tying the outputs to a content hash of the config.  CSV
bodies contain no timestamps, so identical configs reproduce them byte
for byte.
"""

from __future__ import annotations

import csv
import math
import os
import platform
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import dynamics as dyn
from .bowen import dimension_report
from .config import parse_args
from .cylinders import CylinderSet
from .errors import CheckFailed, ConfigError, PressureLabError
from .lyapunov import average_conformal_check, lyapunov_exponents
from .pressure import (Potential, _resolve_epsilon, conjugate_pressure_check,
                       logsumexp, pressure_additive, pressure_subadditive,
                       variational_gaps)
from .random_bundle import (RandomFamily, build_conjugacy, constant_sample,
                            distortion_constants, expansivity_min_growth,
                            measure_equivariance,
                            random_conjugacy_pressure_check, random_entropy,
                            sample_base, stability_experiment)

STABILITY_HEADER = ("epsilon", "t_root", "t0", "gap_t", "std_err", "n",
                    "seeds")


@dataclass(frozen=True)
class RunRecord:
    config_hash: str
    timestamp: str
    versions: dict
    files: tuple
    summary: dict
    out_dir: str
    status: str = "ok"
    error: str = ""


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
    lines = []
    if isinstance(obj, dict):
        for key, val in obj.items():
            name = "%s%s" % (prefix, key) if not prefix else \
                "%s.%s" % (prefix, key)
            lines.extend(_flat_lines(val, name))
        return lines
    if isinstance(obj, float):
        text = "%.12g" % obj
    else:
        text = str(obj)
    return ["%s=%s" % (prefix, text)]


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

        axis = 'stroke="black" stroke-width="1"'
        parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" %s/>'
                     % (left, height - bottom, width - right,
                        height - bottom, axis))
        parts.append('<line x1="%d" y1="%d" x2="%d" y2="%d" %s/>'
                     % (left, top, left, height - bottom, axis))
        coords = " ".join("%.2f,%.2f" % (px(x), py(y)) for x, y in pts)
        parts.append('<polyline points="%s" fill="none" stroke="#1f77b4" '
                     'stroke-width="2"/>' % coords)
        for x, y in pts:
            parts.append('<circle cx="%.2f" cy="%.2f" r="3.5" '
                         'fill="#1f77b4"/>' % (px(x), py(y)))
        label = ('<text x="%.2f" y="%.2f" font-size="12" '
                 'font-family="sans-serif"%s>%s</text>')
        parts.append(label % (px(x_lo), height - bottom + 18,
                              ' text-anchor="middle"', "%.6g" % x_lo))
        parts.append(label % (px(x_hi), height - bottom + 18,
                              ' text-anchor="middle"', "%.6g" % x_hi))
        parts.append(label % (left - 8, py(y_lo) + 4,
                              ' text-anchor="end"', "0"))
        parts.append(label % (left - 8, py(y_hi) + 4,
                              ' text-anchor="end"', "%.3g" % y_hi))
        parts.append(label % (width // 2, height - 16,
                              ' text-anchor="middle"', "epsilon"))
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
        "separation_epsilon": _resolve_epsilon(mapping, None),
    }


def _family_certificates(family, horizon):
    cert = dict(family.certificate)
    cert.update({
        "family": family.describe(),
        "gamma_bound": family.gamma_bound,
        "holder_budget": family.holder_budget,
        "horizon": int(horizon),
    })
    return cert


# -- mode pipelines ----------------------------------------------------------

def _run_dimension(cfg):
    mapping = cfg.build_map()
    rep = dimension_report(mapping, depth=cfg.depth, tol=cfg.tol)
    header = ("map", "depth", "t_lower", "t_upper", "t_root", "separation")
    rows = [(cfg.map, cfg.depth, rep.t_lower, rep.t_upper, rep.t_root,
             rep.separation)]
    summary = {"t_root": rep.t_root, "t_lower": rep.t_lower,
               "t_upper": rep.t_upper}
    return header, rows, _map_certificates(cfg, mapping), summary, None


def _run_pressure(cfg):
    mapping = cfg.build_map()
    potential = cfg.build_potential()
    if potential.kind == "additive":
        value = pressure_additive(mapping, potential, cfg.depth)
    else:
        value = pressure_subadditive(mapping, potential,
                                     depth=cfg.depth).value
    header = ("map", "potential", "depth", "value")
    rows = [(cfg.map, cfg.potential, cfg.depth, value)]
    summary = {"pressure": value}
    return header, rows, _map_certificates(cfg, mapping), summary, None


def _run_lyapunov(cfg):
    mapping = cfg.build_map()
    word = tuple(cfg.orbit_word)
    exponents = lyapunov_exponents(mapping, word)
    word_text = "".join(str(s) for s in word)
    header = ("map", "orbit_word", "index", "exponent")
    rows = [(cfg.map, word_text, i, v) for i, v in enumerate(exponents)]
    screen = average_conformal_check(mapping, period_cap=6, samples=16,
                                     depth=min(cfg.depth, 12), seed=cfg.seed)
    cert = _map_certificates(cfg, mapping)
    cert["conformality_spread"] = screen.spread
    cert["conformal"] = screen.conformal
    summary = {"lyapunov_max": exponents[0],
               "conformality_spread": screen.spread}
    return header, rows, cert, summary, None


def _run_entropy(cfg):
    kind, params = cfg.family_shape()
    family = RandomFamily(kind, params, cfg.epsilon, cfg.letters)
    seeds = list(range(cfg.seed, cfg.seed + cfg.seeds))
    value = random_entropy(family, seeds, depth=cfg.depth)
    header = ("map", "epsilon", "letters", "depth", "seeds", "entropy")
    rows = [(cfg.map, cfg.epsilon, cfg.letters, cfg.depth, cfg.seeds, value)]
    summary = {"entropy": value}
    return header, rows, _family_certificates(family, cfg.depth), summary, None


def _run_stability(cfg):
    kind, params = cfg.family_shape()
    carrier = RandomFamily(kind, params, 0.0, cfg.letters)
    result = stability_experiment(
        carrier, cfg.eps_schedule, depth=cfg.depth, seeds=cfg.seeds,
        conj_depth=cfg.conj_depth or None, base_seed=cfg.seed, tol=cfg.tol)
    rows = [(r.epsilon, r.t_root, r.t_reference, r.gap_t, r.std_error,
             r.depth, r.seeds) for r in result.rows]
    cert = {"reference_root": result.t_reference, "tol": cfg.tol}
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
    return STABILITY_HEADER, rows, cert, summary, _gap_svg(result.rows)


_PIPELINES = {"dimension": _run_dimension, "pressure": _run_pressure,
              "lyapunov": _run_lyapunov, "entropy": _run_entropy,
              "stability": _run_stability}


# -- verification battery ----------------------------------------------------

def _require(condition, detail):
    if not condition:
        raise CheckFailed(detail)
    return detail


def _check_builtin_maps():
    built = [dyn.doubling_map(), dyn.cookie_cutter(3.0, 3.0),
             dyn.cookie_cutter(2.0, 4.0), dyn.circle_map(3, 0.05),
             dyn.golden_mean_map(), dyn.toral_conformal_map(3)]
    return "%d built-in maps pass construction invariants" % len(built)


def _check_entropy_identity():
    worst = 0.0
    for mapping in (dyn.doubling_map(), dyn.cookie_cutter(3.0, 3.0),
                    dyn.cookie_cutter(2.0, 4.0), dyn.circle_map(2, 0.02)):
        value = pressure_additive(mapping, Potential.zero(), 10)
        worst = max(worst, abs(value - math.log(len(mapping.branches))))
    return _require(worst <= 1e-9,
                    "zero-potential pressure vs log branch count; "
                    "max deviation %.2e" % worst)


def _check_monotone_pressure():
    mapping = dyn.cookie_cutter(2.0, 4.0)
    grid = np.linspace(0.0, 1.0, 10)
    log_slopes = CylinderSet(mapping, 8).log_derivative_sums()[-1]
    values = [logsumexp(-t * log_slopes) / 8 for t in grid]
    cap = -math.log(mapping.min_expansion) + 1e-6
    worst = max((values[i + 1] - values[i]) / (grid[i + 1] - grid[i])
                for i in range(len(grid) - 1))
    return _require(worst <= cap,
                    "pressure slope in t at most %.6g (cap %.6g)"
                    % (worst, cap))


def _check_lipschitz_pressure():
    mapping = dyn.cookie_cutter(2.0, 4.0)
    phi, psi = Potential.geometric(0.4), Potential.geometric(0.7)
    walk = CylinderSet(mapping, 8)
    gap = abs(pressure_additive(mapping, phi, 8, walk=walk)
              - pressure_additive(mapping, psi, 8, walk=walk))
    pts = walk.leaves.points
    sup = float(np.abs(phi.pointwise(mapping, pts)
                       - psi.pointwise(mapping, pts)).max())
    return _require(gap <= sup + 1e-12,
                    "pressure moved %.6g for a potential shift of %.6g"
                    % (gap, sup))


def _check_variational():
    words = ((0,), (1,), (0, 1), (0, 1, 1), (0, 0, 1))
    worst = min(float(variational_gaps(mapping, Potential.geometric(0.5),
                                       words, depth=12).min())
                for mapping in (dyn.cookie_cutter(3.0, 3.0),
                                dyn.circle_map(2, 0.02)))
    return _require(worst >= -1e-6,
                    "smallest variational gap %.3e over probe orbits" % worst)


def _check_dimension_oracles():
    gap_a = abs(dimension_report(dyn.cookie_cutter(3.0, 3.0)).t_root
                - math.log(2.0) / math.log(3.0))
    golden = math.log((1.0 + math.sqrt(5.0)) / 2.0) / math.log(2.0)
    gap_b = abs(dimension_report(dyn.cookie_cutter(2.0, 4.0)).t_root - golden)
    return _require(max(gap_a, gap_b) <= 2e-3,
                    "closed-form dimension gaps %.2e and %.2e"
                    % (gap_a, gap_b))


def _check_conformality():
    report = average_conformal_check(dyn.toral_conformal_map(3),
                                     period_cap=5, samples=8, depth=10)
    return _require(report.conformal,
                    "exponent spread %.2e over %d cycles"
                    % (report.spread, report.periodic_orbits))


def _check_conjugacy_transport():
    src = dyn.cookie_cutter(2.0, 4.0)
    dst = dyn.linear_markov(((0.0, 0.25), (0.375, 0.5)),
                            ((0.0, 0.5), (0.0, 0.5)))
    report = conjugate_pressure_check(src, dst, lambda x: 0.5 * x,
                                      Potential.geometric(0.5), depth=10)
    return _require(abs(report.slack) <= 1e-9,
                    "pressure slack %.2e across a bijective rescale"
                    % report.slack)


def _battery(cfg):
    """Ordered check list; every item is independent of the others."""
    try:
        kind, params = cfg.family_shape()
        letters = cfg.letters
    except ConfigError:
        kind, params, letters = "cookie", (3.0, 3.0), 2
    eps = cfg.epsilon if cfg.epsilon > 0.0 else 0.1

    def temper():
        return RandomFamily(kind, params, eps, letters)

    def check_map():
        mapping = cfg.build_map()
        return "map %s: expansion in [%.6g, %.6g]" % (
            cfg.map, mapping.min_expansion, mapping.max_expansion)

    def check_family():
        family = temper()
        cert = family.certificate
        return "worst fiber expansion %.6g (required %.6g)" % (
            cert["worst_expansion"], cert["required_expansion"])

    def check_equivariance():
        family = temper()
        measured, bound = measure_equivariance(
            family, sample_base(cfg.seed, 12, letters), 10)
        return _require(measured <= bound,
                        "residual %.3e within bound %.3e" % (measured, bound))

    def check_distortion():
        worst = math.inf
        pairs = 0
        family = temper()
        for letter in range(letters):
            report = distortion_constants(
                family, constant_sample(letter, 12, letters),
                sample_pairs=12000)
            worst = min(worst, report.worst_violation)
            pairs += report.pairs
        return _require(worst >= -1e-10,
                        "smallest slack %.3e over %d pairs" % (worst, pairs))

    def check_transport():
        family = temper()
        conj = build_conjugacy(family, sample_base(cfg.seed, 12, letters), 10)
        report = random_conjugacy_pressure_check(
            family, conj, Potential.geometric(0.6), depth=5)
        return _require(report.residual <= report.bound + 1e-12,
                        "residual %.3e within bound %.3e"
                        % (report.residual, report.bound))

    def check_growth():
        family = temper()
        growth = expansivity_min_growth(
            family, sample_base(cfg.seed, 10, letters), 8)
        return _require(growth > 0.0,
                        "smallest per-step log expansion %.6g" % growth)

    return [
        ("dynamics", "map_construction", check_map),
        ("dynamics", "builtin_certificates", _check_builtin_maps),
        ("pressure", "entropy_identity", _check_entropy_identity),
        ("pressure", "monotone_in_weight", _check_monotone_pressure),
        ("pressure", "lipschitz_in_potential", _check_lipschitz_pressure),
        ("pressure", "variational_inequality", _check_variational),
        ("pressure", "conjugacy_transport", _check_conjugacy_transport),
        ("bowen", "dimension_oracles", _check_dimension_oracles),
        ("lyapunov", "conformality_screen", _check_conformality),
        ("random_bundle", "perturbation_certificate", check_family),
        ("random_bundle", "equivariance_bound", check_equivariance),
        ("random_bundle", "distortion_inequality", check_distortion),
        ("random_bundle", "conjugacy_transport", check_transport),
        ("random_bundle", "fiber_min_growth", check_growth),
    ]


def _run_check_item(item):
    """(module, name, status, detail) of one check, and its seconds."""
    module, name, fn = item
    start = time.perf_counter()
    try:
        row = (module, name, "pass", fn())
    except Exception as exc:
        row = (module, name, "fail", "%s: %s" % (type(exc).__name__, exc))
    return row, time.perf_counter() - start


# -- orchestration ------------------------------------------------------------

def _emit(cfg, header, rows, certificates, summary, svg, status="ok",
          error="", timings=()):
    os.makedirs(cfg.out, exist_ok=True)
    files = []
    if header is not None:
        _write_csv(os.path.join(cfg.out, "run.csv"), header, rows)
        files.append("run.csv")
    if certificates is not None:
        _write_certificates(os.path.join(cfg.out, "certificates.txt"),
                            certificates)
        files.append("certificates.txt")
    if svg is not None:
        with open(os.path.join(cfg.out, "gaps.svg"), "w") as fh:
            fh.write(svg)
        files.append("gaps.svg")
    record = RunRecord(
        config_hash=cfg.config_hash(),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        versions={"package": "pressurelab %s" % __version__,
                  "python": platform.python_version(),
                  "numpy": np.__version__},
        files=tuple(files + ["record.txt"]),
        summary=dict(summary), out_dir=cfg.out, status=status, error=error)
    lines = ["config_hash=%s" % record.config_hash,
             "mode=%s" % cfg.mode,
             "status=%s" % record.status]
    if record.error:
        lines.append("error=%s" % record.error)
    for key in sorted(record.versions):
        lines.append("version.%s=%s" % (key, record.versions[key]))
    lines.append("files=%s" % ";".join(record.files))
    for key in sorted(record.summary):
        lines.append("summary.%s=%s" % (key, _cell(record.summary[key])))
    for key, seconds in timings:
        lines.append("timing.%s=%.6f" % (key, seconds))
    lines.append("timestamp=%s" % record.timestamp)
    with open(os.path.join(cfg.out, "record.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return record


def run(config):
    """Execute one experiment and persist its artifacts.

    Computation errors are recorded in record.txt before propagating, so a
    failed run still leaves a traceable record (and whatever partial rows
    its mode produced, for stability sweeps with per-level failures).  A
    sweep in which every level failed keeps its rows and certificates but
    is recorded with status=fail.
    """
    cfg = config.resolved()
    if cfg.mode == "checks":
        record, _ = verify(cfg)
        return record
    pipeline = _PIPELINES[cfg.mode]
    try:
        header, rows, certificates, summary, svg = pipeline(cfg)
    except PressureLabError as exc:
        _emit(cfg, None, None, None, {}, None, status="error",
              error="%s: %s" % (type(exc).__name__, exc))
        raise
    error = ""
    if cfg.mode == "stability" and \
            summary["failed_levels"] == summary["rows"]:
        error = "no noise level produced a root; see failures.* certificates"
    return _emit(cfg, header, rows, certificates, summary, svg,
                 status="fail" if error else "ok", error=error)


def verify(config):
    """Run the invariant battery; report rows plus the usual artifacts."""
    cfg = config.resolved()
    timed = [_run_check_item(item) for item in _battery(cfg)]
    results = [row for row, _ in timed]
    timings = [("check.%s.%s" % row[:2], seconds) for row, seconds in timed]
    failed = [r for r in results if r[2] != "pass"]
    certificates = {"checks_total": len(results),
                    "checks_passed": len(results) - len(failed),
                    "status": "ok" if not failed else "fail"}
    for module, name, status, _ in results:
        certificates["check.%s.%s" % (module, name)] = status
    summary = {"checks_total": len(results), "checks_failed": len(failed)}
    record = _emit(cfg, ("module", "check", "status", "detail"), results,
                   certificates, summary, None,
                   status="ok" if not failed else "fail", timings=timings)
    return record, results


def main(argv=None):
    try:
        cfg = parse_args(argv)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    try:
        if cfg.mode == "checks":
            record, results = verify(cfg)
            for module, name, status, detail in results:
                print("[%s] %s/%s: %s" % (status, module, name, detail))
            failed = sum(1 for r in results if r[2] != "pass")
            print("checks: %d run, %d failed; artifacts in %s"
                  % (len(results), failed, record.out_dir))
            return 1 if failed else 0
        record = run(cfg)
        for key in sorted(record.summary):
            print("%s=%s" % (key, _cell(record.summary[key])))
        print("artifacts in %s" % record.out_dir)
        if record.status != "ok":
            print("run failed: %s" % record.error, file=sys.stderr)
            return 1
        return 0
    except PressureLabError as exc:
        print("error [%s] %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
