"""The benchmark's workloads: CLI arguments from a seed, and output checks.

Each workload turns the benchmark seed into one pressurelab command line;
the program sees only those arguments.  Each check reads the run's
artifacts and compares them with oracles computed here with the standard
library alone, so the package is never checked against itself.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from typing import Callable

CHECK_COUNT = 14
GAP_LIMIT = 0.02


# -- stdlib oracles ------------------------------------------------------------

def _bisect_decreasing(fn, lo, hi):
    """Zero of a decreasing function with fn(lo) > 0 > fn(hi), 200 halvings."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def moran_root(slopes):
    """Similarity dimension: the zero of sum(s**-t) - 1."""
    return _bisect_decreasing(
        lambda t: sum(float(s) ** (-t) for s in slopes) - 1.0, 0.0, 2.0)


def expectation_root(eps, slopes=(3.0, 3.0), coeffs=(-1.0, 1.0)):
    """Zero of the letter-averaged pressure of a random cookie family.

    Every letter scales both slopes by (1 + eps * a); by independence the
    quenched pressure at t is the mean over letters of
    log sum_i s_i(letter)**-t.
    """
    def mean_pressure(t):
        return sum(math.log(sum((s * (1.0 + eps * a)) ** (-t)
                                for s in slopes))
                   for a in coeffs) / len(coeffs)

    if mean_pressure(1.0) >= 0.0:
        return 1.0
    return _bisect_decreasing(mean_pressure, 0.0, 1.0)


def equivariance_bound(slopes, eps, conj_tol=1e-4):
    """2 gamma^m diam for a two letter cookie family (coefficients -1, 1).

    gamma is the inverse of the worst fiber slope, min slope * (1 - eps);
    the conjugacy depth m is the least one meeting conj_tol.  The family
    lives on a hull of length 1.
    """
    gamma = 1.0 / (min(slopes) * (1.0 - eps))
    conj_depth = max(2, math.ceil(math.log(conj_tol) / math.log(gamma)))
    return 2.0 * gamma ** conj_depth


# -- artifacts -------------------------------------------------------------------

@dataclass
class Artifacts:
    exit_code: int
    rows: list          # run.csv rows as dicts
    certificates: dict  # certificates.txt as key -> text
    record: dict        # record.txt as key -> text


def _key_values(path):
    out = {}
    if os.path.exists(path):
        with open(path) as fh:
            for line in fh:
                key, _, value = line.rstrip("\n").partition("=")
                out[key] = value
    return out


def read_artifacts(out_dir, exit_code):
    rows = []
    path = os.path.join(out_dir, "run.csv")
    if os.path.exists(path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    return Artifacts(exit_code=exit_code, rows=rows,
                     certificates=_key_values(
                         os.path.join(out_dir, "certificates.txt")),
                     record=_key_values(os.path.join(out_dir, "record.txt")))


def _common_problems(art):
    problems = []
    if art.exit_code != 0:
        problems.append("exit code %d" % art.exit_code)
    if art.record.get("status") != "ok":
        problems.append("record status %r" % art.record.get("status"))
    if not art.rows:
        problems.append("run.csv is missing or empty")
    for i, row in enumerate(art.rows):
        for key, cell in row.items():
            if cell is None or cell.strip().lower() == "nan":
                problems.append("run.csv row %d has NaN %s" % (i, key))
    failures = [k for k in art.certificates if k.startswith("failures.")]
    if failures:
        problems.append("certificates report %s" % ", ".join(failures))
    return problems


def _stability_problems(art, schedule, slopes):
    problems = []
    eps_seen = [float(r["epsilon"]) for r in art.rows]
    if eps_seen != list(schedule):
        return ["schedule %s, expected %s" % (eps_seen, list(schedule))]
    for row in art.rows:
        eps = float(row["epsilon"])
        tag = "eps_%g" % eps
        measured = float(art.certificates.get(tag + ".equivariance", "nan"))
        bound = equivariance_bound(slopes, eps)
        reported = float(art.certificates.get(tag + ".equivariance_bound",
                                              "nan"))
        if not measured <= bound * (1.0 + 1e-9):
            problems.append("%s equivariance %.3e above bound %.3e"
                            % (tag, measured, bound))
        if not abs(reported - bound) <= 1e-6 * bound:
            problems.append("%s reported bound %.6e, oracle %.6e"
                            % (tag, reported, bound))
    final_gap = float(art.rows[-1]["gap_t"])
    if not final_gap < GAP_LIMIT:
        problems.append("final gap_t %.3e not below %g" % (final_gap,
                                                          GAP_LIMIT))
    return problems


# -- workloads ---------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    argv: Callable[[int], list]
    check: Callable[[int, Artifacts], list]


COOKIE_SCHEDULE = (0.2, 0.1, 0.05, 0.025)


def _cookie_argv(seed):
    return ["--mode", "stability", "map=cookie_cutter(3,3)", "--workers", "1",
            "--seed", str(seed)]


def _cookie_check(seed, art):
    problems = _stability_problems(art, COOKIE_SCHEDULE, (3.0, 3.0))
    if problems:
        return problems
    for row in art.rows:
        eps = float(row["epsilon"])
        gap = abs(float(row["t_root"]) - expectation_root(eps))
        allowance = 3.0 * float(row["std_err"]) + 2e-3
        if not gap <= allowance:
            problems.append("eps %g: t_root off the expectation root by "
                            "%.3e > %.3e" % (eps, gap, allowance))
    t0 = float(art.rows[0]["t0"])
    if not abs(t0 - moran_root((3.0, 3.0))) <= 2e-3:
        problems.append("reference root %.6f off log 2 / log 3" % t0)
    return problems


def _checks_argv(seed):
    return ["--mode", "checks", "--seed", str(seed)]


def _checks_check(seed, art):
    passed = sum(1 for row in art.rows if row.get("status") == "pass")
    if passed != CHECK_COUNT or len(art.rows) != CHECK_COUNT:
        return ["%d of %d checks passed, expected %d of %d"
                % (passed, len(art.rows), CHECK_COUNT, CHECK_COUNT)]
    if art.certificates.get("checks_passed") != str(CHECK_COUNT):
        return ["certificates report %s checks passed"
                % art.certificates.get("checks_passed")]
    return []


WORKLOADS = {
    w.name: w for w in (
        Workload("stability-cookie",
                 "flagship sweep on affine branches; mostly Bowen root "
                 "solving over many 2^16-word sums, cheap inverses",
                 _cookie_argv, _cookie_check),
        Workload("checks",
                 "invariant battery; the only lyapunov work: periodic points "
                 "via single-point inverses are its largest share, then the "
                 "package import",
                 _checks_argv, _checks_check),
    )
}


def check_run(workload, seed, art):
    """Problems found in one run's artifacts; empty when the run is correct."""
    return _common_problems(art) or workload.check(seed, art)
