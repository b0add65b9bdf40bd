"""Numerical laboratory for pressure, dimension, and random perturbations
of expanding Markov maps.

The package splits into seven computational layers plus a batch front end:

- ``dynamics``: expanding interval and torus maps with certified branch
  structure (construction, orbits, cocycles).
- ``cylinders``: the cylinder walker, for deterministic maps and random
  fibers alike.  It enumerates cylinder representatives along a chain of
  maps, one per word position (a single map is the constant chain), with
  suffix sharing and Birkhoff folding; a position holding one map per
  window (``MapColumn``) walks several fiber windows at once.
- ``pressure``: potentials, separated sets, topological pressure by
  direct counting and by transfer matrices, conjugacy and variational
  checks.
- ``bowen``: root solving for the dimension equation and bracketing
  dimension reports.
- ``lyapunov``: exponents along periodic and sampled orbits, plus the
  average conformality screen.
- ``random_bundle``: i.i.d. driven perturbation families, the walker on
  fiber map chains, random roots, conjugacy defects, distortion and
  expansivity certificates, and the shrinking noise experiment.
- ``transfer``: the collocated fiber transfer operators whose products
  give the random roots' fiber pressures.
- ``conjugacy``: the one-window symbolic conjugacy, its displacement and
  equivariance measures, the walked random pressure and the pressure
  transport through the conjugacy, run only by ``checks`` and library
  callers.
- ``cli`` / ``config`` / ``checks``: the ``pressurelab`` command line
  front end and the invariant battery of its ``checks`` mode.

Importing the package loads none of them.  The public names below (all
of ``__all__``) and the submodules themselves are imported on first
access (PEP 562), so ``pl.dimension_report`` loads ``bowen`` and what it
imports, and a CLI run loads only the modules of its mode.
"""

from importlib import import_module as _import_module
from time import perf_counter as _clock

# start of the package import; a run's record times its start-up from here
_IMPORT_START = _clock()

__version__ = "0.1.0"

# every public name, by the submodule defining it
_PUBLIC = {
    "bowen": "DimensionReport bowen_root dimension_report",
    "cylinders": "WORD_CAP CylinderSet MapColumn build_levels",
    "dynamics": "ExpandingMap circle_map cocycle cookie_cutter "
                "doubling_map golden_mean_map linear_markov orbit "
                "toral_conformal_map toral_map",
    "errors": "BadSpec CheckFailed ConfigError EscapedRepeller "
              "InadmissibleWord MatrixTooLarge NoConvergence NoSignChange "
              "NonExpanding NonMarkov NotSemiConjugate PerturbationTooLarge "
              "PressureLabError SingularMatrix",
    "lyapunov": "average_conformal_check lyapunov_exponents periodic_orbit "
                "periodic_point",
    "pressure": "Potential PressureEstimate conjugate_pressure_check "
                "iterated_singular_pressure logsumexp pressure_additive "
                "pressure_limit pressure_subadditive separated_set "
                "transfer_pressure variational_gap variational_gaps",
    "random_bundle": "BaseSample FiberCylinders RandomFamily RandomRoots "
                     "StabilityResult StabilityRow distortion_constants "
                     "expansivity_min_growth random_bowen_roots "
                     "random_entropy sample_base stability_experiment",
    "conjugacy": "FiberConjugacy RandomEstimate conjugacy_displacement "
                 "measure_equivariance random_conjugacy_pressure_check "
                 "random_pressure",
}
_HOME = {name: module for module, names in _PUBLIC.items()
         for name in names.split()}
_SUBMODULES = frozenset(_PUBLIC) | {"checks", "cli", "config", "transfer"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return _import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    return getattr(_import_module("." + _HOME[name], __name__), name)


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(__all__))
