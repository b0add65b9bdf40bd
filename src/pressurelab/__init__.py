"""Numerical laboratory for pressure, dimension, and random perturbations
of expanding Markov maps.

The package splits into five computational layers plus a batch front end:

- ``dynamics``: expanding interval and torus maps with certified branch
  structure (construction, orbits, itineraries, cocycles).
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
  fiber map chains, symbolic conjugacies, random pressure and roots,
  distortion and expansivity certificates, and the shrinking noise
  experiment.
- ``cli`` / ``config``: the ``pressurelab`` command line front end.
"""

__version__ = "0.1.0"

from .bowen import DimensionReport, bowen_root, dimension_report
from .cylinders import WORD_CAP, CylinderSet, MapColumn, build_levels
from .dynamics import (ExpandingMap, build_markov_map, circle_map, cocycle,
                       cookie_cutter, cylinder_point, doubling_map,
                       golden_mean_map, itinerary, linear_markov, orbit,
                       toral_conformal_map, toral_map)
from .errors import (BadSpec, CheckFailed, ConfigError, EpsilonTooLarge,
                     EscapedRepeller, HorizonExceeded, InadmissibleWord,
                     MatrixTooLarge, NoConvergence, NonExpanding, NonMarkov,
                     NoSignChange, NotSemiConjugate, PerturbationTooLarge,
                     PressureLabError, SingularMatrix)
from .lyapunov import (average_conformal_check, lyapunov_exponents,
                       periodic_orbit, periodic_point)
from .pressure import (Potential, PressureEstimate, conjugate_pressure_check,
                       iterated_singular_pressure, logsumexp,
                       pressure_additive, pressure_limit,
                       pressure_subadditive, separated_set,
                       transfer_pressure, variational_gap,
                       variational_gaps)
from .random_bundle import (BaseSample, FiberConjugacy, FiberCylinders,
                            RandomEstimate, RandomFamily, RandomRoots,
                            StabilityResult, StabilityRow, build_conjugacy,
                            conjugacy_displacement, constant_sample,
                            distortion_constants, expansivity_min_growth,
                            fiber_repeller, measure_equivariance,
                            perturbed_map, random_bowen_roots,
                            random_conjugacy_pressure_check, random_entropy,
                            random_pressure, sample_base,
                            stability_experiment)

__all__ = [
    "BadSpec", "BaseSample", "CheckFailed", "ConfigError", "CylinderSet",
    "DimensionReport", "EpsilonTooLarge", "EscapedRepeller", "ExpandingMap",
    "FiberConjugacy", "FiberCylinders", "HorizonExceeded",
    "InadmissibleWord", "MapColumn", "MatrixTooLarge", "NoConvergence",
    "NoSignChange",
    "NonExpanding", "NonMarkov", "NotSemiConjugate", "PerturbationTooLarge",
    "Potential", "PressureEstimate", "PressureLabError", "RandomEstimate",
    "RandomFamily", "RandomRoots", "SingularMatrix", "StabilityResult",
    "StabilityRow", "WORD_CAP", "average_conformal_check", "bowen_root",
    "build_conjugacy", "build_levels", "build_markov_map", "circle_map",
    "cocycle", "conjugacy_displacement", "conjugate_pressure_check",
    "constant_sample", "cookie_cutter", "cylinder_point",
    "dimension_report", "distortion_constants", "doubling_map",
    "expansivity_min_growth", "fiber_repeller", "golden_mean_map",
    "itinerary", "iterated_singular_pressure", "linear_markov", "logsumexp",
    "lyapunov_exponents", "measure_equivariance", "orbit", "periodic_orbit",
    "periodic_point", "perturbed_map", "pressure_additive", "pressure_limit",
    "pressure_subadditive", "random_bowen_roots",
    "random_conjugacy_pressure_check", "random_entropy", "random_pressure",
    "sample_base", "separated_set", "stability_experiment",
    "toral_conformal_map", "toral_map", "transfer_pressure",
    "variational_gap", "variational_gaps",
]
