"""Experiment configuration: flat key=value files plus flag overrides.

A config is a handful of typed fields, of which each mode reads its own.
Its canonical text form heads every run record, so two configs that
resolve to the same effective values always record identically,
regardless of which file, flag, or default supplied each field.
"""

import inspect
import sys
from typing import NamedTuple

from . import dynamics as dyn
from .cylinders import GROWTH_DEPTH, REFERENCE_DEPTH, WORD_CAP
from .errors import ConfigError, InadmissibleWord, PressureLabError

# the keys each mode reads; setting any other is a config error
_MODE_KEYS = {
    "dimension": ("map", "depth"),
    "pressure": ("map", "potential", "depth"),
    "lyapunov": ("map", "orbit_word"),
    "stability": ("map", "eps_schedule", "depth", "seeds", "seed", "letters",
                  "conj_depth"),
    "entropy": ("map", "epsilon", "letters"),
    "checks": ("map", "seed", "epsilon", "letters"),
}
MODES = tuple(_MODE_KEYS)

_MODE_DEPTH = {"dimension": 12, "pressure": 10, "stability": 16}
# noise level of the checks battery when epsilon is 0
CHECKS_EPSILON = 0.1

# potential spec names, each a constructor of ``pressure.Potential``
_POTENTIALS = ("zero", "constant", "geometric", "singular_upper",
               "singular_lower")


def _parse_call(text, what):
    """Split "name(a,b)" into (name, args); bare names take no args."""
    text = text.strip()
    if "(" in text:
        if not text.endswith(")"):
            raise ConfigError("malformed %s spec %r" % (what, text))
        name, inner = text[:-1].split("(", 1)
        args = []
        for part in inner.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                args.append(int(part))
            except ValueError:
                try:
                    args.append(float(part))
                except ValueError:
                    raise ConfigError("bad numeric argument %r in %s spec %r"
                                      % (part, what, text))
        return name.strip(), tuple(args)
    return text, ()


def _call_factory(registry, spec, what):
    """Build the registered object a spec names.

    Unknown names, argument lists that do not fit the factory's signature
    and fractional values of integer parameters (those whose default is an
    int: a degree, a matrix entry, a scale) are ConfigErrors.  Errors of
    the package itself (say an out-of-range parameter) propagate
    unchanged; any other error raised inside the factory becomes a
    ConfigError naming the spec and carrying the factory's message.
    """
    name, args = _parse_call(spec, what)
    factory = registry.get(name)
    if factory is None:
        raise ConfigError("unknown %s %r; known: %s"
                          % (what, name, ", ".join(sorted(registry))))
    signature = inspect.signature(factory)
    try:
        bound = signature.bind(*args)
    except TypeError:
        raise ConfigError("wrong number of arguments for %s %r" % (what, spec))
    for key, value in bound.arguments.items():
        if isinstance(signature.parameters[key].default, int) \
                and not float(value).is_integer():
            raise ConfigError("%s %r: %s must be an integer, got %r"
                              % (what, spec, key, value))
    try:
        return factory(*args)
    except PressureLabError:
        raise
    except Exception as exc:
        raise ConfigError("cannot build %s %r: %s: %s"
                          % (what, spec, type(exc).__name__, exc))


def build_map(spec):
    """Construct the named built-in map, e.g. "cookie_cutter(3,3)"."""
    return _call_factory(dyn._FAMILIES, spec, "map")


def _runnable_map(spec):
    """The map a spec names, or ConfigError when it cannot be built.

    Every mode builds its map, so a map whose parameters are out of range
    (a degree below 2, a slope that does not expand) leaves nothing to
    run and fails with the config, before any work.
    """
    try:
        return build_map(spec)
    except ConfigError:
        raise
    except PressureLabError as exc:
        raise ConfigError("map %s cannot be built: %s: %s"
                          % (spec, type(exc).__name__, exc))


def build_potential(spec):
    """Construct the named potential, e.g. "geometric(1.0)" or "zero".

    The pressure layer loads with the first potential spec built, so
    modes without a potential never load it.
    """
    from .pressure import Potential

    return _call_factory({name: getattr(Potential, name)
                          for name in _POTENTIALS}, spec, "potential")


def family_shape(spec):
    """Perturbation family (kind, params) behind a map spec.

    Cookie cutter and circle maps, named through the map registry with the
    factory's defaults for missing params, support random perturbation;
    the doubling map is the degree 2 circle map with a flat lift.
    """
    name, args = _parse_call(spec, "map")
    factory = dyn._FAMILIES.get(name)
    if factory is dyn.doubling_map:
        factory, args = dyn.circle_map, (2,)
    # built per call, since a tracer may rebind the registered factories
    kind = {dyn.cookie_cutter: "cookie", dyn.circle_map: "circle"}.get(factory)
    if kind is None:
        raise ConfigError("map %r has no random perturbation family" % spec)
    bound = inspect.signature(factory).bind(*args)
    bound.apply_defaults()
    return kind, tuple(bound.arguments.values())


def _coerce(key, raw):
    """The value of a config key from its text, typed as its field."""
    kind = ExperimentConfig.__annotations__[key]
    try:
        if kind is not tuple:
            return kind(raw)
        # list entries take the type of the default's entries
        item = type(ExperimentConfig._field_defaults[key][0])
        return tuple(item(p) for p in str(raw).replace(";", ",").split(",")
                     if p.strip())
    except ValueError:
        raise ConfigError("bad value %r for key %r" % (raw, key))


class ExperimentConfig(NamedTuple):
    """One experiment: what to compute, at what budget, and where to put it.

    Each mode reads only its row of ``_MODE_KEYS``.  depth of 0 means
    "use the mode default"; a pressure run defaults to the deepest depth
    up to 10 whose cylinder walk fits under ``WORD_CAP`` (7 on
    ``toral(2,3)``).  epsilon is the noise level of entropy runs and of
    the checks battery, where 0 means ``CHECKS_EPSILON``, while
    eps_schedule drives the stability sweep.  conj_depth of 0 lets the
    experiment match the conjugacy truncation error to its tolerance, as
    far as the word cap allows.
    """

    mode: str = "dimension"
    map: str = "cookie_cutter(3,3)"
    potential: str = "zero"
    depth: int = 0
    eps_schedule: tuple = (0.2, 0.1, 0.05, 0.025)
    seeds: int = 16
    seed: int = 0
    out: str = "pressurelab_out"
    workers: int = 1
    epsilon: float = 0.0
    letters: int = 2
    conj_depth: int = 0
    orbit_word: tuple = (0, 1)

    def resolved(self):
        """Concrete copy with the mode defaults for a zero depth or epsilon."""
        cfg = self
        if cfg.mode not in MODES:
            raise ConfigError("unknown mode %r; known: %s"
                              % (cfg.mode, ", ".join(MODES)))
        if cfg.mode == "checks" and cfg.epsilon == 0.0:
            cfg = cfg._replace(epsilon=CHECKS_EPSILON)
        if cfg.depth == 0 and cfg.mode in _MODE_DEPTH:
            cfg = cfg._replace(depth=_MODE_DEPTH[cfg.mode])
            if cfg.mode == "pressure":
                # the deepest default walk that fits under the word cap
                mapping = _runnable_map(cfg.map)
                while cfg.depth > 1 and cfg._walk_words(mapping) > WORD_CAP:
                    cfg = cfg._replace(depth=cfg.depth - 1)
        cfg.validate()
        return cfg

    def validate(self):
        """Raise ConfigError unless this resolved config can run."""
        if "depth" in _MODE_KEYS[self.mode] and self.depth < 1:
            raise ConfigError("depth must be positive")
        if self.seeds < 1:
            raise ConfigError("seeds must be positive")
        # seeds key a 64-bit hash of the letter positions
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError("seed must lie in 0 .. 2^64 - 1")
        if self.mode == "stability" and self.seed + self.seeds > 2 ** 64:
            raise ConfigError("the stability seeds seed .. seed + seeds - 1 "
                              "must stay below 2^64")
        if self.workers < 1:
            raise ConfigError("workers must be positive")
        # letters are drawn by a multiply-shift of 32 hash bits
        if not 1 <= self.letters <= 2 ** 32:
            raise ConfigError("letters must lie in 1 .. 2^32")
        if self.epsilon < 0.0:
            raise ConfigError("epsilon must not be negative")
        if self.conj_depth < 0:
            raise ConfigError("conj_depth must not be negative")
        if any(e < 0.0 for e in self.eps_schedule):
            raise ConfigError("eps_schedule entries must not be negative")
        # certificates are keyed by level, so a repeated level would lose one
        repeated = sorted({e for e in self.eps_schedule
                           if self.eps_schedule.count(e) > 1})
        if repeated:
            raise ConfigError("eps_schedule repeats the level %g" % repeated[0])
        if self.mode == "stability" and not self.eps_schedule:
            raise ConfigError("stability mode needs a nonempty eps_schedule")
        if not self.out:
            raise ConfigError("out directory must be set")
        mapping = _runnable_map(self.map)
        if self.mode == "pressure":
            build_potential(self.potential)
            # geometric values read log f' of interval branches; torus
            # cells have singular values instead
            if _parse_call(self.potential, "potential")[0] == "geometric" \
                    and mapping.dim == 2:
                raise ConfigError("potential %s needs an interval map; on the "
                                  "torus map %s use singular_upper or "
                                  "singular_lower" % (self.potential, self.map))
        if self.mode in ("stability", "entropy", "checks"):
            kind, params = family_shape(self.map)
            if self.mode != "stability":
                self._certify_family(kind, params)
        if self.mode == "lyapunov":
            # the lyapunov layer loads only with the mode that runs it
            from .lyapunov import _check_closable

            try:
                _check_closable(mapping, self.orbit_word)
            except InadmissibleWord as exc:
                raise ConfigError("orbit_word %r on %s: %s"
                                  % (self.orbit_word, self.map, exc))
        if self._walk_words(mapping) > WORD_CAP:
            raise ConfigError("%s mode on %s enumerates more words of length "
                              "%d than the word cap; cap is %d"
                              % (self.mode, self.map,
                                 self._deepest_walk(mapping), WORD_CAP))

    def _certify_family(self, kind, params):
        """ConfigError unless the family of one-level runs certifies.

        Stability sweeps certify each level and record its failure; entropy
        runs and the checks battery perturb at ``epsilon`` alone.  The
        certificate reads only the extreme letter coefficients -1 and 1,
        which two letters already have, so no larger family is built.
        """
        from .random_bundle import RandomFamily

        try:
            RandomFamily(kind, params, self.epsilon, min(self.letters, 2))
        except PressureLabError as exc:
            raise ConfigError("%s mode cannot perturb %s at epsilon %g: %s"
                              % (self.mode, self.map, self.epsilon, exc))

    def _walk_words(self, mapping):
        """Words in the deepest cylinder walk of a run, clipped at
        WORD_CAP + 1; 0 for none."""
        depth = self._deepest_walk(mapping)
        return mapping.count_words(depth, cap=WORD_CAP) if depth else 0

    def _deepest_walk(self, mapping):
        """Longest word a run of this config enumerates; 0 for none.

        Torus dimensions, singular torus pressures and entropies are closed
        forms in the word count; stability runs are interval-only.
        """
        if self.mode == "stability":
            # fiber roots take operator products, not words; the deepest
            # walks are the conjugacy, the reference root and the growth
            # probe of ``expansivity_min_growth``
            return max(self.conj_depth, REFERENCE_DEPTH, GROWTH_DEPTH)
        if self.mode in ("dimension", "pressure") and mapping.dim == 1:
            return self.depth
        if self.mode == "pressure" and \
                build_potential(self.potential).kind == "additive":
            return self.depth
        return 0

    # -- identity ---------------------------------------------------------

    def canonical(self):
        """Stable text form of the mode and its keys, one key=value per line.

        ``record.txt`` lists these lines as ``config.*`` keys.
        """
        items = []
        for key in sorted(("mode",) + _MODE_KEYS[self.mode]):
            val = getattr(self, key)
            if isinstance(val, tuple):
                text = ",".join("%r" % v for v in val)
            elif isinstance(val, float):
                text = "%r" % val
            else:
                text = str(val)
            items.append("%s=%s" % (key, text))
        return "\n".join(items)


def _config_key(key, unknown):
    """A config field name from its text; ``unknown`` names a bad one."""
    key = key.strip().replace("-", "_")
    if key not in ExperimentConfig._fields:
        raise ConfigError(unknown)
    return key


def read_config_file(path):
    """Parse a flat key=value file; # starts a comment, blanks ignored."""
    values = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc))
    for lineno, line in enumerate(lines, 1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError("%s:%d: expected key=value, got %r"
                              % (path, lineno, text))
        key, raw = text.split("=", 1)
        key = _config_key(key, "%s:%d: unknown key %r"
                          % (path, lineno, key.strip()))
        values[key] = _coerce(key, raw.strip())
    return values


_USAGE = """\
usage: pressurelab [--config PATH] [--KEY VALUE ...] [KEY=VALUE ...]

Batch experiments on expanding repellers: dimension and pressure
computations, Lyapunov exponents, random perturbation stability sweeps,
and invariant checks.

Every config key is a --KEY VALUE flag (dashes read as underscores) and a
KEY=VALUE override.  Flags beat overrides, and overrides beat the
key=value file that --config PATH names.  Every mode takes out, the
output directory, and workers, which is accepted and ignored because
every run is serial.  Solver tolerances are fixed; no key sets them.

mode        keys it reads
"""


def _usage():
    """The help text: how keys are passed, and the keys of every mode."""
    return _USAGE + "\n".join("%-11s %s" % (mode, " ".join(keys))
                              for mode, keys in _MODE_KEYS.items())


def parse_args(argv=None):
    """Config from defaults, file, KEY=VALUE overrides, then --KEY flags.

    ``argv`` defaults to the process arguments.  ``--KEY VALUE`` and
    ``--KEY=VALUE`` set a key as ``KEY=VALUE`` does, ``--config PATH``
    names a key=value file, and ``-h`` or ``--help`` prints ``_usage()``
    and exits 0.
    """
    argv = sys.argv[1:] if argv is None else argv
    path, overrides, flags = None, [], []
    items = iter(argv)
    for item in items:
        if item in ("-h", "--help"):
            print(_usage())
            raise SystemExit(0)
        if not item.startswith("-"):
            if "=" not in item:
                raise ConfigError("override %r is not KEY=VALUE" % item)
            key, raw = item.split("=", 1)
            overrides.append((_config_key(
                key, "unknown config key %r" % key.strip()), raw))
            continue
        name, eq, raw = item.partition("=")
        if not name.startswith("--"):
            raise ConfigError("unknown flag %s" % name)
        if not eq:
            raw = next(items, None)
            if raw is None or raw.startswith("--"):
                raise ConfigError("flag %s needs a value" % name)
        if name == "--config":
            path = raw
        else:
            flags.append((_config_key(name[2:], "unknown flag %s" % name),
                          raw))
    values = read_config_file(path) if path is not None else {}
    for key, raw in overrides + flags:
        values[key] = _coerce(key, raw.strip())
    mode = values.get("mode", ExperimentConfig._field_defaults["mode"])
    reads = _MODE_KEYS.get(mode)
    # every mode takes an output directory and a worker count (accepted
    # and ignored: every run is serial); resolved() rejects unknown modes
    unread = sorted(set(values) - {"mode", "out", "workers"}
                    - set(reads or ()))
    if reads and unread:
        raise ConfigError("%s mode does not read %s; it reads %s"
                          % (mode, ", ".join(unread), ", ".join(reads)))
    return ExperimentConfig(**values).resolved()
