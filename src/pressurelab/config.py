"""Experiment configuration: flat key=value files plus flag overrides.

A config is a handful of typed fields, of which each mode reads its own.
Its canonical text form heads every run record, so two configs that
resolve to the same effective values always record identically,
regardless of which file, flag, or default supplied each field.
"""

import argparse
import inspect
from typing import NamedTuple

from . import dynamics as dyn
from .cylinders import GROWTH_DEPTH, REFERENCE_DEPTH, WORD_CAP
from .errors import ConfigError, InadmissibleWord, PressureLabError

# the keys each mode reads; setting any other is a config error
_MODE_KEYS = {
    "dimension": ("map", "depth", "tol"),
    "pressure": ("map", "potential", "depth"),
    "lyapunov": ("map", "orbit_word"),
    "stability": ("map", "eps_schedule", "depth", "seeds", "seed", "letters",
                  "conj_depth"),
    "entropy": ("map", "epsilon", "letters", "depth"),
    "checks": ("map", "seed", "epsilon", "letters"),
}
MODES = tuple(_MODE_KEYS)

_MODE_DEPTH = {"dimension": 12, "pressure": 10, "stability": 16,
               "entropy": 12}

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

    Unknown names and argument lists that do not fit the factory's
    signature are ConfigErrors.  Errors of the package itself (say an
    out-of-range parameter) propagate unchanged; any other error raised
    inside the factory becomes a ConfigError naming the spec and carrying
    the factory's message.
    """
    name, args = _parse_call(spec, what)
    factory = registry.get(name)
    if factory is None:
        raise ConfigError("unknown %s %r; known: %s"
                          % (what, name, ", ".join(sorted(registry))))
    try:
        inspect.signature(factory).bind(*args)
    except TypeError:
        raise ConfigError("wrong number of arguments for %s %r" % (what, spec))
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


def _map_or_none(spec):
    """The map a spec names, or None when its parameters are out of range.

    The map family must exist; an out-of-range parameter is a computation
    error surfaced when the run starts, not a config error.
    """
    try:
        return build_map(spec)
    except ConfigError:
        raise
    except PressureLabError:
        return None


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

    Only interval families with stable branch combinatorics support random
    perturbation: the cookie kinds and the circle kinds (the doubling map
    is the degree 2 circle map with a flat lift).
    """
    name, args = _parse_call(spec, "map")
    if name in ("cookie_cutter", "cookie"):
        params = args if args else (3.0, 3.0)
        if len(params) != 2:
            raise ConfigError("cookie family takes two slopes")
        return "cookie", tuple(float(v) for v in params)
    if name in ("circle", "circle_map"):
        if not args:
            raise ConfigError("circle family needs a degree")
        degree = args[0]
        amp = float(args[1]) if len(args) > 1 else 0.0
        return "circle", (int(degree), amp)
    if name == "doubling":
        return "circle", (2, 0.0)
    raise ConfigError("map %r has no random perturbation family" % spec)


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
    the checks battery (0 there means 0.1), while eps_schedule drives the
    stability sweep.  conj_depth of 0 lets the experiment match the
    conjugacy truncation error to its tolerance, as far as the word cap
    allows.
    """

    mode: str = "dimension"
    map: str = "cookie_cutter(3,3)"
    potential: str = "zero"
    depth: int = 0
    tol: float = 1e-9
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
        """Concrete copy with the mode's default depth for a depth of 0."""
        cfg = self
        if cfg.mode not in MODES:
            raise ConfigError("unknown mode %r; known: %s"
                              % (cfg.mode, ", ".join(MODES)))
        if cfg.depth == 0 and cfg.mode in _MODE_DEPTH:
            cfg = cfg._replace(depth=_MODE_DEPTH[cfg.mode])
            if cfg.mode == "pressure":
                # the deepest default walk that fits under the word cap
                mapping = _map_or_none(cfg.map)
                while cfg.depth > 1 and cfg._walk_words(mapping) > WORD_CAP:
                    cfg = cfg._replace(depth=cfg.depth - 1)
        cfg.validate()
        return cfg

    def validate(self):
        """Raise ConfigError unless this resolved config can run."""
        if "depth" in _MODE_KEYS[self.mode] and self.depth < 1:
            raise ConfigError("depth must be positive")
        if self.tol <= 0.0:
            raise ConfigError("tol must be positive")
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
        if self.mode == "stability" and not self.eps_schedule:
            raise ConfigError("stability mode needs a nonempty eps_schedule")
        if not self.out:
            raise ConfigError("out directory must be set")
        mapping = _map_or_none(self.map)
        if self.mode == "pressure":
            build_potential(self.potential)
        if self.mode in ("stability", "entropy"):
            family_shape(self.map)
        if self.mode == "lyapunov" and mapping is not None:
            # the lyapunov layer loads only with the mode that runs it
            from .lyapunov import _check_closable

            try:
                _check_closable(mapping, self.orbit_word)
            except InadmissibleWord as exc:
                raise ConfigError("orbit_word %r on %s: %s"
                                  % (self.orbit_word, self.map, exc))
        words = self._walk_words(mapping)
        if words > WORD_CAP:
            raise ConfigError("%s mode on %s enumerates %.0f words of length "
                              "%d, cap is %d" % (self.mode, self.map, words,
                                                 self._deepest_walk(mapping),
                                                 WORD_CAP))

    def _walk_words(self, mapping):
        """Words in the deepest cylinder walk of a run; 0 for none."""
        depth = self._deepest_walk(mapping) if mapping is not None else 0
        return mapping.count_words(depth) if depth else 0

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

    # -- builders -----------------------------------------------------------

    def build_map(self):
        return build_map(self.map)

    def build_potential(self):
        return build_potential(self.potential)

    def family_shape(self):
        return family_shape(self.map)


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
        key = key.strip().replace("-", "_")
        if key not in ExperimentConfig._fields:
            raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
        values[key] = _coerce(key, raw.strip())
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pressurelab",
        description="Batch experiments on expanding repellers: dimension "
                    "and pressure computations, Lyapunov exponents, random "
                    "perturbation stability sweeps, and invariant checks.")
    parser.add_argument("--config", metavar="PATH",
                        help="flat key=value config file")
    parser.add_argument("--mode", choices=MODES, help="experiment mode")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--seed", type=int, metavar="N", help="base seed")
    parser.add_argument("--workers", type=int, metavar="K",
                        help="accepted and ignored; every run is serial")
    parser.add_argument("--tol", type=float, metavar="X",
                        help="root tolerance of dimension runs")
    parser.add_argument("--eps-schedule", metavar="LIST",
                        help="comma separated noise levels, largest first")
    parser.add_argument("overrides", nargs="*", metavar="KEY=VALUE",
                        help="extra config overrides, e.g. map=doubling")
    return parser


def parse_args(argv=None):
    """Config from defaults, file, key=value overrides, then flags."""
    args = _build_parser().parse_args(argv)
    values = {}
    if args.config:
        values.update(read_config_file(args.config))
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError("override %r is not KEY=VALUE" % item)
        key, raw = item.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in ExperimentConfig._fields:
            raise ConfigError("unknown config key %r" % key)
        values[key] = _coerce(key, raw.strip())
    for key in ("mode", "out", "seed", "workers", "tol", "eps_schedule"):
        if getattr(args, key) is not None:
            values[key] = _coerce(key, getattr(args, key))
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
