"""What a run loads: the package's lazy names and each mode's modules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pressurelab as pl

SRC = str(Path(pl.__file__).resolve().parent.parent)

# runs the CLI on argv, then prints the package modules it loaded
_RUN = """
import sys
from pressurelab import cli
code = cli.main(sys.argv[1:])
print(" ".join(sorted(n for n in sys.modules if n.startswith("pressurelab."))))
sys.exit(code)
"""


def _fresh(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _loaded_by_run(out, *args):
    lines = _fresh(_RUN, *args, "--out", str(out))
    loaded = {name.split(".", 1)[1] for name in lines[-1].split()}
    record = (out / "record.txt").read_text()
    assert "count.modules=%d\n" % len(loaded) in record
    return loaded


def test_package_import_loads_no_submodule():
    lines = _fresh("import sys, pressurelab\n"
                   "print([n for n in sys.modules if '.' in n\n"
                   "       and n.startswith('pressurelab')])")
    assert lines == ["[]"]


_RANDOM = {"random_bundle", "transfer", "conjugacy"}


@pytest.mark.parametrize("args, absent", [
    # the sweep runs its roots on transfer operators, and only checks
    # and library callers run the one-window conjugacy code
    (("--mode", "stability", "map=cookie_cutter(3,3)", "seeds=2"),
     {"lyapunov", "checks", "pressure", "conjugacy"}),
    (("--mode", "dimension", "map=cookie_cutter(3,3)"),
     {"lyapunov", "checks", "pressure"} | _RANDOM),
    (("--mode", "pressure", "map=doubling", "potential=geometric(0.7)"),
     {"lyapunov", "checks", "bowen"} | _RANDOM),
    # torus roots are closed forms from dynamics, not pressure estimators
    (("--mode", "dimension", "map=toral(2,3)", "depth=20"),
     {"lyapunov", "checks", "pressure"} | _RANDOM),
    # entropies are word counts, not zero potential pressures
    (("--mode", "entropy", "map=circle(3,0.05)", "depth=13"),
     {"lyapunov", "checks", "pressure", "conjugacy"}),
])
def test_runs_skip_the_modules_of_other_modes(tmp_path, args, absent):
    loaded = _loaded_by_run(tmp_path / "out", *args)
    assert {"cli", "config", "dynamics", "cylinders"} <= loaded
    assert not loaded & absent


def test_checks_run_loads_every_module(tmp_path):
    loaded = _loaded_by_run(tmp_path / "out", "--mode", "checks")
    assert loaded == set(pl._SUBMODULES)


def test_public_names_resolve_to_their_modules():
    assert len(pl.__all__) == len(set(pl.__all__)) == 65
    listed = dir(pl)
    for name in pl.__all__:
        home = importlib.import_module("pressurelab." + pl._HOME[name])
        assert getattr(pl, name) is getattr(home, name)
        assert name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        pl.no_such_name


def test_random_bundle_forwards_the_names_moved_to_conjugacy():
    """The forwarded names are conjugacy's own objects, and no other name
    resolves through the forward."""
    code = ("import sys\n"
            "from pressurelab import random_bundle\n"
            "print('pressurelab.conjugacy' in sys.modules)\n")
    assert _fresh(code) == ["False"]
    from pressurelab import conjugacy, random_bundle
    assert random_bundle._MOVED_TO_CONJUGACY <= set(vars(conjugacy))
    for name in random_bundle._MOVED_TO_CONJUGACY:
        assert getattr(random_bundle, name) is getattr(conjugacy, name)
        assert name not in vars(random_bundle)
    for name in ("no_such_name", "random_pressure", "MAX_ROOT_NODES"):
        with pytest.raises(AttributeError, match=name):
            getattr(random_bundle, name)


def test_runs_load_neither_numpy_random_nor_hashlib(tmp_path):
    """Letters come from a counter hash, and records list the config."""
    code = ("import sys\n"
            "from pressurelab import cli\n"
            "out = sys.argv[1]\n"
            "assert cli.main(['--mode', 'stability', 'seeds=2',\n"
            "                 '--out', out + '/stability']) == 0\n"
            "assert cli.main(['--mode', 'checks', '--out', out + '/checks'])"
            " == 0\n"
            "print(sorted({'numpy.random', 'hashlib', '_hashlib'}\n"
            "             & set(sys.modules)))\n")
    assert _fresh(code, str(tmp_path))[-1] == "[]"
