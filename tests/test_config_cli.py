"""Configuration resolution and the batch front end."""

import csv
import gc
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pressurelab as pl
from pressurelab import cli
from pressurelab import config as cfgmod
from pressurelab.config import build_map, build_potential


def make(mode="dimension", **kw):
    return cfgmod.parse_args([f"mode={mode}"] + [f"{k}={v}"
                                                 for k, v in kw.items()])


def test_mode_defaults_fill_depth_and_checks_epsilon():
    cfg = make("dimension")
    assert cfg.depth == 12
    cfg = make("stability")
    assert cfg.depth == 16
    assert make("checks").epsilon == cfgmod.CHECKS_EPSILON
    assert make("entropy").epsilon == 0.0


def test_checks_record_the_noise_the_battery_runs_at():
    """A checks run at the default noise records as one that sets it."""
    assert make("checks").canonical() \
        == make("checks", epsilon=str(cfgmod.CHECKS_EPSILON)).canonical()
    assert "epsilon=0.1" in make("checks").canonical().split("\n")


def test_flag_precedence_over_file_and_positional(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("mode = stability\ndepth = 6\nseed = 3\n# comment\n")
    cfg = cfgmod.parse_args(["--config", str(path)])
    assert (cfg.mode, cfg.depth, cfg.seed) == ("stability", 6, 3)
    cfg = cfgmod.parse_args(["--config", str(path), "depth=8"])
    assert cfg.depth == 8
    cfg = cfgmod.parse_args(["--config", str(path), "seed=9", "--seed", "4"])
    assert cfg.seed == 4


def test_unknown_keys_and_modes_are_config_errors(tmp_path):
    with pytest.raises(pl.ConfigError):
        cfgmod.parse_args(["mode=nonsense"])
    with pytest.raises(pl.ConfigError):
        cfgmod.parse_args(["bogus_key=1"])
    with pytest.raises(pl.ConfigError):
        cfgmod.parse_args(["mode=dimension", "depth=-2"])
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_key = 1\n")
    with pytest.raises(pl.ConfigError):
        cfgmod.parse_args(["--config", str(path)])
    with pytest.raises(pl.ConfigError, match="cannot read config file"):
        cfgmod.parse_args(["--config", str(tmp_path / "missing.cfg")])
    path.write_text("mode = dimension\ndepth 8\n")
    with pytest.raises(pl.ConfigError, match="bad.cfg:2: expected key=value"):
        cfgmod.parse_args(["--config", str(path)])
    for argv in (["--config", str(tmp_path / "missing.cfg")],
                 ["--config", str(path)]):
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert not out.exists()


def test_map_and_potential_specs():
    mp = build_map("cookie_cutter(2,4)")
    assert mp.n_symbols == 2
    assert build_map("circle(3,0.05)").n_symbols == 3
    pot = build_potential("geometric(0.5)")
    assert pot.weight == pytest.approx(0.5)
    with pytest.raises(pl.ConfigError):
        build_map("mystery(1)")
    with pytest.raises(pl.ConfigError):
        build_potential("mystery")


def test_map_aliases_share_one_registry():
    pairs = (("cookie(2,4)", "cookie_cutter(2,4)"),
             ("circle_map(3,0.05)", "circle(3,0.05)"),
             ("toral_map(2,3)", "toral(2,3)"), ("golden", "golden_mean"))
    for alias, name in pairs:
        assert build_map(alias).describe() == build_map(name).describe()
    with pytest.raises(pl.ConfigError):
        build_map("toral(2,3,4)")
    with pytest.raises(pl.BadSpec):
        build_map("toral(1,2)")


def test_family_shape_mapping():
    assert cfgmod.family_shape("cookie_cutter(3,3)") == ("cookie", (3.0, 3.0))
    assert cfgmod.family_shape("doubling") == ("circle", (2, 0.0))
    with pytest.raises(pl.ConfigError):
        cfgmod.family_shape("golden_mean")


@pytest.mark.parametrize("spec, same", [
    ("circle", "circle"), ("circle_map()", "circle_map()"),
    ("circle(3)", "circle(3)"), ("cookie", "cookie"),
    ("cookie_cutter(3)", "cookie_cutter(3)"),
    # the doubling map is the degree 2 circle map with a flat lift
    ("doubling", "circle(2)"),
])
def test_family_perturbs_the_map_its_spec_builds(spec, same):
    """Map names resolve through the registry, with the factory defaults."""
    kind, params = cfgmod.family_shape(spec)
    family = pl.RandomFamily(kind, params, 0.0)
    assert family.base_map.describe() == build_map(same).describe()


def test_stability_mode_rejects_markov_carriers():
    with pytest.raises(pl.ConfigError):
        make("stability", map="golden_mean")


def test_record_config_ignores_execution_details():
    a = make("dimension", out="first_dir").canonical()
    b = make("dimension", out="second_dir", workers="4").canonical()
    assert a == b
    assert "depth=12" in a.split("\n")
    c = make("dimension", depth="9").canonical()
    assert c != a


def test_seeds_must_fit_the_64_bit_letter_hash(tmp_path):
    top = 2 ** 64
    assert make("checks", seed=str(top - 1)).seed == top - 1
    assert make("stability", seed=str(top - 16), seeds="16").seeds == 16
    for mode, seed in (("checks", top), ("stability", top - 15)):
        with pytest.raises(pl.ConfigError, match="2\\^64"):
            make(mode, seed=str(seed))
    with pytest.raises(pl.ConfigError, match="dimension mode does not read"):
        make("dimension", seed=str(top + 5))
    assert cli.main(["--mode", "checks", "--seed", str(top),
                     "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


# the keys each mode reads, besides mode, out and workers
MODE_READS = {
    "dimension": {"map", "depth"},
    "pressure": {"map", "potential", "depth"},
    "lyapunov": {"map", "orbit_word"},
    "stability": {"map", "eps_schedule", "depth", "seeds", "seed", "letters",
                  "conj_depth"},
    "entropy": {"map", "epsilon", "letters"},
    "checks": {"map", "seed", "epsilon", "letters"},
}
# a value every mode would accept for each key
KEY_VALUES = {"map": "cookie_cutter(3,3)", "potential": "geometric(0.5)",
              "depth": "8", "eps_schedule": "0.1",
              "seeds": "4", "seed": "3", "epsilon": "0.1", "letters": "3",
              "conj_depth": "8", "orbit_word": "0,1"}
# former keys, now constants, that every mode rejects as unknown: tol is
# ``bowen.DIMENSION_TOL``
RETIRED_KEYS = {"tol": "1e-12"}


@pytest.mark.parametrize("mode, key", [
    (mode, key) for mode, reads in MODE_READS.items()
    for key in sorted(set(KEY_VALUES) - reads) + sorted(RETIRED_KEYS)])
def test_unread_keys_are_config_errors(tmp_path, capsys, monkeypatch, mode,
                                       key):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a key the mode does not read")

    monkeypatch.setattr(cli, "run", no_work)
    value = {**KEY_VALUES, **RETIRED_KEYS}[key]
    path = tmp_path / "exp.cfg"
    path.write_text("mode = %s\n%s = %s\n" % (mode, key, value))
    routes = [["--mode", mode, "%s=%s" % (key, value)],
              ["--config", str(path)],
              ["--mode", mode, "--" + key.replace("_", "-"), value]]
    for argv in routes:
        rc, out = run_mode(tmp_path, *argv)
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        if key in RETIRED_KEYS:
            assert "unknown" in err and key in err
        else:
            assert "%s mode does not read %s;" % (mode, key) in err


@pytest.mark.parametrize("spec", ["toral(2,3)", "toral_conformal(3)"])
def test_geometric_potential_on_a_torus_is_a_config_error(tmp_path, capsys,
                                                          monkeypatch, spec):
    """Torus cells have singular values, not the log f' geometric reads."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a potential the map lacks")

    monkeypatch.setattr(cli, "run", no_work)
    keys = {"map": spec, "potential": "geometric(0.5)", "depth": "6"}
    path = tmp_path / "exp.cfg"
    path.write_text("mode = pressure\n" + "".join(
        "%s = %s\n" % item for item in keys.items()))
    routes = [["--mode", "pressure"] + ["%s=%s" % item for item in keys.items()],
              ["--config", str(path)],
              ["--mode", "pressure"] + [arg for key, value in keys.items()
                                        for arg in ("--" + key, value)]]
    for argv in routes:
        rc, out = run_mode(tmp_path, *argv)
        assert rc == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "singular_upper" in err and "singular_lower" in err


def test_flags_beat_overrides_and_overrides_beat_the_file(tmp_path):
    """Precedence is by source, whatever the order on the command line."""
    path = tmp_path / "exp.cfg"
    path.write_text("mode = stability\ndepth = 6\nseeds = 3\nletters = 4\n")
    cfg = cfgmod.parse_args(["--depth", "9", "depth=7", "seeds=5",
                             "--config", str(path)])
    assert (cfg.mode, cfg.depth, cfg.seeds, cfg.letters) \
        == ("stability", 9, 5, 4)
    # among flags, and among overrides, the last one wins
    cfg = cfgmod.parse_args(["--config", str(path), "--depth", "9",
                             "--depth=11", "seeds=5", "seeds=2",
                             "--conj-depth", "7", "--conj_depth", "8"])
    assert (cfg.depth, cfg.seeds, cfg.conj_depth) == (11, 2, 8)


# text for every key a mode reads, values the mode rejects included
KEY_TEXTS = {
    "map": st.sampled_from(["cookie_cutter(3,3)", "cookie(2,4)", "doubling",
                            "circle(3,0.05)", "golden_mean", "mystery(1)"]),
    "potential": st.sampled_from(["zero", "geometric(0.5)", "bogus",
                                  "singular_upper(0.7)"]),
    "depth": st.integers(min_value=-1, max_value=9).map(str),
    "eps_schedule": st.sampled_from(["0.1", "0.2,0.05", "0.1;0.01", "", "a"]),
    "seeds": st.integers(min_value=0, max_value=20).map(str),
    "seed": st.integers(min_value=-2, max_value=2 ** 64 + 1).map(str),
    "epsilon": st.sampled_from(["0", "0.05", "0.1", "0.3", "-0.1"]),
    "letters": st.integers(min_value=0, max_value=5).map(str),
    "conj_depth": st.integers(min_value=0, max_value=12).map(str),
    "orbit_word": st.sampled_from(["0,1", "0", "1,1", "0,3", "-1"]),
}


def _parsed(argv):
    """The config ``argv`` resolves to, or the text of its config error."""
    try:
        return cfgmod.parse_args(argv)
    except pl.ConfigError as exc:
        return "config error: %s" % exc


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(mode, key) for mode in sorted(MODE_READS)
                        for key in sorted(MODE_READS[mode])]),
       st.booleans(), st.data())
def test_a_flag_sets_a_key_as_its_override_does(mode_key, dashes, data):
    mode, key = mode_key
    text = data.draw(KEY_TEXTS[key])
    flag = "--" + (key.replace("_", "-") if dashes else key)
    expected = _parsed(["mode=%s" % mode, "%s=%s" % (key, text)])
    assert _parsed(["--mode", mode, flag, text]) == expected
    assert _parsed(["--mode=%s" % mode, "%s=%s" % (flag, text)]) == expected


def test_help_lists_every_mode_and_the_keys_it_reads(capsys):
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as stop:
            cli.main(["--mode", "stability", flag, "--no-such-flag"])
        assert stop.value.code == 0
        text = capsys.readouterr().out
        assert text.startswith("usage: pressurelab")
        table = text.split("keys it reads\n", 1)[1].splitlines()
        assert {row.split()[0]: set(row.split()[1:]) for row in table} \
            == MODE_READS


@pytest.mark.parametrize("args", [
    ("--no-such-key", "1"),
    ("--mode", "checks", "--seed"),
    ("--seed", "--mode", "checks"),
    ("--config",),
    ("-x", "1"),
    ("stray",),
    ("--mode", "dimension", "map=cookie_cutter(3,3"),
    ("--mode", "dimension", "map=cookie_cutter(3,x)"),
    ("--mode", "dimension", "depth=abc"),
    ("--mode", "dimension", "--out="),
])
def test_bad_flags_are_config_errors(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), *args]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: ")


def test_runs_load_no_argument_parsing_library(tmp_path):
    code = ("import sys\n"
            "from pressurelab import cli\n"
            "out = sys.argv[1]\n"
            "assert cli.main(['--mode', 'stability', '--seeds', '2',\n"
            "                 '--out', out + '/stability']) == 0\n"
            "assert cli.main(['--mode', 'checks', '--out', out + '/checks'])"
            " == 0\n"
            "print(sorted({'argparse', 'gettext', 'locale'}"
            " & set(sys.modules)))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("mode", sorted(MODE_READS))
def test_each_mode_records_the_keys_it_reads(tmp_path, mode):
    assert set(KEY_VALUES) | {"mode", "out", "workers"} \
        == set(cfgmod.ExperimentConfig._fields)
    cfg = cfgmod.parse_args(["--mode", mode, "--workers", "1",
                             "out=%s" % (tmp_path / "out")])
    lines = cfg.canonical().split("\n")
    assert [line.split("=", 1)[0] for line in lines] \
        == sorted(MODE_READS[mode] | {"mode"})
    assert "mode=%s" % mode in lines


@pytest.mark.parametrize("args", [
    ("map=golden_mean", "orbit_word=1,1"),
    ("map=cookie_cutter(3,3)", "orbit_word=0,2"),
    ("orbit_word=-1",),
    ("map=golden_mean", "orbit_word=1"),
])
def test_lyapunov_rejects_inadmissible_orbit_words(tmp_path, capsys, args):
    rc, out = run_mode(tmp_path, "--mode", "lyapunov", *args)
    assert rc == 2
    assert not out.exists()
    assert "config error: orbit_word" in capsys.readouterr().err


def test_letters_must_fit_the_32_bit_letter_draw():
    assert make("stability", letters=str(2 ** 32)).letters == 2 ** 32
    for mode in ("stability", "entropy", "checks"):
        with pytest.raises(pl.ConfigError, match="2\\^32"):
            make(mode, letters=str(2 ** 32 + 1))


def run_mode(tmp_path, *args):
    out = tmp_path / "out"
    rc = cli.main(list(args) + [f"out={out}"])
    return rc, out


def test_cli_dimension_run(tmp_path):
    rc, out = run_mode(tmp_path, "mode=dimension", "map=cookie_cutter(3,3)")
    assert rc == 0
    body = (out / "run.csv").read_text()
    header, data = [line.split(",") for line in body.strip().split("\n")]
    t_root = float(data[header.index("t_root")])
    assert t_root == pytest.approx(math.log(2.0) / math.log(3.0), abs=1e-6)
    record = (out / "record.txt").read_text()
    assert "status=ok" in record
    config = [line for line in record.split("\n")
              if line.startswith("config.")]
    assert "config.map=cookie_cutter(3,3)" in config
    assert "config.depth=12" in config
    assert not any(line.startswith(("config.out=", "config.workers="))
                   for line in config)
    assert (out / "certificates.txt").exists()


def test_cli_record_names_the_package_version(tmp_path):
    rc, out = run_mode(tmp_path, "mode=dimension", "map=doubling", "depth=4")
    assert rc == 0
    record = (out / "record.txt").read_text()
    assert "version.package=pressurelab %s\n" % pl.__version__ in record
    assert "unknown" not in record


def test_cli_runs_are_byte_identical(tmp_path):
    rc1, out1 = run_mode(tmp_path / "a", "mode=entropy",
                         "map=cookie_cutter(3,3)")
    rc2, out2 = run_mode(tmp_path / "b", "mode=entropy",
                         "map=cookie_cutter(3,3)")
    assert rc1 == rc2 == 0
    assert (out1 / "run.csv").read_text().split("\n")[0] \
        == "map,epsilon,letters,entropy"
    assert (out1 / "run.csv").read_bytes() == (out2 / "run.csv").read_bytes()
    assert ((out1 / "certificates.txt").read_bytes()
            == (out2 / "certificates.txt").read_bytes())


def test_cli_stability_workers_equivalent(tmp_path):
    common = ["mode=stability", "map=cookie_cutter(3,3)",
              "eps_schedule=0.1,0.05", "seeds=4", "depth=8"]
    rc1, serial = run_mode(tmp_path / "serial", *common, "workers=1")
    rc2, pooled = run_mode(tmp_path / "pool", *common, "workers=3")
    assert rc1 == rc2 == 0
    assert ((serial / "run.csv").read_bytes()
            == (pooled / "run.csv").read_bytes())
    svg = (serial / "gaps.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_cli_checks_battery(tmp_path):
    rc, out = run_mode(tmp_path, "mode=checks")
    assert rc == 0
    cert = (out / "certificates.txt").read_text()
    statuses = [line for line in cert.splitlines()
                if line.startswith("check.")]
    assert len(statuses) == 14
    assert all(line.endswith("=pass") for line in statuses)


@pytest.mark.parametrize("spec", ["golden_mean", "toral(2,3)",
                                  "toral_conformal(3)"])
def test_checks_reject_maps_without_a_perturbation_family(tmp_path, capsys,
                                                          spec):
    """The random_bundle checks perturb the configured map, or none."""
    rc, out = run_mode(tmp_path, "--mode", "checks", "map=%s" % spec)
    assert rc == 2
    assert not out.exists()
    assert "has no random perturbation family" in capsys.readouterr().err


def test_checks_certify_the_battery_family_before_any_work(tmp_path,
                                                           capsys):
    """A degree 2 circle family cannot carry the battery's default noise."""
    rc, out = run_mode(tmp_path, "--mode", "checks", "map=doubling")
    assert rc == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: checks mode cannot perturb doubling")
    assert "epsilon %g" % cfgmod.CHECKS_EPSILON in err
    assert make("checks", map="doubling", epsilon="0.05").epsilon == 0.05
    for mode in ("checks", "entropy"):
        with pytest.raises(pl.ConfigError, match="cannot perturb"):
            make(mode, epsilon="0.5", letters="3")


@pytest.mark.parametrize("spec", ["golden_mean", "cookie_cutter(2,4)",
                                  "circle(3,0.05)"])
def test_checks_perturb_with_the_configured_letters(monkeypatch, spec):
    """A checks config either fails or builds every family on its letters."""
    from pressurelab import checks

    built = []
    family = checks.RandomFamily

    def recorded(kind, params, eps, n_letters):
        built.append((kind, n_letters))
        return family(kind, params, eps, n_letters)

    monkeypatch.setattr(checks, "RandomFamily", recorded)
    try:
        cfg = make("checks", map=spec, letters="3")
    except pl.ConfigError:
        assert spec == "golden_mean"
        return
    for module, _, check in checks._battery(cfg):
        if module == "random_bundle":
            check()
    kind = cfgmod.family_shape(spec)[0]
    assert len(built) == 5 and set(built) == {(kind, 3)}


def test_cli_failed_check_names_itself(tmp_path, monkeypatch, capsys):
    """A checks run goes through cli.run, and a failed check is its error."""
    from pressurelab import checks

    def broken():
        raise pl.CheckFailed("deliberately broken")

    battery = checks._battery
    monkeypatch.setattr(checks, "_battery", lambda cfg: [
        (module, name, broken if name == "entropy_identity" else fn)
        for module, name, fn in battery(cfg)])
    rc, out = run_mode(tmp_path, "mode=checks")
    assert rc == 1
    record = (out / "record.txt").read_text().splitlines()
    assert "status=fail" in record
    assert "error=failed checks: pressure.entropy_identity" in record
    assert "summary.checks_failed=1" in record
    captured = capsys.readouterr()
    assert "checks_failed=1\nchecks_total=14\n" in captured.out
    assert "run failed: failed checks: pressure.entropy_identity" \
        in captured.err
    with open(out / "run.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["status"] for row in rows].count("fail") == 1
    assert "CheckFailed: deliberately broken" in {row["detail"]
                                                  for row in rows}


def test_cli_checks_record_times_every_check(tmp_path):
    rc, out = run_mode(tmp_path, "mode=checks")
    assert rc == 0
    with open(out / "run.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    record = (out / "record.txt").read_text().splitlines()
    timings = [line for line in record if line.startswith("timing.check.")]
    assert [line.split("=")[0] for line in timings] == [
        "timing.check.%s.%s" % (row["module"], row["check"]) for row in rows]
    assert all(float(line.split("=")[1]) >= 0.0 for line in timings)
    assert "timing." not in (out / "certificates.txt").read_text()


@pytest.mark.parametrize("args", [
    ("--mode", "dimension", "map=doubling", "depth=4"),
    ("--mode", "stability", "map=cookie_cutter(3,3)", "eps_schedule=0.1",
     "seeds=2", "depth=8"),
    ("--mode", "checks"),
])
def test_cli_record_times_every_stage(tmp_path, args):
    rc, out = run_mode(tmp_path, *args)
    assert rc == 0
    record = (out / "record.txt").read_text()
    stages = [line.split("=") for line in record.splitlines()
              if line.startswith("timing.") and "check." not in line]
    assert [key for key, _ in stages] == [
        "timing.import", "timing.parse", "timing.run", "timing.write"]
    assert all(float(seconds) >= 0.0 for _, seconds in stages)
    (modules,) = [line for line in record.splitlines()
                  if line.startswith("count.")]
    assert 1 <= int(modules.split("=")[1]) <= len(pl._SUBMODULES)
    for name in ("run.csv", "certificates.txt"):
        body = (out / name).read_text()
        assert "timing." not in body and "count." not in body


def test_cli_error_attribution(tmp_path, monkeypatch):
    """A run that fails while computing records the error it died of."""
    def broken(cfg):
        raise pl.NonExpanding("deliberately not expanding")

    monkeypatch.setitem(cli._PIPELINES, "dimension", broken)
    out = tmp_path / "out"
    rc = cli.main(["mode=dimension", "map=cookie_cutter(3,3)", f"out={out}"])
    assert rc == 1
    record = (out / "record.txt").read_text().splitlines()
    assert "status=error" in record
    assert "error=NonExpanding: deliberately not expanding" in record


@pytest.mark.parametrize("args", [
    ("--mode", "stability", "--seed", "-1"),
    ("--mode", "checks", "--seed", "-3"),
    # an empty schedule has no level to run
    ("--mode", "stability", "eps_schedule="),
    # letters are drawn from 32 hash bits
    ("--mode", "stability", "letters=4294967297"),
    # certificates are keyed by level, so a repeat would drop a block
    ("--mode", "stability", "eps_schedule=0.1,0.1", "seeds=2"),
    ("--mode", "stability", "eps_schedule=0.2,0.05,0.20"),
    ("--mode", "stability", "seeds=0"),
    ("--mode", "stability", "conj_depth=-1"),
    # a conjugacy defect compares two levels of one walk
    ("--mode", "stability", "conj_depth=1"),
    ("--mode", "stability", "eps_schedule=-0.1"),
    ("--mode", "entropy", "epsilon=-0.1"),
    ("--mode", "checks", "epsilon=-0.1"),
    # integer map parameters are not truncated
    ("--mode", "dimension", "map=circle(3.5,0.05)", "depth=6"),
    ("--mode", "stability", "map=circle(3.5,0.05)", "seeds=2"),
    ("--mode", "pressure", "map=toral(2.7,3)", "depth=6"),
    ("--mode", "dimension", "map=toral_conformal(2.9)", "depth=6"),
    # a map whose parameters are out of range cannot be built
    ("--mode", "dimension", "map=circle(1,0.05)", "depth=6"),
    ("--mode", "dimension", "map=circle(2,0.4)", "depth=6"),
    ("--mode", "dimension", "map=toral(1,3)", "depth=6"),
    ("--mode", "dimension", "map=cookie_cutter(0.5,3)", "depth=6"),
])
def test_cli_rejects_unrunnable_sweeps_before_any_work(tmp_path, capsys,
                                                       monkeypatch, args):
    def no_work(*args, **kwargs):
        raise AssertionError("work started on a config that cannot run")

    monkeypatch.setattr(cli, "run", no_work)
    rc, out = run_mode(tmp_path, *args)
    assert rc == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith("config error: ")


def test_cli_config_error_exit_code():
    assert cli.main(["mode=not_a_mode"]) == 2
    assert cli.main(["mode=dimension", "map=mystery(1)"]) == 2
    assert cli.main(["mode=dimension", "map=cookie(3,3,3)"]) == 2
    assert cli.main(["mode=dimension", "map=linear_markov(1,2)"]) == 2
    assert cli.main(["mode=dimension", "workers=0"]) == 2


def test_integral_float_map_parameters_are_integers():
    assert build_map("circle(3.0,0.05)").describe() \
        == build_map("circle(3,0.05)").describe()
    assert build_map("toral(2.0,3)").n_symbols == 6


def test_cli_runs_leave_nothing_for_the_exit_collections(tmp_path,
                                                         monkeypatch):
    """The heap is frozen at exit, so teardown collects no cycle.

    A file left unclosed in a reference cycle would lose its unflushed
    buffer there, so a run must leave no such cycle.
    """
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    gc.collect()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for mode, *keys in (("stability", "seeds=2"), ("checks",)):
            out = tmp_path / mode
            assert cli.main(["--mode", mode, *keys, f"out={out}"]) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
    assert unraisable == []
    assert gc.garbage == []


def test_cli_hooks_one_freeze_at_exit_however_often_main_runs(tmp_path):
    # atexit._ncallbacks() also counts unregistered slots, so the hook is
    # counted by the calls it gets at exit
    code = ("import gc, sys\n"
            "from pressurelab import cli\n"
            "freeze = gc.freeze\n"
            "def counted():\n"
            "    print('freeze')\n"
            "    freeze()\n"
            "gc.freeze = counted\n"
            "for run in 'ab':\n"
            "    assert cli.main(['--mode', 'entropy',\n"
            "                     '--out', sys.argv[1] + '/' + run]) == 0\n"
            "print('returned')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(pl.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == ["returned", "freeze"]
    assert proc.stdout.splitlines().count("freeze") == 1


@pytest.mark.parametrize("args", [
    ("--mode", "dimension", "map=circle(3,0.05)", "depth=13"),
    ("--mode", "pressure", "map=doubling", "depth=21"),
    # 2178309 golden mean words; entropies are closed forms and walk none
    ("--mode", "dimension", "map=golden_mean", "depth=30"),
    ("--mode", "stability", "map=cookie_cutter(3,3)", "conj_depth=21"),
    # the reference root of a sweep walks to depth 12 whatever depth says
    ("--mode", "stability", "map=circle(4,0.05)", "depth=8"),
    # additive torus pressure enumerates words; only closed forms do not
    ("--mode", "pressure", "map=toral(2,3)", "depth=8"),
    # the cap check counts in capped ints, so no depth is too deep to check
    ("--mode", "dimension", "map=circle(3,0.05)", "depth=1000000000"),
    ("--mode", "stability", "map=cookie_cutter(3,3)",
     "conj_depth=1000000000"),
])
def test_cli_rejects_walks_over_the_word_cap(tmp_path, capsys, args):
    rc, out = run_mode(tmp_path, *args)
    assert rc == 2
    assert not out.exists()
    assert "cap is %d" % pl.WORD_CAP in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ("--mode", "stability", "seeds=2"),
    ("--mode", "checks"),
], ids=["stability", "checks"])
def test_runs_raise_no_float_matrix_to_a_power(tmp_path, monkeypatch, args):
    """Word counts are exact ints, so no run calls ``matrix_power``."""
    def no_power(*args, **kwargs):
        raise AssertionError("a run raised a float matrix to a power")

    monkeypatch.setattr(np.linalg, "matrix_power", no_power)
    rc, out = run_mode(tmp_path, *args)
    assert rc == 0
    record = (out / "record.txt").read_text()
    assert "status=ok\n" in record
    if "checks" in args:
        assert "summary.checks_failed=0\n" in record


def test_cli_entropy_runs_at_any_depth(tmp_path, capsys):
    """Full shifts have k^n words of length n, so entropy is log k at every
    depth, and depth is no entropy key."""
    rc, out = run_mode(tmp_path, "--mode", "entropy", "map=circle(100,0.05)")
    assert rc == 0
    record = (out / "record.txt").read_text()
    assert "status=ok\n" in record
    assert "summary.entropy=%.12g\n" % math.log(100) in record
    assert "config.depth=" not in record
    for depth in (("depth=1000000000",), ("--depth", "13")):
        rc, out = run_mode(tmp_path / depth[-1], "--mode", "entropy", *depth)
        assert rc == 2
        assert not out.exists()
        assert "entropy mode does not read depth;" in capsys.readouterr().err


def test_cli_stability_roots_need_no_word_walk(tmp_path):
    # 3^16 fiber words would exceed the cap; fiber roots walk none, and the
    # deepest walks (conjugacy and reference root, depth 12) fit
    rc, out = run_mode(tmp_path, "--mode", "stability", "map=circle(3,0.05)",
                       "seeds=2")
    assert rc == 0
    assert "status=ok\n" in (out / "record.txt").read_text()
    cert = (out / "certificates.txt").read_text()
    assert "failures.eps_0.2=" in cert
    with open(out / "run.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    roots = [float(row["t_root"]) for row in rows[1:]]
    assert [row["epsilon"] for row in rows] == ["0.2", "0.1", "0.05", "0.025"]
    assert math.isnan(float(rows[0]["t_root"]))
    assert all(0.0 < t <= 1.0 for t in roots)
    for eps in ("0.1", "0.05", "0.025"):
        assert "eps_%s.root_nodes=" % eps in cert


def test_default_pressure_depth_fits_the_word_cap(tmp_path):
    # 6^10 torus words would exceed the cap; 6^7 is the deepest that fits
    assert make("pressure", map="toral(2,3)").depth == 7
    assert make("pressure", map="toral(2,3)",
                potential="singular_upper(0.7)").depth == 10
    assert make("pressure", map="cookie_cutter(3,3)").depth == 10
    assert make("pressure", map="doubling").depth == 10
    rc, out = run_mode(tmp_path, "--mode", "pressure", "map=toral(2,3)")
    assert rc == 0
    assert "status=ok\n" in (out / "record.txt").read_text()


@pytest.mark.parametrize("args", [
    ("--mode", "dimension", "map=toral(2,3)", "depth=20"),
    ("--mode", "pressure", "map=toral(2,3)", "potential=singular_upper(0.7)",
     "depth=20"),
    # A^k leaves float range here; the closed forms work in log space
    ("--mode", "dimension", "map=toral(2,3)", "depth=1000"),
    ("--mode", "pressure", "map=toral(2,3)", "potential=singular_upper(0.7)",
     "depth=700"),
    # 3^13 fiber words at depth 13: the entropy is log 3 and walks none
    ("--mode", "entropy", "map=circle(3,0.05)"),
])
def test_cli_closed_form_torus_runs_skip_the_word_cap(tmp_path, args):
    rc, out = run_mode(tmp_path, *args)
    assert rc == 0
    assert "status=ok\n" in (out / "record.txt").read_text()


@pytest.mark.parametrize("args", [
    # no run allocates per letter: entropy never reads one
    ("--mode", "entropy", "map=cookie_cutter(3,3)", "epsilon=0.1",
     "letters=4294967296"),
    # a bare map name takes its factory's defaults in every mode
    ("--mode", "entropy", "map=circle"),
])
def test_cli_entropy_runs_of_any_letter_count_and_bare_names(tmp_path, args):
    rc, out = run_mode(tmp_path, *args)
    assert rc == 0
    assert "status=ok\n" in (out / "record.txt").read_text()


@pytest.mark.parametrize("args", [
    ("--mode", "checks"),
    ("--mode", "dimension", "map=toral(2,3)", "depth=64"),
    ("--mode", "pressure", "map=toral(2,3)", "potential=singular_upper(0.7)"),
    ("--mode", "lyapunov", "map=toral_conformal(3)", "orbit_word=0,4,7"),
])
def test_cli_torus_runs_call_no_lapack(tmp_path, monkeypatch, args):
    """Torus maps use 2x2 closed forms, so no run calls into LAPACK."""
    def refuse(*_args, **_kw):
        raise AssertionError("numpy.linalg called")

    for name in ("det", "inv", "svd", "eigvals", "eig", "solve"):
        monkeypatch.setattr(np.linalg, name, refuse)
    rc, out = run_mode(tmp_path, *args)
    assert rc == 0
    assert "status=ok\n" in (out / "record.txt").read_text()


@pytest.mark.parametrize("args", [
    ("--mode", "stability", "map=cookie_cutter(3,3)", "seeds=2"),
    ("--mode", "checks"),
])
def test_cli_validates_its_config_once(tmp_path, monkeypatch, args):
    calls = []
    validate = cfgmod.ExperimentConfig.validate

    def counted(self):
        calls.append(self.mode)
        return validate(self)

    monkeypatch.setattr(cfgmod.ExperimentConfig, "validate", counted)
    rc, _ = run_mode(tmp_path, *args)
    assert rc == 0
    assert calls == [args[1]]


def test_map_build_errors_name_their_cause():
    with pytest.raises(pl.ConfigError, match="wrong number of arguments"):
        build_map("cookie(3,3,3)")
    with pytest.raises(pl.ConfigError, match="wrong number of arguments"):
        build_potential("geometric(1,2)")
    # the count fits, but the factory wants interval lists, not numbers
    with pytest.raises(pl.ConfigError) as info:
        build_map("linear_markov(1,2)")
    message = str(info.value)
    assert "wrong number" not in message
    assert "linear_markov(1,2)" in message
    assert "not iterable" in message


def test_cli_singular_pressure_value_is_a_number(tmp_path):
    rc, out = run_mode(tmp_path, "mode=pressure", "map=toral(2,3)",
                       "potential=singular_upper(0.7)", "depth=6")
    assert rc == 0
    with open(out / "run.csv", newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    expect = pl.pressure_subadditive(pl.toral_map(2, 3),
                                     pl.Potential.singular_upper(0.7),
                                     depth=6).value
    assert float(row["value"]) == pytest.approx(expect, rel=1e-11)
    record = (out / "record.txt").read_text()
    assert "summary.pressure=%s\n" % row["value"] in record


def test_cli_stability_without_any_root_fails(tmp_path):
    rc, out = run_mode(tmp_path, "--mode", "stability",
                       "map=cookie_cutter(3,3)", "eps_schedule=0.9",
                       "seeds=2")
    assert rc == 1
    record = (out / "record.txt").read_text()
    assert "status=fail\n" in record
    assert "no noise level produced a root" in record
    assert "failures.eps_0.9=" in (out / "certificates.txt").read_text()
    assert (out / "run.csv").read_text().count("\n") == 2


def test_cli_stability_partial_failure_stays_ok(tmp_path):
    rc, out = run_mode(tmp_path, "--mode", "stability",
                       "map=cookie_cutter(3,3)", "eps_schedule=0.9,0.05",
                       "seeds=2", "depth=8")
    assert rc == 0
    assert "status=ok\n" in (out / "record.txt").read_text()
    assert "failures.eps_0.9=" in (out / "certificates.txt").read_text()
    # the failed level reports the sweep's reference root, depth and seeds
    with open(out / "run.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["epsilon"] for r in rows] == ["0.9", "0.05"]
    assert rows[0]["t_root"] == "nan" and rows[1]["t_root"] != "nan"
    for r in rows:
        assert (r["t0"], r["n"], r["seeds"]) == ("0.630929753571", "8", "2")
