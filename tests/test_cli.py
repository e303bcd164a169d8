import csv
import io
import json
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import yaml

from pressure_lab.cli import (ConfigError, DEFAULT_CONFIG, load_config, main,
                              validate_config)


# ledger.csv of the study in test_study_deterministic_across_jobs, frozen
REFERENCE_LEDGER = os.path.join(os.path.dirname(__file__), "data",
                                "study_small_ledger.csv")

SMALL = [
    "--set", "domain.nodes=128",
    "--set", "grid.n_rho=32", "--set", "grid.n_theta=64",
    "--set", "grid.collar_n_s=32", "--set", "grid.collar_n_theta=64",
    "--set", "norms.n_random=2000",
]


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def test_default_config_valid():
    cfg = load_config()
    assert cfg == DEFAULT_CONFIG


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"grid": {"n_rho": 32},
                                    "field": {"kind": "rigid"}}))
    cfg = load_config(str(path))
    assert cfg["grid"]["n_rho"] == 32
    assert cfg["grid"]["n_theta"] == DEFAULT_CONFIG["grid"]["n_theta"]
    assert cfg["field"]["kind"] == "rigid"


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"grids": {"n_rho": 32}}))
    with pytest.raises(ConfigError, match="unknown config key: grids"):
        load_config(str(path))


def test_unknown_nested_key_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump({"grid": {"nrho": 32}}))
    with pytest.raises(ConfigError, match="unknown config key: grid.nrho"):
        load_config(str(path))


def test_set_override_types():
    cfg = load_config(overrides=["field.eta=1e-3", "grid.n_rho=16",
                                 "field.kind=zero"])
    assert cfg["field"]["eta"] == 1e-3
    assert cfg["grid"]["n_rho"] == 16
    assert cfg["field"]["kind"] == "zero"


def test_set_override_bad_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(overrides=["grid.bogus=1"])
    with pytest.raises(ConfigError, match="key=value"):
        load_config(overrides=["grid.n_rho"])


def test_cutoff_chain_validation():
    with pytest.raises(ConfigError, match="cutoffs"):
        load_config(overrides=["cutoffs.delta3=0.39"])


def test_eta_guard_validation():
    with pytest.raises(ConfigError, match="epsilon/4"):
        load_config(overrides=["field.eta=0.05"])
    with pytest.raises(ConfigError, match="epsilon/4"):
        load_config(overrides=["study.etas=[0.1]"])


def test_n_sub_guard():
    with pytest.raises(ConfigError, match="n_sub"):
        load_config(overrides=["mollify.n_sub=1"])


@pytest.mark.parametrize("override", [
    "mollify.probe_n=1", "mollify.probe_n=2.5", "mollify.probe_n=10",
    "mollify.probe_n=true", "mollify.n_sub=2.5", "mollify.n_sub=true",
    "domain.nodes=128.5", "grid.n_rho=32.5", "grid.n_theta=true",
    "grid.collar_n_s=32.5", "grid.collar_n_theta=64.0", "field.seed=0.5",
    "field.j_max=1.5", "norms.plan_seed=x", "norms.n_random=2000.5",
    "study.seeds=[0.5]", "study.seeds=3", "study.alphas=0.5",
    "study.etas=0.01", "jobs=1.5", "jobs=-3",
    "study.etas=[abc]", "study.alphas=[abc]", "field.alpha=abc",
    "cutoffs.delta=abc", "domain.radius=abc", "field.eta=0",
    "field.eta=-0.001", "study.etas=[0.0]", "grid=5",
])
def test_mollify_integer_guards_exit_code(tmp_path, capsys, override):
    # a fractional size used to end in a TypeError, probe_n = 1 in an
    # IndexError, and probe_n <= 10 in a divergence_max of 0.0 read on no
    # point at all; outside mollify, grid.collar_n_s = 32.5 ended in a
    # TypeError, and grid.n_rho = 32.5, field.j_max = 1.5, norms.n_random =
    # 2000.5 and study.seeds = [0.5] exited 0; a study list given as one
    # number ended in a TypeError, and a negative jobs ran serially.  A
    # string for a float leaf ended in a TypeError (a ValueError for
    # domain.radius), a section given as one number in an AttributeError,
    # and an eta <= 0 in a solver error or a ledger of error rows
    out = tmp_path / "out"
    rc = main(["solve", *SMALL, "--set", override, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error") and override.split("=")[0] in err
    assert "Traceback" not in err
    assert not out.exists()


def test_smallest_probe_grid_accepted():
    assert load_config(overrides=["mollify.probe_n=11"])["mollify"] == {
        "n_sub": 4, "probe_n": 11}


def test_alpha_range_guard():
    with pytest.raises(ConfigError, match="outside"):
        load_config(overrides=["study.alphas=[1.5]"])
    with pytest.raises(ConfigError, match="must not be empty"):
        load_config(overrides=["study.seeds=[]"])


def test_validate_config_direct():
    import copy
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    validate_config(cfg)
    cfg["study"]["etas"] = []
    with pytest.raises(ConfigError, match="etas"):
        validate_config(cfg)


# ----------------------------------------------------------------------
# subcommands through main()
# ----------------------------------------------------------------------

def test_main_config_error_exit_code(tmp_path, capsys):
    rc = main(["solve", "--set", "cutoffs.delta3=0.39",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_solve_non_disk_domain_exit_code(tmp_path, capsys):
    # the domain is a disk; the config has no key that selects another
    rc = main(["solve", "--set", "domain.kind=ellipse", *SMALL,
               "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert "unknown config key" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("override, message", [
    pytest.param("grid.collar_n_theta=96", "power of two", id="n_theta_96"),
    pytest.param("grid.collar_n_s=3", "n_s >= 4", id="n_s_3"),
])
def test_solve_bad_collar_grid_exit_code(tmp_path, capsys, override, message):
    out = tmp_path / "out"
    rc = main(["solve", "--set", "field.kind=rigid", *SMALL,
               "--set", override, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("validation error") and message in err
    assert len(err.strip().splitlines()) == 1
    # rejected before any work: no output directory was made
    assert not out.exists()


def test_solve_rigid(tmp_path):
    rc = main(["solve", "--set", "field.kind=rigid", *SMALL,
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert payload["oracle_error"] < 5e-3
    assert (tmp_path / "p.csv").exists()
    assert (tmp_path / "P.csv").exists()
    trace = (tmp_path / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "s,h_minus2_distance"
    assert len(trace) == 4


def test_solve_zero_field(tmp_path):
    rc = main(["solve", "--set", "field.kind=zero", *SMALL,
               "--out", str(tmp_path)])
    assert rc == 0
    rows = (tmp_path / "p.csv").read_text().strip().splitlines()[1:]
    vals = np.array([float(r.split(",")[-1]) for r in rows])
    assert np.max(np.abs(vals)) < 1e-10
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert payload["oracle_error"] == 0.0


def test_solve_radial2(tmp_path):
    # oracle_error measures p against the quadrature pressure of V = r^2,
    # r^4/4 - 1/12; on the default grid, since at 32x64 the compatibility
    # cap of the solver rejects this field
    rc = main(["solve", "--set", "field.kind=radial2", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert payload["oracle_error"] < 1e-3


def test_solve_rough(tmp_path):
    # the default rough field (alpha = 1/3, seed 7, j_max 2) at 32x64; with
    # j_max 1 the same field fails the solver's compatibility check there
    rc = main(["solve", *SMALL, "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert np.isfinite(payload["C_meas"]) and payload["C_meas"] > 0
    assert payload["mollify"]["trace_max"] < 1e-10


def test_verify_smoke(tmp_path):
    rc = main(["verify", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    assert payload["passed"]
    assert {s["name"] for s in payload["suites"]} == {
        "geometry", "fields", "norms", "elliptic", "mollify", "pressure"}


def test_study_deterministic_across_jobs(tmp_path):
    args = ["study", *SMALL,
            "--set", "study.alphas=[0.5]", "--set", "study.seeds=[0, 1]",
            "--set", "study.etas=[0.0125, 0.00625]",
            "--set", "field.j_max=1"]
    rc1 = main([*args, "--out", str(tmp_path / "a"), "--jobs", "1"])
    rc2 = main([*args, "--out", str(tmp_path / "b"), "--jobs", "2"])
    assert rc1 == 0 and rc2 == 0
    csv_a = (tmp_path / "a" / "ledger.csv").read_bytes()
    csv_b = (tmp_path / "b" / "ledger.csv").read_bytes()
    assert csv_a == csv_b
    rows = csv_a.decode().strip().splitlines()
    assert len(rows) == 1 + 2 * 2          # header + seeds x etas
    header = rows[0].split(",")
    for col in ("alpha", "seed", "eta", "C_meas", "C1_meas", "p_c0_step"):
        assert col in header
    # ledgers are sorted by (alpha, seed, eta)
    keys = [tuple(float(r.split(",")[i]) for i in range(3)) for r in rows[1:]]
    assert keys == sorted(keys)
    # against the frozen reference ledger of this config
    got = list(csv.DictReader(io.StringIO(csv_a.decode())))
    with open(REFERENCE_LEDGER, newline="") as fh:
        ref = list(csv.DictReader(fh))
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        for col in ("alpha", "seed", "eta", "n_rho", "n_theta", "plan_seed",
                    "pair_count", "error"):
            assert g[col] == r[col], col
        for col in ("uu_holder", "p_holder", "P_holder", "P_sup", "C_meas",
                    "C1_meas", "p_c0_step"):
            if r[col] == "":
                assert g[col] == "", col
            else:
                assert float(g[col]) == pytest.approx(float(r[col]),
                                                      rel=1e-8, abs=0.0), col
        # rounding noise: held to the mollifier bounds, not to the reference
        assert float(g["trace_max"]) <= 1e-10
        assert float(g["tangency_max"]) <= 1e-8
        assert float(g["divergence_max"]) <= 1e-8


def test_study_partial_failure_exit_code(tmp_path, capsys):
    # alpha = 1/3 with one dyadic level is too rough for the 32x64 grid:
    # the run fails the source/flux compatibility check and is recorded
    rc = main(["study", *SMALL,
               "--set", "study.alphas=[0.3333333333333333]",
               "--set", "study.seeds=[7]",
               "--set", "study.etas=[0.0125]",
               "--set", "field.j_max=1",
               "--out", str(tmp_path), "--jobs", "1"])
    assert rc == 2
    ledger = json.loads((tmp_path / "ledger.json").read_text())
    assert len(ledger["records"]) == 1
    assert "error" in ledger["records"][0]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_study_setup_error_exit_code(tmp_path, capsys, jobs):
    # each worker of the pool builds the geometry once; a domain it rejects
    # is a validation error on either path, not a broken pool
    rc = main(["study", *SMALL, "--set", "domain.radius=-1",
               "--set", "study.alphas=[0.5]", "--set", "study.seeds=[0, 1]",
               "--out", str(tmp_path), "--jobs", jobs])
    err = capsys.readouterr().err
    assert rc == 1
    assert "radius must be positive" in err
    assert "Traceback" not in err


def test_study_pool_has_no_more_workers_than_tasks(tmp_path, monkeypatch):
    # every pool worker is forked at the first submit, so --jobs 64 with two
    # tasks asks for two workers, and writes the --jobs 1 ledger
    requested = []

    class InProcessPool:
        """A stand-in for ProcessPoolExecutor that starts no process: it
        records max_workers and runs the initializer and map in this
        process."""

        def __init__(self, max_workers, initializer, initargs):
            requested.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    args = ["study", *SMALL,
            "--set", "study.alphas=[0.5]", "--set", "study.seeds=[0, 1]",
            "--set", "study.etas=[0.0125]", "--set", "field.j_max=1"]
    assert main([*args, "--out", str(tmp_path / "serial"), "--jobs", "1"]) == 0
    monkeypatch.setattr("pressure_lab.cli.ProcessPoolExecutor", InProcessPool)
    # the worker's globals, which the in-process initializer sets
    monkeypatch.setattr("pressure_lab.cli._worker_cfg", None)
    monkeypatch.setattr("pressure_lab.cli._worker_setup", None)
    assert main([*args, "--out", str(tmp_path / "pool"), "--jobs", "64"]) == 0
    assert requested == [2]
    assert (tmp_path / "pool" / "ledger.csv").read_bytes() == \
        (tmp_path / "serial" / "ledger.csv").read_bytes()


def test_study_pool_forks_after_mollify(tmp_path):
    # the pool workers of a study are forked from a process that has run
    # mollify_and_solve, the one site that starts a helper thread; a thread
    # kept alive between calls would be copied into them without its
    # thread, and the workers would wait on it for ever.  The run is a
    # subprocess with a timeout, so that a hang fails the test instead of
    # stalling it
    script = textwrap.dedent(f"""
        import sys
        from pressure_lab.cli import main
        from pressure_lab.fields import InteriorChart, make_rough_stream
        from pressure_lab.geometry import (GeodesicChart, build_curve,
                                           default_cutoffs)
        from pressure_lab.pressure import mollify_and_solve
        curve = build_curve({{"kind": "circle", "radius": 1.0}}, 128)
        chart = InteriorChart(curve, 32, 64)
        cutoffs = default_cutoffs(0.4)
        collar = GeodesicChart(curve, cutoffs.delta, 32, 64)
        rough = make_rough_stream(0.5, 0, 1, chart)
        mollify_and_solve(rough.psi, chart, 0.0125, cutoffs, collar)
        sys.exit(main(["study", *{SMALL!r},
                       "--set", "study.alphas=[0.5]",
                       "--set", "study.seeds=[0, 1]",
                       "--set", "study.etas=[0.0125]",
                       "--set", "field.j_max=1",
                       "--out", {str(tmp_path / "out")!r}, "--jobs", "2"]))
    """)
    src = os.path.dirname(os.path.dirname(
        os.path.abspath(sys.modules["pressure_lab"].__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    # a session of its own, so that a hang is ended with its pool workers
    proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("study --jobs 2 hung after mollify_and_solve")
    assert proc.returncode == 0, err.decode()
    rows = (tmp_path / "out" / "ledger.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2
