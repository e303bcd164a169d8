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

from pressure_lab import pressure
from pressure_lab.cli import (ConfigError, DEFAULT_CONFIG, load_config, main,
                              validate_config)
from pressure_lab.elliptic import SolverError


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
    "cutoffs.delta=abc", "domain.radius=abc",
    "field.eta=-0.001", "study.etas=[-0.001]", "grid=5", "field.kind=bogus",
    "grid.n_rho=2", "grid.n_rho=0", "grid.n_theta=1", "norms.n_random=-1",
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
    # a field.eta < 0 or a study eta < 0 in a solver error or a ledger of
    # error rows, and an unknown field.kind was rejected only once the
    # geometry and the pair plan were built.  For a smooth kind,
    # grid.n_rho = 2 ended in an IndexError of d_rho's wall stencil,
    # grid.n_rho = 0 in a ZeroDivisionError and grid.n_theta = 1 in a
    # LinAlgError; norms.n_random = -1 ended in a ValueError
    out = tmp_path / "out"
    rc = main(["solve", *SMALL, "--set", override, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error") and override.split("=")[0] in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["1.5", "1.0", "0.0"])
def test_field_alpha_range_exit_code(tmp_path, capsys, alpha):
    # field.alpha is the norms' exponent for every kind; it was rejected
    # only by holder_norm, after the set-up and the solve, with the output
    # directory already made
    out = tmp_path / "out"
    rc = main(["solve", *SMALL, "--set", "field.kind=rigid",
               "--set", f"field.alpha={alpha}", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error") and "field.alpha" in err
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


@pytest.mark.parametrize("override, message, prefix", [
    pytest.param("grid.collar_n_theta=96", "power of two", "config error",
                 id="n_theta_96"),
    pytest.param("grid.collar_n_s=3", "n_s >= 4", "validation error",
                 id="n_s_3"),
])
def test_solve_bad_collar_grid_exit_code(tmp_path, capsys, override, message,
                                         prefix):
    out = tmp_path / "out"
    rc = main(["solve", "--set", "field.kind=rigid", *SMALL,
               "--set", override, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(prefix) and message in err
    assert len(err.strip().splitlines()) == 1
    # rejected before any work: no output directory was made
    assert not out.exists()


def test_solve_rigid(tmp_path):
    rc = main(["solve", "--set", "field.kind=rigid", *SMALL,
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert payload["oracle_error"] < 5e-3
    assert np.isfinite(payload["C_meas"]) and payload["C_meas"] > 0
    assert "mollify" not in payload
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
    # |u x u| = 0: the constant is undefined
    assert np.isnan(payload["C_meas"])


def test_solve_radial2(tmp_path):
    # oracle_error measures p against the quadrature pressure of V = r^2,
    # r^4/4 - 1/12; the O(h^2) compatibility defect is reported, not fatal
    rc = main(["solve", "--set", "field.kind=radial2", *SMALL,
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert payload["oracle_error"] < 1e-3
    assert np.isfinite(payload["C_meas"]) and payload["C_meas"] > 0


def test_solve_rough(tmp_path):
    # the default rough field (alpha = 1/3, seed 7, j_max 2) at 32x64,
    # mollified
    rc = main(["solve", *SMALL, "--set", "field.eta=0.0125",
               "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert np.isfinite(payload["C_meas"]) and payload["C_meas"] > 0
    assert payload["mollify"]["trace_max"] < 1e-10


def test_solve_rough_exact(tmp_path):
    # field.eta = 0, the default: the same field's exact velocity, with no
    # mollifier
    rc = main(["solve", *SMALL, "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert payload["field"]["eta"] == 0.0
    assert "mollify" not in payload and "oracle_error" not in payload
    assert np.isfinite(payload["C_meas"]) and payload["C_meas"] > 0


def test_solve_mollified_rigid_oracle(tmp_path):
    # the mollify -> solve pipeline against an exact pressure; at 128x256
    # p errs by 6.0e-4
    eta = 0.00625
    rc = main(["solve", "--set", "field.kind=rigid",
               "--set", f"field.eta={eta}", "--set", "grid.n_rho=128",
               "--set", "grid.n_theta=256", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "solve.json").read_text())
    assert payload["mollify"]["eta"] == eta
    assert payload["oracle_error"] <= eta / 4.0


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


def test_study_unknown_field_kind_exit_code(tmp_path, capsys):
    # study builds field.kind as solve does, so it rejects the same kinds
    # with the config, before any work
    out = tmp_path / "out"
    rc = main(["study", *SMALL, "--set", "field.kind=bogus",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error") and "field.kind" in err
    assert not out.exists()


def test_study_smooth_kind_needs_one_seed(tmp_path, capsys):
    # a smooth kind reads no seed, so a study of several seeds would solve
    # the same rows once per seed: it is rejected before any set-up.  solve
    # reads no study.seeds and runs with the default list
    out = tmp_path / "out"
    rc = main(["study", *SMALL, "--set", "field.kind=rigid",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("config error") and "study.seeds" in err
    assert not out.exists()
    assert main(["study", *SMALL, "--set", "field.kind=rigid",
                 "--set", "study.seeds=[0]", "--set", "study.alphas=[0.5]",
                 "--set", "study.etas=[0.0]", "--jobs", "1",
                 "--out", str(out)]) == 0
    assert main(["solve", *SMALL, "--set", "field.kind=rigid",
                 "--out", str(tmp_path / "solve")]) == 0


def _study_and_solve(tmp_path, study_args, solve_args):
    """(ledger.csv rows, ledger.json records, solve.json) of a study and a
    solve at the small grid, both expected to exit 0."""
    assert main(["study", *SMALL, *study_args, "--jobs", "1",
                 "--out", str(tmp_path / "study")]) == 0
    assert main(["solve", *SMALL, *solve_args,
                 "--out", str(tmp_path / "solve")]) == 0
    with open(tmp_path / "study" / "ledger.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    records = json.loads((tmp_path / "study" / "ledger.json").read_text())
    solve = json.loads((tmp_path / "solve" / "solve.json").read_text())
    return rows, records["records"], solve


def test_study_exact_row_is_the_solve_record(tmp_path):
    # the default rough field (alpha = 1/3, seed 7, j_max 2): the eta = 0
    # row of a study is the record of solve at field.eta = 0, bit for bit,
    # but for p_c0_step, its distance to the pressure of the smallest eta
    rows, records, solve = _study_and_solve(
        tmp_path, ["--set", "study.alphas=[0.3333333333333333]",
                   "--set", "study.seeds=[7]",
                   "--set", "study.etas=[0.0125, 0.0]"], [])
    assert [r["eta"] for r in rows] == ["0.0", "0.0125"]
    exact = dict(records[0])
    assert exact["C_meas"] == solve["C_meas"]
    assert 0.0 < exact.pop("p_c0_step") < 1.0
    assert exact == solve["record"]
    for col in ("trace_max", "tangency_max", "divergence_max"):
        assert rows[0][col] == "" and rows[1][col] != ""
    assert rows[0]["p_c0_step"] != "" and rows[1]["p_c0_step"] == ""


def test_study_rigid_exact_row_is_the_solve_record(tmp_path):
    # a smooth kind in study: alpha is only the norms' exponent and the
    # seed is unused
    rows, records, solve = _study_and_solve(
        tmp_path, ["--set", "field.kind=rigid",
                   "--set", "study.alphas=[0.3333333333333333]",
                   "--set", "study.seeds=[0]", "--set", "study.etas=[0.0]"],
        ["--set", "field.kind=rigid"])
    assert len(rows) == 1 and rows[0]["error"] == ""
    assert records[0]["C_meas"] == solve["C_meas"]
    assert {**records[0], "seed": 7} == solve["record"]


def test_study_domain_error_exit_code(tmp_path, capsys, monkeypatch):
    # a record that fails with a domain error ends the study: one line on
    # stderr, exit 2, and no ledger
    record = pressure.field_record

    def field_record(field, chart, alpha, seed, eta, *args, **kwargs):
        if eta == 0.0125:
            raise SolverError("solve failed")
        return record(field, chart, alpha, seed, eta, *args, **kwargs)

    monkeypatch.setattr(pressure, "field_record", field_record)
    rc = main(["study", *SMALL,
               "--set", "study.alphas=[0.5]",
               "--set", "study.seeds=[0]",
               "--set", "study.etas=[0.0125, 0.00625]",
               "--set", "field.j_max=1",
               "--out", str(tmp_path / "out"), "--jobs", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["solver error: solve failed"]
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


def test_study_pool_forks_after_a_record(tmp_path):
    # the pool workers of a study are forked from a process that has run a
    # mollified field_record, the one site that starts a helper thread; a
    # thread kept alive between calls would be copied into them without its
    # thread, and the workers would wait on it for ever.  The run is a
    # subprocess with a timeout, so that a hang fails the test instead of
    # stalling it
    script = textwrap.dedent(f"""
        import sys
        from pressure_lab.cli import main
        from pressure_lab.fields import InteriorChart, make_rough_stream
        from pressure_lab.geometry import (GeodesicChart, build_curve,
                                           default_cutoffs)
        from pressure_lab.norms import build_pair_plan
        from pressure_lab.pressure import field_record
        curve = build_curve({{"kind": "circle", "radius": 1.0}}, 128)
        chart = InteriorChart(curve, 32, 64)
        cutoffs = default_cutoffs(0.4)
        collar = GeodesicChart(curve, cutoffs.delta, 32, 64)
        rough = make_rough_stream(0.5, 0, 1, chart)
        plan = build_pair_plan(chart.points, seed=0, n_random=200)
        field_record(rough, chart, 0.5, 0, 0.0125, cutoffs, collar, plan)
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
        pytest.fail("study --jobs 2 hung after a mollified record")
    assert proc.returncode == 0, err.decode()
    rows = (tmp_path / "out" / "ledger.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2
