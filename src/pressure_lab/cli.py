"""Configuration-driven experiment runner.

Subcommands:
  verify  -- run the module invariant suites, write a JSON summary.
  solve   -- one pressure solve plus trace diagnostics for a named field.
  study   -- the eta sweeps of field.kind; writes the estimate ledger.

Config is a YAML key tree (see DEFAULT_CONFIG); any leaf can be overridden
with --set dotted.key=value.  A run either succeeds or its first error
ends it, with one line on stderr and no traceback.  Exit codes: 0 success,
1 config or validation error, 2 solver error, 3 invariant failure.
"""

import argparse
import copy
import dataclasses
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import yaml

from .geometry import GeodesicChart, GeometryError, build_curve, build_cutoffs
from .fields import FieldError, InteriorChart, RadialFlow, RoughStream
from .norms import NormError, build_pair_plan
from .elliptic import SolverError
from .mollify import MollifyError
from .pressure import PressureError, boundary_trace, eta_study, field_record
from . import report, verification

DEFAULT_CONFIG = {
    "domain": {"radius": 1.0, "nodes": 256},
    "grid": {"n_rho": 64, "n_theta": 128,
             "collar_n_s": 64, "collar_n_theta": 128},
    "cutoffs": {"delta": 0.4, "epsilon": 0.05,
                "delta1": 0.1, "delta2": 0.2, "delta3": 0.25},
    "mollify": {"n_sub": 4, "probe_n": 128},
    "field": {"kind": "rough", "alpha": 1.0 / 3.0, "seed": 7, "j_max": 2,
              "eta": 0.0},
    "norms": {"plan_seed": 0, "n_random": 20000},
    "study": {"alphas": [0.25, 1.0 / 3.0, 0.5, 0.75],
              "seeds": [0, 1, 2, 3, 4],
              "etas": [0.0125, 0.00625, 0.003125]},
    "output": "out",
    "jobs": 0,
}


class ConfigError(ValueError):
    pass


def _deep_update(base, extra, path=""):
    for k, v in extra.items():
        key_path = f"{path}.{k}" if path else k
        if k not in base:
            raise ConfigError(f"unknown config key: {key_path}")
        if isinstance(base[k], dict):
            if not isinstance(v, dict):
                raise ConfigError(f"{key_path} must be a mapping")
            _deep_update(base[k], v, key_path)
        else:
            base[k] = v


def _apply_override(cfg, spec):
    if "=" not in spec:
        raise ConfigError(f"--set expects key=value, got {spec!r}")
    key, _, raw = spec.partition("=")
    node = cfg
    parts = key.split(".")
    for p in parts[:-1]:
        if p not in node or not isinstance(node[p], dict):
            raise ConfigError(f"unknown config key: {key}")
        node = node[p]
    leaf = parts[-1]
    if leaf not in node:
        raise ConfigError(f"unknown config key: {key}")
    value = yaml.safe_load(raw)
    if isinstance(value, str):
        # YAML 1.1 only floats "1.0e-8", not "1e-8"; accept both on the CLI
        try:
            value = int(value)
        except ValueError:
            try:
                value = float(value)
            except ValueError:
                pass
    node[leaf] = value


def load_config(path=None, overrides=(), out=None, jobs=None):
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            user = yaml.safe_load(fh) or {}
        if not isinstance(user, dict):
            raise ConfigError("config root must be a mapping")
        _deep_update(cfg, user)
    for spec in overrides:
        _apply_override(cfg, spec)
    if out is not None:
        cfg["output"] = out
    if jobs is not None:
        cfg["jobs"] = jobs
    validate_config(cfg)
    return cfg


# the smooth kinds of field: u = V(r) e_theta for the profile V
_PROFILES = {"rigid": lambda r: r, "radial2": lambda r: r**2,
             "zero": lambda r: 0.0 * r}


# what a leaf must be, by the type of its default
_KINDS = {int: "an integer", float: "a finite real number", str: "a string"}


def _check_leaf(key, value, default):
    if isinstance(default, float):
        ok = isinstance(value, (int, float)) and math.isfinite(value)
    else:
        ok = isinstance(value, type(default))
    # YAML reads true/false as bools, which Python counts as ints
    if isinstance(value, bool) or not ok:
        raise ConfigError(f"{key} = {value!r} must be "
                          f"{_KINDS[type(default)]}")


def _check_types(cfg, defaults=DEFAULT_CONFIG, path=""):
    """Each leaf takes the type of its default in DEFAULT_CONFIG, and each
    entry of a list leaf the type of the default's first entry."""
    for key, default in defaults.items():
        key_path = f"{path}.{key}" if path else key
        value = cfg[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{key_path} must be a mapping")
            _check_types(value, default, key_path)
        elif isinstance(default, list):
            if not isinstance(value, list):
                raise ConfigError(f"{key_path} = {value!r} must be a list")
            for entry in value:
                _check_leaf(key_path, entry, default[0])
        else:
            _check_leaf(key_path, value, default)


def validate_config(cfg):
    _check_types(cfg)
    if cfg["jobs"] < 0:
        raise ConfigError(f"jobs = {cfg['jobs']} must be >= 0 (0 runs one "
                          "worker per core)")
    g = cfg["grid"]
    if g["n_rho"] < 3:
        raise ConfigError(f"grid.n_rho = {g['n_rho']} must be >= 3: the wall "
                          "row's one-sided difference reads three rings")
    if g["n_theta"] < 2:
        raise ConfigError(f"grid.n_theta = {g['n_theta']} must be >= 2")
    if cfg["norms"]["n_random"] < 0:
        raise ConfigError(f"norms.n_random = {cfg['norms']['n_random']} "
                          "must be >= 0")
    c = cfg["cutoffs"]
    try:
        build_cutoffs(**c)
    except GeometryError as exc:
        raise ConfigError(f"cutoffs: {exc}") from exc
    n_sub, probe_n = cfg["mollify"]["n_sub"], cfg["mollify"]["probe_n"]
    if n_sub < 2:
        raise ConfigError(
            f"mollify.n_sub = {n_sub!r} must be >= 2: the kernel would span "
            "fewer than two sample cells across its radius")
    if probe_n < 11:
        raise ConfigError(
            f"mollify.probe_n = {probe_n!r} must be >= 11: the side of a "
            "smaller divergence-probe grid leaves it no core point")
    for key, value in cfg["study"].items():
        if not value:
            raise ConfigError(f"study.{key} must not be empty")
    if cfg["field"]["kind"] not in ("rough", *_PROFILES):
        raise ConfigError(f"field.kind = {cfg['field']['kind']!r} is not "
                          f"one of rough, {', '.join(_PROFILES)}")
    guard = c["epsilon"] / 4.0 + 1e-12
    # eta = 0 solves the exact velocity, eta > 0 mollifies
    for key, eta in ([("study.etas", eta) for eta in cfg["study"]["etas"]]
                     + [("field.eta", cfg["field"]["eta"])]):
        if eta < 0.0:
            raise ConfigError(f"{key} = {eta} must be >= 0")
        if eta > guard:
            raise ConfigError(
                f"{key} = {eta} exceeds epsilon/4 = {c['epsilon'] / 4.0}: "
                "the mollifier support would leak across the cutoff bands")
    for key, a in ([("study.alphas", a) for a in cfg["study"]["alphas"]]
                   + [("field.alpha", cfg["field"]["alpha"])]):
        if not 0.0 < a < 1.0:
            raise ConfigError(f"{key} = {a} outside (0, 1)")


def _setup(cfg):
    """(chart, cutoffs, collar, plan) of the config; each study process
    builds them once for all its (alpha, seed) runs."""
    dom = cfg["domain"]
    curve = build_curve({"kind": "circle", "radius": dom["radius"]},
                        dom["nodes"])
    g = cfg["grid"]
    chart = InteriorChart(curve, g["n_rho"], g["n_theta"])
    cutoffs = build_cutoffs(**cfg["cutoffs"])
    collar = GeodesicChart(curve, cutoffs.delta, g["collar_n_s"],
                           g["collar_n_theta"])
    plan = build_pair_plan(chart.points, seed=cfg["norms"]["plan_seed"],
                           n_random=cfg["norms"]["n_random"])
    return chart, cutoffs, collar, plan


def _make_field(f, chart):
    """The field of section f; a smooth kind reads neither alpha nor seed."""
    if f["kind"] == "rough":
        return RoughStream(f["alpha"], f["seed"], f["j_max"], chart)
    return RadialFlow(_PROFILES[f["kind"]], chart.radius, chart.center)


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_verify(cfg):
    suites = verification.run_all(cutoffs=build_cutoffs(**cfg["cutoffs"]))
    outdir = cfg["output"]
    os.makedirs(outdir, exist_ok=True)
    ok = all(s["passed"] for s in suites)
    report.write_json_report(os.path.join(outdir, "verify.json"),
                             {"command": "verify", "passed": ok,
                              "suites": suites})
    for s in suites:
        status = "ok" if s["passed"] else "FAIL"
        print(f"{s['name']:<10} {status}")
    return 0 if ok else 3


def cmd_solve(cfg):
    # the H^-2 norm of the boundary trace needs a power-of-two collar grid;
    # study reads no trace, so the check is solve's own
    n_theta = cfg["grid"]["collar_n_theta"]
    if n_theta < 2 or n_theta & (n_theta - 1):
        raise ConfigError(f"grid.collar_n_theta = {n_theta} must be an "
                          "integer power of two for the boundary trace's "
                          "H^-2 norm")
    chart, cutoffs, collar, plan = _setup(cfg)
    f = cfg["field"]
    field = _make_field(f, chart)
    outdir = cfg["output"]
    os.makedirs(outdir, exist_ok=True)

    u, sol, rec = field_record(field, chart, f["alpha"], f["seed"], f["eta"],
                               cutoffs, collar, plan,
                               mollify_kwargs=cfg["mollify"])
    Pc = chart.on_collar(sol.P.values, collar)
    tc = boundary_trace(Pc, u, collar)

    report.write_field_csv(os.path.join(outdir, "p.csv"), sol.p)
    report.write_field_csv(os.path.join(outdir, "P.csv"), sol.P)
    report.write_csv(os.path.join(outdir, "trace.csv"), tc.as_rows(),
                     ["s", "h_minus2_distance"])

    payload = {
        "command": "solve", "field": f, "grid": cfg["grid"],
        "solver": dataclasses.asdict(sol.report),
        "trace": {"s": tc.s, "distances": tc.distances,
                  "wall_distance": tc.wall_distance, "slope": tc.slope},
        "C_meas": rec["C_meas"], "record": rec,
    }
    if hasattr(field, "pressure"):
        payload["oracle_error"] = float(
            np.max(np.abs(sol.p.values - field.pressure(chart.points))))
    if f["eta"] > 0.0:
        payload["mollify"] = {k: rec[k] for k in (
            "eta", "trace_max", "tangency_max", "divergence_max")}
    report.write_json_report(os.path.join(outdir, "solve.json"), payload)
    print(f"wrote {outdir}/solve.json")
    return 0


def _study_records(cfg, setup, alpha, seed):
    chart, cutoffs, collar, plan = setup
    field = _make_field({**cfg["field"], "alpha": alpha, "seed": seed}, chart)
    return eta_study(field, chart, alpha, seed, cfg["study"]["etas"],
                     cutoffs, collar, plan, mollify_kwargs=cfg["mollify"])


# a pool worker process's config and, from its first task on, its set-up
_worker_cfg = None
_worker_setup = None


def _study_worker_init(cfg):
    global _worker_cfg, _worker_setup
    _worker_cfg, _worker_setup = cfg, None


def _study_worker(task):
    # built at the first task, not in the initializer, so that a set-up
    # error (a GeometryError of the domain, say) reaches the parent through
    # map() as the task's own exception instead of breaking the pool
    global _worker_setup
    if _worker_setup is None:
        _worker_setup = _setup(_worker_cfg)
    return _study_records(_worker_cfg, _worker_setup, *task)


def cmd_study(cfg):
    seeds = cfg["study"]["seeds"]
    if cfg["field"]["kind"] != "rough" and len(seeds) > 1:
        # a smooth kind reads no seed, so every seed would solve the same rows
        raise ConfigError(f"study.seeds = {seeds!r} must have one entry for "
                          f"field.kind = {cfg['field']['kind']!r}, which "
                          f"reads no seed")
    tasks = [(alpha, seed) for alpha in cfg["study"]["alphas"]
             for seed in seeds]
    jobs = cfg["jobs"] or os.cpu_count() or 1
    records = []
    if jobs > 1 and len(tasks) > 1:
        # the parent only collects records; each worker builds the set-up.
        # Under fork every worker is started at the first submit, so the
        # pool has no more workers than tasks
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks)),
                                 initializer=_study_worker_init,
                                 initargs=(cfg,)) as pool:
            for recs in pool.map(_study_worker, tasks):
                records.extend(recs)
    else:
        setup = _setup(cfg)
        for task in tasks:
            records.extend(_study_records(cfg, setup, *task))
    records.sort(key=lambda r: (r["alpha"], r["seed"], r["eta"]))

    outdir = cfg["output"]
    os.makedirs(outdir, exist_ok=True)
    # "error" is always empty; ROADMAP item 2 deletes it
    columns = ["alpha", "seed", "eta", "n_rho", "n_theta", "uu_holder",
               "p_holder", "P_holder", "P_sup", "C_meas", "C1_meas",
               "plan_seed", "pair_count", "solver_iterations", "trace_max",
               "tangency_max", "divergence_max", "p_c0_step", "error"]
    report.write_records_csv(os.path.join(outdir, "ledger.csv"), records,
                             columns=columns)
    report.write_json_report(os.path.join(outdir, "ledger.json"),
                             {"command": "study", "config": cfg,
                              "records": records})
    print(f"{len(records)} runs -> {outdir}/ledger.csv")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="pressure-lab", description=__doc__)
    parser.add_argument("command", choices=["verify", "solve", "study"])
    parser.add_argument("--config", default=None, help="YAML config path")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a config leaf (repeatable)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker pool size for study")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.overrides, args.out, args.jobs)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "solve":
            return cmd_solve(cfg)
        return cmd_study(cfg)
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (FieldError, GeometryError, NormError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, MollifyError, PressureError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
