"""SHA-256 digests of the lab's outputs, one per output group.

Each digest is taken over the bytes of the values (float64 bytes, so the
sign of a zero counts), together with their shapes and names.  Two
checkouts whose digests agree produce the same outputs bit for bit on:

- eta_study_record records and pressures at 32x64 (j_max 1) and 64x128
  (j_max 2), for alpha in {0.25, 1/3, 0.75} x seeds {0, 5} x three etas,
  chained largest eta first as a study chains them;
- mollify_velocity and divergence_probe on a rough stream at 64x128;
- two smooth-128 ops (V = r and V = r^2 at 128x256): the pressure solution,
  the boundary trace, the BC defect and split_Pb;
- the ledger.csv of three small `pressure-lab study --jobs 2` runs: the
  rough fields at the default study.etas (study-cli/ledger.csv), the
  rough field of seed 7 (j_max 2, alpha 1/3 and 0.5) at study.etas =
  [0.0125, 0.0] (study-cli/exact), and the rigid rotation at study.etas =
  [0.0] (study-cli/rigid-exact), whose eta = 0 rows solve the exact
  velocity;
- p.csv, P.csv and trace.csv of `pressure-lab solve` at 32x64: the rigid
  and zero fields at the default field.eta = 0 (the exact velocity), and
  the rough field mollified at field.eta = 0.0125 (solve-cli/rough) and
  exact at field.eta = 0 (solve-cli/rough-exact).

The package is imported from the src/ directory next to this script, so a
copy of the script digests the checkout it sits in.  To compare two
checkouts:

    python tools/output_digest.py > before.txt           # in one checkout
    python tools/output_digest.py --against before.txt   # in the other

--against reports the groups that differ, and the groups that only one
side has, on standard error, and exits 1 if there is any of either.  To also see how far each group moved, save its values in the
first checkout and compare with that file:

    python tools/output_digest.py --dump before.npz      # in one checkout
    python tools/output_digest.py --against before.npz   # in the other

The values of a group are its numbers in digest order, one leaf per array
or number, and per figure of a text (a ledger cell is `@row:column`).
Against a dump, each group is listed with its SHA-256 verdict and its
largest relative difference, with the path of the leaf it is in: the
largest change of any value over the largest magnitude of its leaf in the
dump.  A diagnostic that is rounding noise, such as `trace_max`, moves by
a large relative amount whenever any bit moves.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import re
import struct
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from pressure_lab import (cli, fields, geometry, mollify,  # noqa: E402
                          norms, pressure)

ALPHAS = (0.25, 1.0 / 3.0, 0.75)
SEEDS = (0, 5)
ETAS = (0.0125, 0.00625, 0.003125)
CUTOFFS = (0.4, 0.05, 0.1, 0.2, 0.25)      # delta, epsilon, delta1..3
MOLLIFY = {"n_sub": 4, "probe_n": 128}
# the 32x64 grid of the CLI runs (SMALL in tests/test_cli.py)
SMALL = ["--set", "domain.nodes=128",
         "--set", "grid.n_rho=32", "--set", "grid.n_theta=64",
         "--set", "grid.collar_n_s=32", "--set", "grid.collar_n_theta=64",
         "--set", "norms.n_random=2000"]
# what a --dump file holds per group, besides its name and SHA-256
LEAF_KEYS = ("values", "sizes", "paths")


def _feed(h, x, leaves, path=""):
    """Add x to the hash h: arrays and floats by their bytes, containers
    and dataclasses member by member; a GridField by its values and pole.
    Each numeric leaf is appended to `leaves` as (path, float64 array)."""
    if isinstance(x, fields.GridField):
        _feed(h, (x.values, x.pole), leaves, path)
    elif isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
        leaves.append((path, np.asarray(x, dtype=float).ravel()))
    elif isinstance(x, (bool, np.bool_, int, np.integer)):
        h.update(f"i{int(x)}".encode())
        leaves.append((path, np.array([float(x)])))
    elif isinstance(x, (float, np.floating)):
        h.update(b"f" + struct.pack("<d", float(x)))
        leaves.append((path, np.array([float(x)])))
    elif isinstance(x, str):
        h.update(b"s" + x.encode())
        leaves.extend((f"{path}@{where}", np.array([value]))
                      for where, value in _figures(x))
    elif x is None:
        h.update(b"none")
    elif isinstance(x, dict):
        h.update(b"{")
        for k in sorted(x):
            _feed(h, k, [])
            _feed(h, x[k], leaves, f"{path}.{k}")
        h.update(b"}")
    elif isinstance(x, (list, tuple)):
        h.update(b"[")
        for i, item in enumerate(x):
            _feed(h, item, leaves, f"{path}[{i}]")
        h.update(b"]")
    elif dataclasses.is_dataclass(x):
        _feed(h, {f.name: getattr(x, f.name) for f in dataclasses.fields(x)},
              leaves, path)
    else:
        raise TypeError(f"no digest rule for {type(x).__name__}")


def _figures(text):
    """(line:cell, value) of each token of a text that reads as a float,
    cells being split at commas (a CSV cell, or a clause of a message); a
    cell's k-th figure after its first adds .k."""
    for i, line in enumerate(text.splitlines()):
        for j, cell in enumerate(line.split(",")):
            k = 0
            for token in re.split(r"[\s;:=()\[\]]+", cell):
                try:
                    value = float(token)
                except ValueError:
                    continue
                yield f"{i}:{j}" + (f".{k}" if k else ""), value
                k += 1


def _digest(x):
    """(SHA-256 of x, its values, the size and path of each leaf)."""
    h = hashlib.sha256()
    leaves = []
    _feed(h, x, leaves)
    sizes = np.array([len(leaf) for _, leaf in leaves], dtype=np.int64)
    values = np.concatenate([leaf for _, leaf in leaves] or [np.zeros(0)])
    return h.hexdigest(), values, sizes, np.array([p for p, _ in leaves])


def max_rel_diff(now, before):
    """(difference, path): the largest change of any value over the largest
    finite magnitude of its leaf in `before`, and that leaf's path; each of
    `now` and `before` is (values, sizes, paths).  Equal values (NaN and
    NaN too) differ by 0; None when the leaves do not match."""
    (values, sizes, paths), (ref_values, ref_sizes, ref_paths) = now, before
    if not (np.array_equal(sizes, ref_sizes)
            and np.array_equal(paths, ref_paths)):
        return None
    worst = (0.0, "")
    cuts = np.cumsum(sizes)[:-1]
    for a, b, path in zip(np.split(values, cuts), np.split(ref_values, cuts),
                          paths):
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        if np.all(same):
            continue
        change = np.max(np.where(same, 0.0, np.abs(a - b)))
        finite = np.abs(b[np.isfinite(b)])
        scale = np.max(finite) if finite.size else 0.0
        rel = np.inf if np.isnan(change) or scale == 0.0 else change / scale
        worst = max(worst, (float(rel), str(path)))
    return worst


def _geometry(n_rho):
    curve = geometry.build_curve({"kind": "circle", "radius": 1.0}, 256)
    chart = fields.InteriorChart(curve, n_rho, 2 * n_rho)
    collar = geometry.GeodesicChart(curve, CUTOFFS[0], n_rho, 2 * n_rho)
    return chart, geometry.build_cutoffs(*CUTOFFS), collar


def study_groups():
    for n_rho, j_max in ((32, 1), (64, 2)):
        chart, cutoffs, collar = _geometry(n_rho)
        plan = norms.build_pair_plan(chart.points, seed=0, n_random=20000)
        for alpha in ALPHAS:
            records, pressures = [], []
            for seed in SEEDS:
                rough = fields.RoughStream(alpha, seed, j_max, chart)
                prev = None
                for eta in ETAS:
                    rec, prev = pressure.eta_study_record(
                        rough, eta, cutoffs, collar, plan, prev_p=prev,
                        mollify_kwargs=MOLLIFY)
                    pressures.append(prev)
                    records.append(rec)
            grid = f"{n_rho}x{2 * n_rho}/alpha={alpha:.4g}"
            yield f"study-records/{grid}", records
            yield f"study-pressures/{grid}", pressures


def mollify_groups():
    chart, cutoffs, collar = _geometry(64)
    rough = fields.RoughStream(1.0 / 3.0, 3, 2, chart)
    rv = mollify.mollify_velocity(rough.psi, chart, 0.00625, cutoffs, collar,
                                  n_sub=MOLLIFY["n_sub"])
    divergence_max = mollify.divergence_probe(rough.psi, chart, 0.00625,
                                              cutoffs, **MOLLIFY)
    yield "mollify/analytic", (rv.u_eta, rv.boundary_tangential,
                               rv.normal_component,
                               {"eta": rv.eta, "trace_max": rv.trace_max,
                                "tangency_max": rv.tangency_max,
                                "divergence_max": divergence_max})


def smooth_groups():
    chart, cutoffs, collar = _geometry(128)
    for name, profile, probe_seed in (("r", lambda r: r, 11),
                                      ("r2", lambda r: r**2, 12)):
        u = fields.sample_velocity(
            fields.RadialFlow(profile, chart.radius, chart.center).velocity,
            chart)
        sol = pressure.solve_pressure(u, chart=chart, cutoffs=cutoffs)
        P_collar = chart.on_collar(sol.P.values, collar)
        trace = pressure.boundary_trace(P_collar, u, collar)
        bc_defect = pressure.bc_equivalence_check(sol.p, u, collar)
        split = pressure.split_Pb(u, P_collar, cutoffs, collar, n_probes=10,
                                  seed=probe_seed)
        yield f"smooth-128/{name}", (sol, trace, bc_defect, split)


def _cli_outputs(argv, names):
    """(exit code, text of each named output file) of one CLI run."""
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([*argv, "--out", tmp])
        texts = []
        for name in names:
            with open(os.path.join(tmp, name), "rb") as fh:
                texts.append(fh.read().decode())
    return (code, *texts)


def ledger_groups():
    argv = ["study", *SMALL, "--set", "study.alphas=[0.25, 0.75]",
            "--set", "study.seeds=[0, 1]", "--jobs", "2"]
    yield "study-cli/ledger.csv", _cli_outputs(argv, ["ledger.csv"])
    # eta = 0 rows: the rough field mollified and exact, and a smooth kind
    exact = ["study", *SMALL, "--jobs", "2",
             "--set", "study.alphas=[0.3333333333333333, 0.5]"]
    for name, field in (("exact", ["--set", "field.j_max=2",
                                   "--set", "study.seeds=[7]",
                                   "--set", "study.etas=[0.0125, 0.0]"]),
                        ("rigid-exact", ["--set", "field.kind=rigid",
                                         "--set", "study.seeds=[0]",
                                         "--set", "study.etas=[0.0]"])):
        yield f"study-cli/{name}", _cli_outputs([*exact, *field],
                                                ["ledger.csv"])


def solve_groups():
    for name, kind, eta in (("rough", "rough", 0.0125),
                            ("rigid", "rigid", 0.0), ("zero", "zero", 0.0),
                            ("rough-exact", "rough", 0.0)):
        argv = ["solve", *SMALL, "--set", f"field.kind={kind}",
                "--set", f"field.eta={eta}"]
        yield f"solve-cli/{name}", _cli_outputs(
            argv, ["p.csv", "P.csv", "trace.csv"])


def digests():
    for groups in (study_groups, mollify_groups, smooth_groups,
                   ledger_groups, solve_groups):
        for name, value in groups():
            yield name, _digest(value)


def dump(path, digested):
    """Save the digests and values of every group to an .npz file."""
    names = list(digested)
    arrays = {"names": np.array(names),
              "sha256": np.array([digested[n][0] for n in names])}
    for i, name in enumerate(names):
        for key, array in zip(LEAF_KEYS, digested[name][1:]):
            arrays[f"{key}_{i}"] = array
    np.savez(path, **arrays)


def load(path):
    """{group: (sha256, values, sizes, paths)} of a --dump file, or {group:
    (sha256, None)} of a saved digest listing."""
    if path.endswith(".npz"):
        with np.load(path, allow_pickle=False) as npz:
            return {str(name): (str(sha), *(npz[f"{key}_{i}"]
                                            for key in LEAF_KEYS))
                    for i, (name, sha) in enumerate(zip(npz["names"],
                                                        npz["sha256"]))}
    with open(path) as fh:
        return {name: (sha, None) for sha, name in
                (line.split("  ", 1) for line in fh.read().splitlines()
                 if "  " in line)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="compare with the output of another run, or "
                             "with a --dump file (FILE.npz)")
    parser.add_argument("--dump", metavar="FILE.npz",
                        help="save every group's digest and values")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    now = {}
    for name, digested in digests():
        now[name] = digested
        print(f"{digested[0]}  {name}", flush=True)
    print(f"{len(now)} groups in {time.perf_counter() - start:.1f} s",
          file=sys.stderr)
    if args.dump:
        dump(args.dump, now)
    if args.against is None:
        return 0
    before = load(args.against)
    differing = missing = new = 0
    for name in sorted(before.keys() | now.keys()):
        if name not in now:
            missing += 1
            print(f"only in {args.against}: {name}", file=sys.stderr)
            continue
        if name not in before:
            new += 1
            print(f"new: {name}", file=sys.stderr)
            continue
        sha, *leaves = before[name]
        verdict = "same" if sha == now[name][0] else "differs"
        differing += verdict == "differs"
        if leaves[0] is None:
            if verdict == "differs":
                print(f"differs: {name}", file=sys.stderr)
            continue
        worst = max_rel_diff(now[name][1:], leaves)
        shown = ("leaves differ" if worst is None else
                 f"{worst[0]:.3g}" + (f" at {worst[1]}" if worst[0] else ""))
        print(f"{verdict:<8} {name:<36} max rel diff {shown}",
              file=sys.stderr)
    print(f"{differing} differing groups of {len(now)}, {missing} only in "
          f"{args.against}, {new} new", file=sys.stderr)
    return 1 if differing or missing or new else 0


if __name__ == "__main__":
    sys.exit(main())
