"""Batch command line interface.

Subcommands:
  run <config>       execute an experiment, write CSV + JSON + manifest
  validate <config>  parse and validate the config, touch nothing
  fixtures           list built-in hypergraphs (--write DIR dumps them)

Configs are strict JSON: unknown keys anywhere fail validation. Each
experiment kind has one parser in RUNNERS; it reads keys and types, checks
values with the library's own check functions, and returns a closure that
runs the library on them and returns the CSV rows and the JSON payload.
`validate` builds the closure and drops it. `run` parses the config once,
before any work or write, and calls the closure, so a graph file is read
and a fixture built once per run. A run is a pure function of (config,
seed): rerunning the same config writes byte-identical result CSV and
JSON (the manifest records wall time and is exempt). Exit codes: 2
validation, 3 capacity, 4 numerical breakdown.

SPINCHAOS_THREADS sets the worker count of every replica loop
(rng.replicate); rows are merged by replica index, so the thread count
never changes output. `run` reads it first and records it in the manifest.
BLAS threads would change output (OpenBLAS splits a product's columns
between threads, and the split moves the rounding), so `run` pins numpy's
bundled OpenBLAS to one thread for the run and records the numerics that
set the bits in the manifest.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path

import numpy as np
import scipy

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

from . import __version__, chaos, fixtures, gibbs, hermite, randgraph
from . import disorder as dis
from .errors import SpinchaosError, ValidationError
from .hypergraph import load as load_graph
from .hypergraph import save as save_graph
from .rng import threads

SECTIONS = ("model", "curve", "growth", "trend", "audit", "suite", "levy")


def _expect(block: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(block, dict):
        raise ValidationError(f"{where} must be an object, got {type(block).__name__}")
    unknown = sorted(set(block) - set(required) - set(optional))
    if unknown:
        raise ValidationError(f"unknown keys in {where}: {unknown}")
    missing = sorted(set(required) - set(block))
    if missing:
        raise ValidationError(f"missing keys in {where}: {missing}")


def _int(val, where: str, lo: int = 1) -> int:
    if not isinstance(val, int) or isinstance(val, bool) or val < lo:
        raise ValidationError(f"{where} must be an integer >= {lo}, got {val!r}")
    return val


def _number(val, where: str) -> float:
    # json accepts NaN and +-Infinity; abs() <= max also rejects ints
    # too large for a float
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or not abs(val) <= sys.float_info.max):
        raise ValidationError(f"{where} must be a finite number, got {val!r}")
    return float(val)


def _list(val, where: str, min_len: int = 1) -> list:
    if not isinstance(val, list) or len(val) < min_len:
        least = f" of at least {min_len} entries" if min_len else ""
        raise ValidationError(f"{where} must be a list{least}")
    return val


def _parse_alphas(block, where: str) -> dict[int, float]:
    if not isinstance(block, dict) or not block:
        raise ValidationError(f"{where} must be a nonempty object of arity -> alpha")
    out = {}
    for k, v in block.items():
        # int() also reads "02" and "2_0", which would alias or rename an arity
        if not (k.isdecimal() and str(int(k)) == k):
            raise ValidationError(f"{where} arity key {k!r} is not an integer")
        out[int(k)] = _number(v, f"{where}[{k}]")
    return out


def _parse_graph(block, where: str):
    _expect(block, where, (), ("fixture", "file", "diluted"))
    if len(block) != 1:
        raise ValidationError(f"{where} must have exactly one of fixture/file/diluted")
    if "fixture" in block:
        return fixtures.get_fixture(block["fixture"])
    if "file" in block:
        if not isinstance(block["file"], str):
            raise ValidationError(f"{where}.file must be a path string, got {block['file']!r}")
        try:
            return load_graph(block["file"])
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{where}.file cannot be read: {exc}") from exc
    sub = block["diluted"]
    _expect(sub, f"{where}.diluted", ("n", "alphas"))
    return randgraph.diluted_spec(_int(sub["n"], f"{where}.diluted.n"),
                                  _parse_alphas(sub["alphas"], f"{where}.diluted.alphas"))


def _parse_disorder(block, where: str) -> dis.DisorderModel:
    _expect(block, where, ("kind",), ("kappa", "alpha"))
    kwargs = {key: _number(block[key], f"{where}.{key}")
              for key in ("kappa", "alpha") if key in block}
    return dis.DisorderModel(block["kind"], **kwargs)


def _parse_model(block) -> tuple:
    """(graph source, disorder model, beta or None, perturbation or None)."""
    _expect(block, "model", ("graph", "disorder", "beta"), ("perturbation",))
    kind, beta = block.get("perturbation"), block["beta"]
    return (_parse_graph(block["graph"], "model.graph"),
            _parse_disorder(block["disorder"], "model.disorder"),
            None if beta == "infinity" else _number(beta, "model.beta (or 'infinity')"), kind)


def _sections(cfg: dict, *names: str) -> list:
    exp = cfg["experiment"]
    for section in names:
        if section not in cfg:
            raise ValidationError(f"experiment {exp} needs section {section!r}")
    extras = sorted(set(cfg) - {"experiment", "seed", "output"} - set(names))
    if extras:
        raise ValidationError(f"experiment {exp} does not accept sections {extras}")
    return [cfg[section] for section in names]


def _parse(cfg):
    """Check the top level, then build the experiment's run closure."""
    _expect(cfg, "config", ("experiment", "seed", "output"), SECTIONS)
    if not isinstance(cfg["experiment"], str) or cfg["experiment"] not in RUNNERS:
        raise ValidationError(f"experiment must be one of {tuple(RUNNERS)}, "
                              f"got {cfg['experiment']!r}")
    _int(cfg["seed"], "seed")
    _directory(cfg["output"], "output")
    return RUNNERS[cfg["experiment"]](cfg)


def _directory(out, what: str) -> Path:
    """out as a Path that is a directory or, if it does not exist, whose
    nearest existing ancestor is one: a file there would stop mkdir only
    after the work."""
    path = Path(out) if isinstance(out, str) and out else None
    if path is None or not next((p for p in (path, *path.parents) if p.exists()), path).is_dir():
        raise ValidationError(f"{what} must be a directory path, got {out!r}")
    return path


def _read(path):
    """The decoded JSON of a config file, not yet validated."""
    path = Path(path)
    if not path.is_file():
        raise ValidationError(f"config file not found: {path}")
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ValidationError(f"config is not valid JSON: {exc}") from exc


def load_config(path) -> dict:
    """Read and fully validate a config; returns the raw dict."""
    cfg = _read(path)
    _parse(cfg)
    return cfg


def _fmt(val) -> str:
    if val is None:
        return ""
    if isinstance(val, (bool, np.bool_)):
        return "true" if val else "false"
    if isinstance(val, (float, np.floating)):
        return repr(float(val))
    return str(val)


def _write_csv(path: Path, rows: list[dict]):
    """One column per key of the first row, in its order."""
    columns = list(rows[0])
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns))
    _atomic_write(path, "\n".join(lines) + "\n")


def _atomic_write(path: Path, text: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _write_json(path: Path, payload: dict):
    # numpy arrays and scalars become Python values; np.float64 is a float
    # and prints as one without this
    text = json.dumps(payload, indent=2, sort_keys=True,
                      default=lambda obj: obj.tolist())
    _atomic_write(path, text + "\n")


def _parse_curve(cfg: dict):
    """The three curve kinds, checked by chaos.check_curve and check_bounds."""
    exp = cfg["experiment"]
    model_block, c = _sections(cfg, "model", "curve")
    graph_source, model, beta, kind = _parse_model(model_block)
    _expect(c, "curve", ("t_grid", "replicas"),
            ("mode", "mcmc_sweeps", "mcmc_burn_in", "bounds", "bound_params"))
    t_grid = [_number(t, "curve.t_grid entry") for t in _list(c["t_grid"], "curve.t_grid")]
    replicas = _int(c["replicas"], "curve.replicas", 2)
    mode = c.get("mode", "exact")
    sweeps = _int(c.get("mcmc_sweeps", gibbs.MCMC_SWEEPS), "curve.mcmc_sweeps")
    burn_in = _int(c.get("mcmc_burn_in", gibbs.MCMC_BURN_IN), "curve.mcmc_burn_in", 0)
    chaos.check_curve(graph_source, beta, kind, t_grid, replicas, mode, sweeps, burn_in)
    tags = _list(c.get("bounds", []), "curve.bounds", 0)
    kind_tags = {"bound-check": chaos.UPPER_TAGS, "lower-bound-check": chaos.LOWER_TAGS}.get(exp)
    if kind_tags and (not tags or any(tag not in kind_tags for tag in tags)):
        raise ValidationError(f"{exp} needs curve.bounds with tags from {kind_tags}")
    params = c.get("bound_params", {})
    _expect(params, "curve.bound_params", (),
            tuple(k for names in chaos.BOUND_CONSTANTS.values() for k in names))
    params = {k: _number(v, f"curve.bound_params.{k}") for k, v in params.items()}
    chaos.check_bounds(tags, params, graph_source, model, beta, kind, t_grid)
    seed = cfg["seed"]

    def run():
        curve = chaos.chaos_curve(graph_source, model, beta, kind, t_grid, replicas, seed,
                                  mode=mode, mcmc_sweeps=sweeps, mcmc_burn_in=burn_in)
        rows = [{"t": t, "estimate": float(curve.estimates[ti]), "se": float(curve.ses[ti]),
                 "bound_tag": None, "bound_value": None, "margin": None}
                for ti, t in enumerate(curve.t_grid)]
        checks = chaos.theorem_bound_check(curve, tags=tags, params=params)
        for ch in checks:
            rows.append({"t": ch.t, "estimate": ch.estimate, "se": ch.se,
                         "bound_tag": ch.tag, "bound_value": ch.bound, "margin": ch.margin})
        payload = {
            "curve": {"t_grid": list(curve.t_grid), "estimates": curve.estimates,
                      "ses": curve.ses, "meta": curve.meta},
            "bounds": [vars(ch) for ch in checks],
            "monotonicity": chaos.monotonicity_check(curve),
        }
        return rows, payload
    return run


def _parse_growth(cfg: dict):
    (g,) = _sections(cfg, "growth")
    _expect(g, "growth", ("n", "alphas", "depth", "replicas"))
    spec = randgraph.diluted_spec(_int(g["n"], "growth.n"),
                                  _parse_alphas(g["alphas"], "growth.alphas"))
    depth = _int(g["depth"], "growth.depth", 0)
    replicas = _int(g["replicas"], "growth.replicas", 2)
    randgraph.check_growth(spec, depth, replicas)
    seed = cfg["seed"]

    def run():
        rows, cycle_prob, cycle_prob_se = randgraph.growth_stats(spec, depth, replicas, seed)
        payload = {
            "lambda": spec.growth_rate, "lambda_prime": spec.growth_rate_prime,
            "cycle_prob": cycle_prob, "cycle_prob_se": cycle_prob_se,
            "rows": rows,
        }
        return rows, payload
    return run


def _parse_trend(cfg: dict):
    (tr,) = _sections(cfg, "trend")
    _expect(tr, "trend", ("alphas", "n_values", "eps", "replicas"))
    alphas = _parse_alphas(tr["alphas"], "trend.alphas")
    n_values = [_int(n, "trend.n_values entry", 2)
                for n in _list(tr["n_values"], "trend.n_values", 2)]
    eps = _number(tr["eps"], "trend.eps")
    replicas = _int(tr["replicas"], "trend.replicas", 2)
    randgraph.trend_sizes(alphas, n_values, eps, replicas)  # the library's checks
    seed = cfg["seed"]

    def run():
        rows = randgraph.hypertree_trend(alphas, n_values, eps, replicas, seed)
        decreasing = all(b["cycle_prob"] <= a["cycle_prob"] for a, b in zip(rows, rows[1:]))
        return rows, {"rows": rows, "decreasing": decreasing}
    return run


def _parse_audit(cfg: dict):
    model_block, a = _sections(cfg, "model", "audit")
    graph, model, beta, _ = _parse_model(model_block)
    _expect(a, "audit", ("i", "j", "degree_cap", "order"), ("tol", "sign_tol"))
    i = _int(a["i"], "audit.i", 0)
    j = _int(a["j"], "audit.j", 0)
    degree_cap = _int(a["degree_cap"], "audit.degree_cap", 0)
    order = _int(a["order"], "audit.order")
    tol = _number(a.get("tol", 1e-6), "audit.tol")
    sign_tol = _number(a.get("sign_tol", 1e-8), "audit.sign_tol")
    chaos.check_audit(graph, beta, i, j, degree_cap, order, tol, sign_tol)

    def run():
        report = chaos.coefficient_audit(graph, model, beta, i, j, degree_cap, order,
                                         tol=tol, sign_tol=sign_tol)
        rows = [{"n": ";".join(f"{eid}:{d}" for eid, d in r.n.degrees) or "0",
                 "value": r.value, "forced_zero": r.forced_zero,
                 "in_support": r.in_support, "path_ij": r.path_ij,
                 "support_size": r.support_size} for r in report.rows]
        return rows, {**vars(report), "rows": rows}
    return run


def _parse_suite(cfg: dict):
    (s,) = _sections(cfg, "suite")
    _expect(s, "suite", (), ("draws", "order"))
    draws = _int(s.get("draws", 100), "suite.draws")
    order = _int(s.get("order", 16), "suite.order")
    hermite.check_order(order)
    seed = cfg["seed"]

    return lambda: chaos.counterexample_suite(seed, draws=draws, order=order)


def _parse_levy(cfg: dict):
    (lv,) = _sections(cfg, "levy")
    _expect(lv, "levy", ("alpha", "beta", "n_values", "replicas"), ("t",))
    alpha = _number(lv["alpha"], "levy.alpha")
    beta = _number(lv["beta"], "levy.beta")
    n_values = [_int(n, "levy.n_values entry") for n in _list(lv["n_values"], "levy.n_values")]
    replicas = _int(lv["replicas"], "levy.replicas", 2)
    t = None if lv.get("t") is None else _number(lv["t"], "levy.t")
    chaos.check_levy(n_values, alpha, beta, t, replicas)
    seed = cfg["seed"]

    def run():
        result = chaos.levy_chaos(n_values, alpha, beta, t, replicas, seed)
        rows = [{"n": p.n, "estimate": p.estimate, "se": p.se} for p in result["points"]]
        return rows, {**result, "points": rows}
    return run


RUNNERS = {
    "chaos-curve": _parse_curve,
    "bound-check": _parse_curve,
    "lower-bound-check": _parse_curve,
    "growth-stats": _parse_growth,
    "hypertree-trend": _parse_trend,
    "coefficient-audit": _parse_audit,
    "counterexamples": _parse_suite,
    "levy-chaos": _parse_levy,
}


@lru_cache(maxsize=1)
def _openblas():
    """numpy's bundled OpenBLAS (scipy-openblas) as a ctypes library, or
    None for a BLAS without its symbols (MKL, Accelerate, a distribution's
    OpenBLAS). The symbols are looked up through numpy's core extension,
    which links the BLAS, so no library path is guessed."""
    try:
        lib = ctypes.CDLL(_umath.__file__)
        for name, restype, argtypes in (
                ("scipy_openblas_get_num_threads64_", ctypes.c_int, []),
                ("scipy_openblas_set_num_threads64_", None, [ctypes.c_int]),
                ("scipy_openblas_get_corename64_", ctypes.c_char_p, [])):
            fn = getattr(lib, name)
            fn.restype, fn.argtypes = restype, argtypes
    except (OSError, AttributeError):
        return None
    return lib


@contextmanager
def _one_blas_thread():
    """Pin numpy's OpenBLAS to one thread, restore its count on exit, and
    yield the numerics record: the BLAS core, its thread count, whether it
    was pinned and numpy's enabled SIMD targets. An unknown BLAS runs as
    it is and is recorded as not pinned."""
    simd = [t for t in (*_umath.__cpu_baseline__, *_umath.__cpu_dispatch__)
            if _umath.__cpu_features__.get(t)]
    lib = _openblas()
    if lib is None:
        yield {"blas_core": None, "blas_threads": None, "pinned": False, "simd": simd}
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield {"blas_core": lib.scipy_openblas_get_corename64_().decode(),
               "blas_threads": lib.scipy_openblas_get_num_threads64_(), "pinned": True,
               "simd": simd}
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def run_experiment(cfg: dict) -> dict:
    """Validate cfg, run it on one BLAS thread and write its three files;
    returns the manifest."""
    t0 = time.monotonic()
    run = _parse(cfg)
    workers = threads()  # a bad SPINCHAOS_THREADS stops the run before it writes
    with _one_blas_thread() as numerics:
        rows, payload = run()
    outdir = Path(cfg["output"])
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / "results.csv"
    json_path = outdir / "results.json"
    _write_csv(csv_path, rows)
    _write_json(json_path, {"config": cfg, "seed": cfg["seed"], "results": payload})
    manifest = {
        "experiment": cfg["experiment"],
        "seed": cfg["seed"],
        "config": cfg,
        "bound_tags": cfg.get("curve", {}).get("bounds", []),
        "outputs": [csv_path.name, json_path.name],
        "versions": {"spinchaos": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__,
                     "python": ".".join(map(str, sys.version_info[:3]))},
        "threads": workers,
        "numerics": numerics,
        "wall_time_s": time.monotonic() - t0,
    }
    _write_json(outdir / "manifest.json", manifest)
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="spinchaos",
                                     description="disorder chaos experiments")
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config")
    p_val = sub.add_parser("validate", help="validate a config file")
    p_val.add_argument("config")
    p_fix = sub.add_parser("fixtures", help="list built-in hypergraphs")
    p_fix.add_argument("--write", metavar="DIR", default=None,
                       help="also write each fixture to DIR in text format")
    args = parser.parse_args(argv)

    try:
        if args.cmd == "validate":
            cfg = load_config(args.config)
            print(f"ok: {cfg['experiment']}")
            return 0
        if args.cmd == "fixtures":
            outdir = _directory(args.write, "--write") if args.write is not None else None
            for name, (graph, desc) in fixtures.catalog().items():
                print(f"{name}: N={graph.n} edges={graph.n_edges} :: {desc}")
                if outdir:
                    outdir.mkdir(parents=True, exist_ok=True)
                    save_graph(graph, outdir / f"{name}.hg")
            return 0
        cfg = _read(args.config)
        manifest = run_experiment(cfg)
        print(f"done: {cfg['experiment']} -> {cfg['output']} "
              f"({manifest['wall_time_s']:.1f}s)")
        return 0
    except SpinchaosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
