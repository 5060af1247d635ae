"""Command-line orchestration.

Subcommands: ``gen``, ``search``, ``analyze``, ``rwa``, ``theory``, ``fit``,
``compare``.  Global flags: ``--seed``, ``--out``, ``--config``, ``--jobs``.
Flag values override config-file values override defaults; every run writes
a ``manifest.json`` with the fully resolved configuration before any result
file.  Outputs are plot-ready CSV/JSON and byte-identical across reruns
with the same seed.

Exit codes: 0 success, 2 usage error, 3 data/validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__, analysis, theory
from .landscape import (Landscape, LandscapeError, LandscapeView, NoiseSpec,
                        load_landscape, sample_markov_truncnorm, sample_uniform,
                        save_landscape)
from .search import run_trials
from .theory import LocalPdfSpec, PdfSpec, TheoryParams
from .topology import Topology, TopologyError, load_adjacency

_EPS_POINTS_DEFAULT = 101
_EPS_MAX_DEFAULT = 0.1


# -- small helpers -------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if c is None else (c if isinstance(c, str) else _fmt(c))
                              for c in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _to_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str) and value.lower() in ("true", "false"):
        return value.lower() == "true"
    raise ValueError(f"expected true/false, got {value!r}")


def _resolve(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        for key, value in file_cfg.items():
            norm = key.replace("-", "_")
            if norm not in cfg:
                raise ValueError(f"unknown config key {key!r}")
            cfg[norm] = value
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _prepare_out(cfg, command) -> str:
    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "tool": "hillscape",
        "version": __version__,
        "command": command,
        "config": dict(cfg),
    }
    _write_json(os.path.join(outdir, "manifest.json"), manifest)
    return outdir


def _parse_topo(spec: str) -> Topology:
    if spec.startswith("custom:"):
        return load_adjacency(spec.split(":", 1)[1])
    return Topology.from_spec(spec)


def _parse_model(spec: str):
    name, _, params = spec.partition(":")
    if name == "uniform":
        return ("uniform", {})
    if name == "markov-tn":
        parts = params.split(",") if params else []
        if not parts or not parts[0]:
            raise ValueError("markov-tn needs a sigma, e.g. markov-tn:0.35")
        kw = {"sigma_local": float(parts[0]),
              "root_center": float(parts[1]) if len(parts) > 1 else 0.25,
              "root_sigma": float(parts[2]) if len(parts) > 2 else 0.18}
        return ("markov-tn", kw)
    raise ValueError(f"unknown generator model {spec!r}")


def _parse_pdf_n(spec: str) -> PdfSpec:
    name, _, params = spec.partition(":")
    if name == "uniform":
        return PdfSpec.uniform01()
    if name == "truncnorm":
        center, sigma = (float(p) for p in params.split(","))
        return PdfSpec.truncnorm(center, sigma)
    raise ValueError(f"unknown global pdf {spec!r}")


def _parse_pdf_e(spec: str) -> LocalPdfSpec:
    name, _, params = spec.partition(":")
    if name == "uniform":
        return LocalPdfSpec.independent(PdfSpec.uniform01())
    if name == "truncnorm-local":
        return LocalPdfSpec.truncnorm_centered(float(params))
    raise ValueError(f"unknown local pdf {spec!r}")


def _load_landscape_arg(path: str, topo_spec: str | None) -> Landscape:
    if topo_spec:
        return load_landscape(path, _parse_topo(topo_spec))
    return load_landscape(path)


def _eps_grid(cfg) -> np.ndarray:
    points = int(cfg["eps_points"])
    if points < 2:
        raise ValueError("eps-points must be >= 2")
    return np.linspace(0.0, float(cfg["eps_max"]), points)


# -- commands -------------------------------------------------------------------


def cmd_gen(args) -> int:
    cfg = _resolve(args, {
        "topo": None, "model": "uniform", "seed": 0, "out": "out", "jobs": 1,
    })
    if not cfg["topo"]:
        raise ValueError("gen requires --topo")
    topo = _parse_topo(cfg["topo"])
    model, kw = _parse_model(cfg["model"])
    outdir = _prepare_out(cfg, "gen")
    if model == "uniform":
        scape = sample_uniform(topo, int(cfg["seed"]))
    else:
        scape = sample_markov_truncnorm(topo, seed=int(cfg["seed"]), **kw)
    save_landscape(scape, os.path.join(outdir, "landscape.csv"))
    return 0


def cmd_search(args) -> int:
    cfg = _resolve(args, {
        "landscape": None, "topo": None, "noise": "none", "algo": "local",
        "budget": 300, "trials": 200, "num_initial": 1, "restart": "true",
        "seed": 0, "out": "out", "jobs": 1,
    })
    if not cfg["landscape"]:
        raise ValueError("search requires --landscape")
    restart = _to_bool(cfg["restart"])
    scape = _load_landscape_arg(cfg["landscape"], cfg["topo"])
    noise = NoiseSpec.parse(cfg["noise"])
    outdir = _prepare_out(cfg, "search")
    histories = run_trials(
        scape, noise, cfg["algo"], int(cfg["budget"]), int(cfg["trials"]),
        int(cfg["seed"]), num_initial=int(cfg["num_initial"]), restart=restart,
        jobs=int(cfg["jobs"]),
    )
    rows = []
    for trial, hist in enumerate(histories):
        has_test = hist.best_test is not None
        for q in range(len(hist)):
            rows.append((
                trial, q + 1, int(hist.nodes[q]), hist.val_loss[q], hist.best_val[q],
                hist.best_test[q] if has_test else None,
            ))
    _write_csv(os.path.join(outdir, "runs.csv"),
               ["trial", "query", "node", "val_loss", "best_val", "best_test"], rows)

    max_len = max(len(h) for h in histories)
    mean_best, std_best, counts, mean_test = [], [], [], []
    any_test = all(h.best_test is not None for h in histories)
    for q in range(max_len):
        vals = np.asarray([h.best_val[q] for h in histories if len(h) > q])
        mean_best.append(float(vals.mean()))
        std_best.append(float(vals.std()))
        counts.append(int(len(vals)))
        if any_test:
            tv = np.asarray([h.best_test[q] for h in histories if len(h) > q])
            mean_test.append(float(tv.mean()))
    summary = {
        "algo": cfg["algo"],
        "trials": int(cfg["trials"]),
        "budget": int(cfg["budget"]),
        "queries": max_len,
        "trials_at_query": counts,
        "mean_best_val": mean_best,
        "std_best_val": std_best,
        "mean_best_test": mean_test if any_test else None,
        "final_mean_best_val": mean_best[-1],
    }
    _write_json(os.path.join(outdir, "summary.json"), summary)
    return 0


def cmd_analyze(args) -> int:
    cfg = _resolve(args, {
        "landscape": None, "topo": None, "noise": "none",
        "eps_max": _EPS_MAX_DEFAULT, "eps_points": _EPS_POINTS_DEFAULT,
        "export_tree": 0, "global_from_base": "false",
        "seed": 0, "out": "out", "jobs": 1,
    })
    if not cfg["landscape"]:
        raise ValueError("analyze requires --landscape")
    scape = _load_landscape_arg(cfg["landscape"], cfg["topo"])
    noise = NoiseSpec.parse(cfg["noise"])
    if not noise.frozen:
        raise LandscapeError("analyze requires a frozen noise mode")
    eps = _eps_grid(cfg)
    outdir = _prepare_out(cfg, "analyze")
    view = LandscapeView(scape, noise, seed=int(cfg["seed"]))
    _, stats = analysis.basins(view, use_base_loss_for_global=_to_bool(cfg["global_from_base"]))
    curve = analysis.within_epsilon_curve(view, eps)
    smap = analysis.successor_map(view)

    _write_csv(os.path.join(outdir, "stats.csv"), ["metric", "value"], [
        ("n", scape.n),
        ("num_local_minima", stats.num_local_minima),
        ("avg_iterations", stats.avg_iterations),
        ("pct_global_basin", 100.0 * stats.fraction_reaching_global_min),
    ])
    _write_csv(os.path.join(outdir, "within_eps.csv"), ["epsilon", "fraction"],
               [(e, f) for e, f in curve])
    order = np.argsort(smap.values[stats.basin_minima], kind="stable")
    _write_csv(os.path.join(outdir, "basin_sizes.csv"), ["min_id", "loss", "size"],
               [(int(stats.basin_minima[i]), smap.values[stats.basin_minima[i]],
                 int(stats.basin_sizes[i])) for i in order])

    top_k = int(cfg["export_tree"])
    if top_k > 0:
        trees = analysis.export_search_tree(view, top_k)
        tree_dir = os.path.join(outdir, "trees")
        os.makedirs(tree_dir, exist_ok=True)
        for rank, tree in enumerate(trees, start=1):
            _write_json(os.path.join(tree_dir, f"tree_{rank}.json"), tree)
            with open(os.path.join(tree_dir, f"tree_{rank}.dot"), "w",
                      encoding="utf-8") as fh:
                fh.write(analysis.tree_to_dot(tree))
    return 0


def cmd_rwa(args) -> int:
    cfg = _resolve(args, {
        "landscape": None, "topo": None, "noise": "none",
        "walk_len": 100_000, "max_lag": 36, "seed": 0, "out": "out", "jobs": 1,
    })
    if not cfg["landscape"]:
        raise ValueError("rwa requires --landscape")
    scape = _load_landscape_arg(cfg["landscape"], cfg["topo"])
    noise = NoiseSpec.parse(cfg["noise"])
    outdir = _prepare_out(cfg, "rwa")
    view = LandscapeView(scape, noise, seed=int(cfg["seed"]))
    rows = analysis.rwa(view, int(cfg["walk_len"]), int(cfg["max_lag"]),
                        seed=int(cfg["seed"]))
    _write_csv(os.path.join(outdir, "rwa.csv"), ["lag", "sqrt_lag", "rho"], rows)
    return 0


def cmd_theory(args) -> int:
    cfg = _resolve(args, {
        "pdf_n": "uniform", "pdf_e": "uniform", "topo": None,
        "n": None, "s": None, "b": None, "ell_star": 0.0,
        "eps_max": _EPS_MAX_DEFAULT, "eps_points": _EPS_POINTS_DEFAULT,
        "max_k": 5, "grid_points": theory.DEFAULT_GRID_POINTS,
        "closed_form": None, "noise_sigma": None, "delta": 1e-3,
        "seed": 0, "out": "out", "jobs": 1,
    })
    pdf_n = _parse_pdf_n(cfg["pdf_n"])
    pdf_e = _parse_pdf_e(cfg["pdf_e"])
    if cfg["topo"]:
        topo = _parse_topo(cfg["topo"])
        params = TheoryParams.from_topology(topo, ell_star=float(cfg["ell_star"]))
    else:
        if cfg["n"] is None or cfg["s"] is None:
            raise ValueError("theory requires --topo or both --n and --s")
        b = ([float(p) for p in str(cfg["b"]).split(",")]
             if cfg["b"] is not None else [1.0])
        params = TheoryParams(n=int(cfg["n"]), s=int(cfg["s"]), b=b,
                              ell_star=float(cfg["ell_star"]))
    eps = _eps_grid(cfg)
    max_k = int(cfg["max_k"])
    grid_points = int(cfg["grid_points"])
    closed = cfg["closed_form"]
    if closed not in (None, "uniform"):
        raise ValueError("--closed-form supports only 'uniform'")
    outdir = _prepare_out(cfg, "theory")

    if closed == "uniform":
        frac = theory.uniform_closed_form_minima(params.n, params.s) / params.n
        curve = theory.uniform_closed_form_curve(params.n, params.s, params.b, eps)
    else:
        frac = theory.expected_minima_fraction(pdf_n, pdf_e, params.s, grid_points)
        xs, table = theory._preimage_table(pdf_e, params, max_k, grid_points)
        curve = theory._success_from_table(pdf_n, pdf_e, params, eps, xs, table)
    _write_csv(os.path.join(outdir, "theory_summary.csv"), ["metric", "value"], [
        ("n", params.n),
        ("s", params.s),
        ("expected_minima_fraction", frac),
        ("expected_minima_count", frac * params.n),
    ])
    _write_csv(os.path.join(outdir, "theory_curve.csv"),
               ["epsilon", "fraction_theory"], [(e, f) for e, f in curve])

    loss_grid = np.linspace(0.0, 1.0, 101)
    pre_rows = []
    if closed == "uniform" or pdf_e.kind == "independent":
        g = PdfSpec.uniform01() if closed == "uniform" else pdf_e.g
        for k in range(1, max_k + 1):
            sizes = theory.independent_closed_form(g, params, loss_grid, k)
            pre_rows.extend((x, k, v) for x, v in zip(loss_grid, np.atleast_1d(sizes)))
        gv = g.survival(loss_grid)
        bounds = [theory.full_preimage_bounds(float(x), params.s) for x in gv]
        _write_csv(os.path.join(outdir, "theory_bounds.csv"),
                   ["loss", "survival", "lower", "upper"],
                   [(x, g_, lo, hi) for x, g_, (lo, hi)
                    in zip(loss_grid, gv, bounds)])
    else:
        for k in range(1, max_k + 1):
            sizes = np.interp(loss_grid, xs, table[k - 1])
            pre_rows.extend((x, k, v) for x, v in zip(loss_grid, sizes))
    _write_csv(os.path.join(outdir, "theory_preimages.csv"),
               ["loss", "k", "expected_size"], pre_rows)

    if cfg["noise_sigma"] is not None:
        sigma = float(cfg["noise_sigma"])
        delta = float(cfg["delta"])
        bound = theory.chebyshev_minima_bound(pdf_n, pdf_e, params.s, sigma,
                                              params.n, delta, grid_points)
        _write_csv(os.path.join(outdir, "theory_chebyshev.csv"),
                   ["sigma", "delta", "bound"], [(sigma, delta, bound)])
        if not np.isfinite(bound):
            print("chebyshev bound vacuous (inf)", file=sys.stderr)
    return 0


def cmd_fit(args) -> int:
    cfg = _resolve(args, {
        "mode": "global", "landscape": None, "topo": None, "rwa": None,
        "candidates": "0.2,0.35,0.5", "walk_len": 100_000,
        "root_center": 0.25, "root_sigma": 0.18,
        "seed": 0, "out": "out", "jobs": 1,
    })
    mode = cfg["mode"]
    if mode == "global":
        if not cfg["landscape"]:
            raise ValueError("fit --mode global requires --landscape")
        scape = _load_landscape_arg(cfg["landscape"], cfg["topo"])
        outdir = _prepare_out(cfg, "fit")
        fit = theory.fit_global_truncnorm(scape.val_loss)
        payload = {"mode": "global", "sigma": fit.sigma, "center": fit.center,
                   "objective": fit.objective}
    elif mode == "local-rwa":
        if not cfg["rwa"] or not cfg["topo"]:
            raise ValueError("fit --mode local-rwa requires --rwa and --topo")
        rows = np.genfromtxt(cfg["rwa"], delimiter=",", skip_header=1)
        topo = _parse_topo(cfg["topo"])
        candidates = [float(p) for p in str(cfg["candidates"]).split(",")]
        outdir = _prepare_out(cfg, "fit")
        fit = theory.fit_local_sigma_via_rwa(
            rows, topo, candidates, seed=int(cfg["seed"]),
            walk_len=int(cfg["walk_len"]), root_center=float(cfg["root_center"]),
            root_sigma=float(cfg["root_sigma"]))
        payload = {"mode": "local-rwa", "sigma_local": fit.sigma,
                   "objective": fit.objective}
    else:
        raise ValueError(f"unknown fit mode {mode!r}")
    _write_json(os.path.join(outdir, "fit.json"), payload)
    return 0


def _read_curve(path, value_column):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    header = lines[0].split(",")
    if header[0] != "epsilon" or value_column not in header:
        raise ValueError(f"{path}: expected columns epsilon,{value_column}")
    col = header.index(value_column)
    eps, vals = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        eps.append(float(parts[0]))
        vals.append(float(parts[col]))
    return np.asarray(eps), np.asarray(vals)


def cmd_compare(args) -> int:
    cfg = _resolve(args, {
        "sim": None, "theory": None, "seed": 0, "out": "out", "jobs": 1,
    })
    if not cfg["sim"] or not cfg["theory"]:
        raise ValueError("compare requires --sim and --theory")
    outdir = _prepare_out(cfg, "compare")
    eps_s, sim = _read_curve(cfg["sim"], "fraction")
    eps_t, the = _read_curve(cfg["theory"], "fraction_theory")
    if len(eps_s) != len(eps_t) or not np.allclose(eps_s, eps_t, atol=1e-12, rtol=0.0):
        bad = []
        for i in range(max(len(eps_s), len(eps_t))):
            a = eps_s[i] if i < len(eps_s) else None
            b = eps_t[i] if i < len(eps_t) else None
            if a is None or b is None or abs(a - b) > 1e-12:
                bad.append(f"row {i}: sim={a} theory={b}")
        raise ValueError("epsilon grids do not match:\n  " + "\n  ".join(bad[:20]))
    gap = sim - the
    _write_csv(os.path.join(outdir, "compared.csv"),
               ["epsilon", "fraction_sim", "fraction_theory", "gap"],
               [(e, a, b, g) for e, a, b, g in zip(eps_s, sim, the, gap)])
    _write_json(os.path.join(outdir, "compare_summary.json"), {
        "rows": int(len(eps_s)),
        "max_abs_gap": float(np.max(np.abs(gap))) if len(gap) else 0.0,
    })
    return 0


# -- parser ---------------------------------------------------------------------


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=None, help="root seed (u64)")
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--config", default=None, help="JSON config file mirroring flag names")
    sp.add_argument("--jobs", type=int, default=None, help="trial parallelism degree")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hillscape",
        description="Loss landscapes on neighborhood graphs: generation, local "
                    "search, analytics, and closed-form predictions.")
    parser.add_argument("--version", action="version", version=f"hillscape {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gen", help="generate a landscape file")
    sp.add_argument("--topo", help="clique-power:m,d | complete:n | tree:a,h | custom:FILE")
    sp.add_argument("--model", help="uniform | markov-tn:sigma[,center,root_sigma]")
    _add_common(sp)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("search", help="run seeded search trials")
    sp.add_argument("--landscape", help="landscape CSV")
    sp.add_argument("--topo", help="override topology (custom landscapes)")
    sp.add_argument("--noise", help="noise spec, e.g. gaussian:0.1")
    sp.add_argument("--algo", choices=["local", "local-qul", "local-cam", "random"])
    sp.add_argument("--budget", type=int)
    sp.add_argument("--trials", type=int)
    sp.add_argument("--num-initial", dest="num_initial", type=int)
    sp.add_argument("--restart", choices=["true", "false"])
    _add_common(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("analyze", help="exhaustive landscape statistics")
    sp.add_argument("--landscape")
    sp.add_argument("--topo")
    sp.add_argument("--noise")
    sp.add_argument("--eps-max", dest="eps_max", type=float)
    sp.add_argument("--eps-points", dest="eps_points", type=int)
    sp.add_argument("--export-tree", dest="export_tree", type=int)
    sp.add_argument("--global-from-base", dest="global_from_base",
                    choices=["true", "false"])
    _add_common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("rwa", help="random-walk autocorrelation")
    sp.add_argument("--landscape")
    sp.add_argument("--topo")
    sp.add_argument("--noise")
    sp.add_argument("--walk-len", dest="walk_len", type=int)
    sp.add_argument("--max-lag", dest="max_lag", type=int)
    _add_common(sp)
    sp.set_defaults(func=cmd_rwa)

    sp = sub.add_parser("theory", help="evaluate closed-form predictions")
    sp.add_argument("--pdf-n", dest="pdf_n", help="uniform | truncnorm:center,sigma")
    sp.add_argument("--pdf-e", dest="pdf_e", help="uniform | truncnorm-local:sigma")
    sp.add_argument("--topo")
    sp.add_argument("--n", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--b", help="comma-separated branching fractions b_1..b_D")
    sp.add_argument("--ell-star", dest="ell_star", type=float)
    sp.add_argument("--eps-max", dest="eps_max", type=float)
    sp.add_argument("--eps-points", dest="eps_points", type=int)
    sp.add_argument("--max-k", dest="max_k", type=int)
    sp.add_argument("--grid-points", dest="grid_points", type=int)
    sp.add_argument("--closed-form", dest="closed_form", choices=["uniform"])
    sp.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    sp.add_argument("--delta", type=float)
    _add_common(sp)
    sp.set_defaults(func=cmd_theory)

    sp = sub.add_parser("fit", help="fit pdf parameters from data")
    sp.add_argument("--mode", choices=["global", "local-rwa"])
    sp.add_argument("--landscape")
    sp.add_argument("--topo")
    sp.add_argument("--rwa", help="rwa.csv from the rwa command")
    sp.add_argument("--candidates", help="comma-separated sigma candidates")
    sp.add_argument("--walk-len", dest="walk_len", type=int)
    sp.add_argument("--root-center", dest="root_center", type=float)
    sp.add_argument("--root-sigma", dest="root_sigma", type=float)
    _add_common(sp)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("compare", help="join a simulated and a predicted curve")
    sp.add_argument("--sim", help="within_eps.csv from analyze")
    sp.add_argument("--theory", help="theory_curve.csv from theory")
    _add_common(sp)
    sp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LandscapeError, TopologyError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
