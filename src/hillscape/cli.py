"""Command-line orchestration.

Subcommands: ``gen``, ``search``, ``analyze``, ``rwa``, ``theory``, ``fit``,
``compare``, each with one flag table in ``COMMANDS`` whose rows are its
flags, its config-file keys and its resolved configuration.  Flag values
override config-file values override defaults; both go through the same
parser.  Every run writes a ``manifest.json`` with the fully resolved
configuration before any result file.  Outputs are plot-ready CSV/JSON and
byte-identical across reruns with the same seed.

Exit codes: 0 success, 2 usage error, 3 data/validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import zip_longest
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, analysis, theory
from .landscape import (Landscape, LandscapeError, LandscapeView, NoiseSpec, _read_csv,
                        _write_csv, load_landscape, sample_markov_truncnorm,
                        sample_uniform, save_landscape)
from .search import run_trials
from .theory import LocalPdfSpec, PdfSpec, TheoryParams
from .topology import Topology, TopologyError, _parse_spec, load_adjacency


# -- small helpers -------------------------------------------------------------


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _prepare_out(cfg, command) -> str:
    outdir = cfg["out"]
    os.makedirs(outdir, exist_ok=True)
    _write_json(os.path.join(outdir, "manifest.json"), {
        "tool": "hillscape", "version": __version__, "command": command, "config": cfg})
    return outdir


def _parse_topo(spec: str) -> Topology:
    if spec.startswith("custom:"):
        return load_adjacency(spec.split(":", 1)[1])
    return Topology.from_spec(spec)


def _markov_model(sigma_local, root_center=0.25, root_sigma=0.18):
    return lambda topo, seed: sample_markov_truncnorm(topo, sigma_local, root_center,
                                                      root_sigma, seed)


# spec tables for --model, --pdf-n and --pdf-e (grammar: topology._parse_spec)
_MODELS = {"uniform": (lambda: sample_uniform,),
           "markov-tn": (_markov_model, float, float, float)}
_PDF_N = {"uniform": (PdfSpec.uniform01,),
          "truncnorm": (PdfSpec.truncnorm, float, float)}
_PDF_E = {"uniform": (lambda: LocalPdfSpec.independent(PdfSpec.uniform01()),),
          "truncnorm-local": (LocalPdfSpec.truncnorm_centered, float)}


def _load_landscape_arg(cfg, command: str) -> Landscape:
    if not cfg["landscape"]:
        raise ValueError(f"{command} requires --landscape")
    return load_landscape(cfg["landscape"], _parse_topo(cfg["topo"]) if cfg["topo"] else None)


def _eps_grid(cfg) -> np.ndarray:
    if cfg["eps_points"] < 2:
        raise ValueError("eps-points must be >= 2")
    with np.errstate(invalid="ignore"):  # an infinite eps-max gives nan: rejected below
        grid = np.linspace(0.0, cfg["eps_max"], cfg["eps_points"])
    return analysis._eps_array(grid)


# -- commands -------------------------------------------------------------------
# Each receives the resolved configuration: one typed value per row of its
# flag table.


def cmd_gen(cfg) -> int:
    if not cfg["topo"]:
        raise ValueError("gen requires --topo")
    topo = _parse_topo(cfg["topo"])
    sample = _parse_spec(cfg["model"], _MODELS, ValueError, "generator model")
    scape = sample(topo, cfg["seed"])
    outdir = _prepare_out(cfg, "gen")
    save_landscape(scape, os.path.join(outdir, "landscape.csv"))
    return 0


def cmd_search(cfg) -> int:
    scape = _load_landscape_arg(cfg, "search")
    noise = NoiseSpec.parse(cfg["noise"])
    histories = run_trials(
        scape, noise, cfg["algo"], cfg["budget"], cfg["trials"], cfg["seed"],
        num_initial=cfg["num_initial"], restart=cfg["restart"], jobs=cfg["jobs"],
    )
    outdir = _prepare_out(cfg, "search")  # after run_trials has checked its arguments
    lengths = np.array([len(h) for h in histories])
    any_test = all(h.best_test is not None for h in histories)

    def joined(name):
        return np.concatenate([getattr(h, name) for h in histories])

    best_val = joined("best_val")
    best_test = joined("best_test") if any_test else None
    _write_csv(os.path.join(outdir, "runs.csv"),
               ["trial", "query", "node", "val_loss", "best_val", "best_test"],
               [np.repeat(np.arange(len(histories)), lengths),
                np.concatenate([np.arange(1, k + 1) for k in lengths]),
                joined("nodes"), joined("val_loss"), best_val, best_test])

    # at[q, t]: where trial t's best at query q sits in the trial-major
    # concatenation; without restarts a trial ends at convergence, so its
    # final best is carried forward to the longest trial's length.  Each
    # statistic is taken over one contiguous (queries x trials) row.
    queries = int(lengths.max())
    at = (np.cumsum(lengths) - lengths) + np.minimum(np.arange(queries)[:, None], lengths - 1)
    best = best_val[at]
    summary = {
        "algo": cfg["algo"],
        "trials": cfg["trials"],
        "budget": cfg["budget"],
        "queries": queries,
        "trials_at_query": (lengths > np.arange(queries)[:, None]).sum(axis=1).tolist(),
        "mean_best_val": best.mean(axis=1).tolist(),
        "std_best_val": best.std(axis=1).tolist(),
        "mean_best_test": best_test[at].mean(axis=1).tolist() if any_test else None,
        "final_mean_best_val": float(best[-1].mean()),
    }
    _write_json(os.path.join(outdir, "summary.json"), summary)
    return 0


def cmd_analyze(cfg) -> int:
    scape = _load_landscape_arg(cfg, "analyze")
    noise = NoiseSpec.parse(cfg["noise"])
    if not noise.frozen:
        raise LandscapeError("analyze requires a frozen noise mode")
    eps = _eps_grid(cfg)
    if cfg["export_tree"] < 0:  # export_search_tree needs top_k >= 1; 0 means no export
        raise ValueError("export-tree must be >= 0")
    outdir = _prepare_out(cfg, "analyze")
    view = LandscapeView(scape, noise, seed=cfg["seed"])
    _, stats = analysis.basins(view, use_base_loss_for_global=cfg["global_from_base"])
    curve = analysis.within_epsilon_curve(view, eps)
    smap = analysis.successor_map(view)

    _write_csv(os.path.join(outdir, "stats.csv"), ["metric", "value"], [
        ("n", "num_local_minima", "avg_iterations", "pct_global_basin"),
        (scape.n, stats.num_local_minima, stats.avg_iterations,
         100.0 * stats.fraction_reaching_global_min),
    ])
    _write_csv(os.path.join(outdir, "within_eps.csv"), ["epsilon", "fraction"], zip(*curve))
    order = np.argsort(smap.values[stats.basin_minima], kind="stable")
    minima = stats.basin_minima[order]
    _write_csv(os.path.join(outdir, "basin_sizes.csv"), ["min_id", "loss", "size"],
               [minima, smap.values[minima], stats.basin_sizes[order]])

    if cfg["export_tree"] > 0:
        trees = analysis.export_search_tree(view, cfg["export_tree"])
        tree_dir = os.path.join(outdir, "trees")
        os.makedirs(tree_dir, exist_ok=True)
        for rank, tree in enumerate(trees, start=1):
            for ext, text in (("json", analysis.tree_to_json(tree) + "\n"),
                              ("dot", analysis.tree_to_dot(tree))):
                with open(os.path.join(tree_dir, f"tree_{rank}.{ext}"), "w",
                          encoding="utf-8") as fh:
                    fh.write(text)
    return 0


def cmd_rwa(cfg) -> int:
    scape = _load_landscape_arg(cfg, "rwa")
    noise = NoiseSpec.parse(cfg["noise"])
    view = LandscapeView(scape, noise, seed=cfg["seed"])
    rows = analysis.rwa(view, cfg["walk_len"], cfg["max_lag"], seed=cfg["seed"])
    outdir = _prepare_out(cfg, "rwa")  # after rwa has checked its arguments
    _write_csv(os.path.join(outdir, "rwa.csv"), ["lag", "sqrt_lag", "rho"], zip(*rows))
    return 0


def cmd_theory(cfg) -> int:
    pdf_n = _parse_spec(cfg["pdf_n"], _PDF_N, ValueError, "global pdf")
    pdf_e = _parse_spec(cfg["pdf_e"], _PDF_E, ValueError, "local pdf")
    closed = cfg["closed_form"]
    if closed == "uniform" and not (pdf_n.kind == "uniform" and pdf_e.kind == "independent"
                                    and pdf_e.g.kind == "uniform"):
        raise ValueError("theory --closed-form uniform assumes uniform losses; "
                         "--pdf-n and --pdf-e must both be uniform with it")
    if cfg["topo"]:
        if cfg["n"] is not None or cfg["s"] is not None or cfg["b"] != [1.0]:  # [1.0]: --b default
            raise ValueError("theory --topo takes n, s and b from the topology; "
                             "--n, --s and --b apply only without it")
        params = TheoryParams.from_topology(_parse_topo(cfg["topo"]),
                                            ell_star=cfg["ell_star"])
    else:
        if cfg["n"] is None or cfg["s"] is None:
            raise ValueError("theory requires --topo or both --n and --s")
        params = TheoryParams(n=cfg["n"], s=cfg["s"], b=cfg["b"],
                              ell_star=cfg["ell_star"])
    eps = _eps_grid(cfg)
    max_k, grid_points = cfg["max_k"], cfg["grid_points"]
    if max_k < 1:
        raise ValueError("max-k must be >= 1")
    theory._grid(grid_points)  # rejects too few quadrature points before any output
    sigma, delta = cfg["noise_sigma"], cfg["delta"]
    if sigma is not None:
        bound = theory.chebyshev_minima_bound(pdf_n, pdf_e, params.s, sigma,
                                              params.n, delta, grid_points)
    outdir = _prepare_out(cfg, "theory")

    if closed == "uniform":
        frac = theory.uniform_closed_form_minima(params.n, params.s) / params.n
        curve = theory.uniform_closed_form_curve(params.n, params.s, params.b, eps)
    else:
        frac = theory.expected_minima_fraction(pdf_n, pdf_e, params.s, grid_points)
        xs, table = theory._preimage_table(pdf_e, params, max_k, grid_points)
        curve = theory._success_from_table(pdf_n, pdf_e, params, eps, xs, table)
    _write_csv(os.path.join(outdir, "theory_summary.csv"), ["metric", "value"], [
        ("n", "s", "expected_minima_fraction", "expected_minima_count"),
        (params.n, params.s, frac, frac * params.n)])
    _write_csv(os.path.join(outdir, "theory_curve.csv"), ["epsilon", "fraction_theory"],
               zip(*curve))

    loss_grid = np.linspace(0.0, 1.0, 101)
    pre_rows = []
    if pdf_e.kind == "independent":
        g = pdf_e.g
        for k in range(1, max_k + 1):
            sizes = theory.independent_closed_form(g, params, loss_grid, k)
            pre_rows.extend((x, k, v) for x, v in zip(loss_grid, np.atleast_1d(sizes)))
        gv = g.survival(loss_grid)
        bounds = [theory.full_preimage_bounds(float(x), params.s) for x in gv]
        _write_csv(os.path.join(outdir, "theory_bounds.csv"),
                   ["loss", "survival", "lower", "upper"], [loss_grid, gv, *zip(*bounds)])
    else:
        for k in range(1, max_k + 1):
            sizes = np.interp(loss_grid, xs, table[k - 1])
            pre_rows.extend((x, k, v) for x, v in zip(loss_grid, sizes))
    _write_csv(os.path.join(outdir, "theory_preimages.csv"),
               ["loss", "k", "expected_size"], zip(*pre_rows))

    if sigma is not None:
        _write_csv(os.path.join(outdir, "theory_chebyshev.csv"),
                   ["sigma", "delta", "bound"], [(sigma,), (delta,), (bound,)])
        if not np.isfinite(bound):
            print("chebyshev bound vacuous (inf)", file=sys.stderr)
    return 0


def cmd_fit(cfg) -> int:
    if cfg["mode"] == "global":
        scape = _load_landscape_arg(cfg, "fit --mode global")
        outdir = _prepare_out(cfg, "fit")
        fit = theory.fit_global_truncnorm(scape.val_loss)
        payload = {"mode": "global", "sigma": fit.sigma, "center": fit.center,
                   "objective": fit.objective}
    else:
        if not cfg["rwa"] or not cfg["topo"]:
            raise ValueError("fit --mode local-rwa requires --rwa and --topo")
        table = _read_csv(cfg["rwa"])
        rows = np.column_stack([table.column(j, float) for j in range(len(table.header))])
        topo = _parse_topo(cfg["topo"])
        outdir = _prepare_out(cfg, "fit")
        fit = theory.fit_local_sigma_via_rwa(
            rows, topo, cfg["candidates"], seed=cfg["seed"], walk_len=cfg["walk_len"],
            root_center=cfg["root_center"], root_sigma=cfg["root_sigma"])
        payload = {"mode": "local-rwa", "sigma_local": fit.sigma,
                   "objective": fit.objective}
    _write_json(os.path.join(outdir, "fit.json"), payload)
    return 0


def _read_curve(path, value_column):
    table = _read_csv(path)
    if table.header[0] != "epsilon" or value_column not in table.header:
        raise ValueError(f"{path}: expected columns epsilon,{value_column}")
    return table.column(0, float), table.column(table.header.index(value_column), float)


def cmd_compare(cfg) -> int:
    if not cfg["sim"] or not cfg["theory"]:
        raise ValueError("compare requires --sim and --theory")
    eps_s, sim = _read_curve(cfg["sim"], "fraction")
    eps_t, the = _read_curve(cfg["theory"], "fraction_theory")
    if len(eps_s) != len(eps_t) or not np.allclose(eps_s, eps_t, atol=1e-12, rtol=0.0):
        bad = [f"row {i}: sim={a} theory={b}"
               for i, (a, b) in enumerate(zip_longest(eps_s, eps_t))
               if a is None or b is None or abs(a - b) > 1e-12]
        raise ValueError("epsilon grids do not match:\n  " + "\n  ".join(bad[:20]))
    outdir = _prepare_out(cfg, "compare")
    gap = sim - the
    _write_csv(os.path.join(outdir, "compared.csv"),
               ["epsilon", "fraction_sim", "fraction_theory", "gap"], [eps_s, sim, the, gap])
    _write_json(os.path.join(outdir, "compare_summary.json"), {
        "rows": len(eps_s), "max_abs_gap": float(np.max(np.abs(gap))) if len(gap) else 0.0})
    return 0


# -- flag tables -----------------------------------------------------------------


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return text == "true"


def _floats(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers, got {text!r}") from None


class Flag(NamedTuple):
    """``--name`` on the command line, key ``name`` in a config file.  ``type``
    converts text (a string default too) or is the tuple of allowed strings."""

    name: str
    type: object
    default: object
    help: str


class Command(NamedTuple):
    func: Callable
    help: str
    flags: tuple


_OUT = Flag("out", str, "out", "output directory")
_SEED = Flag("seed", int, 0, "root seed (u64)")
_LANDSCAPE = Flag("landscape", str, None, "landscape CSV")
_TOPO = Flag("topo", str, None, "clique-power:m,d | complete:n | tree:a,h | custom:FILE")
_NOISE = Flag("noise", str, "none", "noise spec, e.g. gaussian:0.1")
_EPS_MAX = Flag("eps_max", float, 0.1, "largest epsilon of the within-eps curve")
_EPS_POINTS = Flag("eps_points", int, 101, "points of the epsilon grid (>= 2)")
_WALK_LEN = Flag("walk_len", int, 100_000, "random-walk steps")

COMMANDS = {
    "gen": Command(cmd_gen, "generate a landscape file", (
        _TOPO,
        Flag("model", str, "uniform", "uniform | markov-tn:sigma[,center,root_sigma]"),
        _SEED, _OUT)),
    "search": Command(cmd_search, "run seeded search trials", (
        _LANDSCAPE, _TOPO, _NOISE,
        Flag("algo", ("local", "local-qul", "local-cam", "random"), "local", "search algorithm"),
        Flag("budget", int, 300, "distinct nodes charged per trial"),
        Flag("trials", int, 200, "independent seeded trials"),
        Flag("num_initial", int, 1, "random starts drawn before each descent"),
        Flag("restart", _bool, "true", "restart at a local minimum: true | false"),
        _SEED,
        Flag("jobs", int, 1, "worker processes for the trials (outputs do not change)"),
        _OUT)),
    "analyze": Command(cmd_analyze, "exhaustive landscape statistics", (
        _LANDSCAPE, _TOPO, _NOISE, _EPS_MAX, _EPS_POINTS,
        Flag("export_tree", int, 0, "export the preimage trees of the k best minima"),
        Flag("global_from_base", _bool, "false",
             "find the global minimum on base losses: true | false"),
        _SEED, _OUT)),
    "rwa": Command(cmd_rwa, "random-walk autocorrelation", (
        _LANDSCAPE, _TOPO, _NOISE, _WALK_LEN,
        Flag("max_lag", int, 36, "largest lag"),
        _SEED, _OUT)),
    "theory": Command(cmd_theory, "evaluate closed-form predictions", (
        Flag("pdf_n", str, "uniform", "uniform | truncnorm:center,sigma"),
        Flag("pdf_e", str, "uniform", "uniform | truncnorm-local:sigma"),
        _TOPO,
        Flag("n", int, None, "node count (without --topo)"),
        Flag("s", int, None, "degree (without --topo)"),
        Flag("b", _floats, "1", "comma-separated branching fractions b_1..b_D "
                                "(without --topo)"),
        Flag("ell_star", float, 0.0, "loss floor"),
        _EPS_MAX, _EPS_POINTS,
        Flag("max_k", int, 5, "deepest preimage level"),
        Flag("grid_points", int, theory.DEFAULT_GRID_POINTS, "quadrature grid points"),
        Flag("closed_form", ("uniform",), None, "use the closed form for uniform losses"),
        Flag("noise_sigma", float, None, "noise sigma of the Chebyshev minima bound"),
        Flag("delta", float, 1e-3, "diagonal band the Chebyshev bound leaves out, in (0, 1)"),
        _OUT)),
    "fit": Command(cmd_fit, "fit pdf parameters from data", (
        Flag("mode", ("global", "local-rwa"), "global", "what to fit"),
        _LANDSCAPE, _TOPO,
        Flag("rwa", str, None, "rwa.csv from the rwa command"),
        Flag("candidates", _floats, "0.2,0.35,0.5", "comma-separated sigma candidates"),
        _WALK_LEN,
        Flag("root_center", float, 0.25, "root center of the simulated landscapes"),
        Flag("root_sigma", float, 0.18, "root sigma of the simulated landscapes"),
        _SEED, _OUT)),
    "compare": Command(cmd_compare, "join a simulated and a predicted curve", (
        Flag("sim", str, None, "within_eps.csv from analyze"),
        Flag("theory", str, None, "theory_curve.csv from theory"),
        _OUT)),
}


# -- parser ---------------------------------------------------------------------


def _add_flags(parser, flags):
    for f in flags:
        kind = "choices" if isinstance(f.type, tuple) else "type"
        parser.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                            help=f.help, **{kind: f.type})
    parser.add_argument("--config", help="JSON object of settings keyed by flag name")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hillscape",
        description="Loss landscapes on neighborhood graphs: generation, local "
                    "search, analytics, and closed-form predictions.")
    parser.add_argument("--version", action="version", version=f"hillscape {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        _add_flags(sub.add_parser(name, help=command.help,
                                  formatter_class=argparse.ArgumentDefaultsHelpFormatter),
                   command.flags)
    return parser


def _resolve(command: str, config_path: str | None, flag_args: list[str]) -> dict:
    """defaults < config file < explicit flags, all through one parser.

    Each config entry becomes a ``--name=value`` token parsed on its own, so
    a rejected value names its key; ``flag_args``, already accepted by
    :func:`build_parser`, are parsed last and win.
    """
    flags = COMMANDS[command].flags
    parser = argparse.ArgumentParser(exit_on_error=False)
    _add_flags(parser, flags)
    resolved = argparse.Namespace()
    entries = {}
    if config_path is not None:
        with open(config_path, encoding="utf-8") as fh:
            entries = json.load(fh)
        if not isinstance(entries, dict):
            raise ValueError(f"{config_path}: config must be a JSON object")
    names = {f.name for f in flags}
    for key, value in entries.items():
        name = key.replace("-", "_")
        if name not in names:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif not isinstance(value, (str, int, float)):
            raise ValueError(f"config key {key!r}: expected a string, number or "
                             f"boolean, got {value!r}")
        try:
            parser.parse_args([f"--{name.replace('_', '-')}={value}"], resolved)
        except argparse.ArgumentError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    parser.parse_args(flag_args, resolved)
    return {f.name: getattr(resolved, f.name) for f in flags}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args.command, args.config, argv[argv.index(args.command) + 1:])
        return COMMANDS[args.command].func(cfg)
    except (LandscapeError, TopologyError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
