"""Command-line orchestration.

Subcommands: ``gen``, ``search``, ``analyze``, ``rwa``, ``theory``, ``fit``,
``compare``, each with one flag table in ``COMMANDS`` whose rows are its
flags, its config-file keys and its resolved configuration.  Flag values
override config-file values override defaults; both go through the same
parser.  A command only computes: it returns its outputs, and ``main``
writes them under ``--out``, ``manifest.json`` with the fully resolved
configuration first.  So a run that exits non-zero on its inputs or in its
computation writes nothing.  Outputs are plot-ready CSV/JSON and
byte-identical across reruns with the same seed.  Each command imports the
modules it runs (``analysis``, ``search`` or ``theory``) when it is called,
so ``gen`` and ``compare`` load none of them.

Exit codes: 0 success, 2 usage error, 3 data/validation error; a
computation that cannot allocate its arrays also exits 3.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import zip_longest
from typing import Callable, NamedTuple

import numpy as np

from . import _ALGOS, DEFAULT_GRID_POINTS, __version__
from .landscape import (Landscape, LandscapeError, LandscapeView, NoiseSpec, _eps_array,
                        _read_csv, _write_csv, load_landscape, sample_markov_truncnorm,
                        sample_uniform, save_landscape)
from .topology import Topology, TopologyError, _parse_spec, load_adjacency


# -- small helpers -------------------------------------------------------------


def _write_outputs(outdir, outputs) -> None:
    """The one writer: each entry of ``outputs``, a path under ``outdir``, in
    order.  A ``(header, columns)`` table goes through ``_write_csv``, a dict
    to JSON, a ``Landscape`` through ``save_landscape`` and a text as is."""
    for name, value in outputs.items():
        path = os.path.join(outdir, name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if isinstance(value, dict):
            value = json.dumps(value, indent=2, sort_keys=True) + "\n"
        if isinstance(value, Landscape):
            save_landscape(value, path)
        elif isinstance(value, tuple):
            _write_csv(path, *value)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(value)


def _parse_topo(spec: str) -> Topology:
    if spec.startswith("custom:"):
        return load_adjacency(spec.split(":", 1)[1])
    return Topology.from_spec(spec)


def _markov_model(sigma_local, root_center=0.25, root_sigma=0.18):
    return lambda topo, seed: sample_markov_truncnorm(topo, sigma_local, root_center,
                                                      root_sigma, seed)


# spec table for --model (grammar: topology._parse_spec)
_MODELS = {"uniform": (lambda: sample_uniform,),
           "markov-tn": (_markov_model, float, float, float)}


def _load_landscape_arg(cfg, command: str) -> Landscape:
    if not cfg["landscape"]:
        raise ValueError(f"{command} requires --landscape")
    return load_landscape(cfg["landscape"], _parse_topo(cfg["topo"]) if cfg["topo"] else None)


def _eps_grid(cfg) -> np.ndarray:
    if cfg["eps_points"] < 2:
        raise ValueError("eps-points must be >= 2")
    with np.errstate(invalid="ignore"):  # an infinite eps-max gives nan: rejected below
        grid = np.linspace(0.0, cfg["eps_max"], cfg["eps_points"])
    return _eps_array(grid)


# -- commands -------------------------------------------------------------------
# Each receives the resolved configuration, one typed value per row of its
# flag table, and returns its outputs for ``_write_outputs``; none writes.


def cmd_gen(cfg) -> dict:
    if not cfg["topo"]:
        raise ValueError("gen requires --topo")
    topo = _parse_topo(cfg["topo"])
    sample = _parse_spec(cfg["model"], _MODELS, ValueError, "generator model")
    return {"landscape.csv": sample(topo, cfg["seed"])}


def cmd_search(cfg) -> dict:
    from .search import run_trials

    scape = _load_landscape_arg(cfg, "search")
    noise = NoiseSpec.parse(cfg["noise"])
    histories = run_trials(
        scape, noise, cfg["algo"], cfg["budget"], cfg["trials"], cfg["seed"],
        num_initial=cfg["num_initial"], restart=cfg["restart"], jobs=cfg["jobs"],
    )
    lengths = np.array([len(h) for h in histories])
    any_test = all(h.best_test is not None for h in histories)

    def joined(name):
        return np.concatenate([getattr(h, name) for h in histories])

    best_val = joined("best_val")
    best_test = joined("best_test") if any_test else None
    runs = (["trial", "query", "node", "val_loss", "best_val", "best_test"],
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
    return {"runs.csv": runs, "summary.json": summary}


def cmd_analyze(cfg) -> dict:
    from . import analysis

    scape = _load_landscape_arg(cfg, "analyze")
    noise = NoiseSpec.parse(cfg["noise"])
    eps = _eps_grid(cfg)
    if cfg["export_tree"] < 0:  # export_search_tree needs top_k >= 1; 0 means no export
        raise ValueError("export-tree must be >= 0")
    view = LandscapeView(scape, noise, seed=cfg["seed"])
    _, stats = analysis.basins(view, use_base_loss_for_global=cfg["global_from_base"])
    curve = analysis.within_epsilon_curve(view, eps)
    smap = analysis.successor_map(view)
    order = np.argsort(smap.values[stats.basin_minima], kind="stable")
    minima = stats.basin_minima[order]
    outputs = {
        "stats.csv": (["metric", "value"], [
            ("n", "num_local_minima", "avg_iterations", "pct_global_basin"),
            (scape.n, stats.num_local_minima, stats.avg_iterations,
             100.0 * stats.fraction_reaching_global_min)]),
        "within_eps.csv": (["epsilon", "fraction"], zip(*curve)),
        "basin_sizes.csv": (["min_id", "loss", "size"],
                            [minima, smap.values[minima], stats.basin_sizes[order]]),
    }
    if cfg["export_tree"] > 0:
        trees = analysis.export_search_tree(view, cfg["export_tree"])
        for rank, tree in enumerate(trees, start=1):
            outputs[f"trees/tree_{rank}.json"] = analysis.tree_to_json(tree) + "\n"
            outputs[f"trees/tree_{rank}.dot"] = analysis.tree_to_dot(tree)
    return outputs


def cmd_rwa(cfg) -> dict:
    from . import analysis

    scape = _load_landscape_arg(cfg, "rwa")
    noise = NoiseSpec.parse(cfg["noise"])
    view = LandscapeView(scape, noise, seed=cfg["seed"])
    rows = analysis.rwa(view, cfg["walk_len"], cfg["max_lag"], seed=cfg["seed"])
    return {"rwa.csv": (["lag", "sqrt_lag", "rho"], zip(*rows))}


def cmd_theory(cfg) -> dict:
    from . import theory

    pdf_n = theory.PdfSpec.parse(cfg["pdf_n"])
    pdf_e = theory.LocalPdfSpec.parse(cfg["pdf_e"])
    if cfg["topo"]:
        if cfg["n"] is not None or cfg["s"] is not None or cfg["b"] != [1.0]:  # [1.0]: --b default
            raise ValueError("theory --topo takes n, s and b from the topology; "
                             "--n, --s and --b apply only without it")
        params = theory.TheoryParams.from_topology(_parse_topo(cfg["topo"]),
                                                   ell_star=cfg["ell_star"])
    else:
        if cfg["n"] is None or cfg["s"] is None:
            raise ValueError("theory requires --topo or both --n and --s")
        params = theory.TheoryParams(n=cfg["n"], s=cfg["s"], b=cfg["b"],
                                     ell_star=cfg["ell_star"])
    eps = _eps_grid(cfg)
    if cfg["max_k"] < 1:
        raise ValueError("max-k must be >= 1")
    record = theory.ROUTES[cfg["closed_form"]](pdf_n, pdf_e, params, eps, cfg["max_k"],
                                               cfg["grid_points"])
    outputs = {f"theory_{name}.csv": table for name, table in record.items()}
    sigma, delta = cfg["noise_sigma"], cfg["delta"]
    if sigma is not None:
        bound = theory.chebyshev_minima_bound(pdf_n, pdf_e, params.s, sigma, params.n,
                                              delta, cfg["grid_points"])
        outputs["theory_chebyshev.csv"] = (["sigma", "delta", "bound"],
                                           [(sigma,), (delta,), (bound,)])
        if not np.isfinite(bound):
            print("chebyshev bound vacuous (inf)", file=sys.stderr)
    return outputs


def cmd_fit(cfg) -> dict:
    from . import theory

    if cfg["mode"] == "global":
        scape = _load_landscape_arg(cfg, "fit --mode global")
        fit = theory.fit_global_truncnorm(scape.val_loss)
        payload = {"mode": "global", "sigma": fit.sigma, "center": fit.center,
                   "objective": fit.objective}
    else:
        if not cfg["rwa"] or not cfg["topo"]:
            raise ValueError("fit --mode local-rwa requires --rwa and --topo")
        table = _read_csv(cfg["rwa"])
        rows = np.column_stack([table.column(j, float) for j in range(len(table.header))])
        topo = _parse_topo(cfg["topo"])
        fit = theory.fit_local_sigma_via_rwa(
            rows, topo, cfg["candidates"], seed=cfg["seed"], walk_len=cfg["walk_len"],
            root_center=cfg["root_center"], root_sigma=cfg["root_sigma"])
        payload = {"mode": "local-rwa", "sigma_local": fit.sigma,
                   "objective": fit.objective}
    return {"fit.json": payload}


def _read_curve(path, value_column):
    table = _read_csv(path)
    if table.header[0] != "epsilon" or value_column not in table.header:
        raise ValueError(f"{path}: expected columns epsilon,{value_column}")
    return table.column(0, float), table.column(table.header.index(value_column), float)


def cmd_compare(cfg) -> dict:
    if not cfg["sim"] or not cfg["theory"]:
        raise ValueError("compare requires --sim and --theory")
    eps_s, sim = _read_curve(cfg["sim"], "fraction")
    eps_t, the = _read_curve(cfg["theory"], "fraction_theory")
    if len(eps_s) != len(eps_t) or not np.allclose(eps_s, eps_t, atol=1e-12, rtol=0.0):
        bad = [f"row {i}: sim={a} theory={b}"
               for i, (a, b) in enumerate(zip_longest(eps_s, eps_t))
               if a is None or b is None or abs(a - b) > 1e-12]
        raise ValueError("epsilon grids do not match:\n  " + "\n  ".join(bad[:20]))
    gap = sim - the
    return {
        "compared.csv": (["epsilon", "fraction_sim", "fraction_theory", "gap"],
                         [eps_s, sim, the, gap]),
        "compare_summary.json": {
            "rows": len(eps_s), "max_abs_gap": float(np.max(np.abs(gap))) if len(gap) else 0.0},
    }


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
        Flag("algo", _ALGOS, "local", "search algorithm"),
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
        Flag("grid_points", int, DEFAULT_GRID_POINTS, "quadrature grid points"),
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
        manifest = {"tool": "hillscape", "version": __version__, "command": args.command,
                    "config": cfg}
        _write_outputs(cfg["out"], {"manifest.json": manifest,
                                    **COMMANDS[args.command].func(cfg)})
        return 0
    except (LandscapeError, TopologyError, ValueError, OSError, MemoryError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
