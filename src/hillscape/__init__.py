"""Discrete loss landscapes on neighborhood graphs.

Generate landscapes over product-of-cliques, complete-graph, tree, and
custom topologies; run hill-climbing and its variants under configurable
observation noise; compute exhaustive landscape statistics (local minima,
basins, preimage trees, random-walk autocorrelation); and evaluate the
matching closed-form performance predictions so theory and simulation can
be compared side by side.

The public names below load on first use: ``import hillscape`` imports no
submodule, and ``hillscape.basins`` imports ``hillscape.analysis``.
"""

import importlib

__version__ = "0.1.0"

# Read by the modules that use them and by the CLI's flag table, which every
# command builds, so they live here rather than in ``search`` and ``theory``.
DEFAULT_GRID_POINTS = 2049  # quadrature grid points (an even interval count for Simpson)
_CLIMBS = ("local", "local-qul", "local-cam")  # SearchConfig.algo
_ALGOS = _CLIMBS + ("random",)  # run_trials and the CLI's --algo

# The one list of public names: each home module sets its ``__all__`` from
# its entry here, so a name added here is exported by both at once.
_HOMES = {
    "analysis": ("LandscapeStats", "SuccessorMap", "basins", "export_search_tree",
                 "find_local_minima", "preimage_sizes", "rwa", "successor_map",
                 "tree_to_dot", "tree_to_json", "within_epsilon_curve"),
    "landscape": ("Landscape", "LandscapeError", "LandscapeView", "NoiseSpec",
                  "load_landscape", "load_tabular", "sample_markov_truncnorm",
                  "sample_truncnorm", "sample_uniform", "save_landscape",
                  "truncnorm_pdf", "truncnorm_sf"),
    "search": ("RunHistory", "SearchConfig", "SearchTrace", "local_search",
               "random_search", "run_budgeted", "run_trials"),
    "seeding": ("mix64", "spawn_rng"),
    "theory": ("GlobalFit", "LocalPdfSpec", "PdfSpec", "RwaFit", "TheoryParams",
               "chebyshev_minima_bound", "clique_power_uniform_curve",
               "expected_minima_fraction", "fit_global_truncnorm",
               "fit_local_sigma_via_rwa", "full_preimage_bounds",
               "full_preimage_series", "independent_closed_form", "success_curve",
               "uniform_closed_form_curve", "uniform_closed_form_minima"),
    "topology": ("Topology", "TopologyError", "branching_fraction", "branching_fractions",
                 "load_adjacency", "make_clique_power", "make_complete",
                 "make_regular_tree", "shell_sizes"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["DEFAULT_GRID_POINTS", *_HOME]


def __getattr__(name):
    # Looked up in the home module on every access, never stored here: a
    # rebinding there (the benchmark's tracer wraps functions in place, then
    # puts them back) is seen through the package too.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
