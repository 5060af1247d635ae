"""Discrete loss landscapes on neighborhood graphs.

Generate landscapes over product-of-cliques, complete-graph, tree, and
custom topologies; run hill-climbing and its variants under configurable
observation noise; compute exhaustive landscape statistics (local minima,
basins, preimage trees, random-walk autocorrelation); and evaluate the
matching closed-form performance predictions so theory and simulation can
be compared side by side.
"""

from .analysis import (LandscapeStats, SuccessorMap, basins, export_search_tree,
                       find_local_minima, preimage_sizes, rwa, successor_map,
                       tree_to_dot, tree_to_json, within_epsilon_curve)
from .landscape import (Landscape, LandscapeError, LandscapeView, NoiseSpec,
                        load_landscape, load_tabular, sample_markov_truncnorm,
                        sample_truncnorm, sample_uniform, save_landscape,
                        truncnorm_pdf, truncnorm_sf)
from .search import (RunHistory, SearchConfig, SearchTrace, local_search,
                     random_search, run_budgeted, run_trials)
from .seeding import mix64, spawn_rng
from .theory import (DEFAULT_GRID_POINTS, GlobalFit, LocalPdfSpec, PdfSpec,
                     RwaFit, TheoryParams, chebyshev_minima_bound,
                     clique_power_uniform_curve,
                     expected_minima_fraction, fit_global_truncnorm,
                     fit_local_sigma_via_rwa, full_preimage_bounds,
                     full_preimage_series, independent_closed_form,
                     success_curve,
                     uniform_closed_form_curve, uniform_closed_form_minima)
from .topology import (Topology, TopologyError, branching_fraction,
                       branching_fractions, load_adjacency, make_clique_power,
                       make_complete, make_regular_tree, shell_sizes)

__version__ = "0.1.0"
