import numpy as np
import pytest

import hillscape as hs


@pytest.fixture(scope="session")
def k56():
    return hs.make_clique_power(5, 6)


@pytest.fixture(scope="session")
def k56_uniform(k56):
    return hs.sample_uniform(k56, seed=7)


def brute_successor(t, values):
    """Independent argmin-neighbor oracle: explicit loops, no numpy tricks."""
    succ = []
    for v in range(t.n):
        best_id, best_val = v, values[v]
        for u in t.neighbors(v):
            u = int(u)
            if values[u] < best_val:
                best_id, best_val = u, values[u]
        succ.append(best_id if best_val < values[v] else v)
    return np.asarray(succ)


def cycle_topology(n=4):
    """n-cycle as a custom topology, written through the adjacency format."""
    lines = [f"n {n}"] + [f"{i} {(i + 1) % n}" for i in range(n)]
    return hs.load_adjacency("\n".join(lines) + "\n")


def custom_twin(t):
    """The same graph as ``t``, loaded as a custom topology through the
    adjacency format, so it takes the generic code paths."""
    lines = [f"n {t.n}"] + [f"{v} {u}" for v in range(t.n) for u in t.neighbors(v) if u > v]
    return hs.load_adjacency("\n".join(lines) + "\n")


def frozen_view(t, values, seed=0):
    scape = hs.Landscape(t, np.asarray(values, dtype=float))
    return hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=seed)
