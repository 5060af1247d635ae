import concurrent.futures
import copy
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hillscape as hs

from hillscape import search
from hillscape.landscape import ViewBatch

from conftest import counter_draws, counter_node, cycle_topology, frozen_view, reference_trial


@pytest.fixture
def four_cycle_view():
    return frozen_view(cycle_topology(4), [0.1, 0.5, 0.2, 0.7])


class TestLocalSearchBasic:
    def test_hand_trace_four_cycle(self, four_cycle_view):
        cfg = hs.SearchConfig(budget=4)
        trace = hs.local_search(four_cycle_view, 1, cfg)
        assert trace.final == 0
        assert trace.iterations == 1
        assert trace.converged
        assert trace.path == [1, 0]
        assert 0 in four_cycle_view.observation_log()
        assert four_cycle_view.observe(0) == 0.1

    def test_single_node(self):
        view = frozen_view(hs.make_complete(1), [0.4])
        trace = hs.local_search(view, 0, hs.SearchConfig(budget=1))
        assert trace.converged
        assert trace.iterations == 0
        assert view.observation_log() == [0]
        assert view.observe(0) == 0.4

    def test_complete_converges_in_one_step(self):
        t = hs.make_complete(12)
        rng = np.random.default_rng(3)
        vals = rng.permutation(np.linspace(0.01, 0.99, 12))
        best = int(np.argmin(vals))
        for start in range(12):
            view = frozen_view(t, vals)
            trace = hs.local_search(view, start, hs.SearchConfig(budget=12))
            assert trace.final == best
            assert trace.iterations == (0 if start == best else 1)
            assert trace.converged

    def test_deterministic_given_seed(self, k56_uniform):
        cfg = hs.SearchConfig(budget=200)
        runs, visited = [], []
        for _ in range(2):
            view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.gaussian_frozen(0.05), seed=9)
            runs.append(hs.local_search(view, 77, cfg))
            visited.append([(v, view.observe(v)) for v in view.observation_log()])
        assert visited[0] == visited[1]
        assert runs[0].path == runs[1].path

    def test_tie_does_not_move(self):
        view = frozen_view(cycle_topology(4), [0.5, 0.5, 0.5, 0.5])
        trace = hs.local_search(view, 2, hs.SearchConfig(budget=4))
        assert trace.final == 2
        assert trace.iterations == 0
        assert trace.converged

    def test_budget_dies_mid_neighborhood(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=0)
        trace = hs.local_search(view, 0, hs.SearchConfig(budget=10))
        assert view.query_count == 10
        assert not trace.converged
        assert trace.path == [0]  # no partial move taken

    def test_start_out_of_range(self, four_cycle_view):
        with pytest.raises(ValueError):
            hs.local_search(four_cycle_view, 9, hs.SearchConfig(budget=4))

    @pytest.mark.parametrize("start", [2.5, float("nan"), True])
    def test_start_not_whole(self, start):
        view = hs.LandscapeView(hs.sample_uniform(hs.make_clique_power(3, 3), 1))
        with pytest.raises(ValueError, match="not a node id"):
            hs.local_search(view, start, hs.SearchConfig(budget=4))
        assert view.query_count == 0
        assert hs.local_search(view, 2.0, hs.SearchConfig(budget=4)).path[0] == 2


def _certificate(view, trace):
    """Every neighbor of the final node observes >= its loss."""
    t = view.landscape.topology
    final_val = view.observe(trace.final)
    return all(view.observe(int(u)) >= final_val for u in t.neighbors(trace.final))


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), start=st.integers(0, 26))
    def test_monotone_descent_and_certificate(self, seed, start):
        t = hs.make_clique_power(3, 3)
        scape = hs.sample_uniform(t, seed)
        view = hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=seed)
        trace = hs.local_search(view, start, hs.SearchConfig(budget=27))
        assert set(trace.path) <= set(view.observation_log())
        path_vals = [view.observe(v) for v in trace.path]
        assert all(a > b for a, b in zip(path_vals, path_vals[1:]))
        if trace.converged:
            assert _certificate(view, trace)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), start=st.integers(0, 26))
    def test_query_until_lower_certificate(self, seed, start):
        t = hs.make_clique_power(3, 3)
        scape = hs.sample_uniform(t, seed)
        view = hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=seed)
        cfg = hs.SearchConfig(budget=27, algo="local-qul")
        trace = hs.local_search(view, start, cfg)
        assert set(trace.path) <= set(view.observation_log())
        path_vals = [view.observe(v) for v in trace.path]
        assert all(a > b for a, b in zip(path_vals, path_vals[1:]))
        if trace.converged:
            assert _certificate(view, trace)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), budget=st.integers(1, 40))
    def test_budget_never_exceeded(self, seed, budget):
        t = hs.make_clique_power(3, 3)
        scape = hs.sample_uniform(t, seed)
        view = hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=seed)
        cfg = hs.SearchConfig(budget=budget, restart_on_convergence=True)
        hist = hs.run_budgeted(view, cfg, seed=seed)
        assert view.query_count <= budget
        assert len(hist) == min(budget, t.n)


class TestContinueAtMin:
    def test_keeps_going_until_budget(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=1)
        cfg = hs.SearchConfig(budget=300, algo="local-cam")
        trace = hs.local_search(view, 4242, cfg)
        assert view.query_count == 300
        assert not trace.converged

    def test_exhausts_small_graph(self):
        view = frozen_view(cycle_topology(6), [0.3, 0.9, 0.1, 0.8, 0.2, 0.7])
        cfg = hs.SearchConfig(budget=6, algo="local-cam")
        trace = hs.local_search(view, 1, cfg)
        # with the whole graph evaluated and expanded the run converges
        assert view.query_count == 6


class TestRandomSearch:
    def test_exhaustive_budget_finds_global(self):
        t = hs.make_clique_power(3, 2)
        scape = hs.sample_uniform(t, 5)
        view = hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=5)
        hist = hs.random_search(view, budget=t.n, seed=5)
        assert hist.best_val[-1] == scape.val_loss.min()

    def test_single_record(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=2)
        hist = hs.random_search(view, budget=1, seed=2)
        assert len(hist) == 1

    def test_order_statistic_mean(self):
        # best of b distinct uniforms has mean 1/(b+1)
        t = hs.make_complete(200)
        scape = hs.sample_uniform(t, 8)
        b = 9
        finals = []
        for trial in range(10_000):
            view = hs.LandscapeView(scape, hs.NoiseSpec.uniform_replace(),
                                    seed=hs.mix64(99, trial))
            finals.append(hs.random_search(view, budget=b, seed=trial).best_val[-1])
        finals = np.asarray(finals)
        expect = 1.0 / (b + 1)
        se = finals.std() / math.sqrt(len(finals))
        assert abs(finals.mean() - expect) < 3 * se

    @pytest.mark.parametrize("budget", [2.5, math.nan])
    def test_rejects_non_integral_budget(self, k56_uniform, budget):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=2)
        with pytest.raises(ValueError, match="whole number"):
            hs.random_search(view, budget=budget, seed=2)
        assert view.query_count == 0

    def test_budget_capped_with_warning(self):
        t = hs.make_complete(5)
        scape = hs.sample_uniform(t, 1)
        view = hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=1)
        with pytest.warns(UserWarning, match="capped"):
            hist = hs.random_search(view, budget=50, seed=1)
        assert len(hist) == 5

    def test_budget_capped_at_view_node_count(self):
        scape = hs.sample_uniform(hs.make_complete(10), 1)
        view = hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=1)
        with pytest.warns(UserWarning, match="exceeds node count 10"):
            hist = hs.random_search(view, budget=50, seed=1)
        assert view.query_count == 10
        assert sorted(hist.nodes.tolist()) == list(range(10))


def _random_picks_by_row(batch, budget, keys):
    """Reference for ``_random_rows``: each row's picks, one row and one
    candidate at a time with its own seen copy: the first unseen draws of
    the row's start key."""
    n = batch.landscape.n
    picks = []
    for r, key in enumerate(keys.tolist()):
        seen = batch.mark[r] != 0
        count, got = int(batch.count[r]), []
        for v in counter_draws(key, n):
            if count >= budget:
                break
            if not seen[v]:
                seen[v] = True
                got.append(v)
                count += 1
        picks.append(got)
    return picks


class TestRandomPicks:
    """All rows' random picks at once equal the per-row loop, row by row."""

    @pytest.mark.parametrize("pick_keys", [search._PICK_KEYS, 1], ids=["together", "alone"])
    @pytest.mark.parametrize("budget", [40, 80, 81])
    def test_rows_with_charged_prefixes(self, budget, pick_keys, monkeypatch):
        monkeypatch.setattr(search, "_PICK_KEYS", pick_keys)  # 1: one row per group
        scape = hs.sample_uniform(hs.make_clique_power(3, 4), 2)  # 81 nodes
        prefixes = [0, 1, 7, 30, budget - 1, budget]  # charged before the picks
        batch = ViewBatch(scape, hs.NoiseSpec.gaussian_fresh(0.05),
                          np.arange(len(prefixes), dtype=np.uint64), limit=budget)
        order = np.random.default_rng(4).permutation(scape.n)
        for r, size in enumerate(prefixes):
            batch.observe(np.array([r]), order[None, :size])
        before = batch.count.copy()
        keys = hs.mix64(np.arange(len(prefixes), dtype=np.uint64), search._START_STREAM)
        want = _random_picks_by_row(batch, budget, keys)
        rounds = _count_rounds(monkeypatch)
        search._random_rows(batch, budget, keys)
        assert batch.count.tolist() == [budget] * len(prefixes)
        for r, c in enumerate(batch.count.tolist()):
            logged = batch.log_ids[r, :c]
            assert logged[:before[r]].tolist() == order[:before[r]].tolist()
            assert logged[before[r]:].tolist() == want[r]
            assert np.unique(logged).size == c
        if budget > 40:
            assert max(rounds) >= 3

    def test_random_search_after_charges(self, monkeypatch):
        scape = hs.sample_uniform(hs.make_clique_power(3, 4), 2)
        view = hs.LandscapeView(scape, hs.NoiseSpec.gaussian_frozen(0.05), seed=5)
        view.observe_prefix([3, 9, 27, 80])
        keys = np.array([hs.mix64(11, search._START_STREAM)], dtype=np.uint64)
        want = _random_picks_by_row(copy.deepcopy(view._rows), 78, keys)
        rounds = _count_rounds(monkeypatch)
        hist = hs.random_search(view, 78, 11)
        assert hist.nodes.tolist() == [3, 9, 27, 80] + want[0]
        assert rounds == [rounds[0]] and rounds[0] >= 3

    def test_every_node(self, monkeypatch):
        # budget n: the last unseen nodes take many rounds to draw
        scape = hs.sample_uniform(hs.make_clique_power(3, 4), 2)
        view = hs.LandscapeView(scape, hs.NoiseSpec.gaussian_fresh(0.05), seed=5)
        keys = np.array([hs.mix64(12, search._START_STREAM)], dtype=np.uint64)
        want = _random_picks_by_row(copy.deepcopy(view._rows), scape.n, keys)
        rounds = _count_rounds(monkeypatch)
        hist = hs.random_search(view, scape.n, 12)
        assert hist.nodes.tolist() == want[0]
        assert sorted(want[0]) == list(range(scape.n))
        assert rounds == [rounds[0]] and rounds[0] >= 5
        fresh = hs.NoiseSpec.gaussian_fresh(0.05)
        assert hist.val_loss.tolist() == fresh.values(
            scape.val_loss, view._rows._keys, hist.nodes, np.arange(scape.n)).tolist()

    def test_rows_at_or_over_the_budget_keep_their_charges(self):
        scape = hs.sample_uniform(hs.make_clique_power(3, 4), 2)
        prefixes = [0, 40, 55, 20]  # charged before the picks, without a budget
        batch = ViewBatch(scape, hs.NoiseSpec.gaussian_fresh(0.05),
                          np.arange(len(prefixes), dtype=np.uint64))
        order = np.random.default_rng(4).permutation(scape.n)
        for r, size in enumerate(prefixes):
            batch.observe(np.array([r]), order[None, :size])
        full = copy.deepcopy(batch)
        keys = hs.mix64(np.arange(len(prefixes), dtype=np.uint64), search._START_STREAM)
        want = _random_picks_by_row(batch, 40, keys)
        search._random_rows(batch, 40, keys)
        assert batch.count.tolist() == [40, 40, 55, 40]
        for r in (1, 2):
            assert want[r] == []
            c = prefixes[r]
            assert np.array_equal(batch.mark[r], full.mark[r])
            assert np.array_equal(batch.log_ids[r, :c], full.log_ids[r, :c])
            assert np.array_equal(batch.log_vals[r, :c], full.log_vals[r, :c])
        for r in (0, 3):
            assert batch.log_ids[r, prefixes[r]:40].tolist() == want[r]


def _count_rounds(monkeypatch):
    """A list that gets, per ``_random_rows`` call, its number of rounds:
    one candidate hash per round, summed over its groups of rows."""
    rounds = []
    rows, nodes = search._random_rows, search._nodes

    def counted_rows(*args):
        rounds.append(0)
        return rows(*args)

    def counted_nodes(*args):
        rounds[-1] += 1
        return nodes(*args)

    monkeypatch.setattr(search, "_random_rows", counted_rows)
    monkeypatch.setattr(search, "_nodes", counted_nodes)
    return rounds


class TestRunBudgeted:
    def test_budget_one(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=3)
        hist = hs.run_budgeted(view, hs.SearchConfig(budget=1), seed=3)
        assert len(hist) == 1
        assert hist.best_val[0] == hist.val_loss[0]

    def test_all_budget_on_initials(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=3)
        cfg = hs.SearchConfig(budget=100, num_initial=100)
        hist = hs.run_budgeted(view, cfg, seed=3)
        assert len(hist) == 100
        assert (np.diff(hist.best_val) <= 0).all()

    def test_restarts_fill_budget(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=4)
        cfg = hs.SearchConfig(budget=300, restart_on_convergence=True)
        hist = hs.run_budgeted(view, cfg, seed=4)
        assert len(hist) == 300
        assert (np.diff(hist.best_val) <= 0).all()

    def test_no_restart_stops_at_convergence(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=4)
        cfg = hs.SearchConfig(budget=5000, restart_on_convergence=False)
        hist = hs.run_budgeted(view, cfg, seed=4)
        assert len(hist) < 5000

    def test_config_validation(self):
        with pytest.raises(ValueError):
            hs.SearchConfig(budget=0)
        with pytest.raises(ValueError):
            hs.SearchConfig(budget=5, num_initial=6)

    @pytest.mark.parametrize("algo", ["random", "", "local-qul+cam"])
    def test_config_rejects_unknown_algo(self, algo):
        with pytest.raises(ValueError, match="expected one of .*'local-cam'"):
            hs.SearchConfig(budget=10, algo=algo)

    @pytest.mark.parametrize("kw", [
        {"budget": 2.5}, {"budget": math.nan}, {"budget": math.inf},
        {"budget": 10, "num_initial": 1.5}, {"budget": 10, "num_initial": math.nan}])
    def test_config_rejects_non_integral_counts(self, kw):
        # budget=2.5 used to charge 3 nodes and budget=nan 7
        with pytest.raises(ValueError, match="whole number"):
            hs.SearchConfig(**kw)

    def test_integral_float_budget_accepted(self, k56_uniform):
        view = hs.LandscapeView(k56_uniform, hs.NoiseSpec.none(), seed=3)
        hist = hs.run_budgeted(view, hs.SearchConfig(budget=7.0), seed=3)
        assert len(hist) == 7


class TestRunHistory:
    def test_best_test_tracks_best_val_node(self):
        t = hs.make_complete(6)
        rng = np.random.default_rng(2)
        scape = hs.Landscape(t, rng.random(6), test_loss=rng.random(6))
        view = hs.LandscapeView(scape, hs.NoiseSpec.none(), seed=1)
        hist = hs.random_search(view, budget=6, seed=1)
        best_idx = np.argmin(scape.val_loss)
        assert hist.best_test[-1] == scape.test_loss[best_idx]
        # best-so-far test corresponds to the argmin-so-far val node
        running_best = np.inf
        for q in range(len(hist)):
            if hist.val_loss[q] < running_best:
                running_best = hist.val_loss[q]
                node = hist.nodes[q]
            assert hist.best_test[q] == scape.test_loss[node]


def _history_by_loop(view):
    """RunHistory.from_view as a per-node loop over the observation log."""
    order = view.observation_log()
    vals = np.asarray([view.observe(v) for v in order], dtype=float)
    best_val = np.minimum.accumulate(vals)
    test = view.landscape.test_loss
    best_test = None
    if test is not None and order:
        best_test = np.empty(len(order))
        best_node, best = order[0], vals[0]
        for i, v in enumerate(order):
            if vals[i] < best:
                best, best_node = vals[i], v
            best_test[i] = test[best_node]
    return np.asarray(order, dtype=np.int64), vals, best_val, best_test


class TestFromViewMatchesLoop:
    @pytest.mark.parametrize("noise", [hs.NoiseSpec.none(), hs.NoiseSpec.gaussian_frozen(0.05),
                                       hs.NoiseSpec.gaussian_fresh(0.05)],
                             ids=["none", "frozen", "fresh"])
    @pytest.mark.parametrize("tied", [False, True], ids=["distinct", "tied"])
    @pytest.mark.parametrize("with_test", [False, True], ids=["val", "val+test"])
    def test_equals_loop(self, noise, tied, with_test):
        t = hs.make_clique_power(4, 3)
        rng = np.random.default_rng(17)
        vals = rng.random(t.n)
        if tied:  # few distinct losses: the running best must not move on a tie
            vals = np.round(vals * 4) / 4
        scape = hs.Landscape(t, vals, test_loss=rng.random(t.n) if with_test else None)
        for seed in range(4):
            for run in ("local", "random"):
                view = hs.LandscapeView(scape, noise, seed=seed)
                if run == "local":
                    cfg = hs.SearchConfig(budget=40, num_initial=2, restart_on_convergence=True)
                    hist = hs.run_budgeted(view, cfg, seed=seed)
                else:
                    hist = hs.random_search(view, budget=40, seed=seed)
                nodes, val_loss, best_val, best_test = _history_by_loop(view)
                assert np.array_equal(hist.nodes, nodes)
                assert np.array_equal(hist.val_loss, val_loss)
                assert np.array_equal(hist.best_val, best_val)
                if with_test:
                    assert np.array_equal(hist.best_test, best_test)
                else:
                    assert hist.best_test is None

    def test_empty_view(self, k56_uniform):
        for noise in (hs.NoiseSpec.none(), hs.NoiseSpec.gaussian_fresh(0.1)):
            hist = hs.RunHistory.from_view(hs.LandscapeView(k56_uniform, noise))
            assert len(hist) == 0 and hist.best_val.size == 0 and hist.best_test is None


class TestRunTrials:
    def test_deterministic_and_independent_of_jobs(self):
        t = hs.make_clique_power(3, 3)
        scape = hs.sample_uniform(t, 6)
        kw = dict(noise=hs.NoiseSpec.gaussian_frozen(0.05), algo="local",
                  budget=20, trials=6, root_seed=11, restart=True)
        serial = hs.run_trials(scape, **kw, jobs=1)
        parallel = hs.run_trials(scape, **kw, jobs=2)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a.nodes, b.nodes)
            assert np.array_equal(a.val_loss, b.val_loss)

    def test_pool_forks_no_more_workers_than_chunks(self, k56_uniform, monkeypatch):
        # a fork pool starts all max_workers processes up front; the fake maps
        # serially and starts none
        workers = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                workers.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args):
                return map(fn, args)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(search, "_WORKER", {})
        none = hs.NoiseSpec.none()
        hists = hs.run_trials(k56_uniform, none, "local", 10, trials=2, root_seed=5, jobs=4)
        assert workers == [2]
        serial = hs.run_trials(k56_uniform, none, "local", 10, trials=2, root_seed=5)
        assert _history_bytes(hists) == _history_bytes(serial)

    def test_unknown_algo(self, k56_uniform):
        with pytest.raises(ValueError, match="algo"):
            hs.run_trials(k56_uniform, hs.NoiseSpec.none(), "tabu", 10, 2, 0)

    @pytest.mark.parametrize("trials,jobs,match", [
        (2, 0, "jobs must be >= 1"), (2, -2, "jobs must be >= 1"),
        (2, 2.5, "jobs must be a whole number"), (2.5, 1, "trials must be a whole number"),
        (0, 1, "trials must be >= 1")])
    def test_counts_checked(self, k56_uniform, trials, jobs, match):
        for algo in ("local", "random"):
            with pytest.raises(ValueError, match=match):
                hs.run_trials(k56_uniform, hs.NoiseSpec.none(), algo, 10, trials, 0, jobs=jobs)

    def test_whole_float_counts(self, k56_uniform):
        hists = hs.run_trials(k56_uniform, hs.NoiseSpec.none(), "local", 10, 2.0, 0, jobs=1.0)
        assert len(hists) == 2

    def test_all_variants_run(self):
        t = hs.make_clique_power(3, 2)
        scape = hs.sample_uniform(t, 1)
        for algo in ("local", "local-qul", "local-cam", "random"):
            hists = hs.run_trials(scape, hs.NoiseSpec.none(), algo, 9, 3, 42)
            assert len(hists) == 3
            for h in hists:
                assert (np.diff(h.best_val) <= 0).all()


@pytest.fixture(scope="module")
def grid_scapes():
    t = hs.make_clique_power(5, 4)
    rng = np.random.default_rng(5)
    return {
        "distinct": hs.Landscape(t, rng.random(t.n), test_loss=rng.random(t.n)),
        "tied": hs.Landscape(t, np.round(rng.random(t.n), 1), test_loss=rng.random(t.n)),
        "markov": hs.sample_markov_truncnorm(t, 0.35, 0.25, 0.18, seed=3),
    }


def _same(a, b):
    return a is b is None or (a is not None and b is not None and a.tobytes() == b.tobytes())


def _matches_reference(scape, noise, algo, budgets, trials, monkeypatch):
    """Assert that ``run_trials`` gives the histories and traces of the
    per-node loops in ``conftest`` for every restart x num_initial x budget."""
    traces = []
    climb = search._climb

    def traced(batch, cfg, draw, _=None):
        rows = [[] for _ in range(batch.seeds.size)]  # each row's runs
        climb(batch, cfg, draw, rows)
        traces.extend(tr for row in rows for tr in row)

    monkeypatch.setattr(search, "_climb", traced)
    for restart, num_initial, budget in itertools.product((True, False), (1, 3), budgets):
        traces.clear()
        root = 7 * budget + num_initial
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random search caps budgets above n
            hists = hs.run_trials(scape, noise, algo, budget, trials, root,
                                  num_initial=num_initial, restart=restart)
        ref_traces = []
        for trial, hist in enumerate(hists):
            ref, trial_traces = reference_trial(scape, noise, algo, budget,
                                                num_initial, restart, root, trial)
            ref_traces += trial_traces
            for name in ("nodes", "val_loss", "best_val", "best_test"):
                assert _same(getattr(hist, name), getattr(ref, name)), (
                    restart, num_initial, budget, trial, name)
        assert traces == ref_traces, (restart, num_initial, budget)
        if algo != "random":
            assert traces


_NOISES = pytest.mark.parametrize(
    "noise", [hs.NoiseSpec.none(), hs.NoiseSpec.gaussian_frozen(0.05),
              hs.NoiseSpec.gaussian_fresh(0.05)], ids=["none", "frozen", "fresh"])


class TestMatchesPerNodeReference:
    """The lock-step search gives the histories and traces of the per-node
    loops in ``conftest``, byte for byte: 3 landscapes x 4 algorithms x 3
    noise modes x restart x num_initial x 5 budgets."""

    @_NOISES
    @pytest.mark.parametrize("algo", ["local", "local-qul", "local-cam", "random"])
    @pytest.mark.parametrize("scape", ["distinct", "tied", "markov"])
    def test_run_trials(self, grid_scapes, scape, algo, noise, monkeypatch):
        scape = grid_scapes[scape]
        _matches_reference(scape, noise, algo, (3, 7, 150, scape.n, 700), 2, monkeypatch)


def _irregular_graph():
    """A connected custom graph of 40 nodes with degrees 2 to 6: a path with
    random chords."""
    rng = np.random.default_rng(12)
    edges = {(v, v + 1) for v in range(39)}
    for a, b in rng.integers(40, size=(30, 2)).tolist():
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return hs.load_adjacency("n 40\n" + "".join(f"{a} {b}\n" for a, b in sorted(edges)))


@pytest.fixture(scope="module")
def padded_scapes():
    out = {}
    for name, t in (("tree", hs.make_regular_tree(3, 4)), ("irregular", _irregular_graph())):
        markov = hs.sample_markov_truncnorm(t, 0.35, 0.25, 0.18, seed=8)
        test = np.random.default_rng(9).random(t.n)
        out[name] = hs.Landscape(t, markov.val_loss, test_loss=test)
    return out


class TestPaddedBlocksMatchReference:
    """The climbs on padded CSR neighbor blocks (neighborhoods of unequal
    size, as on trees and custom graphs) against the per-node loops."""

    def test_blocks_are_padded(self, padded_scapes):
        for scape in padded_scapes.values():
            t = scape.topology
            vs = np.arange(t.n)
            valid = t.neighbors_block(vs) != vs[:, None]
            assert not valid.all() and valid.any(axis=1).all()

    @_NOISES
    @pytest.mark.parametrize("algo", ["local", "local-qul", "local-cam"])
    @pytest.mark.parametrize("scape", ["tree", "irregular"])
    def test_run_trials(self, padded_scapes, scape, algo, noise, monkeypatch):
        scape = padded_scapes[scape]
        _matches_reference(scape, noise, algo, (3, 7, 40, scape.n), 3, monkeypatch)


@pytest.fixture(scope="module")
def k56_markov(k56):
    return hs.sample_markov_truncnorm(k56, 0.35, 0.25, 0.18, seed=23)


def _history_bytes(hists):
    return [b"".join(getattr(h, name).tobytes() for name in ("nodes", "val_loss", "best_val"))
            for h in hists]


class TestChunking:
    """A trial's history does not depend on the trials it runs beside."""

    @pytest.mark.parametrize("noise", [hs.NoiseSpec.gaussian_frozen(0.05),
                                       hs.NoiseSpec.gaussian_fresh(0.05)],
                             ids=["frozen", "fresh"])
    @pytest.mark.parametrize("algo", ["local", "local-qul", "local-cam", "random"])
    def test_alone_chunked_and_parallel(self, grid_scapes, algo, noise, monkeypatch):
        scape = grid_scapes["markov"]
        kw = dict(budget=20, trials=200, root_seed=17)
        assert search._chunk_rows(scape.n, 20) >= 200
        together = _history_bytes(hs.run_trials(scape, noise, algo, **kw))  # one chunk
        for jobs in (2, 3):
            assert _history_bytes(hs.run_trials(scape, noise, algo, **kw, jobs=jobs)) == together
        monkeypatch.setattr(search, "_CHUNK_BYTES", 1)  # one trial per chunk
        monkeypatch.setattr(search, "_MIN_ROWS", 1)
        assert _history_bytes(hs.run_trials(scape, noise, algo, **kw, jobs=1)) == together

    @pytest.mark.parametrize("noise", [hs.NoiseSpec.gaussian_frozen(0.05),
                                       hs.NoiseSpec.gaussian_fresh(0.05)],
                             ids=["frozen", "fresh"])
    @pytest.mark.parametrize("algo", ["local", "local-qul", "local-cam", "random"])
    def test_bench_shape_one_chunk_or_two(self, k56_markov, algo, noise, monkeypatch):
        # search-k56's 200 trials of budget 300 run as one chunk, and as the
        # two chunks of 100 that a 2 MiB cap gave, with the same histories
        assert search._chunk_rows(k56_markov.n, 300) >= 200
        kw = dict(budget=300, trials=200, root_seed=29)
        together = _history_bytes(hs.run_trials(k56_markov, noise, algo, **kw))
        monkeypatch.setattr(search, "_CHUNK_BYTES", 2 << 20)
        assert search._chunk_rows(k56_markov.n, 300) < 200
        assert _history_bytes(hs.run_trials(k56_markov, noise, algo, **kw)) == together

    @staticmethod
    def _state_bytes(scape, rows, limit):
        """Marks, logs and continue-at-min pools of a chunk of ``rows`` trials."""
        batch = ViewBatch(scape, hs.NoiseSpec.none(), np.arange(rows, dtype=np.uint64),
                          limit=limit)
        pool = rows * batch.limit  # one byte per log entry
        return batch.mark.nbytes + batch.log_ids.nbytes + batch.log_vals.nbytes + pool

    def test_chunk_state_is_capped(self):
        # the cap guards memory: search-k56's 200 trials run as one chunk
        # inside it, and on (K_5)^8 a chunk still takes _MIN_ROWS trials
        cap = search._CHUNK_BYTES
        assert cap <= 32 << 20
        k56, k58 = (hs.sample_uniform(hs.make_clique_power(5, d), 1) for d in (6, 8))
        rows = search._chunk_rows(k56.n, 300)
        assert rows >= 200
        assert self._state_bytes(k56, rows, 300) <= cap
        rows = search._chunk_rows(k58.n, 300)
        assert rows >= search._MIN_ROWS
        row = self._state_bytes(k58, 1, 300)
        assert self._state_bytes(k58, rows, 300) <= max(cap, search._MIN_ROWS * row)


class TestStepStructure:
    """``ViewBatch.observe`` calls of ``run_trials`` on a toy search-k56 op:
    (K_5)^4, 10 trials of budget 60, Gaussian noise 0.05.  The counts are
    pinned, so a change to the number of lock-step steps shows here apart
    from a change to what one step costs."""

    CALLS = {("local", "frozen"): 9, ("local", "fresh"): 9,
             ("local-qul", "frozen"): 22, ("local-qul", "fresh"): 26,
             ("local-cam", "frozen"): 8, ("local-cam", "fresh"): 7,
             # random search charges its picks with ViewBatch._charge, not observe
             ("random", "frozen"): 0, ("random", "fresh"): 0}

    @staticmethod
    def _observe_calls(monkeypatch, *args):
        calls = []
        observe = ViewBatch.observe

        def counted(self, *args, **kwargs):
            calls.append(len(args[0]))
            return observe(self, *args, **kwargs)

        monkeypatch.setattr(ViewBatch, "observe", counted)
        hs.run_trials(*args)
        return len(calls)

    @pytest.mark.parametrize("algo,noise", sorted(CALLS))
    def test_observe_calls_pinned(self, algo, noise, monkeypatch):
        scape = hs.sample_markov_truncnorm(hs.make_clique_power(5, 4), 0.35, 0.25, 0.18, seed=3)
        spec = {"frozen": hs.NoiseSpec.gaussian_frozen, "fresh": hs.NoiseSpec.gaussian_fresh}
        calls = self._observe_calls(monkeypatch, scape, spec[noise](0.05), algo, 60, 10, 11)
        assert calls == self.CALLS[algo, noise]

    def test_observe_calls_pinned_at_bench_shape(self, k56_markov, monkeypatch):
        # search-k56's 200 trials of budget 300 run as one chunk: one call
        # per lock-step step, not one per step of each chunk
        noise = hs.NoiseSpec.gaussian_frozen(0.05)
        assert self._observe_calls(monkeypatch, k56_markov, noise, "local", 300, 200, 31) == 34


class TestNodeDraws:
    """Starts and random-search candidates: draw j of a start key is node
    floor(u * n) of the hashed uniform u of (key, j)."""

    @pytest.mark.parametrize("n", [1, 7, 2, 2**20, 2**52, 3**19])
    def test_largest_uniform_maps_below_n(self, n, monkeypatch):
        top = (np.uint64(2**64 - 1) >> np.uint64(12)) * 2.0 ** -52 + 2.0 ** -53
        assert top == 1.0 - 2.0 ** -53  # the largest hashed uniform
        monkeypatch.setattr(search, "_hashed_uniform", lambda key, j: np.full(j.shape, top))
        assert search._nodes(np.zeros(2, dtype=np.uint64), np.arange(2), n).tolist() == [n - 1] * 2

    def test_equals_the_python_draw(self):
        keys = hs.mix64(np.arange(3, dtype=np.uint64), search._START_STREAM)
        for n in (1, 7, 81, 3**19):
            got = search._nodes(keys[:, None], np.arange(50)[None, :], n)
            want = [[counter_node(k, j, n) for j in range(50)] for k in keys.tolist()]
            assert got.tolist() == want

    def test_uniform_on_small_n(self):
        # chi-square with 6 degrees of freedom: 22.46 is its 0.999 quantile
        n, size = 7, 70_000
        counts = np.bincount(search._nodes(np.uint64(12345), np.arange(size), n), minlength=n)
        chi2 = float(((counts - size / n) ** 2 / (size / n)).sum())
        assert chi2 < 22.46, counts

    def test_starts_advance_each_rows_counter(self):
        keys = hs.mix64(np.arange(4, dtype=np.uint64), search._START_STREAM)
        starts = search._Starts(keys, 81)
        got = [starts(np.array([0, 1, 2, 3])), starts(np.array([2])), starts(np.array([0, 2]))]
        assert [g.tolist() for g in got] == [
            [counter_node(k, 0, 81) for k in keys.tolist()],
            [counter_node(keys[2], 1, 81)],
            [counter_node(keys[0], 1, 81), counter_node(keys[2], 2, 81)]]


def test_search_builds_no_generator(monkeypatch):
    """Search draws all its randomness from counters: no numpy generator."""
    scape = hs.sample_markov_truncnorm(hs.make_clique_power(3, 4), 0.35, 0.25, 0.18, seed=3)

    def no_generator(*args, **kwargs):
        raise AssertionError("search built a numpy generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    monkeypatch.setattr(np.random, "Generator", no_generator)
    for algo in ("local", "local-qul", "local-cam", "random"):
        hists = hs.run_trials(scape, hs.NoiseSpec.gaussian_fresh(0.05), algo, 30, 3, 5,
                              num_initial=2)
        assert [len(h) for h in hists] == [30] * 3
    cfg = hs.SearchConfig(30, num_initial=2, restart_on_convergence=True)
    assert len(hs.run_budgeted(hs.LandscapeView(scape, seed=1), cfg, 2)) == 30
    assert len(hs.random_search(hs.LandscapeView(scape, seed=1), 30, 2)) == 30
