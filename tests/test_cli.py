import ast
import filecmp
import hashlib
import json
import os
import shlex
import subprocess
import sys
import warnings
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest

import hillscape as hs
from hillscape import cli

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args, cwd=None, env=None):
    return subprocess.run([sys.executable, "-m", "hillscape", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


@pytest.fixture(scope="module")
def small_landscape(tmp_path_factory):
    """A generated clique-power:5,3 uniform landscape (125 nodes)."""
    out = tmp_path_factory.mktemp("gen")
    res = run_cli("gen", "--topo", "clique-power:5,3", "--model", "uniform",
                  "--seed", "7", "--out", str(out))
    assert res.returncode == 0, res.stderr
    return out / "landscape.csv"


class TestGen:
    def test_uniform_row_count(self, small_landscape):
        header, rows = read_csv(small_landscape)
        assert header == ["id", "val_loss"]
        assert len(rows) == 125

    def test_meta_sidecar(self, small_landscape):
        meta = json.loads((small_landscape.parent / "landscape.meta.json").read_text())
        assert meta["topology"] == "clique-power:5,3"
        assert meta["meta"]["generator"] == "uniform"

    def test_markov_model(self, tmp_path):
        res = run_cli("gen", "--topo", "clique-power:3,3",
                      "--model", "markov-tn:0.35", "--seed", "3",
                      "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        _, rows = read_csv(tmp_path / "landscape.csv")
        assert len(rows) == 27

    def test_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            res = run_cli("gen", "--topo", "complete:40", "--model", "uniform",
                          "--seed", "5", "--out", str(tmp_path / sub))
            assert res.returncode == 0
        # manifests differ only in the recorded --out path; primary outputs
        # must be byte-identical
        for name in ("landscape.csv", "landscape.meta.json"):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name,
                               shallow=False)

    def test_bad_topo_exits_3(self, tmp_path):
        res = run_cli("gen", "--topo", "torus:4", "--out", str(tmp_path))
        assert res.returncode == 3
        assert not (tmp_path / "landscape.csv").exists()


class TestSearch:
    def test_runs_and_summary(self, small_landscape, tmp_path):
        res = run_cli("search", "--landscape", str(small_landscape),
                      "--algo", "local", "--budget", "30", "--trials", "4",
                      "--seed", "1", "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        header, rows = read_csv(tmp_path / "runs.csv")
        assert header == ["trial", "query", "node", "val_loss", "best_val", "best_test"]
        assert len(rows) == 4 * 30
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["queries"] == 30
        # self-consistency: summary equals recomputation from the CSV
        by_query = {}
        for r in rows:
            by_query.setdefault(int(r[1]), []).append(float(r[4]))
        for q in range(30):
            assert summary["mean_best_val"][q] == pytest.approx(
                np.mean(by_query[q + 1]), rel=1e-12)
        assert (np.diff(summary["mean_best_val"]) <= 1e-15).all()

    def test_each_algo(self, small_landscape, tmp_path):
        for algo in ("local", "local-qul", "local-cam", "random"):
            res = run_cli("search", "--landscape", str(small_landscape),
                          "--algo", algo, "--budget", "10", "--trials", "2",
                          "--seed", "2", "--out", str(tmp_path / algo))
            assert res.returncode == 0, res.stderr

    def test_trials_one_budget_one(self, small_landscape, tmp_path):
        res = run_cli("search", "--landscape", str(small_landscape),
                      "--algo", "random", "--budget", "1", "--trials", "1",
                      "--out", str(tmp_path))
        assert res.returncode == 0
        _, rows = read_csv(tmp_path / "runs.csv")
        assert len(rows) == 1

    def test_unknown_algo_usage_error(self, small_landscape, tmp_path):
        res = run_cli("search", "--landscape", str(small_landscape),
                      "--algo", "tabu", "--out", str(tmp_path))
        assert res.returncode == 2

    def test_budget_violation_exits_3(self, small_landscape, tmp_path):
        res = run_cli("search", "--landscape", str(small_landscape),
                      "--algo", "local", "--budget", "2", "--num-initial", "5",
                      "--out", str(tmp_path))
        assert res.returncode == 3
        assert not (tmp_path / "runs.csv").exists()

    def test_jobs_deterministic(self, small_landscape, tmp_path):
        for jobs, sub in (("1", "a"), ("2", "b")):
            res = run_cli("search", "--landscape", str(small_landscape),
                          "--algo", "local", "--budget", "25", "--trials", "6",
                          "--seed", "9", "--jobs", jobs, "--out", str(tmp_path / sub))
            assert res.returncode == 0, res.stderr
        assert filecmp.cmp(tmp_path / "a" / "runs.csv", tmp_path / "b" / "runs.csv",
                           shallow=False)

    def test_config_file_precedence(self, small_landscape, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": 5, "trials": 2, "algo": "random",
                                   "landscape": str(small_landscape)}))
        res = run_cli("search", "--config", str(cfg), "--budget", "7",
                      "--out", str(tmp_path / "o"))
        assert res.returncode == 0, res.stderr
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["budget"] == 7   # flag beats config
        assert manifest["config"]["trials"] == 2   # config beats default
        _, rows = read_csv(tmp_path / "o" / "runs.csv")
        assert len(rows) == 2 * 7

    def test_unknown_config_key(self, small_landscape, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        res = run_cli("search", "--landscape", str(small_landscape),
                      "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert res.returncode == 3


class TestAnalyze:
    def test_outputs(self, small_landscape, tmp_path):
        res = run_cli("analyze", "--landscape", str(small_landscape),
                      "--export-tree", "3", "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        header, rows = read_csv(tmp_path / "stats.csv")
        stats = {r[0]: float(r[1]) for r in rows}
        assert stats["n"] == 125
        assert stats["num_local_minima"] >= 1
        assert 0 < stats["pct_global_basin"] <= 100
        _, eps_rows = read_csv(tmp_path / "within_eps.csv")
        assert len(eps_rows) == 101
        _, basin_rows = read_csv(tmp_path / "basin_sizes.csv")
        assert sum(int(r[2]) for r in basin_rows) == 125
        trees = sorted((tmp_path / "trees").glob("tree_*.json"))
        assert len(trees) == 3
        assert len(sorted((tmp_path / "trees").glob("tree_*.dot"))) == 3

    def test_uniform_replace_mode(self, tmp_path):
        # uniform-replace on any landscape behaves like the uniform model
        out = tmp_path / "g"
        run_cli("gen", "--topo", "clique-power:5,3", "--model", "markov-tn:0.2",
                "--seed", "3", "--out", str(out))
        res = run_cli("analyze", "--landscape", str(out / "landscape.csv"),
                      "--noise", "uniform-replace", "--seed", "11",
                      "--out", str(tmp_path / "a"))
        assert res.returncode == 0, res.stderr
        _, rows = read_csv(tmp_path / "a" / "stats.csv")
        stats = {r[0]: float(r[1]) for r in rows}
        # expected count n/(s+1) = 125/13 ~ 9.6; any single draw lands nearby
        assert 2 <= stats["num_local_minima"] <= 25

    def test_fresh_noise_rejected(self, small_landscape, tmp_path):
        res = run_cli("analyze", "--landscape", str(small_landscape),
                      "--noise", "gaussian-fresh:0.1", "--out", str(tmp_path))
        assert res.returncode == 3
        assert not (tmp_path / "stats.csv").exists()

    def test_bare_tabular_csv_with_explicit_topo(self, tmp_path):
        # real benchmark exports arrive without a sidecar; --topo supplies
        # the graph (the same path exercised by the gated table test)
        t = hs.make_clique_power(3, 2)
        rng = np.random.default_rng(0)
        rows = ["id,val_loss,test_loss"] + [
            f"{i},{rng.random()!r},{rng.random()!r}" for i in range(t.n)]
        csv = tmp_path / "bare.csv"
        csv.write_text("\n".join(rows) + "\n")
        res = run_cli("analyze", "--landscape", str(csv),
                      "--topo", "clique-power:3,2", "--out", str(tmp_path / "o"))
        assert res.returncode == 0, res.stderr
        _, stat_rows = read_csv(tmp_path / "o" / "stats.csv")
        stats = {r[0]: float(r[1]) for r in stat_rows}
        assert stats["n"] == 9
        # without --topo the sidecar is required
        res = run_cli("analyze", "--landscape", str(csv),
                      "--out", str(tmp_path / "o2"))
        assert res.returncode == 3


class TestRwaCommand:
    def test_rows_and_first_line(self, small_landscape, tmp_path):
        res = run_cli("rwa", "--landscape", str(small_landscape),
                      "--walk-len", "4000", "--max-lag", "12",
                      "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        header, rows = read_csv(tmp_path / "rwa.csv")
        assert header == ["lag", "sqrt_lag", "rho"]
        assert len(rows) == 13
        assert rows[0] == ["0", "0.0", "1.0"]

    def test_default_walk_len_in_manifest(self, small_landscape, tmp_path):
        res = run_cli("rwa", "--landscape", str(small_landscape),
                      "--max-lag", "3", "--out", str(tmp_path))
        assert res.returncode == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["walk_len"] == 100_000


class TestTheoryCommand:
    def test_uniform_closed_form(self, tmp_path):
        res = run_cli("theory", "--pdf-n", "uniform", "--pdf-e", "uniform",
                      "--topo", "clique-power:5,6", "--closed-form", "uniform",
                      "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        _, rows = read_csv(tmp_path / "theory_summary.csv")
        metrics = {r[0]: float(r[1]) for r in rows}
        assert metrics["expected_minima_count"] == pytest.approx(625.0)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["max_k"] == 5
        _, curve = read_csv(tmp_path / "theory_curve.csv")
        fr = [float(r[1]) for r in curve]
        assert (np.diff(fr) >= 0).all()
        assert (tmp_path / "theory_bounds.csv").exists()
        _, pre = read_csv(tmp_path / "theory_preimages.csv")
        assert len(pre) == 101 * 5

    def test_quadrature_path_with_chebyshev(self, tmp_path):
        res = run_cli("theory", "--pdf-n", "truncnorm:0.25,0.18",
                      "--pdf-e", "truncnorm-local:0.35",
                      "--topo", "clique-power:5,6",
                      "--noise-sigma", "0.05", "--grid-points", "513",
                      "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        _, rows = read_csv(tmp_path / "theory_chebyshev.csv")
        assert float(rows[0][0]) == 0.05
        assert not (tmp_path / "theory_bounds.csv").exists()

    def test_n_s_flags(self, tmp_path):
        res = run_cli("theory", "--pdf-n", "uniform", "--pdf-e", "uniform",
                      "--n", "25", "--s", "24", "--closed-form", "uniform",
                      "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        _, rows = read_csv(tmp_path / "theory_summary.csv")
        metrics = {r[0]: float(r[1]) for r in rows}
        assert metrics["expected_minima_count"] == pytest.approx(1.0)

    def test_eps_max_above_one_clipped(self, tmp_path):
        res = run_cli("theory", "--pdf-n", "uniform", "--pdf-e", "uniform",
                      "--n", "25", "--s", "24", "--closed-form", "uniform",
                      "--eps-max", "2", "--eps-points", "3", "--out", str(tmp_path))
        assert res.returncode == 0, res.stderr
        _, rows = read_csv(tmp_path / "theory_curve.csv")
        at_one = hs.uniform_closed_form_curve(25, 24, [1.0], [1.0])[0][1]
        assert [float(r[1]) for r in rows[1:]] == [at_one, at_one]

    @pytest.mark.parametrize("flags", [
        ("--pdf-e", "uniform", "--closed-form", "uniform"),
        ("--pdf-e", "truncnorm-local:0.35", "--grid-points", "33"),
    ])
    def test_nan_eps_max_exits_3(self, tmp_path, flags):
        res = run_cli("theory", "--pdf-n", "uniform", *flags,
                      "--topo", "clique-power:3,2", "--eps-max", "nan",
                      "--out", str(tmp_path))
        assert res.returncode == 3
        assert "eps grid" in res.stderr
        assert not (tmp_path / "theory_curve.csv").exists()

    def test_missing_params(self, tmp_path):
        res = run_cli("theory", "--pdf-n", "uniform", "--pdf-e", "uniform",
                      "--out", str(tmp_path))
        assert res.returncode == 3


class TestFitCommand:
    def test_global_fit(self, tmp_path):
        t = hs.make_complete(2000)
        rng = np.random.default_rng(1)
        losses = hs.sample_truncnorm(0.25, 0.22, rng, size=2000)
        hs.save_landscape(hs.Landscape(t, losses), str(tmp_path / "l.csv"))
        res = run_cli("fit", "--mode", "global", "--landscape",
                      str(tmp_path / "l.csv"), "--out", str(tmp_path / "o"))
        assert res.returncode == 0, res.stderr
        fit = json.loads((tmp_path / "o" / "fit.json").read_text())
        assert abs(fit["sigma"] - 0.22) <= 0.03
        assert fit["objective"] >= 0

    def test_insufficient_data(self, tmp_path):
        t = hs.make_complete(10)
        hs.save_landscape(hs.Landscape(t, np.linspace(0.1, 0.9, 10)),
                          str(tmp_path / "l.csv"))
        res = run_cli("fit", "--mode", "global", "--landscape",
                      str(tmp_path / "l.csv"), "--out", str(tmp_path / "o"))
        assert res.returncode == 3
        assert "insufficient data" in res.stderr

    def test_rwa_fit_round_trip_small(self, tmp_path):
        gen = tmp_path / "gen"
        run_cli("gen", "--topo", "clique-power:4,4", "--model", "markov-tn:0.2",
                "--seed", "5", "--out", str(gen))
        run_cli("rwa", "--landscape", str(gen / "landscape.csv"),
                "--walk-len", "30000", "--max-lag", "12", "--seed", "3",
                "--out", str(tmp_path / "r"))
        res = run_cli("fit", "--mode", "local-rwa",
                      "--rwa", str(tmp_path / "r" / "rwa.csv"),
                      "--topo", "clique-power:4,4",
                      "--candidates", "0.2,0.6", "--walk-len", "30000",
                      "--seed", "8", "--out", str(tmp_path / "o"))
        assert res.returncode == 0, res.stderr
        fit = json.loads((tmp_path / "o" / "fit.json").read_text())
        assert fit["sigma_local"] == 0.2


class TestCompare:
    def test_identical_inputs_zero_gap(self, small_landscape, tmp_path):
        run_cli("analyze", "--landscape", str(small_landscape),
                "--out", str(tmp_path / "a"))
        sim = tmp_path / "a" / "within_eps.csv"
        theory_csv = tmp_path / "t.csv"
        text = sim.read_text().replace("fraction", "fraction_theory")
        theory_csv.write_text(text)
        res = run_cli("compare", "--sim", str(sim), "--theory", str(theory_csv),
                      "--out", str(tmp_path / "c"))
        assert res.returncode == 0, res.stderr
        summary = json.loads((tmp_path / "c" / "compare_summary.json").read_text())
        assert summary["max_abs_gap"] == 0.0

    def test_pipeline_analyze_theory_compare(self, small_landscape, tmp_path):
        run_cli("analyze", "--landscape", str(small_landscape),
                "--out", str(tmp_path / "a"))
        run_cli("theory", "--pdf-n", "uniform", "--pdf-e", "uniform",
                "--topo", "clique-power:5,3", "--closed-form", "uniform",
                "--out", str(tmp_path / "t"))
        res = run_cli("compare", "--sim", str(tmp_path / "a" / "within_eps.csv"),
                      "--theory", str(tmp_path / "t" / "theory_curve.csv"),
                      "--out", str(tmp_path / "c"))
        assert res.returncode == 0, res.stderr
        header, rows = read_csv(tmp_path / "c" / "compared.csv")
        assert header == ["epsilon", "fraction_sim", "fraction_theory", "gap"]
        assert len(rows) == 101

    def test_grid_mismatch_exits_3_no_output(self, small_landscape, tmp_path):
        run_cli("analyze", "--landscape", str(small_landscape),
                "--out", str(tmp_path / "a"))
        sim = tmp_path / "a" / "within_eps.csv"
        bad = tmp_path / "bad.csv"
        bad.write_text("epsilon,fraction_theory\n0.05,0.5\n")
        res = run_cli("compare", "--sim", str(sim), "--theory", str(bad),
                      "--out", str(tmp_path / "c"))
        assert res.returncode == 3
        assert "do not match" in res.stderr
        assert not (tmp_path / "c" / "compared.csv").exists()


def _imports(*args, cwd=None):
    """Names of the modules that a fresh interpreter imports, by -X importtime."""
    res = subprocess.run([sys.executable, "-X", "importtime", *args],
                         capture_output=True, text=True, cwd=cwd)
    assert res.returncode == 0, res.stderr
    names = [line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()
             if line.startswith("import time:")]
    assert "hillscape" in names
    return names


def _scipy_imports(*args, cwd=None):
    """Modules named scipy or scipy.* that a fresh interpreter imports."""
    return [n for n in _imports(*args, cwd=cwd) if n == "scipy" or n.startswith("scipy.")]


@pytest.fixture(scope="module")
def markov_inputs(tmp_path_factory):
    """A markov-tn clique-power:5,3 landscape (``gen/``) and its RWA curve (``rwa/``)."""
    root = tmp_path_factory.mktemp("markov")
    res = run_cli("gen", "--topo", "clique-power:5,3", "--model", "markov-tn:0.35",
                  "--seed", "3", "--out", str(root / "gen"))
    assert res.returncode == 0, res.stderr
    res = run_cli("rwa", "--landscape", str(root / "gen" / "landscape.csv"),
                  "--walk-len", "2000", "--max-lag", "5", "--seed", "1",
                  "--out", str(root / "rwa"))
    assert res.returncode == 0, res.stderr
    return root


def _truncnorm_commands(root):
    """The commands that evaluate truncated-normal CDFs, by name, without --out."""
    return {
        "gen-markov": ["gen", "--topo", "clique-power:4,3", "--model", "markov-tn:0.35"],
        "fit-global": ["fit", "--mode", "global",
                       "--landscape", str(root / "gen" / "landscape.csv")],
        "fit-local-rwa": ["fit", "--mode", "local-rwa", "--rwa", str(root / "rwa" / "rwa.csv"),
                          "--topo", "clique-power:5,3", "--candidates", "0.2,0.5",
                          "--walk-len", "2000"],
        "theory-truncnorm-local": ["theory", "--topo", "clique-power:5,3",
                                   "--pdf-n", "truncnorm:0.25,0.18",
                                   "--pdf-e", "truncnorm-local:0.35", "--grid-points", "129"],
    }


class TestImportFloor:
    def test_package_import_loads_no_scipy(self):
        assert _scipy_imports("-c", "import hillscape") == []

    def test_compare_loads_no_scipy(self, tmp_path):
        sim = tmp_path / "sim.csv"
        sim.write_text("epsilon,fraction\n0.0,0.0\n0.1,0.5\n")
        theo = tmp_path / "theory.csv"
        theo.write_text("epsilon,fraction_theory\n0.0,0.0\n0.1,0.4\n")
        assert _scipy_imports("-m", "hillscape", "compare", "--sim", str(sim),
                              "--theory", str(theo), "--out", str(tmp_path / "c")) == []
        assert (tmp_path / "c" / "compared.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["analyze"], ["search", "--budget", "40", "--trials", "5"],
        ["rwa", "--walk-len", "2000", "--max-lag", "5"],
    ], ids=["analyze", "search", "rwa"])
    def test_landscape_commands_load_no_scipy(self, small_landscape, tmp_path, argv):
        assert _scipy_imports("-m", "hillscape", *argv, "--landscape", str(small_landscape),
                              "--out", str(tmp_path / "o")) == []

    @pytest.mark.parametrize("argv", [
        ["gen", "--topo", "clique-power:5,3", "--model", "uniform"],
        ["theory", "--topo", "clique-power:5,3", "--closed-form", "uniform"],
        ["theory", "--topo", "clique-power:5,3", "--grid-points", "129"],
    ], ids=["gen-uniform", "theory-closed-form", "theory-quadrature"])
    def test_uniform_commands_load_no_scipy(self, tmp_path, argv):
        assert _scipy_imports("-m", "hillscape", *argv, "--out", str(tmp_path / "o")) == []

    @pytest.mark.parametrize("name", ["gen-markov", "fit-global", "fit-local-rwa",
                                      "theory-truncnorm-local"])
    def test_truncnorm_commands_load_no_scipy(self, markov_inputs, tmp_path, name):
        argv = _truncnorm_commands(markov_inputs)[name]
        assert _scipy_imports("-m", "hillscape", *argv, "--out", str(tmp_path / "o")) == []

    def test_truncnorm_commands_run_with_scipy_blocked(self, markov_inputs, tmp_path):
        # with sys.modules["scipy"] = None any import of scipy raises ImportError
        code = ("import sys; sys.modules['scipy'] = None; "
                "from hillscape.cli import main; sys.exit(main(sys.argv[1:]))")
        for name, argv in _truncnorm_commands(markov_inputs).items():
            res = subprocess.run([sys.executable, "-c", code, *argv,
                                  "--out", str(tmp_path / name)], capture_output=True, text=True)
            assert res.returncode == 0, (name, res.stderr)

    # the hillscape modules each command loads beyond the package, cli and the
    # three that every command reads (landscape, seeding, topology)
    @pytest.mark.parametrize("name,extra", [
        ("version", ()), ("gen", ()), ("compare", ()), ("search", ("search",)),
        ("analyze", ("analysis",)), ("rwa", ("analysis",)), ("theory", ("theory",)),
        ("fit", ("theory", "analysis")),
    ])
    def test_command_loads_only_its_modules(self, small_landscape, markov_inputs,
                                            tmp_path, name, extra):
        sim, theo = tmp_path / "sim.csv", tmp_path / "theory.csv"
        sim.write_text("epsilon,fraction\n0.0,0.0\n0.1,0.5\n")
        theo.write_text("epsilon,fraction_theory\n0.0,0.0\n0.1,0.4\n")
        landscape = ["--landscape", str(small_landscape)]
        argv = {
            "version": ["--version"],
            "gen": ["gen", "--topo", "clique-power:5,3"],
            "compare": ["compare", "--sim", str(sim), "--theory", str(theo)],
            "search": ["search", *landscape, "--budget", "40", "--trials", "5"],
            "analyze": ["analyze", *landscape],
            "rwa": ["rwa", *landscape, "--walk-len", "2000", "--max-lag", "5"],
            "theory": ["theory", "--topo", "clique-power:5,3", "--grid-points", "129",
                       "--noise-sigma", "0.05"],
            "fit": _truncnorm_commands(markov_inputs)["fit-local-rwa"],
        }[name]
        out = [] if name == "version" else ["--out", str(tmp_path / "o")]
        loaded = {n for n in _imports("-m", "hillscape", *argv, *out)
                  if n.startswith("hillscape")}
        expected = {"hillscape", "hillscape.cli", "hillscape.landscape", "hillscape.seeding",
                    "hillscape.topology", *(f"hillscape.{m}" for m in extra)}
        assert loaded == expected

    def test_package_import_loads_no_submodule_and_no_numpy(self):
        names = _imports("-c", "import hillscape")
        assert [n for n in names if n.startswith("hillscape")] == ["hillscape"]
        assert "numpy" not in names

    def test_no_module_imports_scipy(self):
        paths = sorted((REPO / "src" / "hillscape").rglob("*.py"))
        assert paths
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not [n for n in names if n == "scipy" or n.startswith("scipy.")], \
                    f"{path.name}:{node.lineno} imports scipy"


def test_version_flag():
    res = run_cli("--version")
    assert res.returncode == 0
    assert "hillscape" in res.stdout


def test_no_command_usage_error():
    res = run_cli()
    assert res.returncode == 2


# -- flag tables ------------------------------------------------------------------


def _doc_commands(path, start_marker=None):
    """Argument lists of the ``hillscape ...`` lines of a shell text.

    With ``start_marker``, only the first ```bash block after that line
    counts.  Continuation lines are joined and ``#`` comments dropped.
    """
    text = (REPO / path).read_text()
    if start_marker is not None:
        text = text.split(start_marker, 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        tokens = shlex.split(line, comments=True)
        if tokens[:1] == ["hillscape"]:
            commands.append(tokens[1:])
    return commands


@pytest.mark.parametrize("path,marker,count", [
    ("README.md", "## Command-line interface", 10),
    ("demos/cli_pipeline.sh", None, 9),
])
def test_documented_commands_parse(path, marker, count):
    commands = _doc_commands(path, marker)
    assert len(commands) == count
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)  # a removed or misspelled flag exits 2 here


def run_main(capsys, *argv):
    """``cli.main`` in process: (exit code, stderr)."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_seed_outside_u64_exits_3(small_landscape, tmp_path, capsys, seed):
    # search used to run --seed -1 as seed 2**64 - 1 and 2**64 as seed 0
    for argv in (["gen", "--topo", "clique-power:3,2"],
                 ["search", "--landscape", str(small_landscape), "--trials", "2"]):
        code, err = run_main(capsys, *argv, "--seed", seed, "--out", str(tmp_path / argv[0]))
        assert code == 3 and "must be in [0, 2**64)" in err
        assert not (tmp_path / argv[0]).exists()


def test_unallocatable_landscape_exits_3(tmp_path, capsys):
    # 2^59 float64 values (4 EiB) exceed any 64-bit address space, so the
    # allocation fails at once; it used to exit 1 with a numpy traceback
    code, err = run_main(capsys, "gen", "--topo", "clique-power:2,59",
                         "--out", str(tmp_path / "o"))
    assert code == 3
    assert "error: Unable to allocate" in err
    assert not (tmp_path / "o").exists()


def test_manifest_config_keys_are_the_table_rows(tmp_path, capsys):
    o = str(tmp_path)
    scape = f"{o}/gen/landscape.csv"
    runs = {
        "gen": ["--topo", "clique-power:3,4", "--model", "markov-tn:0.3", "--seed", "2"],
        "search": ["--landscape", scape, "--budget", "6", "--trials", "2"],
        "analyze": ["--landscape", scape, "--eps-points", "5"],
        "rwa": ["--landscape", scape, "--walk-len", "300", "--max-lag", "3"],
        "theory": ["--n", "81", "--s", "8", "--closed-form", "uniform", "--eps-points", "5"],
        "fit": ["--mode", "local-rwa", "--rwa", f"{o}/rwa/rwa.csv", "--topo",
                "clique-power:3,4", "--candidates", "0.3", "--walk-len", "300"],
        "compare": ["--sim", f"{o}/analyze/within_eps.csv",
                    "--theory", f"{o}/theory/theory_curve.csv"],
    }
    assert list(runs) == list(cli.COMMANDS)
    for name, argv in runs.items():
        code, err = run_main(capsys, name, *argv, "--out", f"{o}/{name}")
        assert code == 0, err
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert list(manifest["config"]) == sorted(f.name for f in cli.COMMANDS[name].flags)
        assert manifest["command"] == name


def test_flags_live_only_where_they_are_read():
    with_seed = {name for name, c in cli.COMMANDS.items()
                 if "seed" in (f.name for f in c.flags)}
    with_jobs = {name for name, c in cli.COMMANDS.items()
                 if "jobs" in (f.name for f in c.flags)}
    assert with_seed == {"gen", "search", "analyze", "rwa", "fit"}
    assert with_jobs == {"search"}
    for command in cli.COMMANDS.values():
        names = [f.name for f in command.flags]
        assert len(names) == len(set(names)) and "out" in names


@pytest.mark.parametrize("argv", [
    ("analyze", "--jobs", "2"),
    ("theory", "--seed", "1"),
    ("compare", "--seed", "1"),
    ("gen", "--jobs", "2"),
])
def test_flag_not_declared_is_usage_error(capsys, argv):
    code, err = run_main(capsys, *argv)
    assert code == 2
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("command,entries,key", [
    # a float budget was truncated to 7 and a boolean counted as 1 trial,
    # while manifest.json recorded 7.9 and true
    ("search", {"budget": 7.9}, "budget"),
    ("search", {"trials": True}, "trials"),
    ("search", {"algo": "tabu"}, "algo"),
    ("search", {"restart": "yes"}, "restart"),
    ("search", {"num-initial": [2]}, "num-initial"),
    ("theory", {"b": "1,x"}, "b"),
])
def test_config_value_rejected_like_its_flag(small_landscape, tmp_path, capsys,
                                             command, entries, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    inputs = ["--landscape", str(small_landscape)] if command == "search" else []
    code, err = run_main(capsys, command, *inputs, "--config", str(cfg),
                         "--out", str(tmp_path / "o"))
    assert code == 3
    assert err.startswith(f"error: config key {key!r}")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,entries", [
    ("search", {"noise": 0.1}),   # crashed with AttributeError, exit 1
    ("gen", {"topo": 5}),         # crashed with AttributeError, exit 1
])
def test_config_non_string_spec_exits_3(small_landscape, tmp_path, command, entries):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entries))
    inputs = ["--landscape", str(small_landscape)] if command == "search" else []
    res = run_cli(command, *inputs, "--config", str(cfg), "--out", str(tmp_path / "o"))
    assert res.returncode == 3
    assert res.stderr.startswith("error: ")
    assert "Traceback" not in res.stderr


def test_config_values_applied_as_flags(small_landscape, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"landscape": str(small_landscape), "algo": "local",
                               "budget": 9, "trials": "3", "restart": False,
                               "num_initial": 2, "seed": 4}))
    code, err = run_main(capsys, "search", "--config", str(cfg), "--trials", "2",
                         "--out", str(tmp_path / "c"))
    assert code == 0, err
    code, err = run_main(capsys, "search", "--landscape", str(small_landscape),
                         "--algo", "local", "--budget", "9", "--trials", "2",
                         "--restart", "false", "--num-initial", "2", "--seed", "4",
                         "--out", str(tmp_path / "f"))
    assert code == 0, err
    for name in ("runs.csv", "summary.json"):
        assert filecmp.cmp(tmp_path / "c" / name, tmp_path / "f" / name, shallow=False)
    manifests = [json.loads((tmp_path / d / "manifest.json").read_text())["config"]
                 for d in ("c", "f")]
    assert manifests[0] == {**manifests[1], "out": str(tmp_path / "c")}
    assert manifests[0]["restart"] is False and manifests[0]["trials"] == 2


def test_config_list_settings_typed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 25, "s": 24, "b": "1", "closed-form": "uniform"}))
    code, err = run_main(capsys, "theory", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0, err
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["b"] == [1.0]
    assert manifest["config"]["closed_form"] == "uniform"


@pytest.mark.parametrize("argv", [
    ("theory", "--pdf-n", "truncnorm:nan,0.18", "--topo", "clique-power:3,2"),
    ("theory", "--pdf-n", "truncnorm:0.25,inf", "--topo", "clique-power:3,2"),
    ("theory", "--pdf-e", "truncnorm-local:nan", "--topo", "clique-power:3,2"),
    ("theory", "--n", "9", "--s", "4", "--b", "1,nan"),
    ("theory", "--topo", "clique-power:3,2", "--noise-sigma", "0.1", "--delta", "nan"),
    ("theory", "--topo", "clique-power:3,2", "--noise-sigma", "nan"),
    ("theory", "--topo", "clique-power:3,2", "--noise-sigma", "0.1", "--delta", "-1"),
    # used to exit 3 with manifest.json already written
    ("theory", "--topo", "clique-power:3,2", "--pdf-e", "truncnorm-local:1e-300"),
])
def test_non_finite_theory_inputs_exit_3(tmp_path, capsys, argv):
    code, err = run_main(capsys, *argv, "--grid-points", "33", "--out", str(tmp_path / "o"))
    assert code == 3
    assert "finite" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags", [
    ("--n", "7"), ("--s", "3"), ("--b", "0.5,0.2"),
    ("--n", "7", "--s", "3", "--b", "0.5,0.2")])
def test_theory_topo_rejects_n_s_b(tmp_path, capsys, flags):
    # the topology fixes n, s and b; these used to be ignored but recorded
    code, err = run_main(capsys, "theory", "--topo", "clique-power:5,6", *flags,
                         "--closed-form", "uniform", "--out", str(tmp_path / "o"))
    assert code == 3
    assert "--topo" in err
    assert not (tmp_path / "o").exists()


def test_theory_topo_with_default_b(tmp_path, capsys):
    code, err = run_main(capsys, "theory", "--topo", "clique-power:3,2", "--b", "1",
                         "--closed-form", "uniform", "--out", str(tmp_path))
    assert code == 0, err


@pytest.mark.parametrize("pdfs", [
    ("--pdf-n", "truncnorm:0.25,0.18", "--pdf-e", "truncnorm-local:0.35"),
    ("--pdf-n", "truncnorm:0.25,0.18"),
    ("--pdf-e", "truncnorm-local:0.35")], ids=["both", "pdf-n", "pdf-e"])
def test_theory_closed_form_rejects_non_uniform_pdfs(tmp_path, capsys, pdfs):
    # used to exit 0 with the uniform curve while manifest.json recorded these pdfs
    code, err = run_main(capsys, "theory", "--topo", "clique-power:5,3", *pdfs,
                         "--closed-form", "uniform", "--out", str(tmp_path / "o"))
    assert code == 3
    assert "--closed-form uniform" in err
    assert not (tmp_path / "o").exists()


def test_theory_truncnorm_without_mass_leaves_no_directory(tmp_path):
    # used to warn of 0/0 in the density and exit 3 with manifest.json written
    res = run_cli("theory", "--topo", "clique-power:5,3", "--pdf-n", "truncnorm:9,0.1",
                  "--pdf-e", "uniform", "--grid-points", "129", "--out", str(tmp_path / "o"))
    assert res.returncode == 3
    assert res.stderr.startswith("error: bad global pdf spec 'truncnorm:9,0.1'")
    assert "no normal mass" in res.stderr
    assert "Warning" not in res.stderr
    assert not (tmp_path / "o").exists()


# sha256 of the closed-form files of the benchmark's cli-k56 ``theory-cf`` run;
# ``compare`` reads the curve
_PINNED_THEORY_CF = {
    "theory_curve.csv": "bf4ba291633d8bdf28da4507a624a248059d26fbb165edf4be7d53118240a58b",
    "theory_summary.csv": "1189c1cfb7910c6f1ebf887f522278f01f7e5748d9ee18cd911bbe0bf3dfd9e1",
    "theory_bounds.csv": "d8c1e83ceace9f4f24c10e9080e71c1c9a1f731f8f9f93f7f0141c1dbd0ad8d6",
}


def test_theory_closed_form_bytes_pinned(tmp_path, capsys):
    code, err = run_main(capsys, "theory", "--pdf-n", "uniform", "--pdf-e", "uniform",
                         "--topo", "clique-power:5,6", "--closed-form", "uniform",
                         "--out", str(tmp_path))
    assert code == 0, err
    for name, digest in _PINNED_THEORY_CF.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# sha256 of every non-manifest file of three more theory runs: the closed form's
# preimages, the benchmark's quadrature ``theory`` run at 513 grid points, and a
# quadrature run with a center-independent local pdf, which writes the bounds
_PINNED_THEORY = {
    "closed-form": (["--pdf-n", "uniform", "--pdf-e", "uniform", "--topo", "clique-power:5,6",
                     "--closed-form", "uniform"], {
        "theory_preimages.csv":
            "50a3716e3246aff8ecd2c513d712e7df108eb3f4b1c3abe37bdddbe1aeda9d78",
        "theory_curve.csv": _PINNED_THEORY_CF["theory_curve.csv"],
        "theory_summary.csv": _PINNED_THEORY_CF["theory_summary.csv"],
        "theory_bounds.csv": _PINNED_THEORY_CF["theory_bounds.csv"]}),
    "quadrature": (["--pdf-n", "truncnorm:0.25,0.18", "--pdf-e", "truncnorm-local:0.35",
                    "--topo", "clique-power:5,6", "--noise-sigma", "0.05",
                    "--grid-points", "513"], {
        "theory_summary.csv":
            "af89346bb16e409a9ab81dc70c5cd00a03eb6f01510eeb11ea4ea89b3da2d194",
        "theory_curve.csv": "d6670fb566d9ca56b7ad79714db3b80ea630bd68eb5e476efce3081865b6cc45",
        "theory_preimages.csv":
            "f20ad142fd077b68d3035c467a06583676520282c0c1e416ebe3f6a56c8f21bf",
        "theory_chebyshev.csv":
            "da2e8efd0ee19a563e92835f154b83891854afe2aa4d23494b11518b9ddbe3cd"}),
    "quadrature-independent": (["--pdf-n", "truncnorm:0.25,0.18", "--pdf-e", "uniform",
                                "--n", "100", "--s", "4", "--b", "1,0.5"], {
        "theory_summary.csv":
            "73c790c760a6d100653fff9a8035f12c4589d4d5e588f34f4c7690a16b75f739",
        "theory_curve.csv": "d9f0e010ae0f74890c752ef25a9029fadebca3379b76d7ea4396b85ae2590650",
        "theory_preimages.csv":
            "6ce8e326d0c3ef134c6c8cfa0208bbe087d7ecad3133095e07d0019600c32d59",
        "theory_bounds.csv":
            "3c2b064b00cd2e27403f170d745ef3ffba6854b75afaa72c107e1c0d14acf8f1"}),
}


@pytest.mark.parametrize("name", list(_PINNED_THEORY))
def test_theory_bytes_pinned(tmp_path, capsys, name):
    argv, digests = _PINNED_THEORY[name]
    code, err = run_main(capsys, "theory", *argv, "--out", str(tmp_path))
    assert code == 0, err
    written = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
    assert written == set(digests)
    for file, digest in digests.items():
        assert hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() == digest, file


@pytest.mark.parametrize("noise", ["gaussian:nan", "gaussian-fresh:inf", "scaled:nan"])
def test_non_finite_noise_exits_3(small_landscape, tmp_path, capsys, noise):
    code, err = run_main(capsys, "search", "--landscape", str(small_landscape),
                         "--noise", noise, "--out", str(tmp_path / "o"))
    assert code == 3
    assert "finite" in err


def test_analyze_exports_deep_chain(tmp_path, capsys):
    # a 600-node path with rising losses: one preimage chain 599 levels deep,
    # past the nesting depth json.dump can write
    n = 600
    adj = tmp_path / "path.txt"
    adj.write_text(f"n {n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
    csv = tmp_path / "path.csv"
    csv.write_text("id,val_loss\n" + "".join(f"{i},{i / n!r}\n" for i in range(n)))
    code, err = run_main(capsys, "analyze", "--landscape", str(csv),
                         "--topo", f"custom:{adj}", "--export-tree", "1",
                         "--out", str(tmp_path / "o"))
    assert code == 0, err
    text = (tmp_path / "o" / "trees" / "tree_1.json").read_text()
    assert text.count('"min_id"') == n
    assert (tmp_path / "o" / "trees" / "tree_1.dot").read_text().count("->") == n - 1


# -- one CSV reader, one spec parser -------------------------------------------------


def _curve(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("sim_text,message", [
    ("epsilon,fraction\n0.0,0.1\n0.1\n", "line 3: expected 2 cells"),      # IndexError, exit 1
    ("epsilon,fraction\n0.0,0.1\n0.1,0.2,7\n", "line 3: expected 2 cells"),
    ("", "empty file"),                                                      # IndexError, exit 1
    ("epsilon,fraction\n0.0,0.1\n\n0.1,half\n", "line 4: fraction 'half' is not a number"),
    ("epsilon,fraction\n0.0,0.1\n0.1,0.2_5\n", "line 3: fraction '0.2_5' is not a number"),
    ("epsilon,fraction\n0.0,0.1\n0.1,\uff10.\uff15\n",
     "line 3: fraction '\uff10.\uff15' is not a number"),
], ids=["short-row", "long-row", "empty", "text-cell", "underscore-cell", "fullwidth-cell"])
def test_compare_rejects_malformed_curve(tmp_path, sim_text, message):
    sim = _curve(tmp_path, "sim.csv", sim_text)
    theory_csv = _curve(tmp_path, "t.csv", "epsilon,fraction_theory\n0.0,0.1\n0.1,0.2\n")
    res = run_cli("compare", "--sim", sim, "--theory", theory_csv,
                  "--out", str(tmp_path / "o"))
    assert res.returncode == 3
    assert res.stderr.startswith(f"error: {sim}: {message}")
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "o").exists()


def test_compare_grid_mismatch_leaves_no_directory(tmp_path, capsys):
    sim = _curve(tmp_path, "sim.csv", "epsilon,fraction\n0.0,0.1\n0.1,0.2\n")
    theory_csv = _curve(tmp_path, "t.csv", "epsilon,fraction_theory\n0.05,0.5\n")
    code, err = run_main(capsys, "compare", "--sim", sim, "--theory", theory_csv,
                         "--out", str(tmp_path / "o"))
    assert code == 3
    assert "do not match" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_compare_rejects_non_finite_cell(tmp_path, capsys, cell):
    # a nan cell used to exit 0 with "max_abs_gap": NaN, which is not JSON
    sim = _curve(tmp_path, "sim.csv", f"epsilon,fraction\n0.0,{cell}\n0.1,0.2\n")
    theory_csv = _curve(tmp_path, "t.csv", "epsilon,fraction_theory\n0.0,0.1\n0.1,0.2\n")
    code, err = run_main(capsys, "compare", "--sim", sim, "--theory", theory_csv,
                         "--out", str(tmp_path / "o"))
    assert code == 3
    assert err == f"error: {sim}: line 2: fraction '{cell}' is not a finite number\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,flags,message", [
    ("search", ["--budget", "0"], "budget must be >= 1"),
    ("search", ["--algo", "random", "--budget", "0"], "budget must be >= 1"),
    ("search", ["--trials", "0"], "trials must be >= 1"),
    ("search", ["--num-initial", "0"], "num_initial must be >= 1"),
    ("rwa", ["--walk-len", "0"], "walk_len must be at least 2 * max_lag"),
    ("rwa", ["--walk-len", "0", "--max-lag", "0"], "walk_len must be >= 1"),
    ("rwa", ["--max-lag", "-1"], "max_lag must be >= 0"),
], ids=["budget", "random-budget", "trials", "num-initial", "walk-len", "zero-walk",
        "max-lag"])
def test_bad_counts_leave_no_directory(small_landscape, tmp_path, capsys, command, flags,
                                       message):
    # these used to exit 3 with manifest.json already written
    code, err = run_main(capsys, command, "--landscape", str(small_landscape), *flags,
                         "--out", str(tmp_path / "o"))
    assert code == 3
    assert message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["search", "analyze", "rwa"])
@pytest.mark.parametrize("noise", ["scaled:1e300,1e300", "gaussian:1e308"])
def test_overflowing_noise_leaves_no_directory(small_landscape, tmp_path, capsys, command,
                                               noise):
    # both passed every finite check and observed inf or -inf for some nodes
    code, err = run_main(capsys, command, "--landscape", str(small_landscape),
                         "--noise", noise, "--out", str(tmp_path / "o"))
    assert code == 3
    assert "must stay finite" in err
    assert not (tmp_path / "o").exists()


def test_rwa_edgeless_leaves_no_directory(tmp_path, capsys):
    # complete:1 used to exit 1 with an IndexError traceback
    scape = str(tmp_path / "l.csv")
    hs.save_landscape(hs.Landscape(hs.make_complete(1), [0.5]), scape)
    code, err = run_main(capsys, "rwa", "--landscape", scape, "--walk-len", "5",
                         "--max-lag", "0", "--out", str(tmp_path / "o"))
    assert code == 3
    assert "at least one edge" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags,message", [
    (["--max-k", "0"], "max-k must be >= 1"),
    (["--max-k", "0", "--closed-form", "uniform"], "max-k must be >= 1"),
    (["--grid-points", "1"], "grid needs at least 9 points"),
    (["--pdf-n", "truncnorm:0.5,1e-300", "--grid-points", "33"],
     "on the 33-point quadrature grid, not 1"),
], ids=["max-k", "max-k-closed-form", "grid-points", "pdf-n-unresolved"])
def test_theory_bad_sizes_leave_no_directory(tmp_path, capsys, flags, message):
    # max-k 0 used to raise IndexError (or write a header-only preimage table),
    # grid-points 1 to exit 3 with manifest.json already written, and a pdf-n
    # narrower than the grid spacing to warn of an overflow and exit 0 with an
    # expected minima fraction of 5e296
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = run_main(capsys, "theory", "--n", "100", "--s", "4", *flags,
                             "--out", str(tmp_path / "o"))
    assert code == 3
    assert message in err
    assert not (tmp_path / "o").exists()


def test_analyze_negative_export_tree_leaves_no_directory(small_landscape, tmp_path, capsys):
    # used to exit 0 and export nothing
    code, err = run_main(capsys, "analyze", "--landscape", str(small_landscape),
                         "--export-tree", "-1", "--out", str(tmp_path / "o"))
    assert code == 3
    assert "export-tree must be >= 0" in err
    assert not (tmp_path / "o").exists()


# sha256 of the files the row-by-row CSV writer produced for these runs,
# before the writer formatted whole columns at once; the two runs.csv files
# since search starts and random-search candidates became counter-based
_PINNED_CSV = {
    "with_test.csv": "32872e783373c55cb9e0c382c21e6c1874381af162ffcda24a596358286355f1",
    "gen/landscape.csv": "689502c13cad3b3bb46f26119ec72f3013669aadc2dc83f8a2cf5898449a8322",
    "local/runs.csv": "1c8e7a662d79905d812dcd89c638b421b64bc2cebe8d3bc2b9f18bfc3b983ea7",
    "random/runs.csv": "e8a73e701679ca063fc08fa90253410b51037a724300cdf4df82b7f3b30a2bf9",
}


def test_csv_bytes_pinned(tmp_path, capsys):
    t = hs.make_clique_power(4, 3)
    rng = np.random.default_rng(1)
    hs.save_landscape(hs.Landscape(t, rng.random(t.n), test_loss=rng.random(t.n)),
                      str(tmp_path / "with_test.csv"))
    d = str(tmp_path)
    for argv in (["gen", "--topo", "clique-power:4,3", "--seed", "7", "--out", f"{d}/gen"],
                 ["search", "--landscape", f"{d}/with_test.csv", "--noise", "gaussian:0.05",
                  "--budget", "40", "--trials", "3", "--seed", "1", "--out", f"{d}/local"],
                 ["search", "--landscape", f"{d}/gen/landscape.csv", "--algo", "random",
                  "--budget", "30", "--trials", "3", "--seed", "1", "--out", f"{d}/random"]):
        assert run_main(capsys, *argv) == (0, "")
    for name, digest in _PINNED_CSV.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# search runs for summary.json: (landscape, flags); "with_test" has a test_loss
# column and "val_only" none, and the "ragged" runs end trials at convergence
_SUMMARY_RUNS = {
    "restart": ("with_test", ["--noise", "gaussian:0.05", "--budget", "40", "--trials", "6",
                              "--seed", "2"]),
    "ragged": ("with_test", ["--restart", "false", "--budget", "40", "--trials", "6",
                             "--seed", "2"]),
    "ragged-val": ("val_only", ["--restart", "false", "--num-initial", "2", "--budget", "40",
                                "--trials", "6", "--seed", "3"]),
    "random-val": ("val_only", ["--algo", "random", "--budget", "30", "--trials", "4",
                                "--seed", "3"]),
    # five of the six trials end before the longest one
    "ragged-tail-val": ("val_only", ["--restart", "false", "--budget", "40", "--trials", "6",
                                     "--seed", "3"]),
}

# sha256 of summary.json files of _SUMMARY_RUNS, all four since search
# starts and random-search candidates became counter-based; the summaries
# themselves are checked against the per-query loop below
_PINNED_SUMMARY = {
    "restart": "412299f7bc52a54aa784cc8619ad9e844fec5ab4c67f0539679d33fb66429893",
    "ragged": "93c43269b96608a641f477dc7cf02955e6a92e31bc6357bb968973a75cd81e6b",
    "ragged-val": "933c3a3624bd80461cda2fc2f4276bea05768ad673c525a34dc2f17a95f6dec5",
    "random-val": "5793ada57799a9dfea4dde4eac2497839f853dc8acba00b899246720325fc00d",
}


@pytest.fixture(scope="module")
def summary_runs(tmp_path_factory):
    """Output directory of each of _SUMMARY_RUNS."""
    d = tmp_path_factory.mktemp("summary")
    t = hs.make_clique_power(4, 3)
    rng = np.random.default_rng(2)
    hs.save_landscape(hs.Landscape(t, rng.random(t.n), test_loss=rng.random(t.n)),
                      str(d / "with_test.csv"))
    hs.save_landscape(hs.sample_uniform(t, 3), str(d / "val_only.csv"))
    for name, (scape, flags) in _SUMMARY_RUNS.items():
        assert cli.main(["search", "--landscape", str(d / f"{scape}.csv"), *flags,
                         "--out", str(d / name)]) == 0
    return {name: d / name for name in _SUMMARY_RUNS}


def loop_summary(runs_csv, algo, trials, budget):
    """summary.json text by the per-query loop, from the trials in runs.csv: a
    trial that has ended counts at every later query with its final best."""
    header, rows = read_csv(runs_csv)
    by_trial = [[r for r in rows if int(r[0]) == t] for t in range(trials)]
    queries = max(map(len, by_trial))

    def at_query(column, q):
        return np.asarray([float(rs[min(q, len(rs) - 1)][column]) for rs in by_trial])

    any_test = rows[0][5] != ""
    best = [at_query(4, q) for q in range(queries)]
    summary = {
        "algo": algo,
        "trials": trials,
        "budget": budget,
        "queries": queries,
        "trials_at_query": [sum(len(rs) > q for rs in by_trial) for q in range(queries)],
        "mean_best_val": [float(v.mean()) for v in best],
        "std_best_val": [float(v.std()) for v in best],
        "mean_best_test": [float(at_query(5, q).mean()) for q in range(queries)]
                          if any_test else None,
        "final_mean_best_val": float(best[-1].mean()),
    }
    return json.dumps(summary, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", list(_SUMMARY_RUNS))
def test_summary_equals_per_query_loop(summary_runs, name):
    out = summary_runs[name]
    cfg = json.loads((out / "manifest.json").read_text())["config"]
    text = (out / "summary.json").read_text()
    assert text == loop_summary(out / "runs.csv", cfg["algo"], cfg["trials"], cfg["budget"])
    summary = json.loads(text)
    assert (summary["mean_best_test"] is None) == name.endswith("-val")
    if name.startswith("ragged"):
        assert len(set(summary["trials_at_query"])) > 1


@pytest.mark.parametrize("name", [name for name in _SUMMARY_RUNS if name.startswith("ragged")])
def test_final_mean_is_mean_of_final_bests(summary_runs, name):
    # every trial counts, not only the ones still running at the last query
    _, rows = read_csv(summary_runs[name] / "runs.csv")
    final = {int(r[0]): float(r[4]) for r in rows}  # the last row of each trial
    summary = json.loads((summary_runs[name] / "summary.json").read_text())
    assert len(final) == summary["trials"] == 6 and summary["trials_at_query"][-1] < 6
    assert summary["final_mean_best_val"] == float(np.asarray(list(final.values())).mean())


def test_summary_bytes_pinned(summary_runs):
    for name, digest in _PINNED_SUMMARY.items():
        text = (summary_runs[name] / "summary.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == digest, name


def test_fit_rejects_non_numeric_rho(tmp_path):
    rwa_csv = _curve(tmp_path, "rwa.csv", "lag,sqrt_lag,rho\n0,0.0,1.0\n1,1.0,oops\n"
                                          "2,1.4142135623730951,0.2\n")
    res = run_cli("fit", "--mode", "local-rwa", "--rwa", rwa_csv, "--topo", "complete:5",
                  "--out", str(tmp_path / "o"))
    assert res.returncode == 3  # exited 0 with rho read as nan
    assert res.stderr.startswith(f"error: {rwa_csv}: line 3: rho 'oops' is not a number")
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "o").exists()


def _fit_inputs(tmp_path):
    """A 27-node landscape and RWA curves of three rows and of one row."""
    small = str(tmp_path / "l.csv")
    hs.save_landscape(hs.sample_uniform(hs.make_clique_power(3, 3), 1), small)
    return {"small": small,
            "rwa": _curve(tmp_path, "rwa.csv", "lag,sqrt_lag,rho\n0,0.0,1.0\n1,1.0,0.5\n"
                                               "2,1.4142135623730951,0.2\n"),
            "one-row": _curve(tmp_path, "one.csv", "lag,sqrt_lag,rho\n0,0.0,1.0\n")}


@pytest.mark.parametrize("flags,message", [
    (["--mode", "global", "--landscape", "{small}"], "insufficient data"),
    (["--mode", "local-rwa", "--rwa", "{rwa}", "--topo", "complete:5", "--candidates=-1"],
     "candidates must be positive"),
    (["--mode", "local-rwa", "--rwa", "{one-row}", "--topo", "complete:5"],
     "observed curve must be rows of"),
], ids=["global-27-nodes", "negative-candidate", "one-row-rwa"])
def test_fit_bad_inputs_leave_no_directory(tmp_path, capsys, flags, message):
    # each used to exit 3 with manifest.json already written
    inputs = _fit_inputs(tmp_path)
    code, err = run_main(capsys, "fit", *[f.format_map(inputs) for f in flags],
                         "--out", str(tmp_path / "o"))
    assert code == 3
    assert message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("lags", ["0,2,4", "0,1,2.7", "3,1,2"])
def test_fit_rejects_rwa_lags_other_than_0_to_max_lag(tmp_path, capsys, lags):
    # 0,2,4 used to exit 1 with an IndexError traceback; 0,1,2.7 and 3,1,2
    # were fitted as lags 0, 1, 2
    rows = "".join(f"{lag},{float(lag) ** 0.5!r},{rho}\n"
                   for lag, rho in zip(lags.split(","), (1.0, 0.5, 0.2)))
    rwa_csv = _curve(tmp_path, "rwa.csv", "lag,sqrt_lag,rho\n" + rows)
    code, err = run_main(capsys, "fit", "--mode", "local-rwa", "--rwa", rwa_csv,
                         "--topo", "complete:5", "--walk-len", "100",
                         "--out", str(tmp_path / "o"))
    assert code == 3
    assert err == "error: observed curve's lags must be 0, 1, ..., max_lag in order\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_command_returns_outputs_and_writes_nothing(small_landscape, tmp_path, name):
    # commands compute and main writes: a command that created --out or a
    # file could leave one behind when a later check fails
    scape = str(small_landscape)
    args = {
        "gen": ["--topo", "clique-power:3,2"],
        "search": ["--landscape", scape, "--trials", "3", "--budget", "20"],
        "analyze": ["--landscape", scape, "--export-tree", "2"],
        "rwa": ["--landscape", scape, "--walk-len", "200", "--max-lag", "5"],
        "theory": ["--topo", "clique-power:3,2", "--pdf-n", "truncnorm:0.25,0.18",
                   "--pdf-e", "truncnorm-local:0.35", "--grid-points", "33",
                   "--noise-sigma", "0.05"],
        "fit": ["--mode", "global", "--landscape", scape],
        "compare": ["--sim", _curve(tmp_path, "sim.csv", "epsilon,fraction\n0.0,0.1\n"),
                    "--theory", _curve(tmp_path, "t.csv", "epsilon,fraction_theory\n0.0,0.2\n")],
    }[name]
    out = tmp_path / "o"
    cfg = cli._resolve(name, None, [*args, "--out", str(out)])
    before = sorted(tmp_path.rglob("*"))
    outputs = cli.COMMANDS[name].func(cfg)
    assert isinstance(outputs, Mapping) and outputs
    assert sorted(tmp_path.rglob("*")) == before
    assert not out.exists()


@pytest.mark.parametrize("eps_max", ["-1", "nan", "inf"])
def test_analyze_bad_eps_max_leaves_no_directory(small_landscape, tmp_path, eps_max):
    # nan and inf ran and wrote nan/inf epsilon rows; -1 left manifest.json behind
    res = run_cli("analyze", "--landscape", str(small_landscape), "--eps-max", eps_max,
                  "--out", str(tmp_path / "o"))
    assert res.returncode == 3
    assert res.stderr == "error: eps grid must be ascending, finite and non-negative\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,spec", [
    (("gen", "--topo", "complete:5", "--model", "uniform:junk"), "generator model spec"),
    (("gen", "--topo", "complete:5", "--model", "markov-tn:0.3,0.2,0.1,9"),
     "generator model spec"),
    (("gen", "--topo", "complete:5,2"), "topology spec"),
    (("theory", "--topo", "complete:5", "--pdf-n", "uniform:junk"), "global pdf spec"),
    (("theory", "--topo", "complete:5", "--pdf-n", "truncnorm:0.2,0.1,3"), "global pdf spec"),
    (("theory", "--topo", "complete:5", "--pdf-e", "uniform:1"), "local pdf spec"),
    (("theory", "--topo", "complete:5", "--pdf-e", "truncnorm-local:0.3,9"),
     "local pdf spec"),
])
def test_spec_extra_parameter_exits_3(tmp_path, capsys, argv, spec):
    code, err = run_main(capsys, *argv, "--out", str(tmp_path / "o"))
    assert code == 3
    assert err.startswith(f"error: bad {spec} {argv[-1]!r}: ")
    assert "at most" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ("gen", "--topo", "complete:5", "--model", "markov-tn"),
    ("theory", "--topo", "complete:5", "--pdf-n", "truncnorm:0.2"),
    ("theory", "--topo", "complete:5", "--pdf-e", "truncnorm-local"),
])
def test_spec_missing_parameter_exits_3(tmp_path, capsys, argv):
    code, err = run_main(capsys, *argv, "--out", str(tmp_path / "o"))
    assert code == 3
    assert f"{argv[-1]!r}: missing a required argument" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_search_jobs_below_one_exits_3(small_landscape, tmp_path, capsys, jobs):
    code, err = run_main(capsys, "search", "--landscape", str(small_landscape),
                         "--jobs", jobs, "--out", str(tmp_path / "o"))
    assert code == 3
    assert "jobs must be >= 1" in err
    assert not (tmp_path / "o").exists()


def test_search_noise_spec_missing_parameter_exits_3(small_landscape, tmp_path, capsys):
    code, err = run_main(capsys, "search", "--landscape", str(small_landscape),
                         "--noise", "gaussian", "--out", str(tmp_path / "o"))
    assert code == 3
    assert "bad noise spec 'gaussian': missing a required argument" in err


@pytest.mark.parametrize("text,args", [
    ("markov-tn:0.3", (0.3, 0.25, 0.18)),
    ("markov-tn:0.3,0.5", (0.3, 0.5, 0.18)),
    ("markov-tn:0.3,0.5,0.1", (0.3, 0.5, 0.1)),
])
def test_model_spellings(text, args):
    t = hs.make_clique_power(3, 3)
    sample = cli._parse_spec(text, cli._MODELS, ValueError, "generator model")
    expected = hs.sample_markov_truncnorm(t, *args, seed=4)
    got = sample(t, 4)
    assert got.val_loss.tobytes() == expected.val_loss.tobytes()
    assert got.meta == expected.meta
    uniform = cli._parse_spec("uniform", cli._MODELS, ValueError, "generator model")
    assert uniform(t, 4).val_loss.tobytes() == hs.sample_uniform(t, 4).val_loss.tobytes()


def test_closed_form_choices_are_the_theory_routes():
    # the flag table is built without importing theory, so it repeats the names
    from hillscape import theory
    flag = next(f for f in cli.COMMANDS["theory"].flags if f.name == "closed_form")
    assert flag.default is None and None in theory.ROUTES
    assert set(flag.type) == set(theory.ROUTES) - {None}


def test_cli_leaves_the_theory_choices_to_theory():
    # which formulas a theory run evaluates, and for which pdfs, is decided in
    # theory: cli names no private theory attribute and reads no pdf kind
    tree = ast.parse((REPO / "src" / "hillscape" / "cli.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "theory":
            assert not [a.name for a in node.names if a.name.startswith("_")], node.lineno
        if isinstance(node, ast.Attribute):
            private = (isinstance(node.value, ast.Name) and node.value.id == "theory"
                       and node.attr.startswith("_"))
            assert not private and node.attr != "kind", (node.lineno, node.attr)


@pytest.mark.parametrize("model", ["markov-tn:0", "markov-tn:nan,0.25"])
def test_gen_rejected_sigma_leaves_no_directory(tmp_path, capsys, model):
    # the landscape is sampled before manifest.json is written
    code, err = run_main(capsys, "gen", "--topo", "complete:5", "--model", model,
                         "--out", str(tmp_path / "o"))
    assert code == 3
    assert err == "error: sigma must be positive\n"
    assert not (tmp_path / "o").exists()


def test_gen_root_without_mass_leaves_no_directory(tmp_path, capsys):
    # used to exit 0 and write the root loss 0.0
    code, err = run_main(capsys, "gen", "--topo", "clique-power:3,2",
                         "--model", "markov-tn:0.35,9,0.1", "--seed", "1",
                         "--out", str(tmp_path / "o"))
    assert code == 3
    assert "no normal mass" in err
    assert not (tmp_path / "o").exists()


def _outputs_under_blas_threads(root, threads, landscape):
    """Primary outputs of theory, rwa and fit run with ``threads`` BLAS threads."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    out = root / f"threads-{threads}"
    commands = {
        # the benchmark's cli-k56 ``theory`` run
        "theory": ["theory", "--pdf-n", "truncnorm:0.25,0.18", "--pdf-e",
                   "truncnorm-local:0.35", "--topo", "clique-power:5,6",
                   "--noise-sigma", "0.05"],
        "rwa": ["rwa", "--landscape", str(landscape), "--seed", "1"],
        "fit": ["fit", "--mode", "local-rwa", "--rwa", str(out / "rwa" / "rwa.csv"),
                "--topo", "clique-power:5,3", "--candidates", "0.2,0.5", "--seed", "1"],
    }
    for name, argv in commands.items():
        res = run_cli(*argv, "--out", str(out / name), env=env)
        assert res.returncode == 0, res.stderr
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def test_outputs_independent_of_blas_thread_count(markov_inputs, tmp_path):
    # the preimage product and the RWA dot products used to be OpenBLAS calls,
    # whose sums change with the thread count
    landscape = markov_inputs / "gen" / "landscape.csv"
    one, two = (_outputs_under_blas_threads(tmp_path, t, landscape) for t in (1, 2))
    assert sorted(one) == sorted(two) and len(one) == 6
    for name in one:
        assert one[name] == two[name], name


@pytest.mark.parametrize("topo", [f"complete:{2**63}", "custom", "clique-power:2,63",
                                  f"tree:{2**62},1"])
def test_gen_node_count_over_bound_exits_3(tmp_path, topo):
    # the complete graph used to exit 3 with numpy's "Maximum allowed dimension
    # exceeded", and the custom file died in np.bincount with a traceback (exit 1)
    if topo == "custom":
        adj = tmp_path / "huge.adj"
        adj.write_text("n 99999999999999999999\n0 1\n")
        topo = f"custom:{adj}"
    res = run_cli("gen", "--topo", topo, "--out", str(tmp_path / "o"))
    assert res.returncode == 3, res.stderr
    assert "nodes, more than the 4611686018427387904 supported" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "o" / "landscape.csv").exists()


def test_dimension_one_clique_power_written_as_complete(tmp_path, capsys):
    code, err = run_main(capsys, "gen", "--topo", "clique-power:6,1", "--seed", "2",
                         "--out", str(tmp_path / "a"))
    assert code == 0, err
    meta = json.loads((tmp_path / "a" / "landscape.meta.json").read_text())
    assert meta["topology"] == "complete:6"
    code, err = run_main(capsys, "gen", "--topo", "complete:6", "--seed", "2",
                         "--out", str(tmp_path / "b"))
    assert code == 0, err
    for name in ("landscape.csv", "landscape.meta.json"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
