import json
from dataclasses import fields

import numpy as np
import pytest

from pstransport import cli
from pstransport.cli import main
from pstransport.lorenz63 import Lorenz63Params
from pstransport.tmap import MapFitConfig, TriangularMap
from pstransport.wavy import WavyConfig


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture
def gaussian_table(tmp_path):
    rng = np.random.default_rng(0)
    L = np.linalg.cholesky([[1.0, 0.8], [0.8, 1.0]])
    data = rng.standard_normal((400, 2)) @ L.T
    path = tmp_path / "ens.tsv"
    with open(path, "w") as fh:
        fh.write("a\tb\n")
        for row in data:
            fh.write(f"{float(row[0])!r}\t{float(row[1])!r}\n")
    return str(path)


def run(args):
    return main([str(a) for a in args])


def test_fit_roundtrip(tmp_path, gaussian_table):
    cfg = write_json(tmp_path / "c.json",
                     {"ensemble": gaussian_table, "parent_sets": [[], [0]]})
    out = tmp_path / "out"
    assert run(["fit", "--config", cfg, "--out", out]) == 0
    tri = TriangularMap.load(out / "map.json")
    tri2 = TriangularMap.load(out / "map.json")
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        assert np.array_equal(tri.pushforward(x), tri2.pushforward(x))
    report = (out / "fit_report.tsv").read_text()
    assert report.startswith("# config_hash=")
    assert "seed" not in report.splitlines()[0]


def test_fit_with_skipped_upper_block(tmp_path, gaussian_table, monkeypatch):
    """With fit_upper false the block-a component is not fitted: map.json
    holds null for it, fit_report.tsv lists only the fitted component, and
    the loaded map conditions exactly like the map fit wrote."""
    fitted = []
    fit = cli.fit
    monkeypatch.setattr(cli, "fit", lambda *args: fitted.append(fit(*args)) or fitted[-1])
    cfg = write_json(tmp_path / "c.json",
                     {"ensemble": gaussian_table, "parent_sets": [[], [0]],
                      "block_split": 1, "fit_upper": False})
    out = tmp_path / "out"
    assert run(["fit", "--config", cfg, "--out", out]) == 0
    doc = json.loads((out / "map.json").read_text())
    assert doc["components"][0] is None and doc["components"][1] is not None
    rows = [line.split("\t") for line in (out / "fit_report.tsv").read_text().splitlines()
            if not line.startswith(("#", "component"))]
    assert [row[0] for row in rows] == ["1"]
    tri, loaded = fitted[0][0], TriangularMap.load(out / "map.json")
    assert loaded.components[0] is None
    members = np.random.default_rng(2).standard_normal((30, 2))
    assert np.array_equal(loaded.conditional_update(members, [0.4]),
                          tri.conditional_update(members, [0.4]))


def test_fit_config_keys_reach_outputs(tmp_path, gaussian_table):
    cfg = write_json(tmp_path / "c.json",
                     {"ensemble": gaussian_table, "parent_sets": [[], [0]],
                      "num_real_knots": 5, "max_outer": 1})
    out = tmp_path / "out"
    assert run(["fit", "--config", cfg, "--out", out]) == 0
    doc = json.loads((out / "map.json").read_text())
    for comp in doc["components"]:
        assert comp["degree"] == 3
        assert len(comp["mon_knots"]) == 5
        assert all(len(k) == 5 for k in comp["non_knots"])
        assert len(comp["beta_mon_raw"]) == 7  # real knots + degree - 1
    rows = [line.split("\t") for line in (out / "fit_report.tsv").read_text().splitlines()
            if not line.startswith(("#", "component"))]
    assert len(rows) == 2
    assert all(int(row[-1]) <= 1 for row in rows)


def test_monotone_log_lambda_key_fixes_the_monotone_block(tmp_path, gaussian_table):
    cfg = write_json(tmp_path / "c.json",
                     {"ensemble": gaussian_table, "parent_sets": [[], [0]],
                      "monotone_log_lambda": 7})
    out = tmp_path / "out"
    assert run(["fit", "--config", cfg, "--out", out]) == 0
    rows = [line.split("\t") for line in (out / "fit_report.tsv").read_text().splitlines()
            if not line.startswith(("#", "component"))]
    assert [row[4].split(";")[-1] for row in rows] == ["7.0", "7.0"]


def test_missing_input_is_config_error(tmp_path):
    cfg = write_json(tmp_path / "c.json",
                     {"ensemble": str(tmp_path / "nope.tsv"),
                      "parent_sets": [[], [0]]})
    assert run(["fit", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_unknown_keys_rejected(tmp_path, gaussian_table):
    cfg = write_json(tmp_path / "c.json",
                     {"ensemble": gaussian_table, "parent_sets": [[], [0]],
                      "surprise": 1})
    assert run(["fit", "--config", cfg, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("extra", [{"adapt": False}, {"seed": 0}, {"degree": 3}])
def test_fit_takes_no_adapt_seed_or_degree_key(tmp_path, gaussian_table, monkeypatch,
                                               extra):
    """adapt (max_outer 0 fits at the start), seed (the fit draws no random
    number) and degree (fits are cubic) are unknown keys, rejected before any
    work."""
    calls = capture(monkeypatch, "fit")
    cfg = write_json(tmp_path / "c.json",
                     {"ensemble": gaussian_table, "parent_sets": [[], [0]], **extra})
    assert run(["fit", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert not calls


@pytest.mark.parametrize("command, flag", [("fit", "--threads"), ("fit", "--seed-offset"),
                                           ("wavy", "--threads"), ("wavy", "--seed-offset"),
                                           ("lorenz63", "--seed-offset")])
def test_flags_a_command_does_not_read_are_rejected(tmp_path, command, flag):
    cfg = write_json(tmp_path / "c.json", {})
    with pytest.raises(SystemExit) as info:
        run([command, "--config", cfg, "--out", tmp_path / "o", flag, 1])
    assert info.value.code == 2


def test_thread_count_below_zero_is_a_usage_error(tmp_path, monkeypatch):
    """--threads takes an integer of at least 0; -1 stops the argument
    parsing (exit 2) before any filter run."""
    calls = capture(monkeypatch, "run_filter")
    cfg = write_json(tmp_path / "c.json", {"n_grid": [20], "steps": 1, "seeds": [0]})
    with pytest.raises(SystemExit) as info:
        run(["lorenz63", "--config", cfg, "--out", tmp_path / "o", "--threads", -1])
    assert info.value.code == 2
    assert not calls


def test_triangularity_violation_rejected(tmp_path, gaussian_table):
    cfg = write_json(tmp_path / "c.json",
                     {"ensemble": gaussian_table, "parent_sets": [[1], []]})
    assert run(["fit", "--config", cfg, "--out", tmp_path / "o"]) == 2


@pytest.mark.parametrize("parent_sets", [[[], [0.5]], [[], 0], [[], ["0"]], 2, None,
                                         [[], [0, 0]]])
def test_malformed_parent_sets_rejected(tmp_path, gaussian_table, monkeypatch, parent_sets):
    calls = capture(monkeypatch, "fit")
    cfg = write_json(tmp_path / "c.json",
                     {"ensemble": gaussian_table, "parent_sets": parent_sets})
    assert run(["fit", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert not calls


def test_malformed_json_rejected(tmp_path):
    bad = tmp_path / "c.json"
    bad.write_text("{not json")
    assert run(["fit", "--config", bad, "--out", tmp_path / "o"]) == 2


def test_degenerate_ensemble_is_compute_error(tmp_path):
    path = tmp_path / "flat.tsv"
    with open(path, "w") as fh:
        fh.write("a\tb\n")
        for _ in range(50):
            fh.write("0.0\t1.0\n")
    cfg = write_json(tmp_path / "c.json",
                     {"ensemble": str(path), "parent_sets": [[], [0]]})
    assert run(["fit", "--config", cfg, "--out", tmp_path / "o"]) == 3


@pytest.mark.parametrize("rows", [["0.5\t1.0"] * 7, ["0.5\t1.0"] * 20 + ["nan\t1.0"]])
def test_short_or_non_finite_ensemble_table_is_config_error(tmp_path, monkeypatch, rows):
    """A table with fewer than 8 rows or a non-finite entry is a config error
    (exit 2), found before any work."""
    calls = capture(monkeypatch, "fit")
    path = tmp_path / "ens.tsv"
    path.write_text("\n".join(["a\tb", *rows]) + "\n")
    cfg = write_json(tmp_path / "c.json",
                     {"ensemble": str(path), "parent_sets": [[], [0]]})
    assert run(["fit", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert not calls


def test_wavy_outputs(tmp_path):
    cfg = write_json(tmp_path / "w.json",
                     {"n": 30, "num_real_knots": 20,
                      "grid": {"start": -6, "stop": 8, "num": 8}})
    out = tmp_path / "wout"
    assert run(["wavy", "--config", cfg, "--out", out]) == 0
    profile = np.loadtxt(out / "profile.tsv", skiprows=2)
    assert profile.shape == (8, 4)
    clouds = sorted(out.glob("pushforward_logl_*.tsv"))
    assert len(clouds) == 5
    assert (out / "optima.tsv").exists()
    assert (out / "samples.tsv").exists()


def test_lorenz_outputs_and_summary_consistency(tmp_path):
    cfg = write_json(tmp_path / "l.json",
                     {"methods": ["linear-baseline"], "n_grid": [50],
                      "seeds": [0, 1], "steps": 10})
    out = tmp_path / "lout"
    assert run(["lorenz63", "--config", cfg, "--out", out, "--threads", 1]) == 0
    files = sorted(out.glob("run_*.tsv"))
    assert len(files) == 2
    # summary mean_rmse must equal re-aggregation of the per-step files
    summary = {}
    for line in (out / "summary.tsv").read_text().splitlines():
        if line.startswith(("#", "method")):
            continue
        method, n, seed, rmse, diverged, steps = line.split("\t")
        summary[int(seed)] = float(rmse)
    for seed in (0, 1):
        steps = np.loadtxt(out / f"run_linear-baseline_n50_seed{seed}.tsv",
                           skiprows=3)
        assert abs(np.mean(steps[:, 1]) - summary[seed]) < 1e-12


def test_lorenz_rerun_byte_identical(tmp_path):
    """A rerun gives the same bytes, whatever the number of worker processes:
    two runs in this process and in a pool of two."""
    cfg = write_json(tmp_path / "l.json",
                     {"methods": ["transport"], "n_grid": [50],
                      "seeds": [0, 1], "steps": 3})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["lorenz63", "--config", cfg, "--out", out1, "--threads", 1]) == 0
    assert run(["lorenz63", "--config", cfg, "--out", out2, "--threads", 2]) == 0
    for name in ("run_transport_n50_seed0.tsv", "run_transport_n50_seed1.tsv", "summary.tsv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its worker count and maps
    in this process, so a test starts no process."""

    workers = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.mark.parametrize("cpus, threads, seeds, pool", [
    (64, 0, [0, 1], 2),      # the pool never outgrows the runs
    (64, 3, [0, 1], 2),
    (64, 3, [0, 1, 2, 3], 3),
    (3, 0, [0, 1, 2, 3], 3),  # 0 takes the CPUs the process may use
    (1, 0, [0, 1], None),     # one worker runs in this process
    (64, 1, [0, 1], None),
    (64, 0, [0], None),       # so does one run
])
def test_lorenz_worker_count(tmp_path, monkeypatch, cpus, threads, seeds, pool):
    """--threads 0 reads the process's CPU affinity, not the machine's CPU
    count, and the pool is capped at the number of runs."""
    monkeypatch.setattr(RecordingPool, "workers", [])
    monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2 * cpus + 64)
    cfg = write_json(tmp_path / "l.json", {"methods": ["linear-baseline"], "n_grid": [20],
                                           "seeds": seeds, "steps": 1})
    assert run(["lorenz63", "--config", cfg, "--out", tmp_path / "o", "--threads", threads]) == 0
    assert RecordingPool.workers == ([] if pool is None else [pool])
    summary = (tmp_path / "o" / "summary.tsv").read_text().splitlines()
    assert len(summary) == 2 + len(seeds)


class Captured(Exception):
    pass


def capture(monkeypatch, name):
    """Replace cli.<name> by a stub that records its arguments and stops the run."""
    calls = []

    def stub(*args, **kwargs):
        calls.append((args, kwargs))
        raise Captured

    monkeypatch.setattr(cli, name, stub)
    return calls


def test_empty_wavy_config_takes_dataclass_defaults(tmp_path, monkeypatch):
    calls = capture(monkeypatch, "profile_lambda")
    cfg = write_json(tmp_path / "w.json", {})
    assert run(["wavy", "--config", cfg, "--out", tmp_path / "o"]) == 3
    (got,), _ = calls[0]
    want = WavyConfig()
    for name in ("n", "num_real_knots", "fixed_monotone_log_lambda", "seed",
                 "num_pullback", "generator"):
        assert getattr(got, name) == getattr(want, name)
    assert np.array_equal(got.grid, want.grid)


def test_partial_wavy_grid_takes_default_ends(tmp_path, monkeypatch):
    calls = capture(monkeypatch, "profile_lambda")
    cfg = write_json(tmp_path / "w.json", {"grid": {"num": 5}, "seed": 5})
    assert run(["wavy", "--config", cfg, "--out", tmp_path / "o"]) == 3
    (got,), _ = calls[0]
    default = WavyConfig().grid
    assert np.array_equal(got.grid, np.linspace(default[0], default[-1], 5))
    assert got.seed == 5


def test_empty_lorenz_config_takes_dataclass_defaults(tmp_path, monkeypatch):
    calls = capture(monkeypatch, "run_filter")
    cfg = write_json(tmp_path / "l.json", {})
    assert run(["lorenz63", "--config", cfg, "--out", tmp_path / "o", "--threads", 1]) == 3
    (params, n, seed), kwargs = calls[0]
    assert params == Lorenz63Params()
    assert (n, seed) == (50, 0)
    assert kwargs == {"method": "transport"}

    cfg = write_json(tmp_path / "l2.json", {"max_outer": 3, "steps": 7})
    assert run(["lorenz63", "--config", cfg, "--out", tmp_path / "o", "--threads", 1]) == 3
    (params, _, _), _ = calls[1]
    assert params == Lorenz63Params(steps=7, max_outer=3)


@pytest.mark.parametrize("command, stubbed, doc", [
    ("fit", "fit", {"fit_upper": "false"}),
    ("fit", "fit", {"max_outer": 2.5}),
    ("fit", "fit", {"num_real_knots": "3"}),
    ("fit", "fit", {"monotone_log_lambda": True}),
    ("fit", "fit", {"init_log_lambda": "1.5"}),
    ("wavy", "profile_lambda", {"n": 30.9}),
    ("wavy", "profile_lambda", {"num_real_knots": None}),
    ("wavy", "profile_lambda", {"grid": {"num": 5.5}}),
    ("lorenz63", "run_filter", {"steps": True}),
    ("lorenz63", "run_filter", {"seeds": [0, 1.5]}),
    ("lorenz63", "run_filter", {"n_grid": ["50"]}),
    ("lorenz63", "run_filter", {"max_outer": None}),
    ("fit", "fit", {"ensemble": 0}),
    ("lorenz63", "run_filter", {"methods": "transport"}),
    ("lorenz63", "run_filter", {"n_grid": 50}),
    ("lorenz63", "run_filter", {"seeds": 5}),
    ("fit", "fit", {"block_split": -1, "fit_upper": False}),
    ("fit", "fit", {"block_split": 3}),
    ("fit", "fit", {"max_outer": -3}),
])
def test_mistyped_values_are_config_errors(tmp_path, gaussian_table, monkeypatch,
                                           command, stubbed, doc):
    """A value that does not match its field's type or range exits with 2
    before any work."""
    assert_config_error(tmp_path, gaussian_table, monkeypatch, command, stubbed, doc)


@pytest.mark.parametrize("command, stubbed, doc", [
    ("fit", "fit", {"num_real_knots": 0}),
    ("fit", "fit", {"num_real_knots": 1}),
    ("fit", "fit", {"init_log_lambda": 1e6}),
    ("fit", "fit", {"monotone_log_lambda": 1e6}),
    ("wavy", "profile_lambda", {"num_pullback": -1}),
    ("wavy", "profile_lambda", {"num_real_knots": 1}),
    ("lorenz63", "run_filter", {"n_grid": [8]}),
    ("lorenz63", "run_filter", {"steps": -1}),
    ("lorenz63", "run_filter", {"max_outer": -1}),
    ("lorenz63", "run_filter", {"spinup": -5}),
    ("lorenz63", "run_filter", {"obs_sigma": float("nan")}),
    ("lorenz63", "run_filter", {"obs_sigma": float("inf")}),
    ("lorenz63", "run_filter", {"obs_interval": float("inf")}),
    ("lorenz63", "run_filter", {"dt": float("inf")}),
    ("lorenz63", "run_filter", {"dt": 5e-324}),
    ("wavy", "profile_lambda", {"grid": [0.0, float("nan")]}),
    ("wavy", "profile_lambda", {"grid": [0.0, 1e300]}),
    ("wavy", "profile_lambda", {"grid": [float("-inf"), 0.0]}),
    ("wavy", "profile_lambda", {"grid": [0.0, float("inf")]}),
    ("wavy", "profile_lambda", {"grid": [-40, -20, 0, 20, 40]}),
])
def test_out_of_range_values_are_config_errors(tmp_path, gaussian_table, monkeypatch,
                                               command, stubbed, doc):
    """Each config rejects its own range when it is built: too few knots,
    ensemble members, steps or draws, and start log-lambdas outside the
    bounds of the search, grid values outside those bounds or not finite,
    and a non-finite Lorenz-63 step, observation interval,
    observation noise or step count per observation, exit with 2 before any
    work."""
    assert_config_error(tmp_path, gaussian_table, monkeypatch, command, stubbed, doc)


@pytest.mark.parametrize("command, stubbed, doc", [
    ("wavy", "profile_lambda", {"seed": -1}),
    ("wavy", "profile_lambda", {"seed": -3}),
    ("lorenz63", "run_filter", {"seeds": [-1]}),
    ("lorenz63", "run_filter", {"seeds": [0, -5]}),
    ("wavy", "profile_lambda", {"grid": {"num": -1}}),
    ("wavy", "profile_lambda", {"grid": {"num": 0}}),
    ("wavy", "profile_lambda", {"grid": []}),
])
def test_negative_seeds_and_empty_grids_are_config_errors(tmp_path, monkeypatch, command,
                                                          stubbed, doc):
    """A negative seed, and a grid with no point or a negative count, exit
    with 2 before any work."""
    calls = capture(monkeypatch, stubbed)
    cfg = write_json(tmp_path / "c.json", doc)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert not calls


def assert_config_error(tmp_path, gaussian_table, monkeypatch, command, stubbed, doc):
    calls = capture(monkeypatch, stubbed)
    if command == "fit":
        doc = {"ensemble": gaussian_table, "parent_sets": [[], [0]], **doc}
    cfg = write_json(tmp_path / "c.json", doc)
    assert run([command, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert not calls


def test_typed_values_are_converted(tmp_path, gaussian_table, monkeypatch):
    """Integral floats reach int fields as ints, ints reach float fields as
    floats, and null reaches a field whose default is None."""
    calls = capture(monkeypatch, "fit")
    cfg = write_json(tmp_path / "c.json",
                     {"ensemble": gaussian_table, "parent_sets": [[], [0]],
                      "max_outer": 3.0, "monotone_log_lambda": 7,
                      "num_real_knots": None})
    assert run(["fit", "--config", cfg, "--out", tmp_path / "o"]) == 3
    (_, _, got), _ = calls[0]
    assert got == MapFitConfig(max_outer=3, monotone_log_lambda=7.0)
    assert type(got.max_outer) is int and type(got.monotone_log_lambda) is float

    calls = capture(monkeypatch, "profile_lambda")
    cfg = write_json(tmp_path / "w.json", {"n": 40.0, "grid": [-1, 0.5, 2]})
    assert run(["wavy", "--config", cfg, "--out", tmp_path / "o"]) == 3
    (got,), _ = calls[0]
    assert type(got.n) is int and got.n == 40
    assert np.array_equal(got.grid, [-1.0, 0.5, 2.0])


def test_every_scalar_fit_field_reaches_fit(tmp_path, gaussian_table, monkeypatch):
    """The fit keys are the scalar MapFitConfig fields but adapt; a config that
    sets each of them to a non-default value reaches fit as exactly that
    config."""
    calls = capture(monkeypatch, "fit")
    values = {"num_real_knots": 7, "monotone_log_lambda": 7.5, "init_log_lambda": -1.0,
              "max_outer": 4, "block_split": 1, "fit_upper": False}
    assert set(values) == {f.name for f in fields(MapFitConfig)} - {"adapt", "init_log_lambdas"}
    want = MapFitConfig(**values)
    assert all(getattr(want, k) != getattr(MapFitConfig(), k) for k in values)
    cfg = write_json(tmp_path / "c.json",
                     {"ensemble": gaussian_table, "parent_sets": [[], [0]], **values})
    assert run(["fit", "--config", cfg, "--out", tmp_path / "o"]) == 3
    (_, parent_sets, got), _ = calls[0]
    assert parent_sets == [[], [0]]
    assert got == want


LORENZ_KEYS = {"methods", "n_grid", "seeds",
               "dt", "obs_interval", "obs_sigma", "steps", "spinup", "max_outer"}


def test_every_lorenz_key_reaches_run_filter(tmp_path, monkeypatch):
    """The lorenz63 keys are every Lorenz63Params field plus methods, n_grid
    and seeds; each reaches run_filter."""
    calls = capture(monkeypatch, "run_filter")
    model = {"dt": 0.01, "obs_interval": 0.05, "obs_sigma": 0.5, "steps": 3, "spinup": 7,
             "max_outer": 2}
    assert set(model) == {f.name for f in fields(Lorenz63Params)}
    assert all(getattr(Lorenz63Params(**model), k) != getattr(Lorenz63Params(), k)
               for k in model)
    cfg = write_json(tmp_path / "l.json", {"methods": ["linear-baseline"], "n_grid": [20],
                                           "seeds": [4], **model})
    assert run(["lorenz63", "--config", cfg, "--out", tmp_path / "o", "--threads", 1]) == 3
    (params, n, seed), kwargs = calls[0]
    assert (params, n, seed) == (Lorenz63Params(**model), 20, 4)
    assert kwargs == {"method": "linear-baseline"}


def test_lorenz_key_set(tmp_path, monkeypatch):
    """Drift guard: the lorenz63 command accepts exactly the nine keys, so a
    new Lorenz63Params field or a second declaration of one shows here."""
    allowed = []
    load = cli._load_config

    def recorded(path, keys, required=()):
        allowed.append(sorted(keys))
        return load(path, keys, required)

    monkeypatch.setattr(cli, "_load_config", recorded)
    capture(monkeypatch, "run_filter")
    cfg = write_json(tmp_path / "l.json", {})
    assert run(["lorenz63", "--config", cfg, "--out", tmp_path / "o", "--threads", 1]) == 3
    assert allowed == [sorted(LORENZ_KEYS)]
