"""Benchmark harness for pstransport.

Runs one workload in one process and one thread, checks its outputs,
and prints a report followed by one JSON line (the last line of stdout):

    python3 perfbench/run.py --workload l63-n50 --seed 0 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` runs the same work twice, untraced and then traced, asserts
that both give bit-identical outputs, and reports per-layer metrics from
the traced pass; the spans are written under ``perfbench/out/``.
``--workload all`` runs every workload, one process each, in turn.

The work of a run is fixed by ``--seed`` and ``--seconds``: each workload
turns the seconds into a count of operations at a rate measured on a
2-core Xeon with BLAS pinned to one thread, so the parent and the child
of a change do the same work and the outputs can be compared exactly.
See ``perfbench/README.md`` for why each workload and metric exists.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import spans  # noqa: E402

SETUP_REPEATS = 5
IMPORT_SNIPPET = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import pstransport; print(time.perf_counter() - t)"
)


def load_library():
    """Import pstransport from this checkout's ``src``; None if it is absent."""
    try:
        import pstransport
        from pstransport import lorenz63, tmap, wavy  # noqa: F401
    except ImportError as exc:
        print(f"cannot import pstransport from {SRC}: {exc}", file=sys.stderr)
        return None
    if not Path(pstransport.__file__).resolve().is_relative_to(SRC):
        print(f"pstransport was imported from {pstransport.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return pstransport


def tail(values):
    """(value, percentile, count): the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no percentile has ten beyond it; the
    maximum is reported with percentile 100.
    """
    v = np.sort(np.asarray(values, dtype=float))
    if v.size < 11:
        return float(v[-1]), 100.0, int(v.size)
    return float(v[v.size - 11]), 100.0 * (v.size - 10) / v.size, int(v.size)


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


class Outcome:
    """What one pass of a workload produced.

    ``op_s`` are the wall times of the closed-loop operations and ``results``
    what they returned. The workload's ``check``, run after the timed (and
    traced) part, fills ``errors`` with the failed correctness checks, ``outputs`` with the values compared between the
    untraced and traced pass, and ``report`` with the workload's own
    figures as (name, value, unit).
    """

    def __init__(self):
        self.op_s = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.results = []
        self.outputs = []
        self.report = []

    def fail(self, message, count=1):
        self.failed += count
        self.errors.append(message)


# -- Lorenz-63 twin experiment ----------------------------------------------


class LorenzCycle:
    """``run_filter`` with the transport method: one cycle is a forecast plus
    three sparse-map fits and ``conditional_update``s.

    A run is several independent filter runs (segments) with seeds drawn
    from the workload seed, so that one trajectory's share of hard cycles
    does not set the run's figures: at n=50 the median cycle time of one
    15-cycle run varies by 11 % (coefficient of variation) across seeds.
    A cycle's time is the interval between the ends of two consecutive
    cycles, taken when ``run_filter`` scores the cycle with
    ``ensemble_rmse``; the first cycle of a segment, which also holds the
    spin-up, is not sampled.
    """

    def __init__(self, n, cycles_per_s, segments):
        self.n = n
        self.cycles_per_s = cycles_per_s
        self.segments = segments

    def build(self, lib, seed, seconds):
        steps = max(3, round(seconds * self.cycles_per_s / self.segments))
        params = lib.lorenz63.Lorenz63Params(steps=steps)
        return params, [seed * self.segments + k for k in range(self.segments)]

    def run(self, lib, inputs):
        params, seeds = inputs
        out = Outcome()
        scorer = lib.lorenz63.ensemble_rmse
        for seed in seeds:
            out.attempted += params.steps
            ends = []

            def timed_scorer(members, truth):
                ends.append(time.perf_counter())
                return scorer(members, truth)

            lib.lorenz63.ensemble_rmse = timed_scorer
            try:
                res = lib.lorenz63.run_filter(params, self.n, seed, method="transport")
            finally:
                lib.lorenz63.ensemble_rmse = scorer
            out.op_s.extend(b - a for a, b in zip(ends[:-1], ends[1:]))
            out.results.append(res)
        return out

    def check(self, lib, inputs, out):
        params, _ = inputs
        for res in out.results:
            ok = np.isfinite(res.rmse_series) & \
                (res.rmse_series <= lib.lorenz63.DIVERGENCE_RMSE)
            if res.diverged or not ok.all():
                out.fail(f"filter seed {res.seed} diverged after {res.steps_completed} "
                         f"of {params.steps} cycles", count=params.steps - int(ok.sum()))
            if not np.isfinite(res.mean_rmse):
                out.fail(f"filter seed {res.seed}: rmse is {res.mean_rmse}", count=0)
            out.outputs.extend([res.rmse_series, res.edf_fractions])
        p50 = float(np.median(out.op_s)) if out.op_s else float("nan")
        t, pct, count = tail(out.op_s) if out.op_s else (float("nan"), 0.0, 0)
        rmse = float(np.mean([res.mean_rmse for res in out.results]))
        out.report = [("cycle_p50_s", p50, "s"), ("cycle_tail_s", t, "s"),
                      ("cycle_tail_pct", pct, "%"), ("cycle_samples", count, "count"),
                      ("rmse", rmse, "state")]


# -- wavy smoothing profile -------------------------------------------------


def check_profile(lib, config, res):
    """Correctness of one ``profile_lambda`` result; returns error messages."""
    errors = []
    table = res.table
    finite = np.isfinite(table[:, 3])
    t = table[finite]
    if t.shape[0] < 30:
        errors.append(f"only {t.shape[0]} finite grid rows")
    first = int(np.argmax(finite)) if finite.any() else table.shape[0]
    if not finite[first:].all():
        # rows may fail only at the small-lambda end, where edf exceeds n - 1
        errors.append("NaN grid row above the smallest fitted lambda")
    if np.any(np.diff(t[:, 1]) < -1e-6):
        errors.append("nll increases as lambda drops")
    if np.any(np.diff(t[:, 2]) > 1e-6):
        errors.append("edf increases with lambda")
    if t.shape[0]:
        i = int(np.argmin(t[:, 3]))
        if not 0 < i < t.shape[0] - 1:
            errors.append("AICc minimum at the grid edge")
    if not abs(res.adapted_log_lambda - res.argmin_log_lambda) <= 0.5:
        errors.append(f"adapted log-lambda {res.adapted_log_lambda:.3f} is more than 0.5 "
                      f"from the grid argmin {res.argmin_log_lambda:.3f}")
    # the pullback clouds are inverses of seed+1 reference draws; pushing them
    # forward through the same fixed-lambda map must give those draws back
    z_ref = np.random.default_rng(config.seed + 1).standard_normal((config.num_pullback, 2))
    fixed = config.fixed_monotone_log_lambda
    for logl, cloud in res.clouds.items():
        cfg = lib.MapFitConfig(num_real_knots=config.num_real_knots, adapt=False,
                               init_log_lambdas=[[fixed], [logl, fixed]])
        tri, _ = lib.fit(res.ensemble, [[], [0]], cfg)
        z = tri.pushforward_ensemble(lib.Ensemble(cloud["pullback"])).data
        err = np.abs(z - z_ref) / np.maximum(1.0, np.abs(z_ref))
        if not err.max() <= 1e-8:
            errors.append(f"pullback round trip at log-lambda {logl}: residual {err.max():.2e}")
    return errors


class WavyProfile:
    """``profile_lambda`` on the default wavy data set (``WavyConfig``'s seed 0,
    which criterion 5 and ``pstransport wavy`` use) with the pullback
    reference draws seeded from the workload seed.

    The default 1000 pullback draws make one call take about 12 s, so a run
    would hold two calls and its figure would be the mean of two long spans
    of a shared host's speed. Fewer draws give a run many short calls for a
    median, while the scalar inverse still takes most of their time. The
    data set stays fixed because its fit time varies tenfold between data
    seeds, while the pullback work varies by about 1 % between draw seeds.
    """

    def __init__(self, seconds_per_call, num_pullback):
        self.seconds_per_call = seconds_per_call
        self.num_pullback = num_pullback

    def build(self, lib, seed, seconds):
        calls = max(1, round(seconds / self.seconds_per_call))

        def default_data(n, _seed):
            return lib.wavy.sample_wavy(n, lib.WavyConfig().seed)

        return [lib.WavyConfig(seed=seed * 64 + i, num_pullback=self.num_pullback,
                               generator=default_data)
                for i in range(calls)]

    def run(self, lib, configs):
        out = Outcome()
        for config in configs:
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                res = lib.wavy.profile_lambda(config)
            except Exception:
                out.fail(f"profile_lambda(seed={config.seed}) raised\n{traceback.format_exc()}")
                continue
            out.op_s.append(time.perf_counter() - t0)
            out.results.append((config, res))
        return out

    def check(self, lib, configs, out):
        for config, res in out.results:
            errors = check_profile(lib, config, res)
            if errors:
                out.fail(f"profile seed {config.seed}: " + "; ".join(errors))
            clouds = [c[k] for _, c in sorted(res.clouds.items()) for k in sorted(c)]
            out.outputs.append(digest(res.table, [res.argmin_log_lambda],
                                      [res.adapted_log_lambda], *clouds))
        out.report = [("profile_s", float(np.median(out.op_s)) if out.op_s else float("nan"),
                       "s"), ("profile_calls", len(out.op_s), "count")]


# -- conditioning with a fitted Lorenz map ----------------------------------


class Conditioning:
    """Read path of a fitted sparse Lorenz map.

    Set-up spins up an n-member Lorenz-63 ensemble, adds perturbed
    predictions of x0 as variable y, and fits the map with parents
    ``[[], [0], [1], [1, 2]]``. One operation conditions on an
    observation value y* drawn from the ensemble's own predictions:
    ``conditional_update`` of all members, then ``sample_conditional``
    of n fresh draws.
    """

    PARENTS = [[], [0], [1], [1, 2]]

    def __init__(self, n, rounds_per_s):
        self.n = n
        self.rounds_per_s = rounds_per_s

    def build(self, lib, seed, seconds):
        l63 = lib.lorenz63
        params = l63.Lorenz63Params()
        rng = np.random.default_rng(seed)
        members = rng.standard_normal((self.n, 3))
        for _ in range(params.spinup):
            members = l63.rk4_step(members, params)
        y = members[:, 0] + rng.normal(0.0, params.obs_sigma, size=self.n)
        joint = np.column_stack([y, members])
        cfg = lib.MapFitConfig(block_split=1, fit_upper=False, max_outer=10)
        tri, _ = lib.fit(lib.Ensemble(joint), self.PARENTS, cfg)
        rounds = max(2, round(seconds * self.rounds_per_s))
        y_star = rng.choice(y, size=rounds)
        draw_seeds = rng.integers(0, 2 ** 31, size=rounds)
        return tri, joint, y_star, draw_seeds

    def run(self, lib, inputs):
        tri, joint, y_star, draw_seeds = inputs
        out = Outcome()
        for y, s in zip(y_star, draw_seeds):
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                updated = tri.conditional_update(joint, np.array([y]))
                t1 = time.perf_counter()
                draws = tri.sample_conditional(np.array([y]), self.n, seed=int(s))
            except Exception:
                out.fail(f"conditioning on y*={y} raised\n{traceback.format_exc()}")
                continue
            t2 = time.perf_counter()
            out.op_s.append(t2 - t0)
            out.results.append((y, (t0, t1, t2), updated, draws))
        return out

    def check(self, lib, inputs, out):
        tri, joint = inputs[:2]
        latents = block_latents(tri, joint)
        for y, _, updated, draws in out.results:
            errors = check_conditioning(tri, latents, y, updated, draws)
            if errors:
                out.fail(f"conditioning on y*={y}: " + "; ".join(errors))
            out.outputs.append(digest(updated, draws))
        update_s = [t1 - t0 for _, (t0, t1, _), _, _ in out.results]
        sample_s = [t2 - t1 for _, (_, t1, t2), _, _ in out.results]
        n = self.n
        nan = float("nan")
        out.report = [
            ("update_rows_per_s", n * len(update_s) / sum(update_s) if update_s else nan, "1/s"),
            ("update_tail_s", tail(update_s)[0] if update_s else nan, "s"),
            ("sample_rows_per_s", n * len(sample_s) / sum(sample_s) if sample_s else nan, "1/s"),
            ("sample_tail_s", tail(sample_s)[0] if sample_s else nan, "s"),
            ("rounds", len(out.op_s), "count"),
        ]


def block_latents(tri, members):
    """Block-b latents S_j(x) of every member, in the map's standardized space."""
    Z = (members - tri.center) / tri.scale
    return np.column_stack([tri.components[j].eval_many(Z)
                            for j in range(tri.block_split, tri.dim)])


def check_conditioning(tri, latents, y, updated, draws):
    """Correctness of one conditioning round; returns error messages.

    The update must keep every member's block-b latents: pushing the
    updated members forward gives the latents from before the update to
    the inversion's residual contract.
    """
    errors = []
    if updated.shape != (latents.shape[0], tri.dim) \
            or not np.allclose(updated[:, 0], y, rtol=1e-12, atol=1e-12):
        errors.append("updated members do not carry the observed value")
    after = block_latents(tri, updated)
    err = np.abs(after - latents) / np.maximum(1.0, np.abs(latents))
    if not err.max() <= 1e-8:
        errors.append(f"updated members lost their latents: residual {err.max():.2e}")
    if draws.shape != (latents.shape[0], tri.dim - tri.block_split) \
            or not np.all(np.isfinite(draws)):
        errors.append("sample_conditional draws are not all finite")
    return errors


WORKLOADS = {
    # small fits vary more with the trajectory, so n=50 averages more of them
    "l63-n50": LorenzCycle(50, cycles_per_s=3.2, segments=8),
    "l63-n1000": LorenzCycle(1000, cycles_per_s=1.8, segments=6),
    "wavy-profile": WavyProfile(seconds_per_call=0.75, num_pullback=50),
    "condition-n4000": Conditioning(4000, rounds_per_s=1.6),
}


# -- environment and set-up -------------------------------------------------


def environment():
    """Versions, thread pins and machine of this run."""
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
    }


def import_seconds():
    """Median over fresh interpreters of the time to import pstransport."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def timed_setup(workload, lib, seed, seconds):
    """Build the inputs several times; returns (inputs, build intervals)."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.build(lib, seed, seconds)
        intervals.append((t0, time.perf_counter()))
    return inputs, intervals


# -- modes ------------------------------------------------------------------


def run_untraced(name, lib, seed, seconds):
    workload = WORKLOADS[name]
    import_s = import_seconds()
    inputs, builds = timed_setup(workload, lib, seed, seconds)
    out = workload.run(lib, inputs)
    workload.check(lib, inputs, out)
    setup_s = import_s + statistics.median(b - a for a, b in builds)
    p50 = float(np.median(out.op_s)) if out.op_s else float("nan")
    op_tail, pct, count = tail(out.op_s) if out.op_s else (float("nan"), 0.0, 0)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed_frac = out.failed / max(out.attempted, 1)
    report = [("setup_s", setup_s, "s"), ("peak_rss_mb", rss_mb, "MB"),
              ("failed_frac", failed_frac, "ratio"), ("op_p50_s", p50, "s"),
              ("op_tail_s", op_tail, "s"), ("op_tail_pct", pct, "%"),
              ("op_samples", count, "count")] + out.report
    metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB"),
               "op_p50_s": (p50, "s")}
    return out, report, metrics


def run_traced(name, lib, seed, seconds):
    workload = WORKLOADS[name]
    t0 = time.perf_counter()
    inputs = workload.build(lib, seed, seconds)
    plain = workload.run(lib, inputs)
    plain_s = time.perf_counter() - t0
    workload.check(lib, inputs, plain)
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        inputs = workload.build(lib, seed, seconds)
        traced = workload.run(lib, inputs)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    workload.check(lib, inputs, traced)
    layers = spans.layer_metrics(tracer)
    layers["trace.overhead_frac"] = traced_s / plain_s - 1.0
    if not _same(plain.outputs, traced.outputs):
        traced.fail("traced outputs differ from the untraced run", count=0)
    traced.errors = plain.errors + traced.errors
    traced.failed = max(plain.failed, traced.failed)
    tracer.save(OUT / f"spans-{name}-seed{seed}",
                {"workload": name, "seed": seed, "seconds": seconds,
                 "env": environment(), "untraced_s": plain_s, "traced_s": traced_s,
                 "metrics": layers})
    units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
    metrics = {k: (v, units[k]) for k, v in layers.items()}
    report = [(k, v, units[k]) for k, v in layers.items()]
    return traced, report, metrics


def _same(a, b):
    return len(a) == len(b) and all(np.array_equal(x, y, equal_nan=True)
                                    if isinstance(x, np.ndarray) else x == y
                                    for x, y in zip(a, b))


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(args):
    """Run every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    lib = load_library()
    if lib is None:
        return 2
    print("env " + json.dumps(environment()), flush=True)
    mode = run_traced if args.trace else run_untraced
    out, report, metrics = mode(args.workload, lib, args.seed, args.seconds)
    for metric, value, unit in report:
        print(f"metric {args.workload} {metric} {value:.6g} {unit}")
    for message in out.errors:
        print(f"FAILED {message}", file=sys.stderr)
    correct = out.failed == 0 and not out.errors
    print(json.dumps({
        "correct": correct, "attempted": out.attempted, "failed": out.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
