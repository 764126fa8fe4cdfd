"""Command-line entry point.

Each subcommand takes --config and --out, and only the flags it reads:

  fit       fit a triangular map to an ensemble table and save it
            keys: ensemble, parent_sets and the scalar MapFitConfig
            fields but adapt (max_outer 0 fits at the start log-lambdas)
  wavy      run the bivariate smoothing-profile study
            keys: the WavyConfig fields but generator
  lorenz63  run twin-experiment filter comparisons; --threads
            keys: methods, n_grid, seeds and the Lorenz63Params fields

Configs are JSON objects; unknown keys and values of the wrong type or
range are rejected. Output tables are tab-separated text with a
provenance header (config hash, and the seed where one is drawn). Exit
codes: 0 success, 2 config error, 3 compute error. Set PSTRANSPORT_LOG to
a level name (e.g. DEBUG) for verbose logging.
"""

import argparse
import concurrent.futures
import hashlib
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from .lorenz63 import METHODS, MIN_MEMBERS, Lorenz63Params, run_filter
from .tmap import Ensemble, MapFitConfig, _validate_fit, fit
from .wavy import WavyConfig, profile_lambda

logger = logging.getLogger(__name__)

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _load_config(path, allowed, required=()):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    return doc


def _config_hash(doc):
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _write_table(path, header_lines, names, rows):
    """Tab-separated table with '#' provenance lines; floats round-trip."""
    with open(path, "w") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        fh.write("\t".join(names) + "\n")
        for row in rows:
            fh.write("\t".join(
                repr(float(v)) if isinstance(v, (float, np.floating))
                else str(v) for v in row
            ) + "\n")


def _read_ensemble_table(path):
    try:
        with open(path) as fh:
            lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    except OSError as exc:
        raise ConfigError(f"cannot read ensemble table: {exc}") from exc
    if len(lines) < 2:
        raise ConfigError("ensemble table needs a header row and data rows")
    try:
        data = np.array([[float(v) for v in ln.split()] for ln in lines[1:]])
        return Ensemble(data, lines[0].split())
    except ValueError as exc:   # non-numeric or non-finite entries, too few rows, bad widths
        raise ConfigError(f"ensemble table: {exc}") from exc


def _typed(key, value, kind, nullable=False):
    """``value`` of key ``key`` as ``kind``: an int takes integral floats but not
    bools, a float takes ints, and null stands only where ``nullable``."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if value is None and nullable or kind in (bool, str, list) and isinstance(value, kind):
        return value
    if kind is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if kind is float and number:
        return float(value)
    raise ConfigError(f"{key} must be {'null or ' * nullable}{kind.__name__}, not {value!r}")


def _keys(cls, *skip):
    """Config keys of dataclass ``cls``: its field names except ``skip``."""
    return [f.name for f in fields(cls) if f.name not in skip]


def _config_from(cls, doc, **parsers):
    """``cls`` built from the keys of ``doc`` that name its fields, each typed as
    its field or read by ``parsers[key]``; absent keys keep the defaults."""
    try:
        return cls(**{f.name: parsers[f.name](doc[f.name]) if f.name in parsers
                      else _typed(f.name, doc[f.name], f.type, f.default is None)
                      for f in fields(cls) if f.name in doc})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_fit(config_path, out_dir):
    # max_outer 0 fits at the start log-lambdas, so the library's adapt is no key
    keys = ["ensemble", "parent_sets", *_keys(MapFitConfig, "adapt", "init_log_lambdas")]
    doc = _load_config(config_path, keys, required=("ensemble", "parent_sets"))
    cfg = _config_from(MapFitConfig, doc)
    ensemble = _read_ensemble_table(_typed("ensemble", doc["ensemble"], str))
    try:
        _validate_fit(doc["parent_sets"], ensemble.dim, cfg)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"fit inputs: {exc}") from exc
    chash = _config_hash(doc)
    tri, reports = fit(ensemble, doc["parent_sets"], cfg)
    tri.save(os.path.join(out_dir, "map.json"))
    rows = []
    for j, r in enumerate(reports):
        if r is None:
            continue
        rows.append([j, r.nll, r.edf, r.aicc,
                     ";".join(repr(float(v)) for v in r.log_lambdas),
                     int(r.converged), r.outer_iters])
    _write_table(
        os.path.join(out_dir, "fit_report.tsv"),
        [f"config_hash={chash}"],
        ["component", "nll", "edf", "aicc", "log_lambdas", "converged",
         "outer_iters"],
        rows,
    )
    return 0


def _parse_grid(spec):
    if isinstance(spec, list):
        return np.array([_typed("grid", v, float) for v in spec])
    if isinstance(spec, dict):
        extra = set(spec) - {"start", "stop", "num"}
        if extra:
            raise ConfigError(f"unknown grid keys: {sorted(extra)}")
        default = WavyConfig().grid
        return np.linspace(_typed("grid start", spec.get("start", default[0]), float),
                           _typed("grid stop", spec.get("stop", default[-1]), float),
                           _typed("grid num", spec.get("num", default.size), int))
    raise ConfigError("grid must be a list of values or {start, stop, num}")


def cmd_wavy(config_path, out_dir):
    doc = _load_config(config_path, _keys(WavyConfig, "generator"))
    wcfg = _config_from(WavyConfig, doc, grid=_parse_grid)
    chash = _config_hash(doc)
    header = [f"config_hash={chash} seed={wcfg.seed}"]
    res = profile_lambda(wcfg)
    _write_table(os.path.join(out_dir, "profile.tsv"), header,
                 ["log_lambda", "nll", "edf", "aicc"], res.table)
    _write_table(os.path.join(out_dir, "samples.tsv"), header,
                 res.ensemble.names, res.ensemble.data)
    for logl, cloud in res.clouds.items():
        tag = repr(float(logl)).replace("-", "m").replace(".", "p")
        for kind in ("pushforward", "pullback"):
            _write_table(
                os.path.join(out_dir, f"{kind}_logl_{tag}.tsv"),
                header + [f"log_lambda={logl!r}"],
                ["c1", "c2"], cloud[kind],
            )
    _write_table(os.path.join(out_dir, "optima.tsv"), header,
                 ["grid_argmin_log_lambda", "adapted_log_lambda"],
                 [[res.argmin_log_lambda, res.adapted_log_lambda]])
    return 0


def _one_l63_run(args):
    params, n, seed, method = args
    return run_filter(params, n, seed, method=method)


def _usable_cpus():
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_lorenz63(config_path, out_dir, threads):
    doc = _load_config(config_path, ["methods", "n_grid", "seeds", *_keys(Lorenz63Params)])
    methods = _typed("methods", doc.get("methods", list(METHODS)), list)
    if any(m not in METHODS for m in methods):
        raise ConfigError(f"methods must be among {', '.join(METHODS)}")
    n_grid = [_typed("n_grid", n, int)
              for n in _typed("n_grid", doc.get("n_grid", [50, 250, 1000]), list)]
    if any(n < MIN_MEMBERS for n in n_grid):
        raise ConfigError(f"n_grid values must be at least {MIN_MEMBERS}")
    seeds = [_typed("seeds", s, int)
             for s in _typed("seeds", doc.get("seeds", list(range(10))), list)]
    if any(s < 0 for s in seeds):
        raise ConfigError(f"seeds must be non-negative, not {seeds}")
    params = _config_from(Lorenz63Params, doc)
    chash = _config_hash(doc)

    jobs = [(params, n, seed, method)
            for method in methods for n in n_grid for seed in seeds]
    workers = min(threads or _usable_cpus(), len(jobs))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one_l63_run, jobs))
    else:
        results = [_one_l63_run(job) for job in jobs]

    summary_rows = []
    for (_, n, seed, method), r in zip(jobs, results):
        header = [f"config_hash={chash} seed={seed}",
                  f"method={method} n={n} steps={params.steps}"]
        rows = [[k, r.rmse_series[k]] + list(r.edf_fractions[k])
                for k in range(params.steps)]
        _write_table(
            os.path.join(out_dir, f"run_{method}_n{n}_seed{seed}.tsv"),
            header, ["step", "rmse", "edf_frac_s2", "edf_frac_s3", "edf_frac_s4"],
            rows,
        )
        summary_rows.append([method, n, seed, r.mean_rmse, int(r.diverged),
                             r.steps_completed])
    _write_table(
        os.path.join(out_dir, "summary.tsv"),
        [f"config_hash={chash}"],
        ["method", "n", "seed", "mean_rmse", "diverged", "steps_completed"],
        summary_rows,
    )
    return 0


_COMMANDS = {"fit": cmd_fit, "wavy": cmd_wavy, "lorenz63": cmd_lorenz63}


def _worker_count(text):
    """``--threads`` value: an integer of at least 0."""
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 0, not {text!r}")
    return count


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pstransport",
        description="Adaptive spline transport maps for ensemble conditioning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", dest="config_path", required=True, help="JSON config file")
        p.add_argument("--out", dest="out_dir", required=True, help="output directory")
        if name == "lorenz63":
            p.add_argument("--threads", type=_worker_count, default=0,
                           help="worker processes (they do not change the output); "
                                "at least 0; 0 picks the usable CPU count; "
                                "never more than the runs")
    return parser


def main(argv=None):
    logging.basicConfig(
        level=os.environ.get("PSTRANSPORT_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = vars(build_parser().parse_args(argv))
    command = _COMMANDS[args.pop("command")]
    try:
        os.makedirs(args["out_dir"], exist_ok=True)
    except OSError as exc:
        logger.error("cannot create output directory: %s", exc)
        return 2
    try:
        return command(**args)
    except ConfigError as exc:
        logger.error("config error: %s", exc)
        return 2
    except Exception as exc:
        logger.error("compute error: %s", exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
