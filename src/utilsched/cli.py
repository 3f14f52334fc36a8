"""Command-line front end: seeded sweeps to CSV plus self-check suites.

Subcommands
-----------
ts-sweep / gs-sweep / jtpc / qtsl
    Expand the config's list-valued keys into a sweep, run each point, and
    write one CSV row per point plus a JSON run manifest.
fairness
    Adapt per-user weights until average utilities equalize; write the
    final weights and report as a single-row CSV (list-valued keys here are
    per-user values, not sweep axes).
selfcheck
    Run the oracle-equivalence suites and report pass/fail per suite.
replay
    Re-run a recorded manifest and verify the CSV reproduces byte for byte.

Config files are flat ``key = value`` text; every key is also exposed as a
``--key`` flag which overrides the file, and every subcommand accepts every
key, ignoring those it does not read.  The sweep keys, with their types,
defaults and sweep axes, are the fields of ``ExperimentConfig``; fairness
reads six of them plus the ``tolerance``, ``step`` and ``max_iterations``
parameters of ``adapt_weights``, with that signature's defaults.  Exit codes: 0 success, 1 failed self-check or replay
mismatch, 2 invalid config, 3 numeric failure.
"""

import argparse
import csv
import hashlib
import inspect
import io
import itertools
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .channel import LinkBudget, Quantizer
from .errors import NUMERIC_ERRORS, ConfigError
from .fairness import adapt_weights
from .oracles import central_difference, grid_search_shares
from .quantized import QuantizedScheduler
from .simulate import ExperimentConfig, sweep
from .timeshare import aggregate_utility, allocate_ts
from .utility import LogUtility

OUTPUT_DIR_ENV = "UTILSCHED_OUTDIR"

# CLI key -> ExperimentConfig field, in field order: the sweep CSV's column order
FIELDS = {f.metadata["key"] or f.name: f for f in fields(ExperimentConfig)}
# the keys of the sweep commands, with their defaults
SWEEP_KEYS = {key: f.default for key, f in FIELDS.items()}
# fairness reads these ExperimentConfig keys, then these adapt_weights knobs
FAIRNESS_SHARED = ("users", "mean_snr_db", "snr_gap_db", "concavity", "frames", "seed")
FAIRNESS_KNOBS = ("tolerance", "step", "max_iterations")
FAIRNESS_KEYS = {key: SWEEP_KEYS[key] for key in FAIRNESS_SHARED} | {
    key: inspect.signature(adapt_weights).parameters[key].default for key in FAIRNESS_KNOBS
}
# fairness reads a list on these keys as one value per user
PER_USER = ("mean_snr_db", "concavity")
# every key, parsed as the type of its default
KEY_TYPES = {key: type(default) for key, default in (SWEEP_KEYS | FAIRNESS_KEYS).items()}


def _parse_value(key: str, text: str, where: str):
    if key not in KEY_TYPES:
        raise ConfigError(f"{where}: unknown key {key!r}")
    kind = KEY_TYPES[key]
    parts = [p.strip() for p in str(text).split(",")]
    try:
        values = [kind(p) for p in parts]
    except ValueError:
        raise ConfigError(f"{where}: cannot parse {key} value {text!r} as {kind.__name__}")
    return values[0] if len(values) == 1 else values


def load_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` file with per-line diagnostics."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    config = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        config[key] = _parse_value(key, value.strip(), f"{path}:{lineno}")
    return config


def resolve_config(args, defaults=SWEEP_KEYS) -> dict:
    """A command's keys: its defaults, then the config file, then the flags."""
    config = dict(defaults)
    if args.config:
        config.update(load_config_file(args.config))
    for key in KEY_TYPES:
        flag = getattr(args, key, None)
        if flag is not None:
            config[key] = _parse_value(key, flag, f"--{key.replace('_', '-')}")
    return {key: config[key] for key in defaults}


def _check_lists(config: dict, allowed):
    for key, value in config.items():
        if isinstance(value, list) and key not in allowed:
            raise ConfigError(f"key {key!r} cannot take a list of values")


def expand_sweep(config: dict) -> list:
    """Cartesian product over list-valued sweepable keys, in field order."""
    axes = [k for k, f in FIELDS.items() if f.metadata["sweep"] and isinstance(config.get(k), list)]
    _check_lists(config, axes)
    return [dict(config, **dict(zip(axes, combo)))
            for combo in itertools.product(*(config[k] for k in axes))]


def _experiment(point: dict) -> ExperimentConfig:
    try:
        return ExperimentConfig(**{FIELDS[key].name: value for key, value in point.items()})
    except ValueError as exc:
        raise ConfigError(str(exc))


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, list):
        return ";".join(_fmt(v) for v in value)
    return str(value)


@dataclass
class RunManifest:
    """Reproducibility record written next to every CSV."""

    command: str
    version: str
    config: dict
    output_csv: str
    sha256: str

    def write(self, path: Path):
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        try:
            return cls(**json.loads(Path(path).read_text(encoding="utf-8")))
        except (OSError, ValueError, TypeError) as exc:  # unreadable, not UTF-8 JSON, or wrong keys
            raise ConfigError(f"{path}: not a readable manifest ({exc})")


def _emit(out_dir: Path, tag: str, command: str, config: dict, header, rows):
    # a cell holding a comma (an error message, say) is quoted; the rest is
    # written as a plain comma join, one "\n"-terminated line per row
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows([header, *rows])
    data = text.getvalue().encode()
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{tag}.csv"
    csv_path.write_bytes(data)
    RunManifest(
        command=command,
        version=__version__,
        config={k: _fmt(v) for k, v in config.items()},
        output_csv=csv_path.name,
        sha256=hashlib.sha256(data).hexdigest(),
    ).write(out_dir / f"{tag}.manifest.json")
    print(f"wrote {csv_path} ({len(rows)} rows)")


def _sweep_rows(points, entries, max_users):
    keys = [k for k, f in FIELDS.items() if f.metadata["column"]]
    header = keys + ["taur"]
    header += [f"mean_rate_user_{i + 1}" for i in range(max_users)]
    header += [f"rate_std_user_{i + 1}" for i in range(max_users)]
    header += ["error"]
    rows = []
    for point, entry in zip(points, entries):
        row = [_fmt(point[k]) for k in keys]
        if entry.error is None:
            stats = entry.stats
            row.append(_fmt(stats.taur))
            rates = [_fmt(r) for r in stats.mean_rate]
            stds = [_fmt(s) for s in stats.rate_std]
            pad = max_users - stats.mean_rate.size
            row += rates + [""] * pad + stds + [""] * pad + [""]
        else:
            row += [""] * (1 + 2 * max_users) + [f"{type(entry.error).__name__}: {entry.error}"]
        rows.append(row)
    return header, rows


def cmd_sweep(args, policy: str) -> int:
    config = resolve_config(args)
    config["policy"] = policy
    points = expand_sweep(config)
    experiments = [_experiment(p) for p in points]
    entries = sweep(experiments)
    max_users = max(p["users"] for p in points)
    header, rows = _sweep_rows(points, entries, max_users)
    tag = args.tag or args.command.replace("-", "_")
    _emit(_out_dir(args), tag, args.command, config, header, rows)
    failures = [e for e in entries if e.error is not None]
    for entry in failures:
        print(f"sweep point failed: {entry.error}", file=sys.stderr)
    return 3 if failures else 0


def cmd_fairness(args) -> int:
    config = resolve_config(args, FAIRNESS_KEYS)
    _check_lists(config, PER_USER)
    experiment = _experiment({key: config[key] for key in FAIRNESS_SHARED})
    weights, report = adapt_weights(
        experiment.channel(), experiment.utilities(), experiment.link(),
        n_samples=experiment.n_frames, seed=experiment.seed,
        **{key: config[key] for key in FAIRNESS_KNOBS},
    )

    n = experiment.n_users
    per_user = {key: experiment.per_user(key).tolist() for key in PER_USER}
    header = [*FAIRNESS_SHARED, "tolerance", "step", "iterations", "spread", "common_value"]
    header += [f"weight_user_{i + 1}" for i in range(n)]
    header += [f"avg_utility_user_{i + 1}" for i in range(n)]
    row = [_fmt(per_user.get(key, config[key])) for key in FAIRNESS_SHARED]
    row += [_fmt(v) for v in (config["tolerance"], config["step"],
                              report.iterations, report.spread, report.common_value)]
    row += [_fmt(w) for w in weights]
    row += [_fmt(u) for u in report.average_utilities]
    tag = args.tag or "fairness"
    _emit(_out_dir(args), tag, "fairness", config, header, [row])
    return 0


def cmd_replay(args) -> int:
    manifest = RunManifest.load(args.manifest)
    parser = build_parser()
    argv = [manifest.command]
    for key, value in manifest.config.items():
        if key == "policy":  # implied by the subcommand itself
            continue
        argv += [f"--{key.replace('_', '-')}", value.replace(";", ",")]
    argv += ["--output", str(_out_dir(args)), "--tag", Path(manifest.output_csv).stem]
    replay_args = parser.parse_args(argv)
    status = replay_args.handler(replay_args)
    if status != 0:
        return status
    produced = _out_dir(args) / manifest.output_csv
    digest = hashlib.sha256(produced.read_bytes()).hexdigest()
    if digest != manifest.sha256:
        print(f"replay mismatch: {produced} sha256 {digest} != recorded {manifest.sha256}",
              file=sys.stderr)
        return 1
    print(f"replay verified: {produced} matches recorded sha256")
    return 0


# ---------------------------------------------------------------------------
# self-check suites


def _suite_ts_grid(seed: int):
    rng = np.random.default_rng(seed)
    for case in range(30):
        n = int(rng.integers(2, 4))
        rates = rng.uniform(0.0, 6.0, size=n)
        rates[int(rng.integers(n))] += 0.5  # keep at least one user live
        concavity = float(rng.uniform(0.05, 5.0))
        utility = LogUtility(concavity)
        shares, _ = allocate_ts(rates, utility)
        value = aggregate_utility(shares, rates, utility)
        _, grid_value = grid_search_shares(rates, utility, step=1e-3)
        if value < grid_value - 1e-6:
            return False, (f"case {case}: rates={rates.tolist()} concavity={concavity} "
                           f"solver={value!r} grid={grid_value!r}")
    return True, "30 instances within 1e-6 of the simplex grid search"


def _suite_greedy_exhaustive(seed: int):
    rng = np.random.default_rng(seed)
    link = LinkBudget(snr_gap_db=8.2)
    for case in range(30):
        n = int(rng.integers(1, 5))
        slots = int(rng.integers(1, 7))
        bits = int(rng.integers(1, 4))
        means = rng.uniform(0.5, 20.0, size=n)
        concavities = rng.uniform(0.05, 5.0, size=n)
        utilities = [LogUtility(float(a)) for a in concavities]
        quantizers = [Quantizer.equal_probability(m, bits) for m in means]
        scheduler = QuantizedScheduler(utilities, quantizers, means, link, slots)
        states = rng.integers(1, 2**bits + 1, size=n)
        greedy = scheduler.greedy_allocate(states)
        best = scheduler.exhaustive_allocate(states)
        if scheduler.objective(states, greedy) != scheduler.objective(states, best):
            return False, (f"case {case}: means={means.tolist()} bits={bits} slots={slots} "
                           f"states={states.tolist()} greedy={greedy.tolist()} "
                           f"exhaustive={best.tolist()}")
    return True, "greedy matches exhaustive enumeration on 30 instances"


def _suite_derivatives(seed: int):
    rng = np.random.default_rng(seed)
    link = LinkBudget(snr_gap_db=3.0)
    for case in range(100):
        u = LogUtility(float(rng.uniform(0.05, 5.0)))
        rate = float(rng.uniform(0.1, 8.0))
        share = float(rng.uniform(0.05, 0.95))
        energy = float(rng.uniform(0.1, 4.0))
        gain = float(rng.uniform(0.1, 10.0))

        analytic = u.marginal_share(rate, share)
        numeric = central_difference(lambda s: float(u.value(s * rate)), share)
        if abs(analytic - numeric) > 1e-6 * max(1.0, abs(analytic)):
            return False, f"case {case}: share marginal {analytic!r} vs fd {numeric!r}"

        analytic = u.marginal_energy(share, energy, gain, link)
        numeric = central_difference(
            lambda s: float(u.value_with_energy(share, s, gain, link)), energy
        )
        if abs(analytic - numeric) > 1e-6 * max(1.0, abs(analytic)):
            return False, f"case {case}: energy marginal {analytic!r} vs fd {numeric!r}"
    return True, "analytic marginals match centered differences at 100 points"


SUITES = {
    "ts-grid": _suite_ts_grid,
    "greedy-exhaustive": _suite_greedy_exhaustive,
    "derivatives": _suite_derivatives,
}


def cmd_selfcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    names = [args.suite] if args.suite else list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    status = 0
    for name in names:
        ok, detail = SUITES[name](args.seed)
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            status = 1
    return status


# ---------------------------------------------------------------------------
# argument plumbing


def _out_dir(args) -> Path:
    if args.output:
        return Path(args.output)
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def _add_common(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--output", help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
    parser.add_argument("--tag", help="basename for the CSV and manifest")
    for key in KEY_TYPES:
        if key == "policy":  # implied by the subcommand
            continue
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key,
                            help=f"override config key {key}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="utilsched",
        description="utility-based time-sharing scheduler experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, policy, doc in (
        ("ts-sweep", "ts", "optimal time sharing sweep"),
        ("gs-sweep", "gs", "gradient scheduling baseline sweep"),
        ("jtpc", "jtpc", "joint time sharing and power control sweep"),
        ("qtsl", "qtsl", "quantized time sharing with limited feedback sweep"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        p.set_defaults(handler=lambda a, pol=policy: cmd_sweep(a, pol))

    p = sub.add_parser("fairness", help="adapt weights until average utilities equalize")
    _add_common(p)
    p.set_defaults(handler=cmd_fairness)

    p = sub.add_parser("selfcheck", help="run oracle-equivalence suites")
    p.add_argument("--suite", help=f"run one suite: {', '.join(SUITES)}")
    p.add_argument("--seed", type=int, default=0, help="seed for the random instances")
    p.set_defaults(handler=cmd_selfcheck)

    p = sub.add_parser("replay", help="re-run a manifest and verify the CSV bytes")
    p.add_argument("manifest", help="path to a .manifest.json file")
    p.add_argument("--output", help="output directory for the replayed CSV")
    p.set_defaults(handler=cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NUMERIC_ERRORS as exc:
        print(f"numeric error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
