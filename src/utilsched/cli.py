"""Command-line front end: seeded sweeps to CSV, verified by replay.

Subcommands
-----------
ts-sweep / gs-sweep / jtpc / qtsl
    Expand the config's list-valued keys into a sweep, run each point, and
    write one CSV row per point plus a JSON run manifest.
fairness
    Adapt per-user weights until average utilities equalize; write the
    final weights and report as a single-row CSV (list-valued keys here are
    per-user values, not sweep axes).
replay
    Re-run a recorded manifest and verify the CSV reproduces byte for byte.

Config files are flat ``key = value`` text; every key is also exposed as a
``--key`` flag which overrides the file, and every subcommand accepts every
key, ignoring those it does not read.  The sweep keys, by name, type, default
and sweep axis, are the fields of ``ExperimentConfig``; fairness reads six of
them plus the ``tolerance``, ``step`` and ``max_iterations`` parameters of
``adapt_weights``, with that signature's defaults.  Exit codes: 0 success,
1 replay mismatch, 2 invalid config, 3 numeric failure.
"""

import argparse
import csv
import functools
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
from .errors import NUMERIC_ERRORS, ConfigError
from .fairness import adapt_weights
from .simulate import ExperimentConfig, sweep

OUTPUT_DIR_ENV = "UTILSCHED_OUTDIR"

# the sweep keys, which are ExperimentConfig's fields, in the sweep CSV's column order
FIELDS = {f.name: f for f in fields(ExperimentConfig)}
# the keys of the sweep commands, with their defaults
SWEEP_KEYS = {key: f.default for key, f in FIELDS.items()}
# fairness reads these ExperimentConfig keys, then these adapt_weights knobs
FAIRNESS_SHARED = ("users", "mean_snr_db", "snr_gap_db", "concavity", "frames", "seed")
FAIRNESS_KNOBS = ("tolerance", "step", "max_iterations")
FAIRNESS_KEYS = {key: SWEEP_KEYS[key] for key in FAIRNESS_SHARED} | {
    key: inspect.signature(adapt_weights).parameters[key].default for key in FAIRNESS_KNOBS
}
# sweep subcommand -> (policy, help)
SWEEPS = {
    "ts-sweep": ("ts", "optimal time sharing sweep"),
    "gs-sweep": ("gs", "gradient scheduling baseline sweep"),
    "jtpc": ("jtpc", "joint time sharing and power control sweep"),
    "qtsl": ("qtsl", "quantized time sharing with limited feedback sweep"),
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
        return ExperimentConfig(**point)
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
            manifest = cls(**json.loads(Path(path).read_text(encoding="utf-8")))
        except (OSError, ValueError, TypeError) as exc:  # unreadable, not UTF-8 JSON, or wrong keys
            raise ConfigError(f"{path}: not a readable manifest ({exc})")
        if manifest.command not in (*SWEEPS, "fairness"):
            raise ConfigError(f"{path}: command {manifest.command!r} is not one of {[*SWEEPS, 'fairness']}")
        config = manifest.config
        if not (isinstance(config, dict) and all(k in KEY_TYPES and isinstance(v, str) for k, v in config.items())):
            raise ConfigError(f"{path}: config does not map known keys to str values")
        name = manifest.output_csv
        if not (isinstance(name, str) and Path(name).name == name and Path(name).suffix == ".csv"):
            raise ConfigError(f"{path}: output_csv {name!r} is not a bare <name>.csv")
        digest = manifest.sha256
        if not (isinstance(digest, str) and len(digest) == 64 and set(digest) <= set("0123456789abcdef")):
            raise ConfigError(f"{path}: sha256 {digest!r} is not 64 lowercase hex digits")
        return manifest


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
        frames=experiment.frames, seed=experiment.seed,
        **{key: config[key] for key in FAIRNESS_KNOBS},
    )

    n = experiment.users
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
    argv = [manifest.command]
    for key, value in manifest.config.items():
        if key == "policy":  # implied by the subcommand itself
            continue
        argv.append(f"--{key.replace('_', '-')}={value.replace(';', ',')}")
    tag = Path(manifest.output_csv).stem
    argv += ["--output", str(_out_dir(args)), f"--tag={tag}"]
    replay_args = _parser(build_parser).parse_args(argv)
    status = replay_args.handler(replay_args)
    if status != 0:
        return status
    produced = _out_dir(args) / f"{tag}.csv"  # the file the re-run wrote
    digest = hashlib.sha256(produced.read_bytes()).hexdigest()
    if digest != manifest.sha256:
        print(f"replay mismatch: {produced} sha256 {digest} != recorded {manifest.sha256}",
              file=sys.stderr)
        return 1
    print(f"replay verified: {produced} matches recorded sha256")
    return 0


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

    for name, (policy, doc) in SWEEPS.items():
        p = sub.add_parser(name, help=doc)
        _add_common(p)
        p.set_defaults(handler=lambda a, pol=policy: cmd_sweep(a, pol))

    p = sub.add_parser("fairness", help="adapt weights until average utilities equalize")
    _add_common(p)
    p.set_defaults(handler=cmd_fairness)

    p = sub.add_parser("replay", help="re-run a manifest and verify the CSV bytes")
    p.add_argument("manifest", help="path to a .manifest.json file")
    p.add_argument("--output", help="output directory for the replayed CSV")
    p.set_defaults(handler=cmd_replay)

    return parser


@functools.cache
def _parser(builder) -> argparse.ArgumentParser:
    # main and replay share one parser per process, since a build costs about
    # 1.7 ms and parsing leaves the parser as it was; keyed on the builder, so
    # a build_parser replaced at run time (by a tracer, say) still takes effect
    return builder()


def main(argv=None) -> int:
    args = _parser(build_parser).parse_args(argv)
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
