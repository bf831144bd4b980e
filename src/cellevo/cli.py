"""Command-line front end.

Subcommands: simulate, evolve-ca, evolve-pattern, metrics, render, presets.
Exit codes: 0 success, 1 usage error, 2 runtime error. Settings resolve as
CLI flags > --config JSON file > built-in defaults, and all output is
deterministic given the master --seed (no timestamps, no global RNG).
"""
from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path

from .config import (
    EvolveCaConfig,
    MetricsConfig,
    PatternEvoConfig,
    SimulateConfig,
    load_config_file,
)
from .grid import place_centered, seeded_patches, substream
from .halting import MODES, check_mode, evolve_rules
from .io import (
    load_pattern,
    load_rule,
    save_history,
    save_metrics,
    save_metrics_csv,
    save_pattern,
    save_rule,
    write_frames,
    write_json,
)
from .metrics import CSV_HEADER, compute_metrics
from .patterns import check_tile, evolve_patterns, random_genome, synthesize
from .rules import check_kernel, load_preset, preset_names, run


class _UsageError(Exception):
    """Bad arguments, unknown names, invalid config — exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage errors to 1
        raise _UsageError(message)


@contextmanager
def _usage_errors():
    """Re-raise a bad name, value or input file in the block as a usage error."""
    try:
        yield
    except KeyError as exc:  # str() would quote the message
        raise _UsageError(exc.args[0]) from exc
    except (ValueError, OSError) as exc:
        raise _UsageError(str(exc)) from exc


def _resolve_rule(args):
    with _usage_errors():
        if getattr(args, "rule_file", None):
            return load_rule(args.rule_file)
        return load_preset(args.rule)


def _int_at_least(low: int):
    """An argparse type: an integer that is at least `low`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


# The config-backed flags of each subcommand: its config class and the
# fields that get a flag. "fitness." marks a field of evolve-ca's nested
# fitness section. Flag --patch-side sets field patch_side, and its type is
# the type of the field's default.
_CONFIG_FLAGS = {
    "simulate": (SimulateConfig, ("side", "steps", "init", "patch_side",
                                  "frames_every")),
    "evolve-ca": (EvolveCaConfig, (
        "generations", "popsize", "sigma0", "dt", "fitness.n_grids",
        "fitness.grid_side", "fitness.horizon", "fitness.epochs")),
    "evolve-pattern": (PatternEvoConfig, ("grid_side", "tile_side", "steps",
                                          "population", "generations")),
    "metrics": (MetricsConfig, ("n_grids", "grid_side", "patch_side",
                                "box_side", "window")),
}
_FLAG_HELP = {
    "fitness.n_grids": "halting dataset size per candidate",
    "frames_every": "write a PGM frame every K steps (0 = no frames)",
}


def _build_config(args):
    """Overlay the given config-backed flags on the optional --config file.

    A fitness flag replaces one key of the file's fitness section and
    keeps the others.
    """
    cls, names = _CONFIG_FLAGS[args.command]
    with _usage_errors():
        data = dict(load_config_file(args.config)) if args.config else {}
        for name in names:
            section, _, key = name.rpartition(".")
            value = getattr(args, key)
            if value is not None:
                target = data
                if section:
                    target = data.get(section, {})
                    if not isinstance(target, dict):
                        break  # from_dict rejects the section by name
                    target = data[section] = dict(target)
                target[key] = value
        return cls.from_dict(data)


def _setup(args, check=None):
    """Build the config, run the subcommand's `check(cfg)`, then create --out."""
    cfg = _build_config(args)
    if check is not None:
        with _usage_errors():
            check(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out


class _FrameWriter:
    """A `run` frame consumer: writes each frame through write_frames as it
    arrives, as frame_000000.pgm, frame_000001.pgm, ... in `directory`."""

    def __init__(self, directory: Path):
        self.directory, self.count = directory, 0

    def __call__(self, grid):
        write_frames([grid], self.directory, start=self.count)
        self.count += 1


def _cmd_presets(args) -> int:
    for name in preset_names():
        print(name)
    return 0


def _cmd_simulate(args) -> int:
    rule = _resolve_rule(args)
    cfg, out = _setup(
        args, lambda cfg: check_kernel(rule.kernel, cfg.side, "side"))
    # Grid 0 of a seeded batch; --init uniform is a patch as large as the grid.
    patch = cfg.patch_side if cfg.init == "patch" else cfg.side
    state = seeded_patches(1, cfg.side, patch, args.seed)[0]

    # A zero-step run writes no frames/ directory.
    every = cfg.frames_every if cfg.steps else 0
    res = run(state, rule, cfg.steps, every=every,
              on_frame=_FrameWriter(out / "frames"))

    summary = {
        "rule": rule.name,
        "framework": rule.framework,
        "side": cfg.side,
        "steps": cfg.steps,
        "init": cfg.init,
        "seed": args.seed,
        "final_mean": float(res.final.mean()),
        "final_max": float(res.final.max()),
        "means": res.means.tolist(),
        "maxes": res.maxes.tolist(),
    }
    path = write_json(summary, out / "summary.json")
    print(
        f"{rule.name}: {cfg.steps} steps, final mean {summary['final_mean']:.6g},"
        f" final max {summary['final_max']:.6g} -> {path}"
    )
    return 0


def _cmd_evolve_ca(args) -> int:
    cfg, out = _setup(args, lambda cfg: check_mode(args.mode, cfg))
    result = evolve_rules(args.mode, cfg, args.seed, workers=args.workers)
    save_history(result.history, out / "history.jsonl")
    save_rule(result.best_rule, out / "best_rule.json")
    print(
        f"{args.mode}: {cfg.generations} generations, {result.evaluations}"
        f" evaluations, best fitness {result.best_fitness:.6g} -> {out}"
    )
    return 0


def _cmd_evolve_pattern(args) -> int:
    rule = _resolve_rule(args)
    cfg, out = _setup(args, lambda cfg: check_tile(rule, cfg))
    result = evolve_patterns(rule, cfg, args.seed, workers=args.workers)
    save_history(result.history, out / "history.jsonl")
    # Reference the rule by name when it came from a shipped preset so the
    # pattern file stays self-describing either way.
    rule_ref = args.rule if not args.rule_file else rule
    save_pattern(
        out / "best_pattern.json",
        name=f"{rule.name}-evolved-{args.seed}",
        tile=result.best_tile,
        rule=rule_ref,
    )
    best = result.best_fitness
    print(
        f"{rule.name}: {cfg.generations} generations, best total {best.total:.4g}"
        f" (motility {best.motility:.4g}, survived {best.survived}) -> {out}"
    )
    return 0


def _cmd_metrics(args) -> int:
    rule = _resolve_rule(args)
    cfg, out = _setup(
        args, lambda cfg: check_kernel(rule.kernel, cfg.grid_side))
    report = compute_metrics(rule, cfg, args.seed)
    save_metrics(report, out / "metrics.json")
    save_metrics_csv([report], out / "metrics.csv")
    print(CSV_HEADER)
    print(report.csv_row())
    return 0


def _cmd_render(args) -> int:
    with _usage_errors():
        if args.pattern:
            pattern = load_pattern(args.pattern)
            rule, tile = pattern.rule, pattern.tile
            label = pattern.name
        else:
            # Demo mode: render a random synthesis tile under the Orbium rule.
            rule = load_preset("Orbium")
            tile = synthesize(random_genome(substream(args.seed, 0)),
                              4 * rule.kernel.radius)
            label = "demo"
        check_kernel(rule.kernel, args.grid_side)
        state = place_centered(args.grid_side, tile)
    writer = _FrameWriter(Path(args.out) / "frames")
    run(state, rule, args.steps, every=args.every, on_frame=writer)
    print(f"{label}: {writer.count} frames -> {writer.directory}")
    return 0


def _add_common(parser, command):
    """--seed, --out, --config and one flag per config field of `command`."""
    parser.add_argument("--seed", type=_int_at_least(0), default=0,
                        help="master RNG seed (default %(default)s)")
    parser.add_argument("--out", default=".",
                        help="output directory (default %(default)s)")
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="JSON config file; flags override its keys")
    cls, names = _CONFIG_FLAGS[command]
    defaults = cls()
    for name in names:
        default = defaults
        for part in name.split("."):
            default = getattr(default, part)
        parser.add_argument("--" + part.replace("_", "-"), type=type(default),
                            default=None, help=_FLAG_HELP.get(name))


def _add_rule_args(parser):
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--rule", default="Orbium",
                       help="preset rule name (default %(default)s)")
    group.add_argument("--rule-file", default=None, metavar="FILE",
                       help="rule JSON file instead of a preset")


def build_parser() -> _Parser:
    parser = _Parser(prog="cellevo",
                     description="Continuous cellular automata: simulation, "
                                 "rule evolution, and glider search.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("simulate", help="run one grid and write summaries")
    _add_rule_args(p)
    _add_common(p, "simulate")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("evolve-ca", help="evolve rule parameters for "
                                         "halting unpredictability")
    _add_common(p, "evolve-ca")
    p.add_argument("--mode", default="simple", help=" | ".join(MODES))
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.set_defaults(handler=_cmd_evolve_ca)

    p = sub.add_parser("evolve-pattern", help="evolve synthesis tiles under "
                                              "a fixed rule")
    _add_rule_args(p)
    _add_common(p, "evolve-pattern")
    p.add_argument("--workers", type=_int_at_least(1), default=1)
    p.set_defaults(handler=_cmd_evolve_pattern)

    p = sub.add_parser("metrics", help="fertility/mortality over seeded grids")
    _add_rule_args(p)
    _add_common(p, "metrics")
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("render", help="write PGM frames for a stored pattern")
    p.add_argument("--pattern", default=None, metavar="FILE",
                   help="pattern JSON file (default: a seeded demo tile "
                        "under Orbium)")
    p.add_argument("--seed", type=_int_at_least(0), default=0,
                   help="seed for the demo tile (default %(default)s)")
    p.add_argument("--out", default=".",
                   help="output directory (default %(default)s)")
    p.add_argument("--grid-side", type=int, default=128)
    p.add_argument("--steps", type=_int_at_least(0), default=256)
    p.add_argument("--every", type=_int_at_least(1), default=4,
                   help="frame stride in steps (default %(default)s)")
    p.set_defaults(handler=_cmd_render)

    p = sub.add_parser("presets", help="list shipped rule presets")
    p.set_defaults(handler=_cmd_presets)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except Exception as exc:
        print(f"cellevo: error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, _UsageError) else 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
