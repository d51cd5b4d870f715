"""Command-line entry points.

Subcommands: gen-data, eval-offline, run-online, report, check-grads,
inspect. Every setting is declared once, in SETTINGS: its flag is
--<name> and its key in a JSON config file (--config) is <name>. An
explicit flag wins over the config file, which wins over the default.
"""

from __future__ import annotations

import argparse
import os
import sys

from .evaluate import eval_offline, eval_online, render_report, result_from_json
from .executor import GroundingConfig, summarize_trace_file
from .geometry import DbscanParams
from .jsonfile import read_json, typed
from .planners import (CorruptedPlanner, CorruptionConfig, ReplayPlanner, corrupt,
                       oracle_factory, with_mask_noise)
from .scene import default_rig
from .tasks import builtin_suite, load_suite

_EPISODES = ("gen-data", "run-online")
_CORRUPTION = ("eval-offline", "run-online")
_ONLINE = ("run-online",)

# name: (kind, default, help, subcommands that take it). The kind is a
# jsonfile kind: int, float, str, bool (a flag without a value; JSON true or
# false) or a tuple of the allowed strings.
SETTINGS = {
    "suite": (str, "builtin", "suite JSON path, or builtin", _EPISODES),
    "resolution": (int, 256, "camera width and height in pixels", _EPISODES),
    "episodes": (int, 20, "episodes per task variation (and run)", _EPISODES),
    "runs": (int, 5, "seeded runs per task variation", _ONLINE),
    "seed": (int, 0, "base seed", _EPISODES + ("check-grads",)),
    "chunk": (int, 5, "plan steps executed per planner call", _ONLINE),
    "planner": (("oracle", "corrupted"), "oracle", "planner to evaluate", _CORRUPTION),
    "p-wrong-object": (float, 0.0, "corrupted planner: chance of a wrong object", _CORRUPTION),
    "p-wrong-action": (float, 0.0, "corrupted planner: chance of a wrong action", _CORRUPTION),
    "p-malformed": (float, 0.0, "corrupted planner: chance of a malformed plan", _CORRUPTION),
    "corruption-seed": (int, 0, "corrupted planner: seed of its draws", _CORRUPTION),
    "sticky": (bool, False, "corrupted planner: draw one failure mode per episode",
               _CORRUPTION),
    "mask-noise": (float, 0.0, "mask speckle level: share of each mask's pixels moved", _ONLINE),
    "dbscan-filter": (bool, False, "drop DBSCAN outliers from grounded points", _ONLINE),
    "dbscan-eps": (float, 0.02, "DBSCAN neighbourhood radius in metres", _ONLINE),
    "dbscan-min-pts": (int, 5, "DBSCAN neighbours that make a core point", _ONLINE),
}


def _config_from_json(config: dict) -> dict:
    """The config file's settings, each checked against its SETTINGS kind."""
    for name, value in config.items():
        if name not in SETTINGS:
            raise ValueError(f"unknown field {name!r}")
        kind = SETTINGS[name][0]
        typed(value, kind, name)
        if kind is float:
            config[name] = float(value)
    return config


def _settings(args, config: dict) -> dict:
    """{name: value} for each setting args.command takes: flag, else config, else default."""
    values = {}
    for name, (_, default, _, commands) in SETTINGS.items():
        if args.command in commands:
            flag = getattr(args, name.replace("-", "_"))
            values[name] = config.get(name, default) if flag is None else flag
    return values


def _suite_from(s: dict) -> list:
    return builtin_suite() if s["suite"] == "builtin" else load_suite(s["suite"])


def _grounding_from(s: dict) -> GroundingConfig:
    params = DbscanParams(eps=s["dbscan-eps"], min_pts=s["dbscan-min-pts"])
    return GroundingConfig(dbscan_enabled=s["dbscan-filter"], dbscan=params)


def _corruption_from(s: dict) -> CorruptionConfig | None:
    """The corruption the chosen planner applies; None for the plain oracle."""
    if s["planner"] == "oracle":
        return None
    return CorruptionConfig(
        p_wrong_object=s["p-wrong-object"],
        p_wrong_action=s["p-wrong-action"],
        p_malformed=s["p-malformed"],
        transient=not s["sticky"],
        seed=s["corruption-seed"],
    )


def _planner_factory_from(s: dict):
    factory = oracle_factory
    cfg = _corruption_from(s)
    if cfg is not None:
        factory = corrupt(factory, cfg)
    if s["mask-noise"]:
        factory = with_mask_noise(factory, s["mask-noise"], seed=s["seed"])
    return factory


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
            if not text.endswith("\n"):
                f.write("\n")
    else:
        print(text)


def cmd_gen_data(args, s: dict) -> int:
    from .datasets import gen_long_dataset, gen_plan_dataset, gen_refexp_dataset

    gen = {
        "plan": gen_plan_dataset,
        "refexp": gen_refexp_dataset,
        "long": gen_long_dataset,
    }[args.kind]
    if s["episodes"] < 1:  # the library writes an empty dataset; offline scoring refuses one
        raise ValueError(f"episodes must be >= 1, got {s['episodes']}")
    manifest = gen(
        _suite_from(s),
        episodes_per_variation=s["episodes"],
        seed=s["seed"],
        out_dir=args.out,
        rig=default_rig(s["resolution"]),
    )
    print(
        f"wrote {manifest.total_records} {manifest.kind} records from "
        f"{manifest.total_episodes} episodes to {args.out} "
        f"(mean keysteps/episode {manifest.mean_keysteps_per_episode:.2f})"
    )
    return 0


def cmd_eval_offline(args, s: dict) -> int:
    from .datasets import DatasetReadError, read_dataset

    cfg = _corruption_from(s)
    manifest, records = read_dataset(args.data)
    if not records:
        raise DatasetReadError(os.path.join(args.data, "manifest.json"), 0,
                               "the dataset has no records to score")
    if manifest.kind not in ("plan", "long"):
        raise ValueError(f"{args.data}: eval-offline scores plan or long datasets, "
                         f"not {manifest.kind!r}")
    planner = ReplayPlanner.from_records(records)
    if cfg is not None:
        planner = CorruptedPlanner(planner, cfg)
    result = eval_offline(records, planner)
    _write_or_print(render_report(result, args.format), args.out)
    return 0


def cmd_run_online(args, s: dict) -> int:
    result = eval_online(
        _suite_from(s),
        _planner_factory_from(s),
        chunk=s["chunk"],
        episodes=s["episodes"],
        runs=s["runs"],
        seed=s["seed"],
        rig=default_rig(s["resolution"]),
        grounding=_grounding_from(s),
    )
    _write_or_print(render_report(result, args.format), args.out)
    return 0


def cmd_report(args, s: dict) -> int:
    result = read_json(args.infile, result_from_json)
    _write_or_print(render_report(result, args.format), args.out)
    return 0


def cmd_check_grads(args, s: dict) -> int:
    from .objectives import gradient_check_report

    worst = gradient_check_report(seed=s["seed"], trials=args.trials)
    ok = True
    for name, err in sorted(worst.items()):
        status = "ok" if err < 1e-4 else "FAIL"
        if err >= 1e-4:
            ok = False
        print(f"{name:<6} max relative gradient error {err:.3e}  [{status}]")
    return 0 if ok else 1


def cmd_inspect(args, s: dict) -> int:
    print(summarize_trace_file(args.trace))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundplan",
        description="Grounded tabletop planning: data generation, execution, evaluation",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for command, func, text in (
        ("gen-data", cmd_gen_data, "generate a dataset from oracle episodes"),
        ("eval-offline", cmd_eval_offline, "grounded-planning evaluation on a dataset"),
        ("run-online", cmd_run_online, "closed-loop task-completion evaluation"),
        ("report", cmd_report, "re-render a saved JSON results file"),
        ("check-grads", cmd_check_grads, "finite-difference gradient audit"),
        ("inspect", cmd_inspect, "summarize an episode trace JSONL file"),
    ):
        p = commands[command] = sub.add_parser(command, help=text)
        p.set_defaults(func=func)
        for name, (kind, default, help_text, takers) in SETTINGS.items():
            if command in takers:
                kw = ({"action": "store_const", "const": True} if kind is bool
                      else {"choices": kind} if isinstance(kind, tuple) else {"type": kind})
                p.add_argument(f"--{name}", help=f"{help_text} (default: {default})", **kw)

    commands["gen-data"].add_argument("--kind", choices=("plan", "refexp", "long"),
                                      default="plan")
    commands["gen-data"].add_argument("--out", required=True, help="dataset directory")
    commands["eval-offline"].add_argument("--data", required=True,
                                          help="plan or long dataset directory")
    commands["report"].add_argument("--in", dest="infile", required=True)
    for command in ("eval-offline", "run-online", "report"):
        commands[command].add_argument("--format", choices=("table", "json", "csv"),
                                       default="table")
        commands[command].add_argument("--out")
    commands["check-grads"].add_argument("--trials", type=int, default=100)
    commands["inspect"].add_argument("--trace", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = read_json(args.config, _config_from_json) if args.config else {}
        return args.func(args, _settings(args, config))
    except (RuntimeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
