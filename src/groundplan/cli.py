"""Command-line entry points.

Subcommands: gen-data, eval-offline, run-online, report, check-grads,
inspect. A JSON config file can preset suite path, rig resolution, chunk
size, DBSCAN parameters and seeds; explicit flags always win.
"""

from __future__ import annotations

import argparse
import json
import sys

from .evaluate import eval_offline, eval_online, render_report, result_from_json
from .executor import GroundingConfig, summarize_trace_file
from .geometry import DbscanParams
from .planners import (CorruptedPlanner, CorruptionConfig, ReplayPlanner, corrupt,
                       oracle_factory, with_mask_noise)
from .scene import default_rig
from .tasks import builtin_suite, load_suite


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path) as f:
        try:
            config = json.load(f)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path} @ byte {e.pos}: {e.msg}") from e
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return config


def _setting(args, config: dict, name: str, default):
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    return config.get(name, default)


def _suite_from(args, config) -> list:
    path = _setting(args, config, "suite", "builtin")
    if path in (None, "builtin"):
        return builtin_suite()
    return load_suite(path)


def _grounding_from(args, config) -> GroundingConfig:
    dbs = config.get("dbscan", {})
    params = DbscanParams(
        eps=_setting(args, config, "dbscan-eps", dbs.get("eps", 0.02)),
        min_pts=int(_setting(args, config, "dbscan-min-pts", dbs.get("min_pts", 5))),
    )
    enabled = bool(_setting(args, config, "dbscan-filter", config.get("dbscan_filter", False)))
    return GroundingConfig(dbscan_enabled=enabled, dbscan=params)


def _corruption_from(args, config) -> CorruptionConfig | None:
    """The corruption the chosen planner applies; None for the plain oracle."""
    name = _setting(args, config, "planner", "oracle")
    if name == "oracle":
        return None
    if name != "corrupted":
        raise SystemExit(f"unknown planner {name!r}")
    return CorruptionConfig(
        p_wrong_object=float(_setting(args, config, "p-wrong-object", 0.0)),
        p_wrong_action=float(_setting(args, config, "p-wrong-action", 0.0)),
        p_malformed=float(_setting(args, config, "p-malformed", 0.0)),
        transient=not bool(_setting(args, config, "sticky", False)),
        seed=int(_setting(args, config, "corruption-seed", 0)),
    )


def _planner_factory_from(args, config):
    factory = oracle_factory
    cfg = _corruption_from(args, config)
    if cfg is not None:
        factory = corrupt(factory, cfg)
    noise = _setting(args, config, "mask-noise", 0.0)
    if noise:
        factory = with_mask_noise(factory, float(noise),
                                  seed=int(_setting(args, config, "seed", 0)))
    return factory


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as f:
            f.write(text)
            if not text.endswith("\n"):
                f.write("\n")
    else:
        print(text)


def cmd_gen_data(args, config) -> int:
    from .datasets import gen_long_dataset, gen_plan_dataset, gen_refexp_dataset

    suite = _suite_from(args, config)
    rig = default_rig(int(_setting(args, config, "resolution", 256)))
    gen = {
        "plan": gen_plan_dataset,
        "refexp": gen_refexp_dataset,
        "long": gen_long_dataset,
    }[args.kind]
    manifest = gen(
        suite,
        episodes_per_variation=int(_setting(args, config, "episodes", 20)),
        seed=int(_setting(args, config, "seed", 0)),
        out_dir=args.out,
        rig=rig,
    )
    print(
        f"wrote {manifest.total_records} {manifest.kind} records from "
        f"{manifest.total_episodes} episodes to {args.out} "
        f"(mean keysteps/episode {manifest.mean_keysteps_per_episode:.2f})"
    )
    return 0


def cmd_eval_offline(args, config) -> int:
    cfg = _corruption_from(args, config)
    planner = ReplayPlanner.from_dataset(args.data)
    if cfg is not None:
        planner = CorruptedPlanner(planner, cfg)
    result = eval_offline(args.data, planner)
    _write_or_print(render_report(result, args.format), args.out)
    return 0


def cmd_run_online(args, config) -> int:
    suite = _suite_from(args, config)
    factory = _planner_factory_from(args, config)
    rig = default_rig(int(_setting(args, config, "resolution", 256)))
    result = eval_online(
        suite,
        factory,
        chunk=int(_setting(args, config, "chunk", 5)),
        episodes=int(_setting(args, config, "episodes", 20)),
        runs=int(_setting(args, config, "runs", 5)),
        seed=int(_setting(args, config, "seed", 0)),
        rig=rig,
        grounding=_grounding_from(args, config),
    )
    _write_or_print(render_report(result, args.format), args.out)
    return 0


def cmd_report(args, config) -> int:
    with open(args.infile) as f:
        result = result_from_json(json.load(f))
    _write_or_print(render_report(result, args.format), args.out)
    return 0


def cmd_check_grads(args, config) -> int:
    from .objectives import gradient_check_report

    worst = gradient_check_report(
        seed=int(_setting(args, config, "seed", 0)),
        trials=int(args.trials),
    )
    ok = True
    for name, err in sorted(worst.items()):
        status = "ok" if err < 1e-4 else "FAIL"
        if err >= 1e-4:
            ok = False
        print(f"{name:<6} max relative gradient error {err:.3e}  [{status}]")
    return 0 if ok else 1


def cmd_inspect(args, config) -> int:
    print(summarize_trace_file(args.trace))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groundplan",
        description="Grounded tabletop planning: data generation, execution, evaluation",
    )
    parser.add_argument("--config", help="JSON config file; flags override it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset from oracle episodes")
    p.add_argument("--suite", help="suite JSON path (default: builtin)")
    p.add_argument("--kind", choices=("plan", "refexp", "long"), default="plan")
    p.add_argument("--episodes", type=int, help="episodes per task variation")
    p.add_argument("--seed", type=int)
    p.add_argument("--resolution", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("eval-offline", help="grounded-planning evaluation on a dataset")
    p.add_argument("--data", required=True, help="plan dataset directory")
    p.add_argument("--planner", choices=("oracle", "corrupted"))
    p.add_argument("--p-wrong-object", type=float, dest="p_wrong_object")
    p.add_argument("--p-wrong-action", type=float, dest="p_wrong_action")
    p.add_argument("--p-malformed", type=float, dest="p_malformed")
    p.add_argument("--corruption-seed", type=int, dest="corruption_seed")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval_offline)

    p = sub.add_parser("run-online", help="closed-loop task-completion evaluation")
    p.add_argument("--suite")
    p.add_argument("--planner", choices=("oracle", "corrupted"))
    p.add_argument("--p-wrong-object", type=float, dest="p_wrong_object")
    p.add_argument("--p-wrong-action", type=float, dest="p_wrong_action")
    p.add_argument("--p-malformed", type=float, dest="p_malformed")
    p.add_argument("--corruption-seed", type=int, dest="corruption_seed")
    p.add_argument("--sticky", action="store_const", const=True, dest="sticky")
    p.add_argument("--chunk", type=int)
    p.add_argument("--episodes", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--resolution", type=int)
    p.add_argument("--dbscan-filter", action="store_const", const=True, dest="dbscan_filter")
    p.add_argument("--dbscan-eps", type=float, dest="dbscan_eps")
    p.add_argument("--dbscan-min-pts", type=int, dest="dbscan_min_pts")
    p.add_argument("--mask-noise", type=float, dest="mask_noise")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_run_online)

    p = sub.add_parser("report", help="re-render a saved JSON results file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("check-grads", help="finite-difference gradient audit")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_check_grads)

    p = sub.add_parser("inspect", help="summarize an episode trace JSONL file")
    p.add_argument("--trace", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, _load_config(args.config))
    except (RuntimeError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
