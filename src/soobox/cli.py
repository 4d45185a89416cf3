"""Command-line front end.

Single runs and grids share one flag surface: `--function` and `--dim`
accept comma-separated lists, and any cross product larger than one cell
becomes a grid with a `summary.csv`.  Flags only map text to values, and
those that set a RunConfig field are passed only when given, so RunConfig
alone holds their defaults and checks.  Exit codes: 0 on success, 1 on a
usage error (including every invalid flag value), 2 on a runtime failure.

Examples:

    soobox --function sphere --dim 2 --budget 20000 --algo soo --out runs/
    soobox --function all --dim 2,10 --cec-budget --algo soo,random --out runs/
    soobox --suite-manifest --dim 10
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import SooboxError
from .harness import (
    ALGORITHMS,
    FORMATS,
    RunConfig,
    grid_configs,
    run_experiment,
    run_grid,
)
from .objectives import SUITE_NAMES, check_count, suite_manifest
from .tree import DepthSchedule


# RunConfig fields that flags set for every cell alike; function, dim and
# algorithm come from the cross product
_SHARED_FIELDS = {f.name for f in dataclasses.fields(RunConfig)} - {
    "function",
    "dim",
    "algorithm",
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the interface contract wants 1, which
    # main gives every ValueError
    def error(self, message):
        raise ValueError(message)


def _parse_functions(text: str) -> list[str]:
    names = []
    for name in text.split(","):
        name = name.strip()
        names.extend(SUITE_NAMES if name == "all" else [name])
    return names


def _parse_dims(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from None


def _parse_schedule(text: str) -> DepthSchedule:
    if text in ("paper", "log32"):
        return DepthSchedule.log32()
    if text == "unbounded":
        return DepthSchedule.unbounded()
    if text.startswith("const:"):
        try:
            return DepthSchedule.constant(int(text.split(":", 1)[1]))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad constant depth in {text!r}"
            ) from None
    raise argparse.ArgumentTypeError(
        f"unknown depth schedule {text!r}; expected paper, const:<h>, or unbounded"
    )


def _parse_formats(text: str) -> tuple[str, ...]:
    return FORMATS if text == "both" else (text,)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="soobox",
        description="Budget-constrained black-box minimization on the benchmark suite.",
    )
    parser.add_argument(
        "--function",
        type=_parse_functions,
        help="suite function name, comma-separated list, or 'all'",
    )
    parser.add_argument(
        "--dim", type=_parse_dims, help="dimension or comma-separated list"
    )
    parser.add_argument(
        "--algo",
        type=lambda s: [a.strip() for a in s.split(",")],
        default=[RunConfig.algorithm],
        help=f"algorithm or comma-separated list; choose from {', '.join(ALGORITHMS)}",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes for grid cells"
    )
    # flags that set a RunConfig field: dest is the field's name, and an
    # absent flag leaves no attribute, so RunConfig's default applies
    config_flag = parser.add_argument_group(
        "run settings", argument_default=argparse.SUPPRESS
    ).add_argument
    config_flag("--budget", type=int, help="evaluation budget")
    config_flag(
        "--cec-budget",
        action="store_true",
        help="use the protocol budget of 10^4 evaluations per dimension",
    )
    config_flag(
        "--refine-fraction",
        type=float,
        help="budget share reserved for local refinement (soo-refine)",
    )
    config_flag("--s-children", type=int, help="children per split, odd >= 3")
    config_flag(
        "--depth-schedule",
        type=_parse_schedule,
        help="depth cap rule: paper, const:<h>, or unbounded",
    )
    config_flag("--seed", type=int, help="seed for the random baseline")
    config_flag(
        "--grid-resolution",
        type=int,
        help="divisions per dimension for the ucb-grid baseline",
    )
    config_flag(
        "--out",
        dest="output_dir",
        type=Path,
        metavar="OUT",
        help="output directory for artifacts",
    )
    config_flag(
        "--format",
        dest="formats",
        type=_parse_formats,
        metavar="{csv,json,both}",
        help="which per-run artifacts to write",
    )
    parser.add_argument(
        "--suite-manifest",
        action="store_true",
        help="print the suite manifest of each --dim (default 2) as JSON and exit",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)

        if args.suite_manifest:
            entries = [entry for dim in args.dim or [2] for entry in suite_manifest(dim)]
            print(json.dumps(entries, indent=2))
            return 0

        if not args.function:
            parser.error("--function is required")
        if not args.dim:
            parser.error("--dim is required")
        check_count(args.jobs, "jobs", 1)
        fields = {k: v for k, v in vars(args).items() if k in _SHARED_FIELDS}
        configs = grid_configs(args.function, args.dim, args.algo, **fields)
    except ValueError as err:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)

    try:
        if len(configs) == 1:
            config = configs[0]
            result = run_experiment(config)
            print(
                f"{config.stem}: best_value={result.best_value:.17g} "
                f"ratio={result.ratio:.17g} evals={result.evals_used}"
            )
        else:
            summary = run_grid(
                args.function, args.dim, args.algo, jobs=args.jobs, **fields
            )
            print(summary.to_csv_text(), end="")
        return 0
    except (SooboxError, ValueError, OSError) as err:
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
