"""Command-line interface.

    jumpfilter simulate   --config cfg.json [--seed N] [--dt X] [--out DIR]
    jumpfilter filter     --config cfg.json ...
    jumpfilter convergence --config cfg.json --halvings N ...
    jumpfilter adjudicate --config cfg.json ...
    jumpfilter predict    --config cfg.json --horizons 0,1,10 ...
    jumpfilter validate   --config cfg.json | --model model.json

Exit codes: 0 success, 2 validation failure, 3 run-quality failure
(instability or a missed acceptance threshold), 1 unexpected error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .chain import json_object, model_from_json
from .harness import (
    ExperimentConfig,
    run_adjudicate,
    run_convergence,
    run_filter,
    run_predict,
    run_simulate,
)
from .kernels import FilterInstabilityError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_QUALITY = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override master_seed")
    parser.add_argument("--dt", type=float, default=None, help="override step size")
    parser.add_argument("--out", default=None, help="override output directory")


def _load_config(args) -> ExperimentConfig:
    """The config file with the command-line overrides, checked as one document."""
    doc = json_object(Path(args.config).read_text(), "a config")
    for key, value in (("master_seed", args.seed), ("dt", args.dt), ("out_dir", args.out)):
        if value is not None:
            doc[key] = value
    return ExperimentConfig.from_json(doc)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpfilter",
        description="Filtering of finite-state jump processes observed in white noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "filter", "adjudicate"):
        _add_common(sub.add_parser(name))
    conv = sub.add_parser("convergence")
    _add_common(conv)
    conv.add_argument("--halvings", type=int, default=3)
    pred = sub.add_parser("predict")
    _add_common(pred)
    pred.add_argument(
        "--horizons", default="0,1", help="comma-separated lookahead horizons"
    )
    source = sub.add_parser("validate").add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="experiment config JSON")
    source.add_argument("--model", help="bare model JSON")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            if args.model is not None:
                model_from_json(Path(args.model).read_text())
                print("model ok")
            else:
                ExperimentConfig.from_json(Path(args.config).read_text())
                print("config ok")
            return EXIT_OK
        config = _load_config(args)
        if args.command == "simulate":
            result = run_simulate(config)
            print(json.dumps(result, indent=2, sort_keys=True))
        elif args.command == "filter":
            _, report = run_filter(config)
            print(json.dumps(report, indent=2, sort_keys=True))
        elif args.command == "convergence":
            rows = run_convergence(config, args.halvings)
            for row in rows:
                print(
                    f"{row['pair']}: level {row['level']} dt={row['dt']:g} "
                    f"disc={row['max_discrepancy']:.6e} order={row['order']:.3f}"
                )
        elif args.command == "adjudicate":
            report = run_adjudicate(config)
            print(json.dumps(report, indent=2, sort_keys=True))
            if (
                report["correction_sign"]["verdict"] == "inconclusive"
                or report["drift_variant"]["verdict"] == "inconclusive"
            ):
                return EXIT_QUALITY
        elif args.command == "predict":
            horizons = [float(h) for h in args.horizons.split(",") if h]
            rows = run_predict(config, horizons)
            for row in rows:
                probs = ",".join(f"{p:.17g}" for p in row["probs"])
                print(f"h={row['h']:g}: {probs}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except FilterInstabilityError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_QUALITY
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
