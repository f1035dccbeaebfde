"""Command-line surface: generate, metrics, export-training, validate, fit.

Exit codes: 0 success, 1 validation/generation failure, 2 usage error.
Each input is checked in one place: --schema by `schema.loads_schema`,
--seeds by `engine.prepare_batch` (after `markup.load_corpus` parses them),
a corpus by `markup.load_corpus`, --config by `GenerationConfig.validate`
(as written, then in `prepare_batch` after the flags) and --model by
`MarkovGoalModel.check` (from `prepare_batch`). `validate --seeds` applies
the seed checks of `generate --mix base=1`, and `fit` those of `generate`.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .acts import USER, DialogAct, turn_acts_string
from .engine import GenerationConfig, GenerationError, prepare_batch, run_batch
from .goals import MarkovGoalModel, SamplerError
from .markup import MarkupError, load_corpus, serialize_corpus
from .metrics import report_table, variation_report
from .nlg import build_template_index
from .export import export_training
from .schema import SchemaError, load_schema, read_input


def _parse_mix(text: str) -> dict[str, float]:
    mix = {}
    for part in text.split(","):
        name, _, weight = part.partition("=")
        try:
            mix[name.strip()] = float(weight)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected name=weight, got {part!r}") from None
    return mix


def _load_config(args) -> GenerationConfig:
    if args.config:
        config = GenerationConfig.from_json(read_input(args.config, GenerationError))
    else:
        config = GenerationConfig()
    if args.n is not None:
        config.n_dialogs = args.n
    if args.mix:
        config.sampler_mix = args.mix
    if args.seed is not None:
        config.rng_seed = args.seed
    if args.workers is not None:
        config.workers = args.workers
    return config


def _load_inputs(args):
    bundle = load_schema(args.schema)
    return bundle, load_corpus(args.seeds, bundle)


def cmd_generate(args) -> int:
    bundle, seeds = _load_inputs(args)
    config = _load_config(args)
    model = None
    if args.model:
        model = MarkovGoalModel.from_json(read_input(args.model, SamplerError))
    result = run_batch(bundle, seeds, config, model=model)
    text = serialize_corpus(result.dialogs)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    print(json.dumps(result.stats), file=sys.stderr)
    return 0


def cmd_metrics(args) -> int:
    bundle = load_schema(args.schema)
    corpus = load_corpus(args.corpus, bundle)
    try:
        report = variation_report(corpus)
    except ValueError as e:  # an empty corpus, or a turn that carries no acts
        raise MarkupError(f"{args.corpus}: {e}") from None
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n", encoding="utf-8")
        print(report_table({"corpus": report}))
    else:
        print(report.to_json())
        print(report_table({"corpus": report}), file=sys.stderr)
    return 0


def cmd_export_training(args) -> int:
    bundle = load_schema(args.schema)
    corpus = load_corpus(args.corpus, bundle)
    index = build_template_index(bundle, [])
    examples = export_training(corpus, bundle, index)
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for kind, rows in examples.items():
        path = out_dir / f"{kind}.jsonl"
        with open(path, "w", encoding="utf-8") as f:
            for row in rows:
                f.write(row.to_json() + "\n")
        print(f"wrote {len(rows)} {kind} examples to {path}", file=sys.stderr)
    return 0


def cmd_validate(args) -> int:
    try:
        bundle = load_schema(args.schema)
    except SchemaError as e:
        for diag in e.diagnostics:
            print(diag)
        return 1
    if args.seeds:
        replay = GenerationConfig(sampler_mix={"base": 1.0})
        try:
            index = prepare_batch(bundle, load_corpus(args.seeds, bundle), replay).index
        except (MarkupError, GenerationError, SamplerError) as e:
            print(f"error: seeds: {e}")
            return 1
        for api in bundle.apis():
            signatures = [turn_acts_string([DialogAct("inform", USER, intent=api.name)])]
            for spec in api.args:
                et = bundle.entity_type(spec.entity_type)
                if et is not None and et.speakable:
                    signatures.append(
                        turn_acts_string([DialogAct("inform", USER, entity=spec.entity_type)])
                    )
            for sig in signatures:
                if sig not in index.user:
                    print(
                        f"warning: no utterance template for act signature {sig!r} "
                        "(generation will fall back to canned text)"
                    )
    return 0


def cmd_fit(args) -> int:
    bundle, seeds = _load_inputs(args)
    text = prepare_batch(bundle, seeds, GenerationConfig()).model.to_json() + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dialogsim",
        description="Generate annotated goal-oriented dialogs from a schema and seed dialogs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds_required=False):
        p.add_argument("--schema", required=True, help="schema JSON file")
        p.add_argument(
            "--seeds", required=seeds_required, help="seed dialogs in markup format"
        )
        p.add_argument("--out", help="output path")

    p = sub.add_parser("generate", help="generate a dialog corpus")
    common(p, seeds_required=True)
    p.add_argument("--config", help="GenerationConfig JSON file")
    p.add_argument("--n", type=int, help="number of dialogs")
    p.add_argument("--mix", type=_parse_mix, help="sampler mix, e.g. golden=0.4,markov=0.6")
    p.add_argument("--seed", type=int, help="rng seed")
    p.add_argument("--workers", type=int, help="parallel workers")
    p.add_argument("--model", help="pre-fitted goal model JSON (skips fitting)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("metrics", help="variation report for a corpus")
    p.add_argument("--schema", required=True)
    p.add_argument("--out", help="write the report JSON here")
    p.add_argument("corpus", help="markup corpus file")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("export-training", help="emit NER/AP/AF training data")
    p.add_argument("--schema", required=True)
    p.add_argument("--out", help="output directory")
    p.add_argument("corpus", help="markup corpus file")
    p.set_defaults(func=cmd_export_training)

    p = sub.add_parser("validate", help="validate the schema; with --seeds, also the seed "
                       "checks of generate --mix base=1")
    p.add_argument("--schema", required=True)
    p.add_argument("--seeds")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fit", help="fit and dump the Markov goal model (generate's seed checks)")
    common(p, seeds_required=True)
    p.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, MarkupError, GenerationError, SamplerError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
