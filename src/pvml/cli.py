"""Command-line front end for the full train/predict/evaluate/reproduce loop.

Exit codes: 0 success, 1 usage error, 2 data error, 3 task or type
mismatch, 4 reproduction mismatch.  ``diff`` additionally exits 1 when the
two models differ in anything beyond volatile fields (timestamps, host
info), so it doubles as a "same model?" check in scripts.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache

from .core import CATEGORICAL, build_dataset
from .data import (
    ColumnarSchema,
    SCHEMA_CLASS,
    apply_transformers,
    fit_transformers,
    load_csv,
    schema_from_properties,
    transform_spec_from_provenance,
)
from .errors import (
    OutputTypeMismatch,
    PvmlError,
    ReproductionMismatch,
    TaskMismatch,
)
from .evaluate import evaluate_classification, evaluate_regression
from .persist import load_model, save_model, write_atomically
from .provenance import (
    config_from_json,
    config_to_json,
    extract_configuration,
    object_provenance,
    provenance_hash,
    redact,
    serialize_provenance,
    to_json_value,
)
from .repro import diff_provenance, reconstruct_trainer, reproduce_model


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise _UsageError(message)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_schema(path: str) -> ColumnarSchema:
    records = config_from_json(_read(path))
    record = next((r for r in records if r.class_name == SCHEMA_CLASS), None)
    if record is None:
        raise _UsageError(f"{path} contains no columnar schema record")
    return schema_from_properties(record.properties)


def _cmd_train(args) -> int:
    schema = _load_schema(args.schema)
    trainer = reconstruct_trainer(config_from_json(_read(args.trainer)))
    dataset = build_dataset(load_csv(args.data, schema))
    if args.transform:
        for record in config_from_json(_read(args.transform)):
            spec = transform_spec_from_provenance(object_provenance(record.class_name, config=record.properties))
            dataset = apply_transformers(dataset, fit_transformers(dataset, spec))
    model = trainer.train(dataset)
    save_model(model, args.output)
    print(f"trained {model.model_class} on {len(dataset)} examples")
    print(f"provenance-hash {provenance_hash(model.provenance)}")
    return 0


def _cmd_predict(args) -> int:
    schema = _load_schema(args.schema)
    model = load_model(args.model, expected_task=schema.response_type)
    source = load_csv(args.data, schema)
    labels = model.output_domain.labels() if model.task == CATEGORICAL else ()
    buffer = io.StringIO()  # written only once every row has been scored
    writer = csv.writer(buffer)
    writer.writerow(["row", "prediction", *labels])
    predictions = (
        prediction
        for columns, totals, _ in source.compiled(model)
        for prediction in model.predict_compiled(columns, totals)
    )
    for i, pred in enumerate(predictions):
        if model.task == CATEGORICAL:
            scores = [repr(pred.scores.get(label, 0.0)) for label in labels]
            writer.writerow([i, pred.output.label, *scores])
        else:
            writer.writerow([i, repr(pred.output.value)])
    write_atomically(args.out, buffer.getvalue())
    print(f"wrote {len(source)} predictions to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    schema = _load_schema(args.schema)
    model = load_model(args.model, expected_task=schema.response_type)
    source = load_csv(args.data, schema)
    if model.task == CATEGORICAL:
        evaluation = evaluate_classification(model, source)
        print(f"accuracy {evaluation.accuracy:.6f} on {evaluation.num_examples} examples")
    else:
        evaluation = evaluate_regression(model, source)
        print(f"rmse {evaluation.rmse:.6f} on {evaluation.num_examples} examples")
    report = json.dumps(evaluation.to_report(), sort_keys=True, separators=(",", ":"))
    write_atomically(args.report, report + "\n")
    return 0


def _cmd_inspect(args) -> int:
    model = load_model(args.model)
    if args.redact:
        digest, redacted = redact(model.provenance)
        print(f"provenance-hash {digest}")
        print(serialize_provenance(redacted))
    else:
        print(serialize_provenance(model.provenance))
    return 0


def _cmd_extract_config(args) -> int:
    model = load_model(args.model)
    records = extract_configuration(model.provenance)
    write_atomically(args.out, config_to_json(records) + "\n")
    print(f"wrote {len(records)} configuration records to {args.out}")
    return 0


def _cmd_reproduce(args) -> int:
    model = load_model(args.model)
    rebuilt = reproduce_model(model.provenance)
    save_model(rebuilt, args.output)
    print(f"reproduced model; provenance-hash {provenance_hash(rebuilt.provenance)}")
    return 0


def _cmd_diff(args) -> int:
    left = load_model(args.left)
    right = load_model(args.right)
    entries = diff_provenance(left.provenance, right.provenance)

    def fmt(value) -> str:
        return "<absent>" if value is None else json.dumps(to_json_value(value), sort_keys=True)

    substantive = 0
    for entry in entries:
        tag = " [volatile]" if entry.volatile else ""
        print(f"{entry.path}: {fmt(entry.left)} -> {fmt(entry.right)}{tag}")
        if not entry.volatile:
            substantive += 1
    if substantive:
        print(f"{substantive} non-volatile difference(s)", file=sys.stderr)
        return 1
    return 0


@cache  # built once per process: every command parses with the same parser
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pvml", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from CSV data and a trainer config")
    p.add_argument("--data", required=True, help="training CSV file")
    p.add_argument("--schema", required=True, help="columnar schema config (JSON)")
    p.add_argument("--trainer", required=True, help="trainer config (JSON)")
    p.add_argument("--output", required=True, help="model file to write")
    p.add_argument("--transform", help="transformation config (JSON), applied in order")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score a CSV file with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--out", required=True, help="predictions CSV to write")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="evaluate a saved model against labelled CSV data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--report", required=True, help="evaluation report JSON to write")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("inspect", help="print a model's provenance")
    p.add_argument("--model", required=True)
    p.add_argument("--redact", action="store_true", help="print digest plus redacted tree")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("extract-config", help="extract runnable configuration from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_extract_config)

    p = sub.add_parser("reproduce", help="retrain a model from its own provenance")
    p.add_argument("--model", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_reproduce)

    p = sub.add_parser("diff", help="compare the provenance of two models")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(func=_cmd_diff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1

    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TaskMismatch, OutputTypeMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ReproductionMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (PvmlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
