#!/usr/bin/env python3
"""Benchmark of pvml's train -> predict -> evaluate -> reproduce loop.

Usage (from the repository root):

    python3 benchmarks/run.py --workload mixed-cart --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop with a single caller: each
round runs ``pvml train``, ``pvml predict``, ``pvml evaluate`` and
``pvml reproduce`` in-process through ``pvml.cli.main``, then times
``Model.predict`` on one example at a time.  Every command starts after
the previous one returns, and no program work runs on a second thread.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics plus the
tracing overhead.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
benchmarks/README.md for the workloads and what each metric times.
"""

from __future__ import annotations

import os

# fixed before numpy is first imported, by this process and its children
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Inputs, Workload, write_inputs  # noqa: E402

OUT_DIR = ".bench_out"
SETUP_PROBES = 7
LATENCY_PER_ROUND = 1000
MIN_ROUNDS = 4
CLASSIFICATION_FLOOR = 0.25  # held-out accuracy must beat chance by this much
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_s": "s",
    "reproduce_s": "s",
    "predict_rows_per_s": "rows/s",
    "evaluate_rows_per_s": "rows/s",
    "predict_p50_us": "us",
    "predict_p99_us": "us",
    "model_bytes": "B",
    "peak_rss_mb": "MiB",
}


def _per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "B" if name.endswith("_bytes") else "count"


# ---------------------------------------------------------------------------
# One round of the loop
# ---------------------------------------------------------------------------

@dataclass
class Round:
    traced: bool
    times: dict = field(default_factory=dict)
    latency_ns: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)  # descriptions of wrong outputs
    model_bytes: int = 0
    fingerprint: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    names_not_found: list = field(default_factory=list)  # layer names the tracer could not wrap


_HASH = re.compile(r"provenance-hash ([0-9a-f]{64})")


class Bench:
    """Runs rounds of one workload and checks every output against references."""

    def __init__(self, workload: Workload, inputs: Inputs):
        import pvml
        import pvml.cli

        self.pvml = pvml
        self.workload = workload
        self.inputs = inputs
        d = inputs.dir
        self.model = os.path.join(d, "model.pvml")
        self.model2 = os.path.join(d, "model-reproduced.pvml")
        self.preds = os.path.join(d, "predictions.csv")
        self.report = os.path.join(d, "report.json")
        train = ["train", "--data", inputs.train, "--schema", inputs.schema,
                 "--trainer", inputs.trainer, "--output", self.model]
        if inputs.transform:
            train += ["--transform", inputs.transform]
        self.commands = [
            ("train", train),
            ("predict", ["predict", "--model", self.model, "--data", inputs.score,
                         "--schema", inputs.schema, "--out", self.preds]),
            ("evaluate", ["evaluate", "--model", self.model, "--data", inputs.test,
                          "--schema", inputs.schema, "--report", self.report]),
            ("reproduce", ["reproduce", "--model", self.model, "--output", self.model2]),
        ]
        test_rows = checks.read_rows(inputs.test)
        self.truths = [r[workload.response] for r in test_rows]
        self.test_features = [checks.featurize(r, workload.columns) for r in test_rows]
        self.score_features = [
            checks.featurize(r, workload.columns) for r in checks.read_rows(inputs.score)
        ]
        self.schema = pvml.ColumnarSchema(
            workload.response,
            workload.task,
            tuple(pvml.FieldProcessor(c, k) for c, k in workload.columns),
        )

    @property
    def rows(self) -> dict[str, int]:
        return {"test": len(self.test_features), "score": len(self.score_features)}

    def _cli(self, name: str, argv: list[str], tracer) -> tuple[int, float, str]:
        gc.collect()
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            if tracer is None:
                code = self.pvml.cli.main(argv)
            else:
                code = tracer.span(f"cli.{name}", self.pvml.cli.main, argv)
            elapsed = time.perf_counter() - start
        return code, elapsed, out.getvalue()

    def _latency_inputs(self, container: dict):
        """The held-out examples as the library builds them, transformed
        with the fits recorded in the model through the public API."""
        from pvml.data import TransformerMap, TransformSpec, ZScoreFit
        from pvml.provenance import from_json_value

        pvml = self.pvml
        dataset = pvml.build_dataset(pvml.load_csv(self.inputs.test, self.schema))
        recorded = checks.recorded_transformations(container)
        for node, fits in zip(recorded, checks.recorded_zscore_fits(container)):
            tmap = TransformerMap(
                TransformSpec("zscore"),
                {name: ZScoreFit(mean, std) for name, (mean, std) in fits.items()},
                (),
                from_json_value(node),
            )
            dataset = pvml.apply_transformers(dataset, tmap)
        return dataset.examples

    def round(self, tracer=None) -> Round:
        r = Round(traced=tracer is not None)
        if tracer is not None:
            tracer.install()
        try:
            results = {name: self._cli(name, argv, tracer) for name, argv in self.commands}
        finally:
            if tracer is not None:
                tracer.uninstall()
        container = None
        if results["train"][0] == 0:
            container = checks.load_container(self.model)
            model = self.pvml.load_model(self.model, self.workload.task)
            r.latency_ns, outputs = self._latency(model, self._latency_inputs(container))
        for name, (code, elapsed, _) in results.items():
            r.times[name] = elapsed
        r.attempted = len(self.commands) + LATENCY_PER_ROUND
        if container is None:
            r.failed = r.attempted
            return r
        self._check(r, results, container, outputs)
        if tracer is not None:
            tracer.settle()
            r.layers = tracing.layer_totals(tracer.spans, tracer.counts)
            sections = checks.section_bytes(container)
            r.layers["persist.provenance_bytes"] = sections["provenance"]
            r.layers["persist.domain_bytes"] = sections["domain"]
            r.layers["persist.parameter_bytes"] = sections["parameters"]
            r.spans = tracer.spans
            r.names_not_found = tracer.missing
        return r

    def _latency(self, model, examples) -> tuple[list[int], list]:
        n = len(examples)
        samples, outputs = [], []
        clock = time.perf_counter_ns
        gc.collect()
        for i in range(LATENCY_PER_ROUND):
            example = examples[i % n]
            start = clock()
            prediction = model.predict(example)
            samples.append(clock() - start)
            outputs.append(prediction.output)
        return samples, outputs

    def _check(self, r: Round, results: dict, container: dict, outputs: list) -> None:
        """Count failed operations and note wrong outputs.

        A model whose data provenance records transformations is also
        scored on untransformed features.  ``pvml predict`` or ``pvml
        evaluate`` output that equals that untransformed scoring, and not
        the transformed one, is the known fault of the CLI ignoring the
        recorded transformations: the command counts as failed.  Any other
        mismatch is a wrong output.
        """
        categorical = self.workload.task == "categorical"
        fits = checks.recorded_zscore_fits(container)
        test_ref = checks.predict(container, [checks.apply_fits(f, fits) for f in self.test_features])
        score_ref = checks.predict(container, [checks.apply_fits(f, fits) for f in self.score_features])
        labels = sorted(container["outputDomain"]["counts"]) if categorical else None
        metrics_ref = checks.reference_metrics(container, self.truths, test_ref)
        if fits:
            test_raw = checks.predict(container, self.test_features)
            score_raw = checks.predict(container, self.score_features)
            metrics_raw = checks.reference_metrics(container, self.truths, test_raw)

        code, _, out = results["train"]
        found = _HASH.search(out)
        r.fingerprint = {
            "parameters_sha256": checks.parameter_sha256(container),
            "provenance_hash": found.group(1) if found else None,
        }
        r.model_bytes = os.path.getsize(self.model)
        if found is None:
            r.wrong.append("train printed no provenance hash")
        if categorical:
            floor = 1.0 / len(labels) + CLASSIFICATION_FLOOR
            if metrics_ref["accuracy"] < floor:
                r.wrong.append(f"held-out accuracy {metrics_ref['accuracy']:.3f} < {floor:.3f}")
        elif metrics_ref["r2"] <= 0.0:
            r.wrong.append(f"held-out r2 {metrics_ref['r2']:.3f} <= 0")

        def judge(name: str, matches) -> None:
            if results[name][0] != 0:
                r.failed += 1
            elif matches("ref"):
                pass
            elif fits and matches("raw"):
                r.failed += 1
            else:
                r.wrong.append(f"{name} output differs from the reference")

        score = {"ref": score_ref, "raw": score_raw} if fits else {"ref": score_ref}
        metrics = {"ref": metrics_ref, "raw": metrics_raw} if fits else {"ref": metrics_ref}
        judge("predict", lambda k: checks.predictions_match(self.preds, score[k], labels))
        judge("evaluate", lambda k: checks.report_matches(self.report, metrics[k]))
        code, _, out = results["reproduce"]
        if code != 0:
            r.failed += 1
        else:
            found = _HASH.search(out)
            if found is None or found.group(1) != r.fingerprint["provenance_hash"]:
                r.wrong.append("reproduce printed a different provenance hash")
            if checks.parameter_bytes(checks.load_container(self.model2)) != checks.parameter_bytes(container):
                r.wrong.append("reproduced parameters differ from the original's")

        n = len(test_ref)
        for i, output in enumerate(outputs):
            got = output.label if categorical else output.value
            if not checks.same_output(got, test_ref[i % n]):
                r.wrong.append(f"Model.predict differs from the reference on held-out row {i % n}")
                break


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

def host_reference_s() -> float:
    """Seconds of a fixed pure-Python loop; tells a slow host from a slow program."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def setup_samples(inputs: Inputs) -> list[float]:
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), inputs.dir,
            inputs.warm_train, inputs.warm_test, inputs.schema, inputs.trainer]
    if inputs.transform:
        argv.append(inputs.transform)
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def nearest_rank(sorted_values: list, q: float):
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def end_to_end(bench: Bench, rounds: list[Round], setup: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of one run.

    The host's speed wanders between a fast and a slow state that lasts a
    few rounds, so per-round command times and p50s are a mixture of two
    levels.  The mean over rounds follows the share of each level smoothly;
    the median jumps between them, and in ten-seed sets its spread was up to
    twice the mean's.  Per-round p99s instead have outlier rounds, which the
    median over rounds ignores.  Set-up samples are few; their median is
    reported.
    """
    mean = statistics.fmean
    times = {k: [r.times[k] for r in rounds] for k in rounds[0].times}
    p50 = [statistics.median(r.latency_ns) / 1000.0 for r in rounds]
    p99 = [nearest_rank(sorted(r.latency_ns), 0.99) / 1000.0 for r in rounds]
    metrics = {
        "setup_s": statistics.median(setup),
        "train_s": mean(times["train"]),
        "reproduce_s": mean(times["reproduce"]),
        "predict_rows_per_s": bench.rows["score"] / mean(times["predict"]),
        "evaluate_rows_per_s": bench.rows["test"] / mean(times["evaluate"]),
        "predict_p50_us": mean(p50),
        "predict_p99_us": statistics.median(p99),
        "model_bytes": statistics.median(r.model_bytes for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "command_quartiles_s": {k: quartiles(v) for k, v in times.items()},
        "setup_samples_s": setup,
        "latency_samples_per_round": LATENCY_PER_ROUND,
        "latency_samples_beyond_p99_per_round": LATENCY_PER_ROUND - math.ceil(0.99 * LATENCY_PER_ROUND),
        "latency_rounds": len(rounds),
        "latency_quartiles_us": {"p50": quartiles(p50), "p99": quartiles(p99)},
    }
    return metrics, detail


def per_layer(rounds: list[Round]) -> tuple[dict, dict]:
    untraced = [r for r in rounds if not r.traced]
    traced = [r for r in rounds if r.traced]
    total = lambda r: sum(r.times.values())  # noqa: E731
    metrics = {
        name: statistics.median(r.layers[name] for r in traced) for name in traced[0].layers
    }
    metrics["trace.overhead_s"] = statistics.median(map(total, traced)) - statistics.median(
        map(total, untraced)
    )
    detail = {
        "traced_rounds": len(traced),
        "untraced_rounds": len(untraced),
        "untraced_commands_median_s": statistics.median(map(total, untraced)),
        "traced_commands_median_s": statistics.median(map(total, traced)),
        "names_not_found": sorted({n for r in traced for n in r.names_not_found}),
    }
    return metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "pvml", "__init__.py")):
        print("error: src/pvml not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = write_inputs(workload, args.seed, os.path.join(OUT_DIR, workload.name))
    setup = setup_samples(inputs)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import pvml

    if not os.path.realpath(pvml.__file__).startswith(os.path.realpath(os.path.join(ROOT, "src"))):
        print(f"error: imported pvml from {pvml.__file__}, not this checkout", file=sys.stderr)
        return 2

    bench = Bench(workload, inputs)
    bench.round()  # warm-up, discarded
    host = [host_reference_s()]
    rounds: list[Round] = []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        rounds.append(bench.round(tracing.Tracer() if traced else None))
    host.append(host_reference_s())

    rounds_path = os.path.join(inputs.dir, f"rounds-seed{args.seed}-trace{args.trace}.json")
    with open(rounds_path, "w", encoding="utf-8") as fh:
        json.dump(
            [
                {
                    "traced": r.traced,
                    "times_s": r.times,
                    "p50_us": statistics.median(r.latency_ns) / 1000.0,
                    "p99_us": nearest_rank(sorted(r.latency_ns), 0.99) / 1000.0,
                }
                for r in rounds
            ],
            fh,
        )
    if args.trace:
        metrics, detail = per_layer(rounds)
        units = {name: _per_layer_unit(name) for name in metrics}
        spans_path = os.path.join(inputs.dir, f"spans-seed{args.seed}.json")
        tracing.write_spans(spans_path, [s for r in rounds for s in r.spans])
        detail["spans_file"] = spans_path
    else:
        metrics, detail = end_to_end(bench, rounds, setup)
        units = END_TO_END_UNITS

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    wrong = sorted({w for r in rounds for w in r.wrong})
    fingerprints = sorted({json.dumps(r.fingerprint, sort_keys=True) for r in rounds})
    detail.update(
        {
            "workload": workload.name,
            "seed": args.seed,
            "rounds": len(rounds),
            "host_reference_s": host,
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "fingerprints": [json.loads(f) for f in fingerprints],
            "wrong_outputs": wrong,
            "rounds_file": rounds_path,
        }
    )

    print(f"workload {workload.name}  seed {args.seed}  rounds {len(rounds)}  "
          f"attempted {attempted}  failed {failed}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  latency percentiles: {LATENCY_PER_ROUND} samples per round "
              f"({detail['latency_samples_beyond_p99_per_round']} beyond p99) over {len(rounds)} rounds; "
              f"p50 is the mean over rounds, p99 the median")
    print(f"  host reference loop {', '.join(f'{h:.4f}' for h in host)} s, BLAS threads {BLAS_THREADS}")
    for f in detail["fingerprints"]:
        print(f"  fingerprint parameters-sha256 {f['parameters_sha256']} provenance-hash {f['provenance_hash']}")
    for line in wrong:
        print(f"  WRONG: {line}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
