"""One set-up sample, taken in a fresh interpreter.

Times ``import pvml.cli`` plus a warm-up pass of the CLI loop (train,
predict, evaluate, reproduce) over a workload's small warm-up files, and
prints the seconds as JSON.  The runner starts this script several times
per run and reports the median as ``setup_s``.

Usage: python3 benchmarks/setup_probe.py WORKDIR TRAIN TEST SCHEMA TRAINER [TRANSFORM]
"""

import contextlib
import io
import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    workdir, train, test, schema, trainer, *transform = argv
    start = time.perf_counter()
    sys.path.insert(0, os.path.abspath("src"))
    import pvml.cli

    imported = time.perf_counter()
    model = os.path.join(workdir, "warm-model.pvml")
    commands = [
        ["train", "--data", train, "--schema", schema, "--trainer", trainer, "--output", model]
        + (["--transform", transform[0]] if transform else []),
        ["predict", "--model", model, "--data", test, "--schema", schema,
         "--out", os.path.join(workdir, "warm-preds.csv")],
        ["evaluate", "--model", model, "--data", test, "--schema", schema,
         "--report", os.path.join(workdir, "warm-report.json")],
        ["reproduce", "--model", model, "--output", os.path.join(workdir, "warm-model2.pvml")],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [pvml.cli.main(c) for c in commands]
    done = time.perf_counter()
    if any(codes):
        print(f"warm-up commands exited {codes}", file=sys.stderr)
        return 1
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
