"""One rep of one workload in a fresh interpreter.

Usage: ``python child.py WORKLOAD SEED [--trace] [--oracle]``.  Prints one
JSON object as its last stdout line.  ``run.py`` starts a new child for
every rep, so module caches start cold, as they do for a user.  With
``--trace`` the layer spans are written to ``out/`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--oracle", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import flows
    import spans

    for _layer, module, _path, _count in spans.TARGETS:
        __import__(module)
    import_s = time.perf_counter() - t0

    recorder = None
    if args.trace:
        recorder = spans.SpanRecorder()
        spans.install(recorder)
    table = flows.ORACLES if args.oracle else flows.WORKLOADS
    result = table[args.workload](args.seed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["import_s"] = import_s
    if recorder is not None:
        result["layers"] = spans.layer_metrics(recorder, result["wall_s"])
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        path = out / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(recorder.to_json()), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
