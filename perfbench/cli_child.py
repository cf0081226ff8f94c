"""Traced ``python -m repro`` for the ``recommend_long`` workload.

Usage: ``python cli_child.py SPANS_OUT.json <repro CLI arguments>``.

Imports the package and runs the same ``repro.cli.main`` that
``python -m repro`` runs, with every layer boundary wrapped by
:mod:`spans`, then writes the child's per-layer metrics as JSON
to ``SPANS_OUT.json`` and exits with the CLI's exit code.
"""

import json
import sys
import time

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    recorder = spans.SpanRecorder()
    start = time.perf_counter()
    import repro.cli
    recorder.record("repro.import", start, time.perf_counter())

    patches = spans.install(recorder)
    services, databases = [], []
    spans.capture_instances(patches, repro.cli, "CostService",
                                  services)
    spans.capture_instances(patches, repro.cli, "Database",
                                  databases)
    try:
        code = recorder.wrap("op", repro.cli.main)(argv)
    finally:
        patches.restore()
    end = time.perf_counter()

    layers = recorder.layers()
    metrics = spans.layer_metrics(layers)
    metrics.update(recorder.gauges)
    metrics.update(spans.service_counters(services))
    metrics.update(spans.buffer_counters(databases))
    metrics["trace.traced_op_s"] = end - start
    metrics["trace.coverage"] = 1.0 - layers["op"]["self_s"] / (end - start)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(metrics, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
