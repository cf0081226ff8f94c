"""End-to-end benchmark of the constrained dynamic design advisor.

Usage (from the repository root)::

    python3 perfbench/run.py --workload advise_wide --seed 0 \\
        --seconds 25 --trace 0

Runs one closed-loop workload (see ``workloads``) until its operations
have taken ``--seconds`` in total: each operation gets freshly
generated inputs (set-up, timed as ``setup_s``), runs once, and has its
outputs checked outside the timed region. With ``--trace 1`` every operation runs
twice on identical inputs, untraced and then traced, so the run also
reports the tracing overhead and the per-layer split. A fixed reference
task, timed after every set-up and before its operation, measures the
host's current speed; ``op_s`` and ``setup_s`` are the medians of each
operation's and set-up's time scaled by it (see ``timed_reference``).

Standard output carries a provenance line, one line per metric (name,
value, unit, direction, sample count, and the base of every ratio),
the checks, and, as the last line, the JSON result: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``. Metric names,
units and directions come from ``BENCHMARK.json`` at the repository
root. The exit code is non-zero, with no result printed, when the
program cannot be imported or no operation completed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

#: Set-ups timed per run at least (``setup_s`` is their median).
MIN_SETUPS = 11

#: Reference timings taken between every set-up and its operation.
REF_REPEATS = 3

#: Block size of the reference's W1 queries, and the time it is scaled to.
REF_BLOCK = 2_000
REF_NOMINAL_S = 0.04

#: Each ratio metric and the metric it is a share of.
RATIO_BASES = {
    "costservice.calls_avoided_ratio": "costservice.exec_requests",
    "costservice.cache_hit_rate": "costservice.cache_lookups",
    "trace.overhead_ratio": "trace.untraced_op_s",
    "trace.coverage": "trace.traced_op_s",
}


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (the checkout may not be a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ")[0]
    except OSError:
        pass
    return "unknown"


def _source_digest() -> str:
    """SHA-256 over the program's Python sources (identifies the code
    measured when there is no git metadata)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, numpy_version: str) -> Dict[str, object]:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        affinity = os.cpu_count()
    return {
        "git_sha": _git_sha(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "numpy": numpy_version,
        "nproc": affinity, "cpu_count": os.cpu_count(),
        "machine": platform.machine(), "system": platform.system(),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def _self_peak_rss_mb() -> float:
    """This process's peak resident memory. ``VmHWM`` counts only this
    process's own memory; ``ru_maxrss`` would also count the memory of
    whatever process launched it."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    try:
        import repro  # noqa: F401  (timed: the package import)
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - start
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"error: imported the program from {repro.__file__}, not "
              f"from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import numpy

    import spans
    import workloads

    workload_cls = workloads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workload_cls(ROOT)

    setup_s: List[float] = []
    ref_s: List[float] = []
    walls: List[float] = []
    # The same times in reference seconds, each scaled by the
    # reference timed next to it.
    setup_ref_s: List[float] = []
    op_ref_s: List[float] = []
    traced_walls: List[float] = []
    layer_samples: List[Dict[str, float]] = []
    child_rss_mb: List[float] = []
    attempted = failed = 0
    op_time = 0.0
    failures: List[str] = []
    check_counts: Dict[str, List[int]] = {}

    def timed_reference() -> float:
        # A shared host's speed drifts by a third or more within
        # minutes, and a run's operations and set-ups drift with it.
        # Fixed work that calls no program code measures that speed:
        # the benchmark's own generation of 60,000 W1 query strings.
        gc.collect()
        times = []
        for _ in range(REF_REPEATS):
            begin = time.perf_counter()
            workloads.point_queries(numpy.random.default_rng(0),
                                    workloads.W1_BLOCKS, REF_BLOCK)
            times.append(time.perf_counter() - begin)
        ref_s.extend(times)
        return _median(times)

    def timed_setup(op: int):
        """The operation's inputs and the reference time next to it."""
        gc.collect()
        begin = time.perf_counter()
        inputs = workload.setup(args.seed, op)
        setup_s.append(time.perf_counter() - begin)
        ref = timed_reference()
        setup_ref_s.append(setup_s[-1] * REF_NOMINAL_S / ref)
        return inputs, ref

    def one_op(inputs, recorder, ref: float) -> None:
        nonlocal attempted, failed, op_time
        attempted += 1
        # Start every operation from the same heap: garbage left by the
        # previous one would otherwise be collected inside this one.
        gc.collect()
        begin = time.perf_counter()
        try:
            outcome = workload.run(inputs, recorder)
        except Exception:  # an operation failure is a measured result
            failed += 1
            failures.append(traceback.format_exc(limit=3))
            return
        finally:
            op_time += time.perf_counter() - begin
        attempted += outcome.extra_attempted
        failed += outcome.extra_failed
        if not outcome.ok:
            failed += 1
            failures.append(f"operation failed: {outcome.detail}")
            return
        if recorder is None:
            walls.append(outcome.wall_s)
            op_ref_s.append(outcome.wall_s * REF_NOMINAL_S / ref)
        else:
            traced_walls.append(outcome.wall_s)
        if outcome.peak_rss_mb is not None and not recorder:
            child_rss_mb.append(outcome.peak_rss_mb)
        if outcome.layers is not None:
            layer_samples.append(outcome.layers)
        try:
            checks = workload.checks(args.seed, inputs, outcome)
        except Exception:  # a check that cannot run has failed
            checks = [workloads.Check("checks", False,
                                      traceback.format_exc(limit=3))]
        for check in checks:
            attempted += 1
            counts = check_counts.setdefault(check.name, [0, 0])
            counts[0] += 1
            if not check.ok:
                failed += 1
                counts[1] += 1
                failures.append(f"check {check.name}: {check.detail}")

    op = 0
    try:
        # --seconds bounds the time spent inside operations; set-up and
        # checks run outside it, so every run gets the same number of
        # measured operations whatever its checks cost.
        while op == 0 or op_time < args.seconds:
            inputs, ref = timed_setup(op)
            one_op(inputs, None, ref)
            if args.trace:
                one_op(workload.setup(args.seed, op),
                       spans.SpanRecorder(), ref)
            op += 1
        # The peak of the process that did the work: the CLI child for
        # recommend_long, this process otherwise.
        peak_rss_mb = _median(child_rss_mb) if child_rss_mb else \
            _self_peak_rss_mb()
        while len(setup_s) < MIN_SETUPS:
            timed_setup(op)
    finally:
        shutil.rmtree(ROOT / workloads.WORK_DIR, ignore_errors=True)

    if not walls or (args.trace and not layer_samples):
        for failure in failures:
            print(failure, file=sys.stderr)
        print("error: no operation completed", file=sys.stderr)
        return 1

    values: Dict[str, float] = {
        "op_s": _median(op_ref_s), "peak_rss_mb": peak_rss_mb,
        "setup_s": _median(setup_ref_s),
        "ok_frac": 1.0 - failed / attempted}
    samples: Dict[str, int] = {"op_s": len(walls), "peak_rss_mb": 1,
                               "setup_s": len(setup_s),
                               "ok_frac": attempted}
    if args.trace:
        layer_values = {}
        for name in layer_samples[0]:
            layer_values[name] = _median([s[name] for s in layer_samples])
        # In-process workloads paid the package import in this process.
        layer_values.setdefault("repro.import_s", import_s)
        layer_values["trace.untraced_op_s"] = _median(walls)
        layer_values["trace.overhead_ratio"] = \
            _median(traced_walls) / _median(walls)
        layer_values["host.ref_s"] = _median(ref_s)
        samples.update({name: len(layer_samples) for name in layer_values})
        samples["trace.untraced_op_s"] = len(walls)
        samples["host.ref_s"] = len(ref_s)
        # A layer this workload never reaches reads 0, with 0 samples.
        for metric in spec["per_layer"]:
            if metric["name"] not in layer_values:
                layer_values[metric["name"]] = 0
                samples[metric["name"]] = 0
        values.update(layer_values)

    section = "per_layer" if args.trace else "end_to_end"
    reported = [m["name"] for m in spec[section]]
    missing = [name for name in reported if name not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    print("provenance: " + json.dumps(provenance(args, numpy.__version__)))
    catalogue = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'metric':<36} {'value':>16} {'unit':<6} {'better':<7} "
          f"{'n':>5}  base")
    for name, value in values.items():
        meta = catalogue.get(name, {"unit": "?", "better": "?"})
        base = RATIO_BASES.get(name)
        if name == "ok_frac":
            base_text = f"attempted={attempted}"
        elif base is not None:
            base_text = f"{base}={values.get(base, 0):.6g}"
        else:
            base_text = ""
        print(f"{name:<36} {value:>16.6f} {meta['unit']:<6} "
              f"{meta['better']:<7} {samples[name]:>5}  {base_text}")
    print(f"wall clock: op {_median(walls):.6f} s, setup "
          f"{_median(setup_s):.6f} s, reference {_median(ref_s):.6f} s")
    print("op wall samples: " + " ".join(f"{w:.4f}" for w in walls))
    print("setup wall samples: " +
          " ".join(f"{w:.4f}" for w in setup_s))
    print("reference samples: " + " ".join(f"{w:.4f}" for w in ref_s))
    for name, (runs, bad) in check_counts.items():
        print(f"check {name}: {runs - bad}/{runs} passed")
    for failure in failures:
        print(f"FAILED: {failure}")

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name],
                                 "unit": catalogue[name]["unit"]}
                          for name in reported}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
