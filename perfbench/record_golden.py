"""Record the ``advise_wide`` golden values: the k=2 assignment and cost
of every seed named on the command line.

Usage (from the repository root)::

    python3 perfbench/record_golden.py 0 1 2 ...

Merges the results into ``perfbench/golden_advise_wide.json``; run it
only on a commit whose recommendations are known to be right, since
``run.py`` fails any later run whose recommendation differs.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main(seeds) -> int:
    workload = workloads.AdviseWide(HERE.parent)
    golden = workload.golden
    for seed in seeds:
        inputs = workload.setup(seed, 0)
        outcome = workload.run(inputs)
        rejected = [c for c in workload.checks(seed, inputs, outcome)
                    if not c.ok and c.name != "advise.golden"]
        if rejected:
            print(f"seed {seed}: checks failed: {rejected}",
                  file=sys.stderr)
            return 1
        golden[str(seed)] = workload.golden_record(outcome)
        print(f"seed {seed}: cost {golden[str(seed)]['cost']!r}")
    rows = [f"{json.dumps(seed)}: {json.dumps(golden[seed])}"
            for seed in sorted(golden, key=int)]
    workloads.GOLDEN_PATH.write_text("{\n" + ",\n".join(rows) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(arg) for arg in sys.argv[1:]]))
