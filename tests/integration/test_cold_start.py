"""Cold-start regression: ``import repro`` must not load the
process-pool / shared-memory machinery. Costing is serial, so nothing
on the import path has a reason to pull these modules in, and each
one costs the CLI start-up time."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

FORBIDDEN = ("multiprocessing", "multiprocessing.shared_memory",
             "secrets", "concurrent.futures")


def test_import_repro_skips_process_pool_modules():
    probe = ("import sys, repro; "
             f"print(','.join(m for m in {FORBIDDEN!r} "
             "if m in sys.modules))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
