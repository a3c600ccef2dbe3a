"""Write reference.json: output values of desk_all and oracle_sweep at their
default seeds and full size, which run.py then checks within REFERENCE_RTOL.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only when the benchmark's own inputs change.  A program change must
match the committed values; regenerating them to absorb one defeats the check.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> None:
    reference = {}
    for name in ("desk_all", "oracle_sweep"):
        cls = WORKLOADS[name]
        workdir = Path(tempfile.mkdtemp(prefix="perfbench-ref-"))
        try:
            workload = cls(cls.default_seed, "full", workdir)
            outcome = workload.run()
            failed = [c for c in workload.checks(outcome, None) if not c[1]]
            if failed or outcome.failed_paths:
                raise SystemExit(f"{name}: checks failed, no reference written: {failed}")
            values = workload.reference_values(outcome)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        reference[name] = {"seed": cls.default_seed, "size": "full", "values": values}
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
