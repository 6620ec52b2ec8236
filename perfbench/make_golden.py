"""Record the digests of exact outputs that the benchmark checks against.

    python3 perfbench/make_golden.py

Writes perfbench/golden.json.  Run it only when the outputs are meant to
change; a perf change must leave the file as it is.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    import linesurf

    rows = [(rep.r, rep.d, rep.oracle_dci, rep.oracle_dcii, rep.ok)
            for rep in linesurf.sweep_verify(workloads.SWEEP_R, workloads.SWEEP_D)]
    catalog = {}
    for name, params in workloads.CATALOG_RANGES.items():
        for param in params or (None,):
            entry = linesurf.catalog_profile(name, param)
            out = workloads.report(entry.profile, entry.q)
            catalog[workloads.catalog_key(name, param)] = workloads.digest(workloads.report_record(out))

    scratch = workloads.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        workloads.write_cli_files(Path(workdir))
        period = next(workloads.cli_periods(0, Path(workdir)))
        cli = {}
        for op in period:
            out = op.call()
            cli[op.label] = {"stdout": out["stdout"], "dot": out["dot"], "exit_at_record": out["exit"]}
    finally:
        shutil.rmtree(workdir)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    golden = {"oracle-sweep": workloads.digest(rows), "catalog": catalog,
              "stream": workloads.digest(workloads.golden_stream_record()), "cli": cli}
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
