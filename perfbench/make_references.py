"""Regenerate references.json from the current program.

Usage (from the root of a checkout): python3 perfbench/make_references.py

Runs every op of every workload once at each of its -N values and stores
its exit status, output digest and failure locator.  Only regenerate
when a change to the program's outputs is intended; the diff of
references.json then shows which ops changed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
from run import HERE, ROOT, Runner
from workloads import WORKLOADS, reference_key


def main():
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    runner = Runner(workdir)
    try:
        ops = {}
        for workload in WORKLOADS.values():
            for op in workload:
                if op.smoke:
                    continue
                for n in op.n_values or (None,):
                    argv = op.argv(n)
                    res = runner.op(argv)
                    ops[reference_key(argv)] = gate.reference(
                        res["exit"], res["stdout"])
                    print(f"{res['wall']:8.3f} s  exit {res['exit']}  "
                          + " ".join(argv), file=sys.stderr)
        battery = runner.op(WORKLOADS["battery"][0].argv(None))
        checks = [r["check"] for r in json.loads(battery["stdout"])["reports"]]
    finally:
        runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
    doc = {"registered_checks": checks, "ops": ops}
    (HERE / "references.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
