"""Record the exact output of every command the benchmark can run.

Usage (from the repository root): python3 perfbench/record_references.py

Runs each command once as a fresh CLI process and writes
perfbench/references.json, keyed by workloads.reference_key, so both Q
routes and every --jobs count are checked against one stored value.  Short
outputs are stored verbatim, long ones as a SHA-256 digest, and `verify`
as the names of its criteria, all of which must pass.  Refuses to write
when a command fails or two commands sharing a key disagree.  Printed
values may never change, so rerun this only to add a new menu point.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time

import run
import workloads

VERBATIM_LIMIT = 4096


def reference_of(command: workloads.Command, stdout: str) -> dict:
    if command[0] == "verify":
        records = json.loads(stdout)
        failed = [r["name"] for r in records if not r["passed"]]
        if failed:
            raise SystemExit(f"verify failed: {failed}")
        return {"criteria": [r["name"] for r in records]}
    if len(stdout) <= VERBATIM_LIMIT:
        return {"stdout": stdout}
    return {"sha256": hashlib.sha256(stdout.encode()).hexdigest(), "bytes": len(stdout)}


def main() -> int:
    outputs: dict[str, dict] = {}
    for command in workloads.all_commands():
        outcome = run.run_command(command, time.monotonic() + 600)
        text = " ".join(command)
        if outcome.code != 0:
            print(f"{text}: exit {outcome.code}\n{outcome.stderr}", file=sys.stderr)
            return 1
        key = workloads.reference_key(command)
        entry = reference_of(command, outcome.stdout)
        if key in outputs and outputs[key] != entry:
            print(f"{text}: output differs from another command keyed {key!r}", file=sys.stderr)
            return 1
        outputs[key] = entry
        print(f"{outcome.wall_s:8.3f} s  {text}")
    run.REFERENCES.write_text(
        json.dumps({"commit": run._commit(), "outputs": outputs}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
