#!/usr/bin/env python3
"""Record the sha256 of every case's canonical output on the default seed.

    python3 perfbench/record_digests.py

Run on a source tree whose reports are known to be right; it
writes ``perfbench/digests.json``, which ``run.py`` compares against.
"""
import json
import sys

import checks
import run
import workloads

sys.path.insert(0, str(workloads.SRC))


def main() -> int:
    table = {}
    for name in workloads.WORKLOADS:
        cases = workloads.generate(name, workloads.DEFAULT_SEED)
        table[name] = {case["id"]: checks.digest(run.execute(case)) for case in cases}
    checks.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
