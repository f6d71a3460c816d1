#!/usr/bin/env python3
"""Record golden payload hashes and run metadata in perfbench/golden.json.

    python3 perfbench/golden.py

Run it from the root of a checkout at the commit whose outputs define
correctness. It runs every workload invocation (and every smoke
invocation) once per CLI seed slot and stores the sha256 of the lines
of each payload that do not start with '#'. Any failure aborts the
recording. The metadata (Python and numpy versions, CPU count, net
`src/` line count) is informational and not gated.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import BASE_SEED, DEADLINE_S, SEED_SLOTS, WORKLOADS, cli_seed


def main() -> int:
    cli = run.import_cli()
    hashes: dict = {"full": {}, "smoke": {}}
    for mode, table in hashes.items():
        for name, workload in WORKLOADS.items():
            invocations = workload.smoke if mode == "smoke" else workload.invocations
            for inv in invocations:
                slots = range(SEED_SLOTS) if inv.seeded else range(1)
                for slot in slots:
                    outcome = run.invoke(cli, inv.bind(cli_seed(slot)), DEADLINE_S)
                    if outcome.error is not None:
                        sys.exit(f"error: {mode} {name} {inv.name} slot {slot}: {outcome.error}")
                    table.setdefault(name, {}).setdefault(inv.name, {})[run.golden_key(inv, slot)] = outcome.digest
                print(f"{mode} {name} {inv.name}: {len(slots)} payloads", flush=True)
    doc = {"base_seed": BASE_SEED, "seed_slots": SEED_SLOTS, "recorded_with": run.metadata(), "hashes": hashes}
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
