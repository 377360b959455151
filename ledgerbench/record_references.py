"""Record the reference build of every workload for the given seeds.

    python3 ledgerbench/record_references.py 0 1

Writes ``ledgerbench/references.json``: per workload, seed and training
set, the tree fingerprint and the exact counters (scans, simulated ms, ledger peak,
holdout accuracy, node count) that every later run on that seed must
reproduce bit for bit.  Re-record only when a change is meant to alter
the trees, and say so with the change.
"""

from __future__ import annotations

import json
import sys

from run import prepare


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or [0]
    if not prepare():
        return 2
    from ledgerbench import pipeline
    from ledgerbench.measure import REFERENCES

    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    for name, w in pipeline.WORKLOADS.items():
        for seed in seeds:
            inputs = pipeline.make_inputs(w, seed)
            records = []
            for j, data in enumerate(inputs.trains):
                trained = pipeline.train(w, data, seed)
                record, problems = pipeline.check_build(trained, inputs.holdout, None)
                if problems:
                    print(f"{name} seed {seed} set {j}: {problems}", file=sys.stderr)
                    return 1
                records.append(record)
                print(f"{name} seed {seed} set {j}: {record}")
            refs.setdefault(name, {})[str(seed)] = records
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
