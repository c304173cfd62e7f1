"""Pin the expected outputs of every case at the default workload seed.

Run from the root of a checkout, once per benchmark change that adds or
alters a case, on a commit whose outputs are known to be right:

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: per case, the exit code, the SHA-256 of
its ``--json`` stdout and the facts checked at other workload seeds.
"""

import json
import os
import sys

import run


def main():
    sys.path.insert(0, "src")
    from cases import DEFAULT_SEED, WORKLOADS
    os.makedirs(run.WORK_DIR, exist_ok=True)
    expected = {}
    for workload in WORKLOADS:
        cases, _ = run.prepare(workload, DEFAULT_SEED)
        for record in run.run_pass(cases, True, {}, float("inf")):
            if record["exit"] < 0:
                raise SystemExit("%s: %s" % (record["case"],
                                             record["failure"]))
            expected[record["case"]] = {key: record[key] for key in
                                        ("exit", "sha256", "facts")}
            print("%-28s exit %d  %6.2f s  %s" % (
                record["case"], record["exit"], record["wall"],
                record["facts"]))
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
