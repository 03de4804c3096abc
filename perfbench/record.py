"""Record the reference output digests of every pool input.

    python3 perfbench/record.py

Run from the repository root on a commit whose outputs are known good;
the benchmark then requires every later commit to reproduce these bytes
(the version string excepted).  Rewrites perfbench/reference.json with
every workload in inputs.WORKLOADS.
"""

from __future__ import annotations

import json
import sys

import run
import inputs


def main():
    doc = {"workloads": {}}
    server = run.Server(run.child_env())
    try:
        for name in sorted(inputs.WORKLOADS):
            digests = []
            for index in range(inputs.pool_size(name)):
                rec = run.run_one(server, name, index, "plain", None)
                if "error" in rec:
                    sys.exit("%s #%d: %s" % (name, index, rec["error"]))
                digests.append(rec["digest"])
            doc["workloads"][name] = digests
            print("%s: %d digests" % (name, len(digests)))
    finally:
        server.close()
    with open(run.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
