"""Record the golden output digests of the classify, fibers and cli ops.

    python3 perfbench/record_golden.py

Run it only at a commit whose outputs are known to be right: the benchmark
counts every op whose output digest differs from golden.json as failed.
"""

from __future__ import annotations

import hashlib
import json

import workloads
from session import ROOT


def main() -> None:
    workloads.load_package(ROOT)
    table = {}
    for name in ("classify", "fibers"):
        workload = workloads.make(name, ROOT)
        session = workload.setup(quick=False)
        gen = workload.ops(session, workloads.pass_rng(name, 0, 0), 0)
        digests, result = {}, None
        while True:
            try:
                op = gen.send(result)
            except StopIteration:
                break
            result = op.call()
            digests[op.key] = workloads.digest(result)
        table[name] = digests
    table["cli"] = {}
    for argv in workloads.CLI_OPS:
        code, out = workloads.cli_subprocess(ROOT, argv)
        table["cli"][workloads.cli_key(argv)] = {"exit": code,
                                                 "sha256": hashlib.sha256(out).hexdigest()}
    workloads.GOLDEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH.name}: "
          + ", ".join(f"{k} {len(v)}" for k, v in table.items()))


if __name__ == "__main__":
    main()
