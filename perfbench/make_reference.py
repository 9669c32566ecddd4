"""Record the reference digest of every input of every workload family.

Run from the root of a checkout whose program output is known to be right
(reference.json in this directory was written from the seed commit):

    python3 perfbench/make_reference.py

Each entry maps an operation key to [digest of exit code and stdout,
tableaux the operation completes].  The benchmark counts an operation as
failed when its digest differs or its key is missing.
"""

from __future__ import annotations

import json
import re

import workloads


def _tableaux(op: workloads.Op, stdout: str) -> int:
    if op.argv[0] == "enumerate":
        return int(re.search(r"^count: (\d+)$", stdout, re.M).group(1))
    if op.argv[0] == "verify":
        return int(re.search(r"^tableaux checked: (\d+)$", stdout, re.M).group(1))
    return 1


def main() -> None:
    package = workloads.import_program()
    main_fn = package.cli.main
    ops = [op for name in workloads.WORKLOADS for op in workloads.family(name, package)]
    ops.append(workloads.Op(workloads.VERIFY_WARMUP_ARGV))
    reference = {}
    for op in ops:
        code, stdout = workloads.call(main_fn, op)
        if code != 0:
            raise SystemExit(f"{op.key}: exit code {code}")
        reference[op.key] = [workloads.output_digest(code, stdout), _tableaux(op, stdout)]
    lines = [f"{json.dumps(key)}: {json.dumps(reference[key])}" for key in sorted(reference)]
    with open(workloads.REFERENCE_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(reference)} reference digests written to {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
