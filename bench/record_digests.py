"""Record in digests.json the SHA-256 of every workload's results.csv.

    python3 bench/record_digests.py 1 60    # config seeds 1..workloads.RECORDED

Run from the repository root, on code whose results are the reference.
Each (workload, config seed) runs once as a benchmark sample and must
pass every output check before its digest is recorded.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
from pathlib import Path

import checks
from run import Run
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    digests = checks.load_digests()
    work = root / ".bench_work" / "record-digests"
    for name, workload in WORKLOADS.items():
        for seed in range(first, last + 1):
            shutil.rmtree(work, ignore_errors=True)
            run = Run(root, workload, 0, False, work)
            run.digests = None
            sample = run.sample(0, seed, False)
            if sample["problems"]:
                print(f"{name} seed {seed}: {sample['problems']}", file=sys.stderr)
                return 1
            digests.setdefault(name, {})[str(seed)] = {
                label: checks.sha256(data) for (label, _), data in run.reference.items()}
            print(f"{name} seed {seed}: ok", flush=True)
    checks.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
