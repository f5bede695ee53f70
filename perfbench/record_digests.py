"""Pin the sha256 digest of every output any seed can ask the benchmark for.

    python3 perfbench/record_digests.py

Runs every job in every workload's pool once, refuses to record if a job
fails its independent checks, and rewrites digests.json.  Run it only on a
commit whose outputs are known good: afterwards any change in those bytes
fails the benchmark's output gate.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import DIGESTS, OUT, load_workloads
from tracer import Tracer


def main() -> int:
    workloads = load_workloads()
    OUT.mkdir(exist_ok=True)
    digests = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for wl in workloads.WORKLOADS.values():
            for job in wl.all_jobs():
                out = wl.run(job, Tracer(False), Path(tmp))
                problems = wl.check(job, out, Path(tmp))
                if problems:
                    print(f"{job!r} failed its checks: {problems}", file=sys.stderr)
                    return 1
                for key, text in wl.digest_texts(job, out, Path(tmp)).items():
                    digests[key] = workloads.sha256(text)
                print(f"recorded {job!r}", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
