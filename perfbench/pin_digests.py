"""Pin the engine workloads' result digests for a range of seeds.

    python3 perfbench/pin_digests.py --first 0 --last 31

Runs the reference (object) engine once per (engine workload, seed) and
writes ``perfbench/digests.json``.  Re-pin only when a change is meant to
alter simulated results; a benchmark run whose record differs from a
pinned digest counts as a failed, incorrect run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from gate import DIGESTS
from run import ENGINE_CONFIGS, HERE, ROOT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=31)
    args = parser.parse_args(argv)
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload, fields in ENGINE_CONFIGS.items():
        pinned = table.setdefault(workload, {})
        for seed in range(args.first, args.last + 1):
            config = json.dumps(dict(fields, seed=seed))
            done = subprocess.run(
                [sys.executable, str(HERE / "engine_run.py"), "--engine", "object",
                 "--config", config],
                capture_output=True, text=True, check=True, cwd=ROOT,
            )
            pinned[str(seed)] = json.loads(done.stdout.splitlines()[-1])["digest"]
            table[workload] = dict(sorted(pinned.items(), key=lambda kv: int(kv[0])))
            DIGESTS.write_text(json.dumps(table, indent=1) + "\n")
            print(workload, seed, pinned[str(seed)], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
