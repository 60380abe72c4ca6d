"""Correctness gate, exact-counter check and run manifest.

Simulated statistics are deterministic per seed, so they are the
benchmark's correctness gate rather than its metrics:

* an engine run's ``result_record`` digest must equal the digest pinned
  in ``digests.json`` for its (workload, seed), when one is pinned, and
  the object and SoA engines must agree on every run;
* every sweep and serve record must equal in-process ``execute_job``;
* an *exact* counter (one that depends only on the code and the seed)
  must read the same in every run of the same code.  Each run stores its
  exact counters under ``.perfbench/counters/`` and compares them with
  the previous run of the same workload, seed and code.

Any mismatch counts as a failed operation.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"

#: A seed kept out of every tuning run; re-run a claimed gain on it
#: before accepting the claim.
HELD_OUT_SEED = 7919


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set size of a live process (default: this one), in MB.

    Read from ``VmHWM``, which starts afresh at ``exec``; ``ru_maxrss``
    of a freshly spawned interpreter still includes the parent it was
    forked from.
    """
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 if pid == "self" else 0.0


def workers_peak_rss_mb() -> float:
    """Largest peak RSS among this process's live worker processes, in MB."""
    import multiprocessing

    return max((peak_rss_mb(p.pid) for p in multiprocessing.active_children()), default=0.0)


def record_digest(record: dict) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def pinned_digest(workload: str, seed: int) -> str | None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    return table.get(workload, {}).get(str(seed))


def compare_records(label: str, got: list[dict], want: list[dict]) -> list[str]:
    """One mismatch message per record of ``got`` that differs from ``want``."""
    if len(got) != len(want):
        return [f"{label}: {len(got)} records, expected {len(want)}"]
    return [
        f"{label}: record {index} differs from the reference record"
        for index, (a, b) in enumerate(zip(got, want))
        if a != b
    ]


def code_hash(root: Path) -> str:
    """Content hash of the simulator and the benchmark sources."""
    digest = hashlib.sha256()
    for base in (root / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def check_exact(root: Path, workload: str, seed: int, exact: dict) -> list[str]:
    """Compare ``exact`` with the last run of the same code; then store it."""
    store = root / ".perfbench" / "counters" / f"{workload}-seed{seed}.json"
    current = code_hash(root)
    previous: dict = {}
    if store.exists():
        saved = json.loads(store.read_text())
        if saved.get("code_hash") == current:
            previous = saved["exact"]
    mismatches = [
        f"exact counter {name} = {value}, previous run of this code read "
        f"{previous[name]}"
        for name, value in sorted(exact.items())
        if name in previous and previous[name] != value
    ]
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(
        json.dumps({"code_hash": current, "exact": {**previous, **exact}}, indent=1)
    )
    return mismatches


def _git(root: Path, *args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(root: Path, workload: str, seed: int, seconds: int, trace: bool,
             params: dict) -> dict:
    """What produced a result: code, interpreter, host load and inputs."""
    import numpy

    # Only this checkout's own repository, never one that encloses it.
    inside = _git(root, "rev-parse", "--show-toplevel") == str(root)
    commit = _git(root, "rev-parse", "HEAD") if inside else None
    status = _git(root, "status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "code_hash": code_hash(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "executable": sys.executable,
        "nproc": os.cpu_count(),
        "load_before": list(os.getloadavg()),
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "params": params,
    }
