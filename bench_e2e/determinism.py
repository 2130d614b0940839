#!/usr/bin/env python3
"""Same seed, same accuracy: runs every workload twice with one seed and
checks that gmq_final, gmq_mean and annotations are identical.

    python3 bench_e2e/determinism.py [--seed N] [--seconds S]

Exits 1 and names the workload and metric when two runs differ. The
adaptation schedule is fixed by the seed, so a short --seconds checks the
same adaptation work as a full-length run.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

METRICS = ("gmq_final", "gmq_mean", "annotations")


def one_run(workload, seed, seconds):
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    record = run.build_dir() / "results" / f"{workload}-{seed}-0.json"
    return json.loads(record.read_text())["metrics"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    args = ap.parse_args()
    differ = []
    for workload in run.WORKLOADS:
        a = one_run(workload, args.seed, args.seconds)
        b = one_run(workload, args.seed, args.seconds)
        for name in METRICS:
            same = a[name] == b[name]
            print(f"{workload:22s} {name:12s} {a[name]!r:>22} {b[name]!r:>22}"
                  f"  {'identical' if same else 'DIFFERENT'}")
            if not same:
                differ.append((workload, name))
    if differ:
        print("not deterministic: " +
              ", ".join(f"{w}/{m}" for w, m in differ))
        sys.exit(1)


if __name__ == "__main__":
    main()
