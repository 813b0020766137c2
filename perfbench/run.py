"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

Prints one line per metric (name, value, unit, sample count), the output
checks, and as its last line one JSON object::

    {"correct": true, "attempted": 900, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the run times half its window
untraced and half with the layer wrappers installed, and the metrics are
the per-layer ones.  The exit code is 0 when every check passed, 1 when
one failed, and 2 when the sources to measure are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve_mixed", "serve_bulk", "adapt", "pretrain_dp2")


def git_commit(root: Path):
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    import repro

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        **{var: os.environ.get(var) for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repro": repro.__version__,
        "commit": git_commit(ROOT),
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import serving, training
    from perfbench.metrics import END_TO_END, PER_LAYER

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(environment()))
    module = serving if args.workload.startswith("serve_") else training
    outcome = module.run(args.workload, args.seed, args.seconds, bool(args.trace))

    units = PER_LAYER if args.trace else END_TO_END
    values = outcome.per_layer if args.trace else outcome.end_to_end
    for name, unit in units.items():
        print(f"metric {name} = {float(values[name])!r} {unit} (n={outcome.samples.get(name, 1)})")
    for name, value, unit, n in outcome.detail:
        print(f"detail {name} = {float(value)!r} {unit} (n={n})")
    for failure in outcome.failures:
        print(f"check FAILED: {failure}")
    correct = not outcome.failures
    print(f"checks {'passed' if correct else 'FAILED'}: attempted={outcome.attempted} failed={outcome.failed}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
