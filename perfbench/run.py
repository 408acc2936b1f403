"""The repository benchmark: one workload, one run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload osd_direct --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing installed.
``--trace 1`` runs an untraced window and then a traced one of the same
length, and reports the per-layer metrics (spans are also written to
``perfbench/out/spans-<workload>.npz``). Every read is verified; failed
and corrupt operations count against those attempted.

The last line of standard output is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Lines before it are a human-readable table and one ``# meta`` JSON line
(host, versions, commit, profile, seed, sample counts). See
``perfbench/METRICS.md`` for what each metric means and should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import Any, Dict, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _parse(argv: Optional[list]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[list] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy

    from workloads import PROFILE, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    if outcome.spans is not None:
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        outcome.spans.save(out_dir / f"spans-{args.workload}.npz")
    meta: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "profile": PROFILE.name,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _git_commit(ROOT),
        **outcome.info,
    }
    for name, (value, unit) in sorted(outcome.metrics.items()):
        print(f"{name:44s} {value:16.6f} {unit}")
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}")
    print("# meta " + json.dumps(meta, sort_keys=True))
    correct = not outcome.problems and outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(outcome.metrics.items())
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
