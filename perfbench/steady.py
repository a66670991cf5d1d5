"""Repeat the benchmark over seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --workloads spec-exec,serve-run --seeds 1-10

For every (workload, end-to-end metric) it prints the median over the
runs and the inter-quartile distance as a share of that median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``, and the spread the same metric has in host seconds
(before the host-speed scaling).  A spread above a third of the bound is
flagged.
The runs' last lines are kept in ``perfbench/out/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import median, spread  # noqa: E402


def _seeds(text: str):
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads",
        default=",".join(w["name"] for w in config["workloads"]),
    )
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    runs = {}
    steady = True
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                cwd=str(ROOT), capture_output=True, text=True, check=True,
            )
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            result = json.loads(
                (ROOT / "perfbench" / "out"
                 / f"{workload}-seed{seed}.json").read_text()
            )
            last["host_seconds"] = result["host_seconds"]
            runs[workload].append(last)
            if not last["correct"]:
                steady = False
                print(f"{workload} seed {seed}: INCORRECT", flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            share = spread(values)
            host = [r["host_seconds"].get(name) for r in runs[workload]]
            host_share = (
                f"{spread(host):.4f}" if None not in host else "-"
            )
            flag = "" if share < bound / 3 else "  <-- above bound/3"
            if name != "setup_s" and share >= bound / 3:
                steady = False
            print(f"{workload:<14} {name:<17} median={median(values):<12.6g}"
                  f" spread={share:.4f} host={host_share:<6} bound={bound}"
                  f"{flag}", flush=True)
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(runs, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
