"""Check that the benchmark is steady: many seeds, alternating order.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --runs 10 [--workloads serve stream] [--out runs.json]

Round ``r`` runs every workload once with seed ``--seed + r``; the order
of the workloads is reversed every other round, so slow drift of the
machine does not always hit the same workload first.  For each
end-to-end metric the report gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` computes them) and their distance
as a share of the median, next to the metric's bound from
``BENCHMARK.json``.  A spread above a third of the bound is flagged
``wide``; above the bound, ``FAIL`` (``setup_s`` is exempt from the
spread rule; its bound limits drift between medians only).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({out.returncode}): {out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    return {"workload": workload, "seed": seed, "result": result, "record": record}


def report(runs: list[dict], spec: dict) -> tuple[str, bool]:
    lines, ok = [], True
    for wl in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == wl]
        lines.append(f"{wl} ({len(mine)} runs)")
        lines.append(f"  {'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            med = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if name != "setup_s":
                if spread > bound:
                    flag, ok = "FAIL", False
                elif spread > bound / 3:
                    flag = "wide"
            lines.append(
                f"  {name:<18} {med:11.4f} {q1:11.4f} {q3:11.4f} {spread:7.3f} {bound:6.2f} {flag}"
            )
    return "\n".join(lines), ok


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=Path, help="also write every run's output here")
    args = parser.parse_args(argv)

    runs = []
    for r in range(args.runs):
        order = args.workloads if r % 2 == 0 else args.workloads[::-1]
        for wl in order:
            run = run_once(wl, args.seed + r, args.seconds)
            runs.append(run)
            m = run["result"]["metrics"]
            print(f"round {r} {wl}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in m.items()), flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    text, ok = report(runs, spec)
    print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
