"""Print every benchmark metric of every workload by name and unit.

    python3 perfbench/report.py [--seconds 50] [--seeds 1,2,3] [--trace 0|1|both]
                                [--json-out summary.json]

Each workload runs in its own process, once untraced (end-to-end metrics)
and once traced (per-layer metrics), so peak RSS and collector counts are
never carried over from another run. With several seeds every metric is
shown as the median over the seeds and the spread between its quartiles
as a share of that median, the figure BENCHMARK.json's bounds apply to.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line for line in lines if line.startswith("corpus_sha256")]


def summarize(results: list[dict]) -> dict[str, dict]:
    """name -> unit, values, median, quartiles, spread (quartile distance / median)"""
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        row = {"median": statistics.median(values), "unit": first["unit"], "values": values}
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3, spread=(q3 - q1) / row["median"] if row["median"] else None)
        out[name] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--seeds", default="1", help="comma-separated workload seeds")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--json-out", help="also write the summary here as JSON")
    args = parser.parse_args(argv)
    sys.stdout.reconfigure(line_buffering=True)
    seeds = [int(s) for s in args.seeds.split(",")]
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    all_correct = True
    summary: dict[str, dict] = {}
    for trace in modes:
        title = "per layer (traced, serial)" if trace else "end-to-end (untraced)"
        print(f"== {title}, seeds {args.seeds}, {args.seconds:g} s per run")
        for workload in WORKLOADS:
            results = []
            for seed in seeds:
                result, digests = run_once(workload, seed, args.seconds, trace)
                results.append(result)
                for line in digests:
                    print(f"  seed {seed}: {line}")
            correct = all(r["correct"] for r in results)
            all_correct &= correct
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            print(
                f"  {workload}: correct={correct} failed_frac={failed / attempted:g} "
                f"({failed}/{attempted} dialogs)"
            )
            rows = summarize(results)
            for name, row in rows.items():
                spread = row.get("spread")
                shown = "" if spread is None else f"  spread {spread:.4f}"
                print(f"    {workload:9s} {name:34s} {row['median']:14.6g} {row['unit']:10s}{shown}")
            summary.setdefault(workload, {}).update(
                {"failed_frac": failed / attempted, "correct": correct, **rows}
            )
    if args.json_out:
        doc = {"seconds": args.seconds, "seeds": seeds, "workloads": summary}
        Path(args.json_out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
