"""Smoke test of the benchmark at a tiny dialog count (a few seconds).

    python3 perfbench/smoke.py

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, that the outputs pass the benchmark's correctness checks, and
that a traced run puts back every function it wrapped and removes its
garbage-collector callback. Exits 0 when all hold.
"""
from __future__ import annotations

import gc
import json
import sys

import run
from run import END_TO_END, PER_LAYER, ROOT, WORKLOADS, engine, goals

N_DIALOGS = 6


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[key]}
        check(named == table, f"BENCHMARK.json {key} matches run.py", failures)
    check(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json workloads match run.py",
        failures,
    )

    modules = (engine, goals)
    before = [dict(vars(m)) for m in modules]
    callbacks = list(gc.callbacks)
    for workload in WORKLOADS:
        for trace, table in ((False, END_TO_END), (True, PER_LAYER)):
            label = f"{workload} trace={int(trace)}"
            result = run.run(workload, seed=7, seconds=0, trace=trace, n_dialogs=N_DIALOGS)
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{label}: result keys",
                failures,
            )
            check(
                result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                f"{label}: outputs correct",
                failures,
            )
            metrics = result["metrics"]
            check(
                {name: m["unit"] for name, m in metrics.items()} == table,
                f"{label}: every metric with its unit",
                failures,
            )
            check(
                all(isinstance(m["value"], (int, float)) for m in metrics.values()),
                f"{label}: numeric values",
                failures,
            )
            if trace:
                check(metrics["nlg.user_calls"]["value"] > 0, f"{label}: wrappers ran", failures)
            restored = all(
                vars(m).get(k) is v for m, names in zip(modules, before) for k, v in names.items()
            )
            check(restored, f"{label}: wrapped functions restored", failures)
            check(gc.callbacks == callbacks, f"{label}: gc callbacks removed", failures)
    print("smoke:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
