"""dialogsim benchmark: generate a corpus, read it back, report on it, export it.

    python3 perfbench/run.py --workload selfplay --seed 1 --seconds 50 --trace 0

Drives the public API in-process with the calls that `dialogsim generate`,
`metrics` and `export-training` make, on the packaged demo schema and
seeds, as a closed loop with one caller. One repetition is the whole
pipeline on one batch; repetitions run until `--seconds` is used up and
every metric is the median over them. `--trace 0` reports the end-to-end
metrics; `--trace 1` wraps the functions `dialogsim.engine` calls into and
reports the per-layer split. The last stdout line is a JSON object with
`correct`, `attempted`, `failed` and `metrics`. See README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from random import Random
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

try:
    import dialogsim
    from dialogsim import engine, goals
    from dialogsim.acts import turn_acts_string
    from dialogsim.engine import GenerationConfig, GenerationError, prepare_batch, run_batch
    from dialogsim.export import export_training
    from dialogsim.goals import SamplerError
    from dialogsim.markup import (
        MarkupError,
        parse_corpus,
        parse_dialog,
        serialize_corpus,
        serialize_dialog,
    )
    from dialogsim.metrics import variation_report
    from dialogsim.nlg import build_template_index
    from dialogsim.schema import loads_schema
except ImportError as e:
    sys.exit(f"perfbench: cannot import dialogsim from {ROOT / 'src'}: {e}")
if not Path(dialogsim.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"perfbench: dialogsim was imported from {dialogsim.__file__}, not {ROOT / 'src'}")

from reference import Speed  # noqa: E402
from tracing import GcMonitor, LayerTracer, collect  # noqa: E402

# name -> (sampler mix, dialogs per repetition). Batch sizes give each
# repetition a few seconds of work on a 2-CPU machine.
WORKLOADS = {
    # the paper's main path: sampled goals, agenda user, heuristic system
    "selfplay": ({"base": 0.0, "golden": 0.4, "markov": 0.6}, 1000),
    # seed replay: no goal sampling and no policies; NLG, markup and engine only
    "replay": ({"base": 1.0}, 2000),
}
SETUP_PER_REP = 5
MIN_REPS = 3
# variation_report takes a tenth of the other stages; repeating it makes
# its sample as long as theirs, so it averages over the same machine noise
METRICS_REPEAT = 10
ROUND_TRIP_SAMPLE = 50
POOL_WORKERS = 2
FAILURES = (GenerationError, SamplerError, MarkupError)

END_TO_END = {
    "setup_s": "s",
    "generate_dps": "dialogs/s",
    "generate_w2_dps": "dialogs/s",
    "ingest_dps": "dialogs/s",
    "metrics_dps": "dialogs/s",
    "export_dps": "dialogs/s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "schema.load_s": "s",
    "engine.prepare_s": "s",
    "goals.sample_share": "ratio",
    "goals.goals": "count",
    "goals.markov_accept_ratio": "ratio",
    "user_agent.next_user_turn_share": "ratio",
    "user_agent.turns": "count",
    "system_agent.next_system_turn_share": "ratio",
    "system_agent.turns": "count",
    "system_agent.offer_accept_ratio": "ratio",
    "nlg.realize_user_share": "ratio",
    "nlg.realize_response_share": "ratio",
    "nlg.backoff_share": "ratio",
    "nlg.user_calls": "count",
    "nlg.user_template_hit_ratio": "ratio",
    "engine.turn_assembly_share": "ratio",
    "engine.pool_speedup": "ratio",
    "markup.serialize_s": "s",
    "markup.corpus_bytes": "bytes",
    "markup.parse_s": "s",
    "markup.link_s": "s",
    "metrics.variation_report_s": "s",
    "export.export_training_s": "s",
    "export.to_json_s": "s",
    "export.examples": "count",
    "export.bytes": "bytes",
    "gc.pause_s": "s",
    "gc.gen2_collections": "count",
    "trace.untraced_generate_dps": "dialogs/s",
    "trace.traced_generate_dps": "dialogs/s",
    "trace.overhead_frac": "ratio",
    "reference.kernel_s": "s",
}


def _read_data(name: str) -> str:
    return (ROOT / "src" / "dialogsim" / "data" / name).read_text(encoding="utf-8")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Bench:
    """One workload at one seed: inputs, per-repetition samples, checks."""

    def __init__(self, workload: str, seed: int, n_dialogs: int | None = None):
        self.mix, default_n = WORKLOADS[workload]
        self.n = n_dialogs or default_n
        self.seed = seed
        self.schema_text = _read_data("demo_schema.json")
        self.seeds_text = _read_data("demo_seeds.txt")
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.digests: dict[int, set[str]] = defaultdict(set)
        self.reference_s: list[float] = []
        self.sample_idx = sorted(
            Random(seed).sample(range(self.n), min(ROUND_TRIP_SAMPLE, self.n))
        )

    # -- set-up ---------------------------------------------------------
    def set_up(self) -> None:
        """Schema load, seed parse+link, batch preparation and the export
        template index: what every generate, metrics or export run pays
        before its first dialog. Repeated SETUP_PER_REP times."""
        raw = defaultdict(list)
        with Speed() as speed:
            for _ in range(SETUP_PER_REP):
                t0 = perf_counter()
                bundle = loads_schema(self.schema_text)
                t1 = perf_counter()
                seeds = parse_corpus(self.seeds_text, bundle)
                t2 = perf_counter()
                prepare_batch(bundle, seeds, self.config(1))
                t3 = perf_counter()
                export_index = build_template_index(bundle, [])
                t4 = perf_counter()
                raw["setup_s"].append(t4 - t0)
                raw["schema.load_s"].append(t1 - t0)
                raw["engine.prepare_s"].append(t3 - t2)
        for key, values in raw.items():
            self.samples[key].extend(v * speed.factor for v in values)
        self.bundle, self.seeds, self.export_index = bundle, seeds, export_index

    def config(self, workers: int) -> GenerationConfig:
        return GenerationConfig(
            n_dialogs=self.n, sampler_mix=dict(self.mix), rng_seed=self.seed, workers=workers
        )

    # -- pipeline stages; each returns its times scaled by reference.Speed --
    def generate(self, workers: int):
        """`dialogsim generate`: run_batch then serialize_corpus."""
        collect()
        with Speed() as speed:
            t0 = perf_counter()
            result = run_batch(self.bundle, self.seeds, self.config(workers))
            t1 = perf_counter()
            text = serialize_corpus(result.dialogs)
            t2 = perf_counter()
        self.reference_s.append(speed.reference_s)
        self.digests[workers].add(hashlib.sha256(text.encode()).hexdigest())
        return result, text, (t1 - t0) * speed.factor, (t2 - t1) * speed.factor, speed.factor

    def ingest(self, text: str, bundle):
        """Parse (and, given a bundle, link) a corpus as `metrics` and
        `export-training` read it."""
        collect()
        with Speed() as speed:
            t0 = perf_counter()
            dialogs = parse_corpus(text, bundle)
            t1 = perf_counter()
        return dialogs, (t1 - t0) * speed.factor

    def metrics(self, dialogs, repeat: int):
        with Speed() as speed:
            t0 = perf_counter()
            for _ in range(repeat):
                report = variation_report(dialogs)
            t1 = perf_counter()
        return report, (t1 - t0) * speed.factor / repeat

    def export(self, dialogs):
        """`dialogsim export-training`: examples and their JSON lines."""
        with Speed() as speed:
            t0 = perf_counter()
            examples = export_training(dialogs, self.bundle, self.export_index)
            t1 = perf_counter()
            lines = [row.to_json() for rows in examples.values() for row in rows]
            t2 = perf_counter()
        return lines, (t1 - t0) * speed.factor, (t2 - t1) * speed.factor

    # -- correctness checks -----------------------------------------------
    def round_trip_failures(self, dialogs) -> set[int]:
        return {
            i
            for i in self.sample_idx
            if parse_dialog(serialize_dialog(dialogs[i]), self.bundle) != dialogs[i]
        }

    def block_failures(self, expected: str, actual: str) -> set[int]:
        """Indices of dialogs whose serialized block differs."""
        a, b = expected.split("\n\n"), actual.split("\n\n")
        if len(a) != len(b):
            return set(range(self.n))
        return {i for i, (x, y) in enumerate(zip(a, b)) if x != y}

    def check_read_back(self, text: str, dialogs, report, lines) -> set[int]:
        """The read-back corpus re-serializes to the same bytes, and the
        report and export cover every dialog."""
        bad = self.block_failures(text, serialize_corpus(dialogs))
        if report.n_dialogs != self.n or not lines:
            bad = set(range(self.n))
        return bad

    # -- repetitions ------------------------------------------------------
    def generate_both(self) -> tuple[str, set[int]]:
        """Serial and pooled generation; the pooled corpus must be
        byte-identical (the worker count never changes the output)."""
        result, text, gen_s, ser_s, _ = self.generate(1)
        self.samples["generate"].append(gen_s + ser_s)
        bad = self.round_trip_failures(result.dialogs)
        if len(result.dialogs) != self.n:
            bad = set(range(self.n))
        del result
        _, text_w2, gen_s, ser_s, _ = self.generate(POOL_WORKERS)
        self.samples["generate_w2"].append(gen_s + ser_s)
        return text, bad | self.block_failures(text, text_w2)

    def rep_untraced(self) -> set[int]:
        text, bad = self.generate_both()
        dialogs, ingest_s = self.ingest(text, self.bundle)
        report, metrics_s = self.metrics(dialogs, METRICS_REPEAT)
        lines, export_s, json_s = self.export(dialogs)
        self.samples["ingest"].append(ingest_s)
        self.samples["metrics"].append(metrics_s)
        self.samples["export"].append(export_s + json_s)
        return bad | self.check_read_back(text, dialogs, report, lines)

    def rep_traced(self) -> set[int]:
        text, bad = self.generate_both()
        with LayerTracer() as tracer, GcMonitor() as gcm:
            install(tracer)
            result, traced_text, gen_s, ser_s, factor = self.generate(1)
            tracer.restore()
            stats = result.stats
            del result
            _, parse_s = self.ingest(traced_text, None)
            dialogs, parse_link_s = self.ingest(traced_text, self.bundle)
            report, metrics_s = self.metrics(dialogs, 1)
            lines, export_s, json_s = self.export(dialogs)
        bad |= self.block_failures(text, traced_text)
        bad |= self.check_read_back(text, dialogs, report, lines)
        s, inc, calls = self.samples, tracer.inclusive, tracer.calls
        s["traced_generate"].append(gen_s + ser_s)
        # generation layers as shares of the traced run_batch + serialize time
        generate_raw_s = (gen_s + ser_s) / factor
        busy = {
            "goals.sample_share": inc["goals.golden"] + inc["goals.markov"],
            "user_agent.next_user_turn_share": inc["user_agent.next_user_turn"],
            "system_agent.next_system_turn_share": inc["system_agent.next_system_turn"],
            "nlg.realize_user_share": inc["nlg.realize_user"],
            "nlg.realize_response_share": inc["nlg.realize_response"],
            "nlg.backoff_share": inc["nlg.backoff"],
            "engine.turn_assembly_share": tracer.self_time["engine.run_dialog"]
            + tracer.self_time["engine.run_base_dialog"],
        }
        for name, seconds in busy.items():
            s[name].append(seconds / generate_raw_s)
        s["markup.serialize_s"].append(ser_s)
        s["markup.parse_s"].append(parse_s)
        s["markup.link_s"].append(parse_link_s - parse_s)
        s["metrics.variation_report_s"].append(metrics_s)
        s["export.export_training_s"].append(export_s)
        s["export.to_json_s"].append(json_s)
        s["gc.pause_s"].append(gcm.pause_s)
        s["gc.gen2_collections"].append(gcm.gen2_collections)
        self.counts.update(
            {
                "goals.goals": calls["goals.golden"] + calls["goals.markov"],
                "goals.markov_accept_ratio": _ratio(
                    calls["goals.markov"], calls["goals.validate"]
                ),
                "user_agent.turns": calls["user_agent.next_user_turn"],
                "system_agent.turns": calls["system_agent.next_system_turn"],
                "system_agent.offer_accept_ratio": _ratio(
                    stats.get("offers_accepted", 0), stats.get("offers_made", 0)
                ),
                "nlg.user_calls": calls["nlg.realize_user"],
                "nlg.user_template_hit_ratio": _ratio(
                    template_hits(tracer.args["nlg.realize_user"]), calls["nlg.realize_user"]
                ),
                "markup.corpus_bytes": len(traced_text.encode()),
                "export.examples": len(lines),
                "export.bytes": sum(len(line.encode()) + 1 for line in lines),
            }
        )
        return bad

    def measure(self, seconds: float, trace: bool) -> None:
        rep = self.rep_traced if trace else self.rep_untraced
        start = perf_counter()
        last = 0.0
        reps = 0
        while reps < MIN_REPS or perf_counter() - start + last <= seconds:
            t0 = perf_counter()
            # set-up is sampled throughout the run, not only at its start,
            # so a slow spell of the machine shifts it no more than the rest
            self.set_up()
            self.attempted += self.n
            try:
                self.failed += len(rep())
            except FAILURES as e:
                print(f"perfbench: repetition {reps} failed: {e!r}", file=sys.stderr)
                self.failed += self.n
            last = perf_counter() - t0
            reps += 1

    # -- results ----------------------------------------------------------
    def _dps(self, key: str) -> float:
        return self.n / statistics.median(self.samples[key])

    def end_to_end(self) -> dict[str, float]:
        return {
            "setup_s": statistics.median(self.samples["setup_s"]),
            "generate_dps": self._dps("generate"),
            "generate_w2_dps": self._dps("generate_w2"),
            "ingest_dps": self._dps("ingest"),
            "metrics_dps": self._dps("metrics"),
            "export_dps": self._dps("export"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        out = {}
        for name in PER_LAYER:
            if name in self.counts:
                out[name] = self.counts[name]
            elif name in self.samples:
                out[name] = statistics.median(self.samples[name])
        out["reference.kernel_s"] = statistics.median(self.reference_s)
        untraced, traced = self._dps("generate"), self._dps("traced_generate")
        out["engine.pool_speedup"] = self._dps("generate_w2") / untraced
        out["trace.untraced_generate_dps"] = untraced
        out["trace.traced_generate_dps"] = traced
        out["trace.overhead_frac"] = untraced / traced - 1
        return out


def template_hits(realize_user_args: list[tuple]) -> int:
    """realize_user calls whose whole-turn act signature has a template."""
    return sum(
        turn_acts_string(acts) in index.user for acts, _, index, *_ in realize_user_args
    )


def install(tracer: LayerTracer) -> None:
    """Wrap the names `dialogsim.engine` calls into, one layer each."""

    tracer.wrap(engine, "sample_golden", "goals.golden")
    tracer.wrap(engine, "sample_markov", "goals.markov")
    # every validate_goal call made from inside the goals module is the
    # rejection test in sample_markov; engine calls its own imported name
    tracer.wrap(goals, "validate_goal", "goals.validate")
    tracer.wrap(engine, "next_user_turn", "user_agent.next_user_turn")
    tracer.wrap(engine, "next_system_turn", "system_agent.next_system_turn")
    tracer.wrap(engine, "realize_user", "nlg.realize_user", keep_args=True)
    tracer.wrap(engine, "realize_response", "nlg.realize_response")
    tracer.wrap(engine, "realize_system_backoff", "nlg.backoff")
    tracer.wrap(engine, "run_dialog", "engine.run_dialog")
    tracer.wrap(engine, "run_base_dialog", "engine.run_base_dialog")


def run(
    workload: str, seed: int, seconds: float, trace: bool, n_dialogs: int | None = None
) -> dict:
    bench = Bench(workload, seed, n_dialogs)
    bench.measure(seconds, trace)
    digests = {w: sorted(d) for w, d in bench.digests.items()}
    for workers, values in sorted(digests.items()):
        print(f"corpus_sha256 workload={workload} workers={workers} {' '.join(values)}")
    consistent = len({tuple(v) for v in digests.values()}) == 1 and all(
        len(v) == 1 for v in digests.values()
    )
    values = bench.per_layer() if trace else bench.end_to_end()
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": bench.failed == 0 and consistent,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
