"""Intrinsic variation estimators over a generated corpus.

A "turn" is one markup line (user utterance, API call, or system nlg).
Flow equivalence is exact string equality of whole-dialog act sequences,
so the measures are invariant to catalog values and template choice.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass

from .acts import sequence_string
from .markup import Dialog


@dataclass
class VariationReport:
    n_dialogs: int
    turns_mean: float
    turns_p75: float
    turns_p95: float
    unique_sequences: int
    fraction_unique: float
    entropy_nats: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile: the ceil(p/100 * n)-th smallest value."""
    n = len(sorted_values)
    rank = math.ceil(p / 100.0 * n)
    return sorted_values[max(rank, 1) - 1]


def turn_stats(corpus: list[Dialog]) -> tuple[float, float, float]:
    if not corpus:
        raise ValueError("corpus is empty")
    counts = sorted(len(d.turns) for d in corpus)
    mean = sum(counts) / len(counts)
    return mean, nearest_rank(counts, 75), nearest_rank(counts, 95)


def entropy(corpus: list[Dialog]) -> float:
    """Plug-in entropy (nats) of the empirical act-sequence distribution."""
    return variation_report(corpus).entropy_nats


def unique_sequences(corpus: list[Dialog]) -> tuple[int, float]:
    report = variation_report(corpus)
    return report.unique_sequences, report.fraction_unique


def variation_report(corpus: list[Dialog]) -> VariationReport:
    """Every measure, with each dialog's act sequence built once."""
    mean, p75, p95 = turn_stats(corpus)  # rejects an empty corpus
    counts = Counter(sequence_string(d) for d in corpus)
    n = len(corpus)
    # added left to right from the integer 0, as `sum` adds floats before
    # Python 3.12; from 3.12 on, `sum` compensates its rounding, which moves
    # the last digits
    total = 0
    for c in counts.values():
        total += (c / n) * math.log(c / n)
    return VariationReport(
        n_dialogs=n,
        turns_mean=mean,
        turns_p75=p75,
        turns_p95=p95,
        unique_sequences=len(counts),
        fraction_unique=len(counts) / n,
        entropy_nats=-total,
    )


def report_table(reports: dict[str, VariationReport]) -> str:
    """Aligned text table, one row per labeled corpus."""
    headers = [
        "Sampler",
        "Mean",
        "P-75",
        "P-95",
        "# Unique Seq.",
        "Frac. Unique",
        "Entropy",
    ]
    rows = [headers]
    for label, r in reports.items():
        rows.append(
            [
                label,
                f"{r.turns_mean:.1f}",
                f"{r.turns_p75:.0f}",
                f"{r.turns_p95:.0f}",
                str(r.unique_sequences),
                f"{100 * r.fraction_unique:.1f}%",
                f"{r.entropy_nats:.2f}",
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(headers))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)
