import math
from random import Random

import pytest

from dialogsim.markup import Dialog, NlgResponse, UserUtterance, parse_dialog
from dialogsim.acts import DialogAct
from dialogsim.metrics import (
    entropy,
    report_table,
    turn_stats,
    unique_sequences,
    variation_report,
)


def _dialog_with_sequence(tag: str, n_turns: int = 1) -> Dialog:
    turns = []
    for i in range(n_turns):
        if i % 2 == 0:
            turns.append(UserUtterance(text=tag, acts=[DialogAct("inform", "user", intent=tag)]))
        else:
            turns.append(NlgResponse(text=tag, acts=[DialogAct("bye", "system")]))
    return Dialog(turns=turns)


def _corpus_from_counts(counts: dict[str, int]) -> list[Dialog]:
    corpus = []
    for tag, n in counts.items():
        corpus.extend(_dialog_with_sequence(tag) for _ in range(n))
    return corpus


def test_single_dialog_turn_stats():
    assert turn_stats([_dialog_with_sequence("a", 10)]) == (10.0, 10, 10)


def test_table2_dialog_counts_ten_turns(demo_bundle, demo_seeds_text):
    first = demo_seeds_text.split("\n\n")[0]
    dialog = parse_dialog(first, demo_bundle)
    assert len(dialog.turns) == 10
    assert turn_stats([dialog])[0] == 10.0


def test_nearest_rank_percentiles():
    corpus = [_dialog_with_sequence("x", n) for n in range(1, 101)]
    mean, p75, p95 = turn_stats(corpus)
    assert mean == 50.5
    assert p75 == 75
    assert p95 == 95


def test_entropy_single_sequence_zero():
    assert entropy(_corpus_from_counts({"a": 17})) == 0.0


def test_entropy_uniform_two():
    h = entropy(_corpus_from_counts({"a": 5000, "b": 5000}))
    assert abs(h - math.log(2)) < 1e-9


def test_entropy_hand_computed_counts():
    h = entropy(_corpus_from_counts({"a": 6, "b": 3, "c": 1}))
    expected = -(0.6 * math.log(0.6) + 0.3 * math.log(0.3) + 0.1 * math.log(0.1))
    assert abs(h - expected) < 1e-12
    assert abs(h - 0.8979) < 5e-5


def test_unique_sequences_counts():
    count, fraction = unique_sequences(_corpus_from_counts({"a": 2, "b": 1}))
    assert count == 2
    assert abs(fraction - 2 / 3) < 1e-9


def _brute_force_entropy(counts: list[int]) -> float:
    # independent oracle: total via log-sum, accumulation over raw counts
    total = 0
    for c in counts:
        total += c
    acc = 0.0
    for c in counts:
        acc += c * (math.log(total) - math.log(c))
    return acc / total


def test_entropy_matches_brute_force_on_random_corpora():
    rng = Random(2024)
    for _ in range(100):
        n_kinds = rng.randint(1, 30)
        counts = {f"k{i}": rng.randint(1, 50) for i in range(n_kinds)}
        corpus = _corpus_from_counts(counts)
        assert abs(entropy(corpus) - _brute_force_entropy(list(counts.values()))) < 1e-9


def test_entropy_bounds_and_permutation_invariance():
    rng = Random(7)
    counts = {f"k{i}": rng.randint(1, 9) for i in range(12)}
    corpus = _corpus_from_counts(counts)
    h = entropy(corpus)
    count, _ = unique_sequences(corpus)
    assert 0.0 <= h <= math.log(count) + 1e-12 <= math.log(len(corpus)) + 1e-12
    shuffled = list(corpus)
    rng.shuffle(shuffled)
    assert abs(entropy(shuffled) - h) < 1e-12


def test_variation_report_composition():
    corpus = _corpus_from_counts({"a": 3, "b": 1})
    report = variation_report(corpus)
    assert report.n_dialogs == 4
    assert report.unique_sequences == 2
    assert abs(report.fraction_unique - 0.5) < 1e-9
    assert report.entropy_nats == entropy(corpus)
    assert '"entropy_nats"' in report.to_json()


def test_singleton_report():
    report = variation_report([_dialog_with_sequence("only")])
    assert report.entropy_nats == 0.0
    assert report.fraction_unique == 1.0


def test_empty_corpus_rejected():
    for fn in (turn_stats, entropy, unique_sequences, variation_report):
        with pytest.raises(ValueError):
            fn([])


def test_report_table_alignment():
    table = report_table({"base": variation_report(_corpus_from_counts({"a": 2}))})
    lines = table.splitlines()
    assert "Sampler" in lines[0] and "Entropy" in lines[0]
    assert lines[1].startswith("base")
