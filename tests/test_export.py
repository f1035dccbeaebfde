import json
import string

import pytest

from dialogsim.engine import GenerationConfig, run_batch
from dialogsim.export import (
    _PUNCT,
    af_examples,
    ap_examples,
    export_training,
    iob_tags,
    ner_examples,
    spans_from_tags,
    tokenize,
)
from dialogsim.markup import (
    ApiCall,
    annotate_seed_acts,
    parse_corpus,
    parse_dialog,
    serialize_corpus,
)
from dialogsim.nlg import build_template_index


def test_tokenizer_detaches_punctuation():
    tokens = [t.text for t in tokenize("What movies are playing in Sunnyvale after 2 PM?")]
    assert tokens == ["What", "movies", "are", "playing", "in", "Sunnyvale", "after", "2", "PM", "?"]
    assert [t.text for t in tokenize('He said "17:00 sharp!"')] == [
        "He", "said", '"', "17:00", "sharp", "!", '"',
    ]


def _char_scan_tokenize(text):
    """Reference: the per-character tokenizer that `tokenize` replaced."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        if text[i].isspace():
            i += 1
            continue
        j = i
        while j < n and not text[j].isspace():
            j += 1
        start, end = i, j
        while start < end - 1 and text[start] in _PUNCT:
            tokens.append((text[start], start, start + 1))
            start += 1
        trailing = []
        while end - 1 > start and text[end - 1] in _PUNCT:
            trailing.append((text[end - 1], end - 1, end))
            end -= 1
        tokens.append((text[start:end], start, end))
        tokens.extend(reversed(trailing))
        i = j
    return tokens


def test_tokenize_matches_character_scan():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # every str.isspace character, plus zero-width ones that are not spaces
    spaces = "".join(c for c in map(chr, range(0x3001)) if c.isspace()) + "\u200b\ufeff"
    alphabet = string.ascii_letters + "".join(sorted(_PUNCT)) + spaces

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.text(alphabet=alphabet, max_size=40))
    def check(text):
        assert [(t.text, t.start, t.end) for t in tokenize(text)] == _char_scan_tokenize(text)

    check()


def test_export_same_from_memory_and_from_corpus_file(demo_bundle, demo_seeds):
    result = run_batch(demo_bundle, demo_seeds, GenerationConfig(n_dialogs=200, rng_seed=9))
    reparsed = parse_corpus(serialize_corpus(result.dialogs), demo_bundle)
    index = build_template_index(demo_bundle, [])

    def jsonl(dialogs):
        examples = export_training(dialogs, demo_bundle, index)
        return {kind: [row.to_json() for row in rows] for kind, rows in examples.items()}

    from_file = jsonl(reparsed)
    assert jsonl(result.dialogs) == from_file
    assert all(from_file.values())
    # the per-dialog builders, each making its own context lines, agree
    assert [e.to_json() for d in reparsed for e in ner_examples(d)] == from_file["ner"]
    assert [e.to_json() for d in reparsed for e in ap_examples(d, index)] == from_file[
        "action_prediction"
    ]
    assert [e.to_json() for d in reparsed for e in af_examples(d)] == from_file[
        "argument_filling"
    ]


def test_ner_tags_for_table2_opening(demo_bundle, demo_seeds):
    seed = demo_seeds[0]
    utt = seed.turns[0]
    tokens, tags = iob_tags(utt.text, utt.spans)
    assert tokens == ["What", "movies", "are", "playing", "in", "Sunnyvale", "after", "2", "PM", "?"]
    assert tags == ["O", "O", "O", "O", "O", "B-location", "O", "B-Time", "I-Time", "O"]


def test_iob_round_trip_on_seed_spans(demo_bundle, demo_seeds):
    for seed in demo_seeds:
        for utt in seed.turns:
            if not hasattr(utt, "spans"):
                continue
            tokens, tags = iob_tags(utt.text, utt.spans)
            rebuilt = spans_from_tags(utt.text, tokens, tags)
            expected = sorted((s.start, s.end, s.entity_type) for s in utt.spans)
            assert sorted(rebuilt) == expected


def test_ap_label_after_opening_turn(demo_bundle, demo_seeds_annotated):
    index = build_template_index(demo_bundle, [])
    examples = ap_examples(demo_seeds_annotated[0], index)
    assert examples[0].labels == "FindMovies"
    assert examples[0].context == ["U: What movies are playing in Sunnyvale after 2 PM?"]


def test_ap_labels_resolve_responses(demo_bundle, demo_seeds_annotated):
    index = build_template_index(demo_bundle, [])
    labels = {e.labels for e in ap_examples(demo_seeds_annotated[0], index)}
    assert "announce_movies" in labels
    assert "closing" in labels


def test_af_labels_for_booking_call(demo_bundle, demo_seeds_annotated):
    examples = af_examples(demo_seeds_annotated[0])
    booking = [e for e in examples if e.input == "BookTickets"]
    assert booking[0].labels == {
        "show": "showInfo0",
        "count": "count0",
        "ticketType": "ticketType0",
    }


def test_af_labels_resolve_in_context(demo_bundle, demo_seeds):
    config = GenerationConfig(n_dialogs=100, rng_seed=31)
    result = run_batch(demo_bundle, demo_seeds, config)
    for dialog in result.dialogs:
        examples = iter(af_examples(dialog))
        introduced = set()
        for p in dialog.turns:
            if hasattr(p, "spans"):
                introduced.update(s.var_id for s in p.spans)
            elif isinstance(p, ApiCall):
                example = next(examples)
                assert set(example.labels.values()) <= introduced
                introduced.add(p.return_var)


def test_training_example_jsonl_round_trip(demo_bundle, demo_seeds_annotated):
    index = build_template_index(demo_bundle, [])
    examples = export_training(demo_seeds_annotated[:1], demo_bundle, index)
    assert set(examples) == {"ner", "action_prediction", "argument_filling"}
    for kind, rows in examples.items():
        for row in rows:
            doc = json.loads(row.to_json())
            assert doc["kind"] == kind
            assert "labels" in doc and "input" in doc


def test_ner_examples_carry_context(demo_bundle, demo_seeds_annotated):
    examples = ner_examples(demo_seeds_annotated[0])
    assert len(examples) == 4  # four user turns in the seed
    assert examples[1].context[0].startswith("U: ")
    assert examples[1].context[1].startswith("S: call: FindMovies")
