import json
import string

import pytest

from dialogsim.acts import SYSTEM, DialogAct, turn_acts_string
from dialogsim.engine import GenerationConfig, run_batch
from dialogsim.export import (
    PUNCT,
    export_training,
    iob_tags,
    spans_from_tags,
    tokenize,
)
from dialogsim.markup import (
    ApiCall,
    Dialog,
    EntitySpan,
    NlgResponse,
    UserUtterance,
    ValueRef,
    annotate_seed_acts,
    parse_corpus,
    parse_dialog,
    serialize_corpus,
)
from dialogsim.nlg import TemplateIndex, build_template_index
from dialogsim.schema import ResponseTemplateDef


def test_tokenizer_detaches_punctuation():
    tokens = [t[0] for t in tokenize("What movies are playing in Sunnyvale after 2 PM?")]
    assert tokens == ["What", "movies", "are", "playing", "in", "Sunnyvale", "after", "2", "PM", "?"]
    assert [t[0] for t in tokenize('He said "17:00 sharp!"')] == [
        "He", "said", '"', "17:00", "sharp", "!", '"',
    ]


def test_a_caller_edit_to_the_token_list_reaches_no_later_call():
    text = "What movies are playing in Sunnyvale?"
    tokens = tokenize(text)
    # an immutable tuple, the same on every call: no caller can edit it
    assert type(tokens) is tuple and all(type(t) is tuple for t in tokens)
    assert tokenize(text) is tokens
    tokenize.cache_clear()
    assert tokenize(text) == tokens
    assert iob_tags(text, ()) == (tuple(t[0] for t in tokens), ("O",) * len(tokens))


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
        while start < end - 1 and text[start] in PUNCT:
            tokens.append((text[start], start, start + 1))
            start += 1
        trailing = []
        while end - 1 > start and text[end - 1] in PUNCT:
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
    alphabet = string.ascii_letters + "".join(sorted(PUNCT)) + spaces

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.text(alphabet=alphabet, max_size=40))
    def check(text):
        assert [t for t in tokenize(text)] == _char_scan_tokenize(text)

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
    # one dialog at a time, each making its own context lines, agrees
    for kind, rows in from_file.items():
        assert [
            e.to_json() for d in reparsed for e in export_training([d], None, index)[kind]
        ] == rows


def test_a_turn_is_exported_by_identity_not_by_its_line(demo_bundle):
    # the prefix `v` declares no type: each dialog's call types its span, so
    # the second dialog holds its own turn for the same line
    corpus = (
        "U-1: [x|v0]\nS-2: call: FindMovies(location=$v0) -> movieList0\n\n"
        "U-1: [x|v0]\nS-2: call: SelectShow(showTime=$v0) -> showInfo0\n"
    )
    dialogs = parse_corpus(corpus, demo_bundle)
    assert dialogs[0].turns[0] is not dialogs[1].turns[0]
    ner = export_training(dialogs, demo_bundle, build_template_index(demo_bundle, []))["ner"]
    assert [(e.input, e.labels) for e in ner] == [(("x",), ("B-location",)), (("x",), ("B-Time",))]


def test_examples_of_one_turn_share_its_immutable_parts(demo_bundle):
    block = "U-1: in [x|location0]\nS-2: call: FindMovies(location=$location0) -> movieList0\n"
    dialogs = parse_corpus(f"{block}\n{block}", demo_bundle)
    examples = export_training(dialogs, demo_bundle, build_template_index(demo_bundle, []))
    first, second = examples["ner"]
    assert type(first.input) is type(first.labels) is tuple
    assert (second.input, second.labels) == (first.input, first.labels)
    assert second.input is first.input and second.labels is first.labels
    first, second = examples["argument_filling"]
    assert second.labels is first.labels == {"location": "location0"}


def test_export_of_a_generator_equals_export_of_the_list(demo_bundle, demo_seeds):
    result = run_batch(demo_bundle, demo_seeds, GenerationConfig(n_dialogs=60, rng_seed=5))
    text = serialize_corpus(result.dialogs)
    index = build_template_index(demo_bundle, [])
    expected = _jsonl(export_training(parse_corpus(text, demo_bundle), demo_bundle, index))
    # each block is parsed on its own and dropped when a later one is drawn,
    # so a later turn can sit at the address of a freed one
    dialogs = (parse_dialog(block, demo_bundle) for block in text.split("\n\n"))
    assert _jsonl(export_training(dialogs, demo_bundle, index)) == expected


def test_ner_tags_for_table2_opening(demo_bundle, demo_seeds):
    seed = demo_seeds[0]
    utt = seed.turns[0]
    tokens, tags = iob_tags(utt.text, utt.spans)
    assert tokens == ("What", "movies", "are", "playing", "in", "Sunnyvale", "after", "2", "PM", "?")
    assert tags == ("O", "O", "O", "O", "O", "B-location", "O", "B-Time", "I-Time", "O")


def _iob_tags_per_span(text, spans):
    """Reference: the tagger that scans every token once per span."""
    tokens = tokenize(text)
    tags = ["O"] * len(tokens)
    for span in spans:
        inside = False
        for k, (_, start, end) in enumerate(tokens):
            if start >= span.start and end <= span.end:
                tags[k] = ("I-" if inside else "B-") + (span.entity_type or "value")
                inside = True
    return tuple([t[0] for t in tokens]), tuple(tags)


def test_iob_tags_match_the_scan_per_span():
    """On any text and spans in text order that do not overlap, whether or
    not they fall on token boundaries, one pass tags as the scan per span."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    alphabet = "ab ." + "".join(sorted(PUNCT))[:4]

    @st.composite
    def texts_and_spans(draw):
        text = draw(st.text(alphabet=alphabet, max_size=24))
        cuts = sorted(draw(st.lists(st.integers(0, len(text)), max_size=8)))
        types = st.sampled_from([None, "Time", "location"])
        spans = tuple(
            EntitySpan(text[a:b], f"v{k}", draw(types), a, b)
            for k, (a, b) in enumerate(zip(cuts[::2], cuts[1::2]))
        )
        return text, spans

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(texts_and_spans())
    def check(case):
        assert iob_tags(*case) == _iob_tags_per_span(*case)

    check()


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
    examples = export_training(demo_seeds_annotated[:1], None, index)["action_prediction"]
    assert examples[0].labels == "FindMovies"
    assert examples[0].context == ["U: What movies are playing in Sunnyvale after 2 PM?"]


def test_ap_labels_resolve_responses(demo_bundle, demo_seeds_annotated):
    index = build_template_index(demo_bundle, [])
    examples = export_training(demo_seeds_annotated[:1], None, index)["action_prediction"]
    labels = {e.labels for e in examples}
    assert "announce_movies" in labels
    assert "closing" in labels


def test_af_labels_for_booking_call(demo_bundle, demo_seeds_annotated):
    examples = export_training(demo_seeds_annotated[:1], None, TemplateIndex())[
        "argument_filling"
    ]
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
        examples = iter(export_training([dialog], None, TemplateIndex())["argument_filling"])
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
    examples = export_training(demo_seeds_annotated[:1], None, TemplateIndex())["ner"]
    assert len(examples) == 4  # four user turns in the seed
    assert examples[1].context[0].startswith("U: ")
    assert examples[1].context[1].startswith("S: call: FindMovies")


def _json_dumps_of(example):
    return json.dumps(
        {
            "kind": example.kind,
            "context": example.context,
            "input": example.input,
            "labels": example.labels,
        }
    )


def test_to_json_matches_json_dumps_on_any_text():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # any code point, lone surrogates included, plus the characters JSON escapes
    char = st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\b\f\n\r\t\u2028\ud800\udfffé€😀'),
        st.characters(codec=None, exclude_categories=()),
    )
    text = st.text(char, max_size=12)
    acts = (DialogAct(name="offer", side=SYSTEM, entity="Time"),)

    @st.composite
    def utterance(draw):
        t = draw(text)
        spans = ()
        if t and draw(st.booleans()):
            start = draw(st.integers(0, len(t) - 1))
            end = draw(st.integers(start + 1, len(t)))
            spans = (EntitySpan(t[start:end], draw(text), draw(text), start, end),)
        return UserUtterance(t, spans, ())

    call = st.builds(
        ApiCall,
        api=text,
        bindings=st.dictionaries(
            text, st.one_of(st.builds(ValueRef, var=text), st.builds(ValueRef, literal=text)),
            max_size=3,
        ),
        return_var=text,
    )
    nlg = st.builds(NlgResponse, text=text, acts=st.sampled_from([(), acts]))

    @st.composite
    def corpora(draw):
        # one pool of turn objects, as a parsed corpus holds: a turn object
        # shows up at several positions and in several dialogs
        pool = draw(st.lists(st.one_of(utterance(), call, nlg), min_size=1, max_size=6))
        turns = st.lists(st.sampled_from(pool), max_size=6)
        return [Dialog(turns=draw(turns)) for _ in range(draw(st.integers(0, 3)))]

    repeats = []

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    @hypothesis.given(corpora(), text)
    def check(corpus, response_name):
        response = ResponseTemplateDef(response_name, (), acts, ("",))
        index = TemplateIndex(response_by_signature={turn_acts_string(acts): response})
        examples = export_training(corpus, None, index)
        for rows in examples.values():
            for example in rows:
                assert example.to_json() == _json_dumps_of(example)
        for example in examples["action_prediction"]:
            assert example.input == (example.context[-1] if example.k else "")
        # one new object per occurrence: nothing is shared, the lines are the same
        unshared = [Dialog(turns=[t._replace() for t in d.turns]) for d in corpus]
        assert _jsonl(export_training(unshared, None, index)) == _jsonl(examples)
        turns = [t for d in corpus for t in d.turns]
        repeats.append(len({id(t) for t in turns}) < len(turns))

    check()
    assert sum(repeats) >= 20


def _jsonl(examples):
    return {kind: [e.to_json() for e in rows] for kind, rows in examples.items()}


def test_mutating_context_leaves_examples_unchanged(demo_bundle, demo_seeds_annotated):
    index = build_template_index(demo_bundle, [])
    examples = export_training(demo_seeds_annotated[:1], demo_bundle, index)
    siblings = [e for rows in examples.values() for e in rows]
    before = [e.to_json() for e in siblings]
    target = examples["ner"][2]
    context = target.context
    target.context.append("x")
    target.context.clear()
    assert context and target.context == context
    assert [e.to_json() for e in siblings] == before
    assert [e.to_json() for e in siblings] == [_json_dumps_of(e) for e in siblings]
