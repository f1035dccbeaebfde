import copy
import re
from random import Random

import pytest

from dialogsim import markup
from dialogsim.acts import DialogAct, act_to_string
from dialogsim.engine import GenerationConfig, run_batch
from dialogsim.markup import (
    ApiCall,
    MarkupError,
    NlgResponse,
    UserUtterance,
    annotate_seed_acts,
    parse_corpus,
    parse_dialog,
    serialize_corpus,
    serialize_dialog,
)


def test_parse_user_line_spans(demo_bundle):
    text = (
        "U-1: What movie are playing in [Sunnyvale|location0] after [2 PM|time0]?\n"
        "S-2: call: FindMovies(location=$location0,timeLowerBound=$time0) -> movieList0"
    )
    dialog = parse_dialog(text, demo_bundle)
    utt = dialog.turns[0]
    assert utt.text == "What movie are playing in Sunnyvale after 2 PM?"
    assert [(s.surface, s.var_id, s.entity_type) for s in utt.spans] == [
        ("Sunnyvale", "location0", "location"),
        ("2 PM", "time0", "Time"),
    ]
    assert utt.text[utt.spans[0].start : utt.spans[0].end] == "Sunnyvale"


def test_parse_call_line(demo_bundle):
    text = (
        "U-1: in [Sunnyvale|location0] after [2 PM|time0]\n"
        "S-2: call: FindMovies(location=$location0,timeLowerBound=$time0) -> movieList0"
    )
    call = parse_dialog(text, demo_bundle).turns[1]
    assert call.api == "FindMovies"
    assert str(call.bindings["location"]) == "$location0"
    assert str(call.bindings["timeLowerBound"]) == "$time0"
    assert call.return_var == "movieList0"


def test_unresolved_reference_named(demo_bundle):
    text = (
        "U-1: [Sunnyvale|location0] please\n"
        "S-2: call: FindMovies(location=$location0,timeLowerBound=$t9) -> movieList0"
    )
    with pytest.raises(MarkupError) as err:
        parse_dialog(text, demo_bundle)
    assert "$t9" in str(err.value)


def test_forward_reference_rejected(demo_bundle):
    text = (
        "U-1: hello there\n"
        "S-2: call: SelectShow(showTime=$time0,movieTitle=$movieTitle0) -> showInfo0\n"
        "U-3: the [4 PM|time0] [Tenet|movieTitle0] one"
    )
    with pytest.raises(MarkupError):
        parse_dialog(text, demo_bundle)


def test_seed_file_round_trips_byte_identical(demo_bundle, demo_seeds_text):
    dialogs = parse_corpus(demo_seeds_text, demo_bundle)
    assert serialize_corpus(dialogs) == demo_seeds_text


def test_single_turn_dialog():
    dialog = parse_dialog("U-1: Ok thank you")
    assert serialize_dialog(dialog) == "U-1: Ok thank you"


def test_generated_round_trip_small(demo_bundle, demo_seeds):
    config = GenerationConfig(n_dialogs=300, rng_seed=3)
    result = run_batch(demo_bundle, demo_seeds, config)
    for dialog in result.dialogs:
        assert parse_dialog(serialize_dialog(dialog), demo_bundle) == dialog
        for turn in dialog.turns:
            if isinstance(turn, UserUtterance):
                assert turn.spans == tuple(sorted(turn.spans, key=lambda s: s.start))


def test_parse_corpus_raises_only_markup_error(demo_bundle, demo_seeds_annotated):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    seeds = [serialize_dialog(d).splitlines() for d in demo_seeds_annotated]
    tokens = st.sampled_from(
        ["U-1: ", "S-2: ", "U-3:", "call: ", "nlg: ", " |acts: ", " -> ", "[", "]", "|", "$",
         '"', "(", ")", ",", "=", ":", "#", "# id=x", "\n", "\n\n", " ", "inform(entity:Time)",
         "affirm(intent:SelectShow)", "bye()", "entity:", "location0", "movieList0",
         "FindMovies", "showTime", "Time", "\u2028", "\x1c"]
    )
    piece = tokens | st.text(max_size=3)

    @st.composite
    def corpora(draw):
        """A seed dialog with a few pieces spliced in, then junk lines."""
        lines = list(draw(st.sampled_from(seeds)))
        for _ in range(draw(st.integers(0, 3))):
            i = draw(st.integers(0, len(lines) - 1))
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(piece) + lines[i][at + draw(st.integers(0, 4)) :]
        lines += draw(st.lists(st.lists(piece, max_size=6).map("".join), max_size=1))
        return "\n".join(lines)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(corpora(), st.booleans())
    def check(text, linked):
        try:
            parse_corpus(text, demo_bundle if linked else None)
        except MarkupError:
            pass

    check()


def test_the_read_path_is_a_fixed_point(demo_bundle):
    """Text a person wrote, not only text `serialize_corpus` wrote: whatever
    `parse_corpus` accepts serializes to text that parses to equal dialogs,
    and serializing those gives the same text again."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    piece = st.sampled_from(
        ["[Tenet|movieTitle0]", "[x|v0]", "[Sunnyvale|location0]", " |acts: ",
         "inform(intent:FindMovies)", "inform(entity:location)", "bye()", ",", "call:", "nlg:",
         "nlg: ", "call: FindMovies(location=$location0) -> movieList0",
         "call: FindMovies(location=$v0) -> movieList0", 'location="Sunnyvale"', "$", '"', "=",
         "#", " ", "\t"]
    ) | st.text(max_size=3)
    suffix = st.tuples(
        st.sampled_from(["", " |acts: "]),
        st.sampled_from(["", " ", "bye()", "inform(entity:location)", "inform(intent:FindMovies)",
                         "bye(),bye()"]),
    ).map("".join)
    pieces = st.lists(piece, max_size=6).map("".join)
    gap = st.sampled_from(["", " ", "  "])

    def lines(side, heads):
        body = st.tuples(st.sampled_from(heads), pieces, suffix, suffix).map("".join)
        return st.tuples(st.just(side), gap, body)

    user = lines("U", ["", "nlg: "])
    system = lines("S", ["nlg: ", "nlg:", "call: ", ""])
    metadata = st.sampled_from(["", "# id=x\n", "# note= a b \n"])
    block = st.tuples(metadata, user, st.lists(user | system, max_size=3)).map(
        lambda b: b[0] + "\n".join(f"{side}-{k}:{gap}{text}"
                                   for k, (side, gap, text) in enumerate([b[1], *b[2]], start=1))
    )
    # at most one of the characters `str.splitlines` breaks on, anywhere
    brk = st.just("") | st.sampled_from(["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                         "\u2029"])
    corpora = st.tuples(
        st.lists(block, min_size=1, max_size=3).map("\n\n".join), brk, st.integers(0, 200)
    ).map(lambda c: c[0][: c[2]] + c[1] + c[0][c[2] :])

    @hypothesis.settings(max_examples=250, deadline=None, derandomize=True)
    @hypothesis.given(corpora, st.booleans())
    def check(text, linked):
        bundle = demo_bundle if linked else None
        try:
            dialogs = parse_corpus(text, bundle)
        except MarkupError:
            return
        once = serialize_corpus(dialogs)
        again = parse_corpus(once, bundle)
        assert again == dialogs
        assert serialize_corpus(again) == once

    check()


@pytest.mark.parametrize("text", ["", " leading space", "\t", "Booked |acts: now"])
def test_nlg_text_round_trips_exactly(text):
    bye = DialogAct("bye", "system")
    dialog = parse_dialog("U-1: bye |acts: bye()")
    dialog.turns.append(NlgResponse(text, (bye,)))
    assert parse_dialog(serialize_dialog(dialog)) == dialog


def test_turn_index_must_increase(demo_bundle):
    with pytest.raises(MarkupError) as err:
        parse_dialog("U-1: hi\nU-3: again", demo_bundle)
    assert "expected 2" in str(err.value)


def test_first_turn_must_be_user(demo_bundle):
    with pytest.raises(MarkupError):
        parse_dialog("S-1: nlg: hello", demo_bundle)


def test_type_mismatch_rejected(demo_bundle):
    text = (
        "U-1: [Sunnyvale|location0] at [4 PM|time0]\n"
        "S-2: call: FindMovies(location=$time0) -> movieList0"
    )
    with pytest.raises(MarkupError) as err:
        parse_dialog(text, demo_bundle)
    assert "location" in str(err.value)


def test_object_type_cannot_be_user_value(demo_bundle):
    with pytest.raises(MarkupError) as err:
        parse_dialog("U-1: use [that one|movieList0] please", demo_bundle)
    assert "object" in str(err.value)


def test_spans_are_cut_from_the_text_in_order():
    """Every user line that parses holds its spans in text order, apart,
    each over its own surface: linking takes them as they are."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    pieces = st.sampled_from(["[", "]", "|", "[Sunnyvale|location0]", "[4 PM|time0]", "[a|b]",
                              "location1", " ", "in ", " |acts: ", "inform(entity:Time)"])
    lines = st.lists(pieces | st.text(max_size=3), max_size=8).map("".join)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(lines)
    def check(body):
        try:
            (turn,) = parse_dialog(f"U-1: {body}").turns
        except MarkupError:
            return
        end = 0
        for span in turn.spans:
            assert end <= span.start <= span.end
            assert turn.text[span.start : span.end] == span.surface
            end = span.end

    check()


def test_annotate_seed_acts_table2(demo_bundle, demo_seeds):
    seed = annotate_seed_acts(demo_seeds[0], demo_bundle)
    first = [act_to_string(a) for a in seed.turns[0].acts]
    assert first == [
        "inform(intent:FindMovies)",
        "inform(entity:location)",
        "inform(entity:Time)",
    ]
    roles = [(a.api, a.arg) for a in seed.turns[0].acts[1:]]
    assert roles == [("FindMovies", "location"), ("FindMovies", "timeLowerBound")]
    # closing user turn and system response annotations
    assert [act_to_string(a) for a in seed.turns[8].acts] == ["bye()"]
    announce = seed.turns[2].acts
    assert [act_to_string(a) for a in announce] == [
        "inform(entity:movieTitle)",
        "inform(entity:theater)",
        "inform(entity:Time)",
    ]
    assert [act_to_string(a) for a in seed.turns[9].acts] == ["bye()"]


def test_annotation_and_batches_leave_the_seeds_untouched(demo_bundle, demo_seeds):
    snapshot = copy.deepcopy(demo_seeds)
    annotated = [annotate_seed_acts(s, demo_bundle) for s in demo_seeds]
    mix = {"base": 1.0, "golden": 1.0, "markov": 1.0}
    run_batch(demo_bundle, demo_seeds, GenerationConfig(n_dialogs=30, sampler_mix=mix))
    assert demo_seeds == snapshot
    gained = 0
    for seed, new in zip(demo_seeds, annotated):
        assert new.metadata is seed.metadata
        for old, turn in zip(seed.turns, new.turns, strict=True):
            if isinstance(old, ApiCall) or old.acts:
                assert turn is old
            else:
                assert turn is not old and turn.acts
                gained += 1
    assert gained


def test_explicit_acts_override_inference(demo_bundle, demo_seeds):
    seed = annotate_seed_acts(demo_seeds[1], demo_bundle)
    assert [act_to_string(a) for a in seed.turns[0].acts] == ["inform(intent:FindMovies)"]
    assert [act_to_string(a) for a in seed.turns[1].acts] == ["request(entity:location)"]


def test_metadata_round_trip(demo_bundle):
    text = "# id=x1\n# note=hello world\nU-1: Ok thank you"
    dialog = parse_dialog(text, demo_bundle)
    assert dialog.metadata == {"id": "x1", "note": "hello world"}
    assert serialize_dialog(dialog) == text


def test_literal_bindings_parse(demo_bundle):
    text = 'U-1: hello there\nS-2: call: FindMovies(location="Sunnyvale") -> movieList0'
    call = parse_dialog(text, demo_bundle).turns[1]
    assert call.bindings["location"].literal == "Sunnyvale"
    assert serialize_dialog(parse_dialog(text, demo_bundle)).endswith(
        'call: FindMovies(location="Sunnyvale") -> movieList0'
    )


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "U-1: in [Sunnyvale|location0]\n"
            "S-2: call: FindMovies(location=$location0) -> movieList0\n"
            "S-3: call: FindMovies(location=$movieList0) -> movieList1",
            "$movieList0 is a movieList but FindMovies.location takes location",
        ),
        (
            "U-1: [Sunnyvale|location0] at [Tenet|movieTitle0]\n"
            "S-2: call: SelectShow(showTime=$location0,movieTitle=$movieTitle0) -> showInfo0",
            "$location0 is a location but SelectShow.showTime takes Time",
        ),
        (
            "U-1: [Sunnyvale|location0] or [Berkeley|location0]",
            "var 'location0' reintroduced in turn 1",
        ),
        (
            "U-1: in [Sunnyvale|location0]\n"
            "S-2: call: FindMovies(location=$location0) -> movieList0\n"
            "S-3: call: FindMovies(location=$location0) -> movieList0",
            "var 'movieList0' reintroduced in turn 3",
        ),
        (
            "U-1: maybe [Sunnyvale|place0]",
            "cannot infer entity type for span var 'place0' in turn 1",
        ),
        (
            "U-1: that [list|movieList0]",
            "object-kind type 'movieList' cannot appear as a user value (turn 1)",
        ),
        (
            'U-1: hello\nS-2: call: SelectShow(showTime="4 PM",movieTitle="Tenet",'
            'movies="someList") -> showInfo0',
            "object-kind type 'movieList' cannot appear as a user value (turn 2)",
        ),
        (
            'U-1: hello\nS-2: call: FindMovies(location="Sunny"vale") -> movieList0',
            """line 2: literal '"Sunny"vale"' contains an embedded quote""",
        ),
        (
            "U-1: hello\nS-2: call: FindMovies(location) -> movieList0",
            "line 2: malformed call argument 'location'",
        ),
        (
            'U-1: hello\nS-2: call: FindMovies(location="a",location="b") -> movieList0',
            "line 2: argument 'location' bound twice",
        ),
        ("# id=empty", "dialog has no turns"),
        (
            # one var bound to two args: the error names the arg that does not take it
            "U-1: at [4 PM|time0]\n"
            "S-2: call: SelectShow(showTime=$time0,movieTitle=$time0) -> showInfo0",
            "$time0 is a Time but SelectShow.movieTitle takes movieTitle",
        ),
        (
            'U-1: hi\nS-2: call: FindMovies(location=$a0,place="x") -> movieList0',
            "unresolved reference $a0 in turn 2",
        ),
        (
            "U-1: [x|v0]\nS-2: call: FindMovies(location=$v0) -> movieList0\nU-3: [y|v0]",
            "var 'v0' reintroduced in turn 3",
        ),
    ],
    ids=["return-type", "span-type", "span-reintroduced", "return-reintroduced",
         "uninferable", "object-span", "object-literal", "embedded-quote", "malformed-arg",
         "arg-bound-twice", "no-turns", "second-arg-of-one-var", "unresolved-before-no-arg",
         "typed-span-reintroduced"],
)
def test_link_errors(demo_bundle, text, message):
    with pytest.raises(MarkupError) as err:
        parse_dialog(text, demo_bundle)
    assert message in str(err.value)


def test_a_block_without_turn_lines_names_its_first_line(demo_bundle):
    # a comment line beside metadata does not make the block a comment
    with pytest.raises(MarkupError, match="^line 1: dialog has no turns$") as err:
        parse_corpus("# header comment\n# id=empty\n\nU-1: hello", demo_bundle)
    assert err.value.line == 1


@pytest.mark.parametrize("comment", ["# header comment", "#\n# two lines, no = sign"])
def test_a_block_of_comment_lines_is_skipped(demo_bundle, comment):
    dialogs = parse_corpus(f"{comment}\n\nU-1: hello\n\n{comment}\n", demo_bundle)
    assert [d.metadata for d in dialogs] == [{}]
    assert parse_corpus(comment, demo_bundle) == []


def test_span_var_without_a_type_prefix_is_typed_by_its_call(demo_bundle):
    text = "U-1: in [Sunnyvale|place0]\nS-2: call: FindMovies(location=$place0) -> movieList0"
    assert parse_dialog(text, demo_bundle).turns[0].spans[0].entity_type == "location"


@pytest.mark.parametrize(
    "text, line",
    [
        ("U-1: hello |acts: frobnicate()", 1),
        ("U-1: hello\nS-2: nlg: ok |acts: inform(intent:FindMovies)", 2),
        # a suffix with no act would be written back as no suffix at all
        ("U-1: a |acts: b |acts: ", 1),
        ("U-1: hello\nS-2: nlg: a |acts: bye() |acts:  ", 2),
    ],
    ids=["user", "system", "user-empty", "system-blank"],
)
def test_bad_acts_suffix_is_markup_error(demo_bundle, text, line):
    # the second parse meets the memoized act-list parser: errors are not cached
    for _ in range(2):
        with pytest.raises(MarkupError) as err:
            parse_corpus(text, demo_bundle)
        assert err.value.line == line


def test_a_corpus_parse_shares_one_frozen_turn_per_line(
    demo_bundle, demo_seeds, flow_bundle, flow_seed, catalog_return_bundle, catalog_return_seeds
):
    """`parse_corpus` parses a repeated line once, and every occurrence of
    the line is that one turn. Turns and spans are immutable records, so no
    dialog can change a turn that another shares."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cases = [
        (demo_bundle, demo_seeds),
        (flow_bundle, [flow_seed]),
        (catalog_return_bundle, catalog_return_seeds),
    ]
    weight = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)
    mixes = st.fixed_dictionaries({"base": weight, "golden": weight, "markov": weight}).filter(
        lambda mix: sum(mix.values()) > 0
    )
    shared = 0

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(cases), mixes, st.integers(1, 30), st.integers(0, 999))
    def check(case, mix, n, seed):
        nonlocal shared
        bundle, seeds = case
        config = GenerationConfig(n_dialogs=n, sampler_mix=mix, rng_seed=seed)
        text = serialize_corpus(run_batch(bundle, seeds, config).dialogs)
        dialogs = parse_corpus(text, bundle)
        assert dialogs == [parse_dialog(block, bundle) for block in text.split("\n\n")]
        assert serialize_corpus(dialogs) == text

        first = {}
        lines = [line for line in text.splitlines() if line[:1] in ("U", "S")]
        turns = [turn for dialog in dialogs for turn in dialog.turns]
        for line, turn in zip(lines, turns, strict=True):
            key = line[0] + line.split(": ", 1)[1]  # the line without its turn number
            assert first.setdefault(key, turn) is turn
        shared += len(turns) - len(first)

        for turn in turns:
            assert type(getattr(turn, "acts", ())) is tuple
            assert type(getattr(turn, "spans", ())) is tuple
            for part in (turn, *getattr(turn, "spans", ())):
                for name in part._fields:
                    with pytest.raises(AttributeError):
                        setattr(part, name, None)

    check()
    assert shared


def test_a_repeated_line_is_linked_per_dialog(demo_bundle):
    # the prefix `v` declares no type: each dialog's call types its span
    corpus = (
        "U-1: [x|v0]\nS-2: call: FindMovies(location=$v0) -> movieList0\n\n"
        "U-1: [x|v0]\nS-2: call: SelectShow(showTime=$v0) -> showInfo0\n"
    )
    dialogs = parse_corpus(corpus, demo_bundle)
    assert [d.turns[0].spans[0].entity_type for d in dialogs] == ["location", "Time"]
    # the memo keys a line by its side letter too
    (dialog,) = parse_corpus("U-1: nlg: hi\nS-2: nlg: hi")
    assert [type(t) for t in dialog.turns] == [UserUtterance, NlgResponse]


@pytest.mark.parametrize(
    "corpus, line, message",
    [
        ("U-1: hi\nS-2: nlg: ok\n\nU-1: hi\nS-3: nlg: ok", 5,
         "turn index 3 out of order (expected 2)"),
        ("U-1: hi\nS-2: nlg: ok\n\nU-1: hi\nS-2: nlg: ok\nS-2: nlg: ok", 6,
         "turn index 2 out of order (expected 3)"),
        ("U-1: hi |acts: bye()\nS-2: nlg: ok\n\n" * 40 + "U-1: hi |acts: bye()\nS-2: nlg ok", 122,
         "system turn must be 'call:' or 'nlg:'"),
    ],
    ids=["repeated-out-of-order", "a-whole-line-met-again-out-of-order",
         "malformed-after-repeats"],
)
def test_an_error_after_repeated_lines_names_its_own_line(demo_bundle, corpus, line, message):
    with pytest.raises(MarkupError, match=f"^line {line}: {re.escape(message)}") as err:
        parse_corpus(corpus, demo_bundle)
    assert err.value.line == line


def test_the_corpus_is_its_dialogs_serialized_one_by_one(
    demo_bundle, demo_seeds, flow_bundle, flow_seed, catalog_return_bundle, catalog_return_seeds
):
    """`serialize_corpus` writes each turn object's line body once per call;
    the corpus it writes is still each dialog's block, joined, both for
    generated dialogs, which share turns where they are made, and for
    parsed ones, which share a turn per distinct line."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cases = [
        (demo_bundle, demo_seeds),
        (flow_bundle, [flow_seed]),
        (catalog_return_bundle, catalog_return_seeds),
    ]
    probability = st.sampled_from([0.0, 0.15, 0.5, 1.0]) | st.floats(0, 1)
    weight = st.sampled_from([0.0, 1.0]) | st.floats(0, 1)
    mixes = st.fixed_dictionaries({"base": weight, "golden": weight, "markov": weight}).filter(
        lambda mix: sum(mix.values()) > 0
    )

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(cases), mixes, probability, probability, probability,
                      probability, st.integers(1, 4), st.integers(0, 999))
    def check(case, mix, p_correct, p_offer, failure, multi_act_p, max_acts, seed):
        bundle, seeds = case
        config = GenerationConfig(
            n_dialogs=12, sampler_mix=mix, rng_seed=seed, p_correct=p_correct,
            p_offer=p_offer, api_failure_rate=failure, multi_act_p=multi_act_p,
            max_acts_per_turn=max_acts,
        )
        generated = run_batch(bundle, seeds, config).dialogs
        text = serialize_corpus(generated)
        for dialogs in (generated, parse_corpus(text, bundle)):
            assert serialize_corpus(dialogs) == "\n\n".join(map(serialize_dialog, dialogs)) + "\n"

    check()


_GOOD_BLOCK = (
    "# id=ok\nU-1: in [Sunnyvale|location0]\n"
    "S-2: call: FindMovies(location=$location0) -> movieList0\n\n"
)


@pytest.mark.parametrize(
    "third, line, message",
    [
        ("U-1: in [Sunnyvale|location0]\nS-2: call: FindMovies(location=$location1) -> movieList0",
         11, "unresolved reference $location1 in turn 2"),
        ('U-1: hi\nS-2: call: FindMovies(place="Sunnyvale") -> movieList0',
         11, "API FindMovies has no argument 'place' in turn 2"),
        ("U-1: in [Sunnyvale|location0]\nS-2: call: SelectShow(showTime=$location0) -> showInfo0",
         11, "$location0 is a location but SelectShow.showTime takes Time"),
        ("U-1: maybe [Sunnyvale|place0]\nS-2: nlg: ok", 10,
         "cannot infer entity type for span var 'place0' in turn 1"),
        ("U-1: hi\nS-2: nlg: ok\nU-3: that [list|movieList0]", 12,
         "object-kind type 'movieList' cannot appear as a user value (turn 3)"),
        # a span's type is checked after the walk, so a later call's error comes first
        ("U-1: that [list|movieList0]\nS-2: call: FindMovies(location=$location9) -> movieList1",
         11, "unresolved reference $location9 in turn 2"),
        ("U-1: [x|v0]\nS-2: call: SelectShow(movies=$v0) -> showInfo0", 10,
         "object-kind type 'movieList' cannot appear as a user value (turn 1)"),
        ("U-1: [x|v0]\nS-2: call: FindMovies(location=$v0) -> movieList0\n"
         "S-3: call: SelectShow(showTime=$v0) -> showInfo0", 12,
         "$v0 is a location but SelectShow.showTime takes Time"),
    ],
    ids=["unresolved", "no-argument", "type-mismatch", "uninferable", "object-span",
         "object-span-then-unresolved", "typed-as-object-kind", "typed-then-mismatch"],
)
def test_a_link_error_names_its_line(demo_bundle, third, line, message):
    # two clean dialogs of one flow, then the faulty one after its metadata line
    corpus = _GOOD_BLOCK * 2 + "# id=bad\n" + third
    with pytest.raises(MarkupError, match=f"^line {line}: {re.escape(message)}$") as err:
        parse_corpus(corpus, demo_bundle)
    assert err.value.line == line


def test_the_memos_hit(monkeypatch, demo_bundle, demo_seeds):
    """2,000 replays of 5 seeds hold 5 var flows, and 1,000 self-played
    dialogs 740: `_link` runs once per flow and passes each, and the link
    memo spares it the rest. `_parse_turn` runs once per distinct body and
    `_turn_entry` once per distinct turn line."""
    names = ("_link", "_parse_turn", "_turn_entry")
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, name=name, inner=getattr(markup, name)):
            calls[name] += 1
            return inner(*args)
        monkeypatch.setattr(markup, name, counted)
    for mix, n, flows in (({"base": 1.0}, 2000, 5), (GenerationConfig().sampler_mix, 1000, 740)):
        config = GenerationConfig(n_dialogs=n, sampler_mix=mix, rng_seed=1)
        text = serialize_corpus(run_batch(demo_bundle, demo_seeds, config).dialogs)
        turn_lines = [line for line in text.splitlines() if line[:1] in ("U", "S")]
        bodies = {re.sub(r"-\d+:\s?", "", line, count=1) for line in turn_lines}
        calls.update(dict.fromkeys(names, 0))
        dialogs = parse_corpus(text, demo_bundle)
        assert len(dialogs) == n
        assert calls == {"_link": flows, "_parse_turn": len(bodies),
                         "_turn_entry": len(set(turn_lines))}
        assert len(bodies) < len(set(turn_lines)) < len(turn_lines)


def test_the_memos_change_nothing(
    demo_bundle, demo_seeds, flow_bundle, flow_seed, catalog_return_bundle, catalog_return_seeds
):
    """A corpus parses to its blocks parsed one by one, with and without the
    per-call memos' hits: generated dialogs mixed with one-line mutations of
    them. Where either side raises, both raise the same message at the same
    line, shifted by the block's offset."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cases = []
    for bundle, seeds in ((demo_bundle, demo_seeds), (flow_bundle, [flow_seed]),
                          (catalog_return_bundle, catalog_return_seeds)):
        blocks = []
        for mix in ({"base": 1.0}, {"golden": 1.0}, {"markov": 1.0}):
            config = GenerationConfig(n_dialogs=8, sampler_mix=mix, rng_seed=len(blocks))
            blocks += [serialize_dialog(d) for d in run_batch(bundle, seeds, config).dialogs]
        cases.append((bundle, blocks))
    var_id = re.compile(r"(?<=[|$])[A-Za-z]+\d+|(?<=-> )[A-Za-z]+\d+$")

    def renumber(lines, k, draw):
        found = list(var_id.finditer(lines[k]))
        if found:
            m = draw(st.sampled_from(found))
            new = re.sub(r"\d+$", str(draw(st.integers(0, 3))), m.group())
            lines[k] = lines[k][: m.start()] + new + lines[k][m.end() :]

    def swap_binding(lines, k, draw):
        refs = [m for line in lines for m in re.finditer(r"\$[A-Za-z]+\d+", line)]
        found = list(re.finditer(r"\$[A-Za-z]+\d+", lines[k]))
        if found:
            m, other = draw(st.sampled_from(found)), draw(st.sampled_from(refs))
            lines[k] = lines[k][: m.start()] + other.group() + lines[k][m.end() :]

    def drop_brackets(lines, k, draw):
        found = list(re.finditer(r"\[([^\[\]|]+)\|[A-Za-z0-9]+\]", lines[k]))
        if found:
            m = draw(st.sampled_from(found))
            lines[k] = lines[k][: m.start()] + m.group(1) + lines[k][m.end() :]

    def repeat_line(lines, k, draw):
        # renumbered, or left as it is: a whole line met again out of order
        if not lines[k].startswith("#"):
            lines.insert(draw(st.integers(0, len(lines))), lines[k])
            if draw(st.booleans()):
                n = 0
                for i, line in enumerate(lines):
                    if not line.startswith("#"):
                        n += 1
                        lines[i] = re.sub(r"^([US])-\d+:", rf"\g<1>-{n}:", line)

    def change_metadata(lines, k, draw):
        if lines[k].startswith("# "):
            lines[k] = lines[k].split("=", 1)[0] + "=" + draw(st.sampled_from(["x", "", " y "]))

    def insert_comment(lines, k, draw):
        lines.insert(k, draw(st.sampled_from(["# a comment", "#", "# k=v"])))

    def untype_var(lines, k, draw):
        # the prefix `v` declares no type: a call, if any, types the span
        found = var_id.findall(lines[k])
        if found:
            old = draw(st.sampled_from(found))
            lines[:] = [re.sub(rf"(?<=[|$ ]){old}\b", "v0", line) for line in lines]

    mutations = [renumber, swap_binding, drop_brackets, repeat_line, change_metadata,
                 insert_comment, untype_var]

    @st.composite
    def corpora(draw):
        bundle, pool = draw(st.sampled_from(cases))
        blocks = []
        for block in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10)):
            lines = block.splitlines()
            if draw(st.booleans()):
                mutate = draw(st.sampled_from(mutations))
                mutate(lines, draw(st.integers(0, len(lines) - 1)), draw)
            blocks.append("\n".join(lines))
        # a mutated block may come back, so its link outcome could be reused
        blocks += [blocks[i] for i in draw(st.lists(st.integers(0, len(blocks) - 1), max_size=3))]
        return bundle, blocks

    @hypothesis.settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @hypothesis.given(corpora())
    def check(case):
        bundle, blocks = case
        expected, error, offset = [], None, 0
        for block in blocks:
            try:
                expected.append(parse_dialog(block, bundle))
            except MarkupError as e:
                assert e.line is not None
                error = f"line {e.line + offset}: {str(e).split(': ', 1)[1]}"
                break
            offset += block.count("\n") + 2
        try:
            dialogs = parse_corpus("\n\n".join(blocks), bundle)
        except MarkupError as e:
            assert str(e) == error
        else:
            assert error is None
            assert dialogs == expected

    check()


def test_an_overlong_turn_number_is_out_of_order():
    # more digits than `int` reads from a string by default
    with pytest.raises(MarkupError, match=r"^line 2: turn index of 5000 digits out of order "
                                          r"\(expected 2\)$") as err:
        parse_corpus(f"U-1: hi\nS-{'1' * 5000}: nlg: ok")
    assert err.value.line == 2
