from collections import Counter
from random import Random

import pytest

from dialogsim.acts import ActError, DialogAct, slot_names_for, turn_acts_string, validate_act
from dialogsim.markup import EntitySpan, MarkupError, UserUtterance, VarAllocator, parse_corpus
from dialogsim.nlg import (
    RealizationError,
    TemplateIndex,
    _UserPlan,
    _fill_user,
    _piece,
    build_template_index,
    delexicalize_turn,
    fill_response_args,
    humanize,
    realize_response,
    realize_system_backoff,
    realize_user,
)
from dialogsim.schema import (
    SLOT_RE,
    ArgSpec,
    ResponseTemplateDef,
    UtteranceTemplateDef,
    loads_schema,
    utterance_problems,
)


def _sig_key(*act_strings, side="user"):
    from dialogsim.acts import parse_act_list, turn_acts_string

    return turn_acts_string(parse_act_list(",".join(act_strings), side))


def test_index_contains_delexicalized_seed_turn(demo_bundle, demo_seeds_annotated):
    index = build_template_index(demo_bundle, demo_seeds_annotated)
    key = _sig_key("inform(intent:FindMovies)", "inform(entity:location)", "inform(entity:Time)")
    assert "What movies are playing in {location} after {Time}?" in index.user[key]


def test_a_seed_span_glued_to_a_word_is_rejected(demo_bundle):
    """A seed's user turns become templates, held to the schema's rule: a
    span glued to the text after it names the seed and the turn."""
    seeds = parse_corpus(
        "# id=glued\n"
        "U-1: I want to see a movie |acts: inform(intent:FindMovies)\n"
        "U-2: [Sunnyvale|location0]'s theaters |acts: inform(entity:location)\n",
        demo_bundle,
    )
    with pytest.raises(MarkupError, match=r"^seed 'glued' turn 2: slot \{location\} is glued"):
        build_template_index(demo_bundle, seeds)


def test_empty_index_without_seeds_or_templates(chain_bundle):
    index = build_template_index(chain_bundle, [])
    assert index.user == {}


def test_duplicate_templates_deduplicated(demo_bundle, demo_seeds_annotated):
    once = build_template_index(demo_bundle, demo_seeds_annotated)
    twice = build_template_index(demo_bundle, demo_seeds_annotated + demo_seeds_annotated)
    for key in once.user:
        assert len(twice.user[key]) == len(once.user[key])


def test_realize_booking_turn(demo_bundle, demo_seeds_annotated):
    index = build_template_index(demo_bundle, demo_seeds_annotated)
    acts = [
        DialogAct("inform", "user", intent="BookTickets"),
        DialogAct("inform", "user", entity="count", api="BookTickets", arg="count"),
        DialogAct("inform", "user", entity="ticketType", api="BookTickets", arg="ticketType"),
    ]
    rng = Random(4)
    seen = set()
    for _ in range(50):
        text, spans, _ = realize_user(
            acts, ["two", "adult"], index, rng, VarAllocator()
        )
        seen.add(text)
        assert [s.surface for s in spans] == ["two", "adult"]
        assert spans == tuple(sorted(spans, key=lambda s: s.start))
        for span in spans:
            assert text[span.start : span.end] == span.surface
    assert "Book two adult tickets for this show" in seen


def test_no_slot_template_is_constant(demo_bundle, demo_seeds_annotated):
    index = build_template_index(demo_bundle, demo_seeds_annotated)
    acts = [DialogAct("inform", "user", intent="SelectShow")]
    outputs = {
        realize_user(acts, [], index, Random(i), VarAllocator())[0] for i in range(100)
    }
    assert outputs == {"I want to pick a showing"}


def test_uniform_template_choice():
    bundle = loads_schema(
        """
        {"domains": [{
          "name": "D",
          "entity_types": [{"name": "city", "kind": "catalog", "catalog": ["Rome"]}],
          "apis": [],
          "response_templates": [],
          "utterance_templates": [
            {"acts": ["inform(entity:city)"], "template": "{city}"},
            {"acts": ["inform(entity:city)"], "template": "in {city}"},
            {"acts": ["inform(entity:city)"], "template": "around {city}"},
            {"acts": ["inform(entity:city)"], "template": "near {city}"}
          ]
        }]}
        """
    )
    index = build_template_index(bundle, [])
    acts = [DialogAct("inform", "user", entity="city")]
    rng = Random(99)
    counts = Counter(
        realize_user(acts, ["Rome"], index, rng, VarAllocator())[0] for _ in range(1000)
    )
    assert len(counts) == 4
    for n in counts.values():
        assert abs(n / 1000 - 0.25) < 0.05


def test_backoff_spans_are_exact(demo_bundle):
    index = build_template_index(demo_bundle, [])
    acts = [
        DialogAct("affirm", "user", intent="SelectShow"),
        DialogAct("deny", "user", entity="Time", api="SelectShow", arg="showTime"),
        DialogAct("inform", "user", entity="Time", api="SelectShow", arg="showTime"),
        DialogAct("inform", "user", entity="movieTitle", api="SelectShow", arg="movieTitle"),
    ]
    text, spans, _ = realize_user(
        acts, ["17:00", "Up"], index, Random(0), VarAllocator()
    )
    assert [s.surface for s in spans] == ["17:00", "Up"]
    for span in spans:
        assert text[span.start : span.end] == span.surface
    assert [s.entity_type for s in spans] == ["Time", "movieTitle"]
    assert spans == tuple(sorted(spans, key=lambda s: s.start))


def test_delexicalize_booking_turn():
    utt = UserUtterance(
        "Book two adult tickets for this show",
        [
            EntitySpan("two", "count0", "count", 5, 8),
            EntitySpan("adult", "ticketType0", "ticketType", 9, 14),
        ],
    )
    assert delexicalize_turn(utt).template == "Book {count} {ticketType} tickets for this show"


def test_delexicalize_without_spans_is_identity():
    utt = UserUtterance("Ok thank you", [])
    tpl = delexicalize_turn(utt)
    assert tpl.template == "Ok thank you"


def test_delexicalize_repeated_type():
    utt = UserUtterance(
        "from 2 PM to 4 PM",
        [EntitySpan("2 PM", "time0", "Time", 5, 9), EntitySpan("4 PM", "time1", "Time", 13, 17)],
    )
    assert delexicalize_turn(utt).template == "from {Time} to {Time2}"


def test_slot_value_mismatch_rejected(demo_bundle, demo_seeds_annotated):
    index = build_template_index(demo_bundle, demo_seeds_annotated)
    acts = [DialogAct("inform", "user", entity="count")]
    with pytest.raises(RealizationError):
        realize_user(acts, ["x", "y"], index, Random(0), VarAllocator())
    with pytest.raises(RealizationError, match=r"does not have the slots \['location'\]"):
        _piece(["in {city}"], True, ("location",))


def test_realize_response_fills_args(demo_bundle):
    resp = demo_bundle.response("announce_show")
    text = realize_response(resp, {"ticketType": "adult"}, Random(1))
    assert "adult" in text


def test_realize_response_missing_arg(demo_bundle):
    resp = demo_bundle.response("announce_show")
    with pytest.raises(RealizationError):
        realize_response(resp, {}, Random(1))


def test_fill_response_args_takes_each_value_once():
    first, second = ArgSpec("first", "Time"), ArgSpec("second", "Time")
    title = ArgSpec("title", "movieTitle")
    resp = ResponseTemplateDef("r", (first, title, second), (), ("{first} {title} {second}",))
    acts = [
        DialogAct("offer", "system", intent="SelectShow"),
        DialogAct("offer", "system", entity="Time"),  # carries no value: skipped
        DialogAct("offer", "system", entity="Time"),
        DialogAct("offer", "system", entity="movieTitle"),
        DialogAct("offer", "system", entity="Time"),
    ]
    values = [None, None, "2 PM", "Up", "4 PM"]
    assert fill_response_args(resp, acts, values) == {
        "first": "2 PM", "title": "Up", "second": "4 PM"
    }
    # a third Time arg finds no unused Time act with a value
    third = ResponseTemplateDef("r", (first, second, ArgSpec("third", "Time")), (), ("",))
    assert fill_response_args(third, acts, values) is None
    # values run parallel to acts: acts past their end carry none
    assert fill_response_args(resp, acts, values[:4]) is None
    assert fill_response_args(ResponseTemplateDef("r", (), (), ("",)), acts, []) == {}


def test_system_backoff_text():
    acts = [
        DialogAct("request", "system", entity="count", api="BookTickets", arg="count"),
    ]
    assert realize_system_backoff(acts, [None]) == "What count would you like?"
    offer = [
        DialogAct("offer", "system", intent="BookTickets"),
        DialogAct("offer", "system", entity="showInfo", api="BookTickets", arg="show"),
    ]
    text = realize_system_backoff(offer, [None, None])
    assert "book tickets" in text


# every canned fragment and backoff sentence, one act at a time: a schema
# with few templates reaches these far more often than the demo does
@pytest.mark.parametrize(
    "act, value, text",
    [
        (DialogAct("inform", "user", intent="FindMovies"), None, "I want to find movies"),
        (DialogAct("inform", "user", entity="Time"), "2 PM", "2 PM"),
        (DialogAct("affirm", "user", intent="FindMovies"), None, "yes"),
        (DialogAct("affirm", "user", entity="movieTitle"), None, "yes, that movie title"),
        (DialogAct("deny", "user", intent="FindMovies"), None, "no thank you"),
        (DialogAct("deny", "user", entity="movieTitle"), None, "no, not that movie title"),
        (DialogAct("bye", "user"), None, "Ok thank you, bye"),
        (DialogAct("repeat", "user"), None, "sorry, say that again?"),
        # a name outside the user act grammar reads as its own words
        (DialogAct("thankYou", "user"), None, "thank you"),
        (DialogAct("request", "system", entity="ticketType"), None,
         "What ticket type would you like?"),
        (DialogAct("offer", "system", intent="BookTickets"), None,
         "Would you like to book tickets?"),
        (DialogAct("offer", "system", entity="movieTitle"), "Tenet", "How about Tenet?"),
        (DialogAct("offer", "system", entity="showInfo"), None, "Using that show info?"),
        (DialogAct("confirm", "system", intent="BookTickets"), None, "Shall I book tickets?"),
        (DialogAct("confirm", "system", entity="ticketType"), "child", "With child?"),
        (DialogAct("confirm", "system", entity="showInfo"), None, "For that show info?"),
        (DialogAct("failure", "system", intent="FindMovies"), None,
         "Sorry, I could not find movies."),
        (DialogAct("inform", "system", entity="movieTitle"), "Tenet", "The movie title is Tenet."),
        (DialogAct("inform", "system", entity="movieList"), None, ""),
        (DialogAct("bye", "system"), None, "Thank you, goodbye."),
    ],
)
def test_canned_text(act, value, text):
    if act.side == "user":
        values = [value] if value is not None else []
        realized = realize_user([act], values, TemplateIndex(), Random(0), VarAllocator()).text
        assert realized == text
    else:
        assert realize_system_backoff([act], [value]) == text


def test_humanize():
    assert humanize("FindMovies") == "find movies"
    assert humanize("timeLowerBound") == "time lower bound"


def _vocabulary(bundle, side):
    """Every valid `side` act over the schema's intents and entity types;
    each entity act also once per API arg of its type, with that role."""
    acts = []
    for name in ("inform", "affirm", "deny", "bye", "repeat", "confirm", "offer", "request",
                 "failure"):
        candidates = [DialogAct(name, side)]
        candidates += [DialogAct(name, side, intent=api.name) for api in bundle.apis()]
        for et in bundle.domains[0].entity_types:
            candidates.append(DialogAct(name, side, entity=et.name))
            candidates += [
                DialogAct(name, side, entity=et.name, api=api.name, arg=spec.name)
                for api in bundle.apis() for spec in api.args if spec.entity_type == et.name
            ]
        for act in candidates:
            try:
                validate_act(act)
            except ActError:
                continue
            acts.append(act)
    return acts


def _act_runs(st, vocabulary, extra):
    """A run of act lists drawn from a small pool, so lists repeat."""
    one = st.lists(st.sampled_from(vocabulary), max_size=4) | st.sampled_from(extra)
    return st.lists(one, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12)
    )


def _realized(acts, index, seed):
    """realize_user's text and spans, then the RNG's next draw; or its error."""
    rng = Random(seed)
    values = [f"v{k}" for k, a in enumerate(acts) if a.name == "inform" and a.entity]
    try:
        text, spans, _ = realize_user(acts, values, index, rng, VarAllocator())
    except RealizationError as e:
        return str(e)
    return text, spans, rng.random()


def test_memo_changes_nothing(demo_bundle, demo_seeds_annotated):
    """A warm index resolves every act list as a fresh one does, and holds
    at most one plan per distinct act-id tuple, none for the empty list."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    base = build_template_index(demo_bundle, demo_seeds_annotated)
    said = [t.acts for d in demo_seeds_annotated for t in d.turns if isinstance(t, UserUtterance)]
    said += [list(u.acts) for u in demo_bundle.domains[0].utterance_templates]
    responses = [list(r.acts) for r in demo_bundle.domains[0].response_templates]

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(
        _act_runs(st, _vocabulary(demo_bundle, "user"), said),
        _act_runs(st, _vocabulary(demo_bundle, "system"), responses),
        st.integers(0, 2**32),
    )
    def check(user_run, system_run, seed):
        warm = TemplateIndex(base.user, base.response_by_signature)
        for k, acts in enumerate(user_run):
            fresh = TemplateIndex(base.user, base.response_by_signature)
            assert _realized(acts, warm, seed + k) == _realized(acts, fresh, seed + k)
        for acts in system_run:
            expected = base.response_by_signature.get(turn_acts_string(acts))
            assert warm.response(acts) is expected
        assert len(warm._user_plans) <= len({tuple(map(id, a)) for a in user_run})
        assert () not in warm._user_plans

    check()


def test_equal_acts_with_other_roles_keep_their_own_signature():
    """Act lists equal under DialogAct equality, which ignores api/arg, but
    with other roles resolve to their own signature, in either order."""
    same = [DialogAct("inform", "user", entity="Time", api="FindMovies", arg="timeLowerBound")] * 2
    mixed = [same[0], DialogAct("inform", "user", entity="Time", api="SelectShow", arg="showTime")]
    assert same == mixed and turn_acts_string(same) != turn_acts_string(mixed)
    templates = {"after {Time} or {Time2}": same, "from {Time} to {Time2}": mixed}
    responses = {text: ResponseTemplateDef(text, (), (), (text,)) for text in templates}
    for order in (list(templates), list(reversed(templates))):
        index = TemplateIndex(
            {turn_acts_string(a): [t] for t, a in templates.items()},
            {turn_acts_string(a): responses[t] for t, a in templates.items()},
        )
        for _ in range(2):
            for text in order:
                acts = list(templates[text])
                assert realize_user(acts, ["2 PM", "4 PM"], index, Random(0), VarAllocator())[0] \
                    == text.format(Time="2 PM", Time2="4 PM")
                assert index.response(acts) is responses[text]


def _regex_fill(template, types, values, alloc, offset):
    """The slot fill by regex match, the reference for `_fill_user`."""
    slots = slot_names_for(types)
    parts, spans, pos, out = [], [], 0, offset
    for k, m in enumerate(SLOT_RE.finditer(template)):
        assert m.group(1) == slots[k]
        parts.append(template[pos : m.start()])
        out += m.start() - pos
        end = out + len(values[k])
        spans.append(EntitySpan(values[k], alloc.new(types[k]), types[k], out, end))
        parts.append(values[k])
        out = end
        pos = m.end()
    parts.append(template[pos:])
    return "".join(parts), spans


def test_split_fill_matches_the_regex_fill(demo_bundle):
    """On templates that pass the utterance rule, `_fill_user` and
    `realize_response` fill as a regex substitution does; a template after
    a canned piece of `offset` characters has its spans counted from the
    end of that piece and its ", "."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    literal = st.text(alphabet="ab {}|.,?!'", max_size=4)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(
        st.lists(st.sampled_from(_vocabulary(demo_bundle, "user")), max_size=4),
        st.data(),
        st.integers(0, 5),
    )
    def check(acts, data, offset):
        types = [a.entity for a in acts if a.name == "inform" and a.entity]
        slots = slot_names_for(types)
        pieces = data.draw(st.lists(literal, min_size=len(slots) + 1, max_size=len(slots) + 1))
        template = pieces[0] + "".join(f"{{{s}}}{p}" for s, p in zip(slots, pieces[1:]))
        hypothesis.assume(not utterance_problems(UtteranceTemplateDef(tuple(acts), template)))
        values = data.draw(st.lists(st.text(alphabet="xy {}", max_size=3),
                                    min_size=len(types), max_size=len(types)))
        lead = [_piece(["p" * offset], False, ())] if offset else []
        plan = _UserPlan(tuple(types), (*lead, _piece([template], True, tuple(types))))
        alloc = VarAllocator()
        got = _fill_user(plan, values, [alloc.new(t) for t in types], [0])
        text, spans = _regex_fill(template, types, values, VarAllocator(), offset + 2 * bool(lead))
        assert got == (", ".join(["p" * offset] * bool(lead) + [text]), tuple(spans))
        args = dict(zip(slots, values))
        response = ResponseTemplateDef("r", (), (), (template,))
        expected = SLOT_RE.sub(lambda m: args[m.group(1)], template)
        assert realize_response(response, args, Random(0)) == expected
        if slots:
            del args[slots[-1]]
            with pytest.raises(RealizationError):
                realize_response(response, args, Random(0))

    check()
