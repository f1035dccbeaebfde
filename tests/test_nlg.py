from collections import Counter
from random import Random

import pytest

from dialogsim.acts import DialogAct
from dialogsim.markup import EntitySpan, UserUtterance, VarAllocator
from dialogsim.nlg import (
    RealizationError,
    build_template_index,
    delexicalize_turn,
    fill_response_args,
    humanize,
    realize_response,
    realize_system_backoff,
    realize_user,
)
from dialogsim.schema import ArgSpec, ResponseTemplateDef, UtteranceTemplateDef, loads_schema


def _sig_key(*act_strings, side="user"):
    from dialogsim.acts import parse_act_list, turn_acts_string

    return turn_acts_string(parse_act_list(",".join(act_strings), side))


def test_index_contains_delexicalized_seed_turn(demo_bundle, demo_seeds_annotated):
    index = build_template_index(demo_bundle, demo_seeds_annotated)
    key = _sig_key("inform(intent:FindMovies)", "inform(entity:location)", "inform(entity:Time)")
    templates = [t.template for t in index.user[key]]
    assert "What movies are playing in {location} after {Time}?" in templates


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
        text, spans = realize_user(
            acts, ["two", "adult"], index, rng, VarAllocator()
        )
        seen.add(text)
        assert [s.surface for s in spans] == ["two", "adult"]
        assert spans == sorted(spans, key=lambda s: s.start)
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
    text, spans = realize_user(
        acts, ["17:00", "Up"], index, Random(0), VarAllocator()
    )
    assert [s.surface for s in spans] == ["17:00", "Up"]
    for span in spans:
        assert text[span.start : span.end] == span.surface
    assert [s.entity_type for s in spans] == ["Time", "movieTitle"]
    assert spans == sorted(spans, key=lambda s: s.start)


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


def test_humanize():
    assert humanize("FindMovies") == "find movies"
    assert humanize("timeLowerBound") == "time lower bound"
