from random import Random

import pytest

from dialogsim.acts import DialogAct, act_to_string
from dialogsim.engine import GenerationConfig
from dialogsim.goals import extract_goals, fit_markov
from dialogsim.markup import EntitySpan, VarAllocator
from dialogsim.system_agent import (
    Frame,
    SystemState,
    init_system,
    next_system_turn,
    propose_offer,
    simulate_api_call,
)


def _inform_intent(api):
    return DialogAct("inform", "user", intent=api)


def _inform(entity, api, arg):
    return DialogAct("inform", "user", entity=entity, api=api, arg=arg)


def _results(out):
    return [plan.result for plan in out.nlg if plan.result is not None]


def _calls(out):
    return [r for r in _results(out) if r.ok]


def _spans(*pairs):
    """One span per (var id, surface) pair, for the turn's entity informs."""
    return [EntitySpan(surface, var, None, 0, len(surface)) for var, surface in pairs]


def _turn(state, acts, spans, bundle, config=None, rng=None, alloc=None):
    return next_system_turn(
        state,
        acts,
        spans,
        bundle,
        config or GenerationConfig(api_failure_rate=0, p_offer=0),
        rng or Random(0),
        alloc or VarAllocator(),
    )


def test_complete_frame_calls_and_announces(demo_bundle):
    state = init_system()
    acts = [
        _inform_intent("FindMovies"),
        _inform("location", "FindMovies", "location"),
        _inform("Time", "FindMovies", "timeLowerBound"),
    ]
    out = _turn(state, acts, _spans(("location0", "Sunnyvale"), ("time0", "2 PM")), demo_bundle)
    assert len(_calls(out)) == 1
    call = _calls(out)[0]
    assert call.api == "FindMovies"
    assert call.bindings == {"location": "location0", "timeLowerBound": "time0"}
    assert call.return_var == "movieList0"
    assert out.nlg[0].response.name == "announce_movies"
    assert state.frames[0].status == "called_ok"


def test_missing_required_arg_requested(demo_bundle):
    state = init_system()
    out = _turn(state, [_inform_intent("FindMovies")], [], demo_bundle)
    assert _calls(out) == []
    (plan,) = out.nlg
    assert [act_to_string(a) for a in plan.acts] == ["request(entity:location)"]
    assert (plan.acts[0].api, plan.acts[0].arg) == ("FindMovies", "location")


def test_return_value_autofill_from_context(demo_bundle):
    state = init_system()
    _turn(
        state,
        [_inform_intent("FindMovies"), _inform("location", "FindMovies", "location")],
        _spans(("location0", "Sunnyvale")),
        demo_bundle,
    )
    out = _turn(
        state,
        [
            _inform_intent("SelectShow"),
            _inform("Time", "SelectShow", "showTime"),
            _inform("movieTitle", "SelectShow", "movieTitle"),
        ],
        _spans(("time0", "4 PM"), ("movieTitle0", "Tenet")),
        demo_bundle,
    )
    (call,) = _calls(out)
    assert call.bindings["movies"] == "movieList0"


def test_bye_gets_closing(demo_bundle):
    state = init_system()
    out = _turn(state, [DialogAct("bye", "user")], [], demo_bundle)
    assert state.closed
    (plan,) = out.nlg
    assert [act_to_string(a) for a in plan.acts] == ["bye()"]


def test_confirm_before_call_flow(demo_bundle):
    state = init_system()
    _turn(
        state,
        [_inform_intent("SelectShow"), _inform("Time", "SelectShow", "showTime"),
         _inform("movieTitle", "SelectShow", "movieTitle")],
        _spans(("time0", "8 PM"), ("movieTitle0", "Soul")),
        demo_bundle,
    )
    out = _turn(
        state,
        [_inform_intent("BookTickets"), _inform("count", "BookTickets", "count"),
         _inform("ticketType", "BookTickets", "ticketType")],
        _spans(("count0", "two"), ("ticketType0", "child")),
        demo_bundle,
    )
    assert _calls(out) == []
    assert out.confirm is not None and out.confirm.api == "BookTickets"
    assert [a.arg for a in out.confirm.args] == ["show", "count", "ticketType"]
    affirm = [
        DialogAct("affirm", "user", intent="BookTickets"),
        DialogAct("affirm", "user", entity="showInfo", api="BookTickets", arg="show"),
        DialogAct("affirm", "user", entity="count", api="BookTickets", arg="count"),
        DialogAct("affirm", "user", entity="ticketType", api="BookTickets", arg="ticketType"),
    ]
    out2 = _turn(state, affirm, [], demo_bundle)
    (call,) = _calls(out2)
    assert call.api == "BookTickets"
    assert call.bindings["count"] == "count0"


def test_failure_rate_zero_and_forced(demo_bundle):
    alloc = VarAllocator()
    rng = Random(1)
    ok_config = GenerationConfig(api_failure_rate=0)
    state = init_system()
    for _ in range(2000):
        frame = Frame(api="FindMovies")
        ok, var = simulate_api_call(frame, demo_bundle, ok_config, rng, alloc, state)
        assert ok and var is not None
    failing = GenerationConfig(api_failure_rate=1.0)
    frame = Frame(api="FindMovies")
    ok, var = simulate_api_call(frame, demo_bundle, failing, rng, alloc, state)
    assert not ok and var is None and frame.status == "called_failed"


def test_failure_rate_frequency(demo_bundle):
    rng = Random(123)
    config = GenerationConfig(api_failure_rate=0.25)
    state = init_system()
    alloc = VarAllocator()
    n = 10_000
    failures = 0
    for _ in range(n):
        frame = Frame(api="FindMovies")
        ok, _ = simulate_api_call(frame, demo_bundle, config, rng, alloc, state)
        failures += 0 if ok else 1
    assert abs(failures / n - 0.25) < 0.01


def test_offer_follows_fitted_transition(demo_bundle, demo_seeds_annotated):
    goals = extract_goals(demo_seeds_annotated[:1], demo_bundle)
    model = fit_markov(goals)  # P(SelectShow | FindMovies) = 1
    state = init_system(model)
    state.latest["movieList"] = ("movieList0", None)
    state.returns["movieList"] = "movieList0"
    proposal = propose_offer(state, demo_bundle, Random(0), "FindMovies")
    assert proposal is not None
    view, plan = proposal
    assert view.api == "SelectShow"
    assert [(a.arg) for a in view.args] == ["movies"]
    assert view.args[0].var == "movieList0"
    assert act_to_string(plan.acts[0]) == "offer(intent:SelectShow)"


def test_no_offer_when_row_is_terminal(demo_bundle, demo_seeds_annotated):
    model = fit_markov(extract_goals(demo_seeds_annotated[:1], demo_bundle))
    state = init_system(model)
    assert propose_offer(state, demo_bundle, Random(0), "BookTickets") is None


def test_denied_offer_never_repeated(demo_bundle, demo_seeds_annotated):
    model = fit_markov(extract_goals(demo_seeds_annotated[:1], demo_bundle))
    state = init_system(model)
    state.denied_offers.add("SelectShow")
    assert propose_offer(state, demo_bundle, Random(0), "FindMovies") is None


def test_post_call_correction_triggers_recall(demo_bundle):
    state = init_system()
    alloc = VarAllocator()
    _turn(
        state,
        [_inform_intent("FindMovies"), _inform("location", "FindMovies", "location")],
        _spans(("location0", "Sunnyvale")),
        demo_bundle,
        alloc=alloc,
    )
    assert state.frames[0].status == "called_ok"
    correction = [
        DialogAct("deny", "user", entity="location", api="FindMovies", arg="location"),
        _inform("location", "FindMovies", "location"),
    ]
    out = _turn(state, correction, _spans(("location1", "Berkeley")), demo_bundle, alloc=alloc)
    (call,) = _calls(out)
    assert [r.recall for r in _results(out)] == [True]
    assert call.bindings["location"] == "location1"
    assert call.return_var != "movieList0"
    assert out.nlg[0].response.name == "announce_movies"


def test_entity_act_for_an_unnamed_intent_fails_loudly(demo_bundle):
    # the user policy names an intent before it informs or denies one of its
    # args; an act that does not finds no frame, and none is made for it
    for act in (_inform("location", "FindMovies", "location"),
                DialogAct("deny", "user", entity="location", api="FindMovies", arg="location")):
        state = init_system()
        spans = _spans(("location0", "Sunnyvale")) if act.name == "inform" else []
        with pytest.raises(IndexError):
            _turn(state, [act], spans, demo_bundle)
        assert state.frames == []
