import json
from random import Random

import pytest

from dialogsim import engine
from dialogsim.acts import DialogAct, act_to_string
from dialogsim.engine import GenerationConfig, run_batch
from dialogsim.goals import extract_goals
from dialogsim.markup import parse_corpus, serialize_corpus
from dialogsim.schema import loads_schema, serialize_schema
from dialogsim.system_agent import (
    ApiView,
    ArgView,
    CallResult,
    SystemNlg,
    SystemTurnOutput,
)
from dialogsim.user_agent import abandon_intent, init_user, next_user_turn


def _table2_goal(demo_bundle, demo_seeds):
    return extract_goals(demo_seeds[:1], demo_bundle)[0]


def _reporting(*results):
    """The nlg lines of a system turn that report these call results."""
    return [SystemNlg(acts=[], result=r) for r in results]


def _acts(output):
    from dialogsim.acts import act_to_string

    return [act_to_string(a) for a in output.acts]


def test_initial_agenda_starts_with_intent(demo_bundle, demo_seeds):
    goal = _table2_goal(demo_bundle, demo_seeds)
    state = init_user(goal, demo_bundle, Random(0))
    assert not state.intent_said
    out = next_user_turn(state, SystemTurnOutput(), demo_bundle, GenerationConfig(p_correct=0), Random(0))
    assert _acts(out)[0] == "inform(intent:FindMovies)"
    assert state.intent_said


def test_no_alternative_for_singleton_catalog(two_domain_bundle):
    from dialogsim.goals import IntentInstance, UserGoal, UserValue

    goal = UserGoal(
        intents=[IntentInstance("BookTable", {"place": UserValue("Nopa", "restaurant")})]
    )
    state = init_user(goal, two_domain_bundle, Random(0))
    assert state.alternatives == {}


def test_alternatives_always_differ(demo_bundle, demo_seeds):
    goal = _table2_goal(demo_bundle, demo_seeds)
    for trial in range(1000):
        state = init_user(goal, demo_bundle, Random(trial))
        for (i, arg), alt in state.alternatives.items():
            assert alt != goal.intents[i].bindings[arg].surface


def test_offer_reply_matches_correction_pattern(demo_bundle, demo_seeds):
    # system offers SelectShow pre-filling the user's search time and the
    # movie list; the goal's showTime differs, so: affirm intent, deny the
    # time and inform the goal value, affirm the list
    goal = _table2_goal(demo_bundle, demo_seeds)
    config = GenerationConfig(p_correct=0, multi_act_p=0)
    state = init_user(goal, demo_bundle, Random(0))
    view = SystemTurnOutput(
        nlg=_reporting(CallResult("FindMovies", True, "movieList0")),
        offer=ApiView(
            api="SelectShow",
            args=[
                ArgView("showTime", "time0", "2 PM", "Time"),
                ArgView("movies", "movieList0", None, "movieList"),
            ],
        ),
    )
    state.cursor = 0
    state.returns_seen = {}
    out = next_user_turn(state, view, demo_bundle, config, Random(1))
    assert _acts(out)[:4] == [
        "affirm(intent:SelectShow)",
        "deny(entity:Time)",
        "inform(entity:Time)",
        "affirm(entity:movieList)",
    ]
    assert out.values[0] == "4 PM"  # the inform(entity:Time) above


def test_offer_for_wrong_api_denied(demo_bundle, demo_seeds):
    goal = _table2_goal(demo_bundle, demo_seeds)
    config = GenerationConfig(p_correct=0, multi_act_p=0)
    state = init_user(goal, demo_bundle, Random(0))
    view = SystemTurnOutput(offer=ApiView(api="BookTickets", args=[]))
    out = next_user_turn(state, view, demo_bundle, config, Random(1))
    assert _acts(out)[0] == "deny(intent:BookTickets)"


def test_bye_when_goal_exhausted(demo_bundle, demo_seeds):
    goal = _table2_goal(demo_bundle, demo_seeds)
    config = GenerationConfig(p_correct=0)
    state = init_user(goal, demo_bundle, Random(0))
    state.done = True
    out = next_user_turn(state, SystemTurnOutput(), demo_bundle, config, Random(0))
    assert _acts(out) == ["bye()"]


def test_request_answered_with_goal_value(demo_bundle, demo_seeds):
    from dialogsim.acts import DialogAct

    goal = _table2_goal(demo_bundle, demo_seeds)
    config = GenerationConfig(p_correct=0, multi_act_p=0)
    state = init_user(goal, demo_bundle, Random(0))
    # nothing left on the agenda but the requested location
    state.intent_said = True
    state.informed[(0, "timeLowerBound")] = "2 PM"
    request = DialogAct("request", "system", entity="location", api="FindMovies", arg="location")
    out = next_user_turn(state, SystemTurnOutput(nlg=[SystemNlg(acts=[request])]), demo_bundle, config, Random(0))
    assert _acts(out) == ["inform(entity:location)"]
    assert out.values == ["Sunnyvale"]


def test_forced_corrections_every_later_turn(demo_bundle, demo_seeds):
    goal = _table2_goal(demo_bundle, demo_seeds)
    config = GenerationConfig(p_correct=1.0, max_corrections=2, multi_act_p=1.0)
    state = init_user(goal, demo_bundle, Random(0))
    first = next_user_turn(state, SystemTurnOutput(), demo_bundle, config, Random(5))
    # values informed this turn are not yet correctable
    assert not any(a.name == "deny" for a in first.acts)
    second = next_user_turn(state, SystemTurnOutput(), demo_bundle, config, Random(6))
    names = [a.name for a in second.acts]
    deny_at = names.index("deny")
    assert names[deny_at + 1] == "inform"
    assert second.acts[deny_at].entity == second.acts[deny_at + 1].entity
    assert len(state.corrected) == 1


def test_correction_values_come_from_alternatives(demo_bundle, demo_seeds):
    goal = _table2_goal(demo_bundle, demo_seeds)
    config = GenerationConfig(p_correct=1.0, max_corrections=2, multi_act_p=1.0)
    for trial in range(200):
        state = init_user(goal, demo_bundle, Random(trial))
        rng = Random(trial + 1)
        for _ in range(4):
            out = next_user_turn(state, SystemTurnOutput(), demo_bundle, config, rng)
            values = iter(out.values)
        for (i, arg), value in state.informed.items():
            binding = goal.intents[i].bindings[arg]
            assert value in (binding.surface, state.alternatives.get((i, arg)))


def test_abandon_removes_transitive_dependents(demo_bundle, demo_seeds):
    goal = _table2_goal(demo_bundle, demo_seeds)
    state = init_user(goal, demo_bundle, Random(0))
    abandon_intent(state, 0)
    assert state.dead == {0, 1, 2}
    assert state.done


def test_abandon_keeps_independent_intent(demo_bundle, demo_seeds):
    # refine-search seed: second FindMovies does not depend on the first
    goal = extract_goals([demo_seeds[3]], demo_bundle)[0]
    assert [i.api for i in goal.intents] == ["FindMovies", "FindMovies", "SelectShow"]
    state = init_user(goal, demo_bundle, Random(0))
    abandon_intent(state, 0)
    assert state.dead == {0}
    assert not state.done
    assert state.cursor == 1


def test_single_intent_failure_is_terminal(demo_bundle, demo_seeds):
    goal = extract_goals([demo_seeds[4]], demo_bundle)[0]
    config = GenerationConfig(p_correct=0)
    state = init_user(goal, demo_bundle, Random(0))
    view = SystemTurnOutput(nlg=_reporting(CallResult("SelectShow", False, None)))
    out = next_user_turn(state, view, demo_bundle, config, Random(0))
    assert state.dead == {0, 1}
    assert state.done
    assert "bye()" in _acts(out)


def test_change_of_mind_on_completed_goal_holds_bye(demo_bundle, demo_seeds):
    from dialogsim.goals import UserGoal

    goal = UserGoal(intents=_table2_goal(demo_bundle, demo_seeds).intents[:1])
    config = GenerationConfig(p_correct=1.0, multi_act_p=1.0)
    state = init_user(goal, demo_bundle, Random(0))
    rng = Random(1)
    first = next_user_turn(state, SystemTurnOutput(), demo_bundle, config, rng)
    assert "deny" not in [a.name for a in first.acts]
    # the call succeeds and completes the goal: the user changes its mind
    # instead of saying bye
    done = SystemTurnOutput(nlg=_reporting(CallResult("FindMovies", True, "movieList0")))
    out = next_user_turn(state, done, demo_bundle, config, rng)
    assert state.done
    entity, arg = out.acts[1].entity, out.acts[1].arg
    assert _acts(out) == [f"deny(entity:{entity})", f"inform(entity:{entity})"]
    assert out.values == [state.alternatives[(0, arg)]]
    assert state.cursor == 0
    # the re-call result comes back: now the bye, and nothing else
    recall = SystemTurnOutput(nlg=_reporting(CallResult("FindMovies", True, "movieList1", recall=True)))
    out = next_user_turn(state, recall, demo_bundle, config, rng)
    assert _acts(out) == ["bye()"]
    assert state.cursor == 0
    assert len(state.corrected) == 1


def test_failed_recall_abandons_corrected_intent(demo_bundle, demo_seeds):
    goal = _table2_goal(demo_bundle, demo_seeds)
    config = GenerationConfig(p_correct=1.0, multi_act_p=1.0)
    state = init_user(goal, demo_bundle, Random(0))
    rng = Random(1)
    next_user_turn(state, SystemTurnOutput(), demo_bundle, config, rng)
    # FindMovies succeeds; the user moves on to SelectShow and changes its
    # mind about a FindMovies value
    found = SystemTurnOutput(nlg=_reporting(CallResult("FindMovies", True, "movieList0")))
    out = next_user_turn(state, found, demo_bundle, config, rng)
    assert state.cursor == 1 and "deny" in [a.name for a in out.acts]
    # the re-call fails: FindMovies and everything built on it are dropped
    failed = SystemTurnOutput(nlg=_reporting(CallResult("FindMovies", False, None, recall=True)))
    out = next_user_turn(state, failed, demo_bundle, config, rng)
    assert state.dead == {0, 1, 2}
    assert state.abandonments == 1
    assert state.done
    assert _acts(out) == ["bye()"]


def test_abandon_earlier_intent_keeps_cursor(demo_bundle, demo_seeds):
    # refine-search seed: the current second FindMovies does not depend on
    # the first, so dropping the first leaves the cursor where it is
    goal = extract_goals([demo_seeds[3]], demo_bundle)[0]
    state = init_user(goal, demo_bundle, Random(0))
    state.cursor = 1
    abandon_intent(state, 0)
    assert state.dead == {0}
    assert state.cursor == 1
    assert not state.done


def test_result_of_another_api_moves_no_cursor(demo_bundle, demo_seeds):
    # the user is on FindMovies; a SelectShow result is not its call
    goal = _table2_goal(demo_bundle, demo_seeds)
    state = init_user(goal, demo_bundle, Random(0))
    state.intent_said = True
    view = SystemTurnOutput(nlg=_reporting(CallResult("SelectShow", False, None)))
    next_user_turn(state, view, demo_bundle, GenerationConfig(p_correct=0), Random(0))
    assert (state.cursor, state.dead, state.returns_seen) == (0, set(), {})


def test_request_for_an_arg_without_a_user_value_goes_unanswered(demo_bundle, demo_seeds):
    # SelectShow takes its movie list from FindMovies' return, and its
    # user values are already informed
    goal = _table2_goal(demo_bundle, demo_seeds)
    state = init_user(goal, demo_bundle, Random(0))
    state.cursor, state.intent_said = 1, True
    state.informed.update({(1, "showTime"): "4 PM", (1, "movieTitle"): "Tenet"})
    request = DialogAct("request", "system", entity="movieList", api="SelectShow", arg="movies")
    view = SystemTurnOutput(nlg=[SystemNlg(acts=[request])])
    out = next_user_turn(state, view, demo_bundle, GenerationConfig(p_correct=0), Random(0))
    assert (out.acts, out.values) == ((), [])


def test_confirm_is_answered_by_affirms(demo_bundle, demo_seeds, flow_bundle, flow_seed,
                                        catalog_return_bundle, catalog_return_seeds,
                                        monkeypatch):
    """A confirm never shows a value other than the one the user said: its
    surfaces are the user's, or a return's. So a user turn that answers a
    confirm group starts by affirming its intent and each confirmed entity,
    in order, as read from the markup. (A user that has just dropped the
    intent, after a failed call, does not answer.) Over drawn policy
    settings, on schemas that confirm every call."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def said_what_is_shown(state, view, *args):
        if view.confirm is not None and not state.done and view.confirm.api == state.current().api:
            for a in view.confirm.args:
                said = state.informed.get((state.cursor, a.arg))
                assert said is None or a.surface in (None, said), (a, said)
        return next_user_turn(state, view, *args)

    monkeypatch.setattr(engine, "next_user_turn", said_what_is_shown)

    def confirming(bundle):
        doc = json.loads(serialize_schema(bundle))
        for api in doc["domains"][0]["apis"]:
            api["confirm_before_call"] = True
        return loads_schema(json.dumps(doc))

    cases = [
        (demo_bundle, demo_seeds),
        (confirming(flow_bundle), [flow_seed]),
        (confirming(catalog_return_bundle), catalog_return_seeds),
    ]
    probability = st.sampled_from([0.0, 0.15, 0.5, 1.0]) | st.floats(0, 1)
    answered = []

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(
        probability, probability, probability, probability, st.integers(1, 4), st.integers(0, 99)
    )
    def check(p_correct, p_offer, failure, multi_act_p, max_acts, seed):
        config = GenerationConfig(
            n_dialogs=8, rng_seed=seed, p_correct=p_correct, p_offer=p_offer,
            api_failure_rate=failure, multi_act_p=multi_act_p, max_acts_per_turn=max_acts,
            max_corrections=4,
        )
        for bundle, seeds in cases:
            corpus = serialize_corpus(run_batch(bundle, seeds, config).dialogs)
            for dialog in parse_corpus(corpus, bundle):
                for turn, reply in zip(dialog.turns, dialog.turns[1:]):
                    shown = [act_to_string(a) for a in getattr(turn, "acts", [])]
                    if not shown or not shown[0].startswith("confirm("):
                        continue
                    affirms = [s.replace("confirm(", "affirm(", 1) for s in shown]
                    said = [act_to_string(a) for a in reply.acts]
                    if affirms[0] in said:
                        assert said[: len(affirms)] == affirms
                        answered.append(len(affirms))

    check()
    assert answered and max(answered) > 1
