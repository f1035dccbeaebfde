"""Agenda-based heuristic user policy.

The user walks a fixed goal, intent by intent: it reveals the current
intent's user-provided values a few acts at a time, answers system
requests/confirms/offers against the goal truth, occasionally changes its
mind about an already-revealed value, and drops intents (plus everything
depending on them) when the system reports a failure, a failed re-call
after a change of mind included. A change of mind may also come on the turn
the goal completes, before the bye; the bye is then held back by one turn,
until the user has seen the re-call result.

The user reads the system's SystemTurnOutput directly: requests come from
the acts of its nlg plans, and the call results those plans carry drive the
goal cursor. The protocol types live in system_agent, which produces them.
A user turn is its acts plus one surface value per entity-bearing inform
act, in act order; NLG names the slots and the system reads the resulting
spans in the same order.

The agenda is derived, not stored: what is left to say of the current
intent is its name, until `intent_said`, then its user-valued args not yet
in `informed`, in API arg order. Answering a request or an offer informs an
arg, and so takes it off the agenda.

A confirm never shows a value other than the one the user said: its
surfaces are the user's own, or a return's. So the user affirms a confirm's
intent and each of its args. An offer is answered by `answer`, which holds
each offered arg to the goal: it affirms the intent, then affirms or denies
each arg and informs any correction.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from .acts import USER, DialogAct, make_act
from .goals import ReturnRef, UserGoal, UserValue
from .schema import SchemaBundle
from .system_agent import ApiView, SystemTurnOutput


@dataclass
class UserTurnOutput:
    acts: tuple[DialogAct, ...]
    values: list[str]  # one surface per entity-bearing inform act, in act order


@dataclass
class UserState:
    goal: UserGoal
    cursor: int = 0
    intent_said: bool = False  # the current intent is named, or its offer taken
    informed: dict[tuple[int, str], str] = field(default_factory=dict)
    corrected: set = field(default_factory=set)
    alternatives: dict[tuple[int, str], str] = field(default_factory=dict)
    done: bool = False
    dead: set = field(default_factory=set)
    last_correction: int | None = None  # intent corrected on the previous turn
    returns_seen: dict[int, str] = field(default_factory=dict)
    abandonments: int = 0

    def current(self):
        return self.goal.intents[self.cursor]

    def surviving_intents(self) -> list[int]:
        return [i for i in range(len(self.goal.intents)) if i not in self.dead]


def init_user(goal: UserGoal, bundle: SchemaBundle, rng: Random) -> UserState:
    """Pre-sample one correction alternative per user-provided value (when
    its catalog offers one)."""
    state = UserState(goal=goal)
    for i, intent in enumerate(goal.intents):
        for arg_name, binding in intent.bindings.items():
            if not isinstance(binding, UserValue):
                continue
            others = [v for v in bundle.catalog(binding.entity_type) if v != binding.surface]
            if others:
                state.alternatives[(i, arg_name)] = others[rng.randrange(len(others))]
    return state


def _advance(state: UserState) -> None:
    nxt = state.cursor + 1
    while nxt < len(state.goal.intents) and nxt in state.dead:
        nxt += 1
    if nxt >= len(state.goal.intents):
        state.done = True
    else:
        state.cursor = nxt
        state.intent_said = False


def abandon_intent(state: UserState, failed_index: int) -> UserState:
    """Drop the failed intent and every later intent whose ReturnRef chain
    (transitively) depends on it; move on if the current intent is among
    them."""
    removed = {failed_index}
    for j in range(failed_index + 1, len(state.goal.intents)):
        if j in state.dead:
            continue
        deps = {
            b.intent_index
            for b in state.goal.intents[j].bindings.values()
            if isinstance(b, ReturnRef)
        }
        if deps & removed:
            removed.add(j)
    state.dead |= removed
    state.abandonments += 1
    if state.cursor in removed:
        _advance(state)
    return state


def _truncated_geometric(rng: Random, p: float, maximum: int) -> int:
    k = 1
    while k < maximum and rng.random() < p:
        k += 1
    return k


def next_user_turn(
    state: UserState, view: SystemTurnOutput, bundle: SchemaBundle, config, rng: Random
) -> UserTurnOutput:
    acts: list[DialogAct] = []
    values: list[str] = []  # aligned with entity-bearing inform acts

    def inform(entity_type: str, api: str, arg: str, surface: str) -> None:
        acts.append(make_act("inform", USER, entity=entity_type, api=api, arg=arg))
        values.append(surface)

    # 1. bookkeeping: calls advance or abandon the current intent; a failed
    # re-call abandons the intent corrected on the previous turn
    was_done = state.done
    corrected, state.last_correction = state.last_correction, None
    for call in (plan.result for plan in view.nlg if plan.result is not None):
        if call.recall:
            if not call.ok and corrected is not None and corrected not in state.dead:
                abandon_intent(state, corrected)
            continue
        if state.done:
            continue
        intent = state.current()
        if call.api != intent.api:
            continue
        if call.ok:
            state.returns_seen[state.cursor] = call.return_var
            _advance(state)
        else:
            abandon_intent(state, state.cursor)

    def answer(offer: ApiView) -> None:
        """Affirm the offered intent, then each arg that holds the goal's
        binding; deny any other, informing the goal's user value in its
        place. An offered user value counts as informed."""
        intent = state.current()
        acts.append(make_act("affirm", USER, intent=intent.api))
        for a in offer.args:
            binding = intent.bindings.get(a.arg)
            if isinstance(binding, UserValue):
                state.informed[(state.cursor, a.arg)] = binding.surface
                agrees = a.surface == binding.surface
            else:
                agrees = (isinstance(binding, ReturnRef)
                          and a.var == state.returns_seen.get(binding.intent_index))
            name = "affirm" if agrees else "deny"
            acts.append(make_act(name, USER, entity=a.entity_type, api=intent.api, arg=a.arg))
            if not agrees and isinstance(binding, UserValue):
                inform(a.entity_type, intent.api, a.arg, binding.surface)

    # 2. answer a confirmation prompt: it shows what the user said, or
    # returns, so the user affirms all of it
    if view.confirm is not None and not state.done and view.confirm.api == state.current().api:
        api = view.confirm.api
        acts.append(make_act("affirm", USER, intent=api))
        for a in view.confirm.args:
            acts.append(make_act("affirm", USER, entity=a.entity_type, api=api, arg=a.arg))

    # 3. respond to a proactive offer: accept only the goal's next intent,
    # and only before the user has named it
    if view.offer is not None:
        if not state.done and not state.intent_said and view.offer.api == state.current().api:
            state.intent_said = True
            answer(view.offer)
        else:
            acts.append(make_act("deny", USER, intent=view.offer.api))

    # 4. answer an argument request with the goal's (possibly corrected) value
    if not state.done:
        intent = state.current()
        for act in (a for plan in view.nlg for a in plan.acts):
            if act.name != "request" or act.api != intent.api:
                continue
            binding = intent.bindings.get(act.arg)
            if not isinstance(binding, UserValue):
                continue
            surface = state.informed.get((state.cursor, act.arg), binding.surface)
            inform(act.entity, intent.api, act.arg, surface)
            state.informed[(state.cursor, act.arg)] = surface

    # 5. advance the agenda, a truncated-geometric number of acts at a time:
    # the intent, if not yet named, then its user values not yet informed,
    # in API arg order
    informed_this_turn: set = set()
    if not state.done:
        intent = state.current()
        pending = [
            spec.name
            for spec in bundle.api(intent.api).args
            if isinstance(intent.bindings.get(spec.name), UserValue)
            and (state.cursor, spec.name) not in state.informed
        ]
        if not state.intent_said or pending:
            k = _truncated_geometric(rng, config.multi_act_p, config.max_acts_per_turn)
            if not state.intent_said:
                acts.append(make_act("inform", USER, intent=intent.api))
                state.intent_said = True
                k -= 1
            for arg in pending[:k]:
                binding = intent.bindings[arg]
                inform(binding.entity_type, intent.api, arg, binding.surface)
                state.informed[(state.cursor, arg)] = binding.surface
                informed_this_turn.add((state.cursor, arg))

    # 6. change of mind: deny an earlier informed value, give the alternative.
    # A goal that completed this turn still gets one chance before the bye;
    # there the draw is skipped when p_correct is 0, so that runs without
    # corrections keep the random stream of the bye turn.
    if (
        not was_done
        and (not state.done or config.p_correct > 0)
        and len(state.corrected) < config.max_corrections
        and rng.random() < config.p_correct
    ):
        latest = {}
        for i in state.surviving_intents():
            latest[state.goal.intents[i].api] = i
        candidates = [
            (i, arg)
            for (i, arg) in state.informed
            if (i, arg) not in state.corrected
            and (i, arg) not in informed_this_turn
            and (i, arg) in state.alternatives
            and i not in state.dead
            and latest.get(state.goal.intents[i].api) == i
        ]
        if candidates:
            i, arg = candidates[rng.randrange(len(candidates))]
            alt = state.alternatives[(i, arg)]
            intent = state.goal.intents[i]
            entity_type = intent.bindings[arg].entity_type
            acts.append(make_act("deny", USER, entity=entity_type, api=intent.api, arg=arg))
            inform(entity_type, intent.api, arg, alt)
            state.informed[(i, arg)] = alt
            state.corrected.add((i, arg))
            state.last_correction = i

    # 7. close when the goal is exhausted; a correction holds the bye back
    # to the next turn, after the re-call. The bye closes the dialog.
    if state.done and state.last_correction is None:
        acts.append(make_act("bye", USER))

    return UserTurnOutput(acts=tuple(acts), values=values)
