"""Heuristic system policy, and the system→user turn protocol.

The system builds a frame per user intent, elicits missing required
arguments one at a time, fills return-valued arguments from the dialog
context, simulates API calls (sampling results instead of executing),
confirms flagged APIs before calling, re-calls after post-call corrections,
and makes proactive offers sampled from the fitted goal-transition model.

The dialog context is two maps keyed by entity type, updated as each var
is made: `latest` (newest var and surface, a user span or a return) fills
offers, and `returns` (newest return var) fills return-valued args. No var
id is reused in a dialog, so the newest var is the one made last. Each
return var's domain is kept too, and neither fill crosses a domain that
`goals.may_share` forbids: such an arg is left to the user instead.

Each turn yields a SystemTurnOutput, which the engine renders and the user
policy reads as its view of the turn; the protocol types live here. The
protocol carries each fact once:
- one CallResult per call attempt, riding on the SystemNlg line that
  announces the call or reports its failure; a successful one (``ok``) also
  carries the bindings and return var, and is the API-call line written
  just before that announcement;
- one ApiView for offers and confirms alike, whose ArgViews name each arg's
  var, surface and entity type; it is built together with its act group.
  A Frame holds the same ArgViews, one per filled arg: an accepted offer's
  become the new frame's, and a confirm shows the frame's own.
Counters of the system's own events (offers made and accepted) live on
SystemState, as the user's live on UserState.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from .acts import END, SYSTEM, DialogAct, make_act
from .goals import MarkovGoalModel, may_share, weighted_choice
from .markup import EntitySpan, VarAllocator
from .nlg import sample_response_args
from .schema import ApiDef, ResponseTemplateDef, SchemaBundle

COLLECTING = "collecting"
CALLED_OK = "called_ok"
CALLED_FAILED = "called_failed"


@dataclass
class ArgView:
    arg: str
    var: str
    surface: str | None  # None if not spoken
    entity_type: str


@dataclass
class Frame:
    api: str
    args: dict[str, ArgView] = field(default_factory=dict)  # the args filled so far
    status: str = COLLECTING


@dataclass
class CallResult:
    api: str
    ok: bool
    return_var: str | None = None
    recall: bool = False
    bindings: dict[str, str] = field(default_factory=dict)  # arg -> var id; empty if failed


@dataclass
class ApiView:
    """An offered or confirmed API call, with the args the system filled."""

    api: str
    args: list[ArgView] = field(default_factory=list)


@dataclass
class SystemState:
    frames: list[Frame] = field(default_factory=list)
    # entity type -> newest (var, surface) of any origin; surface None if opaque
    latest: dict[str, tuple[str, str | None]] = field(default_factory=dict)
    returns: dict[str, str] = field(default_factory=dict)  # entity type -> newest return var
    domains: dict[str, str] = field(default_factory=dict)  # return var -> its API's domain
    denied_offers: set = field(default_factory=set)
    pending_offer: ApiView | None = None
    awaiting_confirm: Frame | None = None
    offer_model: MarkovGoalModel | None = None
    closed: bool = False
    offers_made: int = 0
    offers_accepted: int = 0


@dataclass
class SystemNlg:
    """One system line. `response` is the schema response that renders it,
    with `arg_values` drawn for its args; it is None for a policy act group,
    which is rendered from its acts and `backoff_values`."""

    acts: tuple[DialogAct, ...]
    response: ResponseTemplateDef | None = None
    arg_values: dict[str, str] = field(default_factory=dict)
    backoff_values: list[str | None] = field(default_factory=list)
    result: CallResult | None = None  # the call this line announces or reports failed


@dataclass
class SystemTurnOutput:
    """One system turn, as rendered and as the user sees it. The user reads
    call results as bookkeeping only: they advance its goal cursor and
    identify offered return values."""

    nlg: list[SystemNlg] = field(default_factory=list)
    offer: ApiView | None = None
    confirm: ApiView | None = None


def init_system(offer_model: MarkovGoalModel | None = None) -> SystemState:
    return SystemState(offer_model=offer_model)


def _active_frame(state: SystemState, api: str | None = None) -> Frame | None:
    for frame in reversed(state.frames):
        if frame.status == COLLECTING and (api is None or frame.api == api):
            return frame
    return None


def _frame_for_role(state: SystemState, api: str) -> Frame:
    """The frame a user entity act's role names: the api's collecting frame,
    else its latest. The user policy names an intent, or takes its offer,
    before it informs or denies any of its args, so the frame exists; an
    act that breaks this raises IndexError instead of making a frame."""
    return _active_frame(state, api) or [f for f in state.frames if f.api == api][-1]


def simulate_api_call(
    frame: Frame,
    bundle: SchemaBundle,
    config,
    rng: Random,
    alloc: VarAllocator,
    state: SystemState,
) -> tuple[bool, str | None]:
    """Sample the call outcome instead of executing it. Success registers a
    fresh return var in the context: opaque for object kinds, which have no
    catalog, with a catalog-sampled surface otherwise."""
    api = bundle.api(frame.api)
    if rng.random() < config.api_failure_rate:
        frame.status = CALLED_FAILED
        return False, None
    var = alloc.new(api.return_type)
    surface = bundle.draw(api.return_type, rng)
    state.latest[api.return_type] = (var, surface)
    state.returns[api.return_type] = var
    state.domains[var] = api.domain
    frame.status = CALLED_OK
    return True, var


def _view_and_plan(kind: str, api: str, args: list[ArgView]) -> tuple[ApiView, SystemNlg]:
    """An offer or confirm: the view the user answers, and its act group
    `kind(intent) kind(entity)...` with the arg surfaces as backoff values."""
    acts = [make_act(kind, SYSTEM, intent=api)]
    acts += [make_act(kind, SYSTEM, entity=a.entity_type, api=api, arg=a.arg) for a in args]
    plan = SystemNlg(acts=tuple(acts), backoff_values=[None] + [a.surface for a in args])
    return ApiView(api, args), plan


def propose_offer(
    state: SystemState, bundle: SchemaBundle, rng: Random, last_api: str
) -> tuple[ApiView, SystemNlg] | None:
    """Offer the next API drawn from the transition row of the API just
    fulfilled (END mass dropped, previously denied offers excluded), with
    args pre-filled from the newest context var of each arg's type that
    `may_share` lets fill it."""
    row = state.offer_model.transition.get(last_api, {})
    candidates = {
        api: p for api, p in row.items() if api != END and api not in state.denied_offers and p > 0
    }
    if not candidates:
        return None
    api = bundle.api(weighted_choice(rng, candidates))
    args = []
    for spec in api.args:
        var, surface = state.latest.get(spec.entity_type, (None, None))
        if var is not None and may_share(bundle, spec.entity_type, state.domains.get(var), api):
            args.append(ArgView(spec.name, var, surface, spec.entity_type))
    return _view_and_plan("offer", api.name, args)


def _announce(api: ApiDef, bundle: SchemaBundle, rng: Random) -> SystemNlg:
    resp = bundle.response(api.response_template)
    return SystemNlg(
        acts=resp.acts,
        response=resp,
        arg_values=sample_response_args(resp, bundle, rng),
    )


def _do_call(
    frame: Frame,
    bundle: SchemaBundle,
    config,
    rng: Random,
    alloc: VarAllocator,
    state: SystemState,
    out: SystemTurnOutput,
    recall: bool,
) -> None:
    ok, var = simulate_api_call(frame, bundle, config, rng, alloc, state)
    if ok:
        plan = _announce(bundle.api(frame.api), bundle, rng)
    else:
        failure = make_act("failure", SYSTEM, intent=frame.api)
        plan = SystemNlg(acts=(failure,), backoff_values=[None])
    bindings = {arg: a.var for arg, a in frame.args.items()} if ok else {}
    plan.result = CallResult(frame.api, ok, var, recall, bindings)
    out.nlg.append(plan)


def next_system_turn(
    state: SystemState,
    user_acts: tuple[DialogAct, ...],
    spans: tuple[EntitySpan, ...],  # one per entity-bearing inform act, in act order
    bundle: SchemaBundle,
    config,
    rng: Random,
    alloc: VarAllocator,
) -> SystemTurnOutput:
    out = SystemTurnOutput()

    if any(a.name == "bye" for a in user_acts):
        state.closed = True
        out.nlg.append(SystemNlg(acts=(make_act("bye", SYSTEM),), backoff_values=[None]))
        return out

    offer = state.pending_offer
    state.pending_offer = None
    confirming = state.awaiting_confirm
    confirm_affirmed = False
    confirm_touched = False
    recalls: list[Frame] = []  # called frames given a new value this turn
    span_iter = iter(spans)

    for act in user_acts:
        if act.name == "affirm" and act.intent is not None:
            if offer is not None and act.intent == offer.api:
                state.frames.append(Frame(offer.api, {a.arg: a for a in offer.args}))
                state.offers_accepted += 1
            if confirming is not None and act.intent == confirming.api:
                confirm_affirmed = True
        elif act.name == "deny" and act.intent is not None:
            if offer is not None and act.intent == offer.api:
                state.denied_offers.add(act.intent)
        elif act.name == "deny" and act.entity is not None:
            # an offer accepted earlier in this turn is the api's collecting frame
            frame = _frame_for_role(state, act.api)
            frame.args.pop(act.arg, None)
            if frame is confirming:
                confirm_touched = True
        elif act.name == "inform" and act.intent is not None:
            if _active_frame(state, act.intent) is None:
                state.frames.append(Frame(api=act.intent))
        elif act.name == "inform" and act.entity is not None:
            span = next(span_iter)
            state.latest[act.entity] = (span.var_id, span.surface)
            frame = _frame_for_role(state, act.api)
            frame.args[act.arg] = ArgView(act.arg, span.var_id, span.surface, act.entity)
            if frame.status in (CALLED_OK, CALLED_FAILED):
                recalls.append(frame)
            elif frame is confirming:
                confirm_touched = True

    # post-call corrections: re-call with the updated binding, in frame order
    if recalls:
        for frame in [f for f in state.frames if any(f is r for r in recalls)]:
            _do_call(frame, bundle, config, rng, alloc, state, out, recall=True)

    progressed_api: str | None = None
    frame = _active_frame(state)
    if frame is not None:
        api = bundle.api(frame.api)
        for spec in api.args:
            if spec.name in frame.args:
                continue
            var = state.returns.get(spec.entity_type)
            if var is not None and may_share(bundle, spec.entity_type, state.domains[var], api):
                frame.args[spec.name] = ArgView(spec.name, var, None, spec.entity_type)
        missing = [s for s in api.args if s.required and s.name not in frame.args]
        if missing:
            spec = missing[0]
            request = make_act(
                "request", SYSTEM, entity=spec.entity_type, api=api.name, arg=spec.name
            )
            out.nlg.append(SystemNlg(acts=(request,), backoff_values=[None]))
        elif api.confirm_before_call:
            if confirming is frame and confirm_affirmed and not confirm_touched:
                state.awaiting_confirm = None
                _do_call(frame, bundle, config, rng, alloc, state, out, recall=False)
                if frame.status == CALLED_OK:
                    progressed_api = frame.api
            else:
                args = [frame.args[s.name] for s in api.args if s.name in frame.args]
                out.confirm, plan = _view_and_plan("confirm", api.name, args)
                state.awaiting_confirm = frame
                out.nlg.append(plan)
        else:
            _do_call(frame, bundle, config, rng, alloc, state, out, recall=False)
            if frame.status == CALLED_OK:
                progressed_api = frame.api
    # proactive offer after a fresh successful call
    if (
        progressed_api is not None
        and state.offer_model is not None
        and rng.random() < config.p_offer
    ):
        proposal = propose_offer(state, bundle, rng, progressed_api)
        if proposal is not None:
            out.offer, plan = proposal
            state.pending_offer = out.offer
            state.offers_made += 1
            out.nlg.append(plan)
    return out
