"""Template-based NLG for both agents.

User turns are keyed by the canonical act-signature string of the whole
turn; system responses are named definitions. Signatures never seen in the
seeds fall back to per-act templates or canned fragments, since the
interplay loop produces act groupings the seed dialogs do not contain.
Either way a user turn is a list of pieces, one for the whole turn or one
per act, and one loop in `_fill_user` fills and joins them, for self-play
and replay alike.

A batch holds one object per distinct generated turn: its `TemplateIndex`
keeps the batch's turn memo, and lives as long as the batch. The memo keys
a user turn by its recipe, `(act ids, *values, *var ids, *template
choices)`, and by its value, `(text, spans, act ids)`; a call by `(api,
return var, *bindings' items)`; and an nlg line by `(text, act ids)`. Only
a recipe key starts with a tuple, only a call key's second item is a
string, and a user turn's value key has three items where an nlg line's
has two, so no two kinds of turn share a key. `realize_user` makes its
draws, looks the turn up by its recipe, and fills it only on a miss.
`TemplateIndex.share` gives the batch's one object for any turn's value:
`realize_user` passes each turn it fills through it, and `engine` each
turn a pool worker sends, so of two equal turns the first is kept,
whichever process made it. `engine` gets its call and nlg lines from
`TemplateIndex.call_turn` and `nlg_turn`.

`schema.split_template` alone splits templates into literals and slots: a
response definition splits its own when it is made, `TemplateIndex.user_plan`
a user act list's once, when it builds its plan. Every user template, from
the schema or delexicalized from a seed turn, passes `utterance_problems`:
its slots, in text order, are the names NLG fills in act order, so the
spans of a user turn come out in act order.

A response template's args are filled one of three ways:
`sample_response_args` draws each from a catalog (API announcements), a
replay draws each from a catalog looked up once per seed (`engine.replay_plan`),
and `fill_response_args` takes each from a policy act group's own values.
"""
from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass, field
from random import Random
from typing import NamedTuple

from .acts import DialogAct, slot_names_for, turn_acts_string, value_bearing
from .markup import (
    ApiCall,
    Dialog,
    EntitySpan,
    MarkupError,
    NlgResponse,
    Turn,
    UserUtterance,
    ValueRef,
    VarAllocator,
)
from .schema import (
    ResponseTemplateDef,
    SchemaBundle,
    UtteranceTemplateDef,
    split_template,
    utterance_problems,
)


class RealizationError(RuntimeError):
    pass


class _Piece(NamedTuple):
    """One piece of a user turn's text: the literal parts of each template
    it may take, split once (one more part than slots), whether it draws
    one (a canned fragment takes no draw), and its slot types."""

    templates: tuple[tuple[str, ...], ...]
    draws: bool
    types: tuple[str, ...]


class _UserPlan(NamedTuple):
    """What a user act list resolves to: the entity types of its slots, and
    the pieces its text is joined from. The list's exact-signature templates
    are one piece; without them, each act is one, from its single-act
    templates or its canned fragment."""

    types: tuple[str, ...]
    pieces: tuple[_Piece, ...]


@dataclass
class TemplateIndex:
    user: dict[str, list[str]] = field(default_factory=dict)  # signature -> templates
    response_by_signature: dict[str, ResponseTemplateDef] = field(default_factory=dict)
    # what each user act list resolved to, keyed by its act-id tuple; a run
    # meets the same few lists thousands of times. Each entry holds its
    # acts, so no id in a live key is reused (the rule of `acts._signatures`)
    _user_plans: dict[tuple[int, ...], tuple[tuple[DialogAct, ...], _UserPlan]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # the batch's turn memo, one object per distinct generated turn, under
    # the keys of the module docstring. Each entry holds its turn and the
    # turn its acts, so no id in a live key is reused
    _turns: dict[tuple, Turn] = field(default_factory=dict, init=False, repr=False, compare=False)

    def user_plan(
        self, acts: tuple[DialogAct, ...], n_values: int, ids: tuple[int, ...] | None = None
    ) -> _UserPlan:
        """The plan of a user turn with `acts`, which must take `n_values`
        values, one per entity-bearing inform act. `ids`, when given, is
        the tuple of the acts' ids."""
        if ids is None:
            ids = tuple([id(a) for a in acts])
        hit = self._user_plans.get(ids)
        if hit is not None:
            plan = hit[1]
        else:
            signature = turn_acts_string(acts)
            types = tuple([a.entity for a in value_bearing(acts)])
            exact = self.user.get(signature)
            if exact:
                pieces = [_piece(exact, True, types)]
            else:
                pieces = []
                for a in acts:
                    single = self.user.get(turn_acts_string([a]))
                    piece_types = tuple([b.entity for b in value_bearing([a])])
                    pieces.append(_piece(single or [_user_fragment(a)], bool(single), piece_types))
            plan = _UserPlan(types, tuple(pieces))
            if acts:
                self._user_plans[ids] = (tuple(acts), plan)
        if n_values != len(plan.types):
            raise RealizationError(f"{n_values} values for {len(plan.types)} entity informs")
        return plan

    def response(self, acts: tuple[DialogAct, ...]) -> ResponseTemplateDef | None:
        """The response template whose acts are the signature of `acts`."""
        return self.response_by_signature.get(turn_acts_string(acts))

    def share(self, turn: Turn) -> Turn:
        """The batch's one turn of `turn`'s value. A call or an nlg line
        goes through `call_turn` or `nlg_turn`; a user turn the batch has
        no equal of is entered itself."""
        kind = type(turn)
        if kind is ApiCall:
            return self.call_turn(turn.api, turn.bindings, turn.return_var)
        if kind is NlgResponse:
            return self.nlg_turn(turn.text, turn.acts)
        key = (turn.text, turn.spans, tuple([id(a) for a in turn.acts]))
        shared = self._turns.get(key)
        if shared is None:
            shared = self._turns[key] = turn
        return shared

    def call_turn(self, api: str, bindings: dict[str, ValueRef], return_var: str) -> ApiCall:
        """The batch's one call turn of this value."""
        key = (api, return_var, *bindings.items())
        turn = self._turns.get(key)
        if turn is None:
            turn = self._turns[key] = ApiCall(api, bindings, return_var)
        return turn

    def nlg_turn(self, text: str, acts: tuple[DialogAct, ...]) -> NlgResponse:
        """The batch's one nlg turn of this text and these acts."""
        key = (text, tuple([id(a) for a in acts]))
        turn = self._turns.get(key)
        if turn is None:
            turn = self._turns[key] = NlgResponse(text, tuple(acts))
        return turn


def delexicalize_turn(utterance: UserUtterance) -> UtteranceTemplateDef:
    """Template for a user turn: spans become `{type}` slots (type2, type3 on
    repeats), acts become the signature."""
    slots = slot_names_for([s.entity_type or "value" for s in utterance.spans])
    parts = []
    pos = 0
    for span, slot in zip(utterance.spans, slots):
        parts.append(utterance.text[pos : span.start])
        parts.append("{%s}" % slot)
        pos = span.end
    parts.append(utterance.text[pos:])
    return UtteranceTemplateDef(acts=utterance.acts, template="".join(parts))


def build_template_index(bundle: SchemaBundle, seeds: list[Dialog]) -> TemplateIndex:
    """Index developer templates plus delexicalized seed utterances. A seed
    user turn is held to the schema's utterance rule, and its text outside
    the spans may hold no slot of its own."""
    index = TemplateIndex()

    def add_user(defn: UtteranceTemplateDef) -> None:
        key = turn_acts_string(defn.acts)
        bucket = index.user.setdefault(key, [])
        if defn.template not in bucket:
            bucket.append(defn.template)

    for dom in bundle.domains:
        for ut in dom.utterance_templates:
            add_user(ut)
        for resp in dom.response_templates:
            index.response_by_signature.setdefault(turn_acts_string(resp.acts), resp)
    for i, seed in enumerate(seeds):
        for n, turn in enumerate(seed.turns, start=1):
            if isinstance(turn, UserUtterance):
                defn = delexicalize_turn(turn)
                problems = utterance_problems(defn)
                if len(split_template(defn.template)[1]) != len(turn.spans):
                    problems.append("its text holds a {slot} outside its spans")
                if problems:
                    name = seed.metadata.get("id", str(i))
                    raise MarkupError(f"seed {name!r} turn {n}: {problems[0]}")
                add_user(defn)
    return index


def _piece(templates: list[str], draws: bool, types: tuple[str, ...]) -> _Piece:
    """A piece of `templates`, each split once; their slots must be
    `slot_names_for(types)` in text order."""
    slots = slot_names_for(types)
    split = []
    for template in templates:
        literals, names = split_template(template)
        if list(names) != slots:
            raise RealizationError(f"template {template!r} does not have the slots {slots}")
        split.append(literals)
    return _Piece(tuple(split), draws, types)


def humanize(name: str) -> str:
    """CamelCase or lowerCamel identifier -> space-separated lowercase words."""
    words = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", name)
    return words.lower()


def _user_fragment(act: DialogAct) -> str:
    if act.name == "inform" and act.intent is not None:
        return f"I want to {humanize(act.intent)}"
    if act.name == "inform":
        return "{%s}" % act.entity
    if act.name == "affirm" and act.intent is not None:
        return "yes"
    if act.name == "affirm":
        return f"yes, that {humanize(act.entity)}"
    if act.name == "deny" and act.intent is not None:
        return "no thank you"
    if act.name == "deny":
        return f"no, not that {humanize(act.entity)}"
    if act.name == "bye":
        return "Ok thank you, bye"
    if act.name == "repeat":
        return "sorry, say that again?"
    return humanize(act.name)


def realize_user(
    acts: tuple[DialogAct, ...],
    values: list[str],
    index: TemplateIndex,
    rng: Random,
    alloc: VarAllocator | tuple[str, ...],
) -> UserUtterance:
    """The user turn with `acts`, its entity spans in text order, which is
    act order.

    `values` holds one surface per entity-bearing inform act, in act order;
    the slot names (T, T2, ... on repeated types) are derived from the acts.
    Each span's var id is new from `alloc`, or, when `alloc` is a tuple, is
    its entry: a replay's var ids are fixed per seed. One template is drawn
    per piece that draws, in piece order; an equal turn made before in the
    batch is returned itself.
    """
    ids = tuple([id(a) for a in acts])
    plan = index.user_plan(acts, len(values), ids)
    var_ids = alloc if isinstance(alloc, tuple) else tuple([alloc.new(t) for t in plan.types])
    choices = [rng.randrange(len(piece.templates)) for piece in plan.pieces if piece.draws]
    key = (ids, *values, *var_ids, *choices)
    turn = index._turns.get(key)
    if turn is None:
        text, spans = _fill_user(plan, values, var_ids, choices)
        turn = index._turns[key] = index.share(UserUtterance(text, spans, tuple(acts)))
    return turn


def _fill_user(
    plan: _UserPlan, values: Sequence[str], var_ids: Sequence[str], choices: Sequence[int]
) -> tuple[str, tuple[EntitySpan, ...]]:
    """The text and spans of a user turn of `plan`: one loop fills its
    pieces, each from its template (see `_UserPlan`), and joins them in act
    order. `choices` holds the drawn template of each piece that draws, in
    piece order. Slot k takes `values[k]` and its span `var_ids[k]`."""
    parts: list[str] = []
    spans: list[EntitySpan] = []
    out = k = 0
    chosen = iter(choices)
    for templates, draws, types in plan.pieces:
        literals = templates[next(chosen)] if draws else templates[0]
        if parts:
            parts.append(", ")
            out += 2
        parts.append(literals[0])
        out += len(literals[0])
        for entity_type, literal in zip(types, literals[1:]):
            surface = values[k]
            end = out + len(surface)
            spans.append(EntitySpan(surface, var_ids[k], entity_type, out, end))
            parts += (surface, literal)
            out = end + len(literal)
            k += 1
    return "".join(parts), tuple(spans)


def realize_response(
    defn: ResponseTemplateDef, arg_values: dict[str, str], rng: Random
) -> str:
    """Uniformly sampled template of `defn`, with its `{arg}` slots filled."""
    return response_text(defn, rng.randrange(len(defn.templates)), arg_values)


def response_text(defn: ResponseTemplateDef, k: int, arg_values: dict[str, str]) -> str:
    """`defn`'s template `k`, its `{arg}` slots filled from its split parts."""
    literals, names = defn.split[k]
    parts = [literals[0]]
    for name, literal in zip(names, literals[1:]):
        if name not in arg_values:
            raise RealizationError(f"response {defn.name} has no value for {{{name}}}")
        parts += (arg_values[name], literal)
    return "".join(parts)


def sample_response_args(
    defn: ResponseTemplateDef, bundle: SchemaBundle, rng: Random
) -> dict[str, str]:
    """One catalog draw per response arg, in arg order; an arg whose type
    has no catalog is filled with its own name."""
    values = {}
    for spec in defn.args:
        value = bundle.draw(spec.entity_type, rng)
        values[spec.name] = spec.name if value is None else value
    return values


def fill_response_args(
    defn: ResponseTemplateDef, acts: tuple[DialogAct, ...], values: list[str | None]
) -> dict[str, str] | None:
    """Each response arg, in arg order, takes the value of the first unused
    act of its entity type that carries one (`values` runs parallel to
    `acts`); None when some arg finds no such act."""
    filled = {}
    used: set[int] = set()
    for spec in defn.args:
        for i, (act, value) in enumerate(zip(acts, values)):
            if i not in used and act.entity == spec.entity_type and value is not None:
                used.add(i)
                filled[spec.name] = value
                break
        else:
            return None
    return filled


def realize_system_backoff(acts: tuple[DialogAct, ...], values: list[str | None]) -> str:
    """Canned text for system act groups with no schema response template."""
    parts = []
    for act, value in zip(acts, values):
        if act.name == "request":
            parts.append(f"What {humanize(act.entity)} would you like?")
        elif act.name == "offer" and act.intent is not None:
            parts.append(f"Would you like to {humanize(act.intent)}?")
        elif act.name == "offer":
            parts.append(
                f"How about {value}?" if value else f"Using that {humanize(act.entity)}?"
            )
        elif act.name == "confirm" and act.intent is not None:
            parts.append(f"Shall I {humanize(act.intent)}?")
        elif act.name == "confirm":
            parts.append(f"With {value}?" if value else f"For that {humanize(act.entity)}?")
        elif act.name == "failure":
            parts.append(f"Sorry, I could not {humanize(act.intent)}.")
        elif act.name == "inform":
            parts.append(f"The {humanize(act.entity)} is {value}." if value else "")
        elif act.name == "bye":
            parts.append("Thank you, goodbye.")
    return " ".join(p for p in parts if p)
