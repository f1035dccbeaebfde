"""Template-based NLG for both agents.

User turns are keyed by the canonical act-signature string of the whole
turn; system responses are named definitions. Signatures never seen in the
seeds fall back to per-act templates or canned fragments, since the
interplay loop produces act groupings the seed dialogs do not contain.
Either way a user turn is a list of pieces, one for the whole turn or one
per act, and one loop in `realize_user` fills and joins them.

Every user template, from the schema or delexicalized from a seed turn,
passes `schema.utterance_problems`: its slots, in text order, are the names
NLG fills in act order. So every act of a user turn is filled by one path,
`_fill_template`, and the spans come out in text order, which is act order.

A response template's args are filled one of two ways: `sample_response_args`
draws each from a catalog (API announcements, replayed seeds), and
`fill_response_args` takes each from a policy act group's own values.
"""
from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from random import Random
from typing import NamedTuple

from .acts import DialogAct, slot_names_for, turn_acts_string, value_bearing
from .markup import Dialog, EntitySpan, MarkupError, UserUtterance, VarAllocator
from .schema import (
    SLOT_RE,
    ResponseTemplateDef,
    SchemaBundle,
    UtteranceTemplateDef,
    utterance_problems,
)


class RealizationError(RuntimeError):
    pass


class _UserPlan(NamedTuple):
    """What a user act list resolves to: the entity types of its slots, and
    the pieces its text is joined from, each the templates to draw from (or
    a canned fragment, which takes no draw) and its slot types. The list's
    exact-signature templates are one piece; without them, each act is one,
    from its single-act templates or its canned fragment."""

    types: list[str]
    pieces: list[tuple[tuple[str, ...] | str, list[str]]]


@dataclass
class TemplateIndex:
    user: dict[str, list[str]] = field(default_factory=dict)  # signature -> templates
    response_by_signature: dict[str, ResponseTemplateDef] = field(default_factory=dict)
    # what each user act list resolved to, keyed by its signature, of which
    # the plan is a pure function; a run meets the same few signatures
    # thousands of times, and `turn_acts_string` builds each one once
    _user_plans: dict[str, _UserPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def user_plan(self, acts: tuple[DialogAct, ...]) -> _UserPlan:
        signature = turn_acts_string(acts)
        plan = self._user_plans.get(signature)
        if plan is None:
            types = [a.entity for a in value_bearing(acts)]
            exact = tuple(self.user.get(signature, ()))
            pieces = [(exact, types)] if exact else [
                (
                    tuple(self.user.get(turn_acts_string([a]), ()))
                    or _user_fragment(a),
                    [a.entity for a in value_bearing([a])],
                )
                for a in acts
            ]
            plan = _UserPlan(types, pieces)
            if acts:
                self._user_plans[signature] = plan
        return plan

    def response(self, acts: tuple[DialogAct, ...]) -> ResponseTemplateDef | None:
        """The response template whose acts are the signature of `acts`."""
        return self.response_by_signature.get(turn_acts_string(acts))


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
                if len(SLOT_RE.findall(defn.template)) != len(turn.spans):
                    problems.append("its text holds a {slot} outside its spans")
                if problems:
                    name = seed.metadata.get("id", str(i))
                    raise MarkupError(f"seed {name!r} turn {n}: {problems[0]}")
                add_user(defn)
    return index


@lru_cache(maxsize=4096)
def _split(template: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A template's literal pieces and its slot names, both in text order;
    there is one more piece than there are slots."""
    pieces = SLOT_RE.split(template)
    return tuple(pieces[::2]), tuple(pieces[1::2])


def _fill_template(
    template: str,
    types: list[str],
    values: Iterator[str],
    alloc: VarAllocator,
    offset: int,
) -> tuple[str, list[EntitySpan]]:
    """`template` with its slots filled from `values`, one per entry of
    `types`, and their spans in text order, counted from `offset`. The
    slots must be `slot_names_for(types)` in text order."""
    literals, names = _split(template)
    slots = slot_names_for(types)
    if list(names) != slots:
        raise RealizationError(f"template {template!r} does not have the slots {slots}")
    parts = [literals[0]]
    spans: list[EntitySpan] = []
    out = offset + len(literals[0])
    for entity_type, literal in zip(types, literals[1:]):
        surface = next(values)
        end = out + len(surface)
        spans.append(EntitySpan(surface, alloc.new(entity_type), entity_type, out, end))
        parts += (surface, literal)
        out = end + len(literal)
    return "".join(parts), spans


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
    alloc: VarAllocator,
) -> tuple[str, tuple[EntitySpan, ...]]:
    """Surface form plus entity spans (in text order, which is act order)
    for a user turn.

    `values` holds one surface per entity-bearing inform act, in act order;
    the slot names (T, T2, ... on repeated types) are derived from the acts.
    One loop fills the pieces of the turn's plan (see `_UserPlan`), each
    from a uniformly drawn template, and joins them in act order.
    """
    types, pieces = index.user_plan(acts)
    if len(values) != len(types):
        raise RealizationError(f"{len(values)} values for {len(types)} entity informs")
    value_iter = iter(values)
    parts: list[str] = []
    spans: list[EntitySpan] = []
    out = 0
    for drawn, piece_types in pieces:
        template = drawn if isinstance(drawn, str) else drawn[rng.randrange(len(drawn))]
        text, piece_spans = _fill_template(template, piece_types, value_iter, alloc, out)
        parts.append(text)
        spans += piece_spans
        out += len(text) + 2
    return ", ".join(parts), tuple(spans)


def realize_response(
    defn: ResponseTemplateDef, arg_values: dict[str, str], rng: Random
) -> str:
    """Uniformly sampled template string with `{arg}` slots filled."""
    literals, names = _split(defn.templates[rng.randrange(len(defn.templates))])
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
