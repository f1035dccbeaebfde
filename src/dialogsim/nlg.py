"""Template-based NLG for both agents.

User turns are keyed by the canonical act-signature string of the whole
turn; system responses are named definitions. Signatures never seen in the
seeds fall back to per-act templates or canned fragments, since the
interplay loop produces act groupings the seed dialogs do not contain.

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
from random import Random

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


@dataclass
class TemplateIndex:
    user: dict[str, list[UtteranceTemplateDef]] = field(default_factory=dict)
    response_by_signature: dict[str, ResponseTemplateDef] = field(default_factory=dict)


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
    return UtteranceTemplateDef(acts=tuple(utterance.acts), template="".join(parts))


def build_template_index(bundle: SchemaBundle, seeds: list[Dialog]) -> TemplateIndex:
    """Index developer templates plus delexicalized seed utterances. A seed
    turn is held to the schema's utterance rule, and its text outside the
    spans may hold no slot of its own."""
    index = TemplateIndex()

    def add_user(defn: UtteranceTemplateDef) -> None:
        key = turn_acts_string(list(defn.acts))
        bucket = index.user.setdefault(key, [])
        if not any(d.template == defn.template for d in bucket):
            bucket.append(defn)

    for dom in bundle.domains:
        for ut in dom.utterance_templates:
            add_user(ut)
        for resp in dom.response_templates:
            index.response_by_signature.setdefault(turn_acts_string(list(resp.acts)), resp)
    for i, seed in enumerate(seeds):
        for n, turn in enumerate(seed.turns, start=1):
            if isinstance(turn, UserUtterance) and turn.acts:
                defn = delexicalize_turn(turn)
                problems = utterance_problems(defn)
                if len(SLOT_RE.findall(defn.template)) != len(turn.spans):
                    problems.append("its text holds a {slot} outside its spans")
                if problems:
                    name = seed.metadata.get("id", str(i))
                    raise MarkupError(f"seed {name!r} turn {n}: {problems[0]}")
                add_user(defn)
    return index


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
    slots = slot_names_for(types)
    parts: list[str] = []
    spans: list[EntitySpan] = []
    pos = 0
    out = offset
    for m in SLOT_RE.finditer(template):
        k = len(spans)
        if k == len(slots) or m.group(1) != slots[k]:
            raise RealizationError(f"template {template!r} does not have the slots {slots}")
        surface = next(values)
        parts.append(template[pos : m.start()])
        out += m.start() - pos
        spans.append(EntitySpan(surface, alloc.new(types[k]), types[k], out, out + len(surface)))
        parts.append(surface)
        out += len(surface)
        pos = m.end()
    if len(spans) != len(slots):
        raise RealizationError(f"template {template!r} does not have the slots {slots}")
    parts.append(template[pos:])
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
    acts: list[DialogAct],
    values: list[str],
    index: TemplateIndex,
    rng: Random,
    alloc: VarAllocator,
) -> tuple[str, list[EntitySpan]]:
    """Surface form plus entity spans (in text order, which is act order)
    for a user turn.

    `values` holds one surface per entity-bearing inform act, in act order;
    the slot names (T, T2, ... on repeated types) are derived from the acts.
    Exact-signature templates are sampled uniformly; otherwise each act is
    rendered on its own — through a single-act template when one exists,
    through a canned fragment when not — and the pieces joined.
    """
    types = [a.entity for a in value_bearing(acts)]
    if len(values) != len(types):
        raise RealizationError(f"{len(values)} values for {len(types)} entity informs")
    value_iter = iter(values)
    candidates = index.user.get(turn_acts_string(acts))
    if candidates:
        defn = candidates[rng.randrange(len(candidates))]
        return _fill_template(defn.template, types, value_iter, alloc, 0)

    # backoff: per-act pieces joined in act order
    parts: list[str] = []
    spans: list[EntitySpan] = []
    out = 0
    for act in acts:
        single = index.user.get(turn_acts_string([act]))
        template = single[rng.randrange(len(single))].template if single else _user_fragment(act)
        act_types = [a.entity for a in value_bearing([act])]
        text, act_spans = _fill_template(template, act_types, value_iter, alloc, out)
        parts.append(text)
        spans += act_spans
        out += len(text) + 2
    return ", ".join(parts), spans


def realize_response(
    defn: ResponseTemplateDef, arg_values: dict[str, str], rng: Random
) -> str:
    """Uniformly sampled template string with `{arg}` slots filled."""
    template = defn.templates[rng.randrange(len(defn.templates))]

    def sub(m: re.Match) -> str:
        name = m.group(1)
        if name not in arg_values:
            raise RealizationError(f"response {defn.name} has no value for {{{name}}}")
        return arg_values[name]

    return SLOT_RE.sub(sub, template)


def sample_response_args(
    defn: ResponseTemplateDef, bundle: SchemaBundle, rng: Random
) -> dict[str, str]:
    """One catalog draw per response arg, in arg order; an arg whose type
    has no catalog is filled with its own name."""
    values = {}
    for spec in defn.args:
        catalog = bundle.catalog(spec.entity_type)
        values[spec.name] = catalog[rng.randrange(len(catalog))] if catalog else spec.name
    return values


def fill_response_args(
    defn: ResponseTemplateDef, acts: list[DialogAct], values: list[str | None]
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


def realize_system_backoff(acts: list[DialogAct], values: list[str | None]) -> str:
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
