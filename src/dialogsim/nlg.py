"""Template-based NLG for both agents.

User turns are keyed by the canonical act-signature string of the whole
turn; system responses are named definitions. Signatures never seen in the
seeds fall back to canned per-act fragments, since the interplay loop
produces act groupings the seed dialogs do not contain.

A response template's args are filled one of two ways: `sample_response_args`
draws each from a catalog (API announcements, replayed seeds), and
`fill_response_args` takes each from a policy act group's own values.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from random import Random

from .acts import DialogAct, slot_names_for, turn_acts_string, value_bearing
from .markup import Dialog, EntitySpan, UserUtterance, VarAllocator, delexicalize_turn
from .schema import SLOT_RE, ResponseTemplateDef, SchemaBundle, UtteranceTemplateDef


class RealizationError(RuntimeError):
    pass


@dataclass
class TemplateIndex:
    user: dict[str, list[UtteranceTemplateDef]] = field(default_factory=dict)
    response_by_signature: dict[str, ResponseTemplateDef] = field(default_factory=dict)


def build_template_index(bundle: SchemaBundle, seeds: list[Dialog]) -> TemplateIndex:
    """Index developer templates plus delexicalized seed utterances."""
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
    for seed in seeds:
        for turn in seed.turns:
            if isinstance(turn, UserUtterance) and turn.acts:
                add_user(delexicalize_turn(turn))
    return index


def _fill_template(
    template: str,
    slot_values: dict[str, str],
    slot_types: dict[str, str],
    alloc: VarAllocator,
) -> tuple[str, list[EntitySpan]]:
    parts: list[str] = []
    spans: dict[str, EntitySpan] = {}
    pos = 0
    out = 0
    for m in SLOT_RE.finditer(template):
        slot = m.group(1)
        if slot not in slot_values:
            raise RealizationError(f"template {template!r} wants unknown slot {{{slot}}}")
        if slot in spans:
            raise RealizationError(f"template {template!r} repeats slot {{{slot}}}")
        surface = slot_values[slot]
        parts.append(template[pos : m.start()])
        out += m.start() - pos
        spans[slot] = EntitySpan(
            surface=surface,
            var_id=alloc.new(slot_types[slot]),
            entity_type=slot_types[slot],
            start=out,
            end=out + len(surface),
        )
        parts.append(surface)
        out += len(surface)
        pos = m.end()
    parts.append(template[pos:])
    missing = set(slot_values) - set(spans)
    if missing:
        raise RealizationError(
            f"template {template!r} does not place slots {sorted(missing)}"
        )
    return "".join(parts), spans


def humanize(name: str) -> str:
    """CamelCase or lowerCamel identifier -> space-separated lowercase words."""
    words = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", name)
    return words.lower()


def _user_fragment(act: DialogAct, value: str | None) -> str:
    if act.name == "inform" and act.intent is not None:
        return f"I want to {humanize(act.intent)}"
    if act.name == "inform":
        return value if value is not None else f"the {humanize(act.entity)}"
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
    """Surface form plus entity spans (in act order) for a user turn.

    `values` holds one surface per entity-bearing inform act, in act order;
    the slot names (T, T2, ... on repeated types) are derived from the acts.
    Exact-signature templates are sampled uniformly; otherwise each act is
    rendered on its own — through a single-act template when one exists,
    through a canned fragment when not — and the pieces joined.
    """
    types = [a.entity for a in value_bearing(acts)]
    if len(values) != len(types):
        raise RealizationError(f"{len(values)} values for {len(types)} entity informs")
    signature = turn_acts_string(acts)
    candidates = index.user.get(signature)
    if candidates:
        slots = slot_names_for(types)
        defn = candidates[rng.randrange(len(candidates))]
        text, spans = _fill_template(
            defn.template, dict(zip(slots, values)), dict(zip(slots, types)), alloc
        )
        return text, [spans[s] for s in slots]

    # backoff: per-act fragments joined in act order
    parts: list[str] = []
    spans_out: list[EntitySpan] = []
    out = 0
    value_iter = iter(values)
    for i, act in enumerate(acts):
        if i > 0:
            parts.append(", ")
            out += 2
        if act.name == "inform" and act.entity is not None:
            single = index.user.get(turn_acts_string([act]))
            template = (
                single[rng.randrange(len(single))].template
                if single
                else "{%s}" % act.entity
            )
            # a single-act template names its one slot after the bare type
            text, spans = _fill_template(
                template, {act.entity: next(value_iter)}, {act.entity: act.entity}, alloc
            )
            span = spans[act.entity]
            span.start += out
            span.end += out
            parts.append(text)
            out += len(text)
            spans_out.append(span)
        else:
            single = index.user.get(turn_acts_string([act]))
            fragment = (
                single[rng.randrange(len(single))].template
                if single
                else _user_fragment(act, None)
            )
            parts.append(fragment)
            out += len(fragment)
    return "".join(parts), spans_out


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
