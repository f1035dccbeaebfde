"""Domain schema: entity types with catalogs, APIs, and NLG templates.

A schema bundle is loaded from a single JSON document (possibly spanning
several domains), validated, and then shared immutably by every other
component.
"""
from __future__ import annotations

import codecs
import json
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from random import Random

from .acts import (
    END,
    IDENTIFIER,
    SYSTEM,
    USER,
    DialogAct,
    parse_act_list,
    slot_names_for,
    turn_acts_string,
    value_bearing,
)

CATALOG = "catalog"
OBJECT = "object"
BUILTIN = "builtin"

# Fixed registry of cross-domain entity types. Developers may extend the
# catalogs from their schema files but may not redefine the names.
BUILTIN_CATALOGS: dict[str, tuple[str, ...]] = {
    "Time": ("2 PM", "4 PM", "8 PM", "noon", "9 AM", "17:00", "6:30 PM"),
    "Date": ("today", "tomorrow", "Friday", "June 5", "next Monday"),
    "Address": ("123 Main St", "55 5th Ave", "9 Elm Road"),
}


# entity type names and template slot names: a letter, then letters or
# digits; var ids in the markup are a type name plus a counter. Only
# `split_template` reads a template's slots with it
NAME = r"[A-Za-z][A-Za-z0-9]*"
SLOT_RE = re.compile(r"\{(%s)\}" % NAME)
Split = tuple[tuple[str, ...], tuple[str, ...]]  # a template's literal parts, slot names
# the characters the training export splits off the edges of a word; a
# user template's slot is parted from the text around it by whitespace or
# the template's edge, with only these in between, so its value is whole
# tokens
PUNCT = ".,!?;:\"'()[]"


def split_template(text: str) -> Split:
    """The literal parts and slot names of template `text`, in text order:
    one more literal than there are slots."""
    parts = SLOT_RE.split(text)
    return tuple(parts[::2]), tuple(parts[1::2])


class SchemaError(ValueError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(f"{d.location}: {d.message}" for d in self.diagnostics))


@dataclass(frozen=True)
class Diagnostic:
    location: str
    message: str

    def __str__(self) -> str:
        return f"error: {self.location}: {self.message}"


@dataclass(frozen=True)
class EntityType:
    name: str
    kind: str
    catalog: tuple[str, ...] = ()

    @property
    def speakable(self) -> bool:
        return self.kind != OBJECT


@dataclass(frozen=True)
class ArgSpec:
    name: str
    entity_type: str
    required: bool = True


@dataclass(frozen=True)
class ApiDef:
    name: str
    args: tuple[ArgSpec, ...]
    return_name: str
    return_type: str
    response_template: str
    confirm_before_call: bool = False
    domain: str = ""

    def arg(self, name: str) -> ArgSpec | None:
        for a in self.args:
            if a.name == name:
                return a
        return None


@dataclass(frozen=True)
class ResponseTemplateDef:
    name: str
    args: tuple[ArgSpec, ...]
    acts: tuple[DialogAct, ...]
    templates: tuple[str, ...]
    # each template's parts, split once: the validator checks what `nlg` fills
    split: tuple[Split, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "split", tuple(map(split_template, self.templates)))


@dataclass(frozen=True)
class UtteranceTemplateDef:
    acts: tuple[DialogAct, ...]
    template: str


@dataclass
class DomainSchema:
    name: str
    entity_types: list[EntityType]
    apis: list[ApiDef]
    response_templates: list[ResponseTemplateDef]
    utterance_templates: list[UtteranceTemplateDef]


@dataclass
class SchemaBundle:
    domains: list[DomainSchema]
    # lookups derived from `domains`, built once, when the bundle is made
    _types: dict[str, EntityType] = field(init=False, repr=False, compare=False)
    _apis: dict[str, ApiDef] = field(init=False, repr=False, compare=False)
    _responses: dict[str, ResponseTemplateDef] = field(init=False, repr=False, compare=False)
    _prefixes: dict[str, EntityType] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._types, self._apis, self._responses = {}, {}, {}
        extensions: dict[str, list[str]] = {name: [] for name in BUILTIN_CATALOGS}
        for dom in self.domains:
            for et in dom.entity_types:
                if et.kind == BUILTIN and et.name in BUILTIN_CATALOGS:
                    extensions[et.name].extend(
                        v for v in et.catalog if v not in extensions[et.name]
                    )
                else:
                    self._types.setdefault(et.name, et)
            for api in dom.apis:
                self._apis.setdefault(api.name, api)
            for resp in dom.response_templates:
                self._responses.setdefault(resp.name, resp)
        for name, base in BUILTIN_CATALOGS.items():
            extra = tuple(v for v in extensions[name] if v not in base)
            self._types[name] = EntityType(name=name, kind=BUILTIN, catalog=base + extra)
        self._prefixes = {}
        for et in self._types.values():
            if et.name:  # an unnamed type has no var prefix
                self._prefixes.setdefault(var_prefix(et.name), et)

    def entity_type(self, name: str) -> EntityType | None:
        return self._types.get(name)

    def api(self, name: str) -> ApiDef | None:
        return self._apis.get(name)

    def response(self, name: str) -> ResponseTemplateDef | None:
        return self._responses.get(name)

    def apis(self) -> list[ApiDef]:
        return [api for dom in self.domains for api in dom.apis]

    def catalog(self, type_name: str) -> tuple[str, ...]:
        et = self.entity_type(type_name)
        return et.catalog if et is not None else ()

    def draw(self, type_name: str, rng: Random) -> str | None:
        """`draw_from` the type's catalog."""
        return draw_from(self.catalog(type_name), rng)

    def entity_type_for_prefix(self, prefix: str) -> EntityType | None:
        """Resolve a var-id prefix back to its entity type (see var_prefix)."""
        return self._prefixes.get(prefix)


def draw_from(catalog: tuple[str, ...], rng: Random) -> str | None:
    """One uniform draw from `catalog`; None, and no draw, if it is empty."""
    return catalog[rng.randrange(len(catalog))] if catalog else None


def var_prefix(type_name: str) -> str:
    """Var-id prefix for generated output: type name, first char lowered."""
    return type_name[0].lower() + type_name[1:]


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", bool: "true or false"}


def _typed(obj: dict, key: str, kind: type, default, loc: str, diags: list[Diagnostic]):
    """`obj[key]` when it is a `kind`, `default` when the key is absent;
    any other value is a diagnostic, and reads as `default`."""
    value = obj.get(key, default)
    if isinstance(value, kind):
        return value
    diags.append(Diagnostic(loc, f"{key!r} must be {_JSON_KINDS[kind]}"))
    return default


def _entries(obj: dict, key: str, kind: type, loc: str, diags: list[Diagnostic]) -> list:
    """The entries of the list `obj[key]` that are a `kind`; the others are
    dropped, with one diagnostic."""
    items = _typed(obj, key, list, [], loc, diags)
    kept = [item for item in items if isinstance(item, kind)]
    if len(kept) != len(items):
        message = f"each entry of {key!r} must be {_JSON_KINDS[kind]}"
        diags.append(Diagnostic(loc, message))
    return kept


def _parse_arg_specs(owner: dict, loc: str, diags: list[Diagnostic]) -> tuple[ArgSpec, ...]:
    specs = []
    seen = set()
    for a in _entries(owner, "args", dict, loc, diags):
        name = _typed(a, "name", str, "", loc, diags)
        if name in seen:
            diags.append(Diagnostic(loc, f"duplicate arg name {name!r}"))
        seen.add(name)
        specs.append(
            ArgSpec(
                name=name,
                entity_type=_typed(a, "type", str, "", loc, diags),
                required=_typed(a, "required", bool, True, loc, diags),
            )
        )
    return tuple(specs)


def _parse_acts(
    owner: dict, side: str, loc: str, diags: list[Diagnostic]
) -> tuple[DialogAct, ...]:
    strings = _entries(owner, "acts", str, loc, diags)
    try:
        return tuple(act for s in strings for act in parse_act_list(s, side))
    except ValueError as err:
        diags.append(Diagnostic(loc, str(err)))
        return ()


def loads_schema(text: str) -> SchemaBundle:
    """Parse and validate a schema bundle from JSON text. A value of the
    wrong JSON type is a diagnostic like any other invalid input."""
    doc = read_json(text, _schema_error)
    diags: list[Diagnostic] = []
    domains = []
    for dref in _entries(doc, "domains", dict, "schema", diags):
        dname = _typed(dref, "name", str, "", "domain", diags)
        entity_types = []
        for e in _entries(dref, "entity_types", dict, dname, diags):
            loc = f"{dname}.{e.get('name')}"
            entity_types.append(
                EntityType(
                    name=_typed(e, "name", str, "", loc, diags),
                    kind=_typed(e, "kind", str, CATALOG, loc, diags),
                    catalog=tuple(_entries(e, "catalog", str, loc, diags)),
                )
            )
        apis = []
        for a in _entries(dref, "apis", dict, dname, diags):
            loc = f"{dname}.{a.get('name')}"
            ret = _typed(a, "return", dict, {}, loc, diags)
            apis.append(
                ApiDef(
                    name=_typed(a, "name", str, "", loc, diags),
                    args=_parse_arg_specs(a, loc, diags),
                    return_name=_typed(ret, "name", str, "", f"{loc} return", diags),
                    return_type=_typed(ret, "type", str, "", f"{loc} return", diags),
                    response_template=_typed(a, "response_template", str, "", loc, diags),
                    confirm_before_call=_typed(a, "confirm_before_call", bool, False, loc, diags),
                    domain=dname,
                )
            )
        responses = []
        for r in _entries(dref, "response_templates", dict, dname, diags):
            loc = f"{dname}.{r.get('name')}"
            responses.append(
                ResponseTemplateDef(
                    name=_typed(r, "name", str, "", loc, diags),
                    args=_parse_arg_specs(r, loc, diags),
                    acts=_parse_acts(r, SYSTEM, loc, diags),
                    templates=tuple(_entries(r, "templates", str, loc, diags)),
                )
            )
        utterances = []
        for u in _entries(dref, "utterance_templates", dict, dname, diags):
            loc = f"{dname} utterance template"
            utterances.append(
                UtteranceTemplateDef(
                    acts=_parse_acts(u, USER, loc, diags),
                    template=_typed(u, "template", str, "", loc, diags),
                )
            )
        domains.append(
            DomainSchema(
                name=dname,
                entity_types=entity_types,
                apis=apis,
                response_templates=responses,
                utterance_templates=utterances,
            )
        )
    bundle = SchemaBundle(domains=domains)
    diags.extend(validate_schema(bundle))
    if diags:
        raise SchemaError(diags)
    return bundle


def read_input(path, error: Callable[[str], Exception]) -> str:
    """The text of input file `path`, without a leading UTF-8 byte-order
    mark. Bytes that are not UTF-8 raise `error(message)`, the calling
    loader's own error, naming the file."""
    with open(path, encoding="utf-8-sig") as f:
        try:
            return f.read()
        except UnicodeDecodeError as e:
            # the decoder counts bytes from after the mark
            f.buffer.seek(0)
            at = e.start + (3 if f.buffer.read(3) == codecs.BOM_UTF8 else 0)
            raise error(f"{path} is not UTF-8 text: {e.reason} at byte {at}") from None


def read_json(text: str, error: Callable[[str], Exception]) -> dict:
    """The JSON object that `text` holds. Text that is not JSON, that nests
    deeper than the decoder can follow, or that holds another value raises
    `error(message)`, the calling loader's own error."""
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer too long to convert
        raise error(f"not valid JSON: {e}") from None
    except RecursionError:  # nesting deeper than the decoder's recursion limit
        raise error("nested too deeply") from None
    if not isinstance(doc, dict):
        raise error("must be a JSON object")
    return doc


def _schema_error(message: str) -> SchemaError:
    return SchemaError([Diagnostic("schema", message)])


def load_schema(path) -> SchemaBundle:
    return loads_schema(read_input(path, _schema_error))


def _breaks(text: str) -> bool:
    """True if `text` holds a character that `str.splitlines` breaks on."""
    return "".join(text.splitlines()) != text


def _stray_brace(template: str, literals: tuple[str, ...]) -> list[str]:
    stray = "".join(literals)
    if "{" in stray or "}" in stray:
        return [f"brace outside a {{slot}} in {template!r} (a slot name is a letter, "
                "then letters or digits)"]
    return []


def utterance_problems(ut: UtteranceTemplateDef) -> list[str]:
    """Why `ut` cannot realize a user turn; empty when it can. Its text
    becomes one markup line, where brackets delimit spans, and its slots, in
    text order, must be the names NLG fills (T, T2, ... on a repeated type)
    from its entity informs, in act order. Each slot is parted from the
    words around it (see `PUNCT`), so the export's NER tags find its value."""
    problems = []
    if "[" in ut.template or "]" in ut.template or _breaks(ut.template):
        problems.append("template contains '[', ']' or a line break")
    literals, slots = split_template(ut.template)
    problems += _stray_brace(ut.template, literals)
    wanted = slot_names_for([a.entity for a in value_bearing(ut.acts)])
    if list(slots) != wanted:
        problems.append(f"slots {list(slots)} are not {wanted}, the slots its entity informs fill "
                        "in text order")
    for k, slot in enumerate(slots):
        before, after = literals[k].rstrip(PUNCT), literals[k + 1].lstrip(PUNCT)
        at_start, at_end = k == 0 and not before, k == len(slots) - 1 and not after
        if not (at_start or before[-1:].isspace()) or not (at_end or after[:1].isspace()):
            problems.append(f"slot {{{slot}}} is glued to a word; whitespace or the template's "
                            "edge must part it from the text around it, with only punctuation "
                            "between")
    return problems


def validate_schema(bundle: SchemaBundle) -> list[Diagnostic]:
    """Check every cross-reference and invariant; returns diagnostics only."""
    diags: list[Diagnostic] = []

    def err(loc, msg):
        diags.append(Diagnostic(loc, msg))

    seen_types: set[str] = set()
    seen_apis: set[str] = set()
    seen_responses: set[str] = set()
    for dom in bundle.domains:
        for et in dom.entity_types:
            loc = f"{dom.name}.{et.name}"
            if not re.fullmatch(NAME, et.name):
                err(loc, f"entity type name {et.name!r} is not a letter, then letters or digits")
            if et.kind not in (CATALOG, OBJECT, BUILTIN):
                err(loc, f"unknown entity kind {et.kind!r}")
            if et.kind == BUILTIN and et.name not in BUILTIN_CATALOGS:
                err(loc, f"{et.name!r} is not a builtin type (builtins: {sorted(BUILTIN_CATALOGS)})")
            if et.kind != BUILTIN:
                if et.name in BUILTIN_CATALOGS:
                    err(loc, f"cannot redefine builtin type {et.name!r}")
                if et.name in seen_types:
                    err(loc, f"duplicate entity type name {et.name!r}")
                seen_types.add(et.name)
            if et.kind == CATALOG and not et.catalog:
                err(loc, "catalog-kind type has an empty catalog")
            if et.kind == OBJECT and et.catalog:
                err(loc, "object-kind type must not carry a catalog")
            if len(set(et.catalog)) != len(et.catalog) or any(not v for v in et.catalog):
                err(loc, "catalog entries must be unique, non-empty strings")
            for value in et.catalog:
                # a value must fit in a `[surface|var]` span on one markup line
                if any(c in value for c in "[]|") or _breaks(value):
                    err(loc, f"catalog value {value!r} contains '[', ']', '|' or a line break")

        def check_args(args, loc):
            for a in args:
                if bundle.entity_type(a.entity_type) is None:
                    err(loc, f"arg {a.name!r} references undeclared entity type {a.entity_type!r}")

        for api in dom.apis:
            loc = f"{dom.name}.{api.name}"
            if api.name in seen_apis:
                err(loc, f"duplicate API name {api.name!r}")
            if api.name == END:
                err(loc, f"API name {END!r} collides with the terminal state")
            seen_apis.add(api.name)
            for name in (api.name, *(a.name for a in api.args)):
                if not re.fullmatch(IDENTIFIER, name):
                    err(loc, f"name {name!r} is not a letter, then letters, digits or '_'")
            check_args(api.args, loc)
            if bundle.entity_type(api.return_type) is None:
                err(loc, f"return references undeclared entity type {api.return_type!r}")
            if bundle.response(api.response_template) is None:
                err(loc, f"response template {api.response_template!r} is not defined")

        for resp in dom.response_templates:
            loc = f"{dom.name}.{resp.name}"
            if resp.name in seen_responses:
                err(loc, f"duplicate response template name {resp.name!r}")
            seen_responses.add(resp.name)
            check_args(resp.args, loc)
            if not resp.templates:
                err(loc, "response template needs at least one template string")
            if not resp.acts:
                # its nlg lines would carry no acts for metrics and export to read
                err(loc, "response template declares no acts")
            arg_names = {a.name for a in resp.args}
            for t, (literals, slots) in zip(resp.templates, resp.split):
                if _breaks(t):
                    err(loc, f"template {t!r} contains a line break")
                for problem in _stray_brace(t, literals):
                    err(loc, problem)
                for slot in slots:
                    if slot not in arg_names:
                        err(loc, f"template slot {{{slot}}} names no arg of this definition")

        for ut in dom.utterance_templates:
            for problem in utterance_problems(ut):
                err(f"{dom.name} utterance {ut.template!r}", problem)
    return diags


def serialize_schema(bundle: SchemaBundle) -> str:
    """Inverse of loads_schema; loads_schema(serialize_schema(b)) == b."""

    def arg_json(a: ArgSpec):
        return {"name": a.name, "type": a.entity_type, "required": a.required}

    doc = {"domains": []}
    for dom in bundle.domains:
        doc["domains"].append(
            {
                "name": dom.name,
                "entity_types": [
                    {"name": e.name, "kind": e.kind, "catalog": list(e.catalog)}
                    for e in dom.entity_types
                ],
                "apis": [
                    {
                        "name": a.name,
                        "args": [arg_json(s) for s in a.args],
                        "return": {"name": a.return_name, "type": a.return_type},
                        "response_template": a.response_template,
                        **({"confirm_before_call": True} if a.confirm_before_call else {}),
                    }
                    for a in dom.apis
                ],
                "response_templates": [
                    {
                        "name": r.name,
                        "args": [arg_json(s) for s in r.args],
                        "acts": [turn_acts_string(r.acts)] if r.acts else [],
                        "templates": list(r.templates),
                    }
                    for r in dom.response_templates
                ],
                "utterance_templates": [
                    {"acts": [turn_acts_string(u.acts)], "template": u.template}
                    for u in dom.utterance_templates
                ],
            }
        )
    return json.dumps(doc, indent=2)
