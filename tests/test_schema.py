import ast
import copy
import json
from pathlib import Path
from random import Random

import pytest

import dialogsim
from dialogsim.engine import GenerationConfig, GenerationError, run_batch
from dialogsim.export import export_training, iob_tags, spans_from_tags
from dialogsim.markup import MarkupError, UserUtterance, parse_corpus, serialize_corpus
from dialogsim.metrics import variation_report
from dialogsim.nlg import build_template_index
from dialogsim.schema import (
    BUILTIN_CATALOGS,
    CATALOG,
    SLOT_RE,
    Diagnostic,
    DomainSchema,
    EntityType,
    ResponseTemplateDef,
    SchemaBundle,
    SchemaError,
    loads_schema,
    read_input,
    serialize_schema,
    split_template,
    validate_schema,
)


@pytest.mark.parametrize("data, at", [(b"ab\xff", 2), (b"\xef\xbb\xbfab\xff", 5)])
def test_read_input_names_the_offending_byte_from_the_start_of_the_file(tmp_path, data, at):
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"is not UTF-8 text: invalid start byte at byte {at}$"):
        read_input(path, ValueError)


def test_demo_schema_loads(demo_bundle):
    assert [a.name for a in demo_bundle.apis()] == ["FindMovies", "SelectShow", "BookTickets"]
    api = demo_bundle.api("FindMovies")
    assert [s.name for s in api.args] == ["location", "timeLowerBound", "theater"]
    assert api.arg("location").required and not api.arg("theater").required
    assert api.return_type == "movieList"
    assert demo_bundle.api("BookTickets").confirm_before_call


def test_zero_api_schema_is_valid():
    bundle = loads_schema('{"domains": [{"name": "Empty"}]}')
    assert bundle.apis() == []
    assert validate_schema(bundle) == []


def test_dangling_type_reference(demo_schema_text):
    doc = json.loads(demo_schema_text)
    types = doc["domains"][0]["entity_types"]
    doc["domains"][0]["entity_types"] = [t for t in types if t["name"] != "movieList"]
    with pytest.raises(SchemaError) as err:
        loads_schema(json.dumps(doc))
    assert "movieList" in str(err.value)


def test_var_prefix_lookup_keeps_first_match(demo_schema_text):
    doc = json.loads(demo_schema_text)
    # "time" shares its var prefix with the builtin Time, which is indexed
    # after the domain types; an unnamed type must not break the index
    # (validation rejects one, so it is added to the loaded bundle)
    doc["domains"][0]["entity_types"] += [
        {"name": "time", "kind": "catalog", "catalog": ["noon"]},
    ]
    domains = loads_schema(json.dumps(doc)).domains
    domains[0].entity_types.append(EntityType(name="", kind="catalog", catalog=("x",)))
    bundle = SchemaBundle(domains=domains)
    assert bundle.entity_type_for_prefix("location").name == "location"
    assert bundle.entity_type_for_prefix("time").name == "time"
    assert bundle.entity_type_for_prefix("nope") is None


def test_draw_takes_one_randrange_from_a_catalog_and_nothing_without_one(demo_bundle):
    # every sampler's draw, so the corpus bytes rest on this; a bundle built
    # without validation may hold an empty value, which is drawn like any other
    domains = list(demo_bundle.domains)
    domains.append(DomainSchema("Blank", [EntityType("blank", CATALOG, ("",))], [], [], []))
    bundle = SchemaBundle(domains=domains)
    for type_name in ("location", "Time", "blank"):
        catalog = bundle.catalog(type_name)
        for seed in range(10):
            rng, inline = Random(seed), Random(seed)
            assert bundle.draw(type_name, rng) == catalog[inline.randrange(len(catalog))]
            assert rng.getstate() == inline.getstate()
    for type_name in ("movieList", "noSuchType"):  # object kind, unknown name
        rng = Random(0)
        before = rng.getstate()
        assert bundle.draw(type_name, rng) is None
        assert rng.getstate() == before


def test_validate_demo_is_clean(demo_bundle):
    assert validate_schema(demo_bundle) == []


def test_empty_catalog_rejected():
    text = json.dumps(
        {"domains": [{"name": "D", "entity_types": [{"name": "x", "kind": "catalog", "catalog": []}]}]}
    )
    with pytest.raises(SchemaError) as err:
        loads_schema(text)
    assert "empty catalog" in str(err.value)


@pytest.mark.parametrize("name", [None, "", "movie_theater", "two words", "9lives"])
def test_entity_type_name_must_fit_a_var_id(demo_schema_text, name):
    # generated var ids are the type name plus a counter, and the markup's
    # `[surface|var]` span takes only letters and digits
    doc = json.loads(demo_schema_text)
    entity = {"kind": "catalog", "catalog": ["x"]}
    if name is not None:
        entity["name"] = name
    doc["domains"][0]["entity_types"].append(entity)
    with pytest.raises(SchemaError) as err:
        loads_schema(json.dumps(doc))
    assert [d.message for d in err.value.diagnostics] == [
        f"entity type name {name or ''!r} is not a letter, then letters or digits"
    ]


@pytest.mark.parametrize(
    "value",
    ["Café [West]", "Odd |acts: x]", "a|b", "two\nlines", "trailing\n", "cr\rlf", "sep\u2028arated"],
)
def test_catalog_value_the_markup_cannot_carry(demo_schema_text, value):
    doc = json.loads(demo_schema_text)
    theaters = next(t for t in doc["domains"][0]["entity_types"] if t["name"] == "theater")
    theaters["catalog"].append(value)
    with pytest.raises(SchemaError) as err:
        loads_schema(json.dumps(doc))
    assert [d.message for d in err.value.diagnostics] == [
        f"catalog value {value!r} contains '[', ']', '|' or a line break"
    ]


@pytest.mark.parametrize(
    "template", ["I want to see a [new] movie", "a ] b", "two\nlines", "cr\rlf", "sep\u2028arated"]
)
def test_utterance_template_the_markup_cannot_carry(demo_schema_text, template):
    doc = json.loads(demo_schema_text)
    doc["domains"][0]["utterance_templates"][0]["template"] = template
    with pytest.raises(SchemaError) as err:
        loads_schema(json.dumps(doc))
    assert [d.message for d in err.value.diagnostics] == [
        "template contains '[', ']' or a line break"
    ]


@pytest.mark.parametrize("template", ["Enjoy\nthe show!", "done\r", "file\x1cseparator"])
def test_response_template_with_a_line_break(demo_schema_text, template):
    doc = json.loads(demo_schema_text)
    doc["domains"][0]["response_templates"][2]["templates"].append(template)
    with pytest.raises(SchemaError) as err:
        loads_schema(json.dumps(doc))
    assert [d.message for d in err.value.diagnostics] == [
        f"template {template!r} contains a line break"
    ]


@pytest.mark.parametrize(
    "edit", [lambda r: r.update(acts=[]), lambda r: r.pop("acts")], ids=["empty", "missing"]
)
def test_response_template_without_acts(demo_schema_text, edit):
    doc = json.loads(demo_schema_text)
    response = doc["domains"][0]["response_templates"][2]
    assert response["name"] == "announce_booking"
    edit(response)
    with pytest.raises(SchemaError) as err:
        loads_schema(json.dumps(doc))
    assert [(d.location, d.message) for d in err.value.diagnostics] == [
        ("TicketBooking.announce_booking", "response template declares no acts")
    ]


@pytest.mark.parametrize(
    "acts, template, slots, wanted",
    [
        ("inform(entity:location)", "in {city}", ["city"], ["location"]),
        ("inform(entity:Time)", "after {Time2}", ["Time2"], ["Time"]),
        ("inform(entity:Time)", "after {Time} or {Time}", ["Time", "Time"], ["Time"]),
        ("inform(entity:Time),inform(entity:Time)", "from {Time} to {Time}",
         ["Time", "Time"], ["Time", "Time2"]),
        # the markup reads spans back in text order, so the values would
        # come back bound to each other's acts
        ("inform(entity:Time),inform(entity:Time)", "from {Time2} to {Time}",
         ["Time2", "Time"], ["Time", "Time2"]),
    ],
)
def test_utterance_slots_are_the_names_nlg_fills(demo_schema_text, acts, template, slots, wanted):
    doc = json.loads(demo_schema_text)
    doc["domains"][0]["utterance_templates"].append({"acts": [acts], "template": template})
    with pytest.raises(SchemaError) as err:
        loads_schema(json.dumps(doc))
    assert [d.message for d in err.value.diagnostics] == [
        f"slots {slots} are not {wanted}, the slots its entity informs fill in text order"
    ]


def test_repeated_type_slots_in_act_order_load(demo_schema_text):
    doc = json.loads(demo_schema_text)
    doc["domains"][0]["utterance_templates"].append(
        {"acts": ["inform(entity:Time),inform(entity:Time)"], "template": "from {Time} to {Time2}"}
    )
    loads_schema(json.dumps(doc))


@pytest.mark.parametrize(
    "acts, template, glued",
    [
        ("inform(entity:location)", "{location}'s", ["location"]),
        ("inform(entity:location)", "x{location}", ["location"]),
        ("inform(entity:location),inform(entity:Time)", "{location},{Time}",
         ["location", "Time"]),
    ],
)
def test_utterance_slot_glued_to_a_word(demo_schema_text, acts, template, glued):
    """The export splits a user turn at whitespace and peels punctuation off
    each word's edges: a value glued to other text would share its token,
    and the NER tags would not mark it."""
    doc = json.loads(demo_schema_text)
    doc["domains"][0]["utterance_templates"].append({"acts": [acts], "template": template})
    with pytest.raises(SchemaError) as err:
        loads_schema(json.dumps(doc))
    assert [d.message for d in err.value.diagnostics] == [
        f"slot {{{slot}}} is glued to a word; whitespace or the template's edge must part it "
        "from the text around it, with only punctuation between"
        for slot in glued
    ]


@pytest.mark.parametrize(
    "acts, template",
    [
        ("inform(entity:location)", "({location})"),
        ("inform(entity:location),inform(entity:Time)", "near '{location}', after {Time}!"),
        ("inform(entity:location),inform(entity:Time)", "{location} ,{Time}"),
    ],
)
def test_utterance_slot_parted_by_punctuation_and_space_loads(demo_schema_text, acts, template):
    doc = json.loads(demo_schema_text)
    doc["domains"][0]["utterance_templates"].append({"acts": [acts], "template": template})
    loads_schema(json.dumps(doc))


def test_response_template_may_hold_brackets(demo_schema_text):
    doc = json.loads(demo_schema_text)
    doc["domains"][0]["response_templates"][2]["templates"].append("Booked [row 5]!")
    loads_schema(json.dumps(doc))


def test_duplicate_arg_name(demo_schema_text):
    doc = json.loads(demo_schema_text)
    api = doc["domains"][0]["apis"][0]
    api["args"].append(dict(api["args"][0]))
    with pytest.raises(SchemaError) as err:
        loads_schema(json.dumps(doc))
    assert "duplicate arg" in str(err.value)


def test_duplicate_response_template_name(demo_schema_text):
    # APIs name their response by its name, the template index keys it by
    # its acts: both must see one definition
    doc = json.loads(demo_schema_text)
    responses = doc["domains"][0]["response_templates"]
    responses.append(dict(responses[2], templates=["Booked, see you there!"]))
    with pytest.raises(SchemaError) as err:
        loads_schema(json.dumps(doc))
    assert [(d.location, d.message) for d in err.value.diagnostics] == [
        ("TicketBooking.announce_booking", "duplicate response template name 'announce_booking'")
    ]


@pytest.mark.parametrize(
    "edit, location, message",
    [
        (lambda doc: doc["domains"][0]["apis"][0]["args"][1].update(required="false"),
         "TicketBooking.FindMovies", "'required' must be true or false"),
        (lambda doc: doc["domains"][0].update(apis="x"), "TicketBooking", "'apis' must be a list"),
        (lambda doc: doc["domains"][0]["entity_types"][0]["catalog"].append(["x"]),
         "TicketBooking.location", "each entry of 'catalog' must be a string"),
        (lambda doc: doc["domains"][0]["response_templates"][0].update(templates="{theater}"),
         "TicketBooking.announce_movies", "'templates' must be a list"),
        (lambda doc: doc["domains"][0]["utterance_templates"][0].update(acts=[{}]),
         "TicketBooking utterance template", "each entry of 'acts' must be a string"),
        (lambda doc: doc["domains"][0]["utterance_templates"][0].update(acts=["frobnicate()"]),
         "TicketBooking utterance template", "act 'frobnicate' is not a valid user-side act"),
        (lambda doc: doc["domains"][0]["entity_types"][0].update(kind="thing"),
         "TicketBooking.location", "unknown entity kind 'thing'"),
        (lambda doc: doc["domains"][0]["entity_types"].append(
            {"name": "location", "catalog": ["x"]}),
         "TicketBooking.location", "duplicate entity type name 'location'"),
        (lambda doc: doc["domains"][0]["entity_types"][6].update(catalog=["x"]),
         "TicketBooking.movieList", "object-kind type must not carry a catalog"),
        (lambda doc: doc["domains"][0]["entity_types"][0]["catalog"].append("Sunnyvale"),
         "TicketBooking.location", "catalog entries must be unique, non-empty strings"),
        (lambda doc: doc["domains"][0]["entity_types"][0]["catalog"].append(""),
         "TicketBooking.location", "catalog entries must be unique, non-empty strings"),
        (lambda doc: doc["domains"][0]["apis"].append(doc["domains"][0]["apis"][0]),
         "TicketBooking.FindMovies", "duplicate API name 'FindMovies'"),
        (lambda doc: doc["domains"][0]["apis"].append(
            dict(doc["domains"][0]["apis"][0], name="END")),
         "TicketBooking.END", "API name 'END' collides with the terminal state"),
    ],
    ids=["required-string", "apis-string", "catalog-list", "templates-string", "acts-object",
         "acts-unparseable", "unknown-kind", "duplicate-type", "object-with-catalog",
         "duplicate-catalog-entry", "empty-catalog-entry", "duplicate-api", "api-named-end"],
)
def test_value_of_the_wrong_json_type(demo_schema_text, edit, location, message):
    doc = json.loads(demo_schema_text)
    edit(doc)
    with pytest.raises(SchemaError) as err:
        loads_schema(json.dumps(doc))
    assert (location, message) in [(d.location, d.message) for d in err.value.diagnostics]


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "must be a JSON object"),
        ('"schema"', "must be a JSON object"),
        ("1", "must be a JSON object"),
        ("null", "must be a JSON object"),
        ('{"domains": ' + "[" * 100_000, "nested too deeply"),
    ],
    ids=["list", "string", "number", "null", "nested-too-deeply"],
)
def test_schema_document_the_loader_cannot_read(text, message):
    with pytest.raises(SchemaError) as err:
        loads_schema(text)
    assert str(err.value) == f"schema: {message}"


def test_schema_round_trip(demo_bundle):
    assert loads_schema(serialize_schema(demo_bundle)) == demo_bundle


def test_a_response_definition_splits_its_templates_when_made(demo_bundle, two_domain_bundle):
    """A response definition holds each template's `split_template` parts,
    derived when it is made: not an init argument, and outside equality and
    repr, so a bundle still round-trips."""
    assert split_template("at {Time} or {Time2}!") == (("at ", " or ", "!"), ("Time", "Time2"))
    assert split_template("{a b} {}") == (("{a b} {}",), ())
    for bundle in (demo_bundle, two_domain_bundle):
        responses = [r for dom in bundle.domains for r in dom.response_templates]
        assert responses
        for resp in responses:
            assert resp.split == tuple(split_template(t) for t in resp.templates)
            assert "split" not in repr(resp)
        assert loads_schema(serialize_schema(bundle)) == bundle
    made = ResponseTemplateDef("r", (), (), ("{x} y",))
    assert made.split == ((("", " y"), ("x",)),)
    with pytest.raises(TypeError):
        ResponseTemplateDef("r", (), (), ("{x} y",), ((("x",), ()),))


def _readers(tree: ast.Module, name: str) -> list[str | None]:
    """The innermost function or class around each read or import of
    `name` in `tree`; None at module level."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name
            if (isinstance(child, ast.Name) and child.id == name
                    and not isinstance(child.ctx, ast.Store)
                    or isinstance(child, ast.Attribute) and child.attr == name
                    or isinstance(child, ast.alias) and child.name == name):
                yield owner
            yield from walk(child, inner)
    return list(walk(tree, None))


def test_only_split_template_reads_the_slot_grammar():
    """Every template is split by one function, so a template that
    validates is the one that renders: in the package, `SLOT_RE` is read
    only inside `schema.split_template`."""
    found = []
    for path in sorted(Path(dialogsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(path.stem, owner) for owner in _readers(tree, "SLOT_RE")]
    assert found == [("schema", "split_template")]
    tree = ast.parse(
        "from .schema import SLOT_RE\n"
        "R = SLOT_RE\n"
        "class C:\n"
        "    def m(self):\n"
        "        return schema.SLOT_RE.findall('')\n"
    )
    assert _readers(tree, "SLOT_RE") == [None, None, "m"]


def test_validate_is_pure(demo_bundle):
    assert validate_schema(demo_bundle) == validate_schema(demo_bundle)


def test_builtin_extension_merges(demo_bundle):
    time = demo_bundle.entity_type("Time")
    for value in BUILTIN_CATALOGS["Time"]:
        assert value in time.catalog
    assert "10 AM" in time.catalog  # demo extension


def test_builtin_redefinition_rejected():
    text = json.dumps(
        {"domains": [{"name": "D", "entity_types": [{"name": "Time", "kind": "catalog", "catalog": ["x"]}]}]}
    )
    with pytest.raises(SchemaError) as err:
        loads_schema(text)
    assert "redefine" in str(err.value)


def test_unknown_builtin_rejected():
    text = json.dumps(
        {"domains": [{"name": "D", "entity_types": [{"name": "Zip", "kind": "builtin"}]}]}
    )
    with pytest.raises(SchemaError) as err:
        loads_schema(text)
    assert "not a builtin" in str(err.value)


def test_parse_error_carries_position():
    with pytest.raises(SchemaError) as err:
        loads_schema('{"domains": [')
    assert "line" in str(err.value)


def test_diagnostic_format():
    d = Diagnostic("D.x", "boom")
    assert str(d) == "error: D.x: boom"


def test_every_accepted_schema_round_trips(demo_schema_text, demo_seeds_text):
    """Mutate the demo schema's template texts, slot names and act lists: a
    schema that loads yields corpora that parse back to themselves, report
    and export."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    base = json.loads(demo_schema_text)
    domain = base["domains"][0]
    texts = [("response_templates", i, j) for i, r in enumerate(domain["response_templates"])
             for j in range(len(r["templates"]))]
    texts += [("utterance_templates", i, None) for i in range(len(domain["utterance_templates"]))]
    markup = st.sampled_from(["[", "]", "|", " |acts: ", "|acts:", "\n", "\u2028", " ", "\t"])
    chunk = st.lists(st.one_of(markup, st.text(max_size=3)), max_size=3).map("".join)
    # (template, insert position or None to replace the whole text, inserted text)
    text_edit = st.tuples(st.sampled_from(texts), st.one_of(st.none(), st.integers(0, 60)), chunk)
    # (utterance template, replacement for its first slot): a slot no act
    # fills, or the slot glued to a word
    slotted = [
        ("utterance_templates", i, None)
        for i, u in enumerate(domain["utterance_templates"])
        if SLOT_RE.search(u["template"])
    ]
    slot_edit = st.tuples(st.sampled_from(slotted),
                          st.sampled_from(["{city}", "{Time2}", r"\g<0>'s", r"x\g<0>"]))
    acts_edit = st.sampled_from([(kind, i) for kind, i, _ in texts])

    def edited(text_edits, slot_edits, acts_edits):
        doc = copy.deepcopy(base)
        templates = doc["domains"][0]

        def edit(kind, i, j, change):
            owner = templates[kind][i]
            holder, key = (owner, "template") if j is None else (owner["templates"], j)
            holder[key] = change(holder[key])

        for (kind, i, j), at, piece in text_edits:
            edit(kind, i, j, lambda old: piece if at is None else old[:at] + piece + old[at:])
        for (kind, i, j), slot in slot_edits:
            edit(kind, i, j, lambda old: SLOT_RE.sub(slot, old, count=1))
        for kind, i in acts_edits:
            templates[kind][i]["acts"] = []
        return json.dumps(doc)

    config = GenerationConfig(n_dialogs=12, sampler_mix={"base": 1, "golden": 1, "markov": 2})

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(
        st.lists(text_edit, max_size=4), st.lists(slot_edit, max_size=2),
        st.lists(acts_edit, max_size=2),
    )
    def check(text_edits, slot_edits, acts_edits):
        try:
            bundle = loads_schema(edited(text_edits, slot_edits, acts_edits))
        except SchemaError:
            return
        corpus = run_batch(bundle, parse_corpus(demo_seeds_text, bundle), config).dialogs
        assert parse_corpus(serialize_corpus(corpus), bundle) == corpus
        for turn in (t for d in corpus for t in d.turns if isinstance(t, UserUtterance)):
            spans = [(s.start, s.end, s.entity_type) for s in turn.spans]
            assert spans_from_tags(turn.text, *iob_tags(turn.text, turn.spans)) == spans
        variation_report(corpus)
        export_training(corpus, bundle, build_template_index(bundle, []))

    check()


def test_schema_of_any_shape_ends_in_diagnostics(demo_schema_text, demo_seeds_text):
    """Replace or delete any one node of the demo schema: loading raises only
    SchemaError, and a schema that loads generates or fails with a message."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    base = json.loads(demo_schema_text)

    def node_paths(node, path=()):
        yield path
        if isinstance(node, (dict, list)):
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                yield from node_paths(child, (*path, key))

    scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
        max_leaves=5,
    )
    config = GenerationConfig(n_dialogs=5)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(list(node_paths(base))), st.none() | st.tuples(values))
    def check(path, replacement):
        doc = copy.deepcopy(base)
        if not path:
            doc = replacement[0] if replacement else {}
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if replacement:
                parent[path[-1]] = replacement[0]
            else:
                del parent[path[-1]]
        try:
            bundle = loads_schema(json.dumps(doc))
        except SchemaError:
            return
        try:
            run_batch(bundle, parse_corpus(demo_seeds_text, bundle), config)
        except (MarkupError, GenerationError):  # the seeds no longer fit the schema
            pass

    check()
