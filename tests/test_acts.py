import ast
import copy
import gc
import pickle
import weakref
from pathlib import Path
from random import Random

import pytest

import dialogsim
from dialogsim import acts
from dialogsim.acts import (
    ActError,
    DialogAct,
    MissingActsError,
    act_to_string,
    make_act,
    parse_act,
    parse_act_list,
    sequence_string,
    slot_names_for,
    turn_acts_string,
    validate_act,
)
from dialogsim.engine import GenerationConfig, replay_plan, run_base_dialog
from dialogsim.markup import Dialog, NlgResponse, UserUtterance
from dialogsim.nlg import build_template_index


def test_act_to_string_intent():
    act = DialogAct("inform", "user", intent="FindMovies")
    assert act_to_string(act) == "inform(intent:FindMovies)"


def test_act_to_string_bare():
    assert act_to_string(DialogAct("bye", "user")) == "bye()"


def test_act_to_string_entity():
    act = DialogAct("offer", "system", entity="movieTitle")
    assert act_to_string(act) == "offer(entity:movieTitle)"


def test_correction_exchange_sequence():
    # the offer/affirm/deny/inform "super structure" discussed alongside the
    # act grammar, serialized canonically
    system = [
        DialogAct("offer", "system", intent="BookTickets"),
        DialogAct("offer", "system", entity="movieTitle"),
        DialogAct("offer", "system", entity="showTime"),
    ]
    user = [
        DialogAct("affirm", "user", intent="BookTickets"),
        DialogAct("affirm", "user", entity="movieTitle"),
        DialogAct("deny", "user", entity="showTime"),
        DialogAct("inform", "user", entity="showTime"),
    ]
    dialog = Dialog(
        turns=[
            NlgResponse(text="would you like to book Tenet at 4 PM", acts=system),
            UserUtterance(text="no thank you, book it at 17:00", acts=user),
        ]
    )
    assert sequence_string(dialog) == (
        "offer(intent:BookTickets),offer(entity:movieTitle),offer(entity:showTime),"
        "affirm(intent:BookTickets),affirm(entity:movieTitle),deny(entity:showTime),"
        "inform(entity:showTime)"
    )


def test_empty_dialog_sequence():
    assert sequence_string(Dialog()) == ""


def test_sequence_ignores_catalog_values(demo_bundle, demo_seeds_annotated):
    index = build_template_index(demo_bundle, demo_seeds_annotated)
    seed = demo_seeds_annotated[0]
    plan = replay_plan(seed, demo_bundle, index)
    a = run_base_dialog(plan, index, Random(1))
    b = run_base_dialog(plan, index, Random(2))
    texts_a = [t.text for t in a.turns if hasattr(t, "text")]
    texts_b = [t.text for t in b.turns if hasattr(t, "text")]
    assert texts_a != texts_b  # different catalog draws
    assert sequence_string(a) == sequence_string(b)


def test_missing_acts_rejected():
    dialog = Dialog(turns=[UserUtterance(text="hi", acts=[])])
    with pytest.raises(MissingActsError):
        sequence_string(dialog)


def test_act_string_injective_over_vocabulary():
    acts = [DialogAct("bye", "user"), DialogAct("repeat", "user")]
    for name in ("inform", "affirm", "deny"):
        acts.append(DialogAct(name, "user", intent="FindMovies"))
        acts.append(DialogAct(name, "user", intent="SelectShow"))
        for ent in ("location", "Time", "movieTitle"):
            acts.append(DialogAct(name, "user", entity=ent))
    strings = [act_to_string(a) for a in acts]
    assert len(set(strings)) == len(strings)


def test_parse_act_round_trip():
    for text, side in [
        ("inform(intent:FindMovies)", "user"),
        ("request(entity:count)", "system"),
        ("bye()", "user"),
        ("failure(intent:BookTickets)", "system"),
    ]:
        assert act_to_string(parse_act(text, side)) == text


def test_parse_act_rejects_unknown():
    with pytest.raises(ActError):
        parse_act("greet()", "user")
    with pytest.raises(ActError):
        parse_act("offer(intent:X)", "user")  # offer is system-side
    with pytest.raises(ActError):
        parse_act("failure(entity:x)", "system")  # failure takes an intent
    with pytest.raises(ActError):
        validate_act(DialogAct("bye", "user", intent="X"))
    with pytest.raises(ActError, match="unknown act side 'robot'"):
        validate_act(DialogAct("inform", "robot", intent="X"))
    with pytest.raises(ActError, match="carries both an intent and an entity argument"):
        validate_act(DialogAct("inform", "user", intent="X", entity="Time"))


def test_parse_act_list_memo_returns_one_immutable_tuple():
    text = "inform(intent:FindMovies),inform(entity:Time@FindMovies.timeLowerBound)"
    first = parse_act_list(text, "user")
    second = parse_act_list(text, "user")
    # a caller cannot edit what the cache hands out
    assert type(first) is tuple and first is second
    assert parse_act_list(text, "user") == second
    parse_act_list.cache_clear()
    cold = parse_act_list(text, "user")
    assert cold == second
    assert [(a.api, a.arg) for a in cold] == [(a.api, a.arg) for a in second]
    assert parse_act_list(" ", "user") == ()


def test_role_suffix_only_when_ambiguous():
    lo = DialogAct("inform", "user", entity="Time", api="FindMovies", arg="timeLowerBound")
    hi = DialogAct("inform", "user", entity="Time", api="FindMovies", arg="timeUpperBound")
    assert turn_acts_string([lo]) == "inform(entity:Time)"
    joined = turn_acts_string([lo, hi])
    assert joined == (
        "inform(entity:Time@FindMovies.timeLowerBound),"
        "inform(entity:Time@FindMovies.timeUpperBound)"
    )
    parsed = parse_act_list(joined, "user")
    assert [a.arg for a in parsed] == ["timeLowerBound", "timeUpperBound"]
    # same role twice is not ambiguous
    assert "@" not in turn_acts_string([lo, lo])


def test_memoized_signature_equals_the_builder():
    """Interned acts, directly built ones, and equal lists whose acts carry
    other roles each get the signature the uncached builder gives."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    roles = st.sampled_from(
        [(None, None), ("FindMovies", "timeLowerBound"), ("SelectShow", "showTime")]
    )
    one = st.builds(
        lambda build, name, entity, role: build(name, "user", None, entity, *role),
        st.sampled_from([make_act, DialogAct]),
        st.sampled_from(["inform", "affirm"]),
        st.sampled_from(["Time", "location"]),
        roles,
    )

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(st.lists(one, max_size=4), roles)
    def check(drawn, role):
        recast = [make_act(a.name, a.side, a.intent, a.entity, *role) for a in drawn]
        assert recast == drawn
        for listed in (drawn, recast, drawn):
            assert turn_acts_string(listed) == acts._signature(listed)

    check()


def test_a_signature_entry_keeps_its_acts_alive(monkeypatch):
    """An entry pins its acts, so an act made after the last list is dropped
    never takes the address of one of its acts and is not read as it."""
    monkeypatch.setattr(acts, "_signatures", {})
    first = DialogAct("inform", "user", entity="Time")
    alive = weakref.ref(first)
    assert turn_acts_string([first]) == "inform(entity:Time)"
    del first
    gc.collect()
    assert alive() is not None
    for k in range(100):
        later = [DialogAct("inform", "user", entity=f"T{k}")]
        assert turn_acts_string(later) == f"inform(entity:T{k})"


def test_a_full_signature_memo_stays_correct(monkeypatch):
    monkeypatch.setattr(acts, "_signatures", {})
    monkeypatch.setattr(acts, "_SIGNATURES_MAX", 2)
    lists = [[make_act("inform", "user", entity=f"T{k}")] for k in range(5)]
    for _ in range(2):
        for k, listed in enumerate(lists):
            assert turn_acts_string(listed) == f"inform(entity:T{k})"
            assert len(acts._signatures) <= 2


def test_slot_names_disambiguate_repeats():
    assert slot_names_for(["Time", "Time", "count"]) == ["Time", "Time2", "count"]


def test_make_act_gives_one_instance_per_value():
    act = make_act("inform", "user", entity="Time", api="FindMovies", arg="date")
    assert make_act(name="inform", side="user", entity="Time", arg="date", api="FindMovies") is act
    assert make_act("inform", "user", None, "Time", "FindMovies", "date") is act
    assert parse_act("inform(entity:Time@FindMovies.date)", "user") is act
    assert pickle.loads(pickle.dumps(act)) is act
    assert copy.deepcopy(act) is act
    # the role is part of the key although equality ignores it
    bare = make_act("inform", "user", entity="Time")
    assert bare == act and bare is not act


def _constructor_calls(tree: ast.Module, names: set[str]):
    """(enclosing function, called name) of each call to one of `names`."""
    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            inner = child.name if is_def else func
            if isinstance(child, ast.Call):
                called = child.func
                name = called.id if isinstance(called, ast.Name) else getattr(called, "attr", None)
                if name in names:
                    yield func, name
            yield from walk(child, inner)
    return list(walk(tree, None))


def test_acts_and_value_refs_have_one_constructor_in_the_package():
    """Each act and ref value has one instance only while nothing else in the
    package builds one: `make_act`, `ref` and `lit` are the only callers."""
    allowed = {("acts.py", "make_act"), ("markup.py", "ref"), ("markup.py", "lit")}
    offenders = []
    for path in sorted(Path(dialogsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, name in _constructor_calls(tree, {"DialogAct", "ValueRef"}):
            if (path.name, func) not in allowed:
                offenders.append(f"{path.name}: {name}(...) in {func or 'module scope'}")
    assert offenders == []


def test_turns_are_built_only_by_the_parser_and_the_sharing_helpers():
    """A batch holds one object per distinct turn while no generation path
    can build a turn past the turn memo: only the markup parser and the
    sharing helpers call a turn's constructor."""
    allowed = {
        ("markup.py", "_parse_user_text"), ("markup.py", "_parse_call"),
        ("markup.py", "_parse_turn"), ("nlg.py", "realize_user"), ("nlg.py", "call_turn"),
        ("nlg.py", "nlg_turn"),
    }
    offenders = []
    for path in sorted(Path(dialogsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func, name in _constructor_calls(tree, {"UserUtterance", "ApiCall", "NlgResponse"}):
            if (path.name, func) not in allowed:
                offenders.append(f"{path.name}: {name}(...) in {func or 'module scope'}")
    assert offenders == []


def test_the_constructor_guard_sees_calls_at_any_depth():
    tree = ast.parse(
        "def f():\n"
        "    return [acts.DialogAct('bye', 'user') for _ in ()]\n"
        "x = lambda: ValueRef(var='v')\n"
        "def make_act():\n"
        "    def inner():\n"
        "        return DialogAct('bye', 'user')\n"
    )
    assert _constructor_calls(tree, {"DialogAct", "ValueRef"}) == [
        ("f", "DialogAct"), (None, "ValueRef"), ("inner", "DialogAct"),
    ]


# the NamedTuple API is public although its names start with "_"
_NAMEDTUPLE_API = {"_replace", "_fields", "_asdict", "_make"}


def _private_attributes(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The `_`-prefixed attribute names `tree` defines, in a class body or
    by a `self._x =` assignment, and those it uses on anything but `self`
    or `cls`; dunders and the NamedTuple API aside."""
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.add(child.name)
                elif isinstance(child, (ast.Assign, ast.AnnAssign)):
                    targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                    defined |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            defined.add(node.attr)
    used = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not node.attr.startswith("__") and node.attr not in _NAMEDTUPLE_API
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    }
    return {name for name in defined if name.startswith("_")}, used


def test_private_attributes_are_used_only_where_they_are_defined():
    """A `_`-prefixed attribute is an implementation detail of its module:
    another module that reads it would depend on how that one keys its
    memos or keeps its state. A turn of the batch's value comes from
    `TemplateIndex.share`, not from a look into its memo."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(dialogsim.__file__).parent.glob("*.py"))}
    found = {name: _private_attributes(tree) for name, tree in trees.items()}
    offenders = [f"{name}: {attr}" for name, (defined, used) in found.items()
                 for attr in sorted(used - defined)]
    assert offenders == []


def test_the_private_attribute_guard_sees_uses_on_any_object():
    tree = ast.parse(
        "class A:\n"
        "    _x: int = 0\n"
        "    _v = 1\n"
        "    def _m(self):\n"
        "        self._y = other._x\n"
        "        return cls._z, t._replace(a=1), o.__class__, self._w\n"
        "def f(a):\n"
        "    return a._y, a._m(), g()._w, a.b._v\n"
    )
    assert _private_attributes(tree) == ({"_x", "_v", "_m", "_y"}, {"_x", "_y", "_m", "_w", "_v"})
