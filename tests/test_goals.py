import json
from random import Random

import pytest

from dialogsim.goals import (
    IntentInstance,
    MarkovGoalModel,
    ReturnRef,
    SamplerError,
    UserGoal,
    UserValue,
    extract_goals,
    fit_markov,
    sample_golden,
    sample_markov,
    validate_goal,
)
from dialogsim.markup import MarkupError, annotate_seed_acts, parse_corpus
from dialogsim.schema import SchemaError, loads_schema, var_prefix


def test_extract_table2_goal(demo_bundle, demo_seeds):
    goals = extract_goals(demo_seeds[:1], demo_bundle)
    assert len(goals) == 1
    goal = goals[0]
    assert [i.api for i in goal.intents] == ["FindMovies", "SelectShow", "BookTickets"]
    find, select, book = goal.intents
    assert find.bindings == {
        "location": UserValue("Sunnyvale", "location"),
        "timeLowerBound": UserValue("2 PM", "Time"),
    }
    assert select.bindings["movies"] == ReturnRef(0)
    assert select.bindings["showTime"] == UserValue("4 PM", "Time")
    assert select.bindings["movieTitle"] == UserValue("Tenet", "movieTitle")
    assert book.bindings == {
        "show": ReturnRef(1),
        "count": UserValue("two", "count"),
        "ticketType": UserValue("adult", "ticketType"),
    }


def test_extract_single_api_literals(demo_bundle):
    text = 'U-1: find me movies\nS-2: call: FindMovies(location="Sunnyvale") -> movieList0'
    (seed,) = parse_corpus(text, demo_bundle)
    (goal,) = extract_goals([seed], demo_bundle)
    assert goal.intents[0].bindings == {"location": UserValue("Sunnyvale", "location")}


def test_extraction_never_merges(demo_bundle, demo_seeds):
    goals = extract_goals([demo_seeds[0], demo_seeds[0]], demo_bundle)
    assert len(goals) == 2


def test_seed_without_calls_skipped(demo_bundle):
    (seed,) = parse_corpus("U-1: Ok thank you", demo_bundle)
    assert extract_goals([seed], demo_bundle) == []


def test_demo_goals_validate_clean(demo_bundle, demo_seeds):
    for goal in extract_goals(demo_seeds, demo_bundle):
        assert validate_goal(goal, demo_bundle) == []


def test_missing_required_arg_flagged(demo_bundle):
    goal = UserGoal(
        intents=[
            IntentInstance("BookTickets", {"count": UserValue("two", "count")}),
        ]
    )
    diags = validate_goal(goal, demo_bundle)
    assert any("show" in d.message for d in diags)
    assert any("ticketType" in d.message for d in diags)


@pytest.mark.parametrize(
    "intents, location, message",
    [
        ([], "goal", "goal has no intents"),
        ([IntentInstance("FindShows", {})], "intent 0 (FindShows)", "unknown API"),
        ([IntentInstance("FindMovies", {"location": UserValue("Sunnyvale", "location"),
                                        "city": UserValue("Sunnyvale", "location")})],
         "intent 0 (FindMovies)", "no such arg 'city'"),
        ([IntentInstance("FindMovies", {"location": UserValue("4 PM", "Time")})],
         "intent 0 (FindMovies)", "arg 'location' takes location, got Time"),
        ([IntentInstance("FindShows", {}),
          IntentInstance("SelectShow", {"showTime": UserValue("4 PM", "Time"),
                                        "movieTitle": UserValue("Tenet", "movieTitle"),
                                        "movies": ReturnRef(0)})],
         "intent 0 (FindShows)", "unknown API"),
    ],
    ids=["no-intents", "unknown-api", "no-such-arg", "wrong-type", "return-of-unknown-api"],
)
def test_goal_diagnostics(demo_bundle, intents, location, message):
    diags = validate_goal(UserGoal(intents=intents), demo_bundle)
    assert [(d.location, d.message) for d in diags] == [(location, message)]


def test_unlinked_seed_with_a_dangling_reference(demo_bundle):
    # linking rejects a dangling reference; a seed parsed without the
    # schema reaches extraction with it
    (seed,) = parse_corpus("U-1: hi\nS-2: call: FindMovies(location=$location0) -> movieList0")
    with pytest.raises(SamplerError, match=r"cannot resolve binding FindMovies\.location=\$loc"):
        extract_goals([seed], demo_bundle)


def test_cross_domain_sharing_rules(two_domain_bundle):
    non_builtin = UserGoal(
        intents=[
            IntentInstance("PickMovie", {}),
            IntentInstance(
                "BookTable",
                {"movie": ReturnRef(0), "place": UserValue("Nopa", "restaurant")},
            ),
        ]
    )
    diags = validate_goal(non_builtin, two_domain_bundle)
    assert any("cross-domain" in d.message for d in diags)

    builtin = UserGoal(
        intents=[
            IntentInstance("PickTime", {}),
            IntentInstance(
                "BookTable",
                {"when": ReturnRef(0), "place": UserValue("Nopa", "restaurant")},
            ),
        ]
    )
    assert validate_goal(builtin, two_domain_bundle) == []


def test_backward_and_type_checks(demo_bundle):
    forward = UserGoal(
        intents=[
            IntentInstance(
                "BookTickets",
                {
                    "show": ReturnRef(1),
                    "count": UserValue("two", "count"),
                    "ticketType": UserValue("adult", "ticketType"),
                },
            ),
            IntentInstance(
                "SelectShow",
                {"showTime": UserValue("4 PM", "Time"), "movieTitle": UserValue("Up", "movieTitle")},
            ),
        ]
    )
    assert any("non-earlier" in d.message for d in validate_goal(forward, demo_bundle))

    mistyped = UserGoal(
        intents=[
            IntentInstance("FindMovies", {"location": UserValue("Sunnyvale", "location")}),
            IntentInstance(
                "BookTickets",
                {
                    "show": ReturnRef(0),  # movieList, not showInfo
                    "count": UserValue("two", "count"),
                    "ticketType": UserValue("adult", "ticketType"),
                },
            ),
        ]
    )
    assert any("returns movieList" in d.message for d in validate_goal(mistyped, demo_bundle))


def test_golden_resamples_values(demo_bundle, demo_seeds):
    goals = extract_goals(demo_seeds[:1], demo_bundle)
    rng = Random(0)
    cities = set()
    for _ in range(200):
        sample = sample_golden(goals, demo_bundle, rng)
        assert sample.structure() == goals[0].structure()
        cities.add(sample.intents[0].bindings["location"].surface)
    assert cities == {"Sunnyvale", "Berkeley", "San Jose", "Palo Alto", "Oakland", "Fremont"}


SINGLETON_SCHEMA = """
{
  "domains": [{
    "name": "Mini",
    "entity_types": [
      {"name": "city", "kind": "catalog", "catalog": ["Sunnyvale"]},
      {"name": "resultList", "kind": "object"}
    ],
    "apis": [{
      "name": "Find",
      "args": [{"name": "city", "type": "city", "required": true}],
      "return": {"name": "results", "type": "resultList"},
      "response_template": "announce"
    }],
    "response_templates": [{
      "name": "announce", "args": [], "acts": ["inform(entity:city)"], "templates": ["Here."]
    }],
    "utterance_templates": []
  }]
}
"""


def test_seed_user_values_have_a_catalog_to_redraw_from():
    """Whatever entity types a schema declares, each user value a linked
    seed binds by a span has a catalog, so golden sampling can redraw it:
    validate_schema gives each catalog kind a catalog and each builtin the
    registry's, and linking keeps object kinds out of spans."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    names = ["city", "thing", "Time", "Date", "Zip"]
    kinds = [("catalog", ["a", "b"]), ("catalog", ["a"]), ("catalog", []), ("object", []),
             ("object", ["a"]), ("builtin", []), ("builtin", ["a"])]
    declared = st.lists(
        st.tuples(st.sampled_from(names), st.sampled_from(kinds)),
        min_size=1, max_size=3, unique_by=lambda t: t[0],
    ).map(lambda types: [(name, *kind) for name, kind in types])
    # per arg: "own" to name its span by the arg's type, another type name,
    # "v" to leave the span's type to the call, or None to bind no span
    spans = st.lists(st.sampled_from(["own", "own", "v", None, *names]), min_size=3, max_size=3)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(declared, spans)
    def check(types, prefixes):
        doc = {"domains": [{
            "name": "D",
            "entity_types": [{"name": n, "kind": k, "catalog": c} for n, k, c in types]
            + [{"name": "out", "kind": "object"}],
            "apis": [{"name": "Use", "args": [{"name": f"a{i}", "type": n}
                                              for i, (n, _, _) in enumerate(types)],
                      "return": {"name": "out", "type": "out"}, "response_template": "used"}],
            "response_templates": [{"name": "used", "args": [], "acts": ["inform(entity:out)"],
                                    "templates": ["Done."]}],
        }]}
        try:
            bundle = loads_schema(json.dumps(doc))
        except SchemaError:
            return
        args = {i: f"{var_prefix(types[i][0] if prefix == 'own' else prefix)}{i}"
                for i, prefix in enumerate(prefixes[: len(types)]) if prefix}
        text = "U-1: " + " ".join(f"[x|{var}]" for var in args.values())
        text += "\nS-2: call: Use(%s) -> out0" % ",".join(f"a{i}=${v}" for i, v in args.items())
        try:
            seeds = parse_corpus(text, bundle)
        except MarkupError:
            return
        goals = extract_goals(seeds, bundle)
        values = goals[0].intents[0].bindings.values()
        assert all(bundle.catalog(v.entity_type) for v in values)
        redrawn = sample_golden(goals, bundle, Random(0)).intents[0].bindings.values()
        assert all(v.surface in bundle.catalog(v.entity_type) for v in redrawn)

    check()


def test_golden_identity_with_singleton_catalogs():
    bundle = loads_schema(SINGLETON_SCHEMA)
    text = "U-1: find in [Sunnyvale|city0]\nS-2: call: Find(city=$city0) -> resultList0"
    (seed,) = parse_corpus(text, bundle)
    goals = extract_goals([seed], bundle)
    rng = Random(1)
    for _ in range(20):
        assert sample_golden(goals, bundle, rng).intents == goals[0].intents


def test_golden_uniform_over_structures(demo_bundle, demo_seeds):
    # seeds 0 and 4 have distinct structures; count frequencies
    goals = extract_goals([demo_seeds[0], demo_seeds[3], demo_seeds[4]], demo_bundle)
    rng = Random(7)
    counts = {0: 0, 1: 0, 2: 0}
    structures = [g.structure() for g in goals]
    n = 10_000
    for _ in range(n):
        s = sample_golden(goals, demo_bundle, rng).structure()
        counts[structures.index(s)] += 1
    for i in range(3):
        assert abs(counts[i] / n - 1 / 3) < 0.02


def _goal(*apis, bindings=None):
    return UserGoal(intents=[IntentInstance(api, dict(bindings or {})) for api in apis])


def test_fit_markov_hand_counts():
    model = fit_markov([_goal("A", "B", "C"), _goal("A", "B")])
    assert model.start == {"A": 1.0}
    assert model.transition["A"] == {"B": 1.0}
    assert model.transition["B"] == {"C": 0.5, "END": 0.5}
    assert model.transition["C"] == {"END": 1.0}


def test_fit_markov_single_goal():
    model = fit_markov([_goal("A")])
    assert model.start == {"A": 1.0}
    assert model.transition["A"] == {"END": 1.0}


def test_fit_rows_stochastic(demo_bundle, demo_seeds):
    model = fit_markov(extract_goals(demo_seeds, demo_bundle))
    for api, row in model.transition.items():
        assert abs(sum(row.values()) - 1.0) < 1e-9, api
    assert abs(sum(model.start.values()) - 1.0) < 1e-9


def test_markov_recombines_novel_sequence(chain_bundle):
    model = fit_markov([_goal("A", "B"), _goal("B", "C")])
    rng = Random(5)
    seen = set()
    for _ in range(1000):
        goal = sample_markov(model, chain_bundle, rng)
        seen.add(tuple(i.api for i in goal.intents))
    assert ("A", "B", "C") in seen  # never observed in the seeds
    # every transition of every sample is in the fitted support
    for seq in seen:
        assert seq[0] in model.start
        for a, b in zip(seq, seq[1:]):
            assert model.transition[a].get(b, 0) > 0


def test_markov_walks_fitted_chain(demo_bundle, demo_seeds):
    goals = extract_goals(demo_seeds[:1], demo_bundle)
    model = fit_markov(goals)
    rng = Random(3)
    allowed = {(), ("FindMovies",), ("FindMovies", "SelectShow"),
               ("FindMovies", "SelectShow", "BookTickets")}
    for _ in range(1000):
        goal = sample_markov(model, demo_bundle, rng)
        seq = tuple(i.api for i in goal.intents)
        assert seq in allowed
        assert validate_goal(goal, demo_bundle) == []


def test_markov_deterministic_chain(chain_bundle):
    model = fit_markov([_goal("A")])
    rng = Random(9)
    for _ in range(50):
        goal = sample_markov(model, chain_bundle, rng)
        assert [i.api for i in goal.intents] == ["A"]


def test_markov_select_first_falls_back(demo_bundle, demo_seeds):
    # a goal starting at SelectShow has no FindMovies return to share; the
    # optional movies arg must be dropped rather than invented
    goals = extract_goals(demo_seeds, demo_bundle)
    model = fit_markov(goals)
    rng = Random(11)
    seen_select_first = 0
    for _ in range(2000):
        goal = sample_markov(model, demo_bundle, rng)
        if goal.intents[0].api == "SelectShow":
            seen_select_first += 1
            assert "movies" not in goal.intents[0].bindings
        assert validate_goal(goal, demo_bundle) == []
    assert seen_select_first > 0


def test_markov_max_len_respected(demo_bundle, demo_seeds):
    model = fit_markov(extract_goals(demo_seeds, demo_bundle))
    rng = Random(2)
    for _ in range(500):
        goal = sample_markov(model, demo_bundle, rng, max_len=3)
        assert len(goal.intents) <= 3


def test_sampler_errors(chain_bundle):
    with pytest.raises(SamplerError):
        sample_golden([], None, Random(0))
    with pytest.raises(SamplerError):
        fit_markov([])
    with pytest.raises(SamplerError, match="API name 'END' collides with the terminal state"):
        fit_markov([_goal("A", "END")])
    with pytest.raises(SamplerError, match="max_len must be >= 1"):
        sample_markov(fit_markov([_goal("A")]), chain_bundle, Random(0), max_len=0)


def test_markov_empty_row_ends_the_chain(chain_bundle):
    model = MarkovGoalModel(start={"A": 1.0}, transition={"A": {}}, binding_stats={})
    goal = sample_markov(model, chain_bundle, Random(0))
    assert [i.api for i in goal.intents] == ["A"]


def test_markov_gives_up_when_a_required_arg_has_no_binding(stuck_bundle):
    # Use's ticket is returned by no earlier intent and has no catalog
    model = MarkovGoalModel(start={"Use": 1.0}, transition={"Use": {}}, binding_stats={})
    with pytest.raises(SamplerError, match="no valid goal found in 3 attempts"):
        sample_markov(model, stuck_bundle, Random(0), max_attempts=3)


def test_model_json_round_trip(demo_bundle, demo_seeds):
    model = fit_markov(extract_goals(demo_seeds, demo_bundle))
    doc = json.loads(model.to_json())
    stats = [st for args in doc["binding_stats"].values() for st in args.values()]
    assert all("p_return" not in st and "p_user" not in st for st in stats)
    # older dumps also carried the derived p_return/p_user; they still load
    for st in stats:
        st["p_return"] = st["returns"] / st["bound"] if st["bound"] else 0.0
        st["p_user"] = (st["bound"] - st["returns"]) / st["bound"] if st["bound"] else 0.0
    for text in (model.to_json(), json.dumps(doc, indent=2)):
        back = MarkovGoalModel.from_json(text)
        assert back.start == model.start
        assert back.transition == model.transition
        assert back.binding_stats == model.binding_stats
