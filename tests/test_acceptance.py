"""Acceptance suite: one test per release criterion, at the stated
tolerances. Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion pass/fail lines."""
import functools
import math
import time
from random import Random

import pytest

from dialogsim.acts import sequence_string
from dialogsim.engine import GenerationConfig, run_batch, run_dialog
from dialogsim.export import export_training, iob_tags, spans_from_tags
from dialogsim.goals import (
    IntentInstance,
    ReturnRef,
    UserGoal,
    UserValue,
    extract_goals,
    fit_markov,
    sample_golden,
    sample_markov,
    validate_goal,
)
from dialogsim.markup import ApiCall, UserUtterance, parse_corpus, parse_dialog, serialize_corpus, serialize_dialog
from dialogsim.metrics import entropy, unique_sequences, variation_report
from dialogsim.nlg import build_template_index
from dialogsim.schema import loads_schema
from dialogsim.user_agent import abandon_intent, init_user


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[acceptance] criterion {number:>2}: {name}: FAIL")
                raise
            print(f"\n[acceptance] criterion {number:>2}: {name}: PASS")

        return wrapper

    return decorate


N = 10_000
FIXED_SEED = 42


@pytest.fixture(scope="module")
def per_sampler_corpora(demo_bundle, _demo_seeds_raw):
    """The three 10k single-sampler runs plus their wall-clock time."""
    import copy

    corpora = {}
    start = time.time()
    for name in ("base", "golden", "markov"):
        config = GenerationConfig(n_dialogs=N, sampler_mix={name: 1.0}, rng_seed=FIXED_SEED)
        seeds = copy.deepcopy(_demo_seeds_raw)
        corpora[name] = run_batch(demo_bundle, seeds, config).dialogs
    corpora["elapsed"] = time.time() - start
    return corpora


@pytest.fixture(scope="module")
def mixed_run(demo_bundle, _demo_seeds_raw):
    import copy

    config = GenerationConfig(
        n_dialogs=N, sampler_mix={"golden": 0.4, "markov": 0.6}, rng_seed=FIXED_SEED
    )
    return run_batch(demo_bundle, copy.deepcopy(_demo_seeds_raw), config)


@criterion(1, "entropy ordering base < golden < markov with stated gaps")
def test_entropy_ordering(per_sampler_corpora):
    assert per_sampler_corpora["elapsed"] < 60.0
    reports = {
        name: variation_report(per_sampler_corpora[name])
        for name in ("base", "golden", "markov")
    }
    h = {k: r.entropy_nats for k, r in reports.items()}
    f = {k: r.fraction_unique for k, r in reports.items()}
    assert h["base"] + 0.3 <= h["golden"], h
    assert h["golden"] + 0.3 <= h["markov"], h
    assert f["base"] + 0.05 <= f["golden"], f
    assert f["golden"] + 0.05 <= f["markov"], f


@criterion(2, "base sampler bounded by seed count (unique <= k, entropy <= ln k)")
def test_base_ceiling(per_sampler_corpora, _demo_seeds_raw):
    k = len(_demo_seeds_raw)
    corpus = per_sampler_corpora["base"]
    count, _ = unique_sequences(corpus)
    assert count <= k
    assert entropy(corpus) <= math.log(k) + 1e-12


@criterion(3, "plug-in entropy equals brute force within 1e-9")
def test_entropy_oracle():
    from dialogsim.markup import Dialog
    from dialogsim.acts import DialogAct

    def corpus_from_counts(counts):
        corpus = []
        for tag, n in counts.items():
            payload = UserUtterance(text=tag, acts=[DialogAct("inform", "user", intent=tag)])
            corpus.extend(
                Dialog(turns=[payload]) for _ in range(n)
            )
        return corpus

    def brute_force(counts):
        total = sum(counts)
        return sum(c * (math.log(total) - math.log(c)) for c in counts) / total

    rng = Random(913)
    for _ in range(100):
        counts = {f"s{i}": rng.randint(1, 60) for i in range(rng.randint(1, 40))}
        corpus = corpus_from_counts(counts)
        assert abs(entropy(corpus) - brute_force(list(counts.values()))) < 1e-9
    assert entropy(corpus_from_counts({"only": 64})) == 0.0
    two = corpus_from_counts({"a": 5000, "b": 5000})
    assert abs(entropy(two) - 0.693147) < 1e-5
    assert abs(entropy(two) - math.log(2)) < 1e-9


@criterion(4, "10k golden and 10k markov goals all pass validation")
def test_goal_validity(demo_bundle, demo_seeds_annotated):
    goals = extract_goals(demo_seeds_annotated, demo_bundle)
    model = fit_markov(goals)
    rng = Random(FIXED_SEED)
    for _ in range(N):
        assert validate_goal(sample_golden(goals, demo_bundle, rng), demo_bundle) == []
    for _ in range(N):
        assert validate_goal(sample_markov(model, demo_bundle, rng), demo_bundle) == []


@criterion(5, "golden samples keep seed structures; singleton catalogs reproduce seeds")
def test_golden_fidelity(demo_bundle, demo_seeds_annotated):
    goals = extract_goals(demo_seeds_annotated, demo_bundle)
    structures = {g.structure() for g in goals}
    rng = Random(FIXED_SEED)
    for _ in range(N):
        assert sample_golden(goals, demo_bundle, rng).structure() in structures

    singleton = loads_schema(
        """
        {"domains": [{
          "name": "Mini",
          "entity_types": [
            {"name": "city", "kind": "catalog", "catalog": ["Sunnyvale"]},
            {"name": "hits", "kind": "object"}
          ],
          "apis": [{"name": "Find",
                    "args": [{"name": "city", "type": "city", "required": true}],
                    "return": {"name": "hits", "type": "hits"},
                    "response_template": "say"}],
          "response_templates": [{"name": "say", "args": [],
                                   "acts": ["inform(entity:city)"], "templates": ["ok"]}],
          "utterance_templates": []
        }]}
        """
    )
    text = "U-1: find in [Sunnyvale|city0]\nS-2: call: Find(city=$city0) -> hits0"
    seed_goals = extract_goals([parse_dialog(text, singleton)], singleton)
    rng = Random(1)
    for _ in range(200):
        assert sample_golden(seed_goals, singleton, rng).intents == seed_goals[0].intents


@criterion(6, "markov chain matches hand counts, stays in support, recombines")
def test_markov_fidelity(chain_bundle, demo_bundle, demo_seeds_annotated):
    def goal(*apis):
        return UserGoal(intents=[IntentInstance(a, {}) for a in apis])

    model = fit_markov([goal("A", "B", "C"), goal("A", "B")])
    assert model.start == {"A": 1.0}
    assert model.transition == {
        "A": {"B": 1.0},
        "B": {"C": 0.5, "END": 0.5},
        "C": {"END": 1.0},
    }

    demo_goals = extract_goals(demo_seeds_annotated, demo_bundle)
    demo_model = fit_markov(demo_goals)
    rng = Random(FIXED_SEED)
    for _ in range(N):
        sample = sample_markov(demo_model, demo_bundle, rng)
        seq = [i.api for i in sample.intents]
        assert demo_model.start.get(seq[0], 0) > 0
        for a, b in zip(seq, seq[1:]):
            assert demo_model.transition[a].get(b, 0) > 0

    recombining = fit_markov([goal("A", "B"), goal("B", "C")])
    rng = Random(3)
    assert any(
        [i.api for i in sample_markov(recombining, chain_bundle, rng).intents] == ["A", "B", "C"]
        for _ in range(1000)
    )


@criterion(7, "interplay completes, abandons on failure, drops dependents exactly")
def test_interplay_soundness(demo_bundle, demo_seeds_annotated, flow_bundle, flow_seed):
    quiet = GenerationConfig(
        n_dialogs=2000, sampler_mix={"golden": 1.0}, rng_seed=FIXED_SEED,
        p_correct=0.0, p_offer=0.0, api_failure_rate=0.0,
    )
    import copy

    result = run_batch(demo_bundle, copy.deepcopy(demo_seeds_annotated), quiet)
    assert result.stats["truncations"] == 0
    for dialog in result.dialogs:
        calls = [t for t in dialog.turns if isinstance(t, ApiCall)]
        assert len(calls) == int(dialog.metadata["goal_len"])

    single = UserGoal(intents=extract_goals([flow_seed], flow_bundle)[0].intents[:1])
    failing = GenerationConfig(p_correct=0, p_offer=0, api_failure_rate=1.0)
    index = build_template_index(flow_bundle, [flow_seed])
    for i in range(500):
        dialog, stats = run_dialog(single, flow_bundle, failing, Random(i), index)
        assert stats["abandonments"] == 1
        assert not any(isinstance(t, ApiCall) for t in dialog.turns)

    # hand-built chain: Y needs X's return, Z needs Y's; dropping X drops all
    chained = extract_goals([flow_seed], flow_bundle)[0]
    state = init_user(chained, flow_bundle, Random(0))
    abandon_intent(state, 0)
    assert state.dead == {0, 1, 2} and state.done
    # without the X->Y edge, only X dies
    independent = UserGoal(
        intents=[
            IntentInstance("FindMovies", {"location": UserValue("Sunnyvale", "location")}),
            IntentInstance(
                "SelectShow",
                {
                    "showTime": UserValue("4 PM", "Time"),
                    "movieTitle": UserValue("Tenet", "movieTitle"),
                },
            ),
            IntentInstance(
                "BookTickets",
                {
                    "show": ReturnRef(1),
                    "count": UserValue("two", "count"),
                    "ticketType": UserValue("adult", "ticketType"),
                },
            ),
        ]
    )
    state = init_user(independent, flow_bundle, Random(0))
    abandon_intent(state, 0)
    assert state.dead == {0} and not state.done and state.cursor == 1


@criterion(8, "post-call correction re-calls with the corrected value")
def test_correction_soundness(flow_bundle, flow_seed):
    goal = UserGoal(intents=extract_goals([flow_seed], flow_bundle)[0].intents[:1])
    config = GenerationConfig(
        p_correct=1.0, max_corrections=1, p_offer=0.0, api_failure_rate=0.0, multi_act_p=1.0
    )
    index = build_template_index(flow_bundle, [flow_seed])
    for trial in range(200):
        dialog, stats = run_dialog(goal, flow_bundle, config, Random(trial), index)
        assert stats["corrections"] == 1
        calls = [t for t in dialog.turns if isinstance(t, ApiCall)]
        assert len(calls) == 2 and calls[0].api == calls[1].api == "FindMovies"
        # the deny(entity:T),inform(entity:T) pattern, with the informed span
        # becoming the re-call's binding
        corrected = [
            (turn, i)
            for turn in dialog.turns
            if isinstance(turn, UserUtterance)
            for i, act in enumerate(turn.acts)
            if act.name == "deny" and act.entity is not None
        ]
        assert len(corrected) == 1
        turn, i = corrected[0]
        deny, inform = turn.acts[i], turn.acts[i + 1]
        assert inform.name == "inform" and inform.entity == deny.entity
        corrected_arg = inform.arg
        new_var = [
            s.var_id
            for s, a in zip(
                turn.spans,
                [a for a in turn.acts if a.name == "inform" and a.entity],
            )
            if a is inform
        ][0]
        assert str(calls[1].bindings[corrected_arg]) == f"${new_var}"
        unchanged = [arg for arg in calls[0].bindings if arg != corrected_arg]
        for arg in unchanged:
            assert calls[1].bindings[arg] == calls[0].bindings[arg]


@criterion(9, "round-trip identity, rerun checksums, parallel equivalence")
def test_round_trip_and_determinism(demo_bundle, _demo_seeds_raw, mixed_run):
    import copy

    for dialog in mixed_run.dialogs:
        assert parse_dialog(serialize_dialog(dialog), demo_bundle) == dialog

    config = GenerationConfig(
        n_dialogs=N, sampler_mix={"golden": 0.4, "markov": 0.6}, rng_seed=FIXED_SEED
    )
    rerun = run_batch(demo_bundle, copy.deepcopy(_demo_seeds_raw), config)
    assert serialize_corpus(rerun.dialogs) == serialize_corpus(mixed_run.dialogs)

    small = GenerationConfig(n_dialogs=2000, rng_seed=7)
    serial = run_batch(demo_bundle, copy.deepcopy(_demo_seeds_raw), small)
    small_parallel = GenerationConfig(n_dialogs=2000, rng_seed=7, workers=2)
    parallel = run_batch(demo_bundle, copy.deepcopy(_demo_seeds_raw), small_parallel)
    assert serialize_corpus(serial.dialogs) == serialize_corpus(parallel.dialogs)


@criterion(10, "sampler mix 0.4/0.6 lands within 1.5% absolute")
def test_mixture_ratio(mixed_run):
    counts = {"golden": 0, "markov": 0}
    for dialog in mixed_run.dialogs:
        counts[dialog.metadata["sampler"]] += 1
    assert abs(counts["golden"] / N - 0.4) <= 0.015
    assert abs(counts["markov"] / N - 0.6) <= 0.015


@criterion(11, "training export is lossless and fully resolvable")
def test_export_integrity(demo_bundle, mixed_run):
    index = build_template_index(demo_bundle, [])
    corpus = parse_corpus(serialize_corpus(mixed_run.dialogs[:400]), demo_bundle)
    examples = export_training(corpus, demo_bundle, index)

    ner = examples["ner"]
    assert len(ner) >= 1000
    checked = 0
    dialog_iter = iter(corpus)
    for dialog in corpus:
        for utt in dialog.turns:
            if not isinstance(utt, UserUtterance):
                continue
            tokens, tags = iob_tags(utt.text, utt.spans)
            rebuilt = spans_from_tags(utt.text, tokens, tags)
            assert sorted(rebuilt) == sorted(
                (s.start, s.end, s.entity_type) for s in utt.spans
            )
            checked += 1
            if checked >= 1000:
                break
        if checked >= 1000:
            break
    assert checked >= 1000

    actions = {api.name for api in demo_bundle.apis()}
    actions.update(
        resp.name for dom in demo_bundle.domains for resp in dom.response_templates
    )
    for example in examples["action_prediction"]:
        assert example.labels in actions

    af_by_dialog = iter(examples["argument_filling"])
    for dialog in corpus:
        introduced = set()
        for p in dialog.turns:
            if isinstance(p, UserUtterance):
                introduced.update(s.var_id for s in p.spans)
            elif isinstance(p, ApiCall):
                example = next(af_by_dialog)
                assert set(example.labels.values()) <= introduced
                introduced.add(p.return_var)
