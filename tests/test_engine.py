from dataclasses import fields
from random import Random

import pytest

from dialogsim import engine, system_agent
from dialogsim.acts import sequence_string
from dialogsim.engine import (
    SAMPLERS,
    GenerationConfig,
    GenerationError,
    derive_rng,
    generate_one,
    prepare_batch,
    run_batch,
    run_dialog,
)
from dialogsim.goals import UserGoal, extract_goals
from dialogsim.markup import (
    ApiCall,
    MarkupError,
    NlgResponse,
    UserUtterance,
    parse_corpus,
    serialize_corpus,
    serialize_dialog,
)
from dialogsim.nlg import build_template_index


def _quiet_config(**kw):
    base = dict(p_correct=0.0, p_offer=0.0, api_failure_rate=0.0, multi_act_p=1.0)
    base.update(kw)
    return GenerationConfig(**base)


def test_happy_path_trace(flow_bundle, flow_seed):
    # hand trace: three fully-grouped user turns, three call+announce pairs,
    # bye and closing. The Table-2-style transcript has 10 lines; the policy
    # additionally announces the booking result, giving 11.
    goal = extract_goals([flow_seed], flow_bundle)[0]
    index = build_template_index(flow_bundle, [flow_seed])
    dialog, stats = run_dialog(goal, flow_bundle, _quiet_config(), Random(0), index)
    assert len(dialog.turns) == 11
    assert sequence_string(dialog) == (
        "inform(intent:FindMovies),inform(entity:location),inform(entity:Time),"
        "inform(entity:movieTitle),inform(entity:Time),"
        "inform(intent:SelectShow),inform(entity:Time),inform(entity:movieTitle),"
        "inform(entity:ticketType),"
        "inform(intent:BookTickets),inform(entity:count),inform(entity:ticketType),"
        "inform(entity:bookingRef),"
        "bye(),bye()"
    )
    calls = [t for t in dialog.turns if isinstance(t, ApiCall)]
    assert [c.api for c in calls] == ["FindMovies", "SelectShow", "BookTickets"]
    assert str(calls[1].bindings["movies"]) == f"${calls[0].return_var}"
    assert str(calls[2].bindings["show"]) == f"${calls[1].return_var}"
    assert stats["corrections"] == 0 and stats["abandonments"] == 0


def test_forced_failure_abandons(flow_bundle, flow_seed):
    goal = UserGoal(intents=extract_goals([flow_seed], flow_bundle)[0].intents[:1])
    index = build_template_index(flow_bundle, [flow_seed])
    config = _quiet_config(api_failure_rate=1.0)
    dialog, stats = run_dialog(goal, flow_bundle, config, Random(0), index)
    assert stats["abandonments"] == 1
    kinds = [
        "call" if isinstance(t, ApiCall) else "user" if isinstance(t, UserUtterance) else "system"
        for t in dialog.turns
    ]
    assert "call" not in kinds  # failed attempts produce no call line
    failure_turns = [
        t for t in dialog.turns
        if isinstance(t, NlgResponse) and any(a.name == "failure" for a in t.acts)
    ]
    assert len(failure_turns) == 1
    assert sequence_string(dialog).endswith("failure(intent:FindMovies),bye(),bye()")


def test_failed_recall_abandons_corrected_intent(flow_bundle, flow_seed, monkeypatch):
    # every re-call fails: the user drops the corrected intent and the
    # intents that depend on its result, and never books
    real = system_agent.simulate_api_call

    def fail_recalls(frame, *args):
        if frame.status != system_agent.COLLECTING:
            frame.status = system_agent.CALLED_FAILED
            return False, None
        return real(frame, *args)

    monkeypatch.setattr(system_agent, "simulate_api_call", fail_recalls)
    goal = extract_goals([flow_seed], flow_bundle)[0]
    index = build_template_index(flow_bundle, [flow_seed])
    config = _quiet_config(p_correct=1.0, max_corrections=1)
    for seed in range(5):
        dialog, stats = run_dialog(goal, flow_bundle, config, Random(seed), index)
        assert (stats["corrections"], stats["abandonments"]) == (1, 1)
        assert "BookTickets" not in [t.api for t in dialog.turns if isinstance(t, ApiCall)]
        assert sequence_string(dialog).endswith("bye(),bye()")


def test_empty_goal_rejected(flow_bundle, flow_seed):
    index = build_template_index(flow_bundle, [flow_seed])
    with pytest.raises(GenerationError):
        run_dialog(UserGoal(intents=[]), flow_bundle, _quiet_config(), Random(0), index)


def test_base_mix_bounded_by_seed_count(demo_bundle, demo_seeds):
    config = GenerationConfig(n_dialogs=500, sampler_mix={"base": 1.0}, rng_seed=1)
    result = run_batch(demo_bundle, demo_seeds, config)
    assert len({sequence_string(d) for d in result.dialogs}) <= len(demo_seeds)
    assert result.stats["base"] == 500


def test_same_seed_identical_output(demo_bundle, demo_seeds):
    config = GenerationConfig(n_dialogs=300, rng_seed=9)
    a = serialize_corpus(run_batch(demo_bundle, demo_seeds, config).dialogs)
    b = serialize_corpus(run_batch(demo_bundle, demo_seeds, config).dialogs)
    assert a == b


def test_different_seed_differs(demo_bundle, demo_seeds):
    a = serialize_corpus(
        run_batch(demo_bundle, demo_seeds, GenerationConfig(n_dialogs=50, rng_seed=1)).dialogs
    )
    b = serialize_corpus(
        run_batch(demo_bundle, demo_seeds, GenerationConfig(n_dialogs=50, rng_seed=2)).dialogs
    )
    assert a != b


def test_parallel_matches_serial(demo_bundle, demo_seeds):
    # three chunks of work, so a 2-CPU host runs a real 2-process pool
    serial = GenerationConfig(n_dialogs=3 * engine.CHUNK, rng_seed=4, workers=1)
    parallel = GenerationConfig(n_dialogs=3 * engine.CHUNK, rng_seed=4, workers=2)
    a = serialize_corpus(run_batch(demo_bundle, demo_seeds, serial).dialogs)
    b = serialize_corpus(run_batch(demo_bundle, demo_seeds, parallel).dialogs)
    assert a == b


@pytest.mark.parametrize(
    "workers, n, cpus, expected",
    [
        (8, 5, 8, None),  # one chunk: serial, no pool
        (8, 600, 8, 3),  # three chunks
        (8, 600, 2, 2),  # two CPUs
        (2, 1000, 2, 2),  # the benchmark's pool
        (3, 600, None, None),  # CPU count unknown: serial
        (1, 600, 8, None),
    ],
)
def test_pool_is_sized_by_the_work(demo_bundle, demo_seeds, monkeypatch, workers, n, cpus,
                                   expected):
    """The pool asks for min(workers, chunks, CPUs) processes; an in-process
    fake stands in for it, so no process starts."""
    sizes = []

    class FakePool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return map(fn, items)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(engine, "_WORKER_CTX", None)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
    config = GenerationConfig(n_dialogs=n, sampler_mix={"base": 1.0}, workers=workers)
    assert len(run_batch(demo_bundle, demo_seeds, config).dialogs) == n
    assert sizes == ([] if expected is None else [expected])


def test_truncation_flagged_not_dropped(demo_bundle, demo_seeds):
    config = GenerationConfig(
        n_dialogs=20, rng_seed=0, max_turns=4, sampler_mix={"golden": 1.0}
    )
    result = run_batch(demo_bundle, demo_seeds, config)
    assert len(result.dialogs) == 20
    truncated = [d for d in result.dialogs if d.metadata.get("truncated") == "true"]
    assert len(truncated) == result.stats["truncations"] > 0
    for d in truncated:
        assert len(d.turns) <= 4


def test_completion_with_variations_disabled(demo_bundle, demo_seeds):
    config = _quiet_config(
        n_dialogs=300, sampler_mix={"golden": 1.0}, rng_seed=6, multi_act_p=0.5
    )
    result = run_batch(demo_bundle, demo_seeds, config)
    assert result.stats["truncations"] == 0
    for dialog in result.dialogs:
        calls = [t for t in dialog.turns if isinstance(t, ApiCall)]
        assert len(calls) == int(dialog.metadata["goal_len"])
        assert sequence_string(dialog).endswith("bye(),bye()")


def test_annotation_completeness(demo_bundle, demo_seeds):
    config = GenerationConfig(n_dialogs=200, rng_seed=13)
    result = run_batch(demo_bundle, demo_seeds, config)
    for dialog in result.dialogs:
        for n, p in enumerate(dialog.turns, start=1):
            if isinstance(p, ApiCall):
                continue
            assert p.acts, f"turn {n} lacks acts"
            if isinstance(p, UserUtterance):
                informs = [a for a in p.acts if a.name == "inform" and a.entity]
                assert len(informs) == len(p.spans)


def test_reference_discipline(demo_bundle, demo_seeds):
    config = GenerationConfig(n_dialogs=200, rng_seed=17)
    result = run_batch(demo_bundle, demo_seeds, config)
    for dialog in result.dialogs:
        introduced = set()
        for p in dialog.turns:
            if isinstance(p, UserUtterance):
                introduced.update(s.var_id for s in p.spans)
            elif isinstance(p, ApiCall):
                for valref in p.bindings.values():
                    assert valref.var in introduced
                introduced.add(p.return_var)


def test_derive_rng_stable_and_independent():
    assert derive_rng(1, 0).random() == derive_rng(1, 0).random()
    assert derive_rng(1, 0).random() != derive_rng(1, 1).random()
    assert derive_rng(1, 0).random() != derive_rng(2, 0).random()


def test_config_validation():
    with pytest.raises(GenerationError):
        GenerationConfig(n_dialogs=0).validate()
    with pytest.raises(GenerationError):
        GenerationConfig(sampler_mix={"base": 0.0}).validate()
    with pytest.raises(GenerationError):
        GenerationConfig(sampler_mix={"bogus": 1.0}).validate()
    with pytest.raises(GenerationError):
        GenerationConfig.from_dict({"not_a_key": 1})


@pytest.mark.parametrize(
    "kw",
    [{"n_dialogs": "5"}, {"max_turns": 2.5}, {"sampler_mix": None}, {"rng_seed": True}],
    ids=["int-as-string", "int-as-float", "mix-none", "seed-as-bool"],
)
def test_run_batch_checks_a_config_built_in_python(demo_bundle, demo_seeds, kw):
    # run_batch's one check covers each field's type as well as its range
    with pytest.raises(GenerationError, match=repr(next(iter(kw)))):
        run_batch(demo_bundle, demo_seeds, GenerationConfig(**kw))


def test_config_from_any_json_raises_only_generation_error():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # unbounded integers, many beyond the float range, and JSON's NaN/Infinity
    integer = st.one_of(st.integers(), st.integers(2**1023, 2**1100))
    number = st.one_of(integer, st.floats())
    value = st.recursive(
        st.one_of(st.none(), st.booleans(), number, st.text(max_size=4)),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from([*SAMPLERS, "other"]), inner, max_size=4),
        max_leaves=6,
    )
    # values of the right type, often in range, so that draws get past the
    # type checks and reach validate's range and weight checks
    typed = {
        dict: st.dictionaries(
            st.sampled_from([*SAMPLERS, "other"]), st.one_of(st.floats(0, 9), number), max_size=4
        ),
        int: st.one_of(st.integers(0, 9), integer),
        float: st.one_of(st.floats(0, 1), number),
    }
    defaults = GenerationConfig()
    # the mix, the one nested value, is drawn as often as all other keys
    names = [f.name for f in fields(GenerationConfig)] + ["unknown"]
    item = (st.just("sampler_mix") | st.sampled_from(names)).flatmap(
        lambda key: st.tuples(
            st.just(key),
            st.one_of(typed[type(getattr(defaults, key))], value) if key != "unknown" else value,
        )
    )
    docs = st.lists(item, max_size=4).map(dict)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(docs)
    def check(doc):
        try:
            GenerationConfig.from_dict(doc).validate()
        except GenerationError:
            pass

    check()


def test_mutated_seed_user_turns_are_rejected_or_replay(demo_bundle, demo_seeds_annotated):
    """A seed whose user lines have text or acts changed, or that gains
    user or nlg lines, is rejected with a MarkupError, or replays into a
    corpus that parses back to itself with acts on every turn."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    seeds = [serialize_dialog(d).splitlines() for d in demo_seeds_annotated]
    act = st.sampled_from(
        ["inform(entity:Time)", "inform(entity:location)", "inform(entity:count)",
         "inform(entity:movieTitle)", "inform(intent:FindMovies)", "affirm(entity:Time)",
         "deny(entity:location)", "affirm(intent:SelectShow)", "bye()", "repeat()"]
    )
    word = st.sampled_from(["{Time}", "{Time2}", "{location}", "{this}", "{", "}", "|", "x"])

    @st.composite
    def mutants(draw):
        lines = list(draw(st.sampled_from(seeds)))
        users = [i for i, line in enumerate(lines) if line.startswith("U-")]
        for i in draw(st.lists(st.sampled_from(users), max_size=2)):
            head, rest = lines[i].split(": ", 1)
            body, suffix = rest.rsplit(" |acts: ", 1)
            acts = draw(st.permutations([a for a in suffix.split(",") if a]))
            acts = acts[: draw(st.integers(0, len(acts)))] + draw(st.lists(act, max_size=2))
            for _ in range(draw(st.integers(0, 2))):
                # insert a word outside the [surface|var] spans
                outside = [k for k in range(len(body) + 1)
                           if body[:k].count("[") == body[:k].count("]")]
                k = draw(st.sampled_from(outside))
                body = body[:k] + draw(word) + body[k:]
            lines[i] = f"{head}: {body} |acts: {','.join(acts)}"
        # user and nlg lines with no spans and no acts; mid-dialog, a user
        # line that triggers no call, or an nlg line that follows none, gets
        # no acts and must be rejected
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.integers(1, len(lines)))
            head = draw(st.sampled_from(["U-0: ", "S-0: nlg: "]))
            lines.insert(k, head + draw(st.sampled_from(["Hmm, sounds nice", "ok", "x"])))
        turn = 0
        for k, line in enumerate(lines):
            if not line.startswith("#"):
                turn += 1
                lines[k] = f"{line[0]}-{turn}:{line.split(':', 1)[1]}"
        return "\n".join(lines)

    config = GenerationConfig(n_dialogs=8, sampler_mix={"base": 1.0}, rng_seed=5)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(mutants())
    def check(text):
        try:  # an nlg line inserted first breaks the parse
            ctx = prepare_batch(demo_bundle, parse_corpus(text, demo_bundle), config)
        except MarkupError:
            return
        dialogs = [generate_one(ctx, i)[0] for i in range(config.n_dialogs)]
        assert parse_corpus(serialize_corpus(dialogs), demo_bundle) == dialogs
        assert all(t.acts for d in dialogs for t in d.turns if not isinstance(t, ApiCall))

    check()


def test_goldens_need_seeds(demo_bundle):
    with pytest.raises(GenerationError):
        run_batch(demo_bundle, [], GenerationConfig(n_dialogs=1))


def test_stats_counters_move(demo_bundle, demo_seeds):
    config = GenerationConfig(n_dialogs=400, rng_seed=21)
    stats = run_batch(demo_bundle, demo_seeds, config).stats
    assert stats["offers_made"] >= stats["offers_accepted"] > 0
    assert stats["corrections"] > 0
    assert stats["abandonments"] > 0
    assert stats["golden"] + stats["markov"] == 400


def test_corrections_and_bye_interplay(demo_bundle, demo_seeds):
    # a change of mind after the goal's last call holds the user's bye back
    # by one turn: a dialog still closes bye(),bye(), and no user turn both
    # corrects and says bye
    config = GenerationConfig(n_dialogs=400, rng_seed=23)
    result = run_batch(demo_bundle, demo_seeds, config)
    for dialog in result.dialogs:
        if dialog.metadata.get("truncated") != "true":
            assert sequence_string(dialog).endswith("bye(),bye()")
        for turn in dialog.turns:
            if not isinstance(turn, UserUtterance):
                continue
            acts = turn.acts
            assert acts
            corrects = any(a.name == "deny" and a.entity is not None for a in acts)
            assert not (corrects and any(a.name == "bye" for a in acts))


def test_call_line_is_followed_by_its_announcement(demo_bundle, demo_seeds):
    # a turn may hold a re-call and a fresh call; each call line still sits
    # directly before the line that announces its result
    config = GenerationConfig(n_dialogs=300, rng_seed=42, p_correct=0.6)
    result = run_batch(demo_bundle, demo_seeds, config)
    checked = 0
    for dialog in result.dialogs:
        if dialog.metadata.get("truncated") == "true":
            continue
        for turn, nxt in zip(dialog.turns, dialog.turns[1:] + [None]):
            if isinstance(turn, ApiCall):
                resp = demo_bundle.response(demo_bundle.api(turn.api).response_template)
                assert isinstance(nxt, NlgResponse) and nxt.acts == list(resp.acts)
                checked += 1
    assert checked > 1000
