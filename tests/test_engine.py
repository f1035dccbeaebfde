import hashlib
import itertools
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
import time
from collections import Counter
from dataclasses import fields, replace
from functools import partial
from multiprocessing.connection import Connection
from pathlib import Path
from random import Random

import pytest

import dialogsim
from dialogsim import engine, system_agent
from dialogsim.acts import SYSTEM, USER, DialogAct, make_act, sequence_string
from dialogsim.cli import main
from dialogsim.engine import (
    SAMPLERS,
    GenerationConfig,
    GenerationError,
    derive_rng,
    generate_one,
    prepare_batch,
    run_base_dialog,
    run_batch,
    run_dialog,
)
from dialogsim.export import export_training
from dialogsim.goals import (
    IntentInstance,
    ReturnRef,
    UserGoal,
    UserValue,
    extract_goals,
    sample_golden,
    sample_markov,
    validate_goal,
)
from dialogsim.markup import (
    ApiCall,
    Dialog,
    EntitySpan,
    MarkupError,
    ValueRef,
    NlgResponse,
    UserUtterance,
    VarAllocator,
    lit,
    parse_corpus,
    ref,
    serialize_corpus,
    serialize_dialog,
)
from dialogsim.nlg import (
    build_template_index,
    realize_response,
    realize_user,
    sample_response_args,
)
from dialogsim.schema import BUILTIN
from dialogsim.user_agent import UserTurnOutput


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


def test_run_dialog_simulates_exactly_the_goals_validate_goal_accepts(flow_bundle, flow_seed):
    """run_dialog rejects every goal validate_goal flags, a goal without
    intents among them, and plays every other one out."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    index = build_template_index(flow_bundle, [flow_seed])
    seed_intents = extract_goals([flow_seed], flow_bundle)[0].intents
    args = sorted({a.name for api in flow_bundle.apis() for a in api.args} | {"nope"})
    types = ["location", "Time", "movieTitle", "count", "ticketType", "movieList", "showInfo"]
    user_value = st.builds(UserValue, st.sampled_from(["Tenet", "2 PM", "two"]),
                           st.sampled_from(types))
    binding = user_value | st.builds(ReturnRef, st.integers(-1, 3))

    @st.composite
    def goals(draw):
        """A prefix of the seed's goal with up to three edits: an intent
        dropped or renamed to another api, an arg unbound, or an arg bound
        anew. (An unknown api is in test_goal_diagnostics.)"""
        intents = [IntentInstance(i.api, dict(i.bindings))
                   for i in seed_intents[: draw(st.integers(0, len(seed_intents)))]]
        for _ in range(draw(st.integers(0, 3))):
            if not intents:
                break
            intent = draw(st.sampled_from(intents))
            edit = draw(st.sampled_from(["drop", "api", "unbind", "bind"]))
            if edit == "drop":
                intents.remove(intent)
            elif edit == "api":
                intent.api = draw(st.sampled_from([api.name for api in flow_bundle.apis()]))
            elif edit == "unbind" and intent.bindings:
                del intent.bindings[draw(st.sampled_from(sorted(intent.bindings)))]
            elif edit == "bind":
                intent.bindings[draw(st.sampled_from(args))] = draw(binding)
        return UserGoal(intents=intents)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(goals(), st.integers(0, 9))
    def check(goal, seed):
        problems = validate_goal(goal, flow_bundle)
        assert problems or goal.intents
        if problems:
            with pytest.raises(GenerationError):
                run_dialog(goal, flow_bundle, GenerationConfig(), Random(seed), index)
        else:
            run_dialog(goal, flow_bundle, GenerationConfig(), Random(seed), index)

    check()


def test_an_empty_user_turn_is_an_error(flow_bundle, flow_seed, monkeypatch):
    monkeypatch.setattr(engine, "next_user_turn", lambda *args: UserTurnOutput([], []))
    goal = extract_goals([flow_seed], flow_bundle)[0]
    index = build_template_index(flow_bundle, [flow_seed])
    with pytest.raises(GenerationError, match="user policy produced an empty turn"):
        run_dialog(goal, flow_bundle, _quiet_config(), Random(0), index)


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
    # three chunks of work: with two usable CPUs, this process and one
    # forked worker share them
    serial = GenerationConfig(n_dialogs=3 * engine.CHUNK, rng_seed=4, workers=1)
    parallel = GenerationConfig(n_dialogs=3 * engine.CHUNK, rng_seed=4, workers=2)
    a = run_batch(demo_bundle, demo_seeds, serial)
    b = run_batch(demo_bundle, demo_seeds, parallel)
    assert serialize_corpus(a.dialogs) == serialize_corpus(b.dialogs)
    assert a.stats == b.stats


@pytest.mark.parametrize("workers", [1, 2])
def test_a_batch_holds_one_instance_per_act_and_ref_value(demo_bundle, demo_seeds, workers):
    """Acts and call-line refs are interned values, in the pool's parent too:
    unpickling rebuilds each one through `make_act`, `ref` or `lit`."""
    # three chunks of work: with two usable CPUs, this process and one
    # forked worker share them
    config = GenerationConfig(n_dialogs=3 * engine.CHUNK, rng_seed=4, workers=workers)
    instances: dict[tuple, set[int]] = {}
    for dialog in run_batch(demo_bundle, demo_seeds, config).dialogs:
        for turn in dialog.turns:
            if isinstance(turn, ApiCall):
                values = turn.bindings.values()
                keys = [(v.var, v.literal) for v in values]
            else:
                values = turn.acts
                keys = [(a.name, a.side, a.intent, a.entity, a.api, a.arg) for a in values]
            for key, value in zip(keys, values):
                instances.setdefault((type(value), key), set()).add(id(value))
    assert {kind for kind, _ in instances} == {DialogAct, ValueRef}
    assert {key: len(ids) for key, ids in instances.items() if len(ids) > 1} == {}
    act = dialog.turns[0].acts[0]
    valref = next(r for t in dialog.turns if isinstance(t, ApiCall) for r in t.bindings.values())
    assert pickle.loads(pickle.dumps(act)) is act
    assert pickle.loads(pickle.dumps(valref)) is valref


_MIXES = {"selfplay": {"golden": 0.4, "markov": 0.6}, "replay": {"base": 1.0},
           "mixed": {"base": 1.0, "golden": 1.0, "markov": 1.0}}


@pytest.mark.parametrize(
    "mix, workers",
    [pytest.param(mix, workers, id=name if workers == 1 else f"{name}-workers-2")
     for workers in (1, 2) for name, mix in _MIXES.items()],
)
def test_a_batch_holds_one_object_per_distinct_turn(demo_bundle, demo_seeds, mix, workers):
    """Turns are shared where they are made: a batch holds one object per
    distinct (type, line body, act ids), in self-play, in replay and across
    the two. A pool batch holds as many as a serial one: the parent keeps
    one object per turn value across its workers' chunks and its own."""
    # four chunks of work: with two usable CPUs, this process and one
    # forked worker share them. This process claims the last chunk first, so
    # it makes at least one
    n = 4 * engine.CHUNK
    config = GenerationConfig(n_dialogs=n, sampler_mix=mix, rng_seed=1, workers=workers)
    turns = [t for d in run_batch(demo_bundle, demo_seeds, config).dialogs for t in d.turns]
    objects = {id(t): t for t in turns}
    values = {
        (type(t), serialize_dialog(Dialog([t])).split(": ", 1)[1],
         tuple([id(a) for a in getattr(t, "acts", ())]))
        for t in objects.values()
    }
    assert len(objects) == len(values)
    assert len(objects) < len(turns) / 3
    serial = GenerationConfig(n_dialogs=n, sampler_mix=mix, rng_seed=1)
    serial_turns = {id(t) for d in run_batch(demo_bundle, demo_seeds, serial).dialogs
                    for t in d.turns}
    assert len(objects) == len(serial_turns)


def test_the_turn_memo_keys_every_field(demo_bundle):
    """A shared turn is returned only for an equal value: equal line text
    with other spans, other var ids or other acts, even acts that differ
    only in their role, is another turn."""
    index = build_template_index(demo_bundle, [])
    bare = make_act("inform", USER, entity="location")
    located = make_act("inform", USER, entity="location", api="FindMovies", arg="location")
    span = EntitySpan("Fremont", "location0", "location", 3, 10)
    user = index.share(UserUtterance("in Fremont", (span,), (located,)))
    assert index.share(UserUtterance("in Fremont", (span,), (located,))) is user
    for spans, acts in [((), (located,)), ((span._replace(start=2),), (located,)),
                        ((span._replace(var_id="location1"),), (located,)), ((span,), (bare,))]:
        turn = UserUtterance("in Fremont", spans, acts)
        assert index.share(turn) is turn
    after = make_act("inform", SYSTEM, entity="Time", api="FindMovies", arg="timeLowerBound")
    show = make_act("inform", SYSTEM, entity="Time", api="SelectShow", arg="showTime")
    first = index.nlg_turn("At 5 PM.", (after,))
    assert index.nlg_turn("At 5 PM.", (after,)) is first
    for text, acts in [("At 5 PM.", (show,)), ("At 6 PM.", (after,)), ("At 5 PM.", ())]:
        turn = index.nlg_turn(text, acts)
        assert turn is not first and turn == NlgResponse(text, acts)
        assert [id(a) for a in turn.acts] == [id(a) for a in acts]
    call = index.call_turn("FindMovies", {"location": ref("location0")}, "movieList0")
    assert index.call_turn("FindMovies", {"location": ref("location0")}, "movieList0") is call
    for api, bindings, var in [("FindMovies", {"location": lit("location0")}, "movieList0"),
                               ("FindMovies", {"location": ref("location0")}, "movieList1"),
                               ("FindMovies", {}, "movieList0"),
                               ("GetTimes", {"location": ref("location0")}, "movieList0")]:
        assert index.call_turn(api, bindings, var) == ApiCall(api, bindings, var) != call


def test_a_turn_shared_before_it_is_made_is_the_one_made(demo_bundle):
    """A turn a worker sent before this process made its equal is one
    object either way: `share` enters it under its value (a received user
    turn is entered itself), and the equal turns `realize_user`,
    `call_turn` and `nlg_turn` make later are the object `share` gave."""
    index = build_template_index(demo_bundle, [])
    worker = build_template_index(demo_bundle, [])
    located = (make_act("inform", USER, entity="location", api="FindMovies", arg="location"),)
    after = (make_act("inform", SYSTEM, entity="Time", api="FindMovies", arg="timeLowerBound"),)
    sent = [
        realize_user(located, ["Fremont"], worker, Random(0), ("location0",)),
        worker.call_turn("FindMovies", {"location": ref("location0")}, "movieList0"),
        worker.nlg_turn("At 5 PM.", after),
    ]
    shared = [index.share(turn) for turn in sent]
    assert shared == sent and shared[0] is sent[0]
    assert realize_user(located, ["Fremont"], index, Random(0), ("location0",)) is shared[0]
    assert index.call_turn("FindMovies", {"location": ref("location0")}, "movieList0") is shared[1]
    assert index.nlg_turn("At 5 PM.", after) is shared[2]


@pytest.mark.parametrize(
    "workers, n, cpus, expected",
    [
        (8, 5, 8, None),  # one chunk: serial, no pool
        (8, 600, 8, 3),  # three chunks
        (8, 600, 2, 2),  # two CPUs
        (2, 1000, 2, 2),  # the benchmark's pool
        (8, 600, 1, None),  # one usable CPU: serial
        (3, 600, None, None),  # CPU count unknown: serial
        (1, 600, 8, None),
    ],
)
def test_pool_is_sized_by_the_work(demo_bundle, demo_seeds, monkeypatch, tmp_path, workers, n,
                                   cpus, expected):
    """A batch runs in min(workers, chunks, usable CPUs) processes, this one
    included, so the pool forks one fewer; an in-process stand-in runs it,
    so no process starts."""
    sizes = []
    monkeypatch.setattr(engine, "CHUNK", 256)
    monkeypatch.setattr(engine, "_run_pool", _in_process_pool(tmp_path, sizes, [], held=0))
    if cpus is None:
        monkeypatch.delattr(engine.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
    monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
    config = GenerationConfig(n_dialogs=n, sampler_mix={"base": 1.0}, workers=workers)
    assert len(run_batch(demo_bundle, demo_seeds, config).dialogs) == n
    assert sizes == ([] if expected is None else [expected - 1])


def test_a_platform_that_cannot_fork_runs_the_batch_serially(demo_bundle, demo_seeds,
                                                             monkeypatch, tmp_path):
    sizes = []
    monkeypatch.setattr(engine, "_run_pool", _in_process_pool(tmp_path, sizes, [], held=0))
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(engine.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    config = GenerationConfig(n_dialogs=3 * engine.CHUNK, rng_seed=4, workers=2)
    pooled = run_batch(demo_bundle, demo_seeds, config)
    serial = run_batch(demo_bundle, demo_seeds, replace(config, workers=1))
    assert sizes == []
    assert serialize_corpus(pooled.dialogs) == serialize_corpus(serial.dialogs)


def test_usable_cpus_are_the_affinity_mask_where_the_platform_has_one(monkeypatch):
    monkeypatch.setattr(engine.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert engine._usable_cpus() == 1
    monkeypatch.delattr(engine.os, "sched_getaffinity")
    assert engine._usable_cpus() == 8
    monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
    assert engine._usable_cpus() == 1


def _reader(path: Path, messages: list[tuple] = (), worker=None):
    """A pool pipe's read end, backed by the file at `path`: the write end
    gets `messages`, or is handed to `worker`, and is closed before the
    read end opens. So the writer can run to its end in this process before
    anything reads, as no pipe would let it."""
    writer = Connection(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC), readable=False)
    if worker is not None:
        worker(writer)
    with writer:
        for message in messages:
            writer.send(message)
    return Connection(os.open(path, os.O_RDONLY), writable=False)


def _in_process_pool(tmp_path: Path, sizes: list[int], sent: list[tuple], held: int,
                     stopped: bool = False):
    """An in-process stand-in for `engine._run_pool`, with one worker: it
    runs `_pool_worker` in this process on a pickled copy of the batch, as
    a forked worker holds its own copy, with claims set to the first
    `held` chunks, and then runs `_pool_parent` with claims on the rest.
    A `stopped` worker holds its chunks but sends nothing, as one that
    died. It records the worker count asked for in `sizes` and each message
    the worker sent in `sent`."""
    def run_pool(ctx, tasks, children, stats):
        sizes.append(children)
        path = tmp_path / f"pipe-{len(sizes)}"
        if stopped:
            worker = None
        else:
            copy = pickle.loads(pickle.dumps(ctx))
            claims = multiprocessing.Array("q", [0, held])
            worker = partial(engine._pool_worker, copy, tasks, claims)
        with _reader(path, worker=worker) as reader:
            while True:
                try:
                    sent.append(reader.recv())
                except EOFError:
                    break
        claims = multiprocessing.Array("q", [held, len(tasks)])
        with Connection(os.open(path, os.O_RDONLY), writable=False) as reader:
            return engine._pool_parent(ctx, tasks, claims, [reader], stats)

    return run_pool


@pytest.mark.parametrize("chunk", [1, 7])
def test_each_worker_sends_each_turn_once(demo_bundle, demo_seeds, monkeypatch, tmp_path, chunk):
    """A worker sends its chunks in order, each with only the turns it has
    not sent before and its run stats, and its rows point into every one
    of them; a second batch in the same process starts from an empty
    sent-table. The in-process worker runs the chunks that cover the first
    half of the batch, so its distinct turns and stats are those of the
    same dialogs in a serial batch."""
    mix = {"base": 1.0, "golden": 1.0, "markov": 1.0}
    serial = run_batch(demo_bundle, demo_seeds,
                       GenerationConfig(n_dialogs=60, sampler_mix=mix, rng_seed=3))
    held = 30 // chunk
    distinct = len({id(t) for d in serial.dialogs[:held * chunk] for t in d.turns})
    # the worker's dialogs: each dialog has its own random substream
    head = run_batch(demo_bundle, demo_seeds,
                     GenerationConfig(n_dialogs=held * chunk, sampler_mix=mix, rng_seed=3))
    monkeypatch.setattr(engine, "CHUNK", chunk)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    config = GenerationConfig(n_dialogs=60, sampler_mix=mix, rng_seed=3, workers=2)
    for _ in range(2):
        sent = []
        monkeypatch.setattr(engine, "_run_pool", _in_process_pool(tmp_path, [], sent, held))
        pooled = run_batch(demo_bundle, demo_seeds, config)
        assert [k for k, *_ in sent] == list(range(held))
        turns = [t for _, new, _, _ in sent for t in new]
        assert len(turns) == len({id(t) for t in turns}) == distinct
        positions = {p for _, _, rows, _ in sent for row in rows for p in row[0]}
        assert positions == set(range(distinct))
        assert serialize_corpus(pooled.dialogs) == serialize_corpus(serial.dialogs)
        # every key in order, zero counts included, as the stats line prints them
        assert json.dumps(pooled.stats) == json.dumps(serial.stats)
        assert sum((stats for *_, stats in sent), Counter()) == head.stats


@pytest.mark.parametrize("held", [0, 1, 9], ids=["all-stolen", "one-worker-chunk", "none-stolen"])
def test_stolen_and_worker_chunks_match_serial(demo_bundle, demo_seeds, monkeypatch, tmp_path,
                                               held):
    """Whichever chunks this process claims and whichever a worker runs,
    the batch has serial's bytes, stats and number of turn objects: the
    worker makes its own objects, and this process maps each one it
    receives to the batch's object for its value, its own turns included."""
    mix = {"base": 1.0, "golden": 1.0, "markov": 1.0}
    serial = run_batch(demo_bundle, demo_seeds,
                       GenerationConfig(n_dialogs=60, sampler_mix=mix, rng_seed=3))
    monkeypatch.setattr(engine, "CHUNK", 7)  # nine chunks
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sent = []
    monkeypatch.setattr(engine, "_run_pool", _in_process_pool(tmp_path, [], sent, held))
    config = GenerationConfig(n_dialogs=60, sampler_mix=mix, rng_seed=3, workers=2)
    pooled = run_batch(demo_bundle, demo_seeds, config)
    assert len(sent) == held
    assert serialize_corpus(pooled.dialogs) == serialize_corpus(serial.dialogs)
    assert json.dumps(pooled.stats) == json.dumps(serial.stats)
    objects = {id(t) for d in pooled.dialogs for t in d.turns}
    assert len(objects) == len({id(t) for d in serial.dialogs for t in d.turns})


def _log_made(monkeypatch, log: Path, hold=None) -> None:
    """Makes `generate_one` append "pid index" to `log` for each dialog, in
    whichever process makes it, and then call `hold(index)`."""
    real = engine.generate_one

    def generate_one(ctx, i):
        fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, f"{os.getpid()} {i}\n".encode())
        finally:
            os.close(fd)
        if hold is not None:
            hold(i)
        return real(ctx, i)

    monkeypatch.setattr(engine, "generate_one", generate_one)


def _made(log: Path) -> list[tuple[int, int]]:
    text = log.read_text(encoding="utf-8") if log.exists() else ""
    return [tuple(map(int, line.split())) for line in text.splitlines()]


def test_a_worker_holds_one_unfinished_chunk_at_a_time(demo_bundle, demo_seeds, monkeypatch,
                                                       tmp_path):
    """A real pool: a worker claims a chunk only when it is ready to start
    it. The worker is held on dialog 0 until this process has started
    chunk 1, and this process on its first dialog until the worker has
    started, so the worker makes chunk 0 alone and this process every
    other chunk."""
    n = 4 * engine.CHUNK
    config = GenerationConfig(n_dialogs=n, rng_seed=5, workers=2)
    serial = serialize_corpus(run_batch(demo_bundle, demo_seeds,
                                        replace(config, workers=1)).dialogs)
    log = tmp_path / "made"
    parent = os.getpid()

    def hold_until(ready) -> None:
        deadline = time.monotonic() + 60
        while not ready(_made(log)):
            if time.monotonic() > deadline:
                raise GenerationError(f"process {os.getpid()} waited in vain")
            time.sleep(0.005)

    def hold(i):
        if os.getpid() != parent and i == 0:
            hold_until(lambda records: (parent, engine.CHUNK) in records)
        elif os.getpid() == parent and i == n - engine.CHUNK:
            hold_until(lambda records: any(pid != parent for pid, _ in records))

    _log_made(monkeypatch, log, hold)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    pooled = serialize_corpus(run_batch(demo_bundle, demo_seeds, config).dialogs)
    by_process: dict[int, list[int]] = {}
    for pid, i in _made(log):
        by_process.setdefault(pid, []).append(i)
    assert sorted(by_process.pop(parent)) == list(range(engine.CHUNK, n))
    assert list(by_process.values()) == [list(range(engine.CHUNK))]
    assert pooled == serial
    assert multiprocessing.active_children() == []


def test_the_claims_give_each_chunk_to_one_process(demo_bundle, demo_seeds, monkeypatch,
                                                   tmp_path):
    """A real pool of more processes than this host's two CPUs, on chunks
    of one dialog: a lost update of the shared claims would make a dialog
    twice or never, and each is made once."""
    n = 96
    config = GenerationConfig(n_dialogs=n, sampler_mix={"base": 1.0}, rng_seed=2, workers=4)
    serial = serialize_corpus(run_batch(demo_bundle, demo_seeds,
                                        replace(config, workers=1)).dialogs)
    log = tmp_path / "made"
    _log_made(monkeypatch, log)
    monkeypatch.setattr(engine, "CHUNK", 1)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    pooled = serialize_corpus(run_batch(demo_bundle, demo_seeds, config).dialogs)
    assert sorted(i for _, i in _made(log)) == list(range(n))
    assert pooled == serial
    assert multiprocessing.active_children() == []


def _fail_at(monkeypatch, failing: set[int]) -> None:
    """Makes `generate_one` raise at the dialog indices in `failing`; a
    forked worker inherits the patch."""
    real = engine.generate_one

    def generate_one(ctx, i):
        if i in failing:
            raise GenerationError(f"dialog {i}")
        return real(ctx, i)

    monkeypatch.setattr(engine, "generate_one", generate_one)


@pytest.mark.parametrize("held", [0, 2, 9])
def test_a_failing_batch_raises_serials_error_whoever_ran_the_chunk(
        demo_bundle, demo_seeds, monkeypatch, tmp_path, held):
    """The lowest-index error is raised, as in serial, whether this process
    or a worker met it: here in chunks 1 and 7 of nine, both this
    process's, one each, or both a worker's."""
    monkeypatch.setattr(engine, "CHUNK", 7)
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    _fail_at(monkeypatch, {9, 50})
    for workers in (1, 2):
        monkeypatch.setattr(engine, "_run_pool", _in_process_pool(tmp_path, [], [], held))
        config = GenerationConfig(n_dialogs=60, rng_seed=3, workers=workers)
        with pytest.raises(GenerationError, match=r"^dialog 9$"):
            run_batch(demo_bundle, demo_seeds, config)


def test_a_failing_pool_raises_serials_error_and_leaves_no_process(demo_bundle, demo_seeds,
                                                                   monkeypatch):
    """A real pool: the errors fall in the last chunk, which this process
    claims first, and in the second, which a worker or this process claims;
    either way serial's error is raised, and no worker outlives the batch."""
    n = 4 * engine.CHUNK
    _fail_at(monkeypatch, {engine.CHUNK + 5, n - 3})
    for workers in (1, 2):
        config = GenerationConfig(n_dialogs=n, rng_seed=3, workers=workers)
        with pytest.raises(GenerationError, match=rf"^dialog {engine.CHUNK + 5}$"):
            run_batch(demo_bundle, demo_seeds, config)
        assert multiprocessing.active_children() == []


def test_a_stopped_pool_worker_is_a_generation_error(demo_bundle, demo_seeds, monkeypatch,
                                                     tmp_path):
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(engine, "_run_pool",
                        _in_process_pool(tmp_path, [], [], held=1, stopped=True))
    config = GenerationConfig(n_dialogs=4 * engine.CHUNK, workers=2)
    with pytest.raises(GenerationError, match=r"^a pool worker stopped before its chunk was "
                                              rf"done: dialogs 0 to {engine.CHUNK - 1}$"):
        run_batch(demo_bundle, demo_seeds, config)


@pytest.mark.parametrize("failed, stopped, expected",
                         [(0, 1, r"^dialog 3$"), (1, 0, r"^a pool worker stopped")])
def test_the_lowest_chunk_decides_between_an_error_and_a_stopped_worker(
        demo_bundle, demo_seeds, tmp_path, failed, stopped, expected):
    """Two workers, one whose chunk failed and one that stopped holding
    its chunk: the lower of the two chunks decides what is raised. This
    process makes the rest."""
    ctx = prepare_batch(demo_bundle, demo_seeds, GenerationConfig(n_dialogs=12))
    tasks = [range(start, start + 3) for start in range(0, 12, 3)]
    readers = [_reader(tmp_path / "failed", [(failed, GenerationError("dialog 3"))]),
               _reader(tmp_path / "stopped")]
    claims = multiprocessing.Array("q", [2, len(tasks)])
    try:
        with pytest.raises(GenerationError, match=expected):
            engine._pool_parent(ctx, tasks, claims, readers, Counter())
    finally:
        for reader in readers:
            reader.close()


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
                assert isinstance(nxt, NlgResponse) and nxt.acts == resp.acts
                checked += 1
    assert checked > 1000


# SHA-256 of corpus + stats line over a grid of policy extremes that the
# GOLDEN rows of tests/test_cli.py never reach: every offer taken, half of
# the calls failing, one act per user turn. Pinned like GOLDEN: a change
# that alters self-play output on purpose updates it and says why.
POLICY_GRID_DIGEST = "e2932efb3f808d31db8099905643731fc679c04b4154985f26fda1183526d540"


def test_policy_grid_bytes_are_pinned(demo_bundle, demo_seeds):
    digest = hashlib.sha256()
    for p_correct, p_offer, failure, multi_act_p, max_acts in itertools.product(
        (0.0, 1.0), (0.0, 1.0), (0.0, 0.5), (0.0, 1.0), (1, 3)
    ):
        config = GenerationConfig(
            n_dialogs=30, rng_seed=5, p_correct=p_correct, p_offer=p_offer,
            api_failure_rate=failure, multi_act_p=multi_act_p, max_acts_per_turn=max_acts,
        )
        result = run_batch(demo_bundle, demo_seeds, config)
        digest.update(serialize_corpus(result.dialogs).encode("utf-8"))
        digest.update((json.dumps(result.stats) + "\n").encode("utf-8"))
    assert digest.hexdigest() == POLICY_GRID_DIGEST


def test_catalog_typed_return_is_offered_by_its_surface(catalog_return_bundle,
                                                       catalog_return_seeds):
    # FindRestaurant returns a catalog-kind restaurant that BookTable takes;
    # with no offer template, the offer speaks the return's drawn surface,
    # and the accepted offer's call binds that return var
    bundle = catalog_return_bundle
    config = _quiet_config(n_dialogs=20, p_offer=1.0, rng_seed=3)
    dialogs = run_batch(bundle, catalog_return_seeds, config).dialogs
    catalog = bundle.catalog("restaurant")
    surfaces = set()
    for dialog in dialogs:
        turns = dialog.turns
        (find,) = [t for t in turns if isinstance(t, ApiCall) and t.api == "FindRestaurant"]
        offer = next(t for t in turns if isinstance(t, NlgResponse) and t.acts[0].name == "offer")
        prefix = "Would you like to book table? How about "
        assert offer.text.startswith(prefix) and offer.text.endswith("?")
        surfaces.add(offer.text[len(prefix) : -1])
        book = next(t for t in turns[turns.index(offer) :] if isinstance(t, ApiCall))
        assert (book.api, str(book.bindings["place"])) == ("BookTable", f"${find.return_var}")
    assert surfaces <= set(catalog) and len(surfaces) > 1
    assert parse_corpus(serialize_corpus(dialogs), bundle) == dialogs


CHAIN_SEED = """\
U-1: Do A
S-2: call: A() -> aOut0
S-3: nlg: Done.
U-4: Now B
S-5: call: B() -> bOut0
S-6: nlg: Done.
U-7: And C
S-8: call: C() -> cOut0
S-9: nlg: Done.
"""

TWO_DOMAIN_SEED = """\
U-1: Pick a movie
S-2: call: PickMovie() -> movieName0
S-3: nlg: Here.
U-4: And a time
S-5: call: PickTime() -> time0
S-6: nlg: Here.
U-7: Book a table at [Nopa|restaurant0]
S-8: call: BookTable(when=$time0,place=$restaurant0) -> restaurant1
S-9: nlg: Booked.
"""

# BookTable takes its movie from the user, while a Movies API returns one:
# neither an offer nor a call may bind that return in the Dining domain
TWO_DOMAIN_USER_MOVIE_SEED = """\
U-1: Pick a movie
S-2: call: PickMovie() -> movieName0
S-3: nlg: Here.
U-4: And a time
S-5: call: PickTime() -> time0
S-6: nlg: Here.
U-7: Book a table at [Nopa|restaurant0] after [Tenet|movieName1]
S-8: call: BookTable(movie=$movieName1,when=$time0,place=$restaurant0) -> restaurant1
S-9: nlg: Booked.
"""


def _cross_domain_bindings(bundle, dialog):
    """Each `api.arg=$var` of `dialog` whose var is a non-builtin value
    that an API of another domain returned."""
    returned_in = {}
    found = []
    for call in (t for t in dialog.turns if isinstance(t, ApiCall)):
        api = bundle.api(call.api)
        for arg, value in call.bindings.items():
            domain = returned_in.get(value.var, api.domain)
            builtin = bundle.entity_type(api.arg(arg).entity_type).kind == BUILTIN
            if domain != api.domain and not builtin:
                found.append(f"{call.api}.{arg}={value}")
        returned_in[call.return_var] = api.domain
    return found


def test_user_entity_acts_always_name_their_role(
    flow_bundle, flow_seed, chain_bundle, two_domain_bundle
):
    """Whatever the policy knobs, self-play completes, and every user entity
    act carries the api and arg it refers to, an api the user has already
    named or affirmed: the system routes informs and denies by that role to
    the api's frame, and never makes a frame for one. No call binds a
    non-builtin value that another domain's API returned."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cases = [
        (flow_bundle, [flow_seed]),
        (chain_bundle, parse_corpus(CHAIN_SEED, chain_bundle)),
        (two_domain_bundle, parse_corpus(TWO_DOMAIN_SEED, two_domain_bundle)),
        (two_domain_bundle, parse_corpus(TWO_DOMAIN_USER_MOVIE_SEED, two_domain_bundle)),
    ]
    probability = st.sampled_from([0.0, 0.15, 0.5, 1.0]) | st.floats(0, 1)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(
        probability, probability, probability, probability, st.integers(1, 4), st.integers(0, 99)
    )
    def check(p_correct, p_offer, failure, multi_act_p, max_acts, seed):
        config = GenerationConfig(
            n_dialogs=6, rng_seed=seed, p_correct=p_correct, p_offer=p_offer,
            api_failure_rate=failure, multi_act_p=multi_act_p, max_acts_per_turn=max_acts,
        )
        for bundle, seeds in cases:
            for dialog in run_batch(bundle, seeds, config).dialogs:
                named = set()
                for act in (a for t in dialog.turns if isinstance(t, UserUtterance)
                            for a in t.acts):
                    if act.intent is not None and act.name in ("inform", "affirm"):
                        named.add(act.intent)
                    elif act.entity is not None:
                        assert act.api in named and act.arg is not None, act
                assert _cross_domain_bindings(bundle, dialog) == []

    check()


def _replay_by_lookup(seed, bundle, index, rng, metadata=None):
    """The reference for a planned replay: each replay resolves every lookup
    and allocates every var id itself, and builds every call and nlg turn
    anew."""
    alloc = VarAllocator()
    var_map: dict[str, str] = {}
    out = Dialog(metadata=dict(metadata or {}))
    for p in seed.turns:
        if isinstance(p, UserUtterance):
            surfaces = []
            for span in p.spans:
                value = bundle.draw(span.entity_type, rng)
                surfaces.append(span.surface if value is None else value)
            turn = realize_user(p.acts, surfaces, index, rng, alloc)
            for old, new in zip(p.spans, turn.spans):
                var_map[old.var_id] = new.var_id
            out.turns.append(turn)
        elif isinstance(p, ApiCall):
            api = bundle.api(p.api)
            new_ret = alloc.new(api.return_type)
            bindings = {}
            for arg, valref in p.bindings.items():
                if valref.var is not None:
                    bindings[arg] = ref(var_map[valref.var])
                else:
                    bindings[arg] = valref
            var_map[p.return_var] = new_ret
            out.turns.append(ApiCall(p.api, bindings, new_ret))
        else:
            resp = index.response(p.acts)
            if resp is not None:
                text = realize_response(resp, sample_response_args(resp, bundle, rng), rng)
            else:
                text = p.text
            out.turns.append(NlgResponse(text, p.acts))
    return out


def _seeded_cases(demo_bundle, demo_seeds, flow_bundle, flow_seed, catalog_return_bundle,
                  catalog_return_seeds, chain_bundle, two_domain_bundle):
    """(name, bundle, seeds) for every test schema that has seeds."""
    return [
        ("demo", demo_bundle, demo_seeds),
        ("flow", flow_bundle, [flow_seed]),
        # a call returns a catalog-kind type
        ("catalog-return", catalog_return_bundle, catalog_return_seeds),
        ("chain", chain_bundle, parse_corpus(CHAIN_SEED, chain_bundle)),
        # a user span and a call's return var share the `restaurant` var
        # prefix, so one counter numbers both
        ("two-domain", two_domain_bundle, parse_corpus(TWO_DOMAIN_SEED, two_domain_bundle)),
    ]


@pytest.mark.parametrize("stress", [False, True], ids=["default", "stress"])
def test_generated_corpora_are_valid_seeds(
    demo_bundle, demo_seeds, flow_bundle, flow_seed, catalog_return_bundle,
    catalog_return_seeds, chain_bundle, two_domain_bundle, stress,
):
    """Closure: a generated corpus, written out and read back, is itself a
    seed set that `prepare_batch` accepts, under the default policy and
    under many corrections, failures, offers and multi-act turns."""
    cases = _seeded_cases(demo_bundle, demo_seeds, flow_bundle, flow_seed,
                          catalog_return_bundle, catalog_return_seeds, chain_bundle,
                          two_domain_bundle)
    cases.append(("two-domain user movie", two_domain_bundle,
                  parse_corpus(TWO_DOMAIN_USER_MOVIE_SEED, two_domain_bundle)))
    knobs = dict(p_correct=0.6, api_failure_rate=0.5, p_offer=1.0, multi_act_p=1.0)
    config = GenerationConfig(n_dialogs=200, rng_seed=1, **(knobs if stress else {}),
                              sampler_mix={"base": 1.0, "golden": 1.0, "markov": 1.0})
    for name, bundle, seeds in cases:
        text = serialize_corpus(run_batch(bundle, seeds, config).dialogs)
        try:
            prepare_batch(bundle, parse_corpus(text, bundle), config)
        except (GenerationError, MarkupError) as err:
            pytest.fail(f"{name}: {err}")


def test_a_planned_replay_equals_the_replay_by_lookup(
    demo_bundle, demo_seeds, flow_bundle, flow_seed, catalog_return_bundle,
    catalog_return_seeds, chain_bundle, two_domain_bundle,
):
    """For every seed and drawn RNG seed, playing the seed's plan gives the
    dialog, the text and the RNG state that the replay by lookup gives."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cases = _seeded_cases(demo_bundle, demo_seeds, flow_bundle, flow_seed,
                          catalog_return_bundle, catalog_return_seeds, chain_bundle,
                          two_domain_bundle)
    config = GenerationConfig(sampler_mix={"base": 1.0})
    contexts = [prepare_batch(bundle, seeds, config) for _, bundle, seeds in cases]
    assert {len(ctx.seeds) for ctx in contexts} > {1}

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(0, 2**64))
    def check(rng_seed):
        for ctx in contexts:
            for pick, seed in enumerate(ctx.seeds):
                metadata = {"dialog": str(rng_seed)}
                expected_rng, rng = Random(rng_seed), Random(rng_seed)
                expected = _replay_by_lookup(seed, ctx.bundle, ctx.index, expected_rng, metadata)
                got = run_base_dialog(ctx.replay_plan(pick), ctx.index, rng, metadata)
                assert got == expected
                assert serialize_dialog(got) == serialize_dialog(expected)
                assert rng.random() == expected_rng.random()

    check()
    book = contexts[-1].replay_plan(0)[-2]
    assert str(book) == "BookTable(when=$time0,place=$restaurant0) -> restaurant1"


def test_replays_of_one_seed_share_their_call_turns(demo_bundle, demo_seeds):
    """In a base-only batch, every replay of a seed holds that seed's call
    turns themselves, so the export's row memo meets each once; the export
    of the batch equals the export of its parsed corpus."""
    config = GenerationConfig(n_dialogs=200, sampler_mix={"base": 1.0}, rng_seed=3)
    dialogs = run_batch(demo_bundle, demo_seeds, config).dialogs
    calls: dict[str, list[int]] = {}
    for dialog in dialogs:
        ids = [id(t) for t in dialog.turns if isinstance(t, ApiCall)]
        assert calls.setdefault(dialog.metadata["source_seed"], ids) == ids
    assert len(calls) == len(demo_seeds)
    index = build_template_index(demo_bundle, [])
    parsed = parse_corpus(serialize_corpus(dialogs), demo_bundle)

    def jsonl(corpus):
        examples = export_training(corpus, demo_bundle, index)
        return [e.to_json() for kind in sorted(examples) for e in examples[kind]]

    assert jsonl(dialogs) == jsonl(parsed)


def test_interleaved_batches_match_batches_run_alone(tmp_path, capsys, demo_schema_text,
                                                     demo_seeds_text, demo_bundle, demo_seeds):
    """Replay plans belong to their batch: a batch starts with none and
    keeps each one it builds, and replay batches on two schemas, run in
    turn in one process, give the bytes each gives alone in a fresh
    process."""
    config = GenerationConfig(n_dialogs=1, sampler_mix={"base": 1.0})
    ctx = prepare_batch(demo_bundle, demo_seeds, config)
    assert ctx.plans == {}
    dialog, _ = generate_one(ctx, 0)
    (pick,) = ctx.plans
    assert dialog.metadata["source_seed"] == ctx.seeds[pick].metadata["id"]
    assert prepare_batch(demo_bundle, demo_seeds, config).plans == {}
    from conftest import CATALOG_RETURN_SCHEMA, CATALOG_RETURN_SEED

    commands = []
    for name, schema, seeds in [("demo", demo_schema_text, demo_seeds_text),
                                ("catalog-return", CATALOG_RETURN_SCHEMA, CATALOG_RETURN_SEED)]:
        (tmp_path / f"{name}.json").write_text(schema, encoding="utf-8")
        (tmp_path / f"{name}.txt").write_text(seeds, encoding="utf-8")
        commands.append(["generate", "--schema", str(tmp_path / f"{name}.json"),
                         "--seeds", str(tmp_path / f"{name}.txt"),
                         "--mix", "base=1", "--n", "40", "--seed", "8"])
    env = dict(os.environ, PYTHONPATH=str(Path(dialogsim.__file__).parents[1]))
    alone = []
    for command in commands:
        proc = subprocess.run([sys.executable, "-m", "dialogsim.cli", *command],
                              capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        alone.append(proc.stdout.decode("utf-8"))
    for _ in range(3):
        for command, expected in zip(commands, alone):
            assert main(command) == 0
            assert capsys.readouterr().out == expected


def test_sampled_goals_need_no_second_validation(
    demo_bundle, demo_seeds, flow_bundle, flow_seed, catalog_return_bundle,
    catalog_return_seeds, chain_bundle, two_domain_bundle,
):
    """`generate_one` plays golden and Markov goals without `validate_goal`:
    each sampler returns only goals that it accepts."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    cases = _seeded_cases(demo_bundle, demo_seeds, flow_bundle, flow_seed,
                          catalog_return_bundle, catalog_return_seeds, chain_bundle,
                          two_domain_bundle)
    contexts = [prepare_batch(bundle, seeds, GenerationConfig()) for _, bundle, seeds in cases]

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(0, 2**64), st.integers(1, 8))
    def check(rng_seed, max_len):
        rng = Random(rng_seed)
        for ctx in contexts:
            golden = sample_golden(ctx.goals, ctx.bundle, rng)
            markov = sample_markov(ctx.model, ctx.bundle, rng, max_len=max_len)
            assert validate_goal(golden, ctx.bundle) == []
            assert validate_goal(markov, ctx.bundle) == []

    check()
