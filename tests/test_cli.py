import ast
import functools
import hashlib
import importlib
import json
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import dialogsim
import test_engine
from dialogsim import acts, engine
from dialogsim.cli import main
from dialogsim.markup import lit, parse_corpus, serialize_corpus
from dialogsim.schema import load_schema


@pytest.fixture(scope="module")
def data_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    schema = root / "schema.json"
    seeds = root / "seeds.txt"
    schema.write_text(
        (resources.files("dialogsim.data") / "demo_schema.json").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    seeds.write_text(
        (resources.files("dialogsim.data") / "demo_seeds.txt").read_text(encoding="utf-8"),
        encoding="utf-8",
    )
    return schema, seeds


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_is_deterministic(data_paths, tmp_path):
    schema, seeds = data_paths
    out1, out2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
    args = ["generate", "--schema", str(schema), "--seeds", str(seeds),
            "--n", "50", "--mix", "golden=0.4,markov=0.6", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert _sha(out1) == _sha(out2)
    assert out1.read_text(encoding="utf-8").count("U-1:") == 50


def test_generate_single_dialog(data_paths, tmp_path, capsys):
    schema, seeds = data_paths
    assert main(["generate", "--schema", str(schema), "--seeds", str(seeds), "--n", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# sampler=")


def test_metrics_subcommand(data_paths, tmp_path):
    schema, seeds = data_paths
    corpus = tmp_path / "corpus.txt"
    main(["generate", "--schema", str(schema), "--seeds", str(seeds),
          "--n", "40", "--seed", "3", "--out", str(corpus)])
    report_path = tmp_path / "report.json"
    assert main(["metrics", "--schema", str(schema), "--out", str(report_path), str(corpus)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["n_dialogs"] == 40
    assert 0 < report["fraction_unique"] <= 1
    # a leading block of comment lines is not a dialog
    headed = tmp_path / "headed.txt"
    headed.write_text("# header comment\n\n" + corpus.read_text(encoding="utf-8"), encoding="utf-8")
    headed_report = tmp_path / "headed.json"
    assert main(["metrics", "--schema", str(schema), "--out", str(headed_report), str(headed)]) == 0
    assert headed_report.read_bytes() == report_path.read_bytes()


def test_export_training_files(data_paths, tmp_path):
    schema, seeds = data_paths
    corpus = tmp_path / "corpus.txt"
    main(["generate", "--schema", str(schema), "--seeds", str(seeds),
          "--n", "20", "--seed", "4", "--out", str(corpus)])
    out_dir = tmp_path / "train"
    assert main(["export-training", "--schema", str(schema), "--out", str(out_dir), str(corpus)]) == 0
    for kind in ("ner", "action_prediction", "argument_filling"):
        path = out_dir / f"{kind}.jsonl"
        assert path.exists()
        rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert rows and all(r["kind"] == kind for r in rows)


def test_validate_ok(data_paths):
    schema, seeds = data_paths
    assert main(["validate", "--schema", str(schema), "--seeds", str(seeds)]) == 0


def test_validate_dangling_reference(data_paths, tmp_path, capsys):
    schema, _ = data_paths
    doc = json.loads(schema.read_text(encoding="utf-8"))
    doc["domains"][0]["entity_types"] = [
        t for t in doc["domains"][0]["entity_types"] if t["name"] != "showInfo"
    ]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--schema", str(broken)]) == 1
    assert "showInfo" in capsys.readouterr().out


def test_validate_warns_on_uncovered_signature(data_paths, tmp_path, capsys):
    schema, seeds = data_paths
    doc = json.loads(schema.read_text(encoding="utf-8"))
    doc["domains"][0]["utterance_templates"] = [
        u for u in doc["domains"][0]["utterance_templates"]
        if "inform(entity:theater)" not in u["acts"]
    ]
    trimmed = tmp_path / "trimmed.json"
    trimmed.write_text(json.dumps(doc), encoding="utf-8")
    # no seed informs a bare theater value either, so the signature is bare
    assert main(["validate", "--schema", str(trimmed), "--seeds", str(seeds)]) == 0
    assert "inform(entity:theater)" in capsys.readouterr().out


def test_fit_dump_reloads(data_paths, tmp_path):
    schema, seeds = data_paths
    model_path = tmp_path / "model.json"
    assert main(["fit", "--schema", str(schema), "--seeds", str(seeds),
                 "--out", str(model_path)]) == 0
    doc = json.loads(model_path.read_text(encoding="utf-8"))
    assert doc["start"] == {"FindMovies": 0.8, "SelectShow": 0.2}
    assert doc["transition"]["BookTickets"] == {"END": 1.0}
    # the dump is usable for generation
    out = tmp_path / "from_model.txt"
    assert main(["generate", "--schema", str(schema), "--seeds", str(seeds),
                 "--n", "5", "--seed", "1", "--model", str(model_path),
                 "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").count("U-1:") == 5


def test_fit_without_out_writes_the_model_to_stdout(data_paths, tmp_path, capsys):
    schema, seeds = data_paths
    model_path = tmp_path / "model.json"
    args = ["fit", "--schema", str(schema), "--seeds", str(seeds)]
    assert main(args + ["--out", str(model_path)]) == 0
    assert main(args) == 0
    assert capsys.readouterr().out == model_path.read_text(encoding="utf-8")


def test_missing_schema_is_error(tmp_path, capsys):
    assert main(["validate", "--schema", str(tmp_path / "nope.json")]) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["generate"])  # --schema/--seeds required
    assert err.value.code == 2


def test_module_run_prints_the_usage():
    # `python -m dialogsim.cli` reaches the module's `__main__` guard
    env = dict(os.environ, PYTHONPATH=str(Path(dialogsim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "dialogsim.cli", "--help"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: dialogsim [-h] {generate,metrics,export-training,")


def _assert_one_error_line(err):
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert not lines[0].startswith("error: error:"), err


def _renumber(text):
    """Number each dialog's turn lines 1, 2, ... in order."""
    lines, n = [], 0
    for line in text.splitlines():
        m = re.match(r"([US])-\d+:", line)
        if m:
            n += 1
            line = f"{m[1]}-{n}:{line[m.end():]}"
        elif not line.strip():
            n = 0
        lines.append(line)
    return "\n".join(lines) + "\n"


# every file argument of every subcommand
FILE_ARGS = [
    ("validate", "--schema"), ("validate", "--seeds"),
    ("generate", "--schema"), ("generate", "--seeds"), ("generate", "--config"),
    ("generate", "--model"),
    ("metrics", "--schema"), ("metrics", "corpus"),
    ("export-training", "--schema"), ("export-training", "corpus"),
    ("fit", "--schema"), ("fit", "--seeds"),
]


def _file_argv(command, files, out_dir):
    """`command`'s arguments, reading each file argument from `files` and
    writing into `out_dir`."""
    argv = [command, "--schema", str(files["--schema"])]
    if command in ("validate", "generate", "fit"):
        argv += ["--seeds", str(files["--seeds"])]
    if command == "generate":
        argv += ["--n", "1"]
    argv += [a for arg in ("--config", "--model") if arg in files for a in (arg, str(files[arg]))]
    if command in ("metrics", "export-training"):
        argv += ["--out", str(out_dir / command), str(files["corpus"])]
    return argv


@pytest.mark.parametrize("command, arg", FILE_ARGS)
@pytest.mark.parametrize(
    "data",
    [b"\xff\xfe{}", "# id=caf\xe9\nU-1: hi".encode("latin-1")],
    ids=["utf-16-bom", "latin-1"],
)
def test_input_that_is_not_utf8_is_one_diagnostic(data_paths, tmp_path, capsys, command, arg,
                                                  data):
    schema, seeds = data_paths
    bad = tmp_path / "bad"
    bad.write_bytes(data)
    files = {"--schema": schema, "--seeds": seeds, "corpus": seeds, arg: bad}
    assert main(_file_argv(command, files, tmp_path)) == 1
    captured = capsys.readouterr()
    assert f"{bad} is not UTF-8 text" in captured.out + captured.err
    if command in ("generate", "metrics", "export-training"):
        assert captured.out == ""
        _assert_one_error_line(captured.err)


def test_utf8_byte_order_mark_is_read_past(data_paths, tmp_path, capsys):
    # as some editors save UTF-8; the UTF-16 mark above stays an error
    schema, seeds = data_paths
    marked = {}
    for path in (schema, seeds):
        marked[path] = tmp_path / path.name
        marked[path].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    outputs = []
    for schema_path, seeds_path in [(schema, seeds), (marked[schema], marked[seeds])]:
        assert main(["generate", "--schema", str(schema_path), "--seeds", str(seeds_path),
                     "--n", "30", "--seed", "3", "--mix", "base=1,golden=1,markov=1"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[0].out.count("U-1:") == 30


def test_any_input_bytes_end_in_one_diagnostic(data_paths, tmp_path, capsys):
    """Whatever bytes a file argument holds, the command exits without a
    traceback, and generate, metrics and export-training fail with one
    `error:` line. A draw may leave the file valid (an edit inside a
    comment, an empty corpus to export), so exit 0 is allowed."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    schema, seeds = data_paths
    corpus, model, bad = tmp_path / "corpus.txt", tmp_path / "model.json", tmp_path / "bad"
    inputs = ["--schema", str(schema), "--seeds", str(seeds)]
    assert main(["generate", *inputs, "--n", "3", "--out", str(corpus)]) == 0
    assert main(["fit", *inputs, "--out", str(model)]) == 0
    capsys.readouterr()
    files = {"--schema": schema, "--seeds": seeds, "corpus": corpus}
    valid = {arg: path.read_text(encoding="utf-8") for arg, path in files.items()}
    valid["--model"] = model.read_text(encoding="utf-8")
    valid["--config"] = json.dumps({"p_correct": 0.2, "sampler_mix": {"golden": 1}})
    end_start = dict(json.loads(valid["--model"]), start={"END": 1.0})

    json_value = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text("ENDab", max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.text("ENDab", max_size=4), inner, max_size=3),
        max_leaves=8,
    )

    def mutated(text):
        # a span of the valid markup replaced by markup punctuation
        edit = st.tuples(st.integers(0, len(text)), st.integers(0, 16),
                         st.text('[]{}|:,"$()=\n#-.09 aEND', max_size=6))
        return edit.map(lambda e: text[: e[0]] + e[2] + text[e[0] + e[1]:])

    def replaced(text):
        # the value at a drawn path into the valid JSON replaced: valid JSON
        # of the wrong shape
        def apply(edit):
            path, value = edit
            doc = json.loads(text)
            node, slot = doc, None
            for step in path:
                if not isinstance(node, (dict, list)) or not node:
                    break
                keys = list(node) if isinstance(node, dict) else range(len(node))
                slot = (node, keys[step % len(keys)])
                node = node[slot[1]]
            if slot is None:
                return json.dumps(value)
            slot[0][slot[1]] = value
            return json.dumps(doc)

        return st.tuples(st.lists(st.integers(0, 99), max_size=7), json_value).map(apply)

    deep = st.tuples(st.sampled_from(["[", '{"a": ', "U-1: ["]),
                     st.sampled_from([2, 100, 100_000])).map(lambda t: t[0] * t[1])

    def contents(arg):
        edits = mutated(valid[arg]) if arg in ("--seeds", "corpus") else replaced(valid[arg])
        text = st.one_of(edits, json_value.map(json.dumps), deep).map(str.encode)
        return st.one_of(
            st.binary(max_size=64),  # mostly not UTF-8
            text,
            text.map(lambda b: b"\xef\xbb\xbf" + b),  # a byte-order mark
            st.tuples(text, st.integers(0, 4000)).map(lambda t: t[0][: t[1]] + b"\0" + t[0][t[1]:]),
        )

    cases = st.sampled_from(FILE_ARGS).flatmap(lambda ca: st.tuples(st.just(ca), contents(ca[1])))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(cases)
    @hypothesis.example((("generate", "--model"), json.dumps(end_start).encode()))
    @hypothesis.example((("generate", "--config"), b'{"n_dialogs": ' + b"1" * 5000 + b"}"))
    @hypothesis.example((("generate", "--schema"), b"1" * 5000))
    def check(case):
        (command, arg), data = case
        bad.write_bytes(data)
        code = main(_file_argv(command, {**files, arg: bad}, tmp_path))
        captured = capsys.readouterr()
        assert code in (0, 1) and "Traceback" not in captured.out + captured.err
        if code == 1 and command in ("generate", "metrics", "export-training"):
            assert captured.out == ""
            _assert_one_error_line(captured.err)

    check()


LITERAL_SEED = """\
# id=seed-literal
U-1: Any movies in [Berkeley|location0] tonight?
S-2: call: FindMovies(location=$location0,timeLowerBound="6 PM") -> movieList0
S-3: nlg: Here is the list for tonight |acts: inform(entity:movieList)
U-4: Thanks bye
S-5: nlg: Thank you for using Atom Tickets
"""


def test_replay_keeps_literal_args_and_unmatched_nlg_lines(data_paths, tmp_path, capsys):
    # a quoted literal is not a var to remap, and an nlg line whose acts no
    # response template carries has no template to redraw: replay keeps both
    schema, _ = data_paths
    seeds = tmp_path / "seeds.txt"
    seeds.write_text(LITERAL_SEED, encoding="utf-8")
    assert main(["generate", "--schema", str(schema), "--seeds", str(seeds),
                 "--n", "20", "--mix", "base=1"]) == 0
    corpus = capsys.readouterr().out
    bundle = load_schema(schema)
    dialogs = parse_corpus(corpus, bundle)
    assert len(dialogs) == 20
    for dialog in dialogs:
        call, nlg = dialog.turns[1:3]
        assert call.bindings["timeLowerBound"] == lit("6 PM")
        assert nlg.text == "Here is the list for tonight"
    assert serialize_corpus(dialogs) == corpus
    assert corpus.count('timeLowerBound="6 PM") -> movieList0\n') == 20


def test_seed_without_calls_is_logged_by_its_id(data_paths, tmp_path, capsys, caplog):
    schema, seeds = data_paths
    chat = tmp_path / "seeds.txt"
    chat.write_text("# id=chat\nU-1: hello\nS-2: nlg: Thank you for using Atom Tickets\n\n"
                    + seeds.read_text(encoding="utf-8"), encoding="utf-8")
    argv = ["generate", "--schema", str(schema), "--seeds", str(chat), "--n", "3"]
    assert main(argv) == 0
    assert capsys.readouterr().err.startswith('{"corrections": ')  # the stats line alone
    assert [r.getMessage() for r in caplog.records] == ["seed 'chat' has no API calls; skipped"]
    # outside pytest, whose handlers catch every record, nothing reaches stderr
    # but the stats line
    env = dict(os.environ, PYTHONPATH=str(Path(dialogsim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "dialogsim.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith('{"corrections": ')


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc.update(start={"NoSuchApi": 1.0}),
        lambda doc: doc.update(start={"END": 1.0}),
        lambda doc: doc["transition"]["FindMovies"].update(NoSuchApi=0.5),
        lambda doc: doc["transition"].update(NoSuchApi={"END": 1.0}),
        lambda doc: doc["binding_stats"].update(NoSuchApi={}),
        lambda doc: doc.pop("start"),
        None,
        lambda doc: doc.update(start={}),
        lambda doc: doc.update(start={"FindMovies": 0.0, "SelectShow": 0}),
        lambda doc: doc.update(start={"FindMovies": -1.0, "SelectShow": 2.0}),
        lambda doc: doc.update(start={"FindMovies": "1"}),
        lambda doc: doc["transition"].update(
            FindMovies={k: 0.0 for k in doc["transition"]["FindMovies"]}
        ),
        lambda doc: [st.update(occurrences="9")
                     for args in doc["binding_stats"].values() for st in args.values()],
    ],
    ids=["start", "start-end", "transition-target", "transition-row", "binding-stats",
         "missing-key", "not-json", "start-empty", "start-zero", "start-negative",
         "start-not-number", "transition-zero", "count-not-integer"],
)
def test_generate_rejects_bad_model(data_paths, tmp_path, capsys, edit):
    schema, seeds = data_paths
    model_path = tmp_path / "model.json"
    assert main(["fit", "--schema", str(schema), "--seeds", str(seeds),
                 "--out", str(model_path)]) == 0
    if edit is None:
        model_path.write_text("{not json", encoding="utf-8")
    else:
        doc = json.loads(model_path.read_text(encoding="utf-8"))
        edit(doc)
        model_path.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert main(["generate", "--schema", str(schema), "--seeds", str(seeds),
                 "--n", "5", "--model", str(model_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)


def test_generate_bad_mix_is_usage_error(data_paths, capsys):
    schema, seeds = data_paths
    with pytest.raises(SystemExit) as err:
        main(["generate", "--schema", str(schema), "--seeds", str(seeds), "--mix", "golden"])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "--mix" in stderr and "Traceback" not in stderr


def test_generate_malformed_config(data_paths, tmp_path, capsys):
    schema, seeds = data_paths
    config = tmp_path / "config.json"
    config.write_text('{"p_correct": 0.0,', encoding="utf-8")
    assert main(["generate", "--schema", str(schema), "--seeds", str(seeds),
                 "--config", str(config)]) == 1
    _assert_one_error_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "doc",
    [
        {"n_dialogs": "5"},
        {"n_dialogs": True},
        {"max_turns": 2.5},
        {"p_correct": "high"},
        {"p_correct": None},
        {"sampler_mix": [1]},
        {"sampler_mix": {"golden": "1"}},
        {"sampler_mix": {"golden": True, "markov": 1}},
    ],
    ids=["int-as-string", "int-as-bool", "int-as-float", "float-as-string", "float-as-null",
         "mix-not-object", "mix-string-weight", "mix-bool-weight"],
)
def test_generate_rejects_config_value_type(data_paths, tmp_path, capsys, doc):
    schema, seeds = data_paths
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["generate", "--schema", str(schema), "--seeds", str(seeds),
                 "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)
    assert repr(next(iter(doc))) in captured.err


@pytest.mark.parametrize("mix", ["golden=nan,markov=1", "golden=inf"], ids=["nan", "inf"])
def test_generate_rejects_non_finite_mix(data_paths, capsys, mix):
    schema, seeds = data_paths
    assert main(["generate", "--schema", str(schema), "--seeds", str(seeds),
                 "--n", "5", "--mix", mix]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)


@pytest.mark.parametrize("command", ["metrics", "export-training", "generate"])
def test_bad_acts_suffix_is_one_error_line(data_paths, tmp_path, capsys, command):
    schema, _ = data_paths
    corpus = tmp_path / "bad.txt"
    corpus.write_text("U-1: hello |acts: frobnicate()\n", encoding="utf-8")
    if command == "generate":
        args = [command, "--schema", str(schema), "--seeds", str(corpus), "--n", "1"]
    else:
        args = [command, "--schema", str(schema), "--out", str(tmp_path / "out"), str(corpus)]
    assert main(args) == 1
    err = capsys.readouterr().err
    _assert_one_error_line(err)
    assert "line 1" in err and "frobnicate" in err


@pytest.mark.parametrize(
    "domain_edit",
    [
        lambda dom: dom["utterance_templates"].append(
            {"acts": ["inform(entity:location)"], "template": "around {the location}"}
        ),
        lambda dom: dom["response_templates"][1]["templates"].append("{ticketType} tickets}"),
    ],
    ids=["utterance-slot-with-space", "response-stray-brace"],
)
def test_template_brace_outside_slot(data_paths, tmp_path, capsys, domain_edit):
    schema, seeds = data_paths
    doc = json.loads(schema.read_text(encoding="utf-8"))
    domain_edit(doc["domains"][0])
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--schema", str(broken)]) == 1
    assert "brace outside a {slot}" in capsys.readouterr().out
    assert main(["generate", "--schema", str(broken), "--seeds", str(seeds),
                 "--n", "200", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)


@pytest.mark.parametrize(
    "domain_edit",
    [
        lambda dom: dom["utterance_templates"][0].update(template="I want to see a [new] movie"),
        lambda dom: dom["response_templates"][2]["templates"].append("Booked.\nEnjoy!"),
    ],
    ids=["utterance-bracket", "response-line-break"],
)
def test_template_the_markup_cannot_carry(data_paths, tmp_path, capsys, domain_edit):
    schema, seeds = data_paths
    doc = json.loads(schema.read_text(encoding="utf-8"))
    domain_edit(doc["domains"][0])
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["generate", "--schema", str(broken), "--seeds", str(seeds),
                 "--n", "200", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)
    assert "template" in captured.err


def test_response_without_acts_is_rejected(data_paths, tmp_path, capsys):
    # its nlg lines would carry no acts, and `metrics` on the corpus failed
    schema, seeds = data_paths
    doc = json.loads(schema.read_text(encoding="utf-8"))
    (response,) = [
        r for r in doc["domains"][0]["response_templates"] if r["name"] == "announce_booking"
    ]
    response["acts"] = []
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", "--schema", str(broken)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "declares no acts" in lines[0]
    assert main(["generate", "--schema", str(broken), "--seeds", str(seeds),
                 "--n", "50", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)


def _with_find_movies_copy(name, arg=None):
    """A domain edit that adds a copy of FindMovies named `name`, its
    required location arg renamed `arg` when given."""
    def edit(dom):
        api = json.loads(json.dumps(dom["apis"][0]))
        api["name"] = name
        if arg is not None:
            api["args"][0]["name"] = arg
        dom["apis"].append(api)
    return edit


def test_names_with_underscores_round_trip(data_paths, tmp_path):
    schema, seeds = data_paths
    doc = json.loads(schema.read_text(encoding="utf-8"))
    _with_find_movies_copy("Find_Movies", "city_name")(doc["domains"][0])
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(doc), encoding="utf-8")
    files = ["--schema", str(schema_path), "--seeds", str(seeds)]
    model_path, corpus = tmp_path / "model.json", tmp_path / "corpus.txt"
    assert main(["validate", *files]) == 0
    assert main(["fit", *files, "--out", str(model_path)]) == 0
    model = json.loads(model_path.read_text(encoding="utf-8"))
    model["start"]["Find_Movies"] = 1.0
    model["transition"]["Find_Movies"] = {"SelectShow": 1.0}
    model_path.write_text(json.dumps(model), encoding="utf-8")
    assert main(["generate", *files, "--n", "20", "--mix", "markov=1", "--model",
                 str(model_path), "--out", str(corpus)]) == 0
    text = corpus.read_text(encoding="utf-8")
    assert "inform(intent:Find_Movies)" in text and "call: Find_Movies(city_name=$" in text
    assert main(["metrics", "--schema", str(schema_path), "--out", str(tmp_path / "m.json"),
                 str(corpus)]) == 0


def _in_domain(edit):
    """A whole-document edit that applies `edit` to the first domain."""
    return lambda doc: (edit(doc["domains"][0]), doc)[1]


@pytest.mark.parametrize(
    "edit",
    [
        _in_domain(lambda dom: dom["response_templates"].append(
            dict(dom["response_templates"][2], templates=["Booked, see you there!"])
        )),
        _in_domain(lambda dom: dom["utterance_templates"][5].update(template="in {city}")),
        _in_domain(lambda dom: dom["utterance_templates"][6].update(template="after {Time2}")),
        lambda doc: [],
        _in_domain(lambda dom: dom.update(apis="x")),
        _in_domain(lambda dom: dom["apis"][0]["args"][1].update(required="false")),
        _in_domain(lambda dom: dom["entity_types"][0]["catalog"].append(7)),
        # names the act and call grammar cannot read back: an API named
        # 'Find Movies' would generate a corpus that `metrics` cannot parse,
        # at `inform(intent:Find Movies)`
        _in_domain(_with_find_movies_copy("Find Movies")),
        _in_domain(_with_find_movies_copy("Find.Movies")),
        _in_domain(_with_find_movies_copy("FindMovies2", "city name")),
        _in_domain(_with_find_movies_copy("FindMovies2", "at=noon")),
        _in_domain(_with_find_movies_copy("FindMovies2", "_city")),
        # the goal model's terminal state: no seed set could use the schema
        _in_domain(_with_find_movies_copy("END")),
    ],
    ids=["duplicate-response-name", "slot-of-no-type", "slot-of-no-repeat", "top-level-list",
         "apis-string", "required-string", "catalog-number", "api-name-space", "api-name-dot",
         "arg-name-space", "arg-name-equals", "arg-name-underscore-first", "api-named-end"],
)
def test_schema_error_ends_in_diagnostics(data_paths, tmp_path, capsys, edit):
    schema, seeds = data_paths
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(edit(json.loads(schema.read_text(encoding="utf-8")))),
                      encoding="utf-8")
    assert main(["validate", "--schema", str(broken)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("error: ") for line in lines), lines
    assert main(["generate", "--schema", str(broken), "--seeds", str(seeds),
                 "--n", "100", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)


@pytest.mark.parametrize("source", ["schema", "config", "model"])
def test_schema_nested_too_deeply_is_diagnosed(data_paths, tmp_path, capsys, source):
    schema, seeds = data_paths
    deep = tmp_path / "deep.json"
    deep.write_text('{"domains": ' + "[" * 100_000, encoding="utf-8")
    args = ["generate", "--schema", str(schema), "--seeds", str(seeds), "--n", "1"]
    if source == "schema":
        assert main(["validate", "--schema", str(deep)]) == 1
        assert capsys.readouterr().out == "error: schema: nested too deeply\n"
        args[2] = str(deep)
    else:
        args += [f"--{source}", str(deep)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)
    assert "nested too deeply" in captured.err


@pytest.mark.parametrize(
    "old, new, where",
    [
        ("|acts: inform(entity:location),inform(entity:Time)",
         "|acts: inform(entity:Time),inform(entity:location)", "'seed-elicited' turn 3"),
        ("|acts: inform(entity:location),inform(entity:Time)",
         "|acts: inform(entity:location)", "'seed-elicited' turn 3"),
        ("[adult|ticketType0] tickets for this show",
         "[adult|ticketType0] tickets for {this} show", "'seed-book-basic' turn 7"),
        # the slot matches the acts, but no span carries its value
        ("U-12: Thanks bye\n", "U-12: Thanks bye at {Time} |acts: inform(entity:Time)\n",
         "'seed-elicited' turn 12"),
        # mid-dialog, it triggers no call and holds no span, so it has no acts
        ("S-3: nlg: Tenet is playing at AMC Theater at 4 PM\n",
         "S-3: nlg: Tenet is playing at AMC Theater at 4 PM\n"
         "U-0: Hmm, sounds nice\nS-0: nlg: Anything else?\n", "'seed-book-basic' turn 4"),
        # mid-dialog, it follows no call, so it has no acts
        (" |acts: request(entity:location)", "", "'seed-elicited' turn 2"),
        # the seed's goal leaves a required arg unbound
        ("count=$count0,ticketType=$ticketType0) -> bookingRef0\nU-9",
         "ticketType=$ticketType0) -> bookingRef0\nU-9", "'seed-book-basic'"),
        # golden sampling would redraw the literal from movieList's catalog,
        # and an object kind has none
        ("U-4: Tell me more about the [4 PM|time1] show of [Tenet|movieTitle0]\n"
         "S-5: call: SelectShow(showTime=$time1,movieTitle=$movieTitle0,movies=$movieList0)",
         "U-4: Tell me more about the 4 PM show of Tenet\n"
         'S-5: call: SelectShow(showTime="4 PM",movieTitle="Tenet",movies="someList")',
         "object-kind type 'movieList' cannot appear as a user value (turn 5)"),
    ],
    ids=["informs-swapped", "inform-dropped", "slot-in-text", "slot-without-span",
         "user-turn-without-acts", "nlg-turn-without-acts", "call-without-required-arg",
         "object-literal"],
)
def test_seed_turn_is_held_to_the_template_rule(data_paths, tmp_path, capsys, old, new, where):
    schema, seeds = data_paths
    text = seeds.read_text(encoding="utf-8")
    assert text.count(old) == 1
    broken = tmp_path / "seeds.txt"
    broken.write_text(_renumber(text.replace(old, new)), encoding="utf-8")
    inputs = ["--schema", str(schema), "--seeds", str(broken)]
    generate = ["generate", *inputs, "--n", "200"]
    for args in (generate, generate + ["--mix", "base=1"], ["fit", *inputs]):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        _assert_one_error_line(captured.err)
        assert where in captured.err
    assert main(["validate", *inputs]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    _assert_one_error_line(captured.out)
    assert where in captured.out


@pytest.mark.parametrize("corpus", ["seeds", "empty"])
def test_metrics_bad_corpus_is_one_error_line(data_paths, tmp_path, capsys, corpus):
    # the packaged seeds carry no acts on their turns; an empty file has no
    # dialogs to report on
    schema, seeds = data_paths
    path = seeds if corpus == "seeds" else tmp_path / "empty.txt"
    if corpus == "empty":
        path.write_text("", encoding="utf-8")
    assert main(["metrics", "--schema", str(schema), str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)


@pytest.mark.parametrize(
    "doc",
    [
        {"max_turns": 0},
        {"workers": 0},
        {"workers": -1},
        {"max_acts_per_turn": 0},
        {"max_len": 0},
        {"max_attempts": 0},
        {"max_corrections": -1},
        {"p_correct": 7},
        {"p_correct": -0.5},
        {"multi_act_p": 1.5},
        {"api_failure_rate": 2.0},
        {"p_offer": -1},
    ],
    ids=lambda doc: "%s=%s" % next(iter(doc.items())),
)
def test_generate_rejects_config_value_range(data_paths, tmp_path, capsys, doc):
    schema, seeds = data_paths
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["generate", "--schema", str(schema), "--seeds", str(seeds),
                 "--n", "3", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)
    assert next(iter(doc)) in captured.err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_generate_rejects_workers_flag_below_one(data_paths, capsys, workers):
    schema, seeds = data_paths
    assert main(["generate", "--schema", str(schema), "--seeds", str(seeds),
                 "--n", "3", "--workers", workers]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)
    assert "workers" in captured.err


# SHA-256 of the CLI output for the demo schema and seeds at --n 300 --seed 42.
# A change that alters output on purpose updates these digests and says why.
GOLDEN = {
    "generate": "d325c572622c798f6210508e40780a3381fb65fa84ebe8b45f06213b4858392d",
    "generate --mix base=1": "f5a48f1adb9a3a800902f28de7d1098e4e29793ed41593f06bd2a4ce946be718",
    "generate p_correct=0": "d683e12d57a391a151aacbaaea46299dc52345b83e7a3ea06f97a75c033146df",
    "generate stress": "82faf6bc70e813fec2c48969893ef07aa9ba1523749f5f54c5a6b0158bbd3a77",
    "generate max_turns=12": "67201687bae863f62103e4a0b2c156c6cad7640294b14c369a692c9f97313320",
    "export-training": "f1e0223763c6149dfd28cd63836a8c47ab3eeb10a3eef3fe5d38931004e240ed",
    "metrics": "e876f2ec49e10f65b1c0a5e85ff77e985550d82e671c5887bddd98d68ccaf704",
}
# the stderr stats line of each generate row, verbatim
STATS_LINES = {
    "generate": (
        '{"corrections": 210, "abandonments": 41, "offers_made": 172, "offers_accepted": 121,'
        ' "truncations": 0, "base": 0, "golden": 122, "markov": 178}'
    ),
    "generate --mix base=1": (
        '{"corrections": 0, "abandonments": 0, "offers_made": 0, "offers_accepted": 0,'
        ' "truncations": 0, "base": 300, "golden": 0, "markov": 0}'
    ),
    "generate p_correct=0": (
        '{"corrections": 0, "abandonments": 40, "offers_made": 183, "offers_accepted": 129,'
        ' "truncations": 0, "base": 0, "golden": 122, "markov": 178}'
    ),
    "generate stress": (
        '{"corrections": 397, "abandonments": 266, "offers_made": 331, "offers_accepted": 218,'
        ' "truncations": 0, "base": 0, "golden": 122, "markov": 178}'
    ),
    "generate max_turns=12": (
        '{"corrections": 149, "abandonments": 29, "offers_made": 168, "offers_accepted": 100,'
        ' "truncations": 247, "base": 0, "golden": 122, "markov": 178}'
    ),
}


def test_output_bytes_are_pinned(data_paths, tmp_path, capsys):
    schema, seeds = data_paths
    configs = {
        "no_corrections": {"p_correct": 0.0},
        # many corrections, offers and failed calls: covers the offer-deny,
        # failed-call and re-call paths of both policies
        "stress": {"p_correct": 0.6, "p_offer": 0.9, "api_failure_rate": 0.3},
        # most dialogs hit the turn limit: covers truncation
        "short": {"max_turns": 12},
    }
    for name, doc in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
    generate = ["generate", "--schema", str(schema), "--seeds", str(seeds),
                "--n", "300", "--seed", "42"]
    corpus = tmp_path / "corpus.txt"
    digests = {}
    stats = {}
    for name, extra in [
        ("generate", []),
        ("generate --mix base=1", ["--mix", "base=1"]),
        ("generate p_correct=0", ["--config", str(tmp_path / "no_corrections.json")]),
        ("generate stress", ["--config", str(tmp_path / "stress.json")]),
        ("generate max_turns=12", ["--config", str(tmp_path / "short.json")]),
    ]:
        assert main(generate + extra) == 0
        captured = capsys.readouterr()
        digests[name] = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
        stats[name] = captured.err
        if name == "generate":
            corpus.write_text(captured.out, encoding="utf-8")
    train = tmp_path / "train"
    assert main(["export-training", "--schema", str(schema), "--out", str(train), str(corpus)]) == 0
    jsonl = b"".join(path.read_bytes() for path in sorted(train.glob("*.jsonl")))
    digests["export-training"] = hashlib.sha256(jsonl).hexdigest()
    capsys.readouterr()
    assert main(["metrics", "--schema", str(schema), str(corpus)]) == 0
    digests["metrics"] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digests == GOLDEN
    assert stats == {name: line + "\n" for name, line in STATS_LINES.items()}


# Sets `engine.CHUNK` when its first argument is not empty, then runs the CLI
# on the rest.
_CHUNKED_MAIN = """import sys
from dialogsim import cli, engine
if sys.argv[1]:
    engine.CHUNK = int(sys.argv[1])
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.parametrize(
    "hash_seed, chunk, workers",
    [("0", "", "1"), ("12345", "", "2"), ("1", "1", "2"), ("7", "7", "2")],
    ids=["hashseed-0", "hashseed-12345", "chunk-1", "chunk-7"],
)
def test_bytes_do_not_depend_on_hash_seed_or_pool_chunks(data_paths, hash_seed, chunk, workers):
    """The string hash seed and the pool's chunk size must not reach the
    output, nor may sharing turns and caches across dialogs: each run in a
    fresh process matches the pinned digests."""
    schema, seeds = data_paths
    env = dict(os.environ, PYTHONPATH=str(Path(dialogsim.__file__).parents[1]),
               PYTHONHASHSEED=hash_seed)
    generate = ["generate", "--schema", str(schema), "--seeds", str(seeds),
                "--n", "300", "--seed", "42", "--workers", workers]
    for name, extra in [("generate", []), ("generate --mix base=1", ["--mix", "base=1"])]:
        proc = subprocess.run([sys.executable, "-c", _CHUNKED_MAIN, chunk, *generate, *extra],
                              capture_output=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(proc.stdout).hexdigest() == GOLDEN[name]
        assert proc.stderr.decode("utf-8") == STATS_LINES[name] + "\n"


# Every `lru_cache` in the package, as (module, the name it caches under).
# Each is a pure function of its key, so no bound may change the output.
CACHES = {
    ("acts", "_interned_act"),
    ("acts", "parse_act_list"),
    ("export", "tokenize"),
    ("markup", "lit"),
    ("markup", "ref"),
}


def _cache_owners(tree: ast.Module) -> list[str | None]:
    """For each `lru_cache` in `tree`, the name it caches under: the
    decorated function, or the name the wrapped callable is assigned to."""
    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name
            elif isinstance(child, ast.Assign) and isinstance(child.targets[0], ast.Name):
                inner = child.targets[0].id
            name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if name == "lru_cache":
                yield owner
            yield from walk(child, inner)
    return list(walk(tree, None))


def test_the_cache_inventory_is_complete():
    found = set()
    for path in sorted(Path(dialogsim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.update((path.stem, owner) for owner in _cache_owners(tree))
    assert found == CACHES


def test_the_cache_inventory_sees_every_use():
    tree = ast.parse(
        "from functools import lru_cache\n"
        "@functools.lru_cache(maxsize=2)\n"
        "def f(x):\n"
        "    g = lru_cache(maxsize=None)(len)\n"
        "h = lru_cache(maxsize=1)(str)\n"
        "class C:\n"
        "    @lru_cache\n"
        "    def m(self):\n"
        "        pass\n"
    )
    assert sorted(_cache_owners(tree)) == ["f", "g", "h", "m"]


def test_bytes_do_not_depend_on_cache_bounds(data_paths, tmp_path, capsys, monkeypatch,
                                             demo_bundle, demo_seeds):
    """Every bounded cache rebuilt to hold one entry, so that nearly every
    call evicts: the pinned digests still hold."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dialogsim"]
    small = {}
    for module_name, name in sorted(CACHES):
        cached = getattr(importlib.import_module(f"dialogsim.{module_name}"), name)
        small[name] = functools.lru_cache(maxsize=1)(cached.__wrapped__)
        for module in modules:
            for attr in [a for a, value in vars(module).items() if value is cached]:
                monkeypatch.setattr(module, attr, small[name])
    monkeypatch.setattr(acts, "_signatures", {})
    monkeypatch.setattr(acts, "_SIGNATURES_MAX", 1)
    test_output_bytes_are_pinned(data_paths, tmp_path, capsys)
    test_engine.test_policy_grid_bytes_are_pinned(demo_bundle, demo_seeds)
    # each small cache but `lit` was called and evicted; no demo call binds a literal
    evicted = {name for name, c in small.items() if c.cache_info().misses > 1}
    assert evicted == {name for _, name in CACHES} - {"lit"}
    assert len(acts._signatures) == 1


class _NoStore(dict):
    """A turn memo that never stores: every lookup misses."""

    def __setitem__(self, key, value):
        pass


def test_bytes_do_not_depend_on_the_turn_memo(data_paths, tmp_path, capsys, monkeypatch,
                                              demo_bundle, demo_seeds):
    """Every batch's turn memo defeated, so that each generated turn is
    built anew: the pinned digests still hold."""
    build = engine.build_template_index
    built = []

    def index_without_memo(*args):
        index = build(*args)
        index._turns = _NoStore()
        built.append(index)
        return index

    monkeypatch.setattr(engine, "build_template_index", index_without_memo)
    test_output_bytes_are_pinned(data_paths, tmp_path, capsys)
    test_engine.test_policy_grid_bytes_are_pinned(demo_bundle, demo_seeds)
    assert len(built) == 5 + 32 and all(index._turns == {} for index in built)


def test_a_stopped_pool_worker_is_one_error_line(data_paths, capsys, monkeypatch, tmp_path):
    schema, seeds = data_paths
    monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(engine, "_run_pool",
                        test_engine._in_process_pool(tmp_path, [], [], held=1, stopped=True))
    assert main(["generate", "--schema", str(schema), "--seeds", str(seeds), "--n", "256",
                 "--workers", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)
    assert "a pool worker stopped before its chunk was done" in captured.err


# Runs the CLI with two usable CPUs and a pool worker that dies at its first
# dialog. This process holds its first dialog until the worker is gone, so
# that the worker has claimed a chunk.
_DYING_WORKER_MAIN = """import multiprocessing, os, sys, time
from dialogsim import cli, engine
parent = os.getpid()
real = engine.generate_one
def generate_one(ctx, i):
    if os.getpid() != parent:
        os._exit(3)
    deadline = time.monotonic() + 60
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    return real(ctx, i)
engine.generate_one = generate_one
engine.os.sched_getaffinity = lambda pid: {0, 1}
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_pool_worker_that_dies_is_one_error_line(data_paths):
    """A real forked worker that exits in its chunk: `generate` exits 1 and
    its stderr is the one `error:` line, with no traceback from any
    thread."""
    schema, seeds = data_paths
    env = dict(os.environ, PYTHONPATH=str(Path(dialogsim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _DYING_WORKER_MAIN, "generate", "--schema",
                           str(schema), "--seeds", str(seeds), "--n", "256", "--workers", "2"],
                          capture_output=True, env=env, timeout=300)
    assert proc.returncode == 1
    assert proc.stdout == b""
    err = proc.stderr.decode("utf-8")
    _assert_one_error_line(err)
    assert err.startswith("error: a pool worker stopped before its chunk was done"), err


@pytest.mark.parametrize("source", ["config", "model"])
def test_generate_rejects_weight_too_large_for_a_float(data_paths, tmp_path, capsys, source):
    schema, seeds = data_paths
    huge = 10**400
    path = tmp_path / f"{source}.json"
    args = ["generate", "--schema", str(schema), "--seeds", str(seeds), "--n", "3"]
    if source == "config":
        path.write_text(json.dumps({"sampler_mix": {"golden": huge}}), encoding="utf-8")
        args += ["--config", str(path)]
    else:
        assert main(["fit", "--schema", str(schema), "--seeds", str(seeds),
                     "--out", str(path)]) == 0
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["start"]["FindMovies"] = huge
        path.write_text(json.dumps(doc), encoding="utf-8")
        args += ["--model", str(path)]
    capsys.readouterr()
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    _assert_one_error_line(captured.err)
