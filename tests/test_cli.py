"""Command-line interface."""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import zipfile

import numpy as np
import pytest

from openqa import cli, nn
from openqa.cli import main
from openqa.hyper import Hyper
from openqa.pipeline import System, SystemConfig
from openqa.reader import init_reader

from conftest import write_changed_vocab
from oracles import full_parse_staged


def _per_gate_layout(params: nn.ModelParameters) -> nn.ModelParameters:
    """A GRU model's weights under one name per direction and gate (`p.fwd.W_z`, ...):
    the per-gate layout, which loading refuses."""
    out = nn.ModelParameters(params.rng_seed, params.arch)
    for name, arr in params.entries.items():
        if not name.endswith((".W", ".U", ".b")):
            out.entries[name] = arr
            continue
        h = arr.shape[1] // 3
        for k, direction in enumerate(("fwd", "bwd")):
            for j, gate in enumerate("zrh"):
                out.entries[f"{name[:-1]}{direction}.{name[-1]}_{gate}"] = arr[k, j * h:(j + 1) * h]
    return out


class TestLoadKb:
    def test_summary_line(self, fx, capsys):
        assert main(["load-kb", os.path.join(fx, "kb.tsv")]) == 0
        out = capsys.readouterr().out
        assert "30 triples" in out

    def test_bad_file_is_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("not\ttab-separated-enough\n")
        assert main(["load-kb", str(bad)]) == 1
        assert "error" in capsys.readouterr().err


class TestAsk:
    def test_plain(self, toy, capsys):
        assert main(["--config", toy["config"], "ask", "who wrote hamlet"]) == 0
        assert "shakespeare" in capsys.readouterr().out

    def test_json(self, toy, capsys):
        assert main(["--config", toy["config"], "ask", "who wrote hamlet", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["answer"] == "shakespeare"

    def test_config_from_env(self, toy, capsys, monkeypatch):
        monkeypatch.setenv("OPENQA_CONFIG", toy["config"])
        assert main(["ask", "who wrote hamlet"]) == 0
        assert "shakespeare" in capsys.readouterr().out

    @pytest.mark.parametrize("edit", [
        lambda doc: doc.pop("vocab_path"),
        lambda doc: doc["hyper"].update(dropout=0.1),
        lambda doc: doc.update(solver_timeout="fast"),
    ])
    def test_malformed_config_is_one_error_line(self, toy, tmp_path, capsys, edit):
        with open(toy["config"], encoding="utf-8") as fh:
            doc = json.load(fh)
        edit(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["--config", str(bad), "ask", "who wrote hamlet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_template_that_is_not_a_regex_is_one_error_line(self, toy, tmp_path, capsys):
        templates = tmp_path / "templates.jsonl"
        templates.write_text(json.dumps({"pattern": "^who (", "predicate": "author"}) + "\n")
        config = toy["write_config"](str(tmp_path / "config.json"), {"templates_path": str(templates)})
        assert main(["--config", config, "ask", "who wrote hamlet"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {templates}: malformed line 1: field 'pattern' is not a valid regular expression: "
                       "missing ), unterminated subpattern at position 5\n")

    def test_model_vocab_mismatch_is_one_error_line(self, toy, tmp_path, capsys):
        reader = str(tmp_path / "reader.json")
        init_reader(10, Hyper(d=4, h=4)).save(reader)
        config = toy["write_config"](str(tmp_path / "config.json"), {"reader_model": reader})
        assert main(["--config", config, "ask", "who wrote hamlet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: reader_model {reader}: built for a vocabulary of 10") and err.count("\n") == 1

    @pytest.mark.parametrize("change", ["reversed", "one-word-replaced"])
    def test_models_trained_on_other_words_are_one_error_line(self, toy, tmp_path, capsys, change):
        """A vocabulary of the same size but other words, or the same words in
        another order, is refused: the trained models' ids stand for the old words."""
        vocab = write_changed_vocab(tmp_path / "vocab.txt", change)
        config = toy["write_config"](str(tmp_path / "config.json"), {
            "vocab_path": vocab, **{f"{kind}_model": path for kind, path in toy["models"].items()}})
        assert main(["--config", config, "ask", "who wrote hamlet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: tagger_model {toy['models']['tagger']}: trained on other words than {vocab} ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("damage", ["truncated", "json-layout", "empty", "bare-npy", "unclosed-npy-header",
                                        "no-meta", "meta-is-a-list", "int32-array", "object-array",
                                        "missing-array", "per-gate-layout", "non-finite-weights",
                                        "arch-lacks-heads", "arch-heads-do-not-divide-d"])
    def test_bad_model_file_is_one_error_line(self, toy, tmp_path, capsys, damage):
        slot = "selector" if damage.startswith("arch-") else "reader"
        params = nn.ModelParameters.load(toy["models"][slot])
        model = str(tmp_path / f"{slot}.json")
        models = [model]
        if damage == "truncated":
            with open(toy["models"]["reader"], "rb") as fh:
                whole = fh.read()
            cuts = (0, 2000, len(whole) - 1)
            models = [str(tmp_path / f"reader-{cut}.npz") for cut in cuts]
            for path, cut in zip(models, cuts):
                with open(path, "wb") as fh:
                    fh.write(whole[:cut])
        elif damage == "json-layout":  # how model files were written before they were .npz archives
            doc = {"rng_seed": params.rng_seed, "arch": params.arch}
            doc.update({name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                        for name, arr in params.entries.items()})
            with open(model, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        elif damage == "empty":
            open(model, "wb").close()
        elif damage == "bare-npy":
            with open(model, "wb") as fh:
                np.save(fh, params["p.b"])
        elif damage == "unclosed-npy-header":  # numpy tokenizes the header: a TokenError
            header = b"{'descr': '<f8', 'fortran_order': False, 'shape': (3,\n"
            with zipfile.ZipFile(model, "w") as archive:
                archive.writestr("p.b.npy", b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header)
        elif damage in ("no-meta", "meta-is-a-list"):
            entries = dict(params.entries)
            if damage == "meta-is-a-list":
                entries["__meta__"] = np.array(json.dumps([params.rng_seed, params.arch]))
            with open(model, "wb") as fh:
                np.savez(fh, **entries)
        else:
            if damage == "int32-array":
                params.entries["p.b"] = params.entries["p.b"].astype(np.int32)
            elif damage == "object-array":  # numpy's own error for it advises allow_pickle=True
                params.entries["p.b"] = params.entries["p.b"].astype(object)
            elif damage == "missing-array":
                del params.entries["p.b"]
            elif damage == "non-finite-weights":  # one NaN would make every rr answer an error
                params.entries["W_s"][0, 0] = np.nan
            elif damage == "arch-lacks-heads":
                del params.arch["heads"]
            elif damage == "arch-heads-do-not-divide-d":
                params.arch["heads"] = 3  # the toy d is 16
            else:
                params = _per_gate_layout(params)
            params.save(model)
        for model in models:
            config = toy["write_config"](str(tmp_path / "config.json"), {f"{slot}_model": model})
            assert main(["--config", config, "ask", "who wrote hamlet"]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {slot}_model {model}: ") and err.count("\n") == 1
            if damage == "non-finite-weights":
                assert err.endswith(": arrays with non-finite values: W_s\n")
            assert "allow_pickle" not in err
        arch_errors = {"arch-lacks-heads": "arch lacks heads",
                       "arch-heads-do-not-divide-d": "invalid arch: model dim 16 not divisible by 3 heads"}
        if damage in arch_errors:
            assert err == f"error: selector_model {model}: {arch_errors[damage]}\n"

    def test_no_config(self, monkeypatch):
        monkeypatch.delenv("OPENQA_CONFIG", raising=False)
        with pytest.raises(SystemExit):
            main(["ask", "who wrote hamlet"])


class TestEval:
    def test_reports_accuracy(self, fx, toy, capsys):
        assert main(["--config", toy["config"], "eval", os.path.join(fx, "qa.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "accuracy 1.0000 (25/25)" in out
        assert "\noracle accuracy 1.0000 (25/25)\nmax-confidence accuracy 1.0000 (25/25)\n" in out
        assert "\nsp answered alone 14/25\n" in out


class TestIndex:
    def test_builds_and_writes(self, fx, toy, capsys):
        assert main(["--config", toy["config"], "index", os.path.join(fx, "passages.jsonl")]) == 0
        assert "indexed 42 documents" in capsys.readouterr().out  # 30 triples + 12 passages

    @pytest.mark.parametrize("row, reason", [
        ({"id": "p13", "text": ""}, "field 'text' holds no word, got \"\""),
        ({"id": "p13", "text": "... !!! ---"}, "field 'text' holds no word, got \"... !!! ---\""),
        ({"id": 13, "text": "the sky is green"}, "field 'id' must be a string, got 13"),
    ], ids=["empty-text", "wordless-text", "integer-id"])
    def test_bad_passage_is_one_error_line(self, fx, toy, tmp_path, capsys, row, reason):
        with open(os.path.join(fx, "passages.jsonl"), encoding="utf-8") as fh:
            passages = fh.read()
        bad = tmp_path / "passages.jsonl"
        bad.write_text(passages + json.dumps(row) + "\n", encoding="utf-8")
        assert main(["--config", toy["config"], "index", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: malformed line 13: {reason}\n"


TRAIN_TARGETS = ["tagger", "scorer", "reader", "selector"]


class TestTrain:
    def test_trains_and_writes_model(self, fx, toy, tmp_path, capsys):
        for target in TRAIN_TARGETS:
            data = os.path.join(toy["dir"] if target == "selector" else fx, f"{target}.jsonl")
            out_path = str(tmp_path / f"{target}.npz")
            assert main(["--config", toy["config"], "train", target, data, "--epochs", "2", "--out", out_path]) == 0
            assert capsys.readouterr().out.startswith(f"trained {target}: epochs=2 loss ")
            assert len(nn.ModelParameters.load(out_path).arch["epoch_losses"]) == 2
            config = toy["write_config"](str(tmp_path / "config.json"), {f"{target}_model": out_path})
            assert getattr(System(SystemConfig.load(config)), target) is not None

    @pytest.mark.parametrize("target", TRAIN_TARGETS)
    def test_empty_file_is_one_error_line(self, toy, tmp_path, capsys, target):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        out_path = tmp_path / "model.npz"
        assert main(["--config", toy["config"], "train", target, str(empty), "--out", str(out_path)]) == 1
        assert capsys.readouterr().err == "error: no training examples\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("target,row,reason", [
        ("tagger", {"question": "?", "tags": []}, "question has no tokens"),
        ("reader", {"question": "?", "passage": "the sky is blue", "answer_start_token": 3, "answer_end_token": 3},
         "question has no tokens"),
        ("scorer", {"pattern": [], "gold": "author", "negatives": ["capital"]}, "pattern is empty"),
        ("scorer", {"pattern": ["who", "wrote", "<e>"], "gold": "author", "negatives": ["_"]},
         "relation '_' has no tokens"),
        ("selector", {"question": "who wrote hamlet", "candidates": ["shakespeare", ""], "gold": 0},
         "question and candidates must be non-empty"),
    ])
    def test_bad_example_is_one_error_line(self, toy, tmp_path, capsys, target, row, reason):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(row) + "\n")
        out_path = tmp_path / "model.npz"
        assert main(["--config", toy["config"], "train", target, str(bad), "--out", str(out_path)]) == 1
        assert capsys.readouterr().err == f"error: example 0: {reason}\n"
        assert not out_path.exists()

    def test_bad_epochs_is_one_error_line(self, fx, toy, tmp_path, capsys):
        out_path = str(tmp_path / "tagger.json")
        assert main(["--config", toy["config"], "train", "tagger",
                     os.path.join(fx, "tagger.jsonl"),
                     "--epochs", "-1", "--out", out_path]) == 1
        assert capsys.readouterr().err == "error: epochs must be an integer >= 1, got -1\n"
        assert not os.path.exists(out_path)

    def test_diverged_training_is_one_error_line(self, fx, toy, tmp_path, capsys):
        out_path = tmp_path / "reader.npz"
        with np.errstate(all="ignore"):
            assert main(["--config", toy["config"], "train", "reader", os.path.join(fx, "reader.jsonl"),
                         "--epochs", "3", "--lr", "1e300", "--out", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: epoch ") and err.endswith(": training diverged\n") and err.count("\n") == 1
        assert not out_path.exists()


class TestServe:
    def test_bad_addr_is_one_error_line_before_the_build(self, toy, capsys, monkeypatch):
        def no_build(config):
            pytest.fail("System built for an address that cannot be served")

        monkeypatch.setattr("openqa.cli.System", no_build)
        assert main(["--config", toy["config"], "serve", "--addr", "localhost:http"]) == 1
        err = capsys.readouterr().err
        assert err == "error: http_addr must be host:port with a port in 1..65535, got 'localhost:http'\n"

    def test_busy_port_is_one_error_line_and_no_serving_line(self, toy, capsys):
        with socket.socket() as held:  # a port another socket is listening on
            held.bind(("127.0.0.1", 0))
            held.listen()
            port = held.getsockname()[1]
            assert main(["--config", toy["config"], "serve", "--addr", f"127.0.0.1:{port}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "in use" in err and err.count("\n") == 1


class TestCtrlC:
    @pytest.mark.parametrize("command", ["serve", "repl"])
    def test_sigint_exits_130_without_a_traceback(self, toy, command):
        with socket.socket() as sock:  # a port that is free now
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONUNBUFFERED": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        args = ["--addr", f"127.0.0.1:{port}"] if command == "serve" else []
        with subprocess.Popen([sys.executable, "-m", "openqa.cli", "--config", toy["config"], command, *args],
                              env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            killer = threading.Timer(60, proc.kill)  # bounds the wait for the ready line
            killer.start()
            try:
                ready = proc.stdout.readline()  # printed once the system is built
                proc.send_signal(signal.SIGINT)
                _, err = proc.communicate(timeout=60)
            finally:
                killer.cancel()
                proc.kill()
        assert ready.startswith("serving on" if command == "serve" else "openqa repl")
        assert proc.returncode == 130, err
        assert "Traceback" not in err


class TestMakeSelectorData:
    def test_writes_dataset(self, fx, toy, tmp_path, capsys):
        out_path = str(tmp_path / "sel.jsonl")
        assert main(["--config", toy["three_config"], "make-selector-data",
                     os.path.join(fx, "qa.jsonl"), out_path]) == 0
        assert os.path.exists(out_path)
        assert "wrote" in capsys.readouterr().out

    def test_skips_say_how_many_sp_answered_alone(self, fx, toy, tmp_path, capsys):
        out_path = str(tmp_path / "sel.jsonl")
        assert main(["--config", toy["three_config"], "make-selector-data",
                     os.path.join(fx, "qa.jsonl"), out_path]) == 0
        assert capsys.readouterr().out == f"wrote 2 examples to {out_path} (23 skipped, 14 of them answered by sp alone)\n"

    def test_full_parses_only_make_no_rows_and_training_is_one_error_line(self, fx, toy, tmp_path, capsys):
        """`sp` answers every full-parse question alone, so no row has two
        candidates; training on the empty file is an error, not a traceback."""
        system = toy["system_three"]
        with open(os.path.join(fx, "qa.jsonl"), encoding="utf-8") as fh:
            full = [line for line in fh
                    if full_parse_staged(json.loads(line)["question"], system.kb, system.dictionary, system.templates)]
        dataset = tmp_path / "qa.jsonl"
        dataset.write_text("".join(full), encoding="utf-8")
        rows, model = tmp_path / "sel.jsonl", tmp_path / "selector.npz"
        assert main(["--config", toy["three_config"], "make-selector-data", str(dataset), str(rows)]) == 0
        n = len(full)
        assert capsys.readouterr().out == f"wrote 0 examples to {rows} ({n} skipped, {n} of them answered by sp alone)\n"
        assert n == 14 and rows.read_text() == ""
        assert main(["--config", toy["config"], "train", "selector", str(rows), "--out", str(model)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: no training examples\n" and captured.out == ""
        assert not model.exists()


class TestInputFiles:
    @pytest.mark.parametrize("command", ["index", "eval", "train"])
    def test_malformed_json_lines_is_one_error_line(self, toy, tmp_path, capsys, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"question": "who wrote hamlet", "answer": "shakespeare"}\n{"question": \n')
        args = {"index": ["index"], "eval": ["eval"],
                "train": ["train", "reader", "--out", str(tmp_path / "reader.json")]}[command]
        assert main(["--config", toy["config"]] + args + [str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: malformed line ") and err.count("\n") == 1

    @pytest.mark.parametrize("model,row", [
        ("reader", {"question": 5, "passage": "the sky is blue", "answer_start_token": 3, "answer_end_token": 3}),
        ("tagger", {"question": "who wrote hamlet", "tags": "OOB"}),
        ("scorer", {"pattern": "who wrote", "gold": "author", "negatives": ["capital"]}),
        ("selector", {"question": "who wrote hamlet", "candidates": [1, 2], "gold": 0}),
    ])
    def test_training_field_of_the_wrong_type_is_one_error_line(self, toy, tmp_path, capsys, model, row):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(row) + "\n")
        assert main(["--config", toy["config"], "train", model, "--out", str(tmp_path / "m.npz"), str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: malformed line 1: field ") and err.count("\n") == 1

    @pytest.mark.parametrize("model,key,value", [
        ("selector", "gold", 1.9),
        ("selector", "gold", True),
        ("selector", "gold", "1"),
        ("reader", "answer_start_token", "3"),
        ("reader", "answer_end_token", 3.0),
    ])
    def test_integer_field_is_not_coerced(self, toy, tmp_path, capsys, model, key, value):
        row = {"selector": {"question": "who wrote hamlet", "candidates": ["shakespeare", "stratford"], "gold": 1},
               "reader": {"question": "what color is the sky", "passage": "the sky is blue",
                          "answer_start_token": 3, "answer_end_token": 3}}[model]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({**row, key: value}) + "\n")
        out_path = tmp_path / "m.npz"
        assert main(["--config", toy["config"], "train", model, "--out", str(out_path), str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad}: malformed line 1: field {key!r} must be an integer, got {json.dumps(value)}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["load-kb", "eval"])
    def test_missing_file_is_one_error_line(self, toy, tmp_path, capsys, command):
        missing = str(tmp_path / "missing.tsv")
        assert main(["--config", toy["config"], command, missing]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and missing in err and err.count("\n") == 1
