"""Command-line front end.

Config comes from --config or the OPENQA_CONFIG environment variable. The
`train` flags --epochs, --lr and --seed override the config's `hyper` and
are checked as it is; `serve --addr` is checked before the system is built.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .errors import OpenQAError
from .hyper import Hyper
from .kb import build_entity_dictionary, load_triples
from .ld_solver import load_scorer_data, load_tagger_data, train_relation_scorer, train_tagger
from .pipeline import System, SystemConfig, ask, build_corpus, evaluate, load_qa_pairs, make_selector_data, split_addr
from .reader import load_reader_data, train_reader
from .selector import load_selector_data, train_selector
from .service import make_server
from .text import Vocabulary


def _load_config(args) -> SystemConfig:
    path = args.config or os.environ.get("OPENQA_CONFIG")
    if not path:
        raise SystemExit("no config: pass --config or set OPENQA_CONFIG")
    return SystemConfig.load(path)


def _hyper(config: SystemConfig, args) -> Hyper:
    overrides = {key: getattr(args, key) for key in ("epochs", "lr", "seed") if getattr(args, key) is not None}
    return dataclasses.replace(config.hyper, **overrides)


def _print_answer(response) -> None:
    print("no answer" if response.answer is None
          else f"{response.answer}  (confidence {response.confidence:.3f}, via {response.solver})")


def cmd_load_kb(args):
    kb = load_triples(args.tsv)
    print(f"loaded {len(kb)} triples, {len(kb.entities)} entities")


def cmd_index(args):
    config = _load_config(args)
    kb = load_triples(config.kb_path)
    idx = build_corpus(kb, build_entity_dictionary(kb), args.passages)
    print(f"indexed {idx.doc_count} documents, {len(idx.postings)} terms")


def cmd_train(args):
    config = _load_config(args)
    hyper = _hyper(config, args)
    vocab = Vocabulary.load(config.vocab_path)
    target = args.target
    out = args.out or getattr(config, f"{target}_model")
    if out is None:
        raise SystemExit(f"no output path: pass --out or set {target}_model in the config")

    if target == "tagger":
        params = train_tagger(load_tagger_data(args.data), hyper, vocab)
    elif target == "scorer":
        params = train_relation_scorer(load_scorer_data(args.data), hyper, vocab)
    elif target == "reader":
        params = train_reader(load_reader_data(args.data), hyper, vocab).params
    else:
        params = train_selector(load_selector_data(args.data), hyper, vocab).params
    params.save(out)
    losses = params.arch["epoch_losses"]  # one per epoch, and there is at least one
    print(f"trained {target}: epochs={hyper.epochs} loss {losses[0]:.4f} -> {losses[-1]:.4f}; wrote {out}")


def cmd_ask(args):
    system = System(_load_config(args))
    response = ask(system, args.question)
    if args.json:
        print(json.dumps(response.to_dict()))
    else:
        _print_answer(response)


def cmd_repl(args):
    system = System(_load_config(args))
    print("openqa repl; empty line or Ctrl-D exits")
    while True:
        try:
            question = input("? ").strip()
        except EOFError:
            break
        if not question:
            break
        try:
            response = ask(system, question)
        except OpenQAError as exc:
            print(f"error: {exc}")
            continue
        _print_answer(response)


def cmd_eval(args):
    system = System(_load_config(args))
    report = evaluate(system, load_qa_pairs(args.dataset))
    print(f"accuracy {report.accuracy:.4f} ({report.correct}/{report.total})")
    for tag, rate in report.per_solver_hit_rate.items():
        print(f"  {tag} hit rate {rate:.4f}")


def cmd_make_selector_data(args):
    system = System(_load_config(args))
    written, skipped = make_selector_data(system, load_qa_pairs(args.dataset), args.out)
    print(f"wrote {written} examples to {args.out} ({skipped} skipped)")


def cmd_serve(args):
    config = _load_config(args)
    addr = args.addr or config.http_addr
    host, port = split_addr(addr)  # a bad address fails before the build, not after it
    system = System(config)
    with make_server(system, host, port) as server:
        print(f"serving on http://{host}:{server.server_address[1]}")
        server.serve_forever()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="openqa", description="hybrid KB + passage question answering")
    parser.add_argument("--config", help="path to the system config JSON (or set OPENQA_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("load-kb", help="validate and summarize a triples TSV")
    p.add_argument("tsv")
    p.set_defaults(fn=cmd_load_kb)

    p = sub.add_parser("index", help="build the two-field index and summarize it")
    p.add_argument("passages")
    p.set_defaults(fn=cmd_index)

    p = sub.add_parser("train", help="train one model")
    p.add_argument("target", choices=["tagger", "scorer", "reader", "selector"])
    p.add_argument("data")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ask", help="answer one question")
    p.add_argument("question")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_ask)

    p = sub.add_parser("repl", help="interactive question loop")
    p.set_defaults(fn=cmd_repl)

    p = sub.add_parser("eval", help="exact-match accuracy on a QA JSONL file")
    p.add_argument("dataset")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("make-selector-data", help="generate selector training data")
    p.add_argument("dataset")
    p.add_argument("out")
    p.set_defaults(fn=cmd_make_selector_data)

    p = sub.add_parser("serve", help="run the HTTP service")
    p.add_argument("--addr", help="host:port (default from config)")
    p.set_defaults(fn=cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.fn(args)
    except (OpenQAError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # Ctrl-C ends any command with the shell's 128 + SIGINT, no traceback
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
