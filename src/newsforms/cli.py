"""Command-line interface.

Commands: extract, validate, query, stats, geo. Standard output carries
only data; all human-readable diagnostics go to standard error. ``-``
reads standard input wherever a file is accepted.

Exit codes: 0 success, 1 validation findings, 2 resource error (a
missing or unreadable file or directory, input that is not UTF-8, or a
standard output that the reader closed early), 3 usage, query or rule
syntax error.

``extract`` reads every input first, stopping at the first one that
cannot be read, then extracts the stories that were read in per-CPU
shards (``shards.run``): a batch of at least twice ``SHARD_MIN_STORIES``
stories is split, and each story's document, ``--debug`` dump and
``--review`` lines come back as text, written in input order. The
unreadable input's error (exit 2) follows the documents before it, as in
a serial run.

Every call is a fresh interpreter, so each command imports only the
layers it runs: ``extract`` imports ``rules`` and ``pipeline``; ``query``,
``stats`` and ``geo`` import ``corpus``; ``validate`` needs only the
codec. Each command reports its own layer's syntax error (exit 3). The
layers' functions are called through their module attributes
(``corpus.build_index``, ``rules_mod.extract``), and ``load_lexicon_set``
and ``serialize_newsform`` stay bound here at import, because the
benchmark's tracer (``newsbench/spans.py``) times the layers by replacing
those attributes until it reads an in-program trace instead.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import model
from .lexicons import LexiconError, load_lexicon_set
from .resources import default_data_root
from .xmlcodec import parse_newsform, serialize_newsform

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_RESOURCE = 2
EXIT_SYNTAX = 3

# the values of corpus.Bucket, spelled here so the parser needs no corpus
STATS_BUCKETS = ("day", "week")


class ResourceError(Exception):
    pass


def _load_resources(args):
    from . import rules as rules_mod
    root = default_data_root()
    dirs = {name: Path(getattr(args, name)) if getattr(args, name) else root / name
            for name in ("lexicons", "rules", "kb")}
    for name, directory in dirs.items():
        if not directory.is_dir():
            raise ResourceError(f"{name} directory does not exist: {directory}")
    loaded = []
    for name, load in (("lexicons", load_lexicon_set), ("rules", rules_mod.load_rules),
                       ("kb", rules_mod.load_kb)):
        try:
            loaded.append(load(dirs[name]))
        except (OSError, UnicodeDecodeError, LexiconError) as exc:
            raise ResourceError(f"cannot load {name} from {dirs[name]}: {exc}") from exc
    return loaded


def _read_input(name: str) -> str:
    try:
        if name == "-":
            return sys.stdin.read()
        return Path(name).read_text(encoding="utf-8")
    except OSError as exc:
        raise ResourceError(exc) from exc
    except UnicodeDecodeError as exc:
        raise ResourceError(f"{name}: not UTF-8 text: {exc}") from exc


# A batch's stories go to child processes only when each shard would hold
# at least this many. A fork round trip costs about 2 ms with the resources
# loaded (25 MB, 2 CPUs, Python 3.11), one or two stories' extraction, but
# on that host a second shard of 6 to 20 stories ran 10-20 ms slower than
# one shard, and one of 27 ran 5-20% faster: a child's first tens of
# milliseconds on the other CPU ran at about half speed.
SHARD_MIN_STORIES = 24


def _cmd_extract(args) -> int:
    from . import rules as rules_mod
    from .pipeline import dump_parses
    try:
        lexicons, compiled, kb = _load_resources(args)
    except rules_mod.RuleError as exc:   # a rule or kb file that does not compile
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    texts: list[str] = []
    unread = None   # the ResourceError of the first input that cannot be read
    for name in args.inputs:
        try:
            texts.append(_read_input(name))
        except ResourceError as exc:
            unread = exc
            break

    def render(start: int, stop: int) -> list[tuple[str, str]]:
        """(standard output, standard error) text of texts[start:stop]."""
        rendered = []
        for text in texts[start:stop]:
            result = rules_mod.extract(text, lexicons, compiled, kb)
            out = dump_parses(result.parses) if args.debug else ""
            out += serialize_newsform(result.document)
            lines = []
            if args.review:
                lines += [diagnostic.line() for diagnostic in result.diagnostics]
                for fragment in result.fragments:
                    variant = model.ELEMENT_OF_EVENT[type(fragment.event)]
                    bound = ";".join(f"{k}={v}" for k, v in fragment.bindings.items())
                    lines.append(f"fragment\t{fragment.rule_id}\t{variant}\t"
                                 f"sentence={fragment.sentence_index}\t{bound}")
            rendered.append((out, "".join(line + "\n" for line in lines)))
        return rendered

    if len(texts) < 2 * SHARD_MIN_STORIES:   # one shard: no runner to import
        parts = [render(0, len(texts))]
    else:
        from . import shards
        parts = shards.run(len(texts), SHARD_MIN_STORIES, render)
    for part in parts:
        for out, err in part:
            sys.stdout.write(out)
            sys.stderr.write(err)
    if unread is not None:
        raise unread
    return EXIT_OK


def _cmd_validate(args) -> int:
    findings = 0
    for name in args.files:
        text = _read_input(name)
        found: list[model.Finding] = []
        try:
            parse_newsform(text, found)
        except ValueError as exc:
            print(f"{name}\t-\tsyntax\t{exc}")
            findings += 1
            continue
        for finding in found:
            print(f"{name}\t{finding.path}\t{finding.code}\t{finding.message}")
            findings += 1
    return EXIT_FINDINGS if findings else EXIT_OK


def _corpus_dir(corpus_arg: str) -> Path:
    directory = Path(corpus_arg)
    if not directory.is_dir():
        raise ResourceError(f"corpus directory does not exist: {directory}")
    return directory


def _corpus_index(directory: Path, variant: str):
    """The index of the corpus documents holding a ``variant`` event, the
    only ones a query, stats or geo request over that type reads."""
    from . import corpus
    index = corpus.build_index(corpus.corpus_paths(directory), variant)
    for line in index.diagnostics:
        print(line, file=sys.stderr)
    return index


def _query_error(exc, text: str) -> int:
    print(f"error: {exc}", file=sys.stderr)
    print(f"  {text}", file=sys.stderr)
    print(f"  {' ' * exc.position}^", file=sys.stderr)
    return EXIT_SYNTAX


# The corpus commands check the directory (exit 2), then the request
# (exit 3), and only then read the corpus, so a mistyped query fails at once.
# A query error is shown under the request text with a caret at its position.

def _cmd_query(args) -> int:
    from . import corpus
    directory = _corpus_dir(args.corpus)
    try:
        expr = corpus.parse_query(args.query)
        hits = corpus.evaluate_query(_corpus_index(directory, expr.variant), expr)
    except corpus.QueryError as exc:
        return _query_error(exc, args.query)
    for hit in hits:
        print(f"{hit.doc_id}\t{hit.path}\t{hit.sort_value}")
    return EXIT_OK


def _cmd_stats(args) -> int:
    from . import corpus
    directory = _corpus_dir(args.corpus)
    try:
        corpus.event_type(args.variant)
        result = corpus.stats(_corpus_index(directory, args.variant), args.variant,
                              corpus.Bucket(args.bucket))
    except corpus.QueryError as exc:
        return _query_error(exc, args.variant)
    for start, count in result.buckets:
        print(f"{model.format_timestamp(start)[:8]}\t{count}")
    print(f"UNDATED\t{result.undated}")
    return EXIT_OK


def _cmd_geo(args) -> int:
    from . import corpus
    directory = _corpus_dir(args.corpus)
    try:
        expr = corpus.parse_query(args.query)
        distribution = corpus.geo_distribution(_corpus_index(directory, expr.variant), expr)
    except corpus.QueryError as exc:
        return _query_error(exc, args.query)
    for code, (positive, negative, other) in distribution.per_country:
        print(f"{code}\t{positive}\t{negative}\t{other}")
    positive, negative, other = distribution.unlocated
    print(f"UNLOCATED\t{positive}\t{negative}\t{other}")
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as argparse does, but exits 3, not 2 (a
    resource error); subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_SYNTAX, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="newsform",
        description="Structured news events: extraction, validation, queries.",
    )
    parser.add_argument("--lexicons", metavar="DIR", help="lexicon directory")
    parser.add_argument("--rules", metavar="DIR", help="extraction rule directory")
    parser.add_argument("--kb", metavar="DIR", help="commonsense table directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="convert text stories into documents")
    p.add_argument("inputs", nargs="+", metavar="FILE",
                   help="text files; - reads standard input")
    p.add_argument("--debug", action="store_true",
                   help="print the token/group/mention dump before the XML")
    p.add_argument("--review", action="store_true",
                   help="print diagnostics and fragments to standard error")

    p = sub.add_parser("validate", help="validate document files")
    p.add_argument("files", nargs="+", metavar="FILE")

    p = sub.add_parser("query", help="query a corpus directory")
    p.add_argument("corpus")
    p.add_argument("query")

    p = sub.add_parser("stats", help="per-day or per-week event counts")
    p.add_argument("corpus")
    p.add_argument("variant")
    p.add_argument("bucket", choices=STATS_BUCKETS)

    p = sub.add_parser("geo", help="geographic sentiment distribution")
    p.add_argument("corpus")
    p.add_argument("query")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {
        "extract": _cmd_extract,
        "validate": _cmd_validate,
        "query": _cmd_query,
        "stats": _cmd_stats,
        "geo": _cmd_geo,
    }[args.command]
    try:
        code = command(args)
        sys.stdout.flush()   # a closed pipe shows here, not at interpreter exit
        return code
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except BrokenPipeError as exc:   # the reader closed standard output early
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())   # the flush at exit writes there
        os.close(devnull)
        print(f"error: standard output closed: {exc}", file=sys.stderr)
        return EXIT_RESOURCE

if __name__ == "__main__":
    sys.exit(main())
