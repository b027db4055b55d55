"""Command-line interface.

Commands: extract, validate, query, stats, geo. Standard output carries
only data; all human-readable diagnostics go to standard error. ``-``
reads standard input wherever a file is accepted.

Exit codes: 0 success, 1 validation findings, 2 resource error (a
missing or unreadable file or directory, or input that is not UTF-8),
3 usage, query or rule syntax error.

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


def _cmd_extract(args) -> int:
    from . import rules as rules_mod
    from .pipeline import dump_parses
    try:
        lexicons, compiled, kb = _load_resources(args)
    except rules_mod.RuleError as exc:   # a rule or kb file that does not compile
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    for name in args.inputs:
        result = rules_mod.extract(_read_input(name), lexicons, compiled, kb)
        if args.debug:
            sys.stdout.write(dump_parses(result.parses))
        sys.stdout.write(serialize_newsform(result.document))
        if args.review:
            for diagnostic in result.diagnostics:
                print(diagnostic.line(), file=sys.stderr)
            for fragment in result.fragments:
                variant = model.ELEMENT_OF_EVENT[type(fragment.event)]
                bound = ";".join(f"{k}={v}" for k, v in fragment.bindings.items())
                print(f"fragment\t{fragment.rule_id}\t{variant}\t"
                      f"sentence={fragment.sentence_index}\t{bound}", file=sys.stderr)
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
        print(f"{start.strftime('%Y%m%d')}\t{count}")
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
        return command(args)
    except ResourceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
