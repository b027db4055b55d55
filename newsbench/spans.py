"""Per-layer tracing from outside the program.

``Tracer.install`` replaces the public functions each layer exposes, at
the module attribute the caller looks them up through, with wrappers that
record a span (layer, function, op id, parent span, start, end) and a few
counts taken from the call's arguments and result. ``uninstall`` puts the
originals back, so untraced ops run the program unchanged. Spans stay in
memory until ``write`` is called at the end of a run.
"""

from __future__ import annotations

import itertools
import json
import statistics
from time import perf_counter_ns

from newsforms import cli, corpus, model, pipeline, rules, xmlcodec

# (layer, module whose attribute the caller reads, function name)
TARGETS = (
    ("lexicons", cli, "load_lexicon_set"),
    ("rules.load", rules, "load_rules"),
    ("rules.load", rules, "load_kb"),
    ("rules.extract", rules, "extract"),
    ("pipeline.analyze", rules, "analyze"),
    ("pipeline.sentences", pipeline, "split_sentences"),
    ("pipeline.postag", pipeline, "tag_pos"),
    ("pipeline.chunk", pipeline, "chunk_noun_groups"),
    ("pipeline.entities", pipeline, "parse_entities"),
    ("pipeline.coref", pipeline, "resolve_references"),
    ("rules.patterns", rules, "apply_patterns"),
    ("rules.merge", rules, "merge_fragments"),
    ("rules.commonsense", rules, "apply_commonsense"),
    ("model.validate", model, "validate"),
    ("xmlcodec.serialize", cli, "serialize_newsform"),
    ("xmlcodec.parse", xmlcodec, "parse_newsform"),
    ("corpus.index", corpus, "build_index"),
    ("corpus.plan", corpus, "parse_query"),
    ("corpus.evaluate", corpus, "evaluate_query"),
    ("corpus.stats", corpus, "stats"),
    ("corpus.geo", corpus, "geo_distribution"),
)

# the validation stage, as against the check inside serialize_newsform
_VALIDATE_STAGE_PARENTS = ("rules.extract", "corpus.index")

EXTRACT_METRICS = (
    ("load.lexicons_ms", "ms"), ("load.rules_ms", "ms"), ("load.kb_ms", "ms"),
    ("sentences.ms", "ms"), ("postag.ms", "ms"), ("postag.tokens", "count"),
    ("chunk.ms", "ms"), ("entities.ms", "ms"), ("entities.mentions", "count"),
    ("entities.lexicon_lookups", "count"), ("entities.lookups_per_token", "lookups/token"),
    ("coref.ms", "ms"), ("patterns.ms", "ms"), ("patterns.fragments", "count"),
    ("patterns.events_per_fragment", "events/fragment"), ("merge.ms", "ms"),
    ("commonsense.ms", "ms"), ("commonsense.fires", "count"), ("validate.ms", "ms"),
    ("validate.drops", "count"), ("serialize.ms", "ms"), ("serialize.bytes", "bytes"),
)
QUERY_METRICS = (
    ("parse.ms", "ms"), ("parse.docs", "count"), ("parse.bytes", "bytes"),
    ("index.ms", "ms"), ("index.postings_ms", "ms"), ("index.postings_keys", "count"),
    ("index.skipped", "count"), ("plan.ms", "ms"), ("evaluate.ms", "ms"),
    ("evaluate.hits", "count"), ("stats.ms", "ms"), ("geo.ms", "ms"),
)
CLI_METRICS = (("cli.overhead_ms", "ms"), ("trace.overhead_ms", "ms"))
LAYER_METRICS = EXTRACT_METRICS + QUERY_METRICS + CLI_METRICS
# metrics computed from other spans rather than timed on their own
DERIVED = {
    "index.postings_ms": "index.ms - parse.ms - validate.ms",
    "cli.overhead_ms": "cli span - its direct child spans",
    "trace.overhead_ms": "traced op_ms_p50 - untraced op_ms_p50",
}

# span time summed per op: metric -> (layer, function or None for any)
_TIMES = {
    "load.lexicons_ms": ("lexicons", None), "load.rules_ms": ("rules.load", "load_rules"),
    "load.kb_ms": ("rules.load", "load_kb"), "sentences.ms": ("pipeline.sentences", None),
    "postag.ms": ("pipeline.postag", None), "chunk.ms": ("pipeline.chunk", None),
    "entities.ms": ("pipeline.entities", None), "coref.ms": ("pipeline.coref", None),
    "patterns.ms": ("rules.patterns", None), "merge.ms": ("rules.merge", None),
    "commonsense.ms": ("rules.commonsense", None),
    "serialize.ms": ("xmlcodec.serialize", None), "parse.ms": ("xmlcodec.parse", None),
    "index.ms": ("corpus.index", None), "plan.ms": ("corpus.plan", None),
    "evaluate.ms": ("corpus.evaluate", None), "stats.ms": ("corpus.stats", None),
    "geo.ms": ("corpus.geo", None),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (op, id, parent, layer, function, start_ns, end_ns)
        self.counts: dict[str, int] = {}
        self.op = 0
        self._lookup_counters: list = []
        self._stack: list[tuple[int, str]] = []   # open spans: (id, layer)
        self._saved: list[tuple] = []

    def _count(self, name: str, n: int):
        self.counts[name] = self.counts.get(name, 0) + n

    def call(self, layer: str, function: str, fn, *args, **kwargs):
        """Run fn inside a span, then take counts from its result."""
        sid = len(self.spans)
        parent, parent_layer = self._stack[-1] if self._stack else (None, "")
        self.spans.append(None)
        self._stack.append((sid, layer))
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (self.op, sid, parent, layer, function, start, end)
        self._observe(layer, parent_layer, args, result)
        return result

    def _observe(self, layer, parent_layer, args, result):
        if layer == "lexicons":
            # counted on the returned instance; a bare counter keeps it cheap
            counter = itertools.count()
            self._lookup_counters.append(counter)

            def counted(surface, _tick=counter.__next__, _lookup=result.lookup):
                _tick()
                return _lookup(surface)
            result.lookup = counted
        elif layer == "pipeline.postag":
            self._count("postag.tokens", len(result))
        elif layer == "pipeline.entities":
            self._count("entities.mentions", len(result))
        elif layer == "rules.patterns":
            self._count("patterns.fragments", len(result))
        elif layer == "rules.commonsense":
            self._count("commonsense.fires", len(result[1]))
        elif layer == "rules.extract":
            self._count("extract.events", len(result.document.events))
        elif layer == "model.validate" and parent_layer == "rules.extract":
            self._count("validate.drops", 0 if result.ok else 1)
        elif layer == "xmlcodec.serialize":
            self._count("serialize.bytes", len(result.encode("utf-8")))
        elif layer == "xmlcodec.parse":
            self._count("parse.docs", 1)
            self._count("parse.bytes", len(args[0]))
        elif layer == "corpus.index":
            self._count("index.postings_keys", len(result.postings))
            self._count("index.skipped", len(result.diagnostics))
        elif layer == "corpus.evaluate":
            self._count("evaluate.hits", len(result))

    def install(self):
        for layer, module, name in TARGETS:
            original = getattr(module, name)

            def traced(*args, _layer=layer, _name=name, _fn=original, **kwargs):
                return self.call(_layer, _name, _fn, *args, **kwargs)
            self._saved.append((module, name, original))
            setattr(module, name, traced)

    def uninstall(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def run_op(self, fn, *args):
        """Trace one op: a root ``cli`` span around fn(*args). Returns fn's
        result and the op's layer values (ms, counts)."""
        self.op += 1
        first = len(self.spans)
        self.counts = {}
        self.install()
        try:
            result = self.call("cli", "main", fn, *args)
        finally:
            self.uninstall()
        if self._lookup_counters:
            self._count("entities.lexicon_lookups",
                        sum(next(counter) for counter in self._lookup_counters))
            self._lookup_counters = []
        return result, self._op_values(self.spans[first:])

    def _op_values(self, spans) -> dict:
        """Layer values of one op; a layer that did not run is left out."""
        values = dict(self.counts)
        for metric, (layer, function) in _TIMES.items():
            durations = [s[6] - s[5] for s in spans
                         if s[3] == layer and (function is None or s[4] == function)]
            if durations:
                values[metric] = sum(durations) / 1e6
        by_id = {s[1]: s for s in spans}
        stage = [s[6] - s[5] for s in spans if s[3] == "model.validate"
                 and s[2] is not None and by_id[s[2]][3] in _VALIDATE_STAGE_PARENTS]
        if stage:
            values["validate.ms"] = sum(stage) / 1e6
        if "index.ms" in values:
            values["index.postings_ms"] = (values["index.ms"] - values.get("parse.ms", 0)
                                           - values.get("validate.ms", 0))
        root = spans[0]
        children = sum(s[6] - s[5] for s in spans if s[2] == root[1])
        values["cli.overhead_ms"] = (root[6] - root[5] - children) / 1e6
        return values

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, layer, function, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": layer,
                                     "function": function, "start_ns": start,
                                     "end_ns": end}) + "\n")


def summarize(per_op: list[dict], plain_ms: list[float], traced_ms: list[float]) -> dict:
    """Per-layer metrics of a traced run as name -> (value, unit, samples).

    Each value is the median over the ops in which the layer ran (0 when
    it never ran); the two ratios are totals over totals. The tracing
    overhead is the traced minus the untraced median op time, both scaled
    as op_ms_p50 is, over the same ops run back to back in alternating order.
    """
    out = {}
    for name, unit in LAYER_METRICS:
        samples = [values[name] for values in per_op if name in values]
        out[name] = (statistics.median(samples) if samples else 0, unit, len(samples))

    def ratio(num, den):
        total = sum(v.get(den, 0) for v in per_op)
        return sum(v.get(num, 0) for v in per_op) / total if total else 0

    out["entities.lookups_per_token"] = (
        ratio("entities.lexicon_lookups", "postag.tokens"), "lookups/token", len(per_op))
    out["patterns.events_per_fragment"] = (
        ratio("extract.events", "patterns.fragments"), "events/fragment", len(per_op))
    out["trace.overhead_ms"] = (
        statistics.median(traced_ms) - statistics.median(plain_ms), "ms", len(traced_ms))
    return out
