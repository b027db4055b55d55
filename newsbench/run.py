"""newsforms benchmark: wire-story extraction and corpus queries.

Usage, from the root of a checkout (nothing to build or install; the
program is imported from ``src/``)::

    python3 newsbench/run.py --workload extract-wire --seed 1 --seconds 48 --trace 0
    python3 newsbench/run.py --workload all          # the three workloads in turn

Workloads (closed loop, one client, one op at a time, no threads):

* ``extract-wire``: ``newsform extract`` over a batch of 54 seeded wire
  stories, cycling through a pool of 216. Checks: every document
  re-parses and validates, every planted event is present, and for the
  default seed the digest of one pass over the pool equals the recorded one.
* ``query-session``: one ``query``, ``stats`` or ``geo`` op per request
  over a seeded 3,000-document corpus, checked against a brute-force oracle.
  The ops come in rounds of twelve, one of each kind in a seeded order.
* ``query-churn``: as ``query-session``, but before each op (untimed) about
  1% of the files are edited, 0.5% added, 0.5% deleted and 0.1% made
  invalid; the ``skipped`` diagnostics must name exactly the invalid files.

BENCHMARK.json lists extract-wire and query-churn only: a query op takes
about a second, and with three workloads the time budget for all runs
left a query run one or two rounds, too few for a steady median.
query-churn runs every layer query-session runs, and more;
query-session can still be run by name.

A run measures whole rounds (an extract op is a round of its own) and
stops at the round end nearest to ``--seconds``, taking each round to
last as long as the mean round so far. So every query run holds each op
kind equally often, and its fail_ratio is exactly the money-sort share,
1/12.

Each op is one ``newsforms.cli.main(argv)`` call in a separate worker
process (``worker.py``), which holds nothing but the program, so its peak
resident memory is the program's. ``setup_s`` is the median time of
fresh interpreters that import ``newsforms.cli`` and do the workload's
one-time set-up. With ``--trace 1`` every op runs twice, untraced and
traced in alternating order; the outputs must be byte-identical, and the
run reports per-layer metrics (``spans.py``) and the tracing overhead.

Times are scaled to a reference host speed (``calibrate.py``): each op
and each set-up is timed next to a fixed piece of Python work, and its
wall time is multiplied by REFERENCE_MS over that work's time. The host
this was written on runs up to 2x slower for minutes at a time, and wall
medians of whole runs follow it (IQR/median over ten runs 0.1 to 0.25);
scaled medians spread about 0.05.
The wall figures are printed too, as ``wall.*``, with the calibration time.

Every process the benchmark starts runs with ``PYTHONDONTWRITEBYTECODE=1``,
so each one compiles the package from source. The run prints a table of
setup_s, op_ms_p50, op_ms_p90, ops_per_s, fail_ratio and peak_rss_mb (plus
the per-layer metrics when traced), each with its unit and sample count.
The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the GATED_METRICS, or the
per-layer metrics when traced. Every failed op counts in ``failed``.
``correct`` is false when an op fails in any way other than the known
defect below, or a digest or traced/untraced comparison fails.

``ops_per_s`` is ops over the summed time of the ops: the timed phase
leaves out the work the benchmark does between ops (churn, oracle, set-up
probes, calibration). The summed wall time is scaled by the mean
calibration time of the run, not op by op, as a short calibration that
happens to run fast would weigh heavily in a sum of per-op ratios.
``trace.overhead_ms`` is traced minus untraced ``op_ms_p50``; the
per-layer times are wall times.

Known defect at the time the benchmark was written: ``sort`` on a money
field orders amounts in different currencies together. The oracle expects
a query error (exit 3) instead, so those ops fail until the defect is fixed.
Only the defect's own output is excused from ``correct``: exit 0 and the
rows ordered by amount alone, with the right ``skipped`` diagnostics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".newsbench"
WORKLOADS = ("extract-wire", "query-session", "query-churn")
DEFAULT_SEED = 1
STORY_COUNT = 216
BATCH_SIZE = 54    # six stories of each length 4..12 per batch, see stories.py
SETUP_RUNS = 9
# The end-to-end metrics BENCHMARK.json gates. op_ms_p90 swings with the
# host even when scaled, as single ops can fall in a slow moment that the
# calibration next to them misses; fail_ratio is 0 where nothing fails, and
# failures are counted in "failed". Both are printed, not gated.
GATED_METRICS = ("setup_s", "op_ms_p50", "ops_per_s", "peak_rss_mb")
# sha256 of the extract output for one pass over the default seed's pool
EXTRACT_DIGEST = "337ff7e92bd64af0fa1bd71fa4a92d82c067c149d5fb13e5975ae6795ad41b4e"

SETUP_CODE = {
    "extract-wire": (
        "import newsforms.cli\n"
        "from newsforms.lexicons import load_lexicon_set\n"
        "from newsforms.resources import default_data_root\n"
        "from newsforms.rules import load_kb, load_rules\n"
        "root = default_data_root()\n"
        "load_lexicon_set(root / 'lexicons')\n"
        "load_rules(root / 'rules')\n"
        "load_kb(root / 'kb')\n"),
    "query-session": "import newsforms.cli\n",
    "query-churn": "import newsforms.cli\n",
}


def child_env(*extra_path: Path) -> dict:
    env = dict(os.environ)
    env.pop("NEWSFORM_DATA", None)   # always the packaged resources
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (ROOT / "src", *extra_path))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


# ---------------------------------------------------------------------------
# Workloads: next_op returns (argv, judge); judge(reply) returns the
# problems found in the op's reply and whether it is the known defect.


def raised(reply: dict) -> list[str]:
    if reply["error"] is None:
        return []
    return ["op raised: " + reply["error"].strip().splitlines()[-1]]

class ExtractWire:
    """Batches of seeded stories; the first pass over the pool is checked
    in full, later passes must repeat it byte for byte."""

    def __init__(self, seed: int):
        # the benchmark's modules import newsforms, which is importable only
        # once main() has found src/ and put it on sys.path
        from stories import make_stories
        directory = WORK / "stories"
        directory.mkdir()
        stories = make_stories(seed, STORY_COUNT)
        for story in stories:
            (directory / story.name).write_text(story.text, encoding="utf-8")
        self.batches = [stories[i:i + BATCH_SIZE] for i in range(0, STORY_COUNT, BATCH_SIZE)]
        self.paths = [[str((directory / s.name).relative_to(ROOT)) for s in batch]
                      for batch in self.batches]
        self.seed = seed
        self.first_pass: dict[int, str] = {}
        self.digest = None
        self.inputs = [directory / s.name for s in stories]
        self.describe = f"{STORY_COUNT} stories in batches of {BATCH_SIZE}"

    def warmup_argv(self):
        return ["extract", *self.paths[0]]

    def next_op(self, n: int):
        from extractcheck import check_batch_output
        b = n % len(self.batches)

        def judge(reply: dict) -> tuple[list[str], bool]:
            if reply["error"] is not None:
                return raised(reply), False
            problems = [] if reply["code"] == 0 else [f"batch {b}: exit code {reply['code']}"]
            stdout = reply["out"]
            if b in self.first_pass:
                if stdout != self.first_pass[b]:
                    problems.append(f"batch {b}: output differs from the first pass")
                return problems, False
            problems += check_batch_output(self.batches[b], stdout)
            self.first_pass[b] = stdout
            if len(self.first_pass) == len(self.batches):
                stream = "".join(self.first_pass[i] for i in range(len(self.batches)))
                self.digest = hashlib.sha256(stream.encode("utf-8")).hexdigest()
            return problems, False
        return ["extract", *self.paths[b]], judge

    def round_ended(self) -> bool:
        return True

    def final_problems(self) -> list[str]:
        if self.seed == DEFAULT_SEED and self.digest is not None \
                and self.digest != EXTRACT_DIGEST:
            return [f"extract digest {self.digest} != recorded {EXTRACT_DIGEST}"]
        return []


class QueryWorkload:
    """Seeded query/stats/geo ops over a generated corpus, optionally
    churned before each op, checked against the brute-force oracle."""

    def __init__(self, seed: int, churn: bool):
        from corpusgen import Corpus, DocGenerator, QueryMix
        self.corpus = Corpus(WORK / "corpus", seed)
        self.corpus_arg = str((WORK / "corpus").relative_to(ROOT))
        self.churn = churn
        self.mix = QueryMix(random.Random(seed * 7919 + 1),
                            DocGenerator(random.Random(seed * 7919 + 2)))
        self.inputs = [WORK / "corpus" / name for name in self.corpus.docs]
        self.describe = f"{len(self.corpus.docs)} documents" + (", churned" if churn else "")

    def warmup_argv(self):
        return ["query", self.corpus_arg, "Deal"]

    def next_op(self, n: int):
        from queryoracle import EXIT_OK, EXIT_QUERY_ERROR, documents, expect, \
            expect_query, skipped_paths
        if self.churn:
            self.corpus.churn()
        op = self.mix.next()
        argv = op.argv(self.corpus_arg)
        docs = documents(self.corpus_arg, self.corpus.docs)
        code, expected = expect(op, docs)
        defect = None
        if op.kind == "sort-money" and code == EXIT_QUERY_ERROR:
            defect = (EXIT_OK, expect_query(op, docs, sort_across_currencies=True)[1])
        invalid = self.corpus.invalid_paths(self.corpus_arg)
        label = repr(" ".join(argv[2:]))

        def judge(reply: dict) -> tuple[list[str], bool]:
            if reply["error"] is not None:
                return raised(reply), False
            problems = []
            if skipped_paths(reply["err"]) != invalid:
                problems.append(f"{label}: skipped files differ "
                                f"from the {len(invalid)} invalid ones")
            if (reply["code"], reply["out"]) == defect:
                return problems, True
            if reply["code"] != code:
                problems.append(f"{label}: exit code {reply['code']}, want {code}")
            if reply["out"] != expected:
                problems.append(f"{label}: stdout differs from the oracle")
            return problems, False
        return argv, judge

    def round_ended(self) -> bool:
        return self.mix.round_ended()

    def final_problems(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# Worker process

class Worker:
    def __init__(self, spans_path: Path):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(spans_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
            env=child_env(BENCH), text=True, encoding="utf-8")

    def call(self, argv: list[str], trace: bool) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker process ended unexpectedly")
        return json.loads(line)

    def close(self) -> float:
        """End the worker; returns its peak resident memory in MB."""
        self.proc.stdin.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return usage.ru_maxrss / 1024


def p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def warm_file_cache(paths):
    for path in paths:
        path.read_bytes()


def setup_probe(name: str):
    """A function that times one fresh interpreter doing the workload's set-up."""
    argv = [sys.executable, "-c", SETUP_CODE[name]]
    env = child_env()

    def probe() -> tuple[float, float]:
        """The wall time in s, and the calibration time around it in ms."""
        from calibrate import calibrate
        before = calibrate()
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True)
        wall = time.perf_counter() - start
        return wall, (before + calibrate()) / 2
    return probe


def clear_inputs():
    """Remove the generated inputs; the spans of earlier workloads stay."""
    for inputs in ("stories", "corpus"):
        shutil.rmtree(WORK / inputs, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from calibrate import scaled
    clear_inputs()
    WORK.mkdir(exist_ok=True)
    workload = ExtractWire(seed) if name == "extract-wire" \
        else QueryWorkload(seed, churn=name == "query-churn")
    warm_file_cache(workload.inputs + [p for p in (ROOT / "src" / "newsforms").rglob("*")
                                       if p.is_file()])
    probe = setup_probe(name)
    probe()   # warms the file cache for the set-up path
    setup: list[tuple[float, float]] = []
    worker = Worker(WORK / f"spans-{name}.jsonl")
    problems: list[str] = []
    known_defect = failed = attempted = 0
    latencies: list[float] = []
    cals: list[float] = []
    layer_values: list[dict] = []
    traced_op_ms: list[float] = []
    try:
        worker.call(workload.warmup_argv(), trace=False)
        if trace:
            worker.call(workload.warmup_argv(), trace=True)
        start = time.perf_counter()
        n = rounds = 0
        while True:
            # set-up probes are spread over the run, between ops, so that
            # their median does not hang on one moment of the host's speed
            if not trace and len(setup) < SETUP_RUNS and \
                    len(setup) <= SETUP_RUNS * (time.perf_counter() - start) / seconds:
                setup.append(probe())
            argv, judge = workload.next_op(n)
            modes = (False, True) if n % 2 == 0 else (True, False)
            replies = {mode: worker.call(argv, mode) for mode in (modes if trace else (False,))}
            n += 1
            for mode, reply in replies.items():
                attempted += 1
                found, is_known_defect = judge(reply)
                failed += bool(found) or is_known_defect
                known_defect += is_known_defect
                problems.extend(found)
            if trace:
                plain, traced = replies[False], replies[True]
                if (plain["code"], plain["out"], plain["err"]) != \
                        (traced["code"], traced["out"], traced["err"]):
                    problems.append(f"{argv[0]} op {n}: traced output differs from untraced")
                if traced["layers"] is not None:
                    layer_values.append(traced["layers"])
                traced_op_ms.append(scaled(traced["ms"], traced["cal_ms"]))
            latencies.append(replies[False]["ms"])
            cals.append(replies[False]["cal_ms"])
            if workload.round_ended():
                # stop at the round end nearest to the time, taking the
                # next round to last as long as the mean round so far
                rounds += 1
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / rounds / 2 >= seconds:
                    break
        while not trace and len(setup) < SETUP_RUNS:
            setup.append(probe())
    finally:
        peak_rss_mb = worker.close()
    problems.extend(workload.final_problems())
    clear_inputs()

    op_ms = [scaled(ms, cal) for ms, cal in zip(latencies, cals)]
    n_ops = len(op_ms)
    table = {
        "op_ms_p50": (statistics.median(op_ms), "ms", n_ops),
        "op_ms_p90": (p90(op_ms), "ms", n_ops),
        "ops_per_s": (n_ops / (scaled(sum(latencies), statistics.mean(cals)) / 1000),
                      "1/s", n_ops),
        "fail_ratio": (failed / attempted, "ratio", attempted),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "wall.op_ms_p50": (statistics.median(latencies), "ms", n_ops),
        "wall.op_ms_p90": (p90(latencies), "ms", n_ops),
        "host.calibration_ms": (statistics.median(cals), "ms", n_ops),
    }
    if setup:   # not measured in traced runs
        table["setup_s"] = (statistics.median(scaled(wall, cal) for wall, cal in setup),
                            "s", len(setup))
        table["wall.setup_s"] = (statistics.median(wall for wall, _ in setup), "s", len(setup))
    if trace:
        import spans
        metrics = spans.summarize(layer_values, op_ms, traced_op_ms)
        table = {**table, **metrics}
    else:
        metrics = {name: table[name] for name in GATED_METRICS}
    print(f"# {name}: seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"inputs={workload.describe} python={platform.python_version()} "
          f"nproc={os.cpu_count()} PYTHONDONTWRITEBYTECODE=1 (set for every process)")
    from spans import DERIVED
    for metric, (value, unit, samples) in table.items():
        note = f"  derived: {DERIVED[metric]}" if metric in DERIVED else ""
        print(f"{metric:30s} {value:14.4f} {unit:16s} n={samples}{note}")
    print(f"# failed={failed} of attempted={attempted}; {known_defect} failed as the known "
          f"defect (money sort across currencies, exit 0 instead of a QueryError)")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=48)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "newsforms" / "cli.py").is_file():
        print(f"error: run from the root of a newsforms checkout; "
              f"{ROOT / 'src' / 'newsforms'} not found", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        print(json.dumps(run_workload(name, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
