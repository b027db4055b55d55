"""The process that runs the workload: it calls ``newsforms.cli.main``
in-process, one op per request, and answers with the op's wall time,
exit code, standard output and standard error, and the mean time of the
calibration work run just before and after the op. The calibration after
an op is the one before the next.

Protocol: one JSON object per line on standard input,
``{"argv": [...], "trace": false}``; one JSON reply per line on standard
output. End of input ends the process; if any op was traced, its spans
are written to the path given as the only argument.

Run by ``run.py`` with ``PYTHONPATH=src:newsbench``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback

from newsforms import cli

from calibrate import calibrate
from spans import Tracer


def run_op(argv: list[str], tracer: Tracer | None, cal_before: float) -> tuple[dict, float]:
    """The reply to one op, and the calibration time measured after it."""
    out, err = io.StringIO(), io.StringIO()
    layers = None
    code = None
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                code = cli.main(argv)
            else:
                code, layers = tracer.run_op(cli.main, argv)
    except SystemExit as exc:   # argparse rejects its arguments this way
        code = exc.code
    except Exception:           # an op that raises is a failed op, not a dead worker
        error = traceback.format_exc()
    ms = (time.perf_counter() - start) * 1000
    cal_after = calibrate()
    return {"ms": ms, "cal_ms": (cal_before + cal_after) / 2, "code": code,
            "out": out.getvalue(), "err": err.getvalue(), "error": error,
            "layers": layers}, cal_after


def main(spans_path: str) -> int:
    replies = sys.stdout
    tracer = Tracer()
    cal = calibrate()
    for line in sys.stdin:
        request = json.loads(line)
        reply, cal = run_op(request["argv"], tracer if request["trace"] else None, cal)
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    if tracer.spans:
        tracer.write(spans_path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
