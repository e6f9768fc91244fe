"""One pass of a workload in a fresh interpreter.

Reads the generated inputs as JSON on standard input, imports the
package from ``src`` under the current directory, runs the workload's
ops one after another on this thread, checks every answer and prints
one JSON line: set-up and op timings, peak memory, answer digests,
failures and, when traced, the per-layer figures.

    python3 bench/one_pass.py <workload> <spawn time> [<spans file> | --setup-only]

``<spawn time>`` is the driving process's ``time.monotonic()`` just
before it started this one, so set-up includes interpreter start.
With ``--setup-only`` the process stops once the ops are built and
prints only its set-up time: a fraction of a second that host load
easily doubles, so the driving process takes more samples of it than
there are passes.
"""

from __future__ import annotations

import collections
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"


def _digest(answer) -> str:
    return hashlib.sha256(json.dumps(answer, sort_keys=True).encode()).hexdigest()[:16]


def main(argv: list[str]) -> int:
    workload, spawned = argv[0], float(argv[1])
    setup_only = argv[2:] == ["--setup-only"]
    spans_path = argv[2] if len(argv) > 2 and not setup_only else None
    if sys.flags.optimize:
        print("error: run without -O, which strips the package's witness checks",
              file=sys.stderr)
        return 2
    inputs = json.load(sys.stdin)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import surface_minors
    import surface_minors.cli  # noqa: F401  (not imported by the package itself)
    if not Path(surface_minors.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported {surface_minors.__file__}, not the checkout's src",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    ops = workloads.build_ops(workload, inputs, surface_minors)
    setup_s = time.monotonic() - spawned
    if setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = restore = None
    if spans_path:
        tracer = tracing.Tracer()
        restore = tracing.install(tracer, surface_minors)
    answers, errors, times = [], {}, []
    first = time.perf_counter()
    for i, (_, run, _) in enumerate(ops):
        if tracer:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            answers.append(run())
        except Exception as exc:  # an op that raises is counted, not fatal
            answers.append(None)
            errors[i] = f"raised {type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - t0)
    wall_s = time.perf_counter() - first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if restore:
        restore()

    failures = []
    provenance = collections.Counter()
    for i, ((name, _, check), answer) in enumerate(zip(ops, answers)):
        if i in errors:
            failures.append([name, errors[i]])
            continue
        try:
            reason, source = check(answer)
        except Exception as exc:  # a malformed answer fails its op
            reason, source = f"answer could not be checked: {type(exc).__name__}: {exc}", ""
        if reason:
            failures.append([name, reason])
        else:
            provenance[source] += 1

    result = {"setup_s": setup_s, "wall_s": wall_s, "op_s": times,
              "names": [name for name, _, _ in ops], "peak_rss_mb": peak_rss_mb,
              "digests": [_digest(a) for a in answers], "failures": failures,
              "provenance": dict(provenance)}
    if tracer:
        spans = tracer.spans
        result["layers"] = tracing.layer_metrics(spans)
        result["self_sum_s"] = sum(tracing.self_times(spans))
        result["spans"] = len(spans)
        tracer.dump(spans_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
