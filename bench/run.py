"""Benchmark of the surface_minors package.  Run from the root of a
checkout:

    python3 bench/run.py --workload genus-exact --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from the seed in this process.  Each
pass runs in a fresh interpreter (``one_pass.py``), one after another,
so module caches start empty as they do for a command-line user; this
process starts no other work while a pass runs.  Passes repeat until
the time is spent.  With ``--trace 0`` the last line is a JSON object
with the end-to-end metrics; with ``--trace 1`` traced and untraced
passes alternate and it carries the per-layer metrics instead.  Each
untraced pass is followed by set-up-only processes, so ``setup_s`` is
a median over three times as many samples as there are passes.  Wrong
answers are counted and printed with the op's name; ``correct`` is
false when an answer disagrees with its reference in a way not listed
in ``reference.KNOWN_DEFECTS``, when passes disagree with each other,
or when self times exceed the traced wall time.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3          # untraced passes per --trace 0 run, whatever --seconds says
SETUP_REPEATS = 2       # extra set-up-only processes after each untraced pass
RUN_LIMIT_S = 170       # a run must end well inside 180 s
OUT_DIR = ".bench_out"  # spans of the last traced pass, relative to the checkout


class PassFailed(RuntimeError):
    pass


def run_pass(workload: str, payload: bytes, env: dict, timeout: float,
             extra: list[str]) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, str(BENCH / "one_pass.py"), workload, repr(spawned), *extra]
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    try:
        out, err = proc.communicate(payload, timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassFailed(f"pass exceeded {timeout:.0f} s and was stopped")
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass exited with {proc.returncode}: {err.decode()[-2000:]}")
    return json.loads(lines[-1])


def end_to_end(untraced: list[dict], setups: list[float], attempted: int,
               failed: int) -> dict:
    med = statistics.median
    return {
        "setup_s": (med([p["setup_s"] for p in untraced] + setups), "s"),
        "wall_s": (med(p["wall_s"] for p in untraced), "s"),
        "op_p50_ms": (med(med(p["op_s"]) * 1000 for p in untraced), "ms"),
        "op_max_ms": (med(max(p["op_s"]) * 1000 for p in untraced), "ms"),
        "correct_share": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (med(p["peak_rss_mb"] for p in untraced), "MB"),
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    med = statistics.median
    out = {name: (med(p["layers"][name] for p in traced), tracing.unit_of(name))
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (med(p["wall_s"] for p in traced)
                               - med(p["wall_s"] for p in untraced), "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "surface_minors" / "__init__.py").is_file():
        print("error: src/surface_minors not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    payload = json.dumps(workloads.generate(args.workload, args.seed)).encode()
    env = {k: v for k, v in os.environ.items()
           if k not in ("SURFACE_MINORS_BUDGET", "PYTHONOPTIMIZE", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"  # passes must give identical answers to be compared
    spans = None
    if args.trace:
        (root / OUT_DIR).mkdir(exist_ok=True)
        spans = str(root / OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl")

    untraced, traced, setups = [], [], []
    first = time.monotonic()
    try:
        while True:
            done = len(untraced) + len(traced)
            elapsed = time.monotonic() - started
            if done:
                per_pass = (time.monotonic() - first) / done
                enough = (len(untraced) >= MIN_PASSES if not args.trace
                          else len(traced) >= 1 and len(traced) == len(untraced))
                if enough and elapsed + per_pass * (1 + args.trace) > args.seconds:
                    break
            tracing_now = bool(args.trace) and len(untraced) > len(traced)
            result = run_pass(args.workload, payload, env,
                              max(1.0, RUN_LIMIT_S - elapsed),
                              [spans] if tracing_now else [])
            (traced if tracing_now else untraced).append(result)
            print(f"pass {done}{' traced' if tracing_now else ''}: setup "
                  f"{result['setup_s']:.3f} s, wall {result['wall_s']:.3f} s, slowest op "
                  f"{max(result['op_s']) * 1000:.1f} ms", flush=True)
            for _ in range(0 if args.trace else SETUP_REPEATS):
                setups.append(run_pass(args.workload, payload, env,
                                       max(1.0, RUN_LIMIT_S - (time.monotonic() - started)),
                                       ["--setup-only"])["setup_s"])
                print(f"set-up only: {setups[-1]:.3f} s", flush=True)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    passes = untraced + traced
    attempted = sum(len(p["op_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    correct = True
    names = untraced[0]["names"]
    if any(p["digests"] != untraced[0]["digests"] for p in passes):
        correct = False
        print("MISMATCH answers differ between passes"
              + (" (traced and untraced)" if traced else ""))
    counts = collections.Counter((name, why) for p in passes for name, why in p["failures"])
    for (name, why), times in sorted(counts.items()):
        known, cause = reference.KNOWN_DEFECTS.get(name, (None, None))
        correct = correct and why == known
        print(f"FAIL {name}: {why}  [{times} of {len(passes)} passes]"
              + (f"  [known defect: {cause}]" if why == known else ""))
    for p in traced:
        if p["self_sum_s"] > p["wall_s"]:
            correct = False
            print(f"TRACE self times {p['self_sum_s']:.6f} s exceed wall {p['wall_s']:.6f} s")
    sources = collections.Counter()
    for p in untraced:
        sources.update(p["provenance"])
    for source, n in sorted(sources.items()):
        print(f"checked {n // len(untraced)} answers per pass: {source}")
    print(f"{args.workload}: {len(names)} ops per pass, {len(untraced)} untraced"
          f" and {len(traced)} traced passes, {len(setups)} set-up-only processes")

    metrics = per_layer(untraced, traced) if args.trace else \
        end_to_end(untraced, setups, attempted, failed)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
