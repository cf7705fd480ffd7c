"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload suite --seed 1 --seconds 14 --trace 0

Run from anywhere; the library is taken from the `src` directory next
to `bench`.  A run is a series of passes, each in a fresh interpreter
(bench/workloads.py).  The number of passes is fixed by --seconds and
the workload's nominal pass length at the commit that defined the
benchmark, so a run does the same work at every commit; at least two
passes are run, and `cli` and `homotopy` reach 100 ops.

With --trace 0 the last line of output holds the end-to-end metrics of
BENCHMARK.json: the median set-up time of SETUP_RUNS set-ups without
ops, medians over passes of wall time, CPU time and peak RSS, op
latency percentiles over all ops of the run, and the share of ops that
returned the recorded result.  With --trace 1 passes
alternate untraced and traced, and the last line holds the per-layer
metrics: medians over traced passes of the summed self time of the
spans around each library call, counts, and the tracing overhead.
The line before it carries the run's metadata.  Both, with per-pass
details, are also written to bench/.out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

import workloads as wl
from measure import REFERENCE_START_S, bare_interpreter, tail_value

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / ".out"
RUN_LIMIT_S = 170  # every run must end within 180 s
MIN_PASSES = 2
SETUP_RUNS = 8


class PassFailed(RuntimeError):
    pass


def run_pass(workload, seed, index, inputs, traced, timeout,
             setup_only=False):
    """Pass number `index` of a run, on the inputs of pass `inputs`;
    with `setup_only`, only its set-up."""
    cmd = [sys.executable, str(BENCH / "workloads.py"), "--workload",
           workload, "--seed", str(seed), "--pass-index", str(inputs),
           "--trace", str(int(traced))]
    if setup_only:
        cmd.append("--setup-only")
    if traced:
        cmd += ["--spans-out",
                str(OUT / f"spans-{workload}-s{seed}-p{index}.json")]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=wl.library_env(ROOT),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"pass {index} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        raise PassFailed(f"pass {index} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = (result["first_op_monotonic"] - started
                         - result["setup_calibration_s"])
    result["elapsed_s"] = time.monotonic() - started
    result["traced"] = traced
    return result


def pass_count(workload, seconds):
    """Passes per run: as many nominal passes as fit in `seconds`, so
    that every run of a workload, at any commit, does the same work and
    yields the same number of samples."""
    return max(MIN_PASSES, round(seconds / wl.WORKLOADS[workload].pass_seconds))


def bare_slowdown():
    start = time.perf_counter()
    bare_interpreter()
    return (time.perf_counter() - start) / REFERENCE_START_S


def run_setups(workload, seed, start):
    """SETUP_RUNS set-ups without their ops, for a steady median.  The
    slowdown of each is the mean of the kernel's, measured inside it,
    and a bare interpreter start's, measured just before and after it:
    set-up is interpreter start and imports as much as Python work, and
    the mean of the two tracks it better than either."""
    setups = []
    before = bare_slowdown()
    for i in range(SETUP_RUNS):
        s = run_pass(workload, seed, i, i, False,
                     RUN_LIMIT_S - (time.monotonic() - start), setup_only=True)
        after = bare_slowdown()
        s["setup_slowdown"] = (s["setup_slowdown"] + (before + after) / 2) / 2
        setups.append(s)
        before = after
    return setups


def run_passes(workload, seed, seconds, trace, start):
    """With tracing, every second pass is traced and gets the same inputs
    as the untraced pass before it, so that the overhead compares
    neighbouring passes doing the same work."""
    passes = []
    wanted = pass_count(workload, seconds)
    min_ops = 0 if trace else wl.WORKLOADS[workload].min_ops
    while len(passes) < wanted or sum(p["attempted"] for p in passes) < min_ops:
        index = len(passes)
        traced = bool(trace) and index % 2 == 1
        passes.append(run_pass(workload, seed, index,
                               index // 2 if trace else index, traced,
                               RUN_LIMIT_S - (time.monotonic() - start)))
    return passes


def end_to_end(passes, setups):
    """Every time is divided by the slowdown measured over the same
    stretch of time (see measure.Calibration): a pass's times by the
    pass's, an op's latency by the op's, a set-up's time by the set-up's
    (see run_setups).  Raw times stay in bench/.out/."""
    latency = [x / f for p in passes
               for x, f in zip(p["latency_s"], p["op_slowdown"])]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    percentile, tail = tail_value(latency)
    values = {
        "setup_s": median(s["setup_s"] / s["setup_slowdown"] for s in setups),
        "wall_s": median(p["wall_s"] / p["slowdown"] for p in passes),
        "cpu_s": median(p["cpu_s"] / p["slowdown"] for p in passes),
        "op_p50_ms": 1000 * median(latency),
        "op_p90_ms": 1000 * tail,
        "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
    }
    return values, {"op_samples": len(latency),
                    "op_tail_percentile": percentile}


def layer_value(p, name, unit):
    """A per-layer metric of one traced pass: a value the workload
    reported, or the summed self time of the spans named after it.
    Times are divided by the pass's slowdown, as in `end_to_end`."""
    if unit not in ("s", "ms"):
        return p["layers"].get(name, 0)
    if name in p["layers"]:
        return p["layers"][name] / p["slowdown"]
    seconds = p["span_self_s"].get(name.rsplit("_", 1)[0], 0.0)
    return (1000 if unit == "ms" else 1) * seconds / p["slowdown"]


def per_layer(passes, spec):
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = {
        m["name"]: (median_low if m["unit"] == "count" else median)(
            [layer_value(p, m["name"], m["unit"]) for p in traced])
        for m in spec if m["name"] != "trace.overhead_s"
    }
    values["trace.overhead_s"] = (
        median(p["wall_s"] / p["slowdown"] for p in traced)
        - median(p["wall_s"] / p["slowdown"] for p in plain))
    return values, {"traced_passes": len(traced), "untraced_passes": len(plain)}


# -- metadata --------------------------------------------------------------


def commit():
    """HEAD of the checkout, or "unknown" outside a git work tree (the
    ceiling keeps git from finding a repository above the checkout)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args):
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "commit": commit(),
        "src_sha256": src_digest(), "python": platform.python_version(),
        "cpu_model": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "posetbundle" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_file.read_text())
    OUT.mkdir(exist_ok=True)
    meta = metadata(args)
    try:
        start = time.monotonic()
        setups = [] if args.trace else run_setups(args.workload, args.seed,
                                                  start)
        passes = run_passes(args.workload, args.seed, args.seconds,
                            args.trace, start)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta["loadavg_end"] = os.getloadavg()
    meta["passes"] = len(passes)
    meta["slowdowns"] = [round(p["slowdown"], 3) for p in passes]
    if args.workload == "atlas":
        meta["atlas_dropped_cells"] = list(wl.ATLAS_DROPPED)
    if args.trace:
        values, extra = per_layer(passes, spec["per_layer"])
        declared = spec["per_layer"]
    else:
        values, extra = end_to_end(passes, setups)
        declared = spec["end_to_end"]
    meta.update(extra)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [x for p in passes for x in p["problems"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    details = {"meta": meta, "problems": problems[:50], "result": result,
               "passes": passes, "setups": setups}
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    (OUT / name).write_text(json.dumps(details, indent=1))
    for problem in problems[:10]:
        print(f"failed: {problem}")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
