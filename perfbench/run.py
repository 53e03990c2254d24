"""liesym benchmark: one closed-loop client driving seeded jobs.

Run from the root of a liesym checkout:

    python3 perfbench/run.py --workload build --seed 1 --seconds 30 --trace 0

Set-up: a fresh interpreter imports liesym (from this checkout's src) and
makes the catalog entries the workload uses, several times; setup_s is the
median.  Then one client in this process runs the workload's job stream,
each job starting when the previous one has finished, until the jobs have
taken --seconds of wall time.  Outputs are checked after the loop, against
references the program did not produce.

Latencies are scaled to a reference core speed (calibrate.py) and
summarised over a fixed reference mix of slot medians (mix_latencies);
the wall-clock figures are printed next to them and kept in the results.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same pass,
then replays exactly the same jobs with spans around the public liesym
functions (see tracer.py), checks that both passes reach the same verdicts,
and prints the per-layer metrics, including traced over untraced wall time.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Per-run details (metadata, job mix, failures, per-layer numbers)
go to perfbench/results/, spans of traced runs next to them.  The exit
code is 0 only when every output passed its check.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 9
# rounds in the reference mix that jobs_per_s and the percentiles describe
MIX_ROUNDS = 24
# catalog entries each workload's set-up makes
SETUP_ENTRIES = {
    "build": ["riccati", "dbh", "kummer_schwarz", "quaternionic", "cayley_klein",
              "buchdahl", "painleve_ince"],
    "numeric": ["riccati", "cayley_klein", "quaternionic", "kummer_schwarz",
                "painleve_ince", "dbh", "aff_generic"],
    "multitime": ["partial_riccati"],
}
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import liesym
for name in sys.argv[1:]:
    liesym.make(name)
elapsed = time.perf_counter() - t0
import calibrate
print(elapsed, calibrate.import_probe_seconds())
"""


def measure_setup(src: str, workload: str) -> Tuple[float, float]:
    """Median set-up time over fresh interpreters, scaled and as measured.

    Each child's time is scaled by the import probe it runs afterwards
    (calibrate.py).  The child gets an absolute src path in PYTHONPATH, so
    it imports this checkout's liesym wherever it runs.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]))
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD] + SETUP_ENTRIES[workload],
            env=env, capture_output=True, text=True, timeout=120, check=True)
        elapsed, probe = map(float, proc.stdout.split()[-2:])
        raw.append(elapsed)
        scaled.append(elapsed * calibrate.IMPORT_REFERENCE_S / probe)
    return statistics.median(scaled), statistics.median(raw)


class Record:
    """One job run: wall seconds, and seconds scaled to reference speed."""

    __slots__ = ("job", "prep", "out", "seconds", "scaled", "ok", "detail")

    def __init__(self, job, prep, out, seconds, scaled):
        self.job, self.prep, self.out = job, prep, out
        self.seconds, self.scaled = seconds, scaled
        self.ok, self.detail = False, ""


def run_pass(jobs, workdir: str, seconds: Optional[float], tracer=None) -> List[Record]:
    """Run jobs one after another; stop once they took `seconds` (None: all)."""
    os.makedirs(workdir)
    records = []
    busy = 0.0
    gc.collect()
    loop_before = calibrate.loop_seconds()
    for idx, job in enumerate(jobs):
        if seconds is not None and busy >= seconds:
            break

        def files(name, idx=idx):
            return os.path.join(workdir, f"j{idx}-{name}")

        prep = workloads.prepare(job, files)
        if tracer is not None:
            tracer.job = idx
        with calibrate.Sampler() as sampler:
            start = time.perf_counter()
            try:
                out = workloads.run(job, prep)
            except Exception as exc:  # a job that raises is a failed job
                out = exc
            elapsed = time.perf_counter() - start
        elapsed -= sampler.spent
        loop_after = calibrate.loop_seconds()
        busy += elapsed
        speed = statistics.median([loop_before, loop_after] + sampler.samples)
        records.append(Record(job, prep, out, elapsed,
                              calibrate.scale(elapsed, speed)))
        loop_before = loop_after
    return records


def check_pass(records: List[Record]) -> None:
    for rec in records:
        try:
            rec.ok, rec.detail = workloads.check(rec.job, rec.prep, rec.out)
        except Exception as exc:  # an unreadable output fails its check
            rec.ok, rec.detail = False, f"check raised {exc!r}"
        rec.out = None


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metadata(root: str) -> dict:
    import numpy
    import scipy

    loc = 0
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    loc += sum(1 for _ in fh)
    commit = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "src_loc": loc, "commit": commit,
            "cpus": os.cpu_count()}


def slot_medians(records: List[Record], raw: bool = False) -> Dict[str, float]:
    """slot -> median scaled (or, with raw, wall) latency of its jobs.

    A slot is one position of the repeated round (or of the prefix), so
    its jobs do the same kind of work on different seeded values; the
    median over the rounds keeps a burst of contention on a shared
    machine from moving the result.
    """
    by_slot = defaultdict(list)
    for r in records:
        by_slot[r.job["slot"]].append(r.seconds if raw else r.scaled)
    return {slot: statistics.median(v) for slot, v in by_slot.items()}


def mix_latencies(records: List[Record], raw: bool = False) -> List[float]:
    """Latencies of the reference mix: the prefix once, MIX_ROUNDS rounds.

    Fixing the mix keeps the share of the long prefix jobs independent of
    how many rounds happened to fit into the run.
    """
    medians = slot_medians(records, raw)
    prefix = [m for slot, m in medians.items() if slot.startswith("p")]
    rounds = [m for slot, m in medians.items() if slot.startswith("r")]
    return prefix + rounds * MIX_ROUNDS


def slot_summary(records: List[Record]) -> dict:
    """slot -> [kind, jobs run, median seconds]."""
    medians = slot_medians(records)
    out = {}
    for r in records:
        entry = out.setdefault(r.job["slot"], [r.job["kind"], 0, medians[r.job["slot"]]])
        entry[1] += 1
    return out


def end_to_end(records: List[Record], setup_s: float, rss: float,
               raw: bool = False) -> dict:
    attempted = len(records)
    passed = sum(r.ok for r in records)
    mix = mix_latencies(records, raw)
    return {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (passed / attempted * len(mix) / sum(mix), "jobs/s"),
        "job_p50_s": (statistics.median(mix), "s"),
        "job_p90_s": (percentile(mix, 0.9), "s"),
        "pass_ratio": (passed / attempted, "1"),
        "peak_rss_mb": (rss, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "liesym", "__init__.py")):
        print(f"perfbench: no liesym sources under {src}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import liesym

    if not os.path.abspath(liesym.__file__).startswith(src + os.sep):
        print(f"perfbench: imported liesym from {liesym.__file__}, not {src}",
              file=sys.stderr)
        return 2

    setup_s, setup_raw = measure_setup(src, args.workload)
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    work_root = os.path.join(HERE, "_work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        plain = run_pass(workloads.job_stream(args.workload, args.seed),
                         os.path.join(workdir, "plain"), args.seconds)
        rss = peak_rss_mb()
        meta = metadata(root)
        check_pass(plain)
        e2e = end_to_end(plain, setup_s, rss)
        layers = None
        traced = None
        if args.trace:
            from tracer import Tracer, layer_metrics

            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass([r.job for r in plain],
                                  os.path.join(workdir, "traced"), None, tracer)
            finally:
                tracer.restore()
            check_pass(traced)
            overhead = sum(mix_latencies(traced)) / sum(mix_latencies(plain))
            layers = layer_metrics(tracer.self_times(), tracer.counts,
                                   sum(r.seconds for r in traced), overhead)
            tracer.write_spans(os.path.join(results, f"{tag}.spans.jsonl.gz"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [(i, r.job["kind"], r.detail) for i, r in enumerate(plain) if not r.ok]
    correct = not failures
    if traced is not None:
        same = [(r.ok, r.detail) for r in plain] == [(r.ok, r.detail) for r in traced]
        traced_failures = [(i, r.job["kind"], r.detail)
                           for i, r in enumerate(traced) if not r.ok]
        if not same or traced_failures:
            correct = False
            failures += [(i, kind, "traced: " + d) for i, kind, d in traced_failures]
            if not same:
                failures.append((-1, "trace", "traced verdicts differ from untraced"))

    kinds = Counter(r.job["kind"] for r in plain)
    medians = slot_medians(plain)
    p90 = e2e["job_p90_s"][0]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g}: "
          f"{len(plain)} jobs run in {len(medians)} slots; "
          f"{sum(medians[r.job['slot']] > p90 for r in plain)} of them in slots "
          f"beyond p90")
    print("meta " + json.dumps(meta, sort_keys=True))
    wall = end_to_end(plain, setup_raw, rss, raw=True)
    print(f"  {'metric':12s} {'reference':>11s} {'wall clock':>11s}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:12s} {value:11.6g} {wall[name][0]:11.6g} {unit}")
    if layers is not None:
        for name, (value, unit) in layers.items():
            if name.startswith(("share.", "trace.")):
                print(f"  {name:28s} {value:.4f}")
    for i, kind, detail in failures[:20]:
        print(f"  FAILED job {i} ({kind}): {detail}", file=sys.stderr)

    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "meta": meta,
                   "job_mix": dict(sorted(kinds.items())),
                   "end_to_end": {k: v[0] for k, v in e2e.items()},
                   "wall_clock": {k: v[0] for k, v in wall.items()},
                   "slots": slot_summary(plain),
                   "per_layer": {k: v[0] for k, v in layers.items()} if layers else None,
                   "failures": failures}, fh, indent=1, sort_keys=True)
        fh.write("\n")

    chosen = layers if args.trace else e2e
    print(json.dumps({
        "correct": correct,
        "attempted": len(plain),
        "failed": len(plain) - sum(r.ok for r in plain),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
