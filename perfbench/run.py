"""cartankit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload envelope --seed 1 --seconds 40 --trace 0

Run from the repository root; cartankit is imported from ``src/``.  Set-up
runs the seeded input generator (``inputs.py``) in fresh interpreters, and
the workload's job list runs in whole passes, in this process, for about
``--seconds`` of measured time (see ``measure``).  Every job is checked
against its known answer.  With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` untraced and traced passes alternate
and it holds the per-layer metrics of the traced passes.  Set-up files,
the per-job record and the spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS and OpenMP, pinned before numpy is imported.
_PINNED = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(_PINNED)
os.environ.pop("CARTANKIT_THREADS", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from environment import describe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import TOP_JOB, build_jobs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("envelope", "cstar", "tables")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Passes a run makes if they fit in twice ``--seconds``: the median of
#: three drops one slow pass, where the median of two is their mean.
MIN_PASSES = 3
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="cartankit benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def set_up(workload: str, seed: int, out: Path) -> float:
    """One set-up in a fresh interpreter: start, import cartankit, generate
    and write the inputs.  Returns its wall time."""
    cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--src", str(SRC)]
    t = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # A blocking wait returns as soon as the child exits; wait(timeout)
    # would poll in steps of up to 50 ms and quantize the time.
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        rc = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - t
    if rc != 0:
        raise subprocess.CalledProcessError(rc, cmd)
    return elapsed


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        if path.name != "manifest.json":  # it names its own directory
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(jobs, tracer=None) -> tuple:
    """One pass over the job list; returns (wall time, per-job records)."""
    records = []
    start = perf_counter()
    for job in jobs:
        close = None
        if tracer is not None:
            tracer.job = job.name
            close = tracer.span(f"job:{job.name}", "bench")
        t = perf_counter()
        try:
            rc, text, error = *job.run(), None
        except Exception:  # a job that raises is a failed job
            rc, text, error = None, "", traceback.format_exc(limit=4)
        finally:
            if close is not None:
                close()
        records.append({"job": job.name, "s": perf_counter() - t, "rc": rc,
                        "text": text, "error": error})
    return perf_counter() - start, records


def measure(jobs, seconds: float, trace: bool, between) -> list:
    """Whole passes while the next one is expected to end within
    ``seconds`` of measured time, or, until MIN_PASSES are done, within
    twice that.  Traced runs alternate untraced and traced passes and make
    at least one of each.  ``between`` runs after each pass, outside the
    measured time."""
    passes = []  # (traced, wall time, records, tracer)
    while True:
        traced = trace and bool(passes) and not passes[-1][0]
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install()
        try:
            wall, records = run_pass(jobs, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passes.append((traced, wall, records, tracer))
        between()
        walls = [p[1] for p in passes]
        limit = seconds if len(passes) >= MIN_PASSES else 2 * seconds
        enough = sum(walls) + statistics.median(walls) > limit
        if enough and (not trace or any(p[0] for p in passes)):
            return passes


def check(jobs, passes) -> tuple:
    """Oracle over every job of every pass; reports must also be identical
    across passes, traced or not.  Returns (attempted, failures)."""
    checks = {j.name: j.check for j in jobs}
    first = {r["job"]: r["text"] for r in passes[0][2]}
    attempted, failures = 0, []
    for k, (_, _, records, _) in enumerate(passes):
        for r in records:
            attempted += 1
            problems = [r["error"]] if r["error"] else \
                checks[r["job"]](r["rc"], r["text"])
            if r["text"] != first[r["job"]]:
                problems.append("report differs from the first pass")
            if problems:
                failures.append({"pass": k, "job": r["job"],
                                 "problems": problems})
    return attempted, failures


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(workload, passes, setup_times) -> tuple:
    walls = [w for _, w, _, _ in passes]
    top = [r["s"] for _, _, records, _ in passes for r in records
           if r["job"] == TOP_JOB[workload]]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (_median(walls), "s"),
        "top_job_s": (_median(top), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }
    samples = {"pass_s": len(walls), "top_job_s": len(top),
               "setup_s": len(setup_times)}
    return metrics, samples


def per_layer(passes) -> tuple:
    untraced = [w for t, w, _, _ in passes if not t]
    traced = [(w, tr.summary()) for t, w, _, tr in passes if t]
    summaries = [s for _, s in traced]
    metrics = {}
    for key in summaries[0]:
        unit = ("s" if key.endswith("_s") else
                "MB" if key.endswith("_mb") else
                "flop" if key.endswith("_flops") else
                "ratio" if key.endswith("_yield") else "count")
        metrics[key] = (_median([s[key] for s in summaries]), unit)
    traced_pass = _median([w for w, _ in traced])
    metrics["trace.pass_s"] = (traced_pass, "s")
    metrics["trace.overhead_s"] = (traced_pass - _median(untraced), "s")
    return metrics, {"traced_passes": len(traced),
                     "untraced_passes": len(untraced)}


def write_spans(path: Path, passes):
    """All spans of the traced passes as columns of one ``.npz``: name,
    layer and job are indices into the ``*_names`` tables, ``parent`` is a
    row index (-1 for a root span) and times are ``perf_counter`` seconds."""
    tables = {"name": {}, "layer": {}, "job": {}}
    cols = {k: [] for k in ("pass", "name", "layer", "start", "end",
                            "parent", "job")}
    offset = 0
    for k, (traced, _, _, tracer) in enumerate(passes):
        if not traced:
            continue
        for name, layer, start, end, parent, job in tracer.spans:
            cols["pass"].append(k)
            cols["name"].append(tables["name"].setdefault(name, len(tables["name"])))
            cols["layer"].append(tables["layer"].setdefault(layer, len(tables["layer"])))
            cols["job"].append(tables["job"].setdefault(job, len(tables["job"])))
            cols["start"].append(start)
            cols["end"].append(end)
            cols["parent"].append(parent + offset if parent >= 0 else -1)
        offset += len(tracer.spans)
    arrays = {k: np.array(v, dtype=np.float64 if k in ("start", "end")
                          else np.int32) for k, v in cols.items()}
    for key, table in tables.items():
        arrays[f"{key}_names"] = np.array(list(table), dtype=str)
    np.savez_compressed(path, **arrays)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cartankit" / "__init__.py").is_file():
        sys.stderr.write(f"cartankit sources not found under {SRC}\n")
        return 2
    work = OUT / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_times = [set_up(args.workload, args.seed, work / "inputs0")]
    with open(work / "inputs0" / "manifest.json") as fh:
        manifest = json.load(fh)
    sys.path.insert(0, str(SRC))
    import cartankit
    if Path(cartankit.__file__).resolve().parent != SRC / "cartankit":
        sys.stderr.write(f"imported cartankit from {cartankit.__file__}\n")
        return 2
    jobs = build_jobs(manifest)
    inputs_digest = _digest(work / "inputs0")

    def between():
        """The remaining set-ups, spread over the run; each must write
        byte-identical inputs."""
        if args.trace or len(setup_times) >= SETUP_REPEATS:
            return
        out = work / f"inputs{len(setup_times)}"
        setup_times.append(set_up(args.workload, args.seed, out))
        if _digest(out) != inputs_digest:
            raise RuntimeError(f"set-up is not deterministic: {out}")

    passes = measure(jobs, args.seconds, bool(args.trace), between)
    while not args.trace and len(setup_times) < SETUP_REPEATS:
        between()
    attempted, failures = check(jobs, passes)

    if args.trace:
        metrics, counts = per_layer(passes)
        write_spans(work / "spans.npz", passes)
    else:
        metrics, counts = end_to_end(args.workload, passes, setup_times)
    per_job = {}
    for _, _, records, _ in passes:
        for r in records:
            per_job.setdefault(r["job"], []).append(r["s"])
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": describe(ROOT, SRC),
        "samples": counts,
        "failed_jobs_ratio": {"failed": len(failures), "attempted": attempted},
        "failures": failures[:20],
        "jobs": {name: {"median_s": _median(ts), "samples": len(ts)}
                 for name, ts in per_job.items()},
        "passes": [{"traced": t, "s": w} for t, w, _, _ in passes],
        "job_samples": per_job,
        "setup_samples": setup_times,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(work / "result.json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for i in range(len(setup_times)):
        shutil.rmtree(work / f"inputs{i}", ignore_errors=True)

    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "environment", "samples", "jobs")},
                     sort_keys=True))
    for f in failures[:5]:
        print(f"FAILED pass {f['pass']} {f['job']}: {f['problems']}")
    for key, (value, unit) in metrics.items():
        print(f"{key:38s} {value:14.6g} {unit}")
    print(f"{'failed_jobs_ratio':38s} {len(failures) / attempted:14.6g} "
          f"({len(failures)} failed of {attempted} jobs attempted)")
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
