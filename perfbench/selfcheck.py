"""Self-check of the benchmark's oracle: genuine reports pass, tampered
reports fail, and a tampered job raises the failed-jobs count.

    python3 perfbench/selfcheck.py

Run from the repository root; it takes a few seconds and exits 1 if the
oracle misses a tampered answer.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import run  # pins the thread environment before numpy loads
from inputs import generate
from workloads import Job, build_jobs


def _edit(text, fn, rc=None):
    """A tampered copy of a (rc, report text) pair."""
    report = copy.deepcopy(json.loads(text))
    fn(report)
    return rc, json.dumps(report)


def _set(key, value):
    return lambda r: r.__setitem__(key, value)


def _drop_arrow(r):
    r["twist"]["groupoid"]["arrows"].pop()


def _bump_norm(r):
    first = sorted(r["norm_table"])[0]
    r["norm_table"][first] += 1e-6


def _nested(outer, key, value):
    return lambda r: r[outer].__setitem__(key, value)


# job name -> tampered variants (label, edit, exit code or None for genuine)
TAMPER = {
    "analyze mndn4": [("masa false", _set("masa", False), None),
                      ("corner of dim 2", _set("corner_dims", [2, 1, 1, 1]), None),
                      ("left kernel", _set("left_kernel_dim", 1), None),
                      ("exit 1", lambda r: None, 1)],
    "weyl mndn4": [("arrow count", _set("arrows", 15), None),
                   ("twist arrow dropped", _drop_arrow, None)],
    "envelope mndn4": [("no success", _set("success", False), None),
                       ("blocks", _set("block_structure", [3, 1]), None),
                       ("twist arrow dropped", _drop_arrow, None)],
    "cstar pair6": [("blocks", _set("block_structure", [7]), None),
                    ("not cartan", _nested("cartan", "is_cartan", False), None),
                    ("norm off by 1e-6", _bump_norm, None)],
    "cstar k4s_pair4": [("masa true", _nested("cartan", "masa", True), None),
                        ("one block", _set("block_structure", [4]), None),
                        ("faithful false",
                         _nested("cartan", "faithful_E", False), None)],
    "validate cyclic48": [("violation", _set("violations", ["x"]), None)],
    "validate corrupt_pair12": [("exit 0", lambda r: None, 0),
                                ("no violations", _set("violations", []), None),
                                ("valid", _set("valid", True), None)],
    "laws cyclic48": [("residual 1e-6", _set("associativity", 1e-6), None),
                      ("residual nan", _set("transpose", float("nan")), None)],
}


def main() -> int:
    work = run.OUT / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    sys.path.insert(0, str(run.SRC))
    jobs = {}
    for workload in run.WORKLOADS:
        man = generate(workload, 0, str(work / workload))
        jobs.update({j.name: j for j in build_jobs(man)})

    missed = []
    for name, variants in TAMPER.items():
        job = jobs[name]
        rc, text = job.run()
        genuine = job.check(rc, text)
        if genuine:
            missed.append(f"{name}: genuine report flagged: {genuine}")
        for label, fn, bad_rc in variants:
            t_rc, t_text = _edit(text, fn, rc if bad_rc is None else bad_rc)
            problems = job.check(t_rc, t_text)
            print(f"{name:26s} {label:22s} -> "
                  f"{'flagged' if problems else 'MISSED'}")
            if not problems:
                missed.append(f"{name}: {label}")

    # A tampered job in a real pass raises the failed-jobs count.
    laws = jobs["laws cyclic48"]
    tampered = Job(laws.name, lambda: _edit(
        laws.run()[1], _set("involution", 1.0), 0), laws.check)
    _, records = run.run_pass([jobs["validate cyclic48"], tampered])
    attempted, failures = run.check([jobs["validate cyclic48"], tampered],
                                    [(False, 0.0, records, None)])
    print(f"failed_jobs_ratio with one tampered job: "
          f"{len(failures)}/{attempted}")
    if len(failures) != 1:
        missed.append("tampered job did not raise failed_jobs_ratio")

    shutil.rmtree(work, ignore_errors=True)
    for m in missed:
        print("MISSED", m)
    print("selfcheck", "FAILED" if missed else "ok")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
