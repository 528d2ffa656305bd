"""Job lists of the three workloads and the known-answer oracle.

A job runs cartankit on generated inputs, either through
``cartankit.cli.main`` (capturing the JSON report it prints) or through
the public library functions, and returns ``(exit code, report text)``.
Functions are looked up on their modules at call time, so a traced pass
reaches the wrapped bindings.  ``check`` returns the list of ways a
report differs from the known answer; an empty list is a correct job.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: A norm-table entry of a delta function (a partial isometry) is 1.
NORM_TOL = 1e-9
#: Relative residual allowed for the convolution laws on dense functions.
LAW_BOUND = 1e-11


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], tuple]
    check: Callable[[object, str], list]


def call_cli(argv) -> tuple:
    from cartankit import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue() + err.getvalue()


def _report(rc, text, want_rc, problems) -> dict | None:
    if rc != want_rc:
        problems.append(f"exit code {rc}, expected {want_rc}")
    try:
        return json.loads(text)
    except ValueError:
        problems.append("report is not JSON")
        return None


def _expect(problems, report, key, want):
    got = report.get(key)
    if got != want:
        problems.append(f"{key} = {got!r}, expected {want!r}")


# --- oracle ------------------------------------------------------------------

def check_analyze(spec, rc, text) -> list:
    n = spec["n"]
    problems = []
    r = _report(rc, text, 0, problems)
    if r is not None:
        for key in ("masa", "regular", "unique_pseudo_expectation"):
            _expect(problems, r, key, True)
        _expect(problems, r, "corner_dims", [1] * n)
        _expect(problems, r, "left_kernel_dim", 0)
        _expect(problems, r, "C_dim", n * n)
        _expect(problems, r, "D_dim", n)
    return problems


def _twist_arrows(r) -> int | None:
    try:
        return len(r["twist"]["groupoid"]["arrows"])
    except (KeyError, TypeError):
        return None


def check_weyl(spec, rc, text) -> list:
    n = spec["n"]
    problems = []
    r = _report(rc, text, 0, problems)
    if r is not None:
        _expect(problems, r, "units", n)
        _expect(problems, r, "arrows", n * n)
        if _twist_arrows(r) != n * n:
            problems.append(f"twist has {_twist_arrows(r)} arrows, "
                            f"expected {n * n}")
    return problems


def check_envelope(spec, rc, text) -> list:
    n = spec["n"]
    problems = []
    r = _report(rc, text, 0, problems)
    if r is not None:
        _expect(problems, r, "success", True)
        _expect(problems, r, "block_structure", [n])
        if _twist_arrows(r) != n * n:
            problems.append(f"twist has {_twist_arrows(r)} arrows, "
                            f"expected {n * n}")
    return problems


def check_cstar(spec, rc, text) -> list:
    problems = []
    r = _report(rc, text, 0, problems)
    if r is None:
        return problems
    _expect(problems, r, "block_structure", spec["blocks"])
    cartan = r.get("cartan") or {}
    if spec["k4"]:
        want = {"masa": False, "regular": True, "faithful_E": True,
                "is_cartan": False}
    else:
        want = {"masa": True, "regular": True, "faithful_E": True,
                "is_cartan": True}
    _expect(problems, {"cartan": cartan}, "cartan", want)
    norms = r.get("norm_table") or {}
    if len(norms) != spec["arrows"]:
        problems.append(f"norm_table has {len(norms)} entries, "
                        f"expected {spec['arrows']}")
    off = [a for a, v in norms.items()
           if not (isinstance(v, (int, float)) and abs(v - 1.0) <= NORM_TOL)]
    if off:
        problems.append(f"{len(off)} norm_table entries differ from 1, "
                        f"e.g. {off[0]!r}")
    return problems


def check_validate(spec, rc, text) -> list:
    problems = []
    if spec["valid"]:
        r = _report(rc, text, 0, problems)
        if r is not None:
            _expect(problems, r, "valid", True)
            _expect(problems, r, "violations", [])
        return problems
    r = _report(rc, text, 1, problems)
    if r is not None:
        _expect(problems, r, "valid", False)
        hits = [v for v in r.get("violations") or []
                if "cocycle identity fails" in v]
        if not hits:
            problems.append("corrupted cocycle reported no cocycle "
                            "identity violation")
    return problems


def check_laws(rc, text) -> list:
    problems = []
    r = _report(rc, text, 0, problems)
    if r is not None:
        for law in ("associativity", "involution", "transpose"):
            v = r.get(law)
            if not (isinstance(v, float) and np.isfinite(v)
                    and v < LAW_BOUND):
                problems.append(f"{law} residual {v!r} not below "
                                f"{LAW_BOUND:g}")
    return problems


# --- library jobs -------------------------------------------------------------

def _norm(f) -> float:
    return float(np.linalg.norm(f.values))


def law_residuals(path, triples, ids) -> tuple:
    """Relative residuals of the convolution laws on dense functions:
    associativity, (f*g)* = g* * f*, and tau(f*g) = tau(g) * tau(f)."""
    from cartankit import serialize, twist
    T = serialize.twist_from_json(serialize.load_json(path))
    pos = {a: i for i, a in enumerate(ids)}
    order = np.array([pos[a] for a in T.groupoid.arrows])
    conv = twist.convolve
    worst = {"associativity": 0.0, "involution": 0.0, "transpose": 0.0}
    for values in triples:
        f, g, h = (twist.EquivariantFunction(T, 1, v[order]) for v in values)
        fg = conv(f, g)
        scale = _norm(f) * _norm(g)
        res = {
            "associativity": _norm(conv(fg, h) - conv(f, conv(g, h)))
            / (scale * _norm(h)),
            "involution": _norm(twist.involution(fg) - conv(
                twist.involution(g), twist.involution(f))) / scale,
            "transpose": _norm(twist.transpose(fg) - conv(
                twist.transpose(g), twist.transpose(f))) / scale,
        }
        for law, v in res.items():
            worst[law] = max(worst[law], v)
    return 0, json.dumps(worst, sort_keys=True)


# --- workloads ------------------------------------------------------------------

#: The job whose time is ``top_job_s``: the longest job of each workload.
TOP_JOB = {"envelope": "weyl mndn6", "cstar": "cstar k4s_pair6",
           "tables": "validate pair20"}


def _cli_job(cmd, spec, check):
    """``cartankit <cmd> <input>``, checked by ``check(spec, rc, text)``."""
    path = spec["path"]
    return Job(f"{cmd} {spec['name']}", lambda: call_cli([cmd, path]),
               functools.partial(check, spec))


def build_jobs(manifest: dict) -> list:
    """The workload's job list, in pass order."""
    workload = manifest["workload"]
    jobs = []
    if workload == "envelope":
        checks = {"analyze": check_analyze, "weyl": check_weyl,
                  "envelope": check_envelope}
        for spec in manifest["inputs"]:
            for cmd in spec["commands"]:
                jobs.append(_cli_job(cmd, spec, checks[cmd]))
    elif workload == "cstar":
        for spec in manifest["inputs"]:
            jobs.append(_cli_job("cstar", spec, check_cstar))
    elif workload == "tables":
        for spec in manifest["inputs"]:
            jobs.append(_cli_job("validate", spec, check_validate))
        with np.load(manifest["laws"]) as arrays:
            laws = {k: arrays[k] for k in arrays.files}
        for spec in manifest["inputs"]:
            if spec["name"] not in laws:
                continue
            triples = laws[spec["name"]]
            ids = [str(a) for a in laws[spec["name"] + ".ids"]]
            jobs.append(Job(
                f"laws {spec['name']}",
                lambda p=spec["path"], t=triples, i=ids: law_residuals(p, t, i),
                check_laws))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if TOP_JOB[workload] not in {j.name for j in jobs}:
        raise ValueError(f"top job {TOP_JOB[workload]!r} missing")
    return jobs
