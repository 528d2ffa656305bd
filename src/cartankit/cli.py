"""Command-line front end.

Every command emits a JSON report (the single source of truth); the text
format is rendered from that JSON.  Exit codes: 0 success/all-pass,
1 mathematical violation, 2 input error, 3 resource cap exceeded,
4 undecided (``compare`` on groupoids past the isomorphism search's size,
reported with ``"groupoids_isomorphic": null`` and ``"agree": null``).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import (
    CartanKitError,
    DimensionOverflow,
    IsomorphismUndecided,
    ParseError,
)
from .inclusion import pseudo_expectations, strongly_compatible
from .matalg import DIM_CAP, EPS
from .reduced import is_cartan_pair, realize
from .serialize import (
    TWIST_KINDS,
    inclusion_from_json,
    load_file,
    twist_to_json,
)
from .twist import validate_twist

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_RESOURCE = 3
EXIT_UNDECIDED = 4


def _base_report(args) -> dict:
    return {
        "schema": "cartankit/v1",
        "version": __version__,
        "tolerance": args.tolerance,
    }


def _render_text(obj, indent=0) -> str:
    lines = []
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {json.dumps(v)}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {json.dumps(v)}")
    else:
        lines.append(f"{pad}{json.dumps(obj)}")
    return "\n".join(lines)


def _emit(report: dict, args) -> None:
    if args.format == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(_render_text(report) + "\n")


def _load_inclusion(args):
    _, data = load_file(args.path, ("inclusion",))
    return inclusion_from_json(data, cap=args.cap)


def cmd_validate(args) -> int:
    kind, content = load_file(args.path)
    report = _base_report(args)
    report["kind"] = kind
    violations = []
    if kind == "inclusion":
        inclusion_from_json(content, cap=args.cap)  # constructor validates
    else:
        violations = validate_twist(content)
    report["violations"] = violations
    report["valid"] = not violations
    _emit(report, args)
    return EXIT_OK if not violations else EXIT_VIOLATION


def cmd_cstar(args) -> int:
    _, T = load_file(args.path, TWIST_KINDS)
    bad = validate_twist(T)
    if bad:
        report = _base_report(args)
        report["violations"] = bad
        _emit(report, args)
        return EXIT_VIOLATION
    R = realize(T, args.degree)
    cert = is_cartan_pair(R)
    report = _base_report(args)
    report["degree"] = args.degree
    report["block_structure"] = list(R.block_structure())
    report["cartan"] = {"masa": cert.diagonal_is_masa,
                        "regular": cert.regular,
                        "faithful_E": cert.expectation_faithful,
                        "is_cartan": cert.is_cartan}
    report["norm_table"] = dict(zip(T.groupoid.arrows,
                                    map(float, R.delta_norms())))
    _emit(report, args)
    return EXIT_OK


def cmd_analyze(args) -> int:
    inc = _load_inclusion(args)
    pe = pseudo_expectations(inc)
    report = _base_report(args)
    report["C_dim"] = inc.C.dim
    report["D_dim"] = inc.D.dim
    # D' cap C is the direct sum of the HS-orthogonal corners
    report["commutant_dim"] = sum(c.algebra.dim for c in pe.corners)
    report["masa"] = inc.is_masa
    report["regular"] = inc.regular
    report["corner_dims"] = [c.algebra.dim for c in pe.corners]
    report["unique_pseudo_expectation"] = pe.unique
    report["faithful"] = pe.faithful
    if pe.unique and inc.regular:
        report["left_kernel_dim"] = pe.left_kernel.dim
        report["strongly_compatible_states"] = len(strongly_compatible(inc))
    _emit(report, args)
    return EXIT_OK


def cmd_weyl(args) -> int:
    from .weyl import weyl_twist

    inc = _load_inclusion(args)
    W = weyl_twist(inc)
    report = _base_report(args)
    report["units"] = len(W.twist.groupoid.units)
    report["arrows"] = len(W.twist.groupoid.arrows)
    report["twist"] = twist_to_json(W.twist)
    _emit(report, args)
    return EXIT_OK


def cmd_envelope(args) -> int:
    from .envelope import cartan_envelope

    inc = _load_inclusion(args)
    cert = cartan_envelope(inc)
    report = _base_report(args)
    report["success"] = cert.success
    report["certificate"] = {
        "unique_pseudo_expectation": cert.has_unique_pseudo_expectation,
        "Dc_abelian": cert.dc_abelian,
        "Dc_essential_over_D": cert.dc_essential_over_d,
        "C_essential_over_Dc": cert.c_essential_over_dc,
        "regular_homomorphism": cert.regular_homomorphism,
        "kernel_equals_KF": cert.kernel_equals_KF,
        "generation": cert.generation,
        "D1_generation": cert.d1_generation,
        "essential_extension": cert.essential_extension,
        "pointwise_density": cert.pointwise_density,
        "cartan": cert.cartan,
        "theta_isomorphism": cert.theta_isomorphism,
    }
    if cert.rejection_reason:
        report["rejection_reason"] = cert.rejection_reason
    if cert.data is not None:
        report["twist"] = twist_to_json(cert.data.twist)
        report["block_structure"] = list(cert.realization.block_structure())
    _emit(report, args)
    return EXIT_OK if cert.success else EXIT_VIOLATION


def cmd_compare(args) -> int:
    from .groupoid import find_isomorphism

    report = _base_report(args)
    if args.path2 is None:
        from .envelope import envelope_uniqueness_crosscheck

        inc = _load_inclusion(args)
        agree = envelope_uniqueness_crosscheck(inc)
        report["mode"] = "envelope-crosscheck"
        report["agree"] = agree
    else:
        _, T1 = load_file(args.path, TWIST_KINDS)
        _, T2 = load_file(args.path2, TWIST_KINDS)
        bad = [validate_twist(T1), validate_twist(T2)]
        if any(bad):
            report["violations"] = bad
            _emit(report, args)
            return EXIT_VIOLATION
        b1 = list(realize(T1, args.degree).block_structure())
        b2 = list(realize(T2, args.degree).block_structure())
        try:
            iso = find_isomorphism(T1.groupoid, T2.groupoid) is not None
        except IsomorphismUndecided:
            iso = None
        report["mode"] = "twist-comparison"
        report["block_structures"] = [b1, b2]
        report["groupoids_isomorphic"] = iso
        # different blocks decide the answer; equal ones wait on the search
        report["agree"] = iso if b1 == b2 else False
    _emit(report, args)
    if report["agree"] is None:
        return EXIT_UNDECIDED
    return EXIT_OK if report["agree"] else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cartankit",
        description="Finite-scale toolkit for regular inclusions of "
                    "C*-algebras")
    p.add_argument("--tolerance", type=float, default=EPS,
                   help="numerical tolerance (1e-14..1e-4)")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--degree", type=int, choices=(-1, 1), default=1)
    p.add_argument("--cap", type=int, default=DIM_CAP,
                   help="dimension cap for generated algebras")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", help="validate a groupoid/twist/inclusion "
                   "file").add_argument("path")
    sub.add_parser("cstar", help="realize the reduced C*-algebra of a "
                   "twist").add_argument("path")
    sub.add_parser("analyze", help="analyze an inclusion "
                   "file").add_argument("path")
    sub.add_parser("weyl", help="extract the Weyl twist of an "
                   "inclusion").add_argument("path")
    sub.add_parser("envelope", help="run the Cartan-envelope "
                   "pipeline").add_argument("path")
    cmp_p = sub.add_parser("compare", help="compare two twists, or "
                           "crosscheck an inclusion's envelope")
    cmp_p.add_argument("path")
    cmp_p.add_argument("path2", nargs="?", default=None)
    return p


_COMMANDS = {
    "validate": cmd_validate,
    "cstar": cmd_cstar,
    "analyze": cmd_analyze,
    "weyl": cmd_weyl,
    "envelope": cmd_envelope,
    "compare": cmd_compare,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (1e-14 <= args.tolerance <= 1e-4):
        sys.stderr.write("tolerance out of range [1e-14, 1e-4]\n")
        return EXIT_INPUT
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        loc = ""
        if exc.line is not None:
            loc = f" (line {exc.line}, column {exc.column})"
        sys.stderr.write(f"input error: {exc}{loc}\n")
        return EXIT_INPUT
    except DimensionOverflow as exc:
        sys.stderr.write(f"resource cap exceeded: {exc}\n")
        return EXIT_RESOURCE
    except CartanKitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
