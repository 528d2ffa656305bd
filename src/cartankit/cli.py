"""Command-line front end.

Every ``cmd_*`` returns its report fields, in report order, and an exit
code; it writes nothing, and its docstring is its help line.  ``main``
emits one JSON report (the single source of truth) from the fields; the
text format is rendered from that JSON.  Exit codes: 0 success/all-pass,
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


def _load_inclusion(args):
    _, data = load_file(args.path, ("inclusion",))
    return inclusion_from_json(data, cap=args.cap)


def cmd_validate(args) -> tuple:
    """validate a groupoid/twist/inclusion file"""
    kind, content = load_file(args.path)
    violations = []
    if kind == "inclusion":
        inclusion_from_json(content, cap=args.cap)  # constructor validates
    else:
        violations = validate_twist(content)
    return ({"kind": kind, "violations": violations, "valid": not violations},
            EXIT_VIOLATION if violations else EXIT_OK)


def cmd_cstar(args) -> tuple:
    """realize the reduced C*-algebra of a twist"""
    _, T = load_file(args.path, TWIST_KINDS)
    bad = validate_twist(T)
    if bad:
        return {"violations": bad}, EXIT_VIOLATION
    R = realize(T, args.degree)
    cert = is_cartan_pair(R)
    return {
        "degree": args.degree,
        "block_structure": list(R.block_structure()),
        "cartan": {"masa": cert.diagonal_is_masa,
                   "regular": cert.regular,
                   "faithful_E": cert.expectation_faithful,
                   "is_cartan": cert.is_cartan},
        "norm_table": dict(zip(T.groupoid.arrows,
                               map(float, R.delta_norms()))),
    }, EXIT_OK


def cmd_analyze(args) -> tuple:
    """analyze an inclusion file"""
    inc = _load_inclusion(args)
    pe = pseudo_expectations(inc)
    corner_dims = [c.algebra.dim for c in pe.corners]
    fields = {
        "C_dim": inc.C.dim,
        "D_dim": inc.D.dim,
        # D' cap C is the direct sum of the HS-orthogonal corners
        "commutant_dim": sum(corner_dims),
        "masa": inc.is_masa,
        "regular": inc.regular,
        "corner_dims": corner_dims,
        "unique_pseudo_expectation": pe.unique,
        "faithful": pe.faithful,
    }
    if pe.unique and inc.regular:
        fields["left_kernel_dim"] = pe.left_kernel.dim
        fields["strongly_compatible_states"] = len(strongly_compatible(inc))
    return fields, EXIT_OK


def cmd_weyl(args) -> tuple:
    """extract the Weyl twist of an inclusion"""
    from .weyl import weyl_twist

    W = weyl_twist(_load_inclusion(args))
    return {"units": len(W.twist.groupoid.units),
            "arrows": len(W.twist.groupoid.arrows),
            "twist": twist_to_json(W.twist)}, EXIT_OK


def cmd_envelope(args) -> tuple:
    """run the Cartan-envelope pipeline"""
    from .envelope import cartan_envelope

    cert = cartan_envelope(_load_inclusion(args))
    fields = {"success": cert.success, "certificate": {
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
    }}
    if cert.rejection_reason:
        fields["rejection_reason"] = cert.rejection_reason
    if cert.data is not None:
        fields["twist"] = twist_to_json(cert.data.twist)
        fields["block_structure"] = list(cert.realization.block_structure())
    return fields, EXIT_OK if cert.success else EXIT_VIOLATION


def cmd_compare(args) -> tuple:
    """compare two twists, or crosscheck an inclusion's envelope"""
    from .groupoid import find_isomorphism

    if args.path2 is None:
        from .envelope import envelope_uniqueness_crosscheck

        agree = envelope_uniqueness_crosscheck(_load_inclusion(args))
        fields = {"mode": "envelope-crosscheck", "agree": agree}
    else:
        _, T1 = load_file(args.path, TWIST_KINDS)
        _, T2 = load_file(args.path2, TWIST_KINDS)
        bad = [validate_twist(T1), validate_twist(T2)]
        if any(bad):
            return {"violations": bad}, EXIT_VIOLATION
        b1 = list(realize(T1, args.degree).block_structure())
        b2 = list(realize(T2, args.degree).block_structure())
        try:
            iso = find_isomorphism(T1.groupoid, T2.groupoid) is not None
        except IsomorphismUndecided:
            iso = None
        # different blocks decide the answer; equal ones wait on the search
        agree = iso if b1 == b2 else False
        fields = {"mode": "twist-comparison", "block_structures": [b1, b2],
                  "groupoids_isomorphic": iso, "agree": agree}
    return fields, (EXIT_UNDECIDED if agree is None
                    else EXIT_OK if agree else EXIT_VIOLATION)


_COMMANDS = {
    "validate": cmd_validate,
    "cstar": cmd_cstar,
    "analyze": cmd_analyze,
    "weyl": cmd_weyl,
    "envelope": cmd_envelope,
    "compare": cmd_compare,
}


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
                   help="dimension cap for generated algebras (>= 1)")
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        cp = sub.add_parser(name, help=cmd.__doc__)
        cp.add_argument("path")
        if name == "compare":
            cp.add_argument("path2", nargs="?", default=None)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (1e-14 <= args.tolerance <= 1e-4):
        sys.stderr.write("tolerance out of range [1e-14, 1e-4]\n")
        return EXIT_INPUT
    if args.cap < 1:
        sys.stderr.write("cap out of range: must be at least 1\n")
        return EXIT_INPUT
    try:
        fields, code = _COMMANDS[args.command](args)
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
    report = {"schema": "cartankit/v1", "version": __version__,
              "tolerance": args.tolerance, **fields}
    sys.stdout.write((json.dumps(report, sort_keys=True, indent=2)
                      if args.format == "json" else _render_text(report))
                     + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
