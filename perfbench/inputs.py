"""Seeded input generation for the cartankit benchmark.

Every input is written as plain JSON (and one ``.npz`` of dense function
values) by this module alone: cartankit is imported, because a user pays
for that import before any certificate, but none of its code builds the
inputs.  The same seed gives byte-identical files.

Run as a script to generate one workload's inputs::

    python3 perfbench/inputs.py --workload cstar --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

#: Dense convolution-law triples (f, g, h) per twist on ``tables``.
LAW_TRIPLES = 2


# --- groupoid tables, in the cartankit JSON schema ------------------------

def _groupoid(units, arrows, compose, unit_arrows):
    """arrows: list of (id, src, rng, inv); compose: list of (a, b, ab)."""
    return {"units": units,
            "arrows": [{"id": a, "src": s, "rng": r, "inv": i}
                       for a, s, r, i in arrows],
            "compose": [list(t) for t in compose],
            "unit_arrows": unit_arrows}


def pair_groupoid(n: int, prefix: str = "u") -> dict:
    aid = lambda i, j: f"{prefix}{i}<-{prefix}{j}"
    units = [f"{prefix}{i}" for i in range(n)]
    arrows = [(aid(i, j), units[j], units[i], aid(j, i))
              for i in range(n) for j in range(n)]
    compose = [(aid(i, j), aid(j, k), aid(i, k))
               for i in range(n) for j in range(n) for k in range(n)]
    return _groupoid(units, arrows, compose,
                     {units[i]: aid(i, i) for i in range(n)})


def cyclic_groupoid(n: int, prefix: str = "c") -> dict:
    name = lambda g: f"{prefix}{g % n}"
    arrows = [(name(g), "e0", "e0", name(-g)) for g in range(n)]
    compose = [(name(g), name(h), name(g + h))
               for g in range(n) for h in range(n)]
    return _groupoid(["e0"], arrows, compose, {"e0": name(0)})


def klein_four_groupoid(prefix: str = "k") -> dict:
    """Z/2 x Z/2 over one unit; elements k00, k01, k10, k11."""
    elems = [(a, b) for a in (0, 1) for b in (0, 1)]
    name = lambda g: f"{prefix}{g[0]}{g[1]}"
    arrows = [(name(g), "e0", "e0", name(g)) for g in elems]
    compose = [(name(g), name(h), name(((g[0] + h[0]) % 2,
                                        (g[1] + h[1]) % 2)))
               for g in elems for h in elems]
    return _groupoid(["e0"], arrows, compose, {"e0": name((0, 0))})


def disjoint_union(G1: dict, G2: dict, p1: str = "A.", p2: str = "B.") -> dict:
    def relabel(G, p):
        arrows = [(p + a["id"], p + a["src"], p + a["rng"], p + a["inv"])
                  for a in G["arrows"]]
        compose = [(p + a, p + b, p + ab) for a, b, ab in G["compose"]]
        uarr = {p + u: p + e for u, e in G["unit_arrows"].items()}
        return [p + u for u in G["units"]], arrows, compose, uarr

    u1, a1, c1, e1 = relabel(G1, p1)
    u2, a2, c2, e2 = relabel(G2, p2)
    return _groupoid(u1 + u2, a1 + a2, c1 + c2, {**e1, **e2})


# --- cocycles --------------------------------------------------------------

def coboundary(G: dict, rng: np.random.Generator) -> dict:
    """sigma(a, b) = lam(a) lam(b) / lam(ab) with seeded phases lam, and
    lam = 1 on unit arrows, so sigma is a normalized 2-cocycle."""
    units = set(G["unit_arrows"].values())
    ids = [a["id"] for a in G["arrows"]]
    phases = np.exp(2j * np.pi * rng.random(len(ids)))
    lam = {a: (1.0 + 0j if a in units else complex(z))
           for a, z in zip(ids, phases)}
    return {(a, b): lam[a] * lam[b] / lam[ab] for a, b, ab in G["compose"]}


def twist_with_k4(G: dict, rng: np.random.Generator, k4_prefix: str = "") -> dict:
    """A seeded coboundary, times the nontrivial Klein-four cocycle
    sigma((a,b),(c,d)) = (-1)^(b c) on arrows named ``k4_prefix + 'kab'``."""
    sigma = coboundary(G, rng)
    if k4_prefix:
        skip = len(k4_prefix) + 1
        for (a, b), v in sigma.items():
            if a.startswith(k4_prefix + "k") and b.startswith(k4_prefix + "k"):
                sign = (-1) ** (int(a[skip + 1]) * int(b[skip]))
                sigma[(a, b)] = v * sign
    return sigma


def twist_json(G: dict, sigma: dict) -> dict:
    cocycle = [[[a, b], [v.real, v.imag]]
               for (a, b), v in sorted(sigma.items()) if abs(v - 1.0) > 1e-14]
    return {"groupoid": G, "cocycle": cocycle}


def corrupt(G: dict, sigma: dict, rng: np.random.Generator):
    """Rotate the phase of one seeded non-unit composable pair.  The entry
    keeps modulus one, so only the cocycle identity can fail."""
    units = set(G["unit_arrows"].values())
    pairs = sorted(p for p in sigma if p[0] not in units and p[1] not in units)
    pair = pairs[int(rng.integers(len(pairs)))]
    turn = 0.25 + 0.5 * rng.random()  # a quarter to three quarters of a turn
    out = dict(sigma)
    out[pair] = sigma[pair] * complex(math.cos(2 * math.pi * turn),
                                      math.sin(2 * math.pi * turn))
    return out, pair


# --- inclusions --------------------------------------------------------------

def _matrix_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def mndn_json(n: int) -> dict:
    """M_n with its diagonal D_n, normalized by the matrix units, listed
    row-major.  Not seeded: the count of distinct normalizer words depends
    on the listing order (see README.md), and a seeded order would make
    the work itself vary from seed to seed."""
    def unit(i, j):
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = 1.0
        return _matrix_json(m)

    pairs = [(i, j) for i in range(n) for j in range(n)]
    return {"ambient_dim": n,
            "C_generators": [unit(i, j) for i, j in pairs],
            "D_generators": [unit(i, i) for i in range(n)],
            "normalizers": [unit(i, j) for i, j in pairs]}


# --- workloads ---------------------------------------------------------------

#: (n, CLI commands) per M_n over D_n.  ``envelope`` on M_6 (11-13 s a
#: call) and pair(8) (5-6 s) are left out: a run held too few of them for
#: a steady median.  ``weyl`` on M_6 reaches ``WORD_CAP`` too.
ENVELOPE_INPUTS = ((4, ("analyze", "weyl", "envelope")),
                   (6, ("analyze", "weyl")))
CSTAR_PAIRS = (6, 7)
CSTAR_K4_PAIRS = (4, 6)
TABLE_TWISTS = (("pair20", lambda: pair_groupoid(20), ""),
                ("k4s_pair16", lambda: disjoint_union(klein_four_groupoid(),
                                                      pair_groupoid(16)), "A."),
                ("cyclic48", lambda: cyclic_groupoid(48), ""))
CORRUPT_PAIR = 12


def _dump(out: str, name: str, obj) -> str:
    path = os.path.join(out, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, separators=(",", ":"))
    return path


def generate(workload: str, seed: int, out: str) -> dict:
    """Write the workload's inputs into ``out``; returns a manifest that
    names every file and the facts the oracle checks against."""
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    os.makedirs(out, exist_ok=True)
    man = {"workload": workload, "seed": seed, "inputs": []}
    if workload == "envelope":
        for n, commands in ENVELOPE_INPUTS:
            path = _dump(out, f"mndn{n}.json", mndn_json(n))
            man["inputs"].append({"name": f"mndn{n}", "path": path, "n": n,
                                  "commands": list(commands)})
    elif workload == "cstar":
        for n in CSTAR_PAIRS:
            G = pair_groupoid(n)
            path = _dump(out, f"pair{n}.json", twist_json(G, coboundary(G, rng)))
            man["inputs"].append({"name": f"pair{n}", "path": path,
                                  "blocks": [n], "arrows": n * n, "k4": False})
        for k in CSTAR_K4_PAIRS:
            G = disjoint_union(klein_four_groupoid(), pair_groupoid(k))
            sigma = twist_with_k4(G, rng, "A.")
            path = _dump(out, f"k4s_pair{k}.json", twist_json(G, sigma))
            man["inputs"].append({"name": f"k4s_pair{k}", "path": path,
                                  "blocks": sorted([2, k]),
                                  "arrows": 4 + k * k, "k4": True})
    elif workload == "tables":
        arrays = {}
        for name, build, k4 in TABLE_TWISTS:
            G = build()
            path = _dump(out, f"{name}.json",
                         twist_json(G, twist_with_k4(G, rng, k4)))
            ids = sorted(a["id"] for a in G["arrows"])
            shape = (LAW_TRIPLES, 3, len(ids))
            arrays[name] = (rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape))
            arrays[name + ".ids"] = np.array(ids)
            man["inputs"].append({"name": name, "path": path, "valid": True})
        G = pair_groupoid(CORRUPT_PAIR)
        sigma, pair = corrupt(G, coboundary(G, rng), rng)
        path = _dump(out, f"corrupt_pair{CORRUPT_PAIR}.json",
                     twist_json(G, sigma))
        man["inputs"].append({"name": f"corrupt_pair{CORRUPT_PAIR}",
                              "path": path, "valid": False,
                              "corrupted_pair": list(pair)})
        man["laws"] = os.path.join(out, "laws.npz")
        np.savez(man["laws"], **arrays)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _dump(out, "manifest.json", man)
    return man


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--src", required=True,
                   help="directory holding the cartankit package")
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
    import cartankit  # noqa: F401  (its import is part of set-up time)
    generate(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
