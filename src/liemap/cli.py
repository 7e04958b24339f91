"""liemap: command-line frontend with canonical JSON output.

Exit codes: 0 success, 1 semantic failure (mathematical precondition or an
--expect mismatch), 2 usage error (including a file that cannot be read or
written; the error JSON has the OSError class as kind), 3 internal error (a
failed invariant or re-evaluation certificate; kind "InternalError").
Identical invocations produce identical bytes; every randomized run records
its seed in the output.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import fixtures, maps
from .chevalley import ChevalleyError, build_algebra
from .freelie import ParseError, _frac_str, make_engel, normal_form, parse
from .matrixrep import MatrixRepError, triples_from_json
from .rootsystem import RootSystemError, build_root_system
from .scalar import FieldSpecError, make_field

SEMANTIC_ERRORS = (ChevalleyError, MatrixRepError, RootSystemError,
                   FieldSpecError, ParseError, maps.MapsError, ValueError,
                   ZeroDivisionError, KeyError)


def _emit(obj, out_path=None):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _algebra_label(label):
    m = re.fullmatch(r"([A-Ga-g])(\d+)", label.strip())
    if not m:
        raise ValueError("algebra label must look like A2, B2, G2")
    return m.group(1).upper(), int(m.group(2))


def _poly_arg(text):
    if text.startswith("@"):
        path = text[1:]
        # a path with a directory part is always a file, so a missing one
        # fails as a file; a bare name is a fixture unless such a file exists
        if os.path.dirname(path) or os.path.exists(path):
            with open(path) as fh:
                return parse(fh.read().strip())
        return fixtures.load_poly(path)
    return parse(text)


def positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def _check_expect(args, obj, key):
    if getattr(args, "expect", None) and obj.get(key) != args.expect:
        return 1
    return 0


# -- subcommand handlers -----------------------------------------------------


def cmd_roots(args):
    field = make_field(args.field) if args.field else None
    rs = build_root_system(args.type, args.rank, field)
    obj = {
        "schema": "liemap/roots/v1",
        "type": rs.type_label,
        "rank": rs.rank,
        "cartan_matrix": [list(r) for r in rs.cartan_matrix],
        "roots": [{"coords": list(b.coords), "height": b.height,
                   "positive": b.positive} for b in rs.roots],
        "positive_count": len(rs.positive_roots),
    }
    _emit(obj, args.out)
    return 0


def cmd_algebra(args):
    field = make_field(args.field)
    alg = build_algebra(args.type, args.rank, field)
    obj = {
        "schema": "liemap/algebra/v1",
        "algebra": maps.algebra_id(alg),
        "field": str(field),
        "dim": alg.dim,
        "center_dim": len(alg.center()),
        "q_values": sorted(set(alg.q_table.values())),
        "n_values": sorted(set(alg.n_table.values())),
    }
    if args.print_structure:
        obj["structure"] = alg.structure_json()
    _emit(obj, args.out)
    return 0


def cmd_parse(args):
    P = _poly_arg(args.poly)
    nf = normal_form(P)
    obj = {
        "schema": "liemap/parse/v1",
        "poly": args.poly,
        "pretty": P.pretty(),
        "arity": P.arity,
        "is_zero": nf.is_zero(),
        "normal_form": {"".join(str(c) for c in w): _frac_str(c)
                        for w, c in sorted(nf.coeffs.items())},
    }
    if not nf.is_zero():
        obj["min_monomial_degree"] = nf.min_degree()
    obj["linear_part"] = [_frac_str(c) for c in nf.linear_coefficients(P.arity)]
    _emit(obj, args.out)
    return 0


def cmd_identity(args):
    field = make_field(args.field)
    P = _poly_arg(args.poly)
    verdict = maps.is_identity_sl2(P, field, mode=args.mode, seed=args.seed,
                                   trials=args.trials, grid=args.grid)
    obj = {"schema": "liemap/identity/v1", "poly": P.pretty(),
           "field": str(field)}
    obj.update(verdict.to_json(field))
    if verdict.mode == "randomized":
        obj["seed"] = args.seed
    _emit(obj, args.out)
    return _check_expect(args, obj, "result")


def cmd_witness(args):
    field = make_field(args.field)
    P = _poly_arg(args.poly) if args.poly else fixtures.load_poly("razmyslov_bracket")
    if args.fixtures:
        realization, t1, t2 = fixtures.load_witness_triples(args.fixtures, field)
        if args.realization and args.realization != realization:
            raise ValueError("fixture %s is for realization %s"
                             % (args.fixtures, realization))
    else:
        with open(args.triples) as fh:
            realization, t1, t2 = triples_from_json(json.load(fh), field)
    verdict = maps.dominance_witness_check(P, t1, t2)
    obj = {"schema": "liemap/witness/v1", "poly": P.pretty(),
           "realization": realization}
    obj.update(verdict.to_json())
    _emit(obj, args.out)
    return _check_expect(args, obj, "result")


def cmd_witness_search(args):
    field = make_field(args.field)
    P = _poly_arg(args.poly)
    res = maps.dominance_witness_search(P, args.realization, field,
                                        budget=args.budget, seed=args.seed)
    obj = {"schema": "liemap/witness-search/v1", "poly": P.pretty(),
           "realization": args.realization}
    obj.update(res.to_json())
    _emit(obj, args.out)
    return _check_expect(args, obj, "status")


def cmd_engel_solve(args):
    field = make_field(args.field)
    t, r = _algebra_label(args.algebra)
    alg = build_algebra(t, r, field)
    coeffs = []
    for i, c in enumerate(args.coeffs.split(","), start=1):
        try:
            coeffs.append(Fraction(c))
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError("--coeffs entry %d: %s" % (i, e)) from None
    _, spec = make_engel(coeffs)
    with open(args.target) as fh:
        target = alg.element_from_json(json.load(fh))
    sol = maps.engel_solve(alg, spec, target, seed=args.seed, budget=args.budget)
    obj = {"schema": "liemap/engel-solve/v1", "algebra": maps.algebra_id(alg),
           "field": str(field), "coeffs": [_frac_str(c) for c in spec.coeffs],
           "target": target.to_json()}
    obj.update(sol.to_json())
    _emit(obj, args.out)
    return 0


def cmd_scan(args):
    field = make_field(args.field)
    t, r = _algebra_label(args.algebra)
    alg = build_algebra(t, r, field)
    rep = maps.image_scan(alg, _poly_arg(args.poly), mode=args.mode, seed=args.seed,
                          workers=args.workers, budget=args.budget,
                          sample_count=args.samples)
    obj = {"schema": "liemap/scan/v1"}
    obj.update(rep.to_json())
    _emit(obj, args.out)
    return 0


def cmd_central_probe(args):
    field = make_field(args.field)
    t, r = _algebra_label(args.algebra)
    alg = build_algebra(t, r, field)
    rep = maps.central_image_probe(alg, range(args.m_from, args.m_to + 1),
                                   workers=args.workers)
    obj = {"schema": "liemap/central-probe/v1"}
    obj.update(rep.to_json())
    _emit(obj, args.out)
    return 0


def cmd_example48(args):
    field = make_field(args.field)
    alg = build_algebra("A", 1, field)
    vals = [field.parse_scalar(v) for v in (args.a, args.b, args.c, args.d)]
    a, b, c, d = vals
    value = maps.example48_closed_form(alg, a, b, c, d)
    from .freelie import evaluate
    X = alg.element([0, a, b])
    Y = alg.element([d, 0, c])
    direct = evaluate(maps.example48_poly(), [X, Y])
    obj = {"schema": "liemap/example48/v1", "field": str(field),
           "inputs": [field.format_scalar(v) for v in vals],
           "s": field.format_scalar(maps.example48_s(field, a, b, c, d)),
           "value": value.to_json(),
           "matches_direct": direct == value}
    _emit(obj, args.out)
    return 0 if obj["matches_direct"] else 1


# -- argument parsing ---------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="liemap",
        description="Exact computations on Chevalley algebras: root data, "
                    "free Lie polynomial maps, identity tests, dominancy "
                    "witnesses, Engel solving, and finite-field image scans.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="also write the JSON output to this path")

    p = sub.add_parser("roots", help="print a root system as JSON")
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--field", help="optional field hint (rejects C-types in char 2)")
    common(p)
    p.set_defaults(fn=cmd_roots)

    p = sub.add_parser("algebra", help="build a Chevalley algebra and summarize it")
    p.add_argument("--type", required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--print-structure", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("parse", help="parse a polynomial and show its Lyndon form")
    p.add_argument("--poly", required=True)
    common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("identity", help="test whether P is an identity of sl(2)")
    p.add_argument("--poly", required=True)
    p.add_argument("--field", default="Q")
    p.add_argument("--mode", choices=["exact", "randomized"], default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=positive_int, default=8)
    p.add_argument("--grid", type=positive_int, default=2 ** 20)
    p.add_argument("--expect")
    common(p)
    p.set_defaults(fn=cmd_identity)

    p = sub.add_parser("witness", help="check a dominancy witness pair")
    p.add_argument("--poly", help="defaults to the bundled degree-10 polynomial")
    p.add_argument("--realization", choices=["sl3", "so5"])
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--fixtures", choices=sorted(fixtures.WITNESS_FIXTURES))
    src.add_argument("--triples", help="JSON file with realization/triple1/triple2")
    p.add_argument("--field", default="Q")
    p.add_argument("--expect")
    common(p)
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("witness-search", help="search for a witness pair")
    p.add_argument("--poly", required=True)
    p.add_argument("--realization", choices=["sl3", "so5"], required=True)
    p.add_argument("--field", default="Q")
    p.add_argument("--budget", type=positive_int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--expect")
    common(p)
    p.set_defaults(fn=cmd_witness_search)

    p = sub.add_parser("engel-solve", help="solve a generalized Engel equation")
    p.add_argument("--algebra", required=True, help="e.g. A2")
    p.add_argument("--field", required=True)
    p.add_argument("--coeffs", required=True, help="a_1,...,a_m")
    p.add_argument("--target", required=True,
                   help="JSON file holding the target element")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=4000)
    common(p)
    p.set_defaults(fn=cmd_engel_solve)

    p = sub.add_parser("scan", help="scan the image of a polynomial map")
    p.add_argument("--poly", required=True)
    p.add_argument("--algebra", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--mode", choices=["exhaustive", "sampled"], default="exhaustive")
    p.add_argument("--seed", type=int)
    p.add_argument("--samples", type=positive_int, default=10000)
    p.add_argument("--workers", type=positive_int, default=1)
    p.add_argument("--budget", type=positive_int, default=None,
                   help="enumeration cap (env LIEMAP_BUDGET overrides the default)")
    common(p)
    p.set_defaults(fn=cmd_scan)

    p = sub.add_parser("central-probe",
                       help="Engel degrees attaining nonzero central values")
    p.add_argument("--algebra", required=True)
    p.add_argument("--field", required=True)
    p.add_argument("--m-from", type=int, required=True)
    p.add_argument("--m-to", type=int, required=True)
    p.add_argument("--workers", type=positive_int, default=1)
    common(p)
    p.set_defaults(fn=cmd_central_probe)

    p = sub.add_parser("example48",
                       help="closed form of the non-surjective degree-6 map")
    p.add_argument("--field", default="Q")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--d", required=True)
    common(p)
    p.set_defaults(fn=cmd_example48)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SEMANTIC_ERRORS as e:
        _emit({"error": str(e), "kind": type(e).__name__})
        return 1
    except OSError as e:
        _emit({"error": str(e), "kind": type(e).__name__})
        return 2
    except AssertionError as e:
        _emit({"error": str(e), "kind": "InternalError"})
        return 3


if __name__ == "__main__":
    sys.exit(main())
