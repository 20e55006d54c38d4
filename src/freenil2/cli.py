"""Command-line front end.

Element arguments use the word grammar ("x1^2*[x1,x2]^-1"); automorphism
arguments are JSON documents {"rank": n, "images": [...]} given either inline
(starting with '{' or '[') or as a path to a file.  Matrices are JSON arrays
of rows.  Exit codes: 0 success, 1 verification failure, 2 usage or parse
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import autgroup, iastruct, involutions, verify
from .errors import FreeNil2Error
from .nilcore import commutator
from .wordlang import (
    format_automorphism,
    format_element,
    parse_automorphism,
    parse_basis_set,
    parse_element,
    parse_matrix,
)


def _document_text(arg: str) -> str:
    text = arg.strip()
    if text.startswith("{") or text.startswith("["):
        return text
    return Path(arg).read_text()


def _emit(args, human: str, payload) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(human)


def cmd_eval(args) -> int:
    print(format_element(parse_element(args.element, args.rank)))
    return 0


def cmd_mul(args) -> int:
    product = parse_element(args.left, args.rank) * parse_element(args.right, args.rank)
    print(format_element(product))
    return 0


def cmd_inv(args) -> int:
    print(format_element(parse_element(args.element, args.rank).inverse()))
    return 0


def cmd_comm(args) -> int:
    result = commutator(
        parse_element(args.left, args.rank), parse_element(args.right, args.rank)
    )
    print(format_element(result))
    return 0


def cmd_apply(args) -> int:
    sigma = parse_automorphism(_document_text(args.automorphism))
    g = parse_element(args.element, sigma.rank)
    print(format_element(autgroup.apply(sigma, g)))
    return 0


def cmd_compose(args) -> int:
    sigma = parse_automorphism(_document_text(args.first))
    rho = parse_automorphism(_document_text(args.second))
    doc = format_automorphism(autgroup.compose(sigma, rho))
    print(json.dumps(doc, indent=2))
    return 0


def cmd_invert_aut(args) -> int:
    sigma = parse_automorphism(_document_text(args.automorphism))
    doc = format_automorphism(autgroup.invert(sigma))
    print(json.dumps(doc, indent=2))
    return 0


def cmd_classify(args) -> int:
    sigma = parse_automorphism(_document_text(args.automorphism))
    kind = autgroup.classify_involution(sigma)
    _emit(args, kind.value, {"kind": kind.value})
    return 0


def cmd_canon(args) -> int:
    f = parse_matrix(_document_text(args.matrix))
    form = involutions.canonicalize_involution(f)
    payload = {
        "type": {"fixed": form.fixed, "negated": form.negated, "swapped": form.swapped},
        "basis": form.basis.to_lists(),
    }
    human = (
        f"type (p, m, s) = ({form.fixed}, {form.negated}, {form.swapped})\n"
        f"basis columns: {form.basis.columns()}"
    )
    _emit(args, human, payload)
    return 0


def cmd_is_inner(args) -> int:
    sigma = parse_automorphism(_document_text(args.automorphism))
    witness = autgroup.inner_witness(sigma)
    if witness is None:
        _emit(args, "not inner", {"inner": False})
    else:
        _emit(args, f"inner: {format_element(witness)}",
              {"inner": True, "witness": format_element(witness)})
    return 0


def cmd_split_ia(args) -> int:
    sigma = parse_automorphism(_document_text(args.automorphism))
    split = iastruct.stabilizer_split(sigma, args.generator)
    payload = {
        "plus": format_automorphism(split.plus),
        "minus": format_automorphism(split.minus),
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_decode(args) -> int:
    tau = parse_automorphism(_document_text(args.tau))
    theta = parse_automorphism(_document_text(args.theta))
    taus = parse_basis_set(_document_text(args.basis_set))
    decoded = iastruct.decode_triplet(tau, theta, taus)
    _emit(args, format_element(decoded), {"element": format_element(decoded)})
    return 0


def cmd_verify(args) -> int:
    report = verify.run_suite(
        rank_min=args.rank_min, rank_max=args.rank_max,
        trials=args.trials, seed=args.seed,
    )
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        width = max(len(c.name) for c in report.checks)
        print(f"suite version {report.suite_version}  "
              f"ranks {report.rank_min}..{report.rank_max}  "
              f"trials {report.trials}  seed {report.seed}")
        for check in sorted(report.checks, key=lambda c: c.name):
            print(f"  {check.name:<{width}}  {check.status:<8} trials={check.trials}")
            if check.counterexample is not None:
                print(f"    counterexample: {json.dumps(check.counterexample, sort_keys=True)}")
        print("result:", "PASS" if report.all_passed() else "FAIL")
    return 0 if report.all_passed() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freenil2",
        description="Exact calculator and verification harness for rank-n free "
                    "two-step nilpotent groups and their automorphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def element_cmd(name, fn, help_, nargs2=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--rank", type=int, required=True)
        if nargs2:
            p.add_argument("left")
            p.add_argument("right")
        else:
            p.add_argument("element")
        p.set_defaults(fn=fn)
        return p

    element_cmd("eval", cmd_eval, "normalize an element expression")
    element_cmd("mul", cmd_mul, "multiply two elements", nargs2=True)
    element_cmd("inv", cmd_inv, "invert an element")
    element_cmd("comm", cmd_comm, "commutator of two elements", nargs2=True)

    p = sub.add_parser("apply", help="apply an automorphism to an element")
    p.add_argument("automorphism", help="JSON document (inline or path)")
    p.add_argument("element")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("compose", help="compose two automorphisms (second applied first)")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("invert-aut", help="invert an automorphism")
    p.add_argument("automorphism")
    p.set_defaults(fn=cmd_invert_aut)

    p = sub.add_parser("classify", help="classify an involution")
    p.add_argument("automorphism")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("canon", help="canonical fix/negate/swap basis of a matrix involution")
    p.add_argument("matrix", help="JSON array of rows (inline or path)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_canon)

    p = sub.add_parser("is-inner", help="solve for a conjugation witness")
    p.add_argument("automorphism")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_is_inner)

    p = sub.add_parser("split-ia", help="split an IA automorphism fixing a generator")
    p.add_argument("automorphism")
    p.add_argument("--generator", type=int, required=True, help="1-based generator index")
    p.set_defaults(fn=cmd_split_ia)

    p = sub.add_parser("decode", help="decode a (tau, basis set, symmetry) triplet")
    p.add_argument("--tau", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--basis-set", required=True, help="JSON array of automorphism documents")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--rank-min", type=int, default=2)
    p.add_argument("--rank-max", type=int, default=5)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FreeNil2Error, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
