"""Command-line front end emitting deterministic JSON/CSV reports.

Subcommands: classify, disc, fibers, as-group, product, verify, sec.
Each command (a cmd_* function in COMMANDS) takes the parsed arguments and
returns (payload, rows, ok): the JSON payload, the rows of its CSV report
(and of verify's text report), and whether every check it reports passed.
It reads no --format and writes nothing; main renders the report once, in
_render, and writes it to stdout or --output.  Numeric fields in the
input, in ring specs and in --s, --t and --disc, are read by
rings.parse_int: ASCII digits after an optional sign (which the ring spec
grammar leaves out), and no more digits than the interpreter converts.

Exit codes: 0 success, 1 internal invariant violation (a bug; the message,
then the check's witness, if it has one, as one JSON line on stderr),
2 usage error (bad flags, unparseable ring spec or integer, enumeration of
Z, an enumeration above rings.MAX_ENUMERATION items, or an --output path
whose directory is missing or not writable, all refused before any work; a
result with an integer too long to print, refused before --output is
opened; or an --output file whose final write fails).

This is the module `python -m quadrings` and the `quadrings` script run.
Each command imports the layer modules it calls when it runs, so a process
loads only the layers of its own command: classify and product need
quadratic, disc adds discriminants (and monoids), fibers, sec and as-group
add artin_schreier, and verify needs identities (and polynomials).  The
report imports json or csv only for the format it writes.
`quadrings.cli` re-exports COMMANDS, UsageError and main and loads every
layer up front.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from .errors import (InfiniteRingError, InternalCheckError, MonoidError,
                     RingParseError)
from .rings import QuotientPolyRing, Ring, parse_int, parse_ring

# The choices of verify --identity: identities.IDENTITY_NAMES, copied so
# that parsing the command line does not import the verifier.
IDENTITY_NAMES = ["disc-multiplicativity", "star-associativity",
                  "change-of-basis-functoriality", "fixed-element-z-squared",
                  "wp-closure", "as-action-norm", "square-product"]


class UsageError(ValueError):
    pass


def _require_writable(path: str) -> None:
    """UsageError unless path names a file that can be written, checked up
    front without creating or truncating it."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path):
        reason = "is a directory"
    elif not os.path.isdir(folder):
        reason = "its directory does not exist"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise UsageError(f"cannot write --output {path}: {reason}")


def _parse_elements(ring: Ring, text: str, field: str, count: int) -> list:
    """count elements of ring written as comma-separated integers, one per
    element of Z or Z/n and d coefficients c0,c1,... per element of a
    quotient ring of degree d."""
    width = ring.degree if isinstance(ring, QuotientPolyRing) else 1
    parts = text.replace(" ", "").split(",")    # an empty field is no integer
    wanted = count * width
    if len(parts) != wanted:
        raise UsageError(f"{field} over {ring!r} takes " + (
            "one integer" if wanted == 1 else f"{wanted} comma-separated integers"))
    values = [parse_int(p, field) for p in parts]
    return [ring.element(values[i] if width == 1 else values[i:i + width])
            for i in range(0, len(values), width)]


def _render(fmt: str, payload, rows: list[dict]) -> str:
    """The report as text: JSON from the payload; CSV from the rows, headed
    by the first row's keys, with a list cell joined by ";"; text (verify's
    default) as one line per row, its string cells bare and the others as
    key=value."""
    try:
        if fmt == "json":
            import json
            return json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if fmt == "text":
            return "".join(" ".join(v if isinstance(v, str) else f"{k}={v}"
                                    for k, v in row.items()) + "\n" for row in rows)
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([";".join(map(str, v)) if isinstance(v, list) else v
                          for v in row.values()] for row in rows)
        return buf.getvalue()
    except ValueError:    # an int above the interpreter's str() limit
        raise UsageError(
            f"the result has an integer of more than {sys.get_int_max_str_digits()} "
            f"digits, the interpreter's limit for printing one; raise it with "
            f"PYTHONINTMAXSTRDIGITS")


def cmd_classify(args):
    from .quadratic import classify
    ring = parse_ring(args.ring)
    classes = [{
        "t": c.rep.t.to_json(),
        "n": c.rep.n.to_json(),
        "orbit_size": c.orbit_size,
        "disc": c.disc.to_json(),
        "separable": c.separable,
        "sec": c.separable,    # is_sec_algebra(c.rep) over a finite ring
    } for c in classify(ring)]
    return {"ring": ring.spec_string(), "classes": classes}, classes, True


def cmd_disc(args):
    from .discriminants import DiscClassification, disc_hom_check
    from .quadratic import classify
    ring = parse_ring(args.ring)
    dc = DiscClassification(ring)
    hom = disc_hom_check(ring, classify(ring))
    if hom.violations:
        raise InternalCheckError("; ".join(hom.violations),
                                 {"ring": ring.spec_string(),
                                  "violations": hom.violations})
    entries = [{
        "d": c.d.to_json(),
        "witness_t": c.witness_t.to_json(),
        "absorbing": c.d == ring.zero,
    } for c in dc]
    return {"ring": ring.spec_string(), "disc_classes": entries}, entries, True


def cmd_fibers(args):
    from .artin_schreier import ASGroup, fiber_report
    from .discriminants import DiscClassification
    from .quadratic import classify
    ring = parse_ring(args.ring)
    cl = classify(ring)
    asg = ASGroup(ring)
    dc = DiscClassification(ring)
    if args.disc is not None:
        d, = _parse_elements(ring, args.disc, "--disc", 1)
        targets = [dc[dc.index_of(d)]]
    else:
        targets = list(dc)
    reports = [fiber_report(ring, d, cl, asg) for d in targets]
    entries = [{
        "d": rep.disc_class.d.to_json(),
        "fiber": [{"t": cl[i].rep.t.to_json(), "n": cl[i].rep.n.to_json()}
                  for i in rep.fiber],
        "orbits": rep.orbits,
        "kernel_size": len(rep.kernel),
        "free": rep.free,
        "transitive": rep.transitive,
    } for rep in reports]
    rows = [{
        "d": str(rep.disc_class.d),
        "class": rep.fiber_labels[pos],
        "orbit": orbit_idx,
        "kernel_size": len(rep.kernel),
        "free": rep.free,
        "transitive": rep.transitive,
    } for rep in reports for orbit_idx, orbit in enumerate(rep.orbits) for pos in orbit]
    return {"ring": ring.spec_string(), "fibers": entries}, rows, True


def cmd_as_group(args):
    from .artin_schreier import ASGroup
    ring = parse_ring(args.ring)
    asg = ASGroup(ring)
    payload = {
        "ring": ring.spec_string(),
        "four_torsion": [a.to_json() for a in asg.four_torsion],
        "wp4": [a.to_json() for a in asg.wp4],
        "classes": [a.to_json() for a in asg.classes],
        "invariant_factors": asg.invariant_factors(),
    }
    rows = [{"class_rep": str(rep),
             "four_torsion_size": len(asg.four_torsion),
             "wp4_size": len(asg.wp4),
             "order": asg.order} for rep in asg.classes]
    return payload, rows, True


def cmd_product(args):
    from .quadratic import QuadraticAlgebra, star_product
    ring = parse_ring(args.ring)
    t1, n1 = _parse_elements(ring, args.s, "--s", 2)
    t2, n2 = _parse_elements(ring, args.t, "--t", 2)
    prod = star_product(QuadraticAlgebra(ring, t1, n1),
                        QuadraticAlgebra(ring, t2, n2))
    product = {"t": prod.t.to_json(), "n": prod.n.to_json()}
    payload = {
        "ring": ring.spec_string(),
        "s": {"t": t1.to_json(), "n": n1.to_json()},
        "t": {"t": t2.to_json(), "n": n2.to_json()},
        "product": product,
    }
    return payload, [product], True


def cmd_verify(args):
    from .identities import IDENTITY_NAMES, verify_named_identity
    names = [args.identity] if args.identity else IDENTITY_NAMES
    results = [verify_named_identity(name) for name in names]
    payload = {"identities": [{
        "name": r.name,
        "passed": r.passed,
        "lhs_terms": r.lhs_terms,
        "rhs_terms": r.rhs_terms,
    } for r in results]}
    rows = [{"name": r.name,
             "status": "PASS" if r.passed else "FAIL",
             "lhs_terms": r.lhs_terms,
             "rhs_terms": r.rhs_terms} for r in results]
    return payload, rows, all(r.passed for r in results)


def cmd_sec(args):
    from .artin_schreier import is_sec_element
    ring = parse_ring(args.ring)
    entries = [{"e": a.to_json(), "sec": is_sec_element(ring, a)}
               for a in ring.elements()]
    return {"ring": ring.spec_string(), "elements": entries}, entries, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadrings",
        description="Quadratic algebras over commutative rings: classification, "
                    "discriminants, fiber actions, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--ring", required=True,
                       help='ring spec: "Z", "Z/<n>", "Z/<n>[x]/(<monic poly>)"')
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")

    p = sub.add_parser("classify", help="isomorphism classes of quadratic algebras")
    add_common(p)
    p = sub.add_parser("disc", help="discriminant classes")
    add_common(p)
    p = sub.add_parser("fibers", help="Artin-Schreier action on discriminant fibers")
    add_common(p)
    p.add_argument("--disc", default=None,
                   help="single discriminant element (canonical representative)")
    p = sub.add_parser("as-group", help="the Artin-Schreier group of the ring")
    add_common(p)
    p = sub.add_parser("product", help="star product of two algebras (t,n)*(s,m)")
    add_common(p)
    p.add_argument("--s", required=True, help="first algebra as t,n")
    p.add_argument("--t", required=True, help="second algebra as s,m")
    p = sub.add_parser("verify", help="check the polynomial identity catalogue")
    p.add_argument("--identity", default=None, choices=IDENTITY_NAMES)
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--output", default=None)
    p = sub.add_parser("sec", help="square-even-cancellative elements of the ring")
    add_common(p)
    return parser


# Each command returns its JSON payload, its CSV (and text) rows, and
# whether every check it reports passed; only verify reports checks that
# fail without raising.
COMMANDS = {"classify": cmd_classify, "disc": cmd_disc, "fibers": cmd_fibers,
            "as-group": cmd_as_group, "product": cmd_product,
            "verify": cmd_verify, "sec": cmd_sec}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.output:
            _require_writable(args.output)
        payload, rows, ok = COMMANDS[args.command](args)
        text = _render(args.format, payload, rows)
    except (InternalCheckError, MonoidError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        if getattr(exc, "witness", None) is not None:
            import json
            print(json.dumps(exc.witness, sort_keys=True), file=sys.stderr)
        return 1
    except (UsageError, RingParseError, InfiniteRingError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.output:
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
