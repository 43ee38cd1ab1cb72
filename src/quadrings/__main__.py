"""Command-line front end emitting deterministic JSON/CSV reports.

Subcommands: classify, disc, fibers, as-group, product, verify, sec.
Exit codes: 0 success, 1 internal invariant violation (a bug; the message,
then the check's witness, if it has one, as one JSON line on stderr),
2 usage error (bad flags, unparseable ring spec, enumeration of Z, an
enumeration above rings.MAX_ENUMERATION items, or an --output path whose
directory is missing or not writable, all refused before any work; or an
--output file whose final write fails).

This is the module `python -m quadrings` and the `quadrings` script run.
Each command imports the layer modules it calls when it runs, so a process
loads only the layers of its own command: classify and product need
quadratic (and monoids), disc adds discriminants, fibers, sec and as-group
add artin_schreier, and verify needs identities (and polynomials).
`quadrings.cli` re-exports these names and loads every layer up front.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .errors import (InfiniteRingError, InternalCheckError, MonoidError,
                     RingParseError)
from .rings import QuotientPolyRing, Ring, parse_ring

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


def _parse_element(ring: Ring, text: str):
    parts = [p for p in text.replace(" ", "").split(",") if p != ""]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"cannot parse element {text!r}: expected integers")
    if isinstance(ring, QuotientPolyRing):
        if len(values) != ring.degree:
            raise UsageError(
                f"element of {ring!r} needs {ring.degree} coefficients c0,c1,..."
            )
        return ring.element(values)
    if len(values) != 1:
        raise UsageError(f"element of {ring!r} is a single integer")
    return ring.element(values[0])


def _parse_pair(ring: Ring, text: str):
    parts = [p for p in text.replace(" ", "").split(",") if p != ""]
    width = ring.degree if isinstance(ring, QuotientPolyRing) else 1
    if len(parts) != 2 * width:
        raise UsageError(
            f"pair over {ring!r} needs {2 * width} comma-separated integers"
        )
    t = _parse_element(ring, ",".join(parts[:width]))
    n = _parse_element(ring, ",".join(parts[width:]))
    return t, n


def _to_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _to_csv(rows: list[dict], fieldnames: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _cell(value):
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    return value


def cmd_classify(args) -> tuple[str, bool]:
    from .quadratic import classify
    ring = parse_ring(args.ring)
    cl = classify(ring)
    classes = []
    for c in cl:
        classes.append({
            "t": c.rep.t.to_json(),
            "n": c.rep.n.to_json(),
            "orbit_size": c.orbit_size,
            "disc": c.disc.to_json(),
            "separable": c.separable,
            "sec": c.separable,    # is_sec_algebra(c.rep) over a finite ring
        })
    payload = {"ring": ring.spec_string(), "classes": classes}
    if args.format == "csv":
        rows = [{k: _cell(v) for k, v in entry.items()} for entry in classes]
        return _to_csv(rows, ["t", "n", "orbit_size", "disc", "separable", "sec"]), True
    return _to_json(payload), True


def cmd_disc(args) -> tuple[str, bool]:
    from .discriminants import DiscClassification, disc_hom_check
    from .quadratic import classify
    ring = parse_ring(args.ring)
    dc = DiscClassification(ring)
    hom = disc_hom_check(ring, classify(ring))
    if hom.violations:
        raise InternalCheckError("; ".join(hom.violations),
                                 {"ring": ring.spec_string(),
                                  "violations": hom.violations})
    absorbing = ring.zero
    entries = [{
        "d": c.d.to_json(),
        "witness_t": c.witness_t.to_json(),
        "absorbing": c.d == absorbing,
    } for c in dc]
    payload = {"ring": ring.spec_string(), "disc_classes": entries}
    if args.format == "csv":
        rows = [{k: _cell(v) for k, v in e.items()} for e in entries]
        return _to_csv(rows, ["d", "witness_t", "absorbing"]), True
    return _to_json(payload), True


def cmd_fibers(args) -> tuple[str, bool]:
    from .artin_schreier import ASGroup, fiber_report
    from .discriminants import DiscClassification
    from .quadratic import classify
    ring = parse_ring(args.ring)
    cl = classify(ring)
    asg = ASGroup(ring)
    dc = DiscClassification(ring)
    if args.disc is not None:
        d = _parse_element(ring, args.disc)
        targets = [dc[dc.index_of(d)]]
    else:
        targets = list(dc)
    reports = [fiber_report(ring, d, cl, asg) for d in targets]
    entries = []
    for rep in reports:
        entries.append({
            "d": rep.disc_class.d.to_json(),
            "fiber": [{"t": cl[i].rep.t.to_json(), "n": cl[i].rep.n.to_json()}
                      for i in rep.fiber],
            "orbits": rep.orbits,
            "kernel_size": len(rep.kernel),
            "free": rep.free,
            "transitive": rep.transitive,
        })
    payload = {"ring": ring.spec_string(), "fibers": entries}
    if args.format == "csv":
        rows = []
        for rep in reports:
            for orbit_idx, orbit in enumerate(rep.orbits):
                for pos in orbit:
                    rows.append({
                        "d": str(rep.disc_class.d),
                        "class": rep.fiber_labels[pos],
                        "orbit": orbit_idx,
                        "kernel_size": len(rep.kernel),
                        "free": rep.free,
                        "transitive": rep.transitive,
                    })
        return _to_csv(rows, ["d", "class", "orbit", "kernel_size", "free",
                              "transitive"]), True
    return _to_json(payload), True


def cmd_as_group(args) -> tuple[str, bool]:
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
    if args.format == "csv":
        rows = [{"class_rep": str(rep),
                 "four_torsion_size": len(asg.four_torsion),
                 "wp4_size": len(asg.wp4),
                 "order": asg.order}
                for rep in asg.classes]
        return _to_csv(rows, ["class_rep", "four_torsion_size", "wp4_size",
                              "order"]), True
    return _to_json(payload), True


def cmd_product(args) -> tuple[str, bool]:
    from .quadratic import QuadraticAlgebra, star_product
    ring = parse_ring(args.ring)
    t1, n1 = _parse_pair(ring, args.s)
    t2, n2 = _parse_pair(ring, args.t)
    prod = star_product(QuadraticAlgebra(ring, t1, n1),
                        QuadraticAlgebra(ring, t2, n2))
    payload = {
        "ring": ring.spec_string(),
        "s": {"t": t1.to_json(), "n": n1.to_json()},
        "t": {"t": t2.to_json(), "n": n2.to_json()},
        "product": {"t": prod.t.to_json(), "n": prod.n.to_json()},
    }
    if args.format == "csv":
        rows = [{"t": _cell(prod.t.to_json()), "n": _cell(prod.n.to_json())}]
        return _to_csv(rows, ["t", "n"]), True
    return _to_json(payload), True


def cmd_verify(args) -> tuple[str, bool]:
    from .identities import IDENTITY_NAMES, verify_named_identity
    names = [args.identity] if args.identity else IDENTITY_NAMES
    results = [verify_named_identity(name) for name in names]
    ok = all(r.passed for r in results)
    if args.format == "json":
        payload = {"identities": [{
            "name": r.name,
            "passed": r.passed,
            "lhs_terms": r.lhs_terms,
            "rhs_terms": r.rhs_terms,
        } for r in results]}
        return _to_json(payload), ok
    if args.format == "csv":
        rows = [{"name": r.name,
                 "status": "PASS" if r.passed else "FAIL",
                 "lhs_terms": r.lhs_terms,
                 "rhs_terms": r.rhs_terms} for r in results]
        return _to_csv(rows, ["name", "status", "lhs_terms", "rhs_terms"]), ok
    lines = [f"{r.name} {'PASS' if r.passed else 'FAIL'} "
             f"lhs_terms={r.lhs_terms} rhs_terms={r.rhs_terms}"
             for r in results]
    return "\n".join(lines) + "\n", ok


def cmd_sec(args) -> tuple[str, bool]:
    from .artin_schreier import is_sec_element
    ring = parse_ring(args.ring)
    entries = [{"e": a.to_json(), "sec": is_sec_element(ring, a)}
               for a in ring.elements()]
    payload = {"ring": ring.spec_string(), "elements": entries}
    if args.format == "csv":
        rows = [{"e": _cell(e["e"]), "sec": e["sec"]} for e in entries]
        return _to_csv(rows, ["e", "sec"]), True
    return _to_json(payload), True


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


# Each command returns its output text and whether every check it reports
# passed; only verify reports checks that fail without raising.
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
        text, ok = COMMANDS[args.command](args)
    except (InternalCheckError, MonoidError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        if getattr(exc, "witness", None) is not None:
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
