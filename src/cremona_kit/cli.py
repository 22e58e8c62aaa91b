"""Command-line front end.

Machine-readable output (JSON, or TSV for the census) goes to stdout and is
byte-identical across runs for identical invocations; human-readable
summaries go to stderr.  Exit codes: 0 success, 1 domain error (error JSON
on stderr), 2 usage error.
"""

import argparse
import json
import sys

from .errors import BadInput, DomainError
from . import fields
from . import orbits
from . import catalog
from . import linsys
from . import rewrite
from . import freeprod
from . import constructions


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _summary(text):
    sys.stderr.write(text + "\n")


def parse_field(name):
    name = name.strip()
    if name in ("Q", "q"):
        return fields.QQ
    if name and name[0] in "Ff" and name[1:].isdecimal():
        try:
            q = int(name[1:])
        except ValueError:  # beyond int()'s digit limit
            raise BadInput(f"field size with {len(name) - 1} digits is too large")
        split = fields.prime_power(q)
        if split is None:
            raise BadInput(f"{q} is not a prime power")
        p, k = split
        return fields.canonical_extension(fields.PrimeField(p), k)
    raise BadInput(f"cannot parse field {name!r} (use Q, F2, F4, F101, ...)")


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadInput(f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:
        raise BadInput(f"{path} is not JSON: {exc}")


# ---------------------------------------------------------------------------
# command implementations


def cmd_orbit_make(args):
    field = parse_field(args.field)
    poly = fields.poly_from_string(field, args.poly)
    second = fields.poly_from_string(field, args.poly2) if args.poly2 else None
    orbit = orbits.orbit_from_poly(
        field, poly, args.template, second_poly=second,
        allow_unverified=args.allow_unverified,
    )
    _emit(orbits.orbit_to_json(orbit))
    _summary(f"orbit of size {orbit.size}, general position {orbit.general_position}")
    return 0


def cmd_orbit_census(args):
    field = parse_field(args.field)
    q = field.size()
    orbs = orbits.enumerate_point_orbits(field, args.size)
    for filt in (orbits.ALL, orbits.GENERAL_POSITION_ONLY):
        classes = orbits.pgl3_classify(orbs, field, filter=filt)
        members = sum(c.count for c in classes)
        sys.stdout.write(
            f"{q}\t{args.size}\t{filt}\t{members}\t{len(classes)}\n"
        )
    return 0


def cmd_orbit_classify(args):
    field = parse_field(args.field)
    orbs = orbits.enumerate_point_orbits(field, args.size)
    filt = orbits.GENERAL_POSITION_ONLY if args.filter == "gp" else orbits.ALL
    classes = orbits.pgl3_classify(orbs, field, filter=filt)
    _emit(
        [
            {
                "class_id": c.class_id,
                "count": c.count,
                "strategy": c.strategy,
                "representative": orbits.orbit_to_json(c.representative),
            }
            for c in classes
        ]
    )
    _summary(f"{len(classes)} classes over F{field.size()} (filter {filt})")
    return 0


def cmd_orbit_match(args):
    P = orbits.orbit_from_json(_load(args.p))
    Q = orbits.orbit_from_json(_load(args.q))
    A = orbits.match_transform(P, Q)
    if A is None:
        _emit({"match": None})
        _summary("NoMatch")
    else:
        base = P.field
        _emit({"match": [[base.elem_to_str(x) for x in row] for row in A]})
        _summary("matched")
    return 0


def cmd_field_factor(args):
    field = parse_field(args.field)
    poly = fields.poly_from_string(field, args.poly)
    factors = fields.factor_over_prime_field(poly)
    _emit(
        [
            {"factor": fields.poly_to_json(p), "multiplicity": m}
            for p, m in factors
        ]
    )
    _summary(" * ".join(f"({p})^{m}" for p, m in factors))
    return 0


def cmd_field_irreducible(args):
    field = parse_field(args.field)
    poly = fields.poly_from_string(field, args.poly)
    cert = fields.irreducible_check(poly)
    _emit(cert.to_json())
    _summary(repr(cert))
    return 0


def cmd_linsys_push(args):
    F2 = fields.PrimeField(2)
    size = args.orbit_size
    poly = fields.find_irreducible(F2, size)
    src = orbits.PointOrbit(F2, orbits.LINE, size, poly)
    tgt = orbits.PointOrbit(F2, orbits.CONIC, size, poly)
    link = catalog.SarkisovLink(
        "II",
        catalog.hirzebruch(0),
        catalog.hirzebruch(size % 2),
        orbit_src=src,
        orbit_tgt=tgt,
        center=catalog.center_from_poly(poly),
        depth=size,
    )
    H = linsys.LinearSystemClass(
        args.two_lambda, args.two_nu, {src.key(): args.two_mult}
    )
    pushed = linsys.push_oracle(H, link)
    assert pushed == linsys.push_type2(H, link)
    _emit(
        {
            "input": H.to_json(),
            "link": catalog.link_to_json(link),
            "pushed": pushed.to_json(),
        }
    )
    _summary(f"{H!r} -> {pushed!r}")
    return 0


def cmd_word_validate(args):
    w = rewrite.word_from_json(_load(args.infile))
    verdict = rewrite.word_validate(w)
    _emit(
        {"ok": verdict.ok, "position": verdict.position, "reason": verdict.reason}
    )
    return 0


def cmd_word_reduce(args):
    w = rewrite.word_from_json(_load(args.infile))
    result = rewrite.reduce_relation(w)
    out = {
        "residual": rewrite.word_to_json(result.residual),
        "trivial": result.is_trivial,
        "stuck": result.stuck,
        "moves": result.move_log(),
        "fiber_traces": result.traces,
    }
    if args.log:
        with open(args.log, "w") as fh:
            json.dump(result.move_log(), fh, sort_keys=True)
    _emit(out)
    _summary(
        f"{len(result.moves)} moves; residual {'empty' if result.is_trivial else 'nonempty'}"
    )
    return 0


def cmd_word_reorder(args):
    w = rewrite.word_from_json(_load(args.infile))
    out, moves = rewrite.reorder_by_depth(w, args.delta)
    _emit({"word": rewrite.word_to_json(out), "moves": len(moves)})
    return 0


def cmd_homo_eval(args):
    w = rewrite.word_from_json(_load(args.infile))
    if args.refined:
        field = parse_field(args.field) if args.field else None
        elem = freeprod.homo_refined_eval(w, field)
        _emit(elem.to_json())
        _summary(repr(freeprod.RefinedTarget.from_element(elem).to_json()))
    else:
        elem = freeprod.homo_eval(w, delta=args.delta)
        _emit(elem.to_json())
        _summary("identity" if elem.is_identity() else repr(elem))
    return 0


def cmd_dejonquieres(args):
    field = parse_field(args.field)
    poly = fields.poly_from_string(field, args.poly)
    w, audit = constructions.dejonquieres_decompose(
        constructions.DeJonquieresMap(poly)
    )
    img = freeprod.homo_eval(w)
    _emit(
        {
            "word": rewrite.word_to_json(w),
            "audit": audit.to_json(),
            "image": img.to_json(),
        }
    )
    _summary(
        f"degree {poly.degree}: {len(w)} letters, image "
        + ("identity" if img.is_identity() else repr(img))
    )
    return 0


def cmd_biglink_c5(args):
    field = parse_field(args.field)
    orb_poly = fields.poly_from_string(field, args.orbit4)
    rpoly = fields.poly_from_string(field, args.rpoly)
    orbit4 = orbits.orbit_from_poly(field, orb_poly, orbits.CONIC)
    link, report = constructions.c5_big_link(orbit4, rpoly)
    _emit({"link": catalog.link_to_json(link), "report": report.to_json()})
    _summary(f"depth-{link.depth} link on the degree-5 bundle ({report.mode})")
    return 0


def cmd_biglink_c6(args):
    field = parse_field(args.field)
    f = fields.poly_from_string(field, args.pair)
    g = fields.poly_from_string(field, args.pair2) if args.pair2 else f
    rpoly = fields.poly_from_string(field, args.rpoly)
    split = orbits.orbit_from_poly(field, f, orbits.SPLIT, second_poly=g)
    link, report = constructions.c6_big_link(split, rpoly)
    _emit({"link": catalog.link_to_json(link), "report": report.to_json()})
    _summary(f"depth-{link.depth} link on the degree-6 bundle ({report.mode})")
    return 0


def cmd_catalog_validate(args):
    link = catalog.link_from_json(_load(args.infile))
    verdict = catalog.link_validate(link)
    _emit({"ok": verdict.ok, "rule": verdict.rule, "notes": list(verdict.notes)})
    _summary("Ok" if verdict.ok else f"Violation({verdict.rule})")
    return 0


def cmd_report_refined(args):
    field = parse_field(args.field)
    report = constructions.refined_target_report(field, args.bound)
    _emit(report.to_json())
    _summary(
        f"I indices {[n for n, _, _ in report.indices]}; "
        f"N2 {report.n2}; N4 {report.n4}; witnesses separated: {report.free_factors_ok}"
    )
    return 0


def cmd_audit_sym4(args):
    entries = orbits.transitive_sym4_audit()
    _emit(
        [
            {
                "subgroup": e.name,
                "order": e.order,
                "exchange_witnesses": {
                    label: [orbits.perm_cycles(p) for p in ws]
                    for label, ws in sorted(e.exchange_witnesses.items())
                },
            }
            for e in entries
        ]
    )
    _summary(f"{len(entries)} transitive subgroup classes of Sym4")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cremona-kit",
        description="Galois orbits, Sarkisov links, and free-product homomorphisms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    orbit = sub.add_parser("orbit", help="point orbits in P^2").add_subparsers(
        dest="subcommand", required=True
    )
    p = orbit.add_parser("make", help="build an orbit from minimal polynomials")
    p.add_argument("--field", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--template", required=True, choices=["conic", "split", "line"])
    p.add_argument("--poly2", default=None)
    p.add_argument("--allow-unverified", action="store_true")
    p.set_defaults(func=cmd_orbit_make)
    p = orbit.add_parser("census", help="count orbits and PGL3 classes (TSV)")
    p.add_argument("--field", required=True)
    p.add_argument("--size", type=int, required=True)
    p.set_defaults(func=cmd_orbit_census)
    p = orbit.add_parser("classify", help="PGL3 classes of size-n orbits")
    p.add_argument("--field", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--filter", choices=["all", "gp"], default="all")
    p.set_defaults(func=cmd_orbit_classify)
    p = orbit.add_parser("match", help="matching PGL3(k) transform of two orbits")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(func=cmd_orbit_match)

    fld = sub.add_parser("field", help="exact polynomial arithmetic").add_subparsers(
        dest="subcommand", required=True
    )
    p = fld.add_parser("factor", help="factor over a finite field")
    p.add_argument("--field", required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=cmd_field_factor)
    p = fld.add_parser("irreducible", help="irreducibility certificate")
    p.add_argument("--field", required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=cmd_field_irreducible)

    lin = sub.add_parser("linsys", help="linear system classes").add_subparsers(
        dest="subcommand", required=True
    )
    p = lin.add_parser("push", help="push a class through a II:x:x link")
    p.add_argument("--two-lambda", type=int, required=True)
    p.add_argument("--two-nu", type=int, required=True)
    p.add_argument("--orbit-size", type=int, required=True)
    p.add_argument("--two-mult", type=int, required=True)
    p.set_defaults(func=cmd_linsys_push)

    wrd = sub.add_parser("word", help="groupoid words").add_subparsers(
        dest="subcommand", required=True
    )
    p = wrd.add_parser("validate", help="chain and link validity")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_word_validate)
    p = wrd.add_parser("reduce", help="reduce a relator")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--log", default=None)
    p.set_defaults(func=cmd_word_reduce)
    p = wrd.add_parser("reorder", help="move deep letters first")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--delta", type=int, default=16)
    p.set_defaults(func=cmd_word_reorder)

    hom = sub.add_parser("homo", help="free-product homomorphism").add_subparsers(
        dest="subcommand", required=True
    )
    p = hom.add_parser("eval", help="evaluate a word")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--refined", action="store_true")
    p.add_argument("--field", default=None)
    p.add_argument("--delta", type=int, default=16)
    p.set_defaults(func=cmd_homo_eval)

    dej = sub.add_parser("dejonquieres", help="de Jonquieres maps").add_subparsers(
        dest="subcommand", required=True
    )
    p = dej.add_parser("decompose", help="link ladder of (x,y)->(x p(y), y)")
    p.add_argument("--field", required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=cmd_dejonquieres)

    big = sub.add_parser("biglink", help="odd-depth links on the 5/6 bundles").add_subparsers(
        dest="subcommand", required=True
    )
    p = big.add_parser("c5", help="degree-5 bundle link")
    p.add_argument("--field", required=True)
    p.add_argument("--orbit4", required=True)
    p.add_argument("--rpoly", required=True)
    p.set_defaults(func=cmd_biglink_c5)
    p = big.add_parser("c6", help="degree-6 bundle link")
    p.add_argument("--field", required=True)
    p.add_argument("--pair", required=True)
    p.add_argument("--pair2", default=None)
    p.add_argument("--rpoly", required=True)
    p.set_defaults(func=cmd_biglink_c6)

    cat = sub.add_parser("catalog", help="link catalog").add_subparsers(
        dest="subcommand", required=True
    )
    p = cat.add_parser("validate", help="validate a link JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_catalog_validate)

    rep = sub.add_parser("report", help="summary reports").add_subparsers(
        dest="subcommand", required=True
    )
    p = rep.add_parser("refined", help="refined target index sets and witnesses")
    p.add_argument("--field", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=cmd_report_refined)

    aud = sub.add_parser("audit", help="structural audits").add_subparsers(
        dest="subcommand", required=True
    )
    p = aud.add_parser("sym4", help="transitive subgroups of Sym4")
    p.set_defaults(func=cmd_audit_sym4)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(json.dumps(exc.to_json(), sort_keys=True) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
