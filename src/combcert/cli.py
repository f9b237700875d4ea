"""Command-line surface.

Subcommands: verify-point, classify, certify, implied, facet,
paper-tables, search.  Every command takes --format json|text (text by
default).  Exit codes: 0 when the checked property holds (or the
computation simply succeeds), 1 when it is refuted (infeasible point,
violated inequality, failed reproduction, unmet hypothesis), 2 for usage
and input errors.  All rationals print exactly, as p/q.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .certificates import BUILDERS, certify, verify
from .combs import CLASSES, classify, comb_inequality
from .constraints import check_point
from .errors import CombcertError, FormatError, HypothesisNotMetError, InvalidCombError
from .jsonio import dump_certificate, load_comb, load_instance, write_json
from .lp import is_implied
from .rational import format_rational
from .search import FAMILIES, ORIENTATION_POLICIES, ExperimentConfig, run_search
from .tables import reproduce_tables
from .tours import facet_test


# The largest n of a `search` instance: the n^2 edges of K_{n,n} are built
# before any comb, and five certified combs on K_{300,300} take under a
# second and about 41 MiB.
MAX_SEARCH_SIZE = 300


def _approx(value: int | Fraction) -> str:
    """The exact rational plus a decimal reading when it is fractional.

    The reading is rounded to six decimals in integer arithmetic, so a
    value of any size prints (a float would overflow).
    """
    text = format_rational(value)
    if value.denominator == 1:
        return text
    whole, micros = divmod(round(abs(value) * 10**6), 10**6)
    digits = f"{format_rational(whole)}.{micros:06d}".rstrip("0").rstrip(".")
    return f"{text} (~{'-' if value < 0 else ''}{digits})"


def _write_output(path, document: dict) -> None:
    try:
        write_json(path, document)
    except (OSError, ValueError) as exc:  # ValueError: NUL in path
        raise FormatError("output", f"cannot write {path}: {exc}") from exc


def _require_writable(path) -> None:
    """Refuse `path` before any work, and leave it as it was: an existing
    file keeps its content, and a file that the check made is removed."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
        if not existed:
            os.remove(path)
    except (OSError, ValueError) as exc:
        raise FormatError("output", f"cannot write {path}: {exc}") from exc


def _emit(args, document: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _load_pair(args):
    instance, point = load_instance(args.instance)
    comb = load_comb(args.comb, instance)
    return instance, point, comb


def _cmd_verify_point(args) -> int:
    instance, point = load_instance(args.instance)
    report = check_point(instance, point, mode=args.mode)
    document = {
        "feasible": report.feasible,
        "violations": [
            {
                "constraint": row.provenance,
                "value": format_rational(value),
                "rhs": format_rational(row.rhs),
            }
            for row, value in report.violations
        ],
    }
    lines = [f"feasible: {report.feasible}"]
    lines += [
        f"  violated {row.provenance}: value {_approx(value)} "
        f"vs rhs {format_rational(row.rhs)}"
        for row, value in report.violations
    ]
    _emit(args, document, lines)
    return 0 if report.feasible else 1


def _cmd_classify(args) -> int:
    instance, _, comb = _load_pair(args)
    flags = classify(instance, comb)
    document = flags.as_dict()
    lines = [f"builders: {', '.join(document['builders']) or '(none)'}"]
    for cls in CLASSES.values():
        lines.append(f"  {cls.flag}: {document[cls.flag]}")
    for cond in document["conditions"]:
        lines.append(
            f"  orientation {cond['orientation']}: w={cond['w']} "
            f"<= {cond['bound']} -> {cond['holds']}"
        )
    lines += [f"  note: {n}" for n in document["notes"]]
    _emit(args, document, lines)
    return 0


def _cmd_certify(args) -> int:
    instance, _, comb = _load_pair(args)
    name = args.builder.upper()
    cert = certify(instance, comb) if name == "AUTO" else BUILDERS[name](instance, comb)
    if cert is None:
        _emit(
            args,
            {"error": "no hypothesis class applies", "builders": []},
            ["no hypothesis class applies to this comb"],
        )
        return 1
    report = verify(instance, cert)
    document = dump_certificate(cert, instance)
    document["verified"] = report.dominates
    document["slack"] = format_rational(report.slack)
    if args.output:
        _write_output(args.output, document)
    lines = [
        f"builder {cert.builder}, orientation {cert.orientation}, "
        f"{len(cert.members)} members",
        f"dominates: {report.dominates} (slack {_approx(report.slack)})",
    ]
    lines += [f"  problem: {p}" for p in report.problems]
    _emit(args, document, lines)
    return 0 if report.dominates else 1


def _cmd_implied(args) -> int:
    instance, _, comb = _load_pair(args)
    target = comb_inequality(instance, comb)
    result = is_implied(
        instance, target, mode=args.mode, lazy=not args.direct
    )
    document = {
        "status": result.status,
        "optimum": format_rational(result.optimum),
        "rhs": format_rational(result.target_rhs),
        "rounds": result.rounds,
        "rows_used": result.rows_used,
    }
    lines = [
        f"{result.status}: optimum {_approx(result.optimum)} "
        f"vs rhs {_approx(result.target_rhs)}"
    ]
    if result.witness is not None:
        witness = {
            instance.edge_label(e): format_rational(w)
            for e, w in result.witness.items()
            if w
        }
        document["witness"] = witness
        lines += [f"  witness {k} = {v}" for k, v in sorted(witness.items())]
    if result.dual_rows is not None:
        document["dual"] = [
            {"row": row.provenance, "multiplier": format_rational(y)}
            for row, y in result.dual_rows
        ]
        lines.append(f"  dual certificate over {len(result.dual_rows)} rows checks out")
    _emit(args, document, lines)
    return 0 if result.implied else 1


def _cmd_facet(args) -> int:
    instance, _, comb = _load_pair(args)
    target = comb_inequality(instance, comb)
    report = facet_test(instance, target)
    document = report.as_dict()
    _emit(
        args,
        document,
        [
            f"verdict: {document['verdict']}",
            f"  polytope dim {document['polytope_dim']}, "
            f"tight tours {document['tight_tour_count']}, "
            f"tight face dim {document['tight_face_dim']}",
        ],
    )
    return 0


def _cmd_paper_tables(args) -> int:
    report = reproduce_tables(variant=args.variant)
    document = report.as_dict()
    lines = [c.line() for c in report.checks]
    lines += [f"note: {n}" for n in report.notes]
    lines.append("all checks passed" if report.ok else "MISMATCHES FOUND")
    _emit(args, document, lines)
    return 0 if report.ok else 1


def _cmd_search(args) -> int:
    if args.size < 3:
        raise FormatError("size", f"must be at least 3, got {args.size}")
    if args.size > MAX_SEARCH_SIZE:
        raise FormatError("size", f"must be at most {MAX_SEARCH_SIZE}, got {args.size}")
    if args.count < 0:
        raise FormatError("count", f"must not be negative, got {args.count}")
    families = FAMILIES
    if args.families is not None:
        families = tuple(args.families.split(","))
        unknown = [name for name in families if name not in FAMILIES]
        if unknown:
            raise FormatError(
                "families", f"unknown {unknown}; choose from {','.join(FAMILIES)}"
            )
    config = ExperimentConfig(
        seed=args.seed,
        size=args.size,
        comb_count=args.count,
        families=families,
        orientation_policy=args.policy,
    )
    if args.output:
        _require_writable(args.output)
    findings = run_search(config)
    if args.output:
        _write_output(args.output, findings)
    summary = {
        key: len(findings[key])
        for key in ("certified", "violated", "implied_without_certificate", "failures")
    }
    lines = [f"{k}: {v}" for k, v in summary.items()]
    if args.output:
        lines.append(f"findings written to {args.output}")
    _emit(args, findings if args.format == "json" else {"summary": summary}, lines)
    return 0 if not findings["failures"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="combcert",
        description="Certificates, exact LP, and tour checks for comb "
        "inequalities over bipartite TSP relaxations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, comb=True):
        p.add_argument("--instance", required=True, help="instance JSON file")
        if comb:
            p.add_argument("--comb", required=True, help="comb JSON file")
        p.add_argument("--format", choices=("json", "text"), default="text")

    p = sub.add_parser("verify-point", help="check a point against the relaxation")
    common(p, comb=False)
    p.add_argument("--mode", choices=("le", "eq"), default="le")
    p.set_defaults(func=_cmd_verify_point)

    p = sub.add_parser("classify", help="which hypothesis classes a comb matches")
    common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("certify", help="build and verify an aggregation certificate")
    common(p)
    p.add_argument(
        "--builder",
        choices=("auto", *(name.lower() for name in BUILDERS)),
        default="auto",
    )
    p.add_argument("--output", help="write the certificate JSON here")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("implied", help="LP test: is the comb row implied?")
    common(p)
    p.add_argument("--direct", action="store_true", help="materialize all subtour rows")
    p.add_argument("--mode", choices=("le", "eq"), default="le")
    p.set_defaults(func=_cmd_implied)

    p = sub.add_parser("facet", help="tour-enumeration facet test for the comb row")
    common(p)
    p.set_defaults(func=_cmd_facet)

    p = sub.add_parser("paper-tables", help="reproduce the bundled golden tables")
    p.add_argument("--variant", choices=("corrected", "printed"), default="corrected")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_paper_tables)

    p = sub.add_parser("search", help="randomized comb experiments")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=4, help="n for the K_{n,n} instance")
    p.add_argument("--count", type=int, default=60)
    p.add_argument("--families", help="comma-separated subset of " + ",".join(FAMILIES))
    p.add_argument("--policy", choices=ORIENTATION_POLICIES, default="random")
    p.add_argument("--output", help="write findings JSON here")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=_cmd_search)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(
            json.dumps({"error": {"field": exc.field, "reason": exc.reason}}),
            file=sys.stderr,
        )
        return 2
    except InvalidCombError as exc:
        print(
            json.dumps({"error": {"comb": list(exc.violations)}}), file=sys.stderr
        )
        return 2
    except HypothesisNotMetError as exc:
        print(json.dumps({"error": {"hypothesis": str(exc)}}), file=sys.stderr)
        return 1
    except CombcertError as exc:
        print(json.dumps({"error": {"message": str(exc)}}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
