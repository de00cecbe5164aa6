"""Command-line front end: enumerations, checks, and the selftest suite.

Every subcommand writes JSON to stdout (or ``--out``); domain errors,
malformed or misshapen JSON and gap text among them, are reported as
structured JSON.
Exit codes: 0 on success/pass, 1 when a check fails or a domain error
occurs, 2 on usage errors, a flag value that names no valid object included.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from ._linalg import field_from_token
from .consheaf import StratSheaf, UpSet, sections, stalk
from .corner import fiber_invariants, stratum_of, validate_point, witness_point
from .equivalence import (
    check_localization_adjunction,
    random_rep,
    realize_system,
    recover_rep,
    rep_mismatches,
    validate_rep,
)
from .errors import MalformedInput, PackageError
from .paracat import ParaMap, dualize_map, enumerate_hom
from .preord import ConvexRelation, ParaPreorder, enumerate_conv
from .sdot import FilteredObject, random_filtration, rotate, rotation_periodicity_check
from .selftest import CRITERIA, run_all


def _emit(data: dict, out: Optional[str]) -> None:
    text = json.dumps(data, indent=2, sort_keys=True, default=str)
    if out:
        with open(out, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _flag(parse):
    """An argparse type: ``parse`` of the flag's text, where a ValueError or
    domain error becomes a usage error."""
    def convert(text: str):
        try:
            return parse(text)
        except (ValueError, PackageError) as error:
            raise argparse.ArgumentTypeError(str(error)) from None
    return convert


def _parse_sizes(text: str) -> ParaPreorder:
    return ParaPreorder(tuple(int(s) for s in text.split(",")))


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"{value} is below {low}")
        return value
    return parse


def _criteria(text: str) -> list:
    chosen = [int(x) for x in text.split(",")]
    if not set(chosen) <= set(CRITERIA):
        raise ValueError(f"criteria are numbered {min(CRITERIA)}-{max(CRITERIA)}")
    return chosen


def _parse_json(text: str, decode):
    """``decode`` of the JSON ``text``.  Text that is not JSON, or JSON of
    the wrong structure, on which ``decode`` raises a KeyError, TypeError or
    ValueError, is MalformedInput; domain errors pass through."""
    try:
        return decode(json.loads(text))
    except PackageError:
        raise
    except json.JSONDecodeError as error:
        raise MalformedInput(f"input is not JSON: {error}") from None
    except (KeyError, TypeError, ValueError) as error:
        raise MalformedInput(f"input has the wrong structure: {error!r}") from None


def _load_json_argument(inline: Optional[str], path: Optional[str], decode):
    if inline:
        return _parse_json(inline, decode)
    if path:
        try:
            with open(path) as handle:
                text = handle.read()
        except OSError as error:
            raise MalformedInput(f"cannot read --in file: {error}") from None
        return _parse_json(text, decode)
    raise PackageError("provide input inline or with --in FILE")


def cmd_hom_count(args) -> int:
    counts = {
        kind: len(enumerate_hom(args.m, args.n, kind, cap=args.cap))
        for kind in ([args.kind] if args.kind != "all" else ["all", "inj", "surj"])
    }
    _emit({"m": args.m, "n": args.n, "count": counts.get("all", counts[args.kind]),
           "counts": counts}, args.out)
    return 0


def cmd_dualize(args) -> int:
    f = _load_json_argument(args.map, getattr(args, "infile", None), ParaMap.from_json)
    _emit({"input": f.to_json(), "dual": dualize_map(f).to_json()}, args.out)
    return 0


def cmd_conv(args) -> int:
    base = args.sizes
    poset = enumerate_conv(base)
    _emit({
        "sizes": list(base.sizes),
        "count": len(poset),
        "relations": [rel.to_json() for rel in poset],
    }, args.out)
    return 0


def cmd_point(args) -> int:
    base = args.sizes
    point = validate_point(base, args.gaps.split(","))
    n, fixed = fiber_invariants(point)
    _emit({
        "point": point.to_json(),
        "stratum": stratum_of(point).to_json(),
        "fiber": {"n": n, "fixed_points_per_period": fixed},
    }, args.out)
    return 0


def cmd_strata(args) -> int:
    base = args.sizes
    strata = []
    for rel in enumerate_conv(base):
        witness = witness_point(rel)
        strata.append({
            "relation": rel.to_json(),
            "quotient_label": len(rel.gaps) - 1,
            "witness_gaps": [g.token() for g in witness.gaps],
        })
    _emit({"sizes": list(base.sizes), "strata": strata}, args.out)
    return 0


def cmd_sections(args) -> int:
    sheaf = _load_json_argument(None, args.infile, StratSheaf.from_json)
    members = _parse_json(args.upset, lambda keys: frozenset(tuple(sorted(k)) for k in keys))
    space = sections(sheaf, UpSet(sheaf.base, members))
    _emit({
        "dim": space.dim,
        "layout": [list(k) for k in space.layout],
        "basis": sheaf.field.mat_to_json(space.basis),
    }, args.out)
    return 0


def cmd_stalk(args) -> int:
    sheaf = _load_json_argument(None, args.infile, StratSheaf.from_json)
    value = stalk(sheaf, ConvexRelation(sheaf.base, args.gaps))
    _emit({"gaps": sorted(args.gaps), "dim": value.dim}, args.out)
    return 0


def cmd_check_adjunction(args) -> int:
    report = check_localization_adjunction(args.N, args.variant)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def cmd_roundtrip(args) -> int:
    rng = random.Random(args.seed)
    failures = []
    for kind in ("para", "cyc"):
        for trial in range(args.count):
            rep = random_rep(rng, args.field, args.N, cyclic=(kind == "cyc"))
            recovered = recover_rep(realize_system(rep), args.N)
            if rep_mismatches(rep, recovered) or not validate_rep(recovered)["passed"]:
                failures.append((kind, trial))
    report = {
        "N": args.N,
        "seed": args.seed,
        "field": args.field.name,
        "trials_per_kind": args.count,
        "passed": not failures,
        "failures": failures,
    }
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def cmd_sdot_rotate(args) -> int:
    if args.infile:
        filtration = _load_json_argument(None, args.infile, FilteredObject.from_json)
    else:
        rng = random.Random(args.seed)
        filtration = random_filtration(rng, args.field, args.length, max_dim=6)
    report = rotation_periodicity_check(filtration)
    report["rotated"] = rotate(filtration).to_json()
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def cmd_selftest(args) -> int:
    result = run_all(seed=args.seed, only=args.only)
    for report in result["reports"]:
        verdict = "PASS" if report["passed"] else "FAIL"
        print(f"criterion {report['id']}: {verdict} - {report['title']}")
    if args.out:
        # wall times vary between runs; strip them so reports are reproducible
        for report in result["reports"]:
            report.pop("seconds", None)
        _emit(result, args.out)
    print(f"selftest: {'PASS' if result['passed'] else 'FAIL'} (seed {result['seed']})")
    return 0 if result["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paracyclic",
        description="exact checks for cyclic categories, corner-space sheaves, "
                    "and filtration rotations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sizes = _flag(_parse_sizes)

    def common(p):
        p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("hom-count", help="count cyclic hom-set representatives")
    p.add_argument("--m", type=_flag(_at_least(0)), required=True)
    p.add_argument("--n", type=_flag(_at_least(0)), required=True)
    p.add_argument("--kind", choices=["all", "inj", "surj"], default="all")
    p.add_argument("--cap", type=int, default=10**6)
    common(p)
    p.set_defaults(func=cmd_hom_count)

    p = sub.add_parser("dualize", help="dual of a paracyclic map")
    p.add_argument("--map", help="map as inline JSON")
    p.add_argument("--in", dest="infile", help="map as a JSON file")
    common(p)
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("conv", help="enumerate convex relations of a preorder")
    p.add_argument("--sizes", type=sizes, required=True, help="class sizes, e.g. 1,1,1")
    common(p)
    p.set_defaults(func=cmd_conv)

    p = sub.add_parser("point", help="validate a gap vector and report its stratum")
    p.add_argument("--sizes", type=sizes, required=True)
    p.add_argument("--gaps", required=True,
                   help="comma list, e.g. 3/1,inf; use --gaps=-1/2,inf "
                        "when the first gap is negative")
    common(p)
    p.set_defaults(func=cmd_point)

    p = sub.add_parser("strata", help="list strata with witness points")
    p.add_argument("--sizes", type=sizes, required=True)
    common(p)
    p.set_defaults(func=cmd_strata)

    p = sub.add_parser("sections", help="sections of a sheaf over an up-set")
    p.add_argument("--in", dest="infile", required=True, help="sheaf JSON file")
    p.add_argument("--upset", required=True,
                   help="JSON list of gap lists, e.g. [[0],[0,1]]")
    common(p)
    p.set_defaults(func=cmd_sections)

    p = sub.add_parser("stalk", help="stalk of a sheaf at a stratum")
    p.add_argument("--in", dest="infile", required=True, help="sheaf JSON file")
    p.add_argument("--gaps", required=True, help="gap set, e.g. 0,2",
                   type=_flag(lambda text: frozenset(int(b) for b in text.split(","))))
    common(p)
    p.set_defaults(func=cmd_stalk)

    p = sub.add_parser("check-adjunction", help="verify the localization adjunction")
    p.add_argument("--N", type=_flag(_at_least(1)), default=2)
    p.add_argument("--variant", choices=["para", "cyc"], default="para")
    common(p)
    p.set_defaults(func=cmd_check_adjunction)

    p = sub.add_parser("roundtrip", help="representation/sheaf-system round trips")
    p.add_argument("--N", type=_flag(_at_least(0)), default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--field", type=_flag(field_from_token), default="101",
                   help="a prime, or Q for the rationals")
    p.add_argument("--count", type=_flag(_at_least(1)), default=5)
    common(p)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("sdot-rotate", help="rotate a filtration and check periodicity")
    p.add_argument("--in", dest="infile", help="filtration JSON file")
    p.add_argument("--length", type=_flag(_at_least(1)), default=2)
    p.add_argument("--field", type=_flag(field_from_token), default="2",
                   help="a prime, or Q for the rationals")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_sdot_rotate)

    p = sub.add_parser("selftest", help="run the full verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--only", type=_flag(_criteria), help="comma list of criterion numbers")
    common(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PackageError as error:
        _emit({"error": {"type": type(error).__name__, "message": str(error)}},
              getattr(args, "out", None))
        return 1


if __name__ == "__main__":
    sys.exit(main())
