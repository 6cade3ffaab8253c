"""Command-line front end.

Five subcommands: ``analyze`` (effective channels of one assignment),
``search`` (exhaustive assignment search), ``prove`` (capacity-gain
certificates), ``curves`` (capacity curve table), ``simulate`` (Monte Carlo
runs and the exact oracle comparison).  Every command writes one JSON or CSV
document to stdout or ``--out`` and exits 0 exactly when the requested
certification or validation succeeded.  Bad input values and unreadable
files exit 1 with one compact JSON object on stderr; malformed flags are
left to argparse, which prints its usage and exits 2.

Rationals on the command line are parsed exactly: ``1/2`` and ``0.5`` are
the same value.  A JSON config file can hold defaults for any flag; explicit
flags win.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction

from .codec import (
    compare_oracle_with_analysis,
    design_code,
    monte_carlo,
    synthetic_erasure_values,
)
from .effective_channels import (
    assignment_erasures,
    coded_repetition_scheme,
    reference_expression_set,
)
from .patterns import PatternAssignment, family_by_name, kernel_ref, regular_family
from .poly import EPS, Poly
from .proofcheck import certify_difference, certify_gain
from .search import DEFAULT_GRID, best_assignment


def _fraction(text: str) -> Fraction:
    return Fraction(text)


def _fraction_list(text: str) -> list[Fraction]:
    return [Fraction(part) for part in text.split(",") if part]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def _decimal(value: Fraction) -> str:
    return f"{float(value):.12g}"


def _emit(payload, args) -> None:
    tabular = isinstance(payload, list)
    if getattr(args, "format", "json") == "csv" and tabular:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in payload:
            writer.writerow(row)
        text = buf.getvalue()
    else:
        if isinstance(payload, dict) and not args.reproducible:
            payload = dict(payload)
            payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(args) -> tuple[Fraction, ...]:
    if not args.grid:
        return DEFAULT_GRID
    for g in args.grid:
        if not 0 < g < 1:
            raise ValueError(f"grid point {g} outside (0, 1)")
    return tuple(args.grid)


def _levels(r: int) -> int:
    """Level count t of a repetition count r = 2**t."""
    if r < 1 or r & (r - 1):
        raise ValueError(f"repetition count {r} is not a power of two")
    return r.bit_length() - 1


def _eval_table(polys: dict[str, Poly], grid) -> list[dict]:
    table = []
    for g in grid:
        row = {"eps": str(g)}
        for name, p in polys.items():
            v = p.evaluate(g)
            row[name] = str(v)
            row[name + "_decimal"] = _decimal(v)
        table.append(row)
    return table


# -- subcommands -------------------------------------------------------------

def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required")


def cmd_analyze(args) -> int:
    _require(args, "family", "assign")
    family = family_by_name(args.family)
    assignment = PatternAssignment(args.assign)
    channels = assignment_erasures(assignment, family)
    polys = {f"subword_{k + 1}": z for k, z in enumerate(channels.per_subword)}
    polys["capacity"] = channels.capacity_poly
    table = _eval_table(polys, _grid(args))
    if args.format == "csv":
        header = list(table[0])
        _emit([header] + [[row[c] for c in header] for row in table], args)
        return 0
    payload = {
        "command": "analyze",
        "family": family.kind,
        "assignment": list(assignment.indices),
        "channels": channels.to_json_dict(),
        "evaluation": table,
    }
    _emit(payload, args)
    return 0


def cmd_search(args) -> int:
    _require(args, "family")
    family = family_by_name(args.family)
    report = best_assignment(family, r=args.r, grid=_grid(args), certify=not args.no_certify)
    if args.format == "csv":
        _emit(report.to_csv_rows(), args)
    else:
        _emit({"command": "search", **report.to_json_dict()}, args)
    return 0


def cmd_prove(args) -> int:
    grid = _grid(args)
    if args.custom is None and not args.t:
        raise ValueError("nothing to prove: pass --t and/or --custom")
    certificates = []
    all_certified = True
    if args.custom is not None:
        cert = certify_difference(Poly.from_strings(args.custom.split(",")))
        certificates.append({"kind": "custom", **cert.to_json_dict()})
        all_certified &= cert.certified
    for t in args.t or []:
        cert = certify_gain(t, sample=args.sample)
        entry = {"kind": "gain", "t": t, **cert.to_json_dict()}
        r_eps = EPS.scale(cert.r)
        total = cert.difference_poly + r_eps
        entry["curve"] = _eval_table({"sum_erasure": total, "r_eps": r_eps}, grid)
        certificates.append(entry)
        all_certified &= cert.certified
    if args.format == "csv":
        rows = [["t", "eps", "sum_erasure", "r_eps", "verdict"]]
        for entry in certificates:
            for point in entry.get("curve", []):
                rows.append(
                    [
                        entry.get("t", ""),
                        point["eps"],
                        point["sum_erasure_decimal"],
                        point["r_eps_decimal"],
                        entry["verdict"],
                    ]
                )
        _emit(rows, args)
        return 0 if all_certified else 1
    payload = {
        "command": "prove",
        "all_certified": all_certified,
        "certificates": certificates,
    }
    _emit(payload, args)
    return 0 if all_certified else 1


def cmd_kernels(args) -> int:
    _require(args, "refs")
    entries = []
    for ref in args.refs:
        family, index, kern = kernel_ref(ref)
        entries.append(
            {
                "ref": f"{family.kind}:{index}",
                "size": kern.size,
                "rows": [list(row) for row in kern.rows],
                "grid": str(kern),
            }
        )
    if args.format == "csv":
        rows = [["ref", "size", "rows"]]
        for e in entries:
            rows.append([e["ref"], e["size"], ";".join("".join(map(str, r)) for r in e["rows"])])
        _emit(rows, args)
        return 0
    _emit({"command": "kernels", "kernels": entries}, args)
    return 0


def cmd_curves(args) -> int:
    grid = _grid(args)
    r_values = args.r or [2, 4, 8]
    schemes = {}
    for r in r_values:
        schemes[r] = coded_repetition_scheme(_levels(r)).capacity_poly
    irregular = (
        reference_expression_set("irregular_best_r4").capacity_poly
        if 4 in schemes
        else None
    )
    header = ["eps", "shannon"]
    for r in r_values:
        header += [f"repetition_r{r}", f"proposed_r{r}"]
        if r == 4:
            header.append("irregular_r4")
    rows = [header]
    for g in grid:
        row = [_decimal(g), _decimal(1 - g)]
        for r in r_values:
            row.append(_decimal(Fraction(1 - g**r, r)))
            row.append(_decimal(schemes[r].evaluate(g)))
            if r == 4:
                row.append(_decimal(irregular.evaluate(g)))
        rows.append(row)
    if args.format == "csv":
        _emit(rows, args)
    else:
        _emit({"command": "curves", "columns": header, "rows": rows[1:]}, args)
    return 0


def _simulate_family(args):
    if args.family:
        return family_by_name(args.family)
    if args.r is None:
        raise ValueError("pass --family or --r")
    return regular_family(_levels(args.r))


def cmd_simulate(args) -> int:
    _require(args, "m", "assign")
    family = _simulate_family(args)
    t = family.size.bit_length() - 1
    assignment = PatternAssignment(args.assign)
    if args.oracle:
        comparison = compare_oracle_with_analysis(family, assignment, args.m, t)
        _emit({"command": "simulate-oracle", **comparison.to_json_dict()}, args)
        return 0
    m = args.m
    k = args.k if args.k is not None else (1 << m) // 2
    design_eps = args.design_eps if args.design_eps is not None else args.eps
    spec = design_code(m, t, assignment, design_eps, k, family)
    report = monte_carlo(spec, args.eps, args.trials, seed=args.seed)
    design = spec.design_erasures
    if spec.design_eps != args.eps:
        per = assignment_erasures(assignment, family).per_subword
        design = synthetic_erasure_values(per, m - t, args.eps)
    if args.format == "csv":
        rows = [["bit", "empirical_rate", "design_erasure", "frozen"]]
        frozen = set(spec.frozen)
        for i, rate in enumerate(report.per_bit_rates):
            rows.append([i, f"{rate:.12g}", _decimal(design[i]), int(i in frozen)])
        _emit(rows, args)
        return 0
    payload = {
        "command": "simulate",
        **report.to_json_dict(),
        "design_erasures": [str(v) for v in design],
    }
    _emit(payload, args)
    return 0


# -- wiring -------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--grid", type=_fraction_list, default=None,
                     help="comma-separated erasure grid (default 1/20..19/20)")
    sub.add_argument("--out", default=None, help="write output to this path")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--reproducible", action="store_true",
                     help="omit the timestamp so reruns are byte-identical")


def build_parser(defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarrep",
        description="Polar coded repetition toolkit for erasure channels.",
    )
    parser.add_argument("--config", default=None,
                        help="JSON file with default flag values")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("analyze", help="effective channels of one assignment")
    p.add_argument("--family", default=None)
    p.add_argument("--assign", type=_int_list, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = commands.add_parser("search", help="exhaustive assignment search")
    p.add_argument("--family", default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--no-certify", action="store_true",
                   help="skip the Sturm dominance certificate")
    _add_common(p)
    p.set_defaults(func=cmd_search)

    p = commands.add_parser("prove", help="capacity-gain certificates")
    p.add_argument("--t", type=_int_list, default=None,
                   help="comma-separated level counts (r = 2**t)")
    p.add_argument("--custom", default=None,
                   help="certify a custom difference polynomial: num/den coefficients, lowest degree first")
    p.add_argument("--sample", type=_fraction, default=Fraction(1, 2))
    _add_common(p)
    p.set_defaults(func=cmd_prove)

    p = commands.add_parser("kernels", help="print kernels by family:index reference")
    p.add_argument("--refs", type=lambda s: [x for x in s.split(",") if x],
                   default=None, help="comma list such as reg4:0,irr4:7")
    _add_common(p)
    p.set_defaults(func=cmd_kernels)

    p = commands.add_parser("curves", help="capacity curve table")
    p.add_argument("--r", type=_int_list, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_curves)

    p = commands.add_parser("simulate", help="Monte Carlo simulation / exact oracle")
    p.add_argument("--family", default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--assign", type=_int_list, default=None)
    p.add_argument("--eps", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--design-eps", type=_fraction, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--oracle", action="store_true",
                   help="run the exact enumeration oracle comparison instead")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    if defaults:
        for sub in commands.choices.values():
            converters = {
                a.dest: a.type for a in sub._actions if a.type is not None
            }
            known = {a.dest for a in sub._actions}
            typed = {}
            for key, value in defaults.items():
                if key not in known:
                    continue
                conv = converters.get(key)
                typed[key] = conv(value) if conv and isinstance(value, str) else value
            sub.set_defaults(**typed)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config", default=None)
    known, _ = pre.parse_known_args(argv)
    try:
        defaults = None
        if known.config:
            with open(known.config) as fh:
                defaults = {k.replace("-", "_"): v for k, v in json.load(fh).items()}
        args = build_parser(defaults).parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(json.dumps({"status": "error", "reason": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
