"""Command-line front end.

Six subcommands: ``analyze`` (effective channels of one assignment),
``search`` (exhaustive assignment search), ``prove`` (capacity-gain
certificates), ``kernels`` (kernels by family:index reference), ``curves``
(capacity curve table), ``simulate`` (Monte Carlo runs and the exact oracle
comparison).  Every command returns one JSON or CSV document, which ``main``
writes to stdout or ``--out``.  ``prove`` exits 0 exactly when every
requested certificate holds; the others exit 0 once the document is written,
whatever it reports (an uncertified ``search`` winner, or a ``simulate
--oracle`` run with ``"equal": false``).  Bad input values and unreadable
files exit 1 with one compact JSON object on stderr; malformed flags are
left to argparse, which prints its usage and exits 2.  Flags are never
abbreviated: a prefix such as ``--r`` for ``--reproducible`` is malformed.

Rationals on the command line are parsed exactly: ``1/2`` and ``0.5`` are
the same value.  A JSON config file can hold defaults for any flag.  Each
value is parsed as if typed as ``--flag=value`` by the command that runs,
before its typed flags, so those win: a JSON array is its items joined by
commas, ``true`` sets a switch, ``false`` and ``null`` leave the flag unset,
and a value for a flag the command lacks is ignored.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

from . import DEFAULT_GRID, MAX_GAIN_T, _check_grid, _exact

if TYPE_CHECKING:
    from .poly import Poly


class _BadRational(Exception):
    """A rational with a zero denominator or more digits than ``str`` prints.
    Not a ``ValueError``: argparse lets it through, and ``main`` reports it."""


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except ZeroDivisionError:
        raise _BadRational(f"{text!r} has a zero denominator") from None
    try:
        str(value)  # refused past sys.get_int_max_str_digits() digits, where there is a limit
    except ValueError:
        raise _BadRational(f"{text!r} has a numerator or denominator of more than "
                           f"{sys.get_int_max_str_digits()} digits") from None
    return value


def _comma_list(convert):
    """Type converter of a comma-list flag: split on commas, drop empty parts
    and convert each.  A config file's JSON array arrives joined by commas."""

    def parse(text: str) -> list:
        return [convert(part) for part in text.split(",") if part]

    parse.__name__ = f"_{convert.__name__.lstrip('_')}_list"  # named in usage errors
    return parse


def _decimal(value: Fraction | float) -> str:
    return f"{float(value):.12g}"


def _emit(payload, args) -> None:
    """Write a command's document: a list of rows as CSV, a dict as JSON."""
    if isinstance(payload, list):
        import csv  # only CSV documents load it

        buf = io.StringIO()
        csv.writer(buf).writerows(payload)
        text = buf.getvalue()
    else:
        if not args.reproducible:
            payload = {**payload, "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S")}
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid(args) -> tuple[Fraction, ...]:
    if args.grid is None:
        return DEFAULT_GRID
    if not args.grid:
        raise ValueError("--grid lists no points")
    _check_grid(args.grid)
    return tuple(args.grid)


def _levels(r: int) -> int:
    """Level count t of a repetition count r = 2**t."""
    if r < 1 or r & (r - 1):
        raise ValueError(f"repetition count {r} is not a power of two")
    return r.bit_length() - 1


def _eval_table(polys: dict[str, Poly], grid) -> list[dict]:
    table = []
    for g in grid:
        row = {"eps": _exact(g)}
        for name, p in polys.items():
            v = p.evaluate(g)
            row[name] = _exact(v)
            row[name + "_decimal"] = _decimal(v)
        table.append(row)
    return table


# -- subcommands -------------------------------------------------------------
# Each command imports the modules it runs, so a run loads only those.

def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name) is None:
            raise ValueError(f"--{name.replace('_', '-')} is required")


def cmd_analyze(args) -> tuple[dict | list, int]:
    from .effective_channels import assignment_erasures
    from .patterns import PatternAssignment, family_by_name

    _require(args, "family", "assign")
    family = family_by_name(args.family)
    assignment = PatternAssignment(args.assign)
    channels = assignment_erasures(assignment, family)
    polys = {f"subword_{k + 1}": z for k, z in enumerate(channels.per_subword)}
    polys["capacity"] = channels.capacity_poly
    table = _eval_table(polys, _grid(args))
    if args.format == "csv":
        header = list(table[0])
        return [header] + [[row[c] for c in header] for row in table], 0
    return {
        "command": "analyze",
        "family": family.kind,
        "assignment": list(assignment.indices),
        "channels": channels.to_json_dict(),
        "evaluation": table,
    }, 0


def cmd_search(args) -> tuple[dict | list, int]:
    from .patterns import family_by_name
    from .search import best_assignment

    _require(args, "family")
    family = family_by_name(args.family)
    report = best_assignment(family, grid=_grid(args), certify=not args.no_certify)
    if args.format == "csv":
        rows = [["assignment"] + [f"eps={g}" for g in report.grid]]
        cells = report._cells(lambda n, d: _decimal(n / d))  # n / d rounds as float(Fraction) does
        rows += [[a.label(), *caps] for (a, _), caps in zip(report.ranking, cells)]
        return rows, 0
    return {"command": "search", **report.to_json_dict()}, 0


def cmd_prove(args) -> tuple[dict | list, int]:
    from .poly import EPS, Poly
    from .proofcheck import certify_difference, certify_gain, check_gain_level, check_sample

    if args.t == []:
        raise ValueError("--t lists no level counts")
    if args.custom == []:
        raise ValueError("--custom lists no coefficients")
    grid = _grid(args)
    if args.custom is None and not args.t:
        raise ValueError("nothing to prove: pass --t and/or --custom")
    for k, t in enumerate(args.t or []):
        check_gain_level(t)
        if t in args.t[:k]:
            raise ValueError(f"level count {t} repeated")
    check_sample(args.sample)
    certificates = []
    all_certified = True
    if args.custom is not None:
        cert = certify_difference(Poly(args.custom), sample=args.sample)
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
        return rows, 0 if all_certified else 1
    return {
        "command": "prove",
        "all_certified": all_certified,
        "certificates": certificates,
    }, 0 if all_certified else 1


def cmd_kernels(args) -> tuple[dict | list, int]:
    from .patterns import kernel_ref

    _require(args, "refs")
    if not args.refs:
        raise ValueError("--refs lists no kernels")
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
        return rows, 0
    return {"command": "kernels", "kernels": entries}, 0


def _capacity(groups, g: Fraction) -> Fraction:
    """Design capacity at eps = g of an assignment given as its kernel
    groups, exactly: (r D - sum(n)) / (r**2 D), from the design erasures'
    numerators n over one denominator D (``patterns.design_erasures``), r the
    block count.  No polynomial is built."""
    from .patterns import design_erasures

    r = sum(mult for _, mult in groups)
    nums, den = design_erasures(groups, g)
    return Fraction(r * den - sum(nums), r * r * den)


def cmd_curves(args) -> tuple[dict | list, int]:
    from .patterns import PatternAssignment, _kernel_groups, irregular_family_r4, regular_family

    grid = _grid(args)
    r_values = [2, 4, 8] if args.r is None else args.r
    if not r_values:
        raise ValueError("--r lists no repetition counts")
    # Each proposed cell walks the r numerators at its point, on ints of up
    # to 3**t log2(q) bits: on the default grid r=128 takes 0.06 s and
    # r=256 0.8 s of arithmetic (Python 3.11, one Xeon vCPU).
    for k, r in enumerate(r_values):
        t = _levels(r)
        if t == 0:
            raise ValueError("repetition count 1 has no polarized block: need r >= 2")
        if t > MAX_GAIN_T:
            raise ValueError(f"repetition count {r} exceeds the bound {1 << MAX_GAIN_T} = 2**MAX_GAIN_T")
        if r in r_values[:k]:
            raise ValueError(f"repetition count {r} repeated")
    # proposed_r{r} is reg{r}'s {0, r-1, ..., r-1} and irregular_r4 irr4's
    # {2, 5, 7, 7}, grouped once: hashing deep kernel trees per point costs ms.
    proposed = {
        r: _kernel_groups(PatternAssignment([0] + [r - 1] * (r - 1)), regular_family(_levels(r)))
        for r in r_values
    }
    irregular = _kernel_groups(PatternAssignment([2, 5, 7, 7]), irregular_family_r4())
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
            row.append(_decimal(_capacity(proposed[r], g)))
            if r == 4:
                row.append(_decimal(_capacity(irregular, g)))
        rows.append(row)
    if args.format == "csv":
        return rows, 0
    return {"command": "curves", "columns": header, "rows": rows[1:]}, 0


def _simulate_family(args):
    from .patterns import family_by_name, regular_family

    if args.family and args.r is not None:
        raise ValueError("pass --family or --r, not both")
    if args.family:
        return family_by_name(args.family)
    if args.r is None:
        raise ValueError("pass --family or --r")
    return regular_family(_levels(args.r))


def cmd_simulate(args) -> tuple[dict | list, int]:
    from . import codec
    from .patterns import PatternAssignment, _kernel_groups, design_erasures

    _require(args, "m", "assign")
    # Refuse what the run would ignore, before any design work.
    monte_carlo_only = {"--eps": args.eps, "--design-eps": args.design_eps, "--k": args.k,
                        "--trials": args.trials, "--seed": args.seed, "--exact": args.exact or None}
    if args.oracle:
        unused = [flag for flag, value in monte_carlo_only.items() if value is not None]
        unused += ["--format csv"] if args.format == "csv" else []
        if unused:
            raise ValueError(f"simulate --oracle ignores {', '.join(unused)}")
    elif args.exact and args.format == "csv":
        raise ValueError("simulate --format csv ignores --exact: CSV prints decimals")
    family = _simulate_family(args)
    t = family.size.bit_length() - 1
    assignment = PatternAssignment(args.assign)
    # design_code's and oracle_spec's own check, made before 1 << m below.
    codec._check_shape(args.m, t, assignment, family)
    if args.oracle:
        comparison = codec.compare_oracle_with_analysis(family, assignment, args.m, t)
        return {"command": "simulate-oracle", **comparison.to_json_dict()}, 0
    m = args.m
    k = args.k if args.k is not None else (1 << m) // 2
    eps = args.eps if args.eps is not None else Fraction(1, 2)
    trials = args.trials if args.trials is not None else 10_000
    seed = args.seed or 0
    # Check the run's own inputs before the design, which can take seconds;
    # --eps also names the design point by default, so it is checked as itself.
    codec.erasure_probability(eps)
    if trials < 1:
        raise ValueError(f"--trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")
    design_eps = args.design_eps if args.design_eps is not None else eps
    spec = codec.design_code(m, t, assignment, design_eps, k, family)
    report = codec.monte_carlo(spec, eps, trials, seed=seed)
    if spec.design_eps == eps and not args.exact:
        floats = spec.design_floats
    else:  # the erasures at --eps, walked again only where the design's floats do not serve
        nums, den = design_erasures(_kernel_groups(assignment, family), eps)
        values = [Fraction(n, den) for n in nums]
        if args.exact:
            design = codec.synthetic_erasure_ratios(values, m - t)
        else:
            floats = codec.design_ranking(values, m - t, 0)[0]
    if args.format == "csv":
        rows = [["bit", "empirical_rate", "design_erasure", "frozen"]]
        frozen = set(spec.frozen)
        for i, rate in enumerate(report.per_bit_rates):
            rows.append([i, _decimal(rate), _decimal(floats[i]), int(i in frozen)])
        return rows, 0
    return {
        "command": "simulate",
        **report.to_json_dict(),
        "design_erasures": (
            [_exact(n, d) for n, d in design] if args.exact else [_decimal(x) for x in floats]
        ),
    }, 0


# -- wiring -------------------------------------------------------------------

def _add_common(sub: argparse.ArgumentParser, grid: bool = False) -> None:
    if grid:
        sub.add_argument("--grid", type=_comma_list(_fraction), default=None,
                         help="comma-separated erasure grid "
                              f"(default {DEFAULT_GRID[0]}..{DEFAULT_GRID[-1]})")
    sub.add_argument("--out", default=None, help="write output to this path")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument("--reproducible", action="store_true",
                     help="omit the timestamp so reruns are byte-identical")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polarrep",
        description="Polar coded repetition toolkit for erasure channels.",
        allow_abbrev=False,
    )
    parser.add_argument("--config", default=None,
                        help="JSON file with default flag values")
    commands = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(commands.add_parser, allow_abbrev=False)

    p = command("analyze", help="effective channels of one assignment")
    p.add_argument("--family", default=None)
    p.add_argument("--assign", type=_comma_list(int), default=None)
    _add_common(p, grid=True)
    p.set_defaults(func=cmd_analyze)

    p = command("search", help="exhaustive assignment search")
    p.add_argument("--family", default=None)
    p.add_argument("--no-certify", action="store_true",
                   help="skip the dominance certificate (Budan's 0-1 test, "
                        "then a Sturm count only where sign variations remain)")
    _add_common(p, grid=True)
    p.set_defaults(func=cmd_search)

    p = command("prove", help="capacity-gain certificates")
    p.add_argument("--t", type=_comma_list(int), default=None,
                   help=f"comma-separated level counts, 1..{MAX_GAIN_T} (r = 2**t)")
    p.add_argument("--custom", type=_comma_list(_fraction), default=None,
                   help="certify a custom difference polynomial: num/den coefficients, lowest degree first")
    p.add_argument("--sample", type=_fraction, default=Fraction(1, 2))
    _add_common(p, grid=True)
    p.set_defaults(func=cmd_prove)

    p = command("kernels", help="print kernels by family:index reference")
    p.add_argument("--refs", type=_comma_list(str), default=None,
                   help="comma list such as reg4:0,irr4:7")
    _add_common(p)
    p.set_defaults(func=cmd_kernels)

    p = command("curves", help="capacity curve table")
    p.add_argument("--r", type=_comma_list(int), default=None)
    _add_common(p, grid=True)
    p.set_defaults(func=cmd_curves)

    p = command("simulate", help="Monte Carlo simulation / exact oracle")
    p.add_argument("--family", default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--assign", type=_comma_list(int), default=None)
    p.add_argument("--eps", type=_fraction, default=None, help="default 1/2")
    p.add_argument("--design-eps", type=_fraction, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--trials", type=int, default=None, help="default 10000")
    p.add_argument("--seed", type=int, default=None, help="default 0")
    p.add_argument("--oracle", action="store_true",
                   help="run the exact enumeration oracle comparison instead")
    p.add_argument("--exact", action="store_true",
                   help="print JSON design erasures as exact ratios, not decimals")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)
    return parser


def _config_flags(path: str) -> list[str]:
    """The config file's values as typed flag text, ``--flag=value``."""
    with open(path) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"config file {path} does not hold a JSON object")
    flags = []
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            flags.append(flag)
        elif value is not False and value is not None:
            items = value if isinstance(value, list) else [value]
            flags.append(flag + "=" + ",".join(v if isinstance(v, str) else json.dumps(v)
                                               for v in items))
    return flags


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # Parse again with the config's flags just after the command's
            # name, so the typed flags that follow win.  The flags the
            # command lacks come back unparsed from a parse of their own.
            flags = _config_flags(args.config)
            _, foreign = parser.parse_known_args([args.command, *flags])
            at = 0  # the command's index: only --config takes a value before it
            while argv[at] != args.command:
                at += 2 if argv[at] == "--config" else 1
            argv[at + 1 : at + 1] = [f for f in flags if f not in foreign]
            args = parser.parse_args(argv)
        payload, status = args.func(args)
        _emit(payload, args)
        return status
    except (ValueError, OSError, _BadRational) as exc:
        sys.stderr.write(json.dumps({"status": "error", "reason": str(exc)}) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
