"""The benchmark's workloads: which CLI runs make one pass, and how each
run's output is checked.

A pass is a fixed list of ``Step``s.  Each step is one ``python -m
polarrep.cli`` invocation (always with ``--reproducible``) plus a check that
returns ``None`` when the output is right and a reason string otherwise.
The checks hold for every workload seed, so a failing check means a wrong
answer, never an unlucky draw.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

#: Monte Carlo trials of the construction-bound m=12 run.  Its peak memory is
#: min(trials, 8192) x 16,384 float64 draws, so this stays small.
M12_TRIALS = 200
#: Monte Carlo trials of the sampling-bound m=10 run: two full 8,192-trial
#: chunks of 4,096 symbols (about 270 MB of float64 draws at the peak).
M10_TRIALS = 16_384

#: The no-work run whose wall time is ``setup_s``.
SETUP_ARGV = ("kernels", "--refs", "reg2:0")

#: Candidates of one ``search`` pass: irr4 (330) plus reg4 (35).
SEARCH_CANDIDATES = 330 + 35

Check = Callable[[str], "str | None"]


@dataclass(frozen=True)
class Step:
    label: str
    argv: tuple[str, ...]
    check: Check


def check_setup(text: str) -> str | None:
    doc = json.loads(text)
    refs = [k["ref"] for k in doc.get("kernels", [])]
    return None if refs == ["reg2:0"] else f"kernels listed {refs}"


def _check_search(best: list[int], candidates: int, certified: bool) -> Check:
    def check(text: str) -> str | None:
        doc = json.loads(text)
        got = (doc["best"], doc["candidates_evaluated"], doc["dominance_certified"])
        want = (best, candidates, certified)
        return None if got == want else f"(best, candidates, certified) = {got}, expected {want}"

    return check


def check_prove(text: str) -> str | None:
    doc = json.loads(text)
    if doc.get("all_certified") is not True:
        return "all_certified is not true"
    for cert in doc["certificates"]:
        if cert["roots_in_open_unit"] != 0:
            return f"t={cert.get('t')}: {cert['roots_in_open_unit']} roots in (0, 1)"
        if [Fraction(v) for v in cert["endpoint_values"]] != [0, 0]:
            return f"t={cert.get('t')}: endpoint values {cert['endpoint_values']}"
    return None


def check_curves(text: str) -> str | None:
    """Proposed capacity >= plain repetition at every row and every r.

    Not strict: ``curves`` prints 12 significant digits, and at r >= 16 the
    two columns print equal for small eps.  The strict gain is carried by the
    ``prove`` certificates.
    """
    doc = json.loads(text)
    cols = doc["columns"]
    pairs = [
        (cols.index(name), cols.index(name.replace("repetition", "proposed")))
        for name in cols
        if name.startswith("repetition_r")
    ]
    if not pairs:
        return "no repetition columns"
    for row in doc["rows"]:
        for rep, prop in pairs:
            if float(row[prop]) < float(row[rep]):
                return f"eps={row[0]}: {cols[prop]} {row[prop]} < {cols[rep]} {row[rep]}"
    return None


def _check_simulate(m: int, trials: int, seed: int) -> Check:
    def check(text: str) -> str | None:
        doc = json.loads(text)
        spec = doc["spec"]
        n = 1 << m
        if (spec["m"], doc["trials"], doc["seed"]) != (m, trials, seed):
            return f"(m, trials, seed) = {(spec['m'], doc['trials'], doc['seed'])}"
        frozen = set(spec["frozen"])
        if len(frozen) != n - spec["k"]:
            return f"{len(frozen)} frozen bits, expected {n - spec['k']}"
        rates = doc["per_bit_erasure_rates"]
        bler = doc["block_error_rate"]
        if len(rates) != n or not all(0 <= v <= 1 for v in rates + [bler]):
            return "a rate lies outside [0, 1]"
        info = [v for i, v in enumerate(rates) if i not in frozen]
        # A block fails when any info bit does: max <= BLER <= union bound.
        if info and not max(info) <= bler <= sum(info) * (1 + 1e-12):
            return f"block error rate {bler} outside [max, sum] of info-bit rates"
        return None

    return check


def check_oracle_irr4(text: str) -> str | None:
    """Every oracle polynomial is 0 at eps=0 and 1 at eps=1."""
    for i, poly in enumerate(json.loads(text)["oracle"]):
        coeffs = [Fraction(c) for c in poly]
        at0 = coeffs[0] if coeffs else 0
        if (at0, sum(coeffs)) != (0, 1):
            return f"oracle bit {i}: value {at0} at eps=0 and {sum(coeffs)} at eps=1"
    return None


def check_oracle_reg2(text: str) -> str | None:
    doc = json.loads(text)
    return None if doc.get("equal") is True else "reg2 oracle differs from the analysis"


def _simulate(m: int, trials: int, seed: int) -> Step:
    argv = ("simulate", "--family", "irr4", "--m", str(m), "--assign", "2,5,7,7",
            "--eps", "1/2", "--trials", str(trials), "--seed", str(seed))
    return Step(f"simulate m={m}", argv, _check_simulate(m, trials, seed))


def passes(workload: str, seed: int) -> list[Step]:
    """The CLI runs of one pass, in order.  Only ``simulate`` uses the seed."""
    if workload == "search":
        return [
            Step("search irr4", ("search", "--family", "irr4"),
                 _check_search([2, 5, 7, 7], 330, True)),
            Step("search reg4", ("search", "--family", "reg4"),
                 _check_search([0, 3, 3, 3], 35, False)),
        ]
    if workload == "certify":
        return [
            Step("prove", ("prove", "--t", "1,2,3,4"), check_prove),
            Step("curves", ("curves", "--r", "2,4,8,16,32"), check_curves),
        ]
    if workload == "simulate":
        return [
            _simulate(12, M12_TRIALS, seed),
            _simulate(10, M10_TRIALS, seed),
            Step("oracle irr4", ("simulate", "--oracle", "--family", "irr4", "--m", "2",
                                 "--assign", "2,5,7,7"), check_oracle_irr4),
            Step("oracle reg2", ("simulate", "--oracle", "--r", "2", "--m", "3",
                                 "--assign", "0,1"), check_oracle_reg2),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("search", "certify", "simulate")


def named_metrics(workload: str, first_s: float, second_s: float) -> dict[str, tuple[float, str]]:
    """The workload's own end-to-end figures, derived from its first two runs."""
    if workload == "search":
        return {"candidates_per_s": (SEARCH_CANDIDATES / (first_s + second_s), "1/s")}
    if workload == "certify":
        return {"prove_s": (first_s, "s"), "curves_s": (second_s, "s")}
    return {"construct_s": (first_s, "s"), "mc_trials_per_s": (M10_TRIALS / second_s, "1/s")}
