"""Fixed-size probes of single modules, timed without tracing.

Set-up (building the probe polynomials, designing the code, encoding the
messages, drawing the erasure patterns) is never timed.  Each figure is the
median over several repetitions.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

from polarrep.codec import DecodeFailure, decode_operation_count, design_code, encode, erasure_flow, sc_decode
from polarrep.effective_channels import regular_block_erasures
from polarrep.patterns import PatternAssignment, family_by_name
from polarrep.poly import Poly

#: Codewords timed per codec probe, and extra decodes at a higher erasure
#: probability that exercise the decoder's failure path (about half fail).
CODEWORDS = 24
FAILURE_PATH_CODEWORDS = 8
TIMED_EPS, FAILURE_PATH_EPS = 0.5, 0.75


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e3


def _gain_sum(t: int) -> Poly:
    total = Poly.zero()
    for z in regular_block_erasures(0, t):
        total = total + z
    return total


def poly_probes() -> dict[str, float]:
    """``Poly`` multiply and evaluate at the degrees the proofs reach.

    The operands are the summed ``regular_block_erasures(0, t)`` for t = 4, 5
    and 6 (degrees 81, 243 and 729); building t = 6 takes seconds and is
    done once, outside timing.
    """
    p81, p243, p729 = _gain_sum(4), _gain_sum(5), _gain_sum(6)
    third = Fraction(1, 3)
    return {
        "poly.mul_deg81_ms": _median_ms(lambda: p81 * p81, 7),
        "poly.mul_deg243_ms": _median_ms(lambda: p243 * p243, 3),
        "poly.eval_deg729_ms": _median_ms(lambda: p729.evaluate(third), 7),
    }


def _decode(spec, received) -> tuple[list[int] | None, int | None]:
    """``sc_decode`` as (message, None) on success or (None, failing bit)."""
    try:
        return sc_decode(spec, received), None
    except DecodeFailure as exc:
        return None, exc.bit_index


def _decode_mismatch(spec, message, decoded, failed_at, flags) -> str | None:
    """Cross-check one decode against ``erasure_flow`` on its pattern.

    The decoder must stop at the first information bit the flow flags, and
    succeed with the sent message when the flow flags none.
    """
    first = next((i for i in spec.info_positions if flags[i]), None)
    if failed_at != first:
        return f"decoder stopped at bit {failed_at}, erasure_flow flags bit {first} first"
    if first is None and decoded != message:
        return "decode returned a different message"
    return None


def codec_probes(seed: int) -> tuple[dict[str, float], list[str | None]]:
    """``encode`` and ``sc_decode`` per codeword on the m=10 irr4 {2,5,7,7} code.

    Returns the metrics and, per decode, ``None`` or the reason it disagreed
    with ``erasure_flow``.
    """
    family = family_by_name("irr4")
    spec = design_code(10, 2, PatternAssignment([2, 5, 7, 7]), Fraction(1, 2), 512, family)
    rng = np.random.default_rng(seed)
    messages = [[int(b) for b in rng.integers(0, 2, spec.k)]
                for _ in range(CODEWORDS + FAILURE_PATH_CODEWORDS)]
    probs = [TIMED_EPS] * CODEWORDS + [FAILURE_PATH_EPS] * FAILURE_PATH_CODEWORDS
    erased = rng.random((len(messages), spec.total_len)) < np.array(probs)[:, None]
    flags = erasure_flow(spec, erased)

    encode_s, decode_s, reasons, received = [], [], [], []
    for msg, mask in zip(messages, erased):
        start = perf_counter()
        blocks = encode(spec, msg)
        encode_s.append(perf_counter() - start)
        symbols = [s for block in blocks for s in block]
        received.append([None if e else s for s, e in zip(symbols, mask)])
    for i, (msg, word) in enumerate(zip(messages, received)):
        start = perf_counter()
        decoded, failed_at = _decode(spec, word)
        if i < CODEWORDS:
            decode_s.append(perf_counter() - start)
        reasons.append(_decode_mismatch(spec, msg, decoded, failed_at, flags[i]))
    metrics = {
        "codec.encode_ms": statistics.median(encode_s) * 1e3,
        "codec.sc_decode_ms": statistics.median(decode_s) * 1e3,
        "codec.decode_ops_per_codeword": decode_operation_count(spec),
    }
    return metrics, reasons
