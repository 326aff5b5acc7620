"""Fixed-point arithmetic helpers for the A^3 attention pipeline.

A^3 operates on 1-byte fixed-point operands with wider intermediates through
the pipeline (paper Section III-C).  We reproduce that numerical regime:
int8 inputs, int32 dot products, a base-2 exponential approximated by a
small lookup table on the fractional part (the hardware-friendly trick the
A^3 family of accelerators uses), and Q1.15 weights.
"""

from __future__ import annotations

import numpy as np

#: Fractional LUT for 2^f, f in [0, 1): 32 entries, Q1.15.
EXP2_LUT_BITS = 5
EXP2_LUT = np.round(
    (2.0 ** (np.arange(1 << EXP2_LUT_BITS) / (1 << EXP2_LUT_BITS))) * (1 << 15)
).astype(np.int64)

WEIGHT_FRAC_BITS = 15


def quantize_int8(x: np.ndarray, scale: float) -> np.ndarray:
    """Symmetric int8 quantisation: round(x/scale) clipped to [-128, 127]."""
    q = np.round(x / scale)
    return np.clip(q, -128, 127).astype(np.int8)


def exp2_fixed(x_q: np.ndarray, frac_bits: int) -> np.ndarray:
    """2^x for fixed-point x (signed, ``frac_bits`` fractional bits).

    Splits x into integer and fractional parts; the fraction indexes the
    LUT, the integer becomes a shift.  Returns Q1.15 values; inputs are
    expected to be <= 0 (scores are normalised against the running maximum),
    so results are in (0, 1].
    """
    x_q = x_q.astype(np.int64)
    if frac_bits < EXP2_LUT_BITS:
        raise ValueError("need at least EXP2_LUT_BITS fractional bits")
    int_part = x_q >> frac_bits  # floor division (negative-safe)
    frac_part = x_q - (int_part << frac_bits)
    lut_idx = frac_part >> (frac_bits - EXP2_LUT_BITS)
    mant = EXP2_LUT[lut_idx]
    shift = -int_part  # int_part <= 0 for normalised scores
    out = np.where(shift >= 31, 0, mant >> np.minimum(shift, 31))
    return out.astype(np.int64)


def fixed_weights(scores: np.ndarray, scale_log2e_q: int, frac_bits: int) -> np.ndarray:
    """Softmax weights in Q1.15 from integer scores.

    ``scores`` are int32 dot products; they are normalised against the
    maximum (one global reduction), scaled by log2(e)*softmax_scale in fixed
    point, exponentiated with the LUT, and normalised by the accumulated sum
    (the second global reduction, with one fixed-point divide per key).
    """
    scores = scores.astype(np.int64)
    shifted = scores - scores.max()
    # Integer score x Q(frac_bits) temperature = Q(frac_bits) exponent.
    x_q = shifted * scale_log2e_q
    e_q = exp2_fixed(x_q, frac_bits)
    total = int(e_q.sum())
    if total == 0:
        raise ZeroDivisionError("all exponentials underflowed")
    w = (e_q << WEIGHT_FRAC_BITS) // total
    return w.astype(np.int64)
