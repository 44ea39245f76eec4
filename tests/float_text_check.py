"""Differential check of serialize's float text against fmt_float.

    PYTHONPATH=src python tests/float_text_check.py

runs 10^7 values, in chunks of 2^18, through csv_text (a float64 column,
laid out by the numpy kernel) and json_text (a list of floats), and compares
every cell with fmt_float ("%.17g"). It prints the count, the mismatches and
the time, and exits 1 on any mismatch. tests/test_serialize.py runs the same
comparison over 10^6 values. The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from pga_lab.serialize import csv_text, fmt_float, json_text

CHUNK = 1 << 18


def _neighbours(x: np.ndarray, ulps: int) -> np.ndarray:
    """x and the doubles up to ulps steps either side of each (by their
    bits), keeping only finite ones of x's sign."""
    bits = x.view(np.int64)[:, None] + np.arange(-ulps, ulps + 1)
    out = bits.ravel().view(np.float64)
    return out[np.isfinite(out) & (np.signbit(out) == np.repeat(np.signbit(x), 2 * ulps + 1))]


def ties(rng: np.random.Generator, count: int) -> np.ndarray:
    """Up to count exact ties of the 17-digit rounding: x = j 2^(k - 17), j
    odd, in [10^k, 10^(k + 1)) for k in [-4, 14], and in [10^15, 2^51) for
    k = 15 (j < 2^53, so x is a double). D = x 10^(16 - k) = j 5^(16 - k) / 2
    has a fractional part of exactly 1/2."""
    k = rng.integers(-4, 16, count)
    low, high = 10.0**k, np.where(k < 15, 10.0 ** (k + 1), 2.0**51)
    j = np.floor(rng.uniform(low, high) * 2.0 ** (16 - k)) * 2 + 1
    x = np.ldexp(j, k - 17)
    return x[(x >= low) & (x < high)]


def cases(count: int, seed: int) -> np.ndarray:
    """At least count doubles, in random order, that cover each path of the
    float text:

    * random 64-bit patterns, so every binade (and every NaN payload kind);
    * random doubles in every binade of fixed notation, 1e-5 to 1e17;
    * short decimals m 10^e, whose text drops trailing zeros;
    * the 4-ulp neighbours of near-ties (D + 1/2) 10^(k - 16) of the 17-digit
      rounding, and of 10^k for k in [-6, 18];
    * exact ties of the 17-digit rounding;
    * whole numbers around 1e15, 1e16 and 1e17;
    * +-0, subnormals, NaN with several payloads and both signs, and +-inf.
    """
    rng = np.random.default_rng(seed)
    part = -(-8 * count // 47)  # the groups below take 47/8 parts
    bits = rng.integers(0, 2**64, part, dtype=np.uint64, endpoint=False).view(np.float64)
    fixed = np.ldexp(rng.uniform(1.0, 2.0, 2 * part), rng.integers(-17, 57, 2 * part))
    short = (rng.integers(1, 10**6, part) * 10.0 ** rng.integers(0, 12, part)
             / 10.0 ** rng.integers(0, 14, part))
    k = rng.integers(-6, 19, part // 9)
    near = (rng.integers(10**16, 10**17, part // 9) + 0.5) * 10.0 ** (k - 16)
    powers = 10.0 ** np.arange(-6, 19)
    whole = np.concatenate([e + rng.integers(-10**6, 10**6, part // 6) * 1.0
                            for e in (1e15, 1e16, 1e17)])
    subnormal = rng.integers(0, 2**52, part // 4, dtype=np.uint64).view(np.float64)
    specials = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001,
                         0x7FFFFFFFFFFFFFFF, 0x7FF4000000000000, 0x7FF0000000000000,
                         0x0000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF],
                        dtype=np.uint64).view(np.float64)
    values = np.concatenate([bits, fixed, short, _neighbours(near, 4), _neighbours(powers, 4),
                             ties(rng, part // 8), whole, subnormal, specials])
    values = np.where(rng.random(len(values)) < 0.5, values, -values)  # -nan flips the sign bit
    values = np.concatenate([values, specials, -specials])
    while len(values) < count:
        values = np.concatenate([values, rng.permutation(values)[:count - len(values)]])
    return rng.permutation(values)


def mismatches(values: np.ndarray) -> list[tuple[float, str, str]]:
    """(value, expected, got) for each value whose csv_text or json_text cell
    is not fmt_float of it."""
    expected = list(map(fmt_float, values.tolist()))
    csv_cells = csv_text(["x"], [values]).split("\n")[1:-1]
    json_cells = json_text(values.tolist())[4:-3].split(",\n  ")
    return [(v, e, c if c != e else j)
            for v, e, c, j in zip(values.tolist(), expected, csv_cells, json_cells)
            if c != e or j != e] + ([] if len(csv_cells) == len(json_cells) == len(values)
                                    else [(float("nan"), "cells", "lost")])


def main() -> int:
    import numpy  # noqa: F401  (the kernel serves only a process that holds numpy)

    count, seed, bad, start = 0, 0, [], time.perf_counter()
    while count < 10**7:
        values = cases(CHUNK, seed)
        bad += mismatches(values)
        count, seed = count + len(values), seed + 1
    seconds = time.perf_counter() - start
    print(f"{count} values, {len(bad)} mismatches, {seconds:.1f} s")
    for v, e, g in bad[:20]:
        print(f"  {v!r}: expected {e}, got {g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
