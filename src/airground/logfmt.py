"""Fixed-width numeric formatting shared by every log writer and reader.

All numbers in trajectory logs and message traces go through fmt9 (9
significant digits), or fmt9_round_trip for an array at once, so repeated
runs diff byte-for-byte, and every consumer that recomputes physics from a
log must first round-trip values through this format to reproduce the
producer's arithmetic exactly.  All of them format with
float.__format__(v, ".9g"), "{:.9g}".format's strings at less cost per
value; fmt9_floats maps it over many floats without a call per value.  A
log block repeats most of its numbers, so fmt9_round_trip formats and
parses each distinct value once.
"""

from itertools import repeat

import numpy as np


def fmt9(x: float) -> str:
    return float.__format__(float(x), ".9g")


def fmt9_floats(values):
    """fmt9 of each Python float in an iterable, as a lazy map."""
    return map(float.__format__, values, repeat(".9g"))


def fmt9_round_trip(values) -> tuple[np.ndarray, np.ndarray]:
    """fmt9 of every float in an array, as an object array of strings, and
    the floats those strings parse back to, both in the array's shape.

    Each distinct bit pattern is formatted and parsed once, so -0.0 and
    +0.0, and NaNs with different payloads, stay apart as fmt9 keeps them."""
    values = np.asarray(values, dtype=float, order="C")
    keys, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = list(fmt9_floats(keys.view(float).tolist()))
    parsed = np.fromiter(map(float, text), float, len(text))
    inverse = inverse.reshape(values.shape)
    return np.array(text, dtype=object)[inverse], parsed[inverse]
