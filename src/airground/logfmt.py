"""Fixed-width numeric formatting shared by every log writer and reader.

All numbers in trajectory logs and message traces go through fmt9 (9
significant digits), or fmt9_all for many at once, so repeated runs diff
byte-for-byte, and every consumer that recomputes physics from a log must
first round-trip values through this format to reproduce the producer's
arithmetic exactly.
"""


def fmt9(x: float) -> str:
    return f"{float(x):.9g}"


def fmt9_all(values) -> list[str]:
    """fmt9 of each float in an iterable, in one pass."""
    return list(map("{:.9g}".format, values))
