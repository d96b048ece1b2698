"""Small statistics and naming helpers shared by the benchmark scripts."""

from __future__ import annotations

import re
import statistics

#: Metric and workload names: letters, digits, ``_``, ``.`` and ``-``,
#: starting with a letter or digit, at most 64 characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def describe(values) -> dict:
    """Median and quartiles of ``values``, with the sample count.

    Quartiles follow ``statistics.quantiles(values, n=4)`` (exclusive
    method); with fewer than two samples they collapse to the value.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def describe_sum(parts) -> dict:
    """A total made of independently sampled parts, as ``describe`` gives it.

    ``parts`` are lists of samples of each part; the median and quartiles
    are the sums of the parts' own, and the count is the smallest part's.
    """
    stats = [describe(samples) for samples in parts]
    if not stats:
        raise ValueError("no parts")
    return {
        "median": sum(s["median"] for s in stats),
        "q1": sum(s["q1"] for s in stats),
        "q3": sum(s["q3"] for s in stats),
        "n": min(s["n"] for s in stats),
    }


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    stats = describe(values)
    if stats["median"] == 0:
        return 0.0
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def failed_fraction(attempted: int, failed: int) -> float:
    """Failed (or refused, or late) points over points attempted."""
    if attempted <= 0:
        raise ValueError("no points attempted")
    return failed / attempted
