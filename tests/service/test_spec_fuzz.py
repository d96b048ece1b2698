"""Hypothesis fuzz of the ``POST /sweeps`` spec parser.

``json.loads`` hands ``parse_spec`` any JSON value, including ``NaN``,
``Infinity`` and integers far past 64 bits.  Whatever arrives in any known
field, the parser must either return a spec or raise ``ValueError`` (the
HTTP layer's 400); any other exception would reach the client as a
dropped connection and a daemon traceback.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import parse_spec

SPEC_FIELDS = (
    "workloads", "datasets", "setups", "max_refs", "scale_shift",
    "fast_path", "timeout", "retries", "backoff", "run_id", "deadline",
)
POINT_FIELDS = (
    "workload", "dataset", "setup", "max_refs", "scale_shift", "seed",
    "multi_property", "llc_multiplier", "l2_config", "rob_entries",
    "mrb_entries",
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63, max_value=10**400),
    st.integers(min_value=-(10**400), max_value=-(2**63)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308, -0.0]),
    st.text(max_size=8),
    st.sampled_from(["PR", "kron", "droplet", "none", "auto", "off", "1e400"]),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)


def parses_or_rejects(spec) -> None:
    try:
        parse_spec(spec)
    except ValueError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(SPEC_FIELDS), json_values, max_size=6))
def test_spec_fields_parse_or_raise_value_error(fields):
    parses_or_rejects(fields)


@settings(max_examples=300, deadline=None)
@given(
    st.dictionaries(st.sampled_from(POINT_FIELDS), json_values, max_size=6),
    st.dictionaries(
        st.sampled_from(("max_refs", "scale_shift", "fast_path")),
        json_values,
        max_size=2,
    ),
)
def test_point_entry_fields_parse_or_raise_value_error(entry, spec_level):
    # A valid workload/dataset pair by default, so the fuzzed knobs are
    # reached rather than short-circuited by the name checks.
    base = {"workload": "PR", "dataset": "kron"}
    parses_or_rejects(dict(spec_level, points=[dict(base, **entry)]))
    parses_or_rejects(dict(spec_level, points=[entry]))


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_points_field_parses_or_raises_value_error(points):
    parses_or_rejects({"points": points})
