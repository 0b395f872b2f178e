"""Fuzzed instance documents either load or raise FormatError, nothing else.

Documents are built from the schema's own fields with hostile values mixed
in: wrong types, negative and huge counts, malformed rationals, exponent
strings whose value would take seconds to build, unknown kinds and
families.  Valuation lists hold at most two entries, so a document that
does load is small and its construction audits stay fast.  Shapes that
would load with another meaning (a string of digits read as a list, a
float bundle item rounded down) are rejected too.
"""

import json
import re
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from relaxround import FormatError, load_instance_document
from relaxround import io as rio

FAMILIES = ("single-item", "case-b", "single-minded-ca", "gap-toy",
            "no-money-lottery", "single-peaked")
KINDS = ("additive", "single-minded", "table", "single-peaked")

junk = st.one_of(st.none(), st.booleans(), st.floats(allow_nan=False),
                 st.text(max_size=6), st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=3), st.integers(),
                                 max_size=2))


def mostly(good, bad, percent_bad=15):
    """good, except for about percent_bad percent of draws."""
    return st.integers(0, 99).flatmap(
        lambda r: bad if r >= 100 - percent_bad else good)


rationals = mostly(
    st.one_of(st.integers(0, 20),
              st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 20),
                        st.integers(1, 9))),
    mostly(st.sampled_from(["1e999999999", "-2E-999999999", "9" * 5000,
                            "1/0", "0.5", "1_000"]),
           st.one_of(st.sampled_from(["3/-4", "-1", " 7 ", "nan", "inf"]),
                     st.builds(lambda p, q: f"{p}/{q}", st.integers(-5, 20),
                               st.integers(-2, 9)),
                     junk), 50),
    20)
counts = st.one_of(st.integers(-2, 4),
                   st.sampled_from([10**6, 65, 10_001, True, "2", 1.5]),
                   junk)
# Hypothesis leans toward small integers, so these put 0 on the side of
# the well-formed document.
def usually(draw, percent):
    return draw(st.integers(0, 99)) < percent


def rarely(draw, percent):
    return draw(st.integers(0, 99)) >= 100 - percent


#: The valuation kind each family reads, and the field that kind needs.
KIND_OF = {"single-item": "additive", "case-b": "additive",
           "single-minded-ca": "single-minded", "gap-toy": "additive",
           "no-money-lottery": "additive", "single-peaked": "single-peaked"}
FIELDS = {"additive": ("values",), "single-minded": ("bundle", "value"),
          "table": ("entries",), "single-peaked": ("peak",)}


@st.composite
def valuations(draw, family, m):
    kind = (draw(st.one_of(st.sampled_from(KINDS), junk)) if rarely(draw, 20)
            else KIND_OF[family])
    obj = {"kind": kind}
    bundles = mostly(st.lists(st.integers(0, m - 1), min_size=1, max_size=m),
                     st.one_of(st.lists(st.one_of(st.integers(-1, 4), junk),
                                        max_size=3), junk))
    for key, values in (("values", mostly(
                            st.lists(rationals, min_size=m, max_size=m),
                            st.one_of(st.lists(rationals, max_size=3),
                                      junk))),
                        ("bundle", bundles),
                        ("value", rationals),
                        ("entries", st.one_of(st.lists(st.tuples(bundles,
                                                                 rationals),
                                                       max_size=2), junk)),
                        ("peak", rationals)):
        needed = isinstance(kind, str) and key in FIELDS.get(kind, ())
        if usually(draw, 90) if needed else rarely(draw, 20):
            obj[key] = draw(values)
    return obj


@st.composite
def documents(draw):
    """Mostly well-formed documents with a few fields spoiled.

    Valuations mostly have the family's kind and fields, n matches their
    number and the required fields are present most of the time, so most
    documents get as far as parsing their rationals and calling a family
    constructor.
    """
    family = draw(st.sampled_from(FAMILIES))
    m = draw(st.integers(1, 3) if rarely(draw, 10)
             else st.just(1) if KIND_OF[family] == "additive"
             and family != "gap-toy" else st.integers(1, 8 if family ==
                                                      "single-peaked" else 3))
    vals = draw(st.lists(mostly(valuations(family, m), junk, 10),
        min_size=0 if rarely(draw, 5) else 1, max_size=2))
    doc = {"family": family, "n": len(vals), "m": m, "valuations": vals}
    for key, values in (("family", junk), ("n", counts), ("m", counts),
                        ("valuations", junk)):
        if rarely(draw, 10):
            doc[key] = draw(values)
        if rarely(draw, 3):
            del doc[key]
    for key, values in (("segments", st.one_of(st.integers(-1, 40), counts)),
                        ("alpha", rationals), ("beta", rationals),
                        ("payment_rule", st.one_of(
                            st.sampled_from(rio.PAYMENT_RULES), junk))):
        if usually(draw, 50):
            doc[key] = draw(values)
    return draw(junk) if rarely(draw, 3) else doc


@settings(max_examples=250, deadline=2000, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_documents_load_or_raise_format_error(doc):
    # Every document must also survive the JSON round trip the CLI makes.
    doc = json.loads(json.dumps(doc))
    start = time.perf_counter()
    try:
        load_instance_document(doc)
    except FormatError:
        pass
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("field, valuation", [
    ("values", {"kind": "additive", "values": "7"}),
    ("bundle", {"kind": "single-minded", "bundle": [1.7], "value": "3"}),
    ("bundle", {"kind": "single-minded", "bundle": "1", "value": "3"}),
    ("bundle", {"kind": "single-minded", "bundle": [True], "value": "3"}),
    ("entries", {"kind": "table", "entries": "ab"}),
    ("entries[0]", {"kind": "table", "entries": [[[0.5], "1"]]}),
])
def test_loose_shapes_are_rejected(field, valuation):
    doc = {"family": "single-minded-ca", "n": 1, "m": 2,
           "valuations": [valuation]}
    with pytest.raises(FormatError, match=re.escape(f"valuations[0].{field}")):
        load_instance_document(doc)
