"""Property test of the channel-file boundary.

Channel JSON documents are drawn with bounded sizes: valid tables (density
matrices or classical rows) with up to three mutations each, such as wrong
types, booleans, NaN and infinities, ragged rows, dropped or misnamed
entries, and oversized declared alphabets or output dimensions.  Whatever
the document, `qmac validate` and `qmac region` must end with exit 0, 1 or 2,
print at most one stderr line (an `error:` line), emit no warning and never
raise.  The draws are derandomized, so every run checks the same documents.
"""

import contextlib
import io
import itertools
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qmac.cli import main

JUNK = st.one_of(
    st.sampled_from([True, False, None, "x", "1", [], {}, [[1]], {"a": 1},
                     float("nan"), float("inf"), -1, 0, 10 ** 30]),
    st.integers(-3, 5000),
    st.floats(allow_nan=True, allow_infinity=True),
)
OVERSIZED = st.sampled_from([4097, 3000, 10 ** 9, 10 ** 30])
JUNK_KEYS = st.sampled_from(["", "x", "0,x", "0,0,0,0", "-1", "1.5", " 0"])


def letter_key(letters) -> str:
    return ",".join(str(x) for x in letters)


def density_pairs(rng: np.random.Generator, d: int) -> list:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return [[[float(z.real), float(z.imag)] for z in row] for row in rho]


def mutate(draw, doc: dict) -> None:
    table = "states" if "states" in doc else "classical"
    entries = doc[table]
    kind = draw(st.sampled_from(["field", "alphabet", "oversized", "entry", "leaf",
                                 "ragged", "drop", "key"]))
    if kind == "field":
        doc[draw(st.sampled_from(["senders", "output_dim", table, "extra"]))] = draw(JUNK)
    elif kind in ("alphabet", "oversized"):
        senders = doc["senders"]
        if isinstance(senders, list) and senders and isinstance(senders[0], dict):
            i = draw(st.integers(0, len(senders) - 1))
            senders[i]["alphabet"] = draw(JUNK if kind == "alphabet" else OVERSIZED)
        else:
            doc["output_dim"] = draw(OVERSIZED)
    elif not isinstance(entries, dict) or not entries:
        doc[table] = draw(JUNK)
    else:
        key = draw(st.sampled_from(sorted(entries)))
        value = entries[key]
        if kind == "entry":
            entries[key] = draw(JUNK)
        elif kind == "drop":
            del entries[key]
        elif kind == "key":
            entries[draw(JUNK_KEYS)] = entries.pop(key)
        elif isinstance(value, list) and value:
            # the first row of a matrix, or the row itself for classical rows
            row = value[0] if isinstance(value[0], list) else value
            if row and kind == "ragged":
                row.pop()
            elif row:
                row[draw(st.integers(0, len(row) - 1))] = draw(JUNK)


@st.composite
def channel_docs(draw) -> dict:
    alphabets = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    letters = list(itertools.product(*(range(a) for a in alphabets)))
    doc = {"senders": [{"alphabet": a} for a in alphabets], "output_dim": d}
    if draw(st.booleans()):
        doc["classical"] = {letter_key(x): [float(p) for p in rng.dirichlet(np.ones(d))]
                            for x in letters}
    else:
        doc["states"] = {letter_key(x): density_pairs(rng, d) for x in letters}
    for _ in range(draw(st.sampled_from([1, 2, 3, 0]))):   # mostly broken documents
        mutate(draw, doc)
    return doc


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(doc=channel_docs())
def test_any_channel_document_ends_with_one_line(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "channel.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        for command in ("validate", "region"):
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([command, "--channel", path])
            lines = err.getvalue().splitlines()
            assert code in (0, 1, 2)
            assert not caught
            assert len(lines) <= 1 and all(line.startswith("error: ") for line in lines)
            if code == 0 or command == "region":
                assert len(lines) == (code != 0)
            if command == "region":
                assert "nan" not in out.getvalue().lower()
