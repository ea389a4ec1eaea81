"""Property tests of the channel-file and `simulate` argument boundaries.

Channel JSON documents are drawn with bounded sizes: valid tables (density
matrices or classical rows) with up to three mutations each, such as wrong
types, booleans, NaN and infinities, ragged rows, dropped or misnamed
entries, and oversized declared alphabets or output dimensions.  Whatever
the document, `qmac validate` and `qmac region` must end with exit 0, 1 or 2,
print at most one stderr line (an `error:` line), emit no warning and never
raise.  The same documents, and valid ones with a few numbers shifted
around the 1e-10 state tolerances or made non-finite, must build the same
channel, or fail with the same error text, whether the constructor's
stacked state check runs or only its per-state loop.

`qmac simulate` argument lists mix small valid values (so each run takes
milliseconds) with malformed, negative, non-finite and oversized ones; each
must end with exit 0, 1 or 2, at most one `error:` line, no traceback, no
warning and no `nan` on stdout.

`qmac region` argument lists do the same with priors, mixtures, sweeps of
resolution at most 4, JSON grid specs, `--corners`, `--format`, `--tol` and
`--out`; a domain error (exit 1) must also leave stdout empty, and every
JSON report must be what json.dumps(indent=2, sort_keys=True) writes.

`qmac validate` argument lists name bundled channels, missing, empty,
binary, malformed and valid files, directories and arbitrary text, with
missing, repeated and unknown arguments.  `qmac check` argument lists
draw suites, at most two trials, seeds, tolerances down to 1e-300 (so
that violations are reported) and `--max-reported` values, some of them
negative or malformed; every failing suite must print as many of its
violations as `--max-reported` allows.  Both must end with exit 0, 1 or
2, at most one `error:` line, no traceback, no warning and no `nan` on
stdout.  The draws are derandomized, so every run checks the same inputs.
"""

import contextlib
import io
import itertools
import json
import os
import tempfile
import warnings
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qmac import operators
from qmac.channel import ChannelFormatError, channel_from_dict
from qmac.cli import main
from qmac.config import CapExceeded
from qmac.operators import ValidationError

JUNK = st.one_of(
    st.sampled_from([True, False, None, "x", "1", [], {}, [[1]], {"a": 1},
                     float("nan"), float("inf"), -1, 0, 10 ** 30]),
    st.integers(-3, 5000),
    st.floats(allow_nan=True, allow_infinity=True),
)
OVERSIZED = st.sampled_from([4097, 3000, 10 ** 9, 10 ** 30])
JUNK_KEYS = st.sampled_from(["", "x", "0,x", "0,0,0,0", "-1", "1.5", " 0"])


def run_main(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one in-process `qmac` call, which must
    end with exit 0, 1 or 2, no warning, no traceback and at most one
    `error:` line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert not caught
    assert "Traceback" not in stderr
    assert sum("error:" in line for line in stderr.splitlines()) <= 1
    assert "nan" not in stdout.lower()
    return code, stdout, stderr


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


def valid_doc(draw) -> dict:
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
    return doc


@st.composite
def channel_docs(draw) -> dict:
    doc = valid_doc(draw)
    for _ in range(draw(st.sampled_from([1, 2, 3, 0]))):   # mostly broken documents
        mutate(draw, doc)
    return doc


# shifts of one number of a valid table, around the state checks' 1e-10 tolerances
SHIFTS = [0.5e-10, -0.5e-10, 2e-10, -2e-10, 1e-6, -0.5, 3.0,
          float("nan"), float("inf"), float("-inf")]


@st.composite
def perturbed_docs(draw) -> dict:
    """A valid channel document with up to three of its numbers shifted
    (or made non-finite), so that its states fail, or barely pass, the
    Hermiticity, positivity and trace checks."""
    doc = valid_doc(draw)
    table = doc["states"] if "states" in doc else doc["classical"]
    for _ in range(draw(st.integers(0, 3))):
        leaf = table[draw(st.sampled_from(sorted(table)))]
        while isinstance(leaf[0], list):   # a matrix row, then an [re, im] pair
            leaf = leaf[draw(st.integers(0, len(leaf) - 1))]
        i = draw(st.integers(0, len(leaf) - 1))
        leaf[i] += draw(st.sampled_from(SHIFTS))
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


def built_channel(doc: dict) -> tuple:
    """(error type, error text) of building the channel of a document, or
    (None, the bytes of its state table)."""
    try:
        ch = channel_from_dict(doc)
    except (ChannelFormatError, ValidationError, CapExceeded) as exc:
        return type(exc), str(exc)
    return None, ch.states.tobytes()


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(doc=st.one_of(channel_docs(), perturbed_docs()))
def test_stacked_state_check_reports_as_the_per_state_loop(doc):
    stacked = built_channel(doc)
    with mock.patch.object(operators, "densities_pass", lambda stack: False):
        loop = built_channel(doc)
    assert stacked == loop


SENDERS = {"qubit-pure-mac": 2, "adder-classical": 2, "holevo-two-state": 1,
           "no-such-channel": 2}


def value(draw, valid, junk: list) -> str:
    """A drawn valid value nine times in ten, otherwise a malformed one."""
    return str(draw(valid)) if draw(st.integers(0, 9)) else draw(st.sampled_from(junk))


@st.composite
def simulate_argvs(draw) -> list[str]:
    channel = draw(st.sampled_from(["qubit-pure-mac", "adder-classical",
                                    "holevo-two-state"] * 3 + ["no-such-channel"]))
    senders = SENDERS[channel] + draw(st.sampled_from([0, 0, 0, 0, 0, 1, -1]))
    listed = lambda elems: st.lists(elems, min_size=senders, max_size=senders).map(
        lambda v: ",".join(map(repr, v)))
    # "=" keeps a value that starts with "-" from reading as an option
    argv = ["simulate", "--channel", channel,
            "--n=" + value(draw, st.integers(1, 3), ["0", "-1", "13", "10000", str(10 ** 5),
                                                     str(10 ** 18), "x", "", "2.0"]),
            "--seed=" + value(draw, st.integers(0, 2 ** 64 - 1),
                              ["-1", str(2 ** 64 + 1), "x", "", "1e3"])]
    spec = draw(st.sampled_from(["sizes", "rates"] * 6 + ["both", "neither"]))
    if spec in ("sizes", "both"):
        argv.append("--sizes=" + value(draw, listed(st.integers(1, 4)), [
            "0,1", "-1,2", "4097,1", "1,4097", ",", "1,,2", "a,b", "1.5,2", "99999", ""]))
    if spec in ("rates", "both"):
        argv.append("--rates=" + value(draw, listed(st.floats(-1, 1)), [
            "nan,0.1", "0.1,inf", "1e308,0", "-1e308,0", "x", "", "0.1,,0.2"]))
        if draw(st.booleans()):
            argv.append("--delta=" + value(draw, st.floats(-0.25, 1), [
                "nan", "inf", "-inf", "1e308", "-1e308", "x", ""]))
    if draw(st.booleans()):
        argv.append("--mode=" + value(draw, st.sampled_from(["exhaustive", "mc"]),
                                      ["monte_carlo", "", "MC"]))
        argv.append("--trials=" + value(draw, st.integers(1, 4), ["0", "-1", "x", "", "1.5"]))
    return argv


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(argv=simulate_argvs())
def test_any_simulate_arguments_end_with_one_line(argv):
    code, _, stderr = run_main(argv)
    assert ("error:" in stderr) == (code != 0)


def prior_spec(draw, senders: int) -> str:
    """A per-sender prior spec for `senders` binary senders, or a malformed one."""
    if not draw(st.integers(0, 9)):
        return draw(st.sampled_from(["", "x", "0.5", "1,0;", "nan,1;1,0", "-0.5,1.5;1,0",
                                     "0.3,0.3;1,0", "1,0;1,0;1,0", "inf,0;0,1", "1e400,0"]))
    if not draw(st.integers(0, 3)):
        return "uniform"
    ps = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.7, 1.0]),
                       min_size=senders, max_size=senders))
    return ";".join(f"{p!r},{1.0 - p!r}" for p in ps)


@st.composite
def region_argvs(draw) -> list[str]:
    channel = draw(st.sampled_from(["qubit-pure-mac", "adder-classical",
                                    "holevo-two-state"] * 3 + ["no-such-channel"]))
    senders = SENDERS[channel]
    argv = ["region", "--channel", channel]
    mode = draw(st.sampled_from(["prior", "mixture", "sweep", "none"]))
    if mode == "prior":
        argv.append("--prior=" + prior_spec(draw, senders))
    elif mode == "mixture":
        weights = draw(st.sampled_from([[1.0], [0.5, 0.5], [0.25, 0.75], [0.0, 1.0],
                                        [0.5, 0.25, 0.25], [0.5, 0.6], [-0.5, 1.5],
                                        [float("inf"), 1.0]]))
        spec = "+".join(f"{w!r}*{prior_spec(draw, senders)}" for w in weights)
        argv.append("--mixture=" + value(draw, st.just(spec), [
            "", "*", "0.5*", "x*uniform", "uniform", "0.5*uniform+", "nan*uniform"]))
    elif mode == "sweep":
        argv.append("--sweep=" + value(draw, st.integers(1, 4), [
            "0", "-1", "x", "", "1.5", '{"resolution": 2}', '{"resolution": -1}',
            '{"resolution": "x"}', '{"resolution": true}', '{"res": 2}', "[2]",
            "401", str(10 ** 6), str(10 ** 30)]))
    if draw(st.booleans()):
        argv.append("--corners")
    if draw(st.integers(0, 3)):
        argv.append("--format=" + value(draw, st.sampled_from(["csv", "json"]), ["xml", ""]))
    if draw(st.booleans()):
        argv.append("--tol=" + value(draw, st.sampled_from([1e-12, 1e-9, 1e-6, 0.1]), [
            "0", "-1e-9", "nan", "inf", "x", ""]))
    if draw(st.booleans()):
        argv.append("--out")   # completed under the test's temporary directory
    return argv


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=region_argvs())
def test_any_region_arguments_end_with_one_line(tmp_path, argv):
    out_path = tmp_path / "region.out"
    for stale in tmp_path.iterdir():
        stale.unlink()
    if argv[-1] == "--out":
        argv = argv + [str(out_path)]
    code, stdout, stderr = run_main(argv)
    assert ("error:" in stderr) == (code != 0)
    if code == 1:
        assert stdout == ""
    report = out_path.read_text(encoding="utf-8") if out_path.exists() else stdout
    assert "nan" not in report.lower()
    if code == 0 and "--format=json" in argv:
        assert report == json.dumps(json.loads(report), indent=2, sort_keys=True) + "\n"


CHANNEL_FILES = {
    "valid.json": json.dumps({"senders": [{"alphabet": 2}], "output_dim": 1,
                              "classical": {"0": [1.0], "1": [1.0]}}),
    "missing-state.json": json.dumps({"senders": [{"alphabet": 2}], "output_dim": 1,
                                      "classical": {"0": [1.0]}}),
    "list.json": "[1, 2]",
    "empty.json": "",
    "truncated.json": '{"senders": [',
}


@st.composite
def validate_argvs(draw) -> list[str]:
    channel = draw(st.one_of(
        st.sampled_from(["qubit-pure-mac", "adder-classical.json", "no-such-channel", "",
                         "-", "x/qubit-pure-mac", "a" * 5000, "{dir}", "{dir}/nothing.json",
                         "{dir}/binary.json"]
                        + ["{dir}/" + name for name in CHANNEL_FILES]),
        st.text(max_size=12)))
    argv = ["validate"]
    if draw(st.integers(0, 9)):
        argv.append("--channel=" + channel)
    if not draw(st.integers(0, 5)):
        argv.append(draw(st.sampled_from(["--channel", "--bogus", "extra", "-h", "--channel="])))
    return argv


@settings(max_examples=80, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=validate_argvs())
def test_any_validate_arguments_end_with_one_line(tmp_path, argv):
    for name, text in CHANNEL_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "binary.json").write_bytes(b"\xff\xfe\x00junk")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    code, stdout, stderr = run_main(argv)
    if code == 0:
        assert stderr == "" and (stdout.startswith("ok: ") or "-h" in argv)
    elif code == 1 and stderr == "":
        assert stdout   # the violations, one per line
    else:
        assert stdout == "" and "error:" in stderr


SUITES = ("entropy", "lemmas", "region", "all")


def mostly(draw, valid, junk: list) -> str:
    """Like `value`, but a malformed value is the rarer draw, 9, not the
    0 that derandomized draws favour, so most examples run the command."""
    return draw(st.sampled_from(junk)) if draw(st.integers(0, 9)) == 9 else str(draw(valid))


@st.composite
def check_argvs(draw) -> list[str]:
    argv = ["check"]
    if draw(st.integers(0, 3)):
        argv.append("--suite=" + mostly(draw, st.sampled_from(SUITES), ["", "ALL", "none"]))
    # at most two trials, so that every example stays cheap
    argv.append("--trials=" + mostly(draw, st.sampled_from([1, 2, 0]),
                                     ["-1", "x", "", "1.5", "3e0"]))
    if draw(st.integers(0, 9)) != 9:
        argv.append("--seed=" + mostly(draw, st.integers(0, 2 ** 64 - 1),
                                       ["-1", str(2 ** 70), "x", "", "1e3"]))
    if draw(st.integers(0, 3)):
        # a tolerance of 1e-300 turns rounding into violations to report
        argv.append("--tol=" + mostly(draw, st.sampled_from([1e-300, 1e-9, 0.1]), [
            "0", "-1e-9", "nan", "inf", "x", ""]))
    if draw(st.booleans()):
        argv.append("--max-reported=" + draw(st.sampled_from(
            ["0", "1", "3", "-1", "-3", "x", "", "1.5"])))
    return argv


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(argv=check_argvs())
def test_any_check_arguments_end_with_one_line(argv):
    code, stdout, stderr = run_main(argv)
    if code == 2:
        assert stdout == "" and "error:" in stderr
        return
    assert stderr == ""
    # each failing suite prints min(--max-reported, its violations) of them
    reported = dict(arg[2:].split("=", 1) for arg in argv[1:]).get("max-reported", "5")
    blocks = []
    for line in stdout.splitlines():
        if line.startswith("{"):
            blocks[-1][1] += 1
        elif not line.startswith(" "):
            violations = line.split(" violations)")[0].rsplit("(", 1)[-1]
            blocks.append([int(violations) if "FAIL" in line else 0, 0])
    assert blocks and (code == 1) == any(v for v, _ in blocks)
    assert all(printed == min(int(reported), v) for v, printed in blocks)
