"""The library boundary of the channel table and of the integer arguments read
beside it: `CqMacChannel`'s table (a mapping or an array), the words of
`BlockChannel.state_for_words`, the stage and prefix words of
`SequentialDecoder.stage_states` and `stage_instrument`, the sizes of
`Prior.uniform` and the `s` and bounds of `RateConstraintSet`.

With one caller number or one table entry replaced by junk (`test_fuzz.JUNK`,
plus ragged, object, complex-where-real and wrong-rank arrays), each call
returns, or raises ValidationError or CapExceeded, with no warning.  The
draws are derandomized, as the CLI properties are.  A valid table gives the
same state bits whether it comes as a mapping or as an array, with int,
float or complex entries.
"""

import functools
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmac.channel import BlockChannel, CqMacChannel, Prior, load_channel
from qmac.checks import random_channel
from qmac.coding import Codebook, SequentialDecoder
from qmac.config import CapExceeded
from qmac.operators import ValidationError
from qmac.region import RateConstraintSet

from test_fuzz import JUNK

Z0 = np.diag([1.0, 0.0]).astype(complex)
Z1 = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MIXED = np.eye(2, dtype=complex) / 2
LETTERS = list(itertools.product(range(2), repeat=2))
STATES = [Z0, Z1, PLUS, MIXED]
TABLE = dict(zip(LETTERS, STATES))

BAD = st.one_of(JUNK, st.sampled_from([
    [[1, 0], [0]], [0.5, [0.5]], np.array([1, None], dtype=object),
    np.array([Z0, None], dtype=object), 1 + 1j, [0.5 + 0.5j, 0.5],
    np.zeros(()), np.zeros(3), np.zeros((2, 2, 2)), np.eye(2)[None]]))


@functools.cache
def decoder() -> SequentialDecoder:
    books = [Codebook(0, 2, ((0, 1), (1, 1))), Codebook(1, 2, ((1, 0), (0, 0)))]
    return SequentialDecoder(load_channel("qubit-pure-mac"), books, Prior.uniform((2, 2)))


def replaced(values: list, i: int, x) -> list:
    """`values` with its entry i (modulo its length) replaced by x."""
    out = list(values)
    out[i % len(out)] = x
    return out


def halves(values: list, i: int, x) -> list:
    """`replaced(values, i, x)` nested as its two halves: a two-sender table
    of states, or two words."""
    out = replaced(values, i, x)
    return [out[:len(out) // 2], out[len(out) // 2:]]


# each call takes the junk and a position, and replaces one argument or entry
CALLS = {
    "channel-mapping-entry": lambda x, i: CqMacChannel((2, 2), 2, {**TABLE, LETTERS[i % 4]: x}),
    "channel-array-entry": lambda x, i: CqMacChannel((2, 2), 2, halves(STATES, i, x)),
    "channel-array": lambda x, i: CqMacChannel((2, 2), 2, x),
    "channel-alphabet": lambda x, i: CqMacChannel(replaced([2, 2], i, x), 2, TABLE),
    "channel-output-dim": lambda x, i: CqMacChannel((2, 2), x, TABLE),
    "words-letter": lambda x, i: BlockChannel(decoder().channel, 2).state_for_words(
        halves([0, 1, 1, 0], i, x)),
    "words": lambda x, i: BlockChannel(decoder().channel, 2).state_for_words(x),
    "stage-states-stage": lambda x, i: decoder().stage_states(x, []),
    "stage-states-letter": lambda x, i: decoder().stage_states(1, [replaced([0, 1], i, x)]),
    "stage-states-word": lambda x, i: decoder().stage_states(1, [x]),
    "stage-instrument-stage": lambda x, i: decoder().stage_instrument(x, []),
    "stage-instrument-letter": lambda x, i: decoder().stage_instrument(
        1, [replaced([1, 1], i, x)]),
    "stage-instrument-word": lambda x, i: decoder().stage_instrument(1, [x]),
    "uniform-prior-size": lambda x, i: Prior.uniform(replaced([2, 3], i, x)),
    "constraint-set-s": lambda x, i: RateConstraintSet(x, {1: 0.1, 2: 0.2, 3: 0.3}),
    "constraint-set-bound": lambda x, i: RateConstraintSet(
        2, dict(zip((1, 2, 3), replaced([0.1, 0.2, 0.3], i, x)))),
}


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(call=st.sampled_from(sorted(CALLS)), x=BAD, i=st.integers(0, 3))
def test_one_junk_argument_is_taken_or_refused_by_name(call, x, i):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            CALLS[call](x, i)
        except (ValidationError, CapExceeded):
            pass
    assert not caught


def table_forms(table: dict) -> dict:
    """One valid table in each form a caller may give it: a mapping or an
    array, of complex, float or int entries where its values allow them."""
    letters = sorted(table)
    shape = tuple(max(x) + 1 for x in zip(*letters)) + table[letters[0]].shape
    stacked = np.array([table[x] for x in letters]).reshape(shape)
    forms = {"mapping": table, "array": stacked, "nested-lists": stacked.tolist(),
             "mapping-of-lists": {x: m.tolist() for x, m in table.items()},
             "numpy-letters": {tuple(map(np.int64, x)): m for x, m in table.items()}}
    kinds = [float, int] if np.array_equal(stacked, np.round(stacked.real)) else \
        [float] if np.all(stacked.imag == 0) else []
    for kind in kinds:
        forms[f"{kind.__name__}-array"] = stacked.real.astype(kind)
        forms[f"{kind.__name__}-mapping"] = {x: m.real.astype(kind) for x, m in table.items()}
    return forms


def random_table() -> dict:
    ch = random_channel(np.random.default_rng(7))
    return dict(zip(ch.joint_letters(), ch.states.reshape((-1,) + ch.states.shape[-2:])))


@pytest.mark.parametrize("make, kinds", [(lambda: dict(zip(LETTERS, [Z0, Z1, Z1, Z0])), 9),
                                         (lambda: TABLE, 7), (random_table, 5)],
                         ids=["int", "float", "complex"])
def test_valid_tables_give_the_same_bits_in_every_form(make, kinds):
    table = make()
    letters = sorted(table)
    alphabets = tuple(max(x) + 1 for x in zip(*letters))
    d = table[letters[0]].shape[0]
    forms = table_forms(table)
    assert len(forms) == kinds
    built = {name: CqMacChannel(alphabets, d, form).states for name, form in forms.items()}
    want = np.array([table[x] for x in letters], dtype=complex).reshape(alphabets + (d, d))
    assert all(a.tobytes() == want.tobytes() and a.flags.c_contiguous for a in built.values())


def test_an_array_table_is_copied_whatever_its_layout():
    states = np.array([[Z0, Z1], [PLUS, MIXED]]).transpose(1, 0, 2, 3)   # not C-ordered
    ch = CqMacChannel((2, 2), 2, states)
    states[0, 0] = Z1
    assert np.array_equal(ch.state((0, 0)), Z0) and ch.states.flags.c_contiguous


@pytest.mark.parametrize("entry", [[["1", "0"], ["0", "0"]], [[1, 0], [0]], None,
                                   np.array([[1, 0], [0, None]], dtype=object)])
def test_an_unreadable_state_is_named_by_its_letters(entry):
    states = {**TABLE, (0, 1): entry}
    del states[(1, 0)]
    states[(2, 0)] = Z0
    want = ("state (0, 1) must hold numbers\n"
            "unexpected state for letter tuple (2, 0)\n"
            "missing state (1, 0)")
    with pytest.raises(ValidationError) as err:
        CqMacChannel((2, 2), 2, states)
    assert str(err.value) == want
    assert err.traceback[-1].name == "__post_init__"
    with pytest.raises(ValidationError, match="^state table must hold numbers$"):
        CqMacChannel((2, 2), 2, halves(STATES, 1, entry))


@pytest.mark.parametrize("prefix, problem", [
    ([[-1, 0]], r"prefix word \(-1, 0\) is not a 2-letter word of sender 0's alphabet"),
    ([[2, 0]], r"prefix word \(2, 0\) is not a 2-letter word"),
    ([[0]], r"prefix word \(0,\) is not a 2-letter word"),
    ([[0, 0, 0]], r"prefix word \(0, 0, 0\) is not a 2-letter word"),
    ([[0.5, 1.0]], "prefix word .* must hold integer letters"),
    ([[1.0, 0]], "prefix word .* must hold integer letters"),
    ([], "stage 1 needs 1 prefix words"),
])
def test_stage_states_reads_its_prefix_as_stage_instrument_does(prefix, problem):
    for read in (decoder().stage_states, decoder().stage_instrument):
        with pytest.raises(ValidationError, match=problem):
            read(1, prefix)
    assert [m for m, _ in decoder().stage_states(1, [(1, 0)])] == [0, 1]


@pytest.mark.parametrize("words", [[[0.9, 1.7], [0, 1]], [[0.0, 1.0], [0, 1]],
                                   [["0", "1"], [0, 1]], [[0, 1], [0]], None, "01"])
def test_state_for_words_refuses_non_integer_letters(words):
    blk = BlockChannel(decoder().channel, 2)
    with pytest.raises(ValidationError, match="^words must hold integer letters$"):
        blk.state_for_words(words)
    assert np.array_equal(blk.state_for_words(np.array([[0, 1], [0, 1]], dtype=np.uint8)),
                          blk.state_for_words([[0, 1], [0, 1]]))
    with pytest.raises(ValidationError, match="expected 2 words of 2 letters each"):
        blk.state_for_words([[0, 1]])
    with pytest.raises(ValidationError, match=r"no state for letter tuple \(-1, 0\)"):
        blk.state_for_words([[-1, 1], [0, 1]])


@pytest.mark.parametrize("sizes, problem", [
    ((2.5,), r"alphabet_sizes: 2\.5 is not an integer"),
    (("2",), "alphabet_sizes: '2' is not an integer"),
    ((2, None), "alphabet_sizes: None is not an integer"),
    ((0,), r"alphabet sizes must be from 1 to 4096, got \(0,\)"),
    ((2, -1), r"alphabet sizes must be from 1 to 4096, got \(2, -1\)"),
    ((4097,), "alphabet sizes must be from 1 to 4096"),
])
def test_uniform_prior_reads_integer_sizes(sizes, problem):
    with pytest.raises(ValidationError, match=problem):
        Prior.uniform(sizes)
    got, want = Prior.uniform((np.int64(2), True)), Prior.uniform((2, 1))
    assert [v.tobytes() for v in got.per_sender] == [v.tobytes() for v in want.per_sender]


@pytest.mark.parametrize("s, problem", [
    ("2", "s: '2' is not an integer"), (2.0, r"s: 2\.0 is not an integer"),
    (None, "s: None is not an integer"),
    (-1, "bounds must cover every nonempty subset mask of -1 senders"),
    (3, "bounds must cover every nonempty subset mask of 3 senders"),
    (10 ** 30, "bounds must cover every nonempty subset mask"),
])
def test_constraint_set_reads_an_integer_sender_count(s, problem):
    bounds = {1: 0.1, 2: 0.2, 3: 0.3}
    with pytest.raises(ValidationError, match=problem):
        RateConstraintSet(s, bounds)
    cs = RateConstraintSet(np.int64(2), bounds)
    assert type(cs.s) is int and cs == RateConstraintSet(2, bounds)
