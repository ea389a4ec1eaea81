import json
import pathlib
import warnings

import numpy as np
import pytest

from qmac.channel import (BUILTIN_CHANNELS, BlockChannel, ChannelFormatError, CqMacChannel,
                          Prior, channel_from_dict, channel_state,
                          kraus_from_choi, load_channel, make_ensemble,
                          precompose_qq, reduced_channel)
from qmac.checks import random_channel, random_prior, relabel_channel, run_suites
from qmac.coding import (Codebook, SequentialDecoder, average_error, codebooks_from_seed,
                         run_simulation, sample_codebook, sizes_from_rates)
from qmac.config import DEFAULT_MAX_LETTER_TUPLES, CapExceeded
from qmac.entropy import SubsystemSelector, mutual_information
from qmac.operators import SUPPORT_FLOOR, ValidationError, partial_trace
from qmac.region import boundary_sweep, constraint_set, corner_from_bounds

from oracles import (bundled_channel_json, channel_to_dict, count_checked_states,
                     low_rank_channel, point_mass_prior, reduced_channel_loop, save_channel,
                     word_states)

Z0 = np.array([[1, 0], [0, 0]], dtype=complex)
Z1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def qubit_table():
    return {(0, 0): Z0, (0, 1): Z1, (1, 0): PLUS, (1, 1): np.eye(2) / 2}


def adder_channel():
    return load_channel("adder-classical")


# --- validation ---------------------------------------------------------------

def test_validate_accepts_complete_table():
    ch = CqMacChannel((2, 2), 2, qubit_table())
    assert ch.s == 2
    assert ch.output_dim == 2
    assert np.allclose(ch.state((1, 0)), PLUS)


def test_validate_reports_missing_tuple():
    table = qubit_table()
    del table[(1, 0)]
    with pytest.raises(ValidationError, match=r"missing state \(1, 0\)"):
        CqMacChannel((2, 2), 2, table)


def test_validate_reports_bad_trace_with_tuple():
    table = qubit_table()
    table[(0, 1)] = np.diag([0.5, 0.4]).astype(complex)
    with pytest.raises(ValidationError, match=r"state \(0, 1\).*trace 0\.9"):
        CqMacChannel((2, 2), 2, table)


def test_validate_collects_every_violation():
    table = qubit_table()
    table[(0, 0)] = np.array([[1.0, 0.3], [0.0, 0.0]])  # not Hermitian
    table[(1, 1)] = np.diag([1.5, -0.5]).astype(complex)  # negative eigenvalue
    del table[(0, 1)]
    with pytest.raises(ValidationError) as err:
        CqMacChannel((2, 2), 2, table)
    text = str(err.value)
    assert "state (0, 0)" in text
    assert "state (1, 1)" in text
    assert "missing state (0, 1)" in text


def built(states, alphabets=(2, 2), d=2):
    """(error text, None) or (None, state table bytes) of one channel build."""
    try:
        return None, CqMacChannel(alphabets, d, states).states.tobytes()
    except ValidationError as exc:
        return str(exc), None


def per_state_loop(monkeypatch):
    """Make the constructor skip the stacked check, as when it fails."""
    import qmac.operators as ops
    monkeypatch.setattr(ops, "densities_pass", lambda stack: False)


def test_two_bad_states_reported_as_by_the_per_state_loop(monkeypatch):
    table = qubit_table()
    table[(0, 1)] = np.diag([0.5, 0.4]).astype(complex)
    table[(1, 0)] = np.array([[0.5, 0.5], [0.4, 0.5]], dtype=complex)
    want = ("state (0, 1) has trace 0.9, expected 1\n"
            "state (1, 0) is not Hermitian (max deviation 1.000e-01)")
    array = np.array(list(table.values())).reshape(2, 2, 2, 2)   # keys in letter order
    stacked = built(table), built(array)
    per_state_loop(monkeypatch)
    assert stacked == (built(table), built(array)) == ((want, None), (want, None))


@pytest.mark.parametrize("x", [0.0, 0.5e-10, 0.99e-10, 1.01e-10, 2e-10, 1e-6])
@pytest.mark.parametrize("kind", ["eigenvalue", "trace", "hermitian"])
def test_stacked_check_agrees_with_the_loop_at_the_tolerances(monkeypatch, kind, x):
    # a state at, inside or past each 1e-10 tolerance, among good states
    bad = {"eigenvalue": np.diag([1.0 + x, -x]), "trace": np.diag([0.5 + x, 0.5]),
           "hermitian": np.array([[0.5, 0.25 + x], [0.25, 0.5]])}[kind].astype(complex)
    table = {**qubit_table(), (1, 1): bad}
    stacked = built(table)
    per_state_loop(monkeypatch)
    assert stacked == built(table)
    assert (stacked[0] is None) == (x < 1e-10)


def test_infinite_imaginary_part_rejected_without_a_warning():
    doc = {"senders": [{"alphabet": 1}], "output_dim": 1, "states": {"0": [[[1.0, np.inf]]]}}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=r"state \(0,\) has non-finite entries"):
            channel_from_dict(doc)


def test_states_stored_as_one_read_only_array():
    table = qubit_table()
    ch = CqMacChannel((2, 2), 2, table)
    assert ch.states.shape == (2, 2, 2, 2) and ch.states.dtype == complex
    assert not ch.states.flags.writeable
    table[(1, 0)] = Z0                       # the channel keeps its own copy
    assert np.array_equal(ch.state((1, 0)), PLUS)
    same = CqMacChannel((2, 2), 2, ch.states)
    assert np.array_equal(same.states, ch.states)


def test_array_table_checked_like_a_mapping():
    states = np.array([[Z0, Z1], [PLUS, np.eye(2) / 2]])
    states[1, 1] *= 2
    with pytest.raises(ValidationError, match=r"state \(1, 1\) has trace 2"):
        CqMacChannel((2, 2), 2, states)
    with pytest.raises(ValidationError, match=r"state table has shape \(2, 2, 2, 2\)"):
        CqMacChannel((2, 3), 2, states)


@pytest.mark.parametrize("letters", [(-1, 0), (0, -1), (2, 0), (0, 2), (0,), (0, 0, 0)])
def test_state_rejects_letters_outside_the_table(letters):
    ch = CqMacChannel((2, 2), 2, qubit_table())
    with pytest.raises(ValidationError, match="no state for letter tuple"):
        ch.state(letters)
    if len(letters) == 2:
        with pytest.raises(ValidationError, match="no state for letter tuple"):
            BlockChannel(ch, 2).state_for_words([(0, letters[0]), (0, letters[1])])


NON_INTEGER_LETTERS = {
    "codebook": lambda letters: Codebook(0, len(letters), (letters,)).words[0],
    "channel-state": lambda letters: CqMacChannel((2, 2), 2, qubit_table()).state(letters),
    "ensemble-label": lambda letters: make_ensemble(
        [2] * len(letters), 2, [(letters, 1.0, np.eye(2) / 2)]).atoms[0][0],
}


@pytest.mark.parametrize("entry", NON_INTEGER_LETTERS)
def test_non_integer_letters_are_refused_where_they_enter(entry):
    # a float is not rounded and a string not parsed into a letter; numpy
    # integers pass as the Python ints they equal
    enter = NON_INTEGER_LETTERS[entry]
    for letters in [(1.7, 0), ("1", 0), (np.float64(1.0), 0), (0.9,), (None, 1)]:
        with pytest.raises(ValidationError, match="must hold integer letters"):
            enter(letters)
    kept = enter((np.int64(1), np.uint8(0)))
    assert np.array_equal(kept, enter((1, 0)))
    assert not isinstance(kept, tuple) or all(type(x) is int for x in kept)


def pure_mac():
    return load_channel("qubit-pure-mac"), Prior.uniform((2, 2))


def monte_carlo(**options):
    ch, prior = pure_mac()
    books = codebooks_from_seed(ch, prior, 1, (2, 2), 0)
    return average_error(ch, books, prior, mode="monte_carlo", **options)


def stage_instrument(stage):
    ch, prior = pure_mac()
    decoder = SequentialDecoder(ch, codebooks_from_seed(ch, prior, 2, (2, 2), 0), prior)
    return decoder.stage_instrument(stage, [(1, 0)])


# entry point: (its call with one caller integer v, values it refuses, a numpy integer
# it takes, the name its error gives)
CALLER_INTEGERS = {
    "channel-alphabets": (lambda v: CqMacChannel((v,), 2, {(0,): Z0, (1,): Z1}),
                          [2.7, "2"], np.int64(2), "sender_alphabets"),
    "channel-output-dim": (lambda v: CqMacChannel((2,), v, {(0,): Z0, (1,): Z1}),
                           [2.9, "2"], np.int64(2), "output_dim"),
    "channel-letter-keys": (lambda v: CqMacChannel((1,), 2, {(v,): Z0}),
                            [0.4, "0", 0.0], np.int64(0), "letter tuple"),
    "block-length": (lambda v: run_simulation(*pure_mac(), v, (2, 2), 0), [2.5, "2"],
                     np.int64(2), "n"),
    "block-channel-length": (lambda v: BlockChannel(pure_mac()[0], v), [2.0, "2"],
                             np.int64(2), "n"),
    "codebook-length": (lambda v: Codebook(0, v, ((0, 0),)), [2.0, "2"], np.int64(2), "n"),
    "simulation-sizes": (lambda v: run_simulation(*pure_mac(), 1, (v, 2), 0),
                         [2.7], np.int64(2), "sizes"),
    "master-seed": (lambda v: run_simulation(*pure_mac(), 1, (2, 2), v),
                    [1.5], np.uint64(1), "master_seed"),
    "trial-seed": (lambda v: monte_carlo(trials=2, seed=v), [1.9], np.int64(1), "seed"),
    "trials": (lambda v: monte_carlo(trials=v, seed=1), [2.5], np.int64(2), "trials"),
    "check-trials": (lambda v: run_suites("lemmas", v, 0), [2.5, "1"], np.int64(1), "trials"),
    "check-seed": (lambda v: run_suites("lemmas", 0, v), [1.5], np.uint64(1), "seed"),
    "codebook-size": (lambda v: sample_codebook([0.5, 0.5], 2, v, 0), [2.5], np.int64(2), "size"),
    "decoder-stage": (stage_instrument, [1.0], np.int64(1), "stage"),
    "rates-block-length": (lambda v: sizes_from_rates([1.0], v), [2.5], np.int64(2), "n"),
    "sweep-resolution": (lambda v: boundary_sweep(pure_mac()[0], v),
                         ["3", 2.0], np.int64(2), "resolution"),
    "decode-order": (lambda v: corner_from_bounds(constraint_set(*pure_mac()), (v, 1)),
                     [0.5], np.int64(0), "perm"),
    "relabel-order": (lambda v: relabel_channel(pure_mac()[0], (v, 0)),
                      [1.2], np.int64(1), "perm"),
    "selector": (lambda v: SubsystemSelector.of([v]), [0.7], np.int64(0), "classical"),
    "mi-members": (lambda v: mutual_information(channel_state(*pure_mac()), [v]),
                   [0.9], np.int64(0), "members"),
    "trace-dims": (lambda v: partial_trace(np.eye(4) / 4, [v, 2], [0]),
                   [2.5], np.int64(2), "factor_dims"),
    "trace-keep": (lambda v: partial_trace(np.eye(4) / 4, [2, 2], [v]),
                   [0.5], np.int64(0), "keep"),
    "ensemble-labels": (lambda v: make_ensemble([v], 2, [((0,), 1.0, Z0)]),
                        [1.5], np.int64(1), "label_spaces"),
    "ensemble-dim": (lambda v: make_ensemble([1], v, [((0,), 1.0, Z0)]),
                     [2.2], np.int64(2), "quantum_dim"),
}


@pytest.mark.parametrize("entry", CALLER_INTEGERS)
def test_caller_integers_are_refused_unless_whole(entry):
    # a float is not truncated and a string not parsed where an integer
    # enters; the error names the parameter, and numpy integers pass
    enter, refused, taken, name = CALLER_INTEGERS[entry]
    for value in refused:
        with pytest.raises(ValidationError, match=name):
            enter(value)
    enter(taken)


@pytest.mark.parametrize("alphabets, d, problem", [
    ((3000, 3000), 2, "9000000 letter tuples"),
    ((DEFAULT_MAX_LETTER_TUPLES + 1,), 2, "letter tuples"),
    ((1,) * 13, 2, "13 senders"),
    ((2,), 5000, "dimension 5000"),
])
def test_table_size_capped_before_any_state_is_read(alphabets, d, problem):
    class Untouchable(dict):
        def __iter__(self):
            raise AssertionError("states read before the size caps")
    with pytest.raises(CapExceeded, match=problem):
        CqMacChannel(alphabets, d, Untouchable())


# --- channel_state --------------------------------------------------------------

def test_channel_state_uniform_binary():
    ch = CqMacChannel((2, 2), 2, qubit_table())
    e = channel_state(ch, Prior.uniform((2, 2)))
    assert e.label_spaces == (2, 2)
    assert len(e.atoms) == 4
    assert all(abs(p - 0.25) < 1e-12 for _, p, _ in e.atoms)


def test_channel_state_point_mass():
    ch = CqMacChannel((2, 2), 2, qubit_table())
    e = channel_state(ch, point_mass_prior((2, 2), (1, 0)))
    assert len(e.atoms) == 1
    label, p, rho = e.atoms[0]
    assert label == (1, 0) and abs(p - 1.0) < 1e-12
    assert np.allclose(rho, PLUS)


def test_channel_state_product_rule():
    ch = CqMacChannel((2, 2), 2, qubit_table())
    e = channel_state(ch, Prior((np.array([0.3, 0.7]), np.array([0.5, 0.5]))))
    probs = {label: p for label, p, _ in e.atoms}
    assert abs(probs[(0, 1)] - 0.15) < 1e-12


def test_channel_state_trusts_the_checked_table(monkeypatch):
    # the constructor checks each state once; channel_state builds the same
    # ensemble as make_ensemble (same floor, same label order) without
    # checking them again, while make_ensemble still checks every kept atom
    checked = count_checked_states(monkeypatch)
    rng = np.random.default_rng(18)
    for _ in range(10):
        ch = random_channel(rng)
        assert len(checked) == int(np.prod(ch.sender_alphabets))
        assert all(np.array_equal(rho, ch.states[x])
                   for rho, x in zip(checked, ch.joint_letters()))
        prior = random_prior(rng, ch)
        vecs = [v.copy() for v in prior.per_sender]
        vecs[0][0] = 0.0   # a dropped atom per trial
        prior = Prior(tuple(v / v.sum() for v in vecs))
        checked.clear()
        e = channel_state(ch, prior)
        assert not checked
        atoms = [(x, prior.prob(x), ch.states[x]) for x in ch.joint_letters()]
        want = make_ensemble(ch.sender_alphabets, ch.output_dim, atoms)
        assert len(checked) == len(want.atoms) < len(atoms)
        checked.clear()
        assert (e.label_spaces, e.quantum_dim) == (want.label_spaces, want.quantum_dim)
        assert [(x, p) for x, p, _ in e.atoms] == [(x, p) for x, p, _ in want.atoms]
        assert all(np.array_equal(a, b) for (_, _, a), (_, _, b) in zip(e.atoms, want.atoms))


def test_channel_state_quantum_marginal_reproduces_prior():
    ch = CqMacChannel((2, 2), 2, qubit_table())
    prior = Prior((np.array([0.2, 0.8]), np.array([0.6, 0.4])))
    e = channel_state(ch, prior)
    for label, p, _ in e.atoms:
        assert abs(p - prior.prob(label)) < 1e-15


# --- reduced channels -----------------------------------------------------------

def test_reduced_channel_full_subset_is_identity():
    ch = CqMacChannel((2, 2), 2, qubit_table())
    red = reduced_channel(ch, Prior.uniform((2, 2)), (0, 1))
    for letters in ch.joint_letters():
        assert np.allclose(red[letters], ch.state(letters))


def test_reduced_channel_point_mass_slices():
    ch = CqMacChannel((2, 2), 2, qubit_table())
    prior = Prior((np.array([0.5, 0.5]), np.array([1.0, 0.0])))
    red = reduced_channel(ch, prior, (0,))
    assert np.allclose(red[(0,)], ch.state((0, 0)))
    assert np.allclose(red[(1,)], ch.state((1, 0)))


def test_reduced_channel_adder_average():
    red = reduced_channel(adder_channel(), Prior.uniform((2, 2)), (0,))
    assert np.allclose(red[(0,)], np.diag([0.5, 0.5, 0.0]))
    assert np.allclose(red[(1,)], np.diag([0.0, 0.5, 0.5]))


def test_reduced_channel_matches_partial_trace_of_channel_state():
    # tracing the complement's labels out of the channel state leaves the
    # ensemble built from the reduced channel under the subset's prior
    rng = np.random.default_rng(21)
    for _ in range(10):
        alphabets = (2, 3)
        d = 3
        states = {}
        for letters in [(a, b) for a in range(2) for b in range(3)]:
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = g @ g.conj().T
            states[letters] = rho / np.trace(rho).real
        ch = CqMacChannel(alphabets, d, states)
        prior = Prior((rng.dirichlet(np.ones(2)), rng.dirichlet(np.ones(3))))
        e = channel_state(ch, prior)
        members = (0,)
        red = reduced_channel(ch, prior, members)
        # group atoms of the channel state by the kept label
        for x0 in range(2):
            tot_p = sum(p for label, p, _ in e.atoms if label[0] == x0)
            avg = sum(p * rho for label, p, rho in e.atoms if label[0] == x0) / tot_p
            assert abs(tot_p - prior.per_sender[0][x0]) < 1e-10
            assert np.max(np.abs(avg - red[(x0,)])) < 1e-10


def test_reduced_channel_bit_identical_to_per_tuple_loop():
    rng = np.random.default_rng(22)
    for _ in range(5):
        ch = random_channel(rng)
        prior = random_prior(rng, ch)
        for mask in range(1, 1 << ch.s):
            members = [i for i in range(ch.s) if mask >> i & 1]
            red = reduced_channel(ch, prior, members)
            want = reduced_channel_loop(ch, prior, members)
            kept = tuple(ch.sender_alphabets[i] for i in members)
            assert red.shape == kept + (ch.output_dim,) * 2
            for letters, rho in want.items():
                assert np.array_equal(red[letters], rho)


def test_reduced_channel_empty_subset_rejected():
    with pytest.raises(ValidationError):
        reduced_channel(adder_channel(), Prior.uniform((2, 2)), ())


# --- block channels -------------------------------------------------------------

def test_block_channel_n1_equals_base():
    ch = CqMacChannel((2, 2), 2, qubit_table())
    blk = BlockChannel(ch, 1)
    for letters in ch.joint_letters():
        words = tuple((x,) for x in letters)
        f = blk.state_for_words(words)
        assert np.array_equal(f, blk.letter_factors[letters])
        assert np.max(np.abs(f @ f.conj().T - ch.state(letters))) <= 1e-13


def test_block_channel_products():
    ch = CqMacChannel((2, 2), 2, qubit_table())
    blk = BlockChannel(ch, 2)
    got = blk.state_for_words(((0, 1), (0, 1)))
    got = got @ got.conj().T
    want = np.kron(ch.state((0, 0)), ch.state((1, 1)))
    assert np.allclose(got, want)
    assert abs(np.trace(got) - 1.0) < 1e-12
    # product of two pure states stays pure
    pure = blk.state_for_words(((0, 1), (0, 0)))
    pure = pure @ pure.conj().T
    assert abs(np.trace(pure @ pure).real - 1.0) < 1e-12


def test_stacked_block_states_equal_one_word_tuple_at_a_time():
    rng = np.random.default_rng(19)
    for _ in range(10):
        ch = random_channel(rng)
        n = int(rng.integers(1, 4))
        blk = BlockChannel(ch, n)
        words = np.stack([rng.integers(a, size=(5, n)) for a in ch.sender_alphabets], axis=1)
        stack = blk.state_for_words(words)
        assert stack.shape == (5, blk.output_dim, blk.letter_factors.shape[-1] ** n)
        for t in range(5):
            assert np.array_equal(stack[t], blk.state_for_words(words[t].tolist()))
        with pytest.raises(ValidationError, match=f"expected {ch.s} words of {n} letters"):
            blk.state_for_words(words[:, :, :-1])
        words[3, -1, -1] = ch.sender_alphabets[-1]
        with pytest.raises(ValidationError, match="no state for letter tuple"):
            blk.state_for_words(words)


def factor_channels():
    rng = np.random.default_rng(41)
    return ([load_channel(name) for name in BUILTIN_CHANNELS]
            + [random_channel(rng) for _ in range(8)]
            + [low_rank_channel(rng, (3,), 4, (2, 2, 1))])


@pytest.mark.parametrize("ch", factor_channels())
def test_letter_factors_reproduce_the_states(ch):
    factors = BlockChannel(ch, 1).letter_factors
    d = ch.output_dim
    ranks = (np.linalg.eigvalsh(ch.states) > SUPPORT_FLOOR).sum(axis=-1)
    assert factors.shape == ch.states.shape[:-1] + (ranks.max(),)
    assert not factors.flags.writeable
    for letters in ch.joint_letters():
        f = factors[letters]
        assert np.max(np.abs(f @ f.conj().T - ch.state(letters))) <= 1e-13
        # padding: exactly the letter's own rank of nonzero columns
        assert np.count_nonzero(np.abs(f).sum(axis=0)) == ranks[letters] <= d


def test_factored_block_states_are_kronecker_products_of_letter_factors():
    rng = np.random.default_rng(43)
    for ch in [random_channel(rng), low_rank_channel(rng, (3,), 4, (2, 2, 1)),
               load_channel("qubit-pure-mac")]:
        n = 2
        blk = BlockChannel(ch, n)
        words = np.stack([rng.integers(a, size=(4, n)) for a in ch.sender_alphabets], axis=1)
        factors = blk.state_for_words(words)
        r = blk.letter_factors.shape[-1]
        assert factors.shape == (4, blk.output_dim, r ** n)
        states = word_states(ch, words)
        for t in range(4):
            letters = [tuple(words[t, :, k]) for k in range(n)]
            want = np.kron(blk.letter_factors[letters[0]], blk.letter_factors[letters[1]])
            assert np.array_equal(factors[t], want)
            assert np.max(np.abs(factors[t] @ factors[t].conj().T - states[t])) <= 1e-13
        words[1, 0, 0] = -1
        with pytest.raises(ValidationError, match="no state for letter tuple"):
            blk.state_for_words(words)


@pytest.mark.parametrize("ch", factor_channels())
def test_word_state_factors_equal_the_dense_oracle(ch):
    rng = np.random.default_rng(47)
    for n in (1, 2, 3):
        blk = BlockChannel(ch, n)
        words = np.stack([rng.integers(a, size=(3, n)) for a in ch.sender_alphabets], axis=1)
        dense = word_states(ch, words)
        factors = blk.state_for_words(words)
        assert np.max(np.abs(factors @ factors.conj().swapaxes(-1, -2) - dense)) <= 1e-13
        single = blk.state_for_words(words[0].tolist())
        assert np.max(np.abs(single @ single.conj().T - word_states(ch, words[0]))) <= 1e-13


def test_block_channel_respects_cap(monkeypatch):
    ch = CqMacChannel((2, 2), 2, qubit_table())
    with monkeypatch.context() as m, pytest.raises(CapExceeded):
        m.setenv("QMAC_MAX_DIM", "4")
        BlockChannel(ch, 3)
    # a block length whose d**n has more digits than Python prints, or more
    # bits than memory holds, is refused without forming d**n
    for n in (10 ** 5, 10 ** 18):
        with pytest.raises(CapExceeded, match=f"{n}-block output state needs dimension 2\\^{n}"):
            BlockChannel(ch, n)


def test_env_var_overrides_dimension_cap(monkeypatch):
    ch = CqMacChannel((2, 2), 2, qubit_table())
    monkeypatch.setenv("QMAC_MAX_DIM", "4")
    with pytest.raises(CapExceeded):
        BlockChannel(ch, 3)
    monkeypatch.setenv("QMAC_MAX_DIM", "8")
    BlockChannel(ch, 3)


def test_degenerate_single_letter_alphabet():
    states = {(0, 0): Z0, (0, 1): PLUS}
    ch = CqMacChannel((1, 2), 2, states)
    e = channel_state(ch, Prior.uniform((1, 2)))
    assert len(e.atoms) == 2


# --- ensembles ------------------------------------------------------------------

def test_make_ensemble_drops_tiny_atoms():
    e = make_ensemble((2,), 2, [((0,), 1.0 - 1e-16, np.eye(2) / 2),
                                ((1,), 1e-16, np.eye(2) / 2)])
    assert len(e.atoms) == 1


def test_make_ensemble_rejects_bad_total():
    with pytest.raises(ValidationError):
        make_ensemble((2,), 2, [((0,), 0.7, np.eye(2) / 2)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_make_ensemble_rejects_non_finite_probabilities(bad):
    with pytest.raises(ValidationError, match="probabilit"):
        make_ensemble((2,), 1, [((0,), bad, [[1]]), ((1,), 1.0, [[1]])])


def test_make_ensemble_rejects_duplicate_labels():
    with pytest.raises(ValidationError):
        make_ensemble((2,), 2, [((0,), 0.5, np.eye(2) / 2),
                                ((0,), 0.5, np.eye(2) / 2)])


def test_make_ensemble_checks_each_atom_state():
    negative = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(ValidationError, match=r"atom \(1,\) has negative eigenvalue"):
        make_ensemble((2,), 2, [((0,), 0.5, Z0), ((1,), 0.5, negative)])
    with pytest.raises(ValidationError, match=r"atom \(0,\) has trace 0\.9"):
        make_ensemble((2,), 2, [((0,), 0.5, 0.9 * Z0), ((1,), 0.5, Z0)])


def test_dense_matrix_blocks():
    e = make_ensemble((2,), 2, [((0,), 0.5, Z0), ((1,), 0.5, PLUS)])
    dense = e.dense_matrix
    assert dense.shape == (4, 4)
    assert e.dense_matrix is dense and not dense.flags.writeable   # expanded once
    assert np.allclose(dense[:2, :2], 0.5 * Z0)
    assert np.allclose(dense[2:, 2:], 0.5 * PLUS)
    assert np.allclose(partial_trace(dense, [2, 2], [0]), np.eye(2) / 2)


# --- quantum-input compilation ---------------------------------------------------

def test_precompose_identity_orthogonal_inputs():
    inputs = [[Z0, Z1], [Z0, Z1]]
    ch = precompose_qq(inputs, kraus=[np.eye(4)])
    assert ch.sender_alphabets == (2, 2)
    assert ch.output_dim == 4
    # orthonormal pure inputs stay pairwise orthogonal
    keys = list(ch.joint_letters())
    for i, k1 in enumerate(keys):
        for k2 in keys[i + 1:]:
            overlap = np.trace(ch.state(k1) @ ch.state(k2)).real
            assert abs(overlap) <= 1e-10


def test_precompose_depolarizing_is_constant():
    d = 4
    kraus = [np.sqrt(1.0 / d) * np.outer(np.eye(d)[i], np.eye(d)[j])
             for i in range(d) for j in range(d)]
    ch = precompose_qq([[Z0, Z1], [Z0, PLUS]], kraus=kraus)
    for letters in ch.joint_letters():
        assert np.allclose(ch.state(letters), np.eye(d) / d)


def test_precompose_rejects_non_trace_preserving():
    with pytest.raises(ValidationError, match="trace preserving"):
        precompose_qq([[Z0, Z1]], kraus=[0.5 * np.eye(2)])


def test_precompose_choi_roundtrip():
    # Choi matrix of the qubit depolarizing map, by its definition
    d = 2
    kraus = [np.sqrt(1.0 / d) * np.outer(np.eye(d)[i], np.eye(d)[j])
             for i in range(d) for j in range(d)]
    choi = np.zeros((4, 4), dtype=complex)
    for i in range(d):
        for j in range(d):
            e_ij = np.outer(np.eye(d)[i], np.eye(d)[j])
            phi = sum(k @ e_ij @ k.conj().T for k in kraus)
            choi += np.kron(e_ij, phi)
    extracted = kraus_from_choi(choi, d, d)
    comp = sum(k.conj().T @ k for k in extracted)
    assert np.max(np.abs(comp - np.eye(d))) < 1e-9
    ch = precompose_qq([[Z0, PLUS]], choi=choi)
    for letters in ch.joint_letters():
        assert np.allclose(ch.state(letters), np.eye(d) / d)


# --- file format -----------------------------------------------------------------

def test_builtin_channels_load():
    for name in BUILTIN_CHANNELS:
        ch = load_channel(name)
        assert ch.output_dim >= 2


def same_channel(a, b) -> bool:
    return (a.sender_alphabets, a.sender_names) == (b.sender_alphabets, b.sender_names) \
        and np.array_equal(a.states, b.states)


@pytest.mark.parametrize("name", BUILTIN_CHANNELS)
def test_load_channel_takes_every_bundled_name_with_or_without_json(name):
    want = channel_from_dict(bundled_channel_json(name))
    for spec in (name, name + ".json", pathlib.Path(name)):   # file paths: test_roundtrip_*
        assert same_channel(load_channel(spec), want)


def test_load_channel_prefers_an_existing_file_to_a_bundled_name(tmp_path, monkeypatch):
    # files in the working directory named like bundled channels, holding another channel
    ch = CqMacChannel((2,), 2, {(0,): Z0, (1,): Z1})
    monkeypatch.chdir(tmp_path)
    for name in ("holevo-two-state.json", "qubit-pure-mac"):
        save_channel(ch, tmp_path / name)
        assert same_channel(load_channel(name), ch)
    bundled = channel_from_dict(bundled_channel_json("holevo-two-state"))
    assert same_channel(load_channel("holevo-two-state"), bundled)   # no file of that name


@pytest.mark.parametrize("spec", ["nowhere.json", "sub/adder-classical",
                                  "sub/adder-classical.json", "./qubit-pure-mac"])
def test_load_channel_names_the_bundled_channels_when_nothing_matches(tmp_path, monkeypatch,
                                                                      spec):
    # a name with a separator is a path, never a bundled name
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    message = (f"no channel file {spec!r} (bundled names: "
               "adder-classical, qubit-pure-mac, holevo-two-state)")
    with pytest.raises(FileNotFoundError) as err:
        load_channel(spec)
    assert str(err.value) == message


def test_load_channel_rejects_invalid_json(tmp_path):
    for text in ("{not json", '{"senders": [' * 100_000):
        (tmp_path / "bad.json").write_text(text)
        with pytest.raises(ChannelFormatError, match="invalid JSON"):
            load_channel(tmp_path / "bad.json")
    (tmp_path / "bad.json").write_bytes(b'{"senders": "\xff"}')
    with pytest.raises(ChannelFormatError, match="invalid JSON"):
        load_channel(str(tmp_path / "bad.json"))


def test_roundtrip_through_file(tmp_path):
    ch = CqMacChannel((2, 2), 2, qubit_table())
    path = tmp_path / "ch.json"
    save_channel(ch, path)
    back = load_channel(path)
    assert back.sender_alphabets == ch.sender_alphabets
    for letters in ch.joint_letters():
        assert np.max(np.abs(back.state(letters) - ch.state(letters))) < 1e-15


def test_classical_shorthand_expands_to_diagonal():
    raw = bundled_channel_json("adder-classical")
    assert "classical" in raw
    ch = channel_from_dict(raw)
    assert np.allclose(ch.state((0, 1)), np.diag([0, 1, 0]))
    assert np.allclose(ch.state((1, 1)), np.diag([0, 0, 1]))


def test_unknown_top_level_field_rejected():
    raw = bundled_channel_json("holevo-two-state")
    raw["comment"] = "nope"
    with pytest.raises(ChannelFormatError, match="unknown top-level fields"):
        channel_from_dict(raw)


def test_unknown_sender_field_rejected():
    raw = bundled_channel_json("holevo-two-state")
    raw["senders"][0]["power"] = 9000
    with pytest.raises(ChannelFormatError, match="unknown fields"):
        channel_from_dict(raw)


def test_malformed_state_key_rejected():
    raw = bundled_channel_json("holevo-two-state")
    raw["states"]["0,1"] = raw["states"].pop("1")
    with pytest.raises(ChannelFormatError, match="letters"):
        channel_from_dict(raw)


def test_states_and_classical_mutually_exclusive():
    raw = bundled_channel_json("adder-classical")
    raw["states"] = {}
    with pytest.raises(ChannelFormatError, match="exactly one"):
        channel_from_dict(raw)


def test_channel_to_dict_roundtrip_in_memory():
    ch = CqMacChannel((2,), 2, {(0,): Z0, (1,): PLUS})
    back = channel_from_dict(channel_to_dict(ch))
    assert np.allclose(back.state((1,)), PLUS)


# --- priors ---------------------------------------------------------------------

def test_prior_validation():
    with pytest.raises(ValidationError):
        Prior((np.array([0.5, 0.6]),))
    with pytest.raises(ValidationError):
        Prior((np.array([-0.1, 1.1]),))
    for bad in ([np.nan, 0.5], [np.inf, 0.5], [0.5, -np.inf]):
        with pytest.raises(ValidationError, match="non-finite"):
            Prior((np.array(bad),))


def test_prior_degenerate_alphabet():
    p = Prior.uniform((1, 2))
    assert p.prob((0, 1)) == 0.5
