import functools
import gc
import itertools
import json
import os
import re
import signal
import sys
import threading
import time
import types

import numpy as np
import pytest

from qmac import coding, config
from qmac.channel import BlockChannel, CqMacChannel, Prior, load_channel
from qmac.coding import (FAIL, Codebook, Povm, SequentialDecoder, TenderInstrument,
                         average_error, codebooks_from_seed, derive_seeds, disturbance_check,
                         pgm_decoder, run_simulation, sample_codebook,
                         sizes_from_rates, tender_bound_check)
from qmac.config import CapExceeded
from qmac.checks import random_density, run_suites
from qmac.operators import ValidationError, check_povm, op_sqrt, trace_norm
from qmac.region import corner_table

from oracles import (average_error_loop, explicit_leak, low_rank_channel, map_error,
                     message_tuples, pgm_residual_rule, sqrt_element, sqrt_elements,
                     tender_apply, two_pure_state_pgm_success, word_states)

Z0 = np.array([[1, 0], [0, 0]], dtype=complex)
Z1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

PGM_TWO_STATE_SUCCESS = 0.8535533905932737  # (1 + 2^-1/2)/2, closed form


def orthogonal_channel():
    states = {}
    for x1 in range(2):
        for x2 in range(2):
            m = np.zeros((4, 4), dtype=complex)
            m[2 * x1 + x2, 2 * x1 + x2] = 1.0
            states[(x1, x2)] = m
    return CqMacChannel((2, 2), 4, states)


def constant_channel():
    rho = np.diag([0.6, 0.4]).astype(complex)
    states = {k: rho for k in itertools.product(range(2), range(2))}
    return CqMacChannel((2, 2), 2, states)


def full_binary_books(n=1):
    words = tuple(itertools.product(range(2), repeat=n))
    return [Codebook(0, n, words), Codebook(1, n, words)]


# --- codebooks -------------------------------------------------------------------

def test_point_mass_prior_gives_identical_words():
    cb = sample_codebook([0.0, 1.0], n=5, size=4, seed=3)
    assert all(w == (1, 1, 1, 1, 1) for w in cb.words)


def test_same_seed_same_codebook():
    a = sample_codebook([0.3, 0.7], n=6, size=8, seed=123)
    b = sample_codebook([0.3, 0.7], n=6, size=8, seed=123)
    assert a.words == b.words


def test_letter_frequency_matches_prior():
    counts = 0
    total = 0
    for seed in range(10_000):
        cb = sample_codebook([0.5, 0.5], n=8, size=4, seed=seed)
        flat = [x for w in cb.words for x in w]
        counts += sum(flat)
        total += len(flat)
    assert abs(counts / total - 0.5) < 0.05


def test_codebook_validation():
    with pytest.raises(ValidationError):
        Codebook(0, 2, ((0, 1), (0,)))
    with pytest.raises(ValidationError):
        Codebook(0, 1, ())
    with pytest.raises(CapExceeded):
        sample_codebook([0.5, 0.5], n=1, size=4097, seed=0)


@pytest.mark.parametrize("alphabets", [(2,), (3, 2)], ids=["one-sender", "three-letters"])
def test_codebooks_refuse_a_prior_of_other_alphabets_before_any_seed_is_split(monkeypatch,
                                                                                 alphabets):
    # not a bare IndexError (a missing sender), nor a codebook of letters the
    # channel lacks refused only later: the channel's own prior rule
    def split(*args):
        raise AssertionError("a seed was split")

    monkeypatch.setattr(coding, "derive_seeds", split)
    ch = load_channel("qubit-pure-mac")
    message = f"prior alphabets {alphabets} do not match channel (2, 2)"
    with pytest.raises(ValidationError, match=re.escape(message)):
        run_simulation(ch, Prior.uniform(alphabets), 2, (2, 2), 0)


def test_derived_seeds_are_stable():
    books1 = codebooks_from_seed(orthogonal_channel(), Prior.uniform((2, 2)), 3, (2, 2), 7)
    books2 = codebooks_from_seed(orthogonal_channel(), Prior.uniform((2, 2)), 3, (2, 2), 7)
    assert [b.words for b in books1] == [b.words for b in books2]
    assert [b.seed for b in books1] == [b.seed for b in books2]


MASTER_SEED_ENTRIES = {
    "run-simulation": lambda seed: run_simulation(constant_channel(), Prior.uniform((2, 2)),
                                                  1, (2, 2), seed),
    "derive-seeds": lambda seed: derive_seeds(seed, 3),
    "codebook": lambda seed: sample_codebook([0.5, 0.5], 2, 2, seed),
    "trial-seed": lambda seed: average_error(constant_channel(), full_binary_books(),
                                             Prior.uniform((2, 2)), mode="monte_carlo",
                                             trials=2, seed=seed),
    "check-seed": lambda seed: run_suites("all", 0, seed),
}


@pytest.mark.parametrize("entry", MASTER_SEED_ENTRIES)
def test_seeds_outside_64_bits_are_refused(entry):
    # the CLI's seed range holds in the library too: no numpy ValueError
    # for a negative seed, and no report of a seed past 2^64 - 1
    enter = MASTER_SEED_ENTRIES[entry]
    for seed in (-1, 2 ** 64, -2 ** 70):
        with pytest.raises(ValidationError, match=r"from 0 to 2\^64 - 1, got"):
            enter(seed)
    enter(0)
    enter(2 ** 64 - 1)


BLOCK_LENGTH_ENTRIES = {
    "codebook": lambda n: Codebook(0, n, ((0, 0),)),
    "block-channel": lambda n: BlockChannel(load_channel("qubit-pure-mac"), n),
    "rates": lambda n: sizes_from_rates([1.0], n),
}


@pytest.mark.parametrize("entry", BLOCK_LENGTH_ENTRIES)
def test_block_length_is_read_by_one_rule(entry):
    # below 1 or not an integer, with the messages each entry point gave before
    enter = BLOCK_LENGTH_ENTRIES[entry]
    for n, message in [(0, "block length must be >= 1, got 0"),
                       (-1, "block length must be >= 1, got -1"),
                       (2.0, "n: 2.0 is not an integer"), ("2", "n: '2' is not an integer")]:
        with pytest.raises(ValidationError) as got:
            enter(n)
        assert str(got.value) == message
    enter(np.int64(2))


@pytest.mark.parametrize("vec, problem", [
    ([0.5, 0.6], "sums to 1.1, expected 1"),
    ([float("nan"), 1.0], "has non-finite entries"),
    ([-0.5, 1.5], "has negative entries"),
    ([], "is empty"),
], ids=["sum", "nan", "negative", "empty"])
def test_sample_codebook_checks_its_prior_as_a_prior(vec, problem):
    # not numpy's bare ValueError from the draw: the Prior rule, naming the sender
    with pytest.raises(ValidationError) as got:
        sample_codebook(vec, 2, 2, 0, sender=1)
    assert str(got.value) == f"prior for sender 1 {problem}"


def test_sample_codebook_draws_as_numpy_draws_from_its_prior():
    for vec in ([0.25, 0.75], np.array([[0.1, 0.2, 0.7]]), (1.0,)):
        p = np.asarray(vec, dtype=float).ravel()
        want = np.random.default_rng(5).choice(p.size, size=(6, 3), p=p).tolist()
        assert [list(w) for w in sample_codebook(vec, 3, 6, 5).words] == want


def test_codebooks_out_of_sender_order_are_refused():
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 2, (2, 3), 0)
    with pytest.raises(ValidationError, match=re.escape("sender order, got senders [1, 0]")):
        average_error(ch, books[::-1], prior)
    with pytest.raises(ValidationError, match="sender: 'x' is not an integer"):
        Codebook("x", 2, ((0, 1),))
    with pytest.raises(ValidationError, match="sender must be >= 0, got -1"):
        Codebook(-1, 2, ((0, 1),))
    assert Codebook(np.int64(1), 2, ((0, 1),)).sender == 1


@pytest.mark.parametrize("n", [0, -3])
def test_sizes_from_rates_refuses_block_lengths_below_one(n):
    # not one-word codebooks for a block length no code has
    with pytest.raises(ValidationError, match=f"block length must be >= 1, got {n}"):
        sizes_from_rates([1.0], n)


def test_sizes_from_rates():
    assert sizes_from_rates([0.5, 1.0], 2) == [2, 4]
    assert sizes_from_rates([0.0], 4) == [1]
    assert sizes_from_rates([1.0], 2, delta=1.0) == [1]
    assert sizes_from_rates([1.0], 12) == [4096]
    with pytest.raises(CapExceeded):
        sizes_from_rates([1e6, 1.0], 2)
    with pytest.raises(CapExceeded):
        sizes_from_rates([1.0], 13)


@pytest.mark.parametrize("rates, delta", [
    ([float("nan"), 1.0], 0.0), ([-np.inf, 1.0], 0.0), ([-3.0], 0.0), ([np.inf], 0.0),
    ([1.0], float("nan")), ([1.0], np.inf), ([1.0], -np.inf),
])
def test_sizes_from_rates_refuses_non_finite_or_negative_rates(rates, delta):
    # not a conversion error, a one-word codebook or a cap error
    with pytest.raises(ValidationError, match="finite and nonnegative"):
        sizes_from_rates(rates, 4, delta)


# --- stage word states ----------------------------------------------------------

def test_single_sender_word_state_is_block_state():
    ch = load_channel("holevo-two-state")
    decoder = SequentialDecoder(ch, [Codebook(0, 2, ((0, 1),))], Prior.uniform((2,)))
    states = decoder.stage_states(0, [])
    assert len(states) == 1
    want = np.kron(ch.state((0,)), ch.state((1,)))
    assert np.max(np.abs(states[0][1] - want)) < 1e-12


def test_adder_first_stage_hand_average():
    ch = load_channel("adder-classical")
    books = [Codebook(0, 1, ((0,),)), Codebook(1, 1, ((1,),))]
    decoder = SequentialDecoder(ch, books, Prior.uniform((2, 2)))
    [(label, rho)] = decoder.stage_states(0, [])
    assert label == 0
    assert np.allclose(rho, np.diag([0.5, 0.5, 0.0]))


def test_last_stage_with_singleton_codebooks():
    ch = orthogonal_channel()
    books = [Codebook(0, 1, ((1,),)), Codebook(1, 1, ((0,),))]
    decoder = SequentialDecoder(ch, books, Prior.uniform((2, 2)))
    [(label, rho)] = decoder.stage_states(1, [(1,)])
    assert label == 0
    assert np.allclose(rho, ch.state((1, 0)))


def test_empirical_equals_ensemble_on_full_enumeration():
    # with codebooks that enumerate every word, a uniform average over the
    # later senders' codebooks is the average over their uniform priors
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    n = 2
    books = full_binary_books(n)
    decoder = SequentialDecoder(ch, books, prior)
    words = books[0].words
    for m, rho in decoder.stage_states(0, []):
        want = sum(word_states(ch, [words[m], w]) for w in words) / len(words)
        assert np.max(np.abs(rho - want)) <= 1e-12
    for prefix in words:
        for m, rho in decoder.stage_states(1, [prefix]):
            assert np.max(np.abs(rho - word_states(ch, [prefix, words[m]]))) <= 1e-12


# --- pretty-good measurement ---------------------------------------------------------

def test_pgm_orthogonal_pure_states():
    povm = pgm_decoder([(0, Z0), (1, Z1)])
    assert len(povm.elements) == 2  # no residual outcome in full support
    assert np.allclose(povm.element(0), Z0)
    assert np.allclose(povm.element(1), Z1)


def test_pgm_identical_states_split_support():
    povm = pgm_decoder([(0, Z0), (1, Z0)])
    # each element is half the support projector; success probability 1/2
    assert np.allclose(povm.element(0), 0.5 * Z0)
    success = 0.5 * np.trace(Z0 @ povm.element(0)).real \
        + 0.5 * np.trace(Z0 @ povm.element(1)).real
    assert abs(success - 0.5) < 1e-12
    # the residual outcome completes the POVM off the common support
    assert any(lab is None for lab, _ in povm.elements)


def test_pgm_two_state_closed_form():
    povm = pgm_decoder([(0, Z0), (1, PLUS)])
    success = 0.5 * np.trace(Z0 @ povm.element(0)).real \
        + 0.5 * np.trace(PLUS @ povm.element(1)).real
    assert abs(success - PGM_TWO_STATE_SUCCESS) < 1e-9
    assert abs(success - two_pure_state_pgm_success(0.5)) < 1e-9


def test_pgm_empty_rejected():
    with pytest.raises(ValidationError):
        pgm_decoder([])


def test_pgm_of_random_states_is_a_povm():
    # pgm_decoder does not check its output: its elements sum to the support
    # projector of the average state by construction, and FAIL completes it;
    # repeated and rank-deficient states make the FAIL residual appear
    rng = np.random.default_rng(25)
    fails = 0
    for _ in range(60):
        dim, count = int(rng.integers(2, 9)), int(rng.integers(2, 6))
        states = []
        for _ in range(count):
            if states and rng.random() < 0.3:
                states.append(states[int(rng.integers(len(states)))])
            else:
                rank = int(rng.integers(1, dim + 1))
                g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
                rho = g @ g.conj().T
                states.append(rho / np.trace(rho).real)
        pgm = pgm_decoder(list(enumerate(states)))
        fails += FAIL in [lab for lab, _ in pgm.elements]
        check_povm([m for _, m in pgm.elements], dim)
    assert 0 < fails < 60


@pytest.mark.parametrize("states", [[(None, Z0), ("a", Z1)],
                                    [(None, np.diag([1.0, 0, 0])), ("a", np.diag([0, 1.0, 0]))]],
                         ids=["full-rank", "rank-deficient"])
def test_pgm_refuses_a_state_labelled_none(states):
    # None labels the FAIL outcome, whether or not the family misses a direction
    with pytest.raises(ValidationError, match="None is reserved for the FAIL outcome"):
        pgm_decoder(states)

    def unread(idx):
        raise AssertionError("states built before the labels were checked")

    with pytest.raises(ValidationError, match="None is reserved for the FAIL outcome"):
        pgm_decoder([lab for lab, _ in states], rebuild=unread)


def straddling_family(rng, rel):
    """Two states on C^4 whose average has eigenvalues 1/2, (0.9 - t)/2, 0.05
    and t/2 with t = rel * PGM_SUPPORT_RTOL, in a random basis: t/2 is at or
    below the support cutoff PGM_SUPPORT_RTOL / 2 exactly when rel <= 1."""
    t = rel * coding.PGM_SUPPORT_RTOL
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    return [u @ np.diag(d).astype(complex) @ u.conj().T
            for d in ([1.0, 0, 0, 0], [0, 0.9 - t, t, 0.1])]


def test_fail_outcome_by_eigenvalue_count_matches_the_residual_rule():
    # pgm_decoder adds FAIL when its average has an eigenvalue at or below
    # the support cutoff; the residual rule it replaced (tests/oracles) read
    # the largest entry of I - P.  They decide the same labels, and the FAIL
    # element read later is the residual, bit for bit
    rng = np.random.default_rng(27)
    families, expected = [], []
    for _ in range(60):   # random families, full rank or not
        dim, count = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        ranks = rng.integers(1, dim + 1, size=count) if rng.random() < 0.5 else [dim] * count
        family = []
        for rank in ranks:
            g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
            family.append(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        families.append(family)
        expected.append(None)
    for rel in (0.5, 1 - 1e-4, 1 - 1e-7, 1 + 1e-7, 1 + 1e-4, 2.0):   # around the cutoff
        families.append(straddling_family(rng, rel))
        expected.append(rel <= 1)
    fails = 0
    for family, want in zip(families, expected):
        povm = pgm_decoder(list(enumerate(family)))
        fail, residual = pgm_residual_rule(family, coding.PGM_SUPPORT_RTOL)
        assert povm._labels == list(range(len(family))) + [FAIL] * fail
        assert want is None or fail == want
        if fail:
            assert np.array_equal(povm.element(FAIL), residual)
        fails += fail
    assert 6 < fails < len(families) - 6


def counted_fail_builds(monkeypatch) -> dict:
    """Make `coding._average` and `operators.support_projector` count their
    calls: a PGM build adds up its average once, and forming its FAIL
    element adds it up again and takes its support projector."""
    counted = {"average": 0, "projector": 0}

    def counting(name, fn):
        def call(*args, **kwargs):
            counted[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(coding, "_average", counting("average", coding._average))
    monkeypatch.setattr(coding.ops, "support_projector",
                        counting("projector", coding.ops.support_projector))
    return counted


def recorded_fails(monkeypatch) -> list:
    """Make each pgm_decoder call record whether its PGM has a FAIL outcome
    (and keep no reference to the PGM)."""
    fails, build = [], coding.pgm_decoder

    def recorded(*args, **kwargs):
        povm = build(*args, **kwargs)
        fails.append(FAIL in povm._labels)
        return povm

    monkeypatch.setattr(coding, "pgm_decoder", recorded)
    return fails


def test_fail_element_is_formed_once_on_read(monkeypatch):
    # a PGM keeps no FAIL element: its first read builds the average again
    # and takes its support projector, once; later reads find it kept
    counted = counted_fail_builds(monkeypatch)
    povm = pgm_decoder([(0, Z0), (1, Z0)])
    assert counted == {"average": 1, "projector": 0}
    povm.element(0)
    assert counted == {"average": 1, "projector": 0}
    fail = povm.element(FAIL)
    assert counted == {"average": 2, "projector": 1}
    assert povm.element(FAIL) is fail and np.allclose(fail, Z1)
    assert counted == {"average": 2, "projector": 1}


def test_state_weights_rejected_unless_probability_vector():
    states = [(0, Z0), (1, PLUS)]
    inst = TenderInstrument.from_povm(pgm_decoder(states))
    for bad in ([float("nan"), 1.0], [0.5, 0.6], [-0.5, 1.5], [1.0]):
        with pytest.raises(ValidationError, match="probability vector"):
            tender_bound_check(states, inst, weights=bad)


def test_povm_validation():
    with pytest.raises(ValidationError):
        Povm(2, ((0, Z0), (1, 0.5 * Z1)))
    with pytest.raises(ValidationError):
        Povm(2, ((0, Z0), (0, Z1)))
    with pytest.raises(ValidationError, match="dimension 0"):
        Povm(0, ((0, np.zeros((0, 0))),))


def test_unknown_outcome_rejected():
    povm = Povm(2, ((0, Z0), (1, Z1)))
    for label in (2, None, "0", [0]):
        with pytest.raises(ValidationError, match="POVM has no outcome"):
            povm.element(label)
    assert povm.element(np.int64(1)) is Z1


# --- gentle instruments ---------------------------------------------------------------

def test_tender_identity_povm():
    inst = TenderInstrument.from_povm(Povm(2, ((0, np.eye(2)),)))
    branches = tender_apply(inst, PLUS)
    assert len(branches) == 1
    lab, p, post = branches[0]
    assert abs(p - 1.0) < 1e-12
    assert np.max(np.abs(post - PLUS)) < 1e-12


def test_tender_projective_on_eigenstate():
    inst = TenderInstrument.from_povm(Povm(2, ((0, Z0), (1, Z1))))
    branches = tender_apply(inst, Z0)
    assert len(branches) == 1
    lab, p, post = branches[0]
    assert lab == 0 and abs(p - 1.0) < 1e-12
    assert np.max(np.abs(post - Z0)) < 1e-12


def test_tender_diagonal_example():
    eps = 0.02
    povm = Povm(2, ((0, np.diag([1 - eps, 1.0]).astype(complex)),
                    (1, np.diag([eps, 0.0]).astype(complex))))
    inst = TenderInstrument.from_povm(povm)
    branches = dict((lab, (p, post)) for lab, p, post in tender_apply(inst, Z0))
    assert abs(branches[0][0] - 0.98) < 1e-12
    assert np.max(np.abs(branches[0][1] - Z0)) < 1e-12
    assert abs(branches[1][0] - 0.02) < 1e-12
    total = sum(p for p, _ in branches.values())
    assert abs(total - 1.0) < 1e-9


def test_instrument_roots_square_back():
    rng = np.random.default_rng(53)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        states = [(a, random_density(rng, d)) for a in range(int(rng.integers(2, 6)))]
        povm = pgm_decoder(states)
        inst = TenderInstrument(povm)
        assert [lab for lab, _ in sqrt_elements(inst)] == [lab for lab, _ in povm.elements]
        for (_, root), (_, elem) in zip(sqrt_elements(inst), povm.elements):
            assert np.max(np.abs(root @ root - elem)) <= 1e-9


def counting_roots(monkeypatch) -> list:
    """Make every op_sqrt call record how many roots it computes (one per
    operator of a stack) and return that record."""
    computed = []

    def counted(a, **kwargs):
        computed.append(1 if np.ndim(a) == 2 else len(a))
        return op_sqrt(a, **kwargs)

    monkeypatch.setattr("qmac.operators.op_sqrt", counted)
    return computed


def test_instrument_roots_are_lazy_and_cached(monkeypatch):
    computed = counting_roots(monkeypatch)
    rng = np.random.default_rng(55)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        states = [(a, random_density(rng, d)) for a in range(int(rng.integers(2, 6)))]
        povm = pgm_decoder(states)
        computed.clear()
        inst = TenderInstrument.from_povm(povm)
        assert not computed
        labels = [lab for lab, _ in povm.elements]
        lab = labels[int(rng.integers(len(labels)))]
        root = sqrt_element(inst, lab)
        assert np.array_equal(root, op_sqrt(povm.element(lab)))
        assert sqrt_element(inst, lab) is root
        assert sqrt_element(TenderInstrument.from_povm(povm), lab) is root   # kept by the POVM
        assert sum(computed) == 1
        assert [b for b, _ in sqrt_elements(inst)] == labels
        assert sum(computed) == len(labels)
        for b, r in sqrt_elements(inst):
            assert np.array_equal(r, op_sqrt(povm.element(b)))


def test_simulator_roots_each_computed_once_in_stacks(monkeypatch):
    # the simulator reads roots through the same cache as sqrt_element: each
    # outcome it reads gets one root, computed in a stacked call per stage
    # and chunk, equal to the root computed alone
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = [Codebook(0, 2, ((0, 1), (1, 1), (0, 1))), Codebook(1, 2, ((1, 0), (0, 0)))]
    decoders = []

    class Recorded(SequentialDecoder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            decoders.append(self)

    monkeypatch.setattr("qmac.coding.SequentialDecoder", Recorded)
    computed = counting_roots(monkeypatch)
    average_error(ch, books, prior)
    # read: the outcome of each distinct stage-0 word (message 2 repeats
    # message 0's word and reads its outcome), and at stage 1 every outcome
    # of each distinct stage-0 word (the duplicate word shares its instrument)
    assert sum(computed) == 2 + 2 * 2
    assert len(computed) == 2   # one chunk, one stacked call per stage
    [decoder] = decoders
    computed.clear()
    for i, prefix, labels in [(0, [], range(2))] + [(1, [w], range(2)) for w in books[0].words]:
        inst = decoder.stage_instrument(i, prefix)
        for b in labels:
            assert np.array_equal(sqrt_element(inst, b), op_sqrt(inst.povm.element(b)))
    assert not computed   # every root read above was the simulator's


def test_outcomes_sharing_one_element_array_get_their_roots():
    # a POVM built with one array object for two outcomes: one stacked root
    # call serves both, and each gets the root of its element
    half = np.eye(2, dtype=complex) / 2
    inst = TenderInstrument(Povm(2, [(0, half), (1, half)]))
    states = [(0, np.eye(2, dtype=complex) / 2), (1, Z0)]
    check = tender_bound_check(states, inst)
    assert [row[0] for row in check.per_state] == [0, 1]
    for b in (0, 1):
        assert np.array_equal(sqrt_element(inst, b), op_sqrt(half))


def test_identity_leak_equals_explicit_sum():
    rng = np.random.default_rng(54)
    for _ in range(40):
        d = int(rng.integers(2, 7))
        states = [(a, random_density(rng, d)) for a in range(int(rng.integers(2, 6)))]
        inst = TenderInstrument.from_povm(pgm_decoder(states))
        check = tender_bound_check(states, inst)
        for (a, rho), (_, _, dist, _) in zip(states, check.per_state):
            root = sqrt_element(inst, a)
            explicit = trace_norm(rho - root @ rho @ root) + explicit_leak(rho, inst, a)
            assert abs(dist - explicit) <= 1e-12


# --- disturbance bounds -----------------------------------------------------------------

def test_disturbance_identity_operator():
    eps, lhs, bound = disturbance_check(PLUS, np.eye(2))
    assert eps == 0.0 and abs(lhs) < 1e-12 and bound == 0.0


def test_disturbance_hand_example():
    eps, lhs, bound = disturbance_check(Z0, np.diag([0.98, 1.0]))
    assert abs(eps - 0.02) < 1e-12
    assert abs(lhs - 0.02) < 1e-12
    assert abs(bound - np.sqrt(0.16)) < 1e-12
    assert lhs <= bound


def test_disturbance_random_sweep():
    rng = np.random.default_rng(51)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = h @ h.conj().T
        x /= np.linalg.eigvalsh(x)[-1] * (1.0 + rng.random())
        if 1.0 - np.trace(rho @ x).real >= 1.0 - 1e-12:
            continue
        eps, lhs, bound = disturbance_check(rho, x)
        assert lhs <= bound + 1e-9


def test_disturbance_rejects_bad_spectrum():
    with pytest.raises(ValidationError):
        disturbance_check(Z0, np.diag([1.5, 0.0]))


def test_disturbance_rejects_certain_failure():
    with pytest.raises(ValidationError, match="epsilon must be < 1, got 1"):
        disturbance_check(Z0, np.diag([0.0, 1.0]))


def test_tender_bound_check_pgm():
    rng = np.random.default_rng(52)
    for _ in range(50):
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        states = []
        for a in range(k):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = g @ g.conj().T
            states.append((a, rho / np.trace(rho).real))
        inst = TenderInstrument.from_povm(pgm_decoder(states))
        check = tender_bound_check(states, inst)
        for a, eps, dist, bound in check.per_state:
            assert dist <= bound + 1e-9
        assert check.avg_disturbance <= check.avg_bound + 1e-9


# --- sequential decoding ------------------------------------------------------------------

def random_cq_channel(rng, alphabets, d):
    return CqMacChannel(alphabets, d, {
        x: random_density(rng, d) for x in itertools.product(*(range(a) for a in alphabets))})


def random_books(rng, alphabets, n, sizes):
    return [Codebook(i, n, tuple(tuple(int(x) for x in rng.integers(a, size=n))
                                 for _ in range(L)))
            for i, (a, L) in enumerate(zip(alphabets, sizes))]


def fail_outcome_channel():
    """Letter states supported on 2 of 3 dimensions: a stage's average at
    n = 2 lives on 4 of the 9 block dimensions, so its PGM has a FAIL outcome."""
    def pure(t):
        v = np.array([np.cos(t), np.sin(t), 0.0])
        return np.outer(v, v).astype(complex)

    return CqMacChannel((2, 2), 3, {(x1, x2): pure(0.7 * x1 + 0.3 * x2)
                                    for x1 in range(2) for x2 in range(2)})


def same_report(a, b) -> bool:
    return (a.to_json_dict() == b.to_json_dict()
            and json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict()))


def close_report(a, b, tol=1e-12) -> bool:
    """Reports equal in every integer, string, seed and None field, and within
    `tol` in every float.  A disturbance bound sqrt(8 eps) + eps amplifies the
    last bits of an eps near 0 (1e-16 becomes 3e-8), so each report's bounds
    must instead be exactly that formula of its own eps, which is compared."""
    da, db = a.to_json_dict(), b.to_json_dict()
    if da.keys() != db.keys():
        return False
    for r in (a, b):
        if r.stage_disturbance_bound != tuple(float(np.sqrt(8.0 * e) + e)
                                              for e in r.stage_eps_bar):
            return False
    for key in da.keys() - {"stage_disturbance_bound"}:
        x, y = da[key], db[key]
        xs, ys = (x, y) if isinstance(x, list) else ([x], [y])
        if len(xs) != len(ys):
            return False
        for u, v in zip(xs, ys):
            if isinstance(u, float) or isinstance(v, float):
                if not (type(u) is type(v) and abs(u - v) <= tol):
                    return False
            elif u != v or type(u) is not type(v):
                return False
    return True


# (alphabets, output dimension, block length, codebook sizes)
KERNEL_CASES = [
    ((1,), 1, 1, (1,)),
    ((3,), 2, 2, (5,)),
    ((2,), 4, 1, (3,)),
    ((2, 2), 2, 2, (3, 4)),
    ((1, 3), 3, 1, (2, 3)),
    ((3, 2), 4, 2, (1, 4)),
    ((2, 1, 2), 2, 2, (2, 2, 3)),
    ((3, 3, 3), 3, 1, (2, 3, 2)),
    ((2, 2, 2), 4, 1, (3, 1, 2)),
]


@pytest.mark.parametrize("alphabets, d, n, sizes", KERNEL_CASES)
def test_chunked_simulator_equals_per_tuple_loop(alphabets, d, n, sizes):
    rng = np.random.default_rng(sum(sizes) * 100 + d * 10 + n)
    ch = random_cq_channel(rng, alphabets, d)
    prior = Prior(tuple(rng.dirichlet(np.ones(a)) for a in alphabets))
    books = random_books(rng, alphabets, n, sizes)
    assert close_report(average_error(ch, books, prior), average_error_loop(ch, books, prior))
    mc = dict(mode="monte_carlo", trials=7, seed=int(rng.integers(1 << 30)))
    assert close_report(average_error(ch, books, prior, **mc),
                        average_error_loop(ch, books, prior, **mc))


def test_chunked_simulator_duplicate_words_and_fail_outcome():
    # every stage's PGM has a FAIL outcome, and every codebook repeats a word
    ch = fail_outcome_channel()
    prior = Prior.uniform((2, 2))
    books = [Codebook(0, 2, ((0, 1), (1, 0), (0, 1))),
             Codebook(1, 2, ((1, 1), (1, 1), (0, 1), (1, 1)))]
    decoder = SequentialDecoder(ch, books, prior)
    assert FAIL in [lab for lab, _ in decoder.stage_instrument(0, []).povm.elements]
    assert close_report(average_error(ch, books, prior), average_error_loop(ch, books, prior))
    report = run_simulation(ch, prior, 2, (3, 4), master_seed=8, mode="monte_carlo", trials=9)
    books = codebooks_from_seed(ch, prior, 2, (3, 4), 8)
    want = average_error_loop(ch, books, prior, mode="monte_carlo", trials=9,
                              seed=report.trial_seed, master_seed=8)
    assert close_report(report, want)


@pytest.mark.parametrize("per_chunk", [1, 3, 7, None])
def test_chunk_size_does_not_change_the_report(monkeypatch, per_chunk):
    # None: 64x64 blocks (n = 6), one operator per chunk at the default size
    n = 2 if per_chunk else 6
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, n, (4, 5), master_seed=12)
    mc = dict(mode="monte_carlo", trials=9, seed=4)
    one_chunk = average_error(ch, books, prior)   # 20 tuples of 4x4 fit in one chunk
    assert (20 if per_chunk else 1) * 16 * 4 ** n <= config.CHUNK_BYTES
    if per_chunk:
        monkeypatch.setattr(config, "CHUNK_BYTES", per_chunk * 16 * 4 ** n)
    assert same_report(average_error(ch, books, prior), one_chunk)
    assert close_report(average_error(ch, books, prior, **mc),
                        average_error_loop(ch, books, prior, **mc))


# (channel, block length, letter factor rank): the word factors have r^n
# columns, and the disturbance's middle has min(d^n, 2 r^n) sides (rank-two
# at n = 1 is the d^n-sided case); full-rank letters are the KERNEL_CASES above
FACTORED_CASES = [("qubit-pure-mac", 2, 1), ("qubit-pure-mac", 4, 1), ("fail-outcome", 2, 1),
                  ("rank-two", 1, 2), ("rank-two", 2, 2)]


@pytest.mark.parametrize("kind, n, rank", FACTORED_CASES)
def test_factored_simulator_agrees_with_the_dense_loop(kind, n, rank):
    rng = np.random.default_rng(60 + 10 * n + rank)
    ch = {"qubit-pure-mac": lambda: load_channel("qubit-pure-mac"),
          "fail-outcome": fail_outcome_channel,
          "rank-two": lambda: low_rank_channel(rng, (2, 2), 4, (2,))}[kind]()
    assert BlockChannel(ch, n).letter_factors.shape[-1] == rank
    prior = Prior(tuple(rng.dirichlet(np.ones(a)) for a in ch.sender_alphabets))
    books = codebooks_from_seed(ch, prior, n, (3, 5), master_seed=int(rng.integers(1 << 30)))
    assert close_report(average_error(ch, books, prior), average_error_loop(ch, books, prior))
    mc = dict(mode="monte_carlo", trials=11, seed=int(rng.integers(1 << 30)))
    assert close_report(average_error(ch, books, prior, **mc),
                        average_error_loop(ch, books, prior, **mc))


def test_letter_factors_built_once_per_simulation(monkeypatch):
    # one chunk per distinct word tuple: one state_for_words call each, and
    # one letter factor table for all of them
    built, calls = [], []
    table, words_states = BlockChannel.letter_factors, BlockChannel.state_for_words

    def counted_table(self):
        built.append(self)
        return table.func(self)

    def counted_states(self, words):
        calls.append(words)
        return words_states(self, words)

    prop = functools.cached_property(counted_table)
    prop.__set_name__(BlockChannel, "letter_factors")
    monkeypatch.setattr(BlockChannel, "letter_factors", prop)
    monkeypatch.setattr(BlockChannel, "state_for_words", counted_states)
    monkeypatch.setattr(config, "CHUNK_BYTES", 16 * 4 ** 2)
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 2, (3, 4), master_seed=5)
    assert average_error(ch, books, prior).messages_evaluated == 12
    distinct = {(a, b) for a in books[0].words for b in books[1].words}
    assert len(distinct) < 12   # the codebooks repeat words
    assert sorted(tuple(map(tuple, words[0].tolist())) for words in calls) == sorted(distinct)
    assert len(built) == 1


def test_decoder_povms_equal_the_checked_public_build():
    # the decoder's elements are formed on first read, the last one alone
    # and the rest together; the public build forms them from its states.
    # The decoder adds its average as it builds the states, a chunk at a
    # time (one state a chunk from block dimension 64 on), the public build
    # from the list of them: the elements are equal, bit for bit
    rng = np.random.default_rng(57)
    for ch, fail, n in [(random_cq_channel(rng, (2, 3), 2), False, 2),
                        (fail_outcome_channel(), True, 2),
                        (random_cq_channel(rng, (2, 3), 2), False, 6),
                        (random_cq_channel(rng, (2, 2), 2), False, 7),
                        (fail_outcome_channel(), True, 4)]:
        prior = Prior.uniform(ch.sender_alphabets)
        books = random_books(rng, ch.sender_alphabets, n, (3, 4))
        decoder = SequentialDecoder(ch, books, prior)
        for i, prefix in [(0, [])] + [(1, [w]) for w in books[0].words]:
            povm = decoder.stage_instrument(i, prefix).povm
            public = pgm_decoder(decoder.stage_states(i, prefix))
            last = povm.element(books[i].size - 1)
            assert [lab for lab, _ in povm.elements] == [lab for lab, _ in public.elements]
            assert (FAIL in [lab for lab, _ in povm.elements]) == fail
            assert povm.element(books[i].size - 1) is last
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(povm.elements,
                                                                      public.elements))
            check_povm([m for _, m in povm.elements], povm.dim)


def test_decoder_forms_only_the_elements_it_reads(monkeypatch):
    # Monte Carlo reads one outcome per stage and tuple: each distinct
    # (instrument, outcome) read is formed once, in stacks, and no other
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 3, (16, 16), master_seed=5)
    lookup, build = coding._roots, coding.pgm_decoder
    read, formed = {}, []

    def recorded_lookup(povms, positions):
        read.update(((id(p), i), p) for p, i in zip(povms, positions))
        return lookup(povms, positions)

    def counted_build(*args, **kwargs):
        povm = build(*args, **kwargs)
        form = povm._form

        def counted_form(idx):
            formed.append(len(idx))
            return form(idx)

        povm._form = counted_form
        return povm

    monkeypatch.setattr(coding, "_roots", recorded_lookup)
    monkeypatch.setattr(coding, "pgm_decoder", counted_build)
    average_error(ch, books, prior, mode="monte_carlo", trials=6, seed=3)
    instruments = {id(p) for p in read.values()}
    assert sum(formed) == len(read) < 16 * len(instruments)
    assert 6 * 16 * 8 * 8 <= config.CHUNK_BYTES   # one chunk: one stacked call per POVM
    assert len(formed) == len(instruments)


@pytest.mark.parametrize("options", [{"mode": "exhaustive"},
                                     {"mode": "monte_carlo", "trials": 40, "seed": 9}],
                         ids=["exhaustive", "monte_carlo"])
def test_one_pgm_build_per_cached_instrument(monkeypatch, options):
    # the benchmark counts decoder builds as pgm_decoder calls: one per
    # (stage, prefix) instrument, however often the simulator looks it up
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 2, (5, 3), master_seed=8)
    build, builds, decoders = coding.pgm_decoder, [], []

    def counted_build(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    class Recorded(SequentialDecoder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            decoders.append(self)

    monkeypatch.setattr(coding, "pgm_decoder", counted_build)
    monkeypatch.setattr(coding, "SequentialDecoder", Recorded)
    average_error(ch, books, prior, **options)
    [decoder] = decoders
    prefixes = {tuple(w) for w in books[0].words}
    assert len(decoder._cache) == 1 + len(prefixes)   # stage 0, and stage 1 per word
    assert len(builds) == len(decoder._cache)


def array_bytes(obj) -> int:
    """Bytes of the distinct numpy buffers reachable from obj through
    containers, instances and closures (not modules, classes or functions'
    globals)."""
    seen, buffers, todo = set(), {}, [obj]
    while todo:
        o = todo.pop()
        if id(o) in seen or isinstance(o, (type, types.ModuleType)):
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            while o.base is not None:
                o = o.base
            buffers[id(o)] = o.nbytes
        elif isinstance(o, types.FunctionType):
            todo.extend(cell.cell_contents for cell in o.__closure__ or ())
        else:
            todo.extend(gc.get_referents(o))
    return sum(buffers.values())


def test_cached_instrument_holds_neither_the_states_nor_every_element():
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 4, (32, 4), master_seed=6)
    decoder = SequentialDecoder(ch, books, prior)
    inst = decoder.stage_instrument(0, [])
    all_of_them = 32 * 16 * 16 * 16   # L complex 16x16 operators
    assert array_bytes(inst) < all_of_them / 4
    sqrt_element(inst, 5)
    assert array_bytes(inst) < all_of_them / 4
    inst.povm.elements
    assert array_bytes(inst) >= all_of_them


@pytest.mark.parametrize("n", [6, 7])
def test_the_simulator_never_forms_a_fail_element(monkeypatch, n):
    # L = 16 candidates span fewer than 2^n directions, so each stage-0 PGM
    # has a FAIL outcome; no tuple reads it, so no average is built again
    # and no support projector is taken
    counted, fails = counted_fail_builds(monkeypatch), recorded_fails(monkeypatch)
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, n, (16, 16), master_seed=n)
    average_error(ch, books, prior, mode="monte_carlo", trials=16, seed=n)
    assert any(fails)
    assert counted == {"average": len(fails), "projector": 0}


def defined_in_qmac(obj) -> bool:
    """Whether obj is a function, or an instance of a class, of a qmac module."""
    module = obj.__module__ if isinstance(obj, types.FunctionType) else type(obj).__module__
    return isinstance(module, str) and module.split(".")[0] == "qmac"


@pytest.mark.parametrize("workers", [1, 2])
def test_no_decoder_closure_waits_for_the_cyclic_collector(monkeypatch, workers):
    # a released instrument must be freed when its last reference goes: a
    # reference cycle through a PGM's form rule would keep its inverse root
    # (numpy arrays are not tracked by the collector) until a collection.
    # With the collector off, a collection that saves what it finds finds
    # nothing of qmac after a run whose stage-0 PGMs have a FAIL outcome
    monkeypatch.setattr(coding, "_workers", lambda dim: workers)
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 6, (16, 16), master_seed=6)
    fails = recorded_fails(monkeypatch)
    gc.collect()
    gc.disable()
    try:
        average_error(ch, books, prior, mode="monte_carlo", trials=16, seed=6)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        found = [repr(o) for o in gc.garbage if defined_in_qmac(o)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert any(fails)
    assert found == []


def test_orthogonal_noiseless_decodes_perfectly():
    ch = orthogonal_channel()
    report = average_error(ch, full_binary_books(), Prior.uniform((2, 2)))
    assert report.avg_error <= 1e-12


def test_constant_channel_success_bounded():
    ch = constant_channel()
    report = average_error(ch, full_binary_books(), Prior.uniform((2, 2)))
    assert 1.0 - report.avg_error <= 0.25 + 1e-9


def test_chain_weights_non_increasing():
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 3, (2, 2), master_seed=5)
    report = average_error(ch, books, prior)
    weights = report.stage_success
    assert weights[0] <= 1.0 + 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(weights, weights[1:]))
    assert abs(report.avg_error - (1.0 - weights[-1])) < 1e-12


def test_monte_carlo_reports_are_deterministic():
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    r1 = run_simulation(ch, prior, 2, (2, 2), master_seed=11, mode="monte_carlo", trials=20)
    r2 = run_simulation(ch, prior, 2, (2, 2), master_seed=11, mode="monte_carlo", trials=20)
    assert r1.to_json_dict() == r2.to_json_dict()
    assert r1.avg_error == r2.avg_error


def test_exhaustive_cap():
    ch = constant_channel()
    books = [Codebook(0, 1, ((0,),) * 64), Codebook(1, 1, ((0,),) * 65)]
    with pytest.raises(CapExceeded):
        average_error(ch, books, Prior.uniform((2, 2)))


def test_exhaustive_mode_refuses_trials():
    # the library twin of `simulate --trials` without `--mode mc`
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    with pytest.raises(ValidationError, match=r"^trials= needs monte_carlo mode$"):
        run_simulation(ch, prior, 2, (2, 2), 1, trials=5)
    books = codebooks_from_seed(ch, prior, 2, (2, 2), 1)
    with pytest.raises(ValidationError, match=r"^trials= needs monte_carlo mode$"):
        average_error(ch, books, prior, mode="exhaustive", trials=5)
    assert run_simulation(ch, prior, 2, (2, 2), 1).trials is None


def test_exhaustive_mode_refuses_a_seed():
    # every tuple is enumerated, so a trial seed would be read by nothing
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 2, (2, 2), 1)
    for seed in (5, 0):
        with pytest.raises(ValidationError, match=r"^seed= needs monte_carlo mode$"):
            average_error(ch, books, prior, seed=seed)
    assert average_error(ch, books, prior).trial_seed is None


def test_tuple_order_sums_equal_the_loops_bit_for_bit():
    # the per-tuple values of the distinct tuples, added back one tuple at a
    # time as a loop over every tuple would add them: exact zeros and
    # magnitudes from 1e-17 to 1 make a pairwise or compensated sum differ
    rng = np.random.default_rng(24)
    for _ in range(500):
        s, distinct = int(rng.integers(1, 4)), int(rng.integers(1, 40))
        values = 10.0 ** rng.uniform(-17, 0, (3, s, distinct))
        values[rng.random(values.shape) < 0.2] = 0.0
        order = rng.integers(distinct, size=int(rng.integers(1, 300)))
        totals, total_error = coding._in_tuple_order(values, order)
        want = np.zeros((3, s))
        for k in range(3):
            for i in range(s):
                for v in values[k, i][order].tolist():
                    want[k, i] += v
        want_error = 0.0
        for v in values[2, -1][order].tolist():
            want_error += 1.0 - v
        assert totals.tolist() == want.tolist()
        assert float(total_error) == want_error


def test_stage_eps_below_the_rounding_floor_reported_as_zero():
    # one letter at d = 1 decodes perfectly; the factored accounting leaves
    # eps at 1.1e-16, whose bound sqrt(8 eps) + eps would read 3e-8
    rng = np.random.default_rng(100 * 1 + 10 * 1 + 1)   # KERNEL_CASES[0]'s draws
    ch = random_cq_channel(rng, (1,), 1)
    prior = Prior(tuple(rng.dirichlet(np.ones(a)) for a in (1,)))
    books = random_books(rng, (1,), 1, (1,))
    for report in (average_error(ch, books, prior),
                   average_error(ch, books, prior, mode="monte_carlo", trials=7, seed=4)):
        assert report.stage_eps_bar == (0.0,)
        assert report.stage_disturbance_bound == (0.0,)
    assert coding.EPS_FLOOR == 1e-14


def test_adder_longer_blocks_decode_better():
    ch = load_channel("adder-classical")
    prior = Prior.uniform((2, 2))
    quarter = [0.25 * r for r in corner_table(ch, prior)[(0, 1)].rates]
    r1 = run_simulation(ch, prior, 1, sizes_from_rates(quarter, 1), master_seed=2)
    r4 = run_simulation(ch, prior, 4, sizes_from_rates(quarter, 4), master_seed=2)
    assert r4.avg_error < 0.5
    assert r4.avg_error < r1.avg_error


def test_stage_disturbance_respects_average_bound():
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    report = run_simulation(ch, prior, 4, (2, 2), master_seed=3)
    for dist, bound in zip(report.stage_disturbance, report.stage_disturbance_bound):
        assert dist <= bound + 1e-9


def test_diagonal_pgm_vs_map_oracle():
    rng = np.random.default_rng(53)
    for _ in range(100):
        m = int(rng.integers(2, 5))
        d = int(rng.integers(2, 5))
        qs = [rng.dirichlet(np.ones(d)) for _ in range(m)]
        w = np.full(m, 1.0 / m)   # the PGM weighs its states equally
        povm = pgm_decoder([(i, np.diag(qs[i]).astype(complex)) for i in range(m)])
        success = sum(w[i] * np.trace(np.diag(qs[i]) @ povm.element(i)).real
                      for i in range(m))
        assert 1.0 - success >= map_error(qs, w) - 1e-9


def test_nearly_parallel_pure_states_still_build_valid_decoders(monkeypatch):
    # tiny rotation angles make the averaged word states almost singular;
    # the decoder construction must stay a valid POVM regardless
    def pure(t):
        v = np.array([np.cos(t), np.sin(t)])
        return np.outer(v, v).astype(complex)

    ch = CqMacChannel((2, 2), 2, {(x1, x2): pure(0.05 * x1 + 0.02 * x2)
                                      for x1 in range(2) for x2 in range(2)})
    monkeypatch.setenv("QMAC_MAX_DIM", "64")
    report = run_simulation(ch, Prior.uniform((2, 2)), 6, (2, 2), master_seed=3)
    assert 0.0 <= report.avg_error <= 1.0


def test_diagonal_pgm_equals_map_on_disjoint_supports():
    qs = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.5])]
    povm = pgm_decoder([(0, np.diag(qs[0]).astype(complex)),
                        (1, np.diag(qs[1]).astype(complex))])
    success = 0.5 * np.trace(np.diag(qs[0]) @ povm.element(0)).real \
        + 0.5 * np.trace(np.diag(qs[1]) @ povm.element(1)).real
    assert abs((1.0 - success) - map_error(qs, [0.5, 0.5])) <= 1e-9


# --- decoder tasks on several threads ---------------------------------------------

def recorded_decoders(monkeypatch) -> list:
    """Make every SequentialDecoder that average_error builds join the returned list."""
    decoders = []

    class Recorded(SequentialDecoder):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            decoders.append(self)

    monkeypatch.setattr(coding, "SequentialDecoder", Recorded)
    return decoders


def recorded_instruments(monkeypatch) -> dict:
    """Make every instrument a SequentialDecoder builds join the returned dict,
    as {decoder: [(key, instrument), ...]} in the order built; `average_error`
    releases an instrument from the decoder's cache once no later tuple reads it."""
    built, build = {}, SequentialDecoder._instrument

    def recorded(self, key):
        inst = build(self, key)
        built.setdefault(self, []).append((key, inst))
        return inst

    monkeypatch.setattr(SequentialDecoder, "_instrument", recorded)
    return built


def recorded_keeps(monkeypatch) -> dict:
    """Make `_keep` record the bytes of each element and root it stores, as
    {(POVM, outcome): {kind: bytes}}: `average_error` releases them after
    their last read, so its stores do not hold them all at its end."""
    kept, keep = {}, coding._keep

    def recorded(items, elements, roots=()):
        for kind, mats in (("element", elements), ("root", roots)):
            for (povm, i, *_), m in zip(items, mats):
                kept.setdefault((povm, i), {})[kind] = m.tobytes()
        keep(items, elements, roots)

    monkeypatch.setattr(coding, "_keep", recorded)
    return kept


def stored_bytes(instruments: dict, kept: dict) -> dict:
    """Bytes of every element and root the instruments (by cache key) stored
    (`recorded_keeps`) or hold, by (key, kind, position), with each one's
    labels."""
    out = {}
    for key, inst in instruments.items():
        povm = inst.povm
        out[key, "labels"] = repr(povm._labels).encode()
        for kind, store in (("element", povm._formed), ("root", povm._root_cache)):
            out.update(((key, kind, i), m.tobytes()) for i, m in store.items())
        for i in povm._index.values():
            out.update(((key, kind, i), m) for kind, m in kept.get((povm, i), {}).items())
    return out


# (channel, block length, codebook sizes): block dimensions 64, 128 and 256,
# where a chunk holds one tuple, then 16 and 32, where it holds several
TASK_CASES = [("qubit-pure-mac", 6, (4, 4)), ("qubit-pure-mac", 7, (4, 3)),
              ("qubit-pure-mac", 8, (2, 2)), ("mixed", 6, (3, 4)), ("mixed", 7, (3, 2)),
              ("three-senders", 6, (2, 3, 2)),
              ("qubit-pure-mac", 4, (4, 4)), ("qubit-pure-mac", 5, (4, 3)),
              ("mixed", 4, (3, 4)), ("three-senders", 5, (2, 3, 2))]


def recorded_tasks(monkeypatch) -> list:
    """Make each element-and-root kernel call record the thread it runs on."""
    threads, task = [], coding._element_and_root

    def recorded(items):
        threads.append(threading.get_ident())
        return task(items)

    monkeypatch.setattr(coding, "_element_and_root", recorded)
    return threads


@pytest.mark.parametrize("mode", ["exhaustive", "monte_carlo"])
@pytest.mark.parametrize("kind, n, sizes", TASK_CASES)
def test_decoder_tasks_on_threads_equal_one_worker(monkeypatch, kind, n, sizes, mode):
    # the threads build the same elements and roots, bit for bit, as one
    # thread reading the chunks in order, and so the same report: both
    # schedules run the one kernel, alone or on a chunk's stack
    rng = np.random.default_rng(70 + n + len(sizes))
    ch = {"qubit-pure-mac": lambda: load_channel("qubit-pure-mac"),
          "mixed": lambda: random_cq_channel(rng, (2, 2), 2),
          "three-senders": lambda: random_cq_channel(rng, (2, 2, 2), 2)}[kind]()
    prior = Prior(tuple(rng.dirichlet(np.ones(a)) for a in ch.sender_alphabets))
    books = codebooks_from_seed(ch, prior, n, sizes, master_seed=int(rng.integers(1 << 30)))
    options = {"mode": mode}
    if mode == "monte_carlo":
        options.update(trials=7, seed=int(rng.integers(1 << 30)))
    decoders, built = recorded_decoders(monkeypatch), recorded_instruments(monkeypatch)
    tasks, kept = recorded_tasks(monkeypatch), recorded_keeps(monkeypatch)
    monkeypatch.setattr(coding, "_workers", lambda dim: 1)
    alone = average_error(ch, books, prior, **options)
    # one worker: each chunk builds what it reads, on the calling thread
    assert tasks and set(tasks) == {threading.get_ident()}
    tasks.clear()
    monkeypatch.setattr(coding, "_workers", lambda dim: 3)
    threaded = average_error(ch, books, prior, **options)
    assert tasks and threading.get_ident() not in tasks
    assert alone.to_json_dict() == threaded.to_json_dict()
    assert all(len(dict(built[d])) == len(built[d]) for d in decoders)   # each built once
    one, many = (stored_bytes(dict(built[d]), kept) for d in decoders)
    assert one == many


@pytest.mark.parametrize("mode", ["exhaustive", "monte_carlo"])
@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("workers", [1, 2])
def test_held_operators_stay_within_the_window(monkeypatch, workers, n, mode):
    # from block dimension 64 on a chunk is one tuple.  When a chunk runs,
    # the elements and roots kept are exactly those it reads: each is
    # released before the first chunk that does not read it.  The cached
    # instruments are those it reads and those of the 2 (workers - 1)
    # chunks built ahead of it, and each (instrument, outcome) is kept
    # once, so none is built again after its release
    monkeypatch.setattr(coding, "_workers", lambda dim: workers)
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, n, (4, 4), master_seed=n)
    options = {"mode": mode}
    if mode == "monte_carlo":
        options.update(trials=10, seed=5)
    built, plan, keep, keeps, seen = (recorded_instruments(monkeypatch), coding._plan,
                                      coding._keep, [], [])

    def recorded_keep(items, elements, roots=()):
        keeps.extend(item[:2] for item in items)
        keep(items, elements, roots)

    def recorded_plan(decoder, msgs, rows, run):
        def checked(chunk, reads):
            povms = [inst.povm for _, inst in built[decoder]]
            seen.append((chunk, {pair for stage in reads for pair in zip(*stage)},
                         {(p, i) for p in povms for i in p._root_cache},
                         {(p, i) for p in povms for i in p._formed if p._labels[i] is not FAIL},
                         {inst.povm for inst in decoder._cache.values()}))
            run(chunk, reads)

        plan(decoder, msgs, rows, checked)

    monkeypatch.setattr(coding, "_keep", recorded_keep)
    monkeypatch.setattr(coding, "_plan", recorded_plan)
    average_error(ch, books, prior, **options)
    assert all(chunk.stop - chunk.start == 1 for chunk, *_ in seen)
    for c, (_, read, roots, elements, cached) in enumerate(seen):
        assert roots == elements == read
        window = {p for _, later, *_ in seen[c:c + 2 * workers - 1] for p, _ in later}
        assert {p for p, _ in read} <= cached <= window
    assert len(keeps) == len(set(keeps)) > max(len(read) for _, read, *_ in seen)


def test_small_operators_are_built_where_they_are_read(monkeypatch):
    # below one operator per chunk the plan starts no pool, on any CPU count:
    # every kernel call runs on the calling thread
    monkeypatch.setattr(coding, "_cpus", lambda: 8)
    monkeypatch.setattr(coding, "_blas", lambda: blas_reporting(1))
    tasks = recorded_tasks(monkeypatch)
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 5, (3, 3), master_seed=2)
    assert config.per_chunk(16 * 32 ** 2) > 1
    assert average_error(ch, books, prior).messages_evaluated == 9
    assert tasks and set(tasks) == {threading.get_ident()}


def test_cpu_count_is_the_affinity_set(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert coding._cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert coding._cpus() == (os.cpu_count() or 1)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert coding._cpus() == 1


def blas_reporting(threads: int) -> tuple:
    """`coding._blas` calls of a BLAS that reports `threads` threads per call
    and ignores counts set."""
    return (lambda: threads), (lambda count: None)


def recorded_counts(monkeypatch, get) -> list:
    """Make each element-and-root kernel call record the BLAS count `get` reads."""
    counts, task = [], coding._element_and_root

    def recorded(items):
        counts.append(get())
        return task(items)

    monkeypatch.setattr(coding, "_element_and_root", recorded)
    return counts


def test_workers_take_one_thread_per_cpu_and_bound_memory(monkeypatch):
    # `average_error` runs BLAS on one thread, so the pool takes one thread
    # per CPU, and a variable set or cleared once BLAS is loaded changes
    # nothing of that
    monkeypatch.setattr(coding, "_cpus", lambda: 8)
    dims = (32, 64, 128, 1024)
    workers = [coding._workers(dim) for dim in dims]
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        for value in ("1", "2", "8", "0", None):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
            assert [coding._workers(dim) for dim in dims] == workers
    monkeypatch.setattr(coding, "_blas", lambda: blas_reporting(2))
    assert coding._workers(128) == 8   # the count BLAS reports is not read
    assert coding._workers(32) == 1   # operators below a chunk
    # helpers hold their operators within THREAD_BYTES at any CPU count
    monkeypatch.setattr(coding, "_cpus", lambda: 512)
    for dim in (64, 128, 512, 1024, 2048, 4096):
        helpers = coding._workers(dim) - 1
        assert helpers * config.TASK_OPERATORS * 16 * dim ** 2 <= config.THREAD_BYTES
    assert (coding._workers(512), coding._workers(1024), coding._workers(2048)) == (5, 2, 1)


needs_openblas = pytest.mark.skipif(coding._blas() is None,
                                    reason="numpy links no bundled OpenBLAS")


@needs_openblas
@pytest.mark.parametrize("sizes, options, error", [
    ((3, 8), {}, None),
    ((3, 8), {"mode": "monte_carlo", "trials": 5, "seed": 1}, None),
    ((3, 8), {"trials": 5}, ValidationError),
    ((65, 65), {}, CapExceeded),
], ids=["exhaustive", "monte_carlo", "trials-exhaustive", "over-cap"])
def test_average_error_runs_one_blas_thread_and_restores_the_callers(monkeypatch, sizes,
                                                                     options, error):
    # from building the decoder to the report, or to the error, BLAS runs
    # on one thread; the caller's count is back on return and on raise
    get, set_threads = coding._blas()
    caller = get()
    built = []

    class Recorded(SequentialDecoder):
        def __init__(self, *args):
            built.append(get())
            super().__init__(*args)

    monkeypatch.setattr(coding, "SequentialDecoder", Recorded)
    counts = recorded_counts(monkeypatch, get)
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 6 if error is None else 1, sizes, master_seed=4)
    set_threads(3)
    try:
        if error is None:
            assert average_error(ch, books, prior, **options).messages_evaluated
        else:
            with pytest.raises(error):
                average_error(ch, books, prior, **options)
        assert get() == 3
    finally:
        set_threads(caller)
    assert built == [1] and set(counts) == ({1} if error is None else set())


def test_without_openblas_blas_is_left_alone_on_one_decoder_thread(monkeypatch):
    # where the symbol lookup fails (numpy linked to MKL, Accelerate or a
    # source build), no BLAS count is set, the decoder builds on the calling
    # thread, and the report equals the one made with one BLAS thread
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 6, (2, 3), master_seed=4)
    capped = average_error(ch, books, prior)
    get, set_threads = coding._blas() or (lambda: None, lambda threads: None)
    threads = min(2, coding._cpus())   # more BLAS threads than CPUs can take minutes
    monkeypatch.setattr(coding, "_cpus", lambda: 8)
    monkeypatch.setattr(coding.ctypes, "CDLL", lambda path: types.SimpleNamespace())
    assert coding._blas() is None
    assert [coding._workers(dim) for dim in (32, 64, 1024)] == [1, 1, 1]
    tasks = recorded_tasks(monkeypatch)
    counts = recorded_counts(monkeypatch, get)
    caller = get()
    set_threads(threads)
    held = None if caller is None else threads   # what get() reads while it is set
    try:
        report = average_error(ch, books, prior)
        assert get() == held
    finally:
        set_threads(caller)
    assert counts and set(counts) == {held}
    assert tasks and set(tasks) == {threading.get_ident()}
    assert report.to_json_dict() == capped.to_json_dict()


def stage_one_key(books, m) -> tuple:
    """Cache key of the stage-1 instrument after sender 1's message m."""
    return 1, (tuple(int(x) for x in books[0].words[m]),)


def test_first_failed_decoder_task_in_order_raises_in_the_caller(monkeypatch):
    # stage 1's first instrument fails late, its third at once: the error
    # is the first in plan order, no element task runs after it, and the
    # pool's threads are gone
    threads = threading.active_count()
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 6, (3, 8), master_seed=4)
    build = SequentialDecoder._instrument

    def failing(self, key):
        if key == stage_one_key(books, 0):
            time.sleep(0.1)
            raise ValidationError("first in order")
        if key == stage_one_key(books, 2):
            raise CapExceeded("first in time")
        return build(self, key)

    monkeypatch.setattr(SequentialDecoder, "_instrument", failing)
    monkeypatch.setattr(coding, "_workers", lambda dim: 3)
    tasks = recorded_tasks(monkeypatch)
    with pytest.raises(ValidationError, match="^first in order$"):
        average_error(ch, books, prior)
    assert not tasks
    assert threading.active_count() == threads


def test_no_decoder_task_starts_after_a_failure_is_raised(monkeypatch):
    # the first of nine instrument builds fails at once; of the others only
    # those already taken by the two threads run
    threads = threading.active_count()
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 6, (8, 2), master_seed=4)
    started = []

    def failing(self, key):
        started.append(key)
        if key[0] == 0:
            raise ValidationError("bad build")
        time.sleep(0.2)
        raise CapExceeded("later build")

    monkeypatch.setattr(SequentialDecoder, "_instrument", failing)
    monkeypatch.setattr(coding, "_workers", lambda dim: 2)
    with pytest.raises(ValidationError, match="^bad build$"):
        average_error(ch, books, prior)
    assert 1 <= len(started) <= 3
    assert threading.active_count() == threads


@pytest.mark.parametrize("error", [ValidationError("bad build"), CapExceeded("too big"),
                                   KeyboardInterrupt()], ids=lambda e: type(e).__name__)
def test_failed_decoder_task_raises_in_the_caller(monkeypatch, error):
    # from the third instrument build on, builds fail on the pool's
    # threads: average_error raises the error, and the threads are gone
    threads = threading.active_count()
    build, builds = coding.pgm_decoder, []

    def failing_build(*args, **kwargs):
        builds.append(1)
        if len(builds) >= 3:
            raise error
        return build(*args, **kwargs)

    monkeypatch.setattr(coding, "_workers", lambda dim: 2)
    monkeypatch.setattr(coding, "pgm_decoder", failing_build)
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 6, (3, 8), master_seed=4)
    with pytest.raises(type(error)):
        average_error(ch, books, prior)
    assert threading.active_count() == threads


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs pthread_kill")
def test_interrupt_while_waiting_for_decoder_tasks(monkeypatch):
    # Ctrl-C reaches the calling thread while it waits for the pool (after
    # the pool has started its threads): the interrupt is raised once the
    # running builds end, and the threads are gone
    threads = threading.active_count()
    main = threading.main_thread().ident
    build = SequentialDecoder._instrument

    def interrupting(self, key):
        if key[0] == 0:
            time.sleep(0.05)
            signal.pthread_kill(main, signal.SIGINT)
            time.sleep(0.2)
        return build(self, key)

    monkeypatch.setattr(SequentialDecoder, "_instrument", interrupting)
    monkeypatch.setattr(coding, "_workers", lambda dim: 2)
    tasks = recorded_tasks(monkeypatch)
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 6, (3, 8), master_seed=4)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            average_error(ch, books, prior)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert not tasks
    assert threading.active_count() == threads


def repeated_books(n: int) -> list[Codebook]:
    """Two qubit-pure-mac codebooks of n-letter words in which words repeat,
    also at the first and last messages."""
    a, b, c = (0,) * n, (1,) * n, (0, 1) * (n // 2)
    return [Codebook(0, n, (a, b, a, c, a, b)), Codebook(1, n, (c, c, b, a, c))]


@pytest.mark.parametrize("mode", ["exhaustive", "monte_carlo"])
@pytest.mark.parametrize("n", [2, 6], ids=["lazy", "pool"])
def test_identical_codewords_share_one_element_and_root(monkeypatch, n, mode):
    # a candidate's state depends only on its word, given the prefix, and its
    # weight is uniform: the kernel forms one element and root per distinct
    # (instrument, codeword) read, below block dimension 64 a chunk at a time
    # and from 64 on on the pool, and a repeated word's own element and root
    # equal the shared ones, bit for bit
    monkeypatch.setattr(coding, "_cpus", lambda: 2)
    monkeypatch.setattr(coding, "_blas", lambda: blas_reporting(1))
    assert coding._workers(2 ** n) == (1 if n == 2 else 2)
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = repeated_books(n)
    options = {"mode": mode}
    if mode == "monte_carlo":
        options.update(trials=40, seed=3)
    decoders, built, items = recorded_decoders(monkeypatch), recorded_instruments(monkeypatch), []
    kept, kernel = recorded_keeps(monkeypatch), coding._element_and_root

    def recorded_kernel(batch):
        items.extend((povm, i, threading.get_ident()) for povm, i, *_ in batch)
        return kernel(batch)

    monkeypatch.setattr(coding, "_element_and_root", recorded_kernel)
    report = average_error(ch, books, prior, **options)
    [decoder] = decoders
    instruments = dict(built[decoder])
    keys = {id(inst.povm): key for key, inst in instruments.items()}
    formed = [(keys[id(povm)], books[keys[id(povm)][0]].words[i]) for povm, i, _ in items]
    msgs = message_tuples([b.size for b in books], options.get("trials"), options.get("seed"))
    reads = {((i, tuple(books[j].words[m] for j, m in enumerate(row[:i]))), row[i])
             for row in msgs for i in range(ch.s)}
    words = {(key, books[key[0]].words[m]) for key, m in reads}
    assert len(words) < len(reads)   # some messages read repeat a word
    assert sorted(formed) == sorted(words)
    assert (threading.get_ident() in {t for *_, t in items}) == (n == 2)
    shared = 0
    for key, inst in instruments.items():
        book = books[key[0]].words
        for b, word in enumerate(book):
            first = book.index(word)
            if first != b and (inst.povm, first) in kept:
                element = inst.povm.element(b)
                assert element.tobytes() == kept[inst.povm, first]["element"]
                assert op_sqrt(element).tobytes() == kept[inst.povm, first]["root"]
                shared += 1
    assert shared
    assert close_report(report, average_error_loop(ch, books, prior, **options))


@pytest.mark.parametrize("mode", ["exhaustive", "monte_carlo"])
@pytest.mark.parametrize("senders", [2, 3])
def test_each_distinct_word_tuple_runs_once_across_chunks(monkeypatch, senders, mode):
    # codebooks of 16 two-letter binary words hold at most 4 distinct words:
    # each distinct tuple of first messages runs once, sorted, three to a
    # chunk, so the tuples reading one (stage, prefix) instrument straddle
    # chunks.  Each instrument is built once, the cache releases it after
    # the last chunk reading it (all but stage 0's), and per-tuple values
    # are added in tuple order, as the one-tuple loop adds them
    rng = np.random.default_rng(90 + senders)
    ch = (load_channel("qubit-pure-mac") if senders == 2
          else random_cq_channel(rng, (2, 2, 2), 2))
    prior = Prior(tuple(rng.dirichlet(np.ones(2)) for _ in range(senders)))
    books = random_books(rng, ch.sender_alphabets, 2, (16,) * senders)
    options = {"mode": mode}
    if mode == "monte_carlo":
        options.update(trials=300, seed=int(rng.integers(1 << 30)))
    decoders, built = recorded_decoders(monkeypatch), recorded_instruments(monkeypatch)
    dim = BlockChannel(ch, 2).output_dim
    monkeypatch.setattr(config, "CHUNK_BYTES", 3 * 16 * dim ** 2)
    report = average_error(ch, books, prior, **options)
    [decoder] = decoders
    keys = [key for key, _ in built[decoder]]
    msgs = message_tuples([b.size for b in books], options.get("trials"), options.get("seed"))
    assert len(keys) == len(set(keys)) == len(
        {(i, tuple(books[j].words[m] for j, m in enumerate(row[:i])))
         for row in msgs for i in range(senders)})
    assert (0, ()) in decoder._cache and len(decoder._cache) < len(keys)
    assert close_report(report, average_error_loop(ch, books, prior, **options))


@needs_openblas
def test_overlapping_average_error_calls_share_one_pin(monkeypatch):
    # call A holds its decoder build until call B has pinned BLAS, and B
    # builds only after A has returned: both build on one BLAS thread, and
    # the caller's count is back once both have returned.  Then more calls
    # than CPUs overlap with thread switches forced often: a lost update of
    # the shared pin would leave a build, or the caller, at a wrong count
    get, set_threads = coding._blas()
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 2, (2, 3), master_seed=4)
    b_pinned, a_returned = threading.Event(), threading.Event()
    built, errors = {}, []

    class Held(SequentialDecoder):
        def __init__(self, *args):
            name = threading.current_thread().name
            if name == "A":
                assert b_pinned.wait(30)
            elif name == "B":
                b_pinned.set()
                assert a_returned.wait(30)
            built.setdefault(name, set()).add(get())
            super().__init__(*args)

    def call(times=1):
        try:
            for _ in range(times):
                average_error(ch, books, prior)
        except BaseException as exc:
            errors.append(exc)
        finally:
            if threading.current_thread().name == "A":
                a_returned.set()

    def overlap(calls):
        set_threads(2)
        try:
            for thread in calls:
                thread.start()
            for thread in calls:
                thread.join(60)
            assert not any(thread.is_alive() for thread in calls)
            return get()
        finally:
            set_threads(caller)

    monkeypatch.setattr(coding, "SequentialDecoder", Held)
    caller = get()
    assert overlap([threading.Thread(target=call, name=name) for name in "AB"]) == 2
    assert not errors and built == {"A": {1}, "B": {1}}
    built.clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        calls = [threading.Thread(target=call, args=(5,), name=f"C{i}")
                 for i in range(2 * coding._cpus() + 2)]
        assert overlap(calls) == 2
    finally:
        sys.setswitchinterval(interval)
    assert not errors and set().union(*built.values()) == {1} and len(built) == len(calls)


@pytest.mark.parametrize("prefix, problem", [
    ([(1.7, 0)], "must hold integer letters"),
    ([(1, 0, 1)], "not a 2-letter word"),
    ([(5, 0)], "not a 2-letter word"),
    ([(-1, 0)], "not a 2-letter word"),
], ids=["float-letter", "long-word", "letter-outside-alphabet", "negative-letter"])
def test_stage_instrument_refuses_prefix_words_off_the_code_space(prefix, problem):
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    decoder = SequentialDecoder(ch, codebooks_from_seed(ch, prior, 2, (2, 2), 0), prior)
    cached = decoder.stage_instrument(1, [(1, 0)])
    assert decoder.stage_instrument(1, [np.array([1, 0])]) is cached   # numpy letters pass
    with pytest.raises(ValidationError, match=problem):
        decoder.stage_instrument(1, prefix)
