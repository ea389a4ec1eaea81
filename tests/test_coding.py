import itertools
import json

import numpy as np
import pytest

from qmac import entropy
from qmac.catalog import load_builtin_channel
from qmac.channel import CqMacChannel, Prior, block_channel
from qmac.coding import (FAIL, Codebook, Povm, SequentialDecoder, TenderInstrument,
                         average_error, codebooks_from_seed, disturbance_check,
                         pgm_decoder, run_simulation, sample_codebook,
                         sizes_from_rates, tender_bound_check)
from qmac.config import CapExceeded
from qmac.checks import random_density
from qmac.operators import ValidationError, check_povm, op_sqrt, trace_norm
from qmac.region import corner_table

from oracles import (average_error_loop, explicit_leak, map_error, tender_apply,
                     two_pure_state_pgm_success)

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


def test_derived_seeds_are_stable():
    books1 = codebooks_from_seed(orthogonal_channel(), Prior.uniform((2, 2)), 3, (2, 2), 7)
    books2 = codebooks_from_seed(orthogonal_channel(), Prior.uniform((2, 2)), 3, (2, 2), 7)
    assert [b.words for b in books1] == [b.words for b in books2]
    assert [b.seed for b in books1] == [b.seed for b in books2]


def test_sizes_from_rates():
    assert sizes_from_rates([0.5, 1.0], 2) == [2, 4]
    assert sizes_from_rates([0.0], 4) == [1]
    assert sizes_from_rates([1.0], 2, delta=1.0) == [1]
    assert sizes_from_rates([1.0], 12) == [4096]
    with pytest.raises(CapExceeded):
        sizes_from_rates([1e6, 1.0], 2)
    with pytest.raises(CapExceeded):
        sizes_from_rates([1.0], 13)


# --- stage word states ----------------------------------------------------------

def test_single_sender_word_state_is_block_state():
    ch = load_builtin_channel("holevo-two-state")
    decoder = SequentialDecoder(ch, [Codebook(0, 2, ((0, 1),))], Prior.uniform((2,)))
    states = decoder.stage_states(0, [])
    assert len(states) == 1
    want = np.kron(ch.state((0,)), ch.state((1,)))
    assert np.max(np.abs(states[0][1] - want)) < 1e-12


def test_adder_first_stage_hand_average():
    ch = load_builtin_channel("adder-classical")
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
    ch = load_builtin_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    n = 2
    books = full_binary_books(n)
    decoder = SequentialDecoder(ch, books, prior)
    block = block_channel(ch, n)
    words = books[0].words
    for m, rho in decoder.stage_states(0, []):
        want = sum(block.state_for_words([words[m], w]) for w in words) / len(words)
        assert np.max(np.abs(rho - want)) <= 1e-12
    for prefix in words:
        for m, rho in decoder.stage_states(1, [prefix]):
            assert np.max(np.abs(rho - block.state_for_words([prefix, words[m]]))) <= 1e-12


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


def test_state_weights_rejected_unless_probability_vector():
    states = [(0, Z0), (1, PLUS)]
    inst = TenderInstrument.from_povm(pgm_decoder(states))
    for bad in ([float("nan"), 1.0], [0.5, 0.6], [-0.5, 1.5], [1.0]):
        with pytest.raises(ValidationError, match="probability vector"):
            pgm_decoder(states, weights=bad)
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
    inst = TenderInstrument.from_povm(povm)
    for label in (2, None, "0", [0]):
        with pytest.raises(ValidationError, match="POVM has no outcome"):
            povm.element(label)
        with pytest.raises(ValidationError, match="instrument has no outcome"):
            inst.sqrt_element(label)
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
        assert [lab for lab, _ in inst.sqrt_elements] == [lab for lab, _ in povm.elements]
        for (_, root), (_, elem) in zip(inst.sqrt_elements, povm.elements):
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
        root = inst.sqrt_element(lab)
        assert np.array_equal(root, op_sqrt(povm.element(lab)))
        assert inst.sqrt_element(lab) is root
        assert sum(computed) == 1
        assert [b for b, _ in inst.sqrt_elements] == labels
        assert sum(computed) == len(labels)
        for b, r in inst.sqrt_elements:
            assert np.array_equal(r, op_sqrt(povm.element(b)))


def test_simulator_roots_each_computed_once_in_stacks(monkeypatch):
    # the simulator reads roots through the same cache as sqrt_element: each
    # outcome it reads gets one root, computed in a stacked call per stage
    # and chunk, equal to the root computed alone
    ch = load_builtin_channel("qubit-pure-mac")
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
    # read: every stage-0 outcome, and at stage 1 every outcome of each
    # distinct stage-0 word (the duplicate word shares its instrument)
    assert sum(computed) == 3 + 2 * 2
    assert len(computed) == 2   # one chunk, one stacked call per stage
    [decoder] = decoders
    computed.clear()
    for i, prefix, labels in [(0, [], range(3))] + [(1, [w], range(2)) for w in books[0].words]:
        inst = decoder.stage_instrument(i, prefix)
        for b in labels:
            assert np.array_equal(inst.sqrt_element(b), op_sqrt(inst.povm.element(b)))
    assert not computed   # every root read above was the simulator's


def test_identity_leak_equals_explicit_sum():
    rng = np.random.default_rng(54)
    for _ in range(40):
        d = int(rng.integers(2, 7))
        states = [(a, random_density(rng, d)) for a in range(int(rng.integers(2, 6)))]
        inst = TenderInstrument.from_povm(pgm_decoder(states))
        check = tender_bound_check(states, inst)
        for (a, rho), (_, _, dist, _) in zip(states, check.per_state):
            root = inst.sqrt_element(a)
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


def same_report(a, b) -> bool:
    return (a.to_json_dict() == b.to_json_dict()
            and json.dumps(a.to_json_dict()) == json.dumps(b.to_json_dict()))


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
    assert same_report(average_error(ch, books, prior), average_error_loop(ch, books, prior))
    mc = dict(mode="monte_carlo", trials=7, seed=int(rng.integers(1 << 30)))
    assert same_report(average_error(ch, books, prior, **mc),
                       average_error_loop(ch, books, prior, **mc))


def test_chunked_simulator_duplicate_words_and_fail_outcome():
    # letter states supported on 2 of 3 dimensions: each stage's average lives
    # on 4 of the 9 block dimensions, so its PGM has a FAIL outcome; every
    # codebook repeats a word
    def pure(t):
        v = np.array([np.cos(t), np.sin(t), 0.0])
        return np.outer(v, v).astype(complex)

    ch = CqMacChannel((2, 2), 3, {(x1, x2): pure(0.7 * x1 + 0.3 * x2)
                                  for x1 in range(2) for x2 in range(2)})
    prior = Prior.uniform((2, 2))
    books = [Codebook(0, 2, ((0, 1), (1, 0), (0, 1))),
             Codebook(1, 2, ((1, 1), (1, 1), (0, 1), (1, 1)))]
    decoder = SequentialDecoder(ch, books, prior)
    assert FAIL in [lab for lab, _ in decoder.stage_instrument(0, []).povm.elements]
    assert same_report(average_error(ch, books, prior), average_error_loop(ch, books, prior))
    report = run_simulation(ch, prior, 2, (3, 4), master_seed=8, mode="monte_carlo", trials=9)
    books = codebooks_from_seed(ch, prior, 2, (3, 4), 8)
    want = average_error_loop(ch, books, prior, mode="monte_carlo", trials=9,
                              seed=report.trial_seed, master_seed=8)
    assert same_report(report, want)


@pytest.mark.parametrize("per_chunk", [1, 3, 7])
def test_chunk_size_does_not_change_the_report(monkeypatch, per_chunk):
    ch = load_builtin_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 2, (4, 5), master_seed=12)
    one_chunk = average_error(ch, books, prior)   # 20 tuples of 4x4 fit in one chunk
    assert 20 * 16 * 4 * 4 <= entropy.CHUNK_BYTES
    monkeypatch.setattr(entropy, "CHUNK_BYTES", per_chunk * 16 * 4 * 4)
    assert same_report(average_error(ch, books, prior), one_chunk)


def test_decoder_povms_equal_the_checked_public_build():
    rng = np.random.default_rng(57)
    ch = random_cq_channel(rng, (2, 3), 2)
    prior = Prior.uniform((2, 3))
    books = random_books(rng, (2, 3), 2, (3, 4))
    decoder = SequentialDecoder(ch, books, prior)
    for i, prefix in [(0, [])] + [(1, [w]) for w in books[0].words]:
        povm = decoder.stage_instrument(i, prefix).povm
        public = pgm_decoder(decoder.stage_states(i, prefix))
        assert [lab for lab, _ in povm.elements] == [lab for lab, _ in public.elements]
        assert all(np.array_equal(a, b) for a, b in zip(povm.matrices, public.matrices))
        check_povm(povm.matrices, povm.dim)


def test_orthogonal_noiseless_decodes_perfectly():
    ch = orthogonal_channel()
    report = average_error(ch, full_binary_books(), Prior.uniform((2, 2)))
    assert report.avg_error <= 1e-12


def test_constant_channel_success_bounded():
    ch = constant_channel()
    report = average_error(ch, full_binary_books(), Prior.uniform((2, 2)))
    assert 1.0 - report.avg_error <= 0.25 + 1e-9


def test_chain_weights_non_increasing():
    ch = load_builtin_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    books = codebooks_from_seed(ch, prior, 3, (2, 2), master_seed=5)
    report = average_error(ch, books, prior)
    weights = report.stage_success
    assert weights[0] <= 1.0 + 1e-12
    assert all(b <= a + 1e-12 for a, b in zip(weights, weights[1:]))
    assert abs(report.avg_error - (1.0 - weights[-1])) < 1e-12


def test_monte_carlo_reports_are_deterministic():
    ch = load_builtin_channel("qubit-pure-mac")
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


def test_adder_longer_blocks_decode_better():
    ch = load_builtin_channel("adder-classical")
    prior = Prior.uniform((2, 2))
    quarter = [0.25 * r for r in corner_table(ch, prior)[(0, 1)].rates]
    r1 = run_simulation(ch, prior, 1, sizes_from_rates(quarter, 1), master_seed=2)
    r4 = run_simulation(ch, prior, 4, sizes_from_rates(quarter, 4), master_seed=2)
    assert r4.avg_error < 0.5
    assert r4.avg_error < r1.avg_error


def test_stage_disturbance_respects_average_bound():
    ch = load_builtin_channel("qubit-pure-mac")
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
        w = rng.dirichlet(np.ones(m))
        povm = pgm_decoder([(i, np.diag(qs[i]).astype(complex)) for i in range(m)], w)
        success = sum(w[i] * np.trace(np.diag(qs[i]) @ povm.element(i)).real
                      for i in range(m))
        assert 1.0 - success >= map_error(qs, w) - 1e-9


def test_nearly_parallel_pure_states_still_build_valid_decoders():
    # tiny rotation angles make the averaged word states almost singular;
    # the decoder construction must stay a valid POVM regardless
    def pure(t):
        v = np.array([np.cos(t), np.sin(t)])
        return np.outer(v, v).astype(complex)

    ch = CqMacChannel((2, 2), 2, {(x1, x2): pure(0.05 * x1 + 0.02 * x2)
                                      for x1 in range(2) for x2 in range(2)})
    report = run_simulation(ch, Prior.uniform((2, 2)), 6, (2, 2),
                            master_seed=3, max_block_dim=64)
    assert 0.0 <= report.avg_error <= 1.0


def test_diagonal_pgm_equals_map_on_disjoint_supports():
    qs = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.5, 0.5])]
    povm = pgm_decoder([(0, np.diag(qs[0]).astype(complex)),
                        (1, np.diag(qs[1]).astype(complex))])
    success = 0.5 * np.trace(np.diag(qs[0]) @ povm.element(0)).real \
        + 0.5 * np.trace(np.diag(qs[1]) @ povm.element(1)).real
    assert abs((1.0 - success) - map_error(qs, [0.5, 0.5])) <= 1e-9
