"""Acceptance suite.

One test per acceptance criterion, each printing a single pass/fail line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  Expected
values come from independent oracles: closed-form eigenvalues, a classical
Shannon-entropy implementation, maximum-posterior decoding, and a full
outcome-tree enumeration of the sequential decoder.
"""

import itertools
import json
import time

import numpy as np
import pytest

from qmac.channel import CqMacChannel, Prior, channel_state, load_channel
from qmac.checks import random_channel, random_prior, random_prior_vec
from qmac.cli import main as cli_main
from qmac.coding import (Codebook, SequentialDecoder, TenderInstrument,
                         average_error, codebooks_from_seed, disturbance_check,
                         pgm_decoder, run_simulation, sizes_from_rates,
                         tender_bound_check)
from qmac.entropy import (SubsystemSelector, average_conditional_entropy,
                          check_subadditivity, fano_bound_check,
                          subsystem_entropy, subsystem_entropy_dense)
from qmac.region import constraint_set, corner_table, is_member

import oracles

TOL = 1e-9


def report(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num:02d} failed: {text}"


@pytest.fixture(scope="module")
def random_instances():
    """200 random (channel, prior, channel state) triples shared by criteria 1-2."""
    rng = np.random.default_rng(20240817)
    out = []
    for _ in range(200):
        ch = random_channel(rng, max_senders=3, max_alphabet=3, max_output_dim=4)
        prior = random_prior(rng, ch)
        out.append((ch, prior, channel_state(ch, prior)))
    return out


def test_criterion_01_dual_path_entropy(random_instances):
    t0 = time.time()
    worst = 0.0
    checks = 0
    for ch, prior, e in random_instances:
        for mask in range(1 << ch.s):
            members = [i for i in range(ch.s) if mask >> i & 1]
            for quantum in (False, True):
                if not members and not quantum:
                    continue
                sel = SubsystemSelector.of(members, quantum)
                dev = abs(subsystem_entropy(e, sel) - subsystem_entropy_dense(e, sel))
                worst = max(worst, dev)
                checks += 1
    elapsed = time.time() - t0
    ok = worst <= TOL and elapsed < 60.0
    report(1, ok, f"block vs dense entropy on 200 channels: {checks} selectors, "
                  f"max deviation {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_mi_identity_and_positivity(random_instances):
    worst_gap = 0.0
    most_negative = 0.0
    checks = 0
    for ch, prior, e in random_instances:
        for mask in range(1, 1 << ch.s):
            members = frozenset(i for i in range(ch.s) if mask >> i & 1)
            comp = frozenset(range(ch.s)) - members
            form_a = (average_conditional_entropy(e, comp)
                      - average_conditional_entropy(e, range(ch.s)))
            form_b = (subsystem_entropy(e, SubsystemSelector.of(members))
                      + subsystem_entropy(e, SubsystemSelector.of(comp, quantum=True))
                      - subsystem_entropy(e, SubsystemSelector.of(range(ch.s), quantum=True)))
            worst_gap = max(worst_gap, abs(form_a - form_b))
            most_negative = min(most_negative, form_a, form_b)
            checks += 1
    ok = worst_gap <= TOL and most_negative >= -TOL
    report(2, ok, f"both mutual-information forms on {checks} subsets: "
                  f"max form gap {worst_gap:.3e}, most negative value {most_negative:.3e}")


def test_criterion_03_subadditivity_and_error_entropy_bound():
    t0 = time.time()
    rng = np.random.default_rng(314159)
    worst_slack = -np.inf
    for _ in range(500):
        a1, a2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        d1, d2 = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        v1 = [_rand_density(rng, d1) for _ in range(a1)]
        v2 = [_rand_density(rng, d2) for _ in range(a2)]
        q = rng.dirichlet(np.ones(a1 * a2)).reshape(a1, a2)
        worst_slack = max(worst_slack, check_subadditivity(v1, v2, q))
    worst_fano = -np.inf
    for _ in range(500):
        m, d, k = (int(rng.integers(2, 5)) for _ in range(3))
        ch = CqMacChannel((m,), d, {(x,): _rand_density(rng, d) for x in range(m)})
        e = channel_state(ch, Prior((random_prior_vec(rng, m),)))
        x_povm = np.stack([random_prior_vec(rng, k) for _ in range(m)], axis=1)
        y_povm = _rand_povm(rng, d, k)
        lhs, rhs = fano_bound_check(e, x_povm, y_povm)
        worst_fano = max(worst_fano, lhs - rhs)
    elapsed = time.time() - t0
    ok = worst_slack <= TOL and worst_fano <= TOL and elapsed < 60.0
    report(3, ok, f"500+500 instances: max subadditivity slack {worst_slack:.3e}, "
                  f"max lhs-rhs {worst_fano:.3e}, {elapsed:.1f}s")


def test_criterion_04_gentle_measurement_bounds():
    t0 = time.time()
    rng = np.random.default_rng(271828)
    worst_single = -np.inf
    done = 0
    while done < 1000:
        d = int(rng.integers(2, 9))
        rho = _rand_density(rng, d)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = g @ g.conj().T
        x /= np.linalg.eigvalsh(x)[-1] * (1.0 + float(rng.random()))
        if 1.0 - float(np.trace(rho @ x).real) >= 1.0 - 1e-12:
            continue
        eps, lhs, bound = disturbance_check(rho, x)
        worst_single = max(worst_single, lhs - bound)
        done += 1
    worst_state = -np.inf
    worst_avg = -np.inf
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(2, 5))
        states = [(a, _rand_density(rng, d)) for a in range(k)]
        inst = TenderInstrument.from_povm(pgm_decoder(states))
        check = tender_bound_check(states, inst, weights=random_prior_vec(rng, k))
        worst_state = max(worst_state, max(dist - b for _, _, dist, b in check.per_state))
        worst_avg = max(worst_avg, check.avg_disturbance - check.avg_bound)
    elapsed = time.time() - t0
    ok = (worst_single <= TOL and worst_state <= TOL and worst_avg <= TOL
          and elapsed < 120.0)
    report(4, ok, f"1000 single-operator + 1000 instrument instances: "
                  f"max excess {max(worst_single, worst_state, worst_avg):.3e}, "
                  f"{elapsed:.1f}s")


def test_criterion_05_corner_laws():
    rng = np.random.default_rng(161803)
    worst_tel = 0.0
    all_member = True
    corners_checked = 0
    for _ in range(200):
        ch = random_channel(rng, max_senders=3, max_alphabet=3, max_output_dim=4)
        prior = random_prior(rng, ch)
        cs = constraint_set(ch, prior)
        full = (1 << ch.s) - 1
        for perm, point in corner_table(ch, prior).items():
            worst_tel = max(worst_tel, abs(sum(point.rates) - cs.bounds[full]))
            all_member = all_member and is_member(point, cs, TOL)
            corners_checked += 1
    ok = worst_tel <= TOL and all_member
    report(5, ok, f"{corners_checked} corners over 200 channels: "
                  f"max telescoping gap {worst_tel:.3e}, all members={all_member}")


def test_criterion_06_classical_oracle_equivalence():
    ch = load_channel("adder-classical")
    prior = Prior.uniform((2, 2))
    cs = constraint_set(ch, prior)
    cond = {letters: np.diag(ch.state(letters)).real for letters in ch.joint_letters()}
    joint = oracles.classical_joint(list(prior.per_sender), cond)
    dev = max(
        abs(cs.bounds[1] - oracles.classical_bound(joint, (0,))),
        abs(cs.bounds[2] - oracles.classical_bound(joint, (1,))),
        abs(cs.bounds[3] - oracles.classical_bound(joint, (0, 1))),
        abs(cs.bounds[1] - 1.0), abs(cs.bounds[2] - 1.0), abs(cs.bounds[3] - 1.5),
    )
    corners = corner_table(ch, prior)
    dev = max(dev,
              max(abs(a - b) for a, b in zip(corners[(0, 1)].rates,
                                             oracles.classical_corner(joint, (0, 1)))),
              max(abs(a - b) for a, b in zip(corners[(1, 0)].rates,
                                             oracles.classical_corner(joint, (1, 0)))),
              max(abs(a - b) for a, b in zip(corners[(0, 1)].rates, (0.5, 1.0))),
              max(abs(a - b) for a, b in zip(corners[(1, 0)].rates, (1.0, 0.5))))
    rng = np.random.default_rng(42424242)
    for _ in range(50):
        dch = oracles.random_diagonal_channel(rng)
        dprior = random_prior(rng, dch)
        dcs = constraint_set(dch, dprior)
        dcond = {letters: np.diag(dch.state(letters)).real
                 for letters in dch.joint_letters()}
        djoint = oracles.classical_joint(list(dprior.per_sender), dcond)
        for mask in dcs.bounds:
            members = [i for i in range(dch.s) if mask >> i & 1]
            dev = max(dev, abs(dcs.bounds[mask] - oracles.classical_bound(djoint, members)))
    ok = dev <= TOL
    report(6, ok, f"adder + 50 random diagonal channels vs Shannon oracle: "
                  f"max deviation {dev:.3e}")


def test_criterion_07_single_sender_holevo_value():
    ch = load_channel("holevo-two-state")
    bound = constraint_set(ch, Prior.uniform((2,))).bounds[1]
    # closed form: eigenvalues (1 +- 2^-1/2)/2 of the average state
    lam = (1.0 + 2.0 ** -0.5) / 2.0
    closed = -(lam * np.log2(lam) + (1.0 - lam) * np.log2(1.0 - lam))
    ok = abs(bound - closed) <= 1e-5 and abs(closed - 0.60088) < 5e-6
    report(7, ok, f"two-state bound {bound:.10f} vs closed form {closed:.10f}")


def test_criterion_08_coding_sanity():
    states = {}
    for x1 in range(2):
        for x2 in range(2):
            m = np.zeros((4, 4), dtype=complex)
            m[2 * x1 + x2, 2 * x1 + x2] = 1.0
            states[(x1, x2)] = m
    orth = CqMacChannel((2, 2), 4, states)
    prior = Prior.uniform((2, 2))
    books = [Codebook(0, 1, ((0,), (1,))), Codebook(1, 1, ((0,), (1,)))]
    r_orth = average_error(orth, books, prior)

    const = CqMacChannel(
        (2, 2), 2, {k: np.diag([0.6, 0.4]).astype(complex)
                    for k in itertools.product(range(2), range(2))})
    r_const = average_error(const, books, prior)
    success = 1.0 - r_const.avg_error
    ok = r_orth.avg_error <= 1e-12 and success <= 0.25 + TOL
    report(8, ok, f"orthogonal error {r_orth.avg_error:.2e}, "
                  f"constant-channel success {success:.12f} <= 0.25")


def test_criterion_09_achievability_trend(monkeypatch):
    monkeypatch.setenv("QMAC_MAX_DIM", "64")
    t0 = time.time()
    ch = load_channel("qubit-pure-mac")
    prior = Prior.uniform((2, 2))
    half = [0.5 * r for r in corner_table(ch, prior)[(0, 1)].rates]
    master_seed = 10
    errors = {}
    for n in (2, 4, 6):
        rep = run_simulation(ch, prior, n, sizes_from_rates(half, n), master_seed=master_seed)
        errors[n] = rep.avg_error
    monotone = errors[6] < errors[4] < errors[2]

    # brute force for n=2: enumerate every outcome chain of the instrument tree
    n = 2
    sizes = sizes_from_rates(half, n)
    books = codebooks_from_seed(ch, prior, n, sizes, master_seed)
    decoder = SequentialDecoder(ch, books, prior)
    tree_err = 0.0
    count = 0
    for msg in itertools.product(*(range(L) for L in sizes)):
        correct, total = oracles.decode_tree(
            ch, books, prior, msg, decoder.stage_instrument,
            lambda words: oracles.word_states(ch, words))
        assert abs(total - 1.0) <= TOL
        tree_err += 1.0 - correct
        count += 1
    tree_err /= count
    gap = abs(errors[2] - tree_err)
    elapsed = time.time() - t0
    ok = monotone and gap <= TOL and elapsed < 300.0
    report(9, ok, f"errors n=2:{errors[2]:.6f} > n=4:{errors[4]:.6f} > "
                  f"n=6:{errors[6]:.6f}; chain vs outcome tree gap {gap:.3e}; "
                  f"{elapsed:.1f}s")


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    paths = [tmp_path / f"r{i}.json" for i in range(4)]
    sim_args = ["simulate", "--channel", "qubit-pure-mac", "--n", "3",
                "--sizes", "2,2", "--seed", "99", "--mode", "mc", "--trials", "40"]
    assert cli_main(sim_args + ["--out", str(paths[0])]) == 0
    assert cli_main(sim_args + ["--out", str(paths[1])]) == 0
    reg_args = ["region", "--channel", "qubit-pure-mac", "--sweep", "2",
                "--format", "json"]
    assert cli_main(reg_args + ["--out", str(paths[2])]) == 0
    assert cli_main(reg_args + ["--out", str(paths[3])]) == 0
    capsys.readouterr()
    sim_equal = paths[0].read_bytes() == paths[1].read_bytes()
    reg_equal = paths[2].read_bytes() == paths[3].read_bytes()
    doc = json.loads(paths[0].read_text())
    ok = sim_equal and reg_equal and "avg_error" in doc
    report(10, ok, f"simulate rerun identical={sim_equal}, "
                   f"region rerun identical={reg_equal}")


# --- local helpers (independent of qmac.checks generators where it matters) ----

def _rand_density(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _rand_povm(rng, d, k):
    mats = []
    for _ in range(k):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mats.append(g @ g.conj().T)
    total = sum(mats)
    w, v = np.linalg.eigh(total)
    inv_root = (v * (1.0 / np.sqrt(w))) @ v.conj().T
    return [inv_root @ m @ inv_root for m in mats]
