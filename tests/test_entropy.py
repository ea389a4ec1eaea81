import functools
import itertools
import json

import numpy as np
import pytest

from qmac.channel import (CqMacChannel, Prior, channel_state, load_channel,
                          make_ensemble, mask_members)
from qmac.checks import random_channel, random_density, random_prior
from qmac.entropy import (SubsystemSelector, average_conditional_entropy,
                          check_subadditivity, conditional_entropy,
                          entropy_tables, fano_bound_check, mutual_information,
                          restrict, subsystem_entropy, subsystem_entropy_dense)
from qmac.operators import ValidationError
from qmac.region import constraint_set, prior_grid, prior_tables

from oracles import (classical_bound, classical_joint, count_checked_states, entropy_table,
                     entropy_tables_full, info_report, shannon, state_entropy_loop,
                     two_pure_state_chi)

Z0 = np.array([[1, 0], [0, 0]], dtype=complex)
Z1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)

# closed-form value of the two-state example, h((1 + 2^-1/2)/2)
TWO_STATE_CHI = 0.6008760366928562


def two_state_ensemble():
    return make_ensemble((2,), 2, [((0,), 0.5, Z0), ((1,), 0.5, PLUS)])


def adder_state(prior=None):
    ch = load_channel("adder-classical")
    return channel_state(ch, prior or Prior.uniform(ch.sender_alphabets))


def adder_joint(prior_vecs=((0.5, 0.5), (0.5, 0.5))):
    cond = {(a, b): [0.0, 0.0, 0.0] for a in range(2) for b in range(2)}
    for a in range(2):
        for b in range(2):
            cond[(a, b)][a + b] = 1.0
    return classical_joint([np.asarray(v) for v in prior_vecs], cond)


# --- selectors and restriction --------------------------------------------------

def test_selector_keys():
    assert SubsystemSelector.of((0,), False).key() == "1"
    assert SubsystemSelector.of((0, 1), True).key() == "3+Y"
    assert SubsystemSelector.of((), True).key() == "Y"


def test_empty_selector_rejected():
    e = two_state_ensemble()
    with pytest.raises(ValidationError, match="empty selector"):
        restrict(e, SubsystemSelector.of((), False))


def test_restrict_full_selector_is_identity():
    e = adder_state()
    r = restrict(e, SubsystemSelector.of((0, 1), True))
    assert r.label_spaces == e.label_spaces
    for (l1, p1, rho1), (l2, p2, rho2) in zip(r.atoms, e.atoms):
        assert l1 == l2 and abs(p1 - p2) < 1e-15
        assert np.max(np.abs(rho1 - rho2)) < 1e-15


def test_restrict_classical_only_gives_prior():
    e = adder_state(Prior((np.array([0.3, 0.7]), np.array([0.5, 0.5]))))
    r = restrict(e, SubsystemSelector.of((0,), False))
    assert r.quantum_dim == 1
    probs = {label: p for label, p, _ in r.atoms}
    assert abs(probs[(0,)] - 0.3) < 1e-12 and abs(probs[(1,)] - 0.7) < 1e-12


def test_restrict_quantum_only_averages():
    e = two_state_ensemble()
    r = restrict(e, SubsystemSelector.of((), True))
    assert len(r.atoms) == 1
    assert np.allclose(r.atoms[0][2], np.array([[0.75, 0.25], [0.25, 0.25]]))


# --- subsystem entropy ------------------------------------------------------------

def test_entropy_uniform_labels():
    e = make_ensemble((4,), 1, [((i,), 0.25, np.eye(1)) for i in range(4)])
    assert abs(subsystem_entropy(e, SubsystemSelector.of((0,))) - 2.0) < 1e-12


def test_entropy_single_pure_atom():
    e = make_ensemble((1,), 2, [((0,), 1.0, Z0)])
    sel = SubsystemSelector.of((0,), True)
    assert abs(subsystem_entropy(e, sel)) < 1e-12


def test_entropy_two_state_quantum_only():
    e = two_state_ensemble()
    h = subsystem_entropy(e, SubsystemSelector.of((), True))
    assert abs(h - TWO_STATE_CHI) < 1e-9
    assert abs(h - two_pure_state_chi(0.5)) < 1e-9


def test_dense_oracle_agrees_on_examples():
    for e in (two_state_ensemble(), adder_state()):
        arity = len(e.label_spaces)
        for mask in range(1 << arity):
            members = [i for i in range(arity) if mask >> i & 1]
            for quantum in (False, True):
                if not members and not quantum:
                    continue
                sel = SubsystemSelector.of(members, quantum)
                assert abs(subsystem_entropy(e, sel)
                           - subsystem_entropy_dense(e, sel)) <= 1e-9


# --- batched table against the per-block oracle ----------------------------------

def kernel_channel(rng, s, max_alphabet=3, max_dim=4):
    """Random channel whose first state has trace 1 + 5e-11, inside the trace
    tolerance: conditional states are normalized by prior mass, not by trace."""
    alphabets = tuple(int(rng.integers(1, max_alphabet + 1)) for _ in range(s))
    d = int(rng.integers(1, max_dim + 1))
    states = {x: random_density(rng, d) for x in itertools.product(*map(range, alphabets))}
    states[(0,) * s] = states[(0,) * s] * (1 + 5e-11)
    return CqMacChannel(alphabets, d, states)


def edge_priors(rng, alphabets):
    """Random priors, and priors with zero entries, entries below the 1e-15
    atom floor, and point masses."""
    def vec(a, kind):
        if kind == "random" or a == 1:
            return rng.dirichlet(np.ones(a))
        v = np.zeros(a)
        if kind == "point":
            v[int(rng.integers(a))] = 1.0
        elif kind == "zero":
            v[1:] = rng.dirichlet(np.ones(a - 1))
        else:  # tiny: one entry straddling the floor, the rest random
            v[0] = float(rng.choice([3e-16, 2e-15, 4e-13]))
            v[1:] = rng.dirichlet(np.ones(a - 1)) * (1.0 - v[0])
        return v
    return [Prior(tuple(vec(a, kind) for a in alphabets))
            for kind in ("random", "zero", "tiny", "point", "tiny")]


def joint_weights(priors):
    return np.stack([
        functools.reduce(np.multiply.outer, prior.per_sender) for prior in priors
    ])


def sender_factors(priors):
    """One (P, 1, ..., a_i, ..., 1) factor per sender."""
    s = len(priors[0].per_sender)
    return [np.array([prior.per_sender[i] for prior in priors]).reshape(
                (len(priors),) + tuple(-1 if j == i else 1 for j in range(s)))
            for i in range(s)]


def test_entropy_tables_match_restrict_oracle():
    rng = np.random.default_rng(71)
    for trial in range(40):
        ch = kernel_channel(rng, s=1 + trial % 3)
        priors = edge_priors(rng, ch.sender_alphabets)
        states = np.array([ch.state(x) for x in ch.joint_letters()]).reshape(
            ch.sender_alphabets + (ch.output_dim,) * 2)
        tables = entropy_tables([joint_weights(priors)], states).tolist()
        # per-sender factors multiply to the same weights in the same order, so
        # the classical columns agree bit for bit; a kept sender's factor does
        # not enter the group states, so the quantum columns agree within 1e-12
        by_sender = entropy_tables(sender_factors(priors), states)
        assert by_sender[:, :, 0].tolist() == np.array(tables)[:, :, 0].tolist()
        assert np.max(np.abs(by_sender - tables)) <= 1e-12
        assert np.shape(tables) == (len(priors), 1 << ch.s, 2)
        for prior, table in zip(priors, tables):
            e = channel_state(ch, prior)
            assert np.max(np.abs(np.subtract(entropy_table(e), table))) <= 1e-12
            assert table[0][0] == 0.0
            for mask in range(1 << ch.s):
                for quantum in (0, 1):
                    if mask or quantum:
                        oracle = subsystem_entropy(
                            e, SubsystemSelector.of(mask_members(mask), quantum))
                        assert abs(table[mask][quantum] - oracle) <= 1e-12


def assert_tables_match_full_weights(priors, states):
    """Both factor forms, the whole stack and each prior alone (P = 1),
    within 1e-12 of the full-weight oracle."""
    oracle = entropy_tables_full(sender_factors(priors), states)
    for form in (sender_factors, lambda ps: [joint_weights(ps)]):
        assert np.max(np.abs(entropy_tables(form(priors), states) - oracle)) <= 1e-12
        for prior, row in zip(priors, oracle):
            assert np.max(np.abs(entropy_tables(form([prior]), states)[0] - row)) <= 1e-12


def test_keyed_group_states_match_the_full_weight_oracle():
    rng = np.random.default_rng(76)
    for trial in range(32):   # random 1-4-sender channels, d = 1 among them
        s = 1 + trial % 4
        ch = kernel_channel(rng, s, max_alphabet=3 if s < 4 else 2, max_dim=4 if s < 4 else 3)
        assert_tables_match_full_weights(edge_priors(rng, ch.sender_alphabets), ch.states)
    for s in (1, 2, 3):       # d = 1 by construction
        alphabets = tuple(int(a) for a in rng.integers(1, 4, size=s))
        ch = CqMacChannel(alphabets, 1, {x: np.eye(1) for x in itertools.product(
            *map(range, alphabets))})
        assert_tables_match_full_weights(edge_priors(rng, alphabets), ch.states)
    # a 3-sender binary grid: 7 vectors per sender, each shared by 49 priors
    ch = CqMacChannel((2, 2, 2), 3, {x: random_density(rng, 3)
                                     for x in itertools.product(range(2), repeat=3)})
    compositions, index = prior_grid(ch.sender_alphabets, 6)
    grid = [Prior(tuple(c[i] for c, i in zip(compositions, column))) for column in index.T]
    assert_tables_match_full_weights(grid, ch.states)
    # a mixture's priors that share sender vectors, and the channel's table memo
    ch = kernel_channel(rng, 3, max_dim=4)
    vecs = [[rng.dirichlet(np.ones(a)) for _ in range(2)] for a in ch.sender_alphabets]
    mixture = [Prior(tuple(vecs[i][pick >> i & 1] for i in range(3))) for pick in (0, 1, 3, 5, 6)]
    assert_tables_match_full_weights(mixture, ch.states)
    oracle = entropy_tables_full(sender_factors(mixture), ch.states)
    assert np.max(np.abs(np.array(prior_tables(ch, mixture)) - oracle)) <= 1e-12


def test_a_label_below_the_floor_leaves_its_group_state():
    # label 1 weighs 5e-16, below the 1e-15 floor, so the averaged state is
    # |0><0| and H(Y) is H(X); kept, label 1 would add about 7e-16 to H(Y)
    states = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]).astype(complex)
    table = entropy_tables([np.array([[1 - 5e-16, 5e-16]])], states)[0]
    assert table[0][1] == table[1][0]


def test_table_bounds_match_mutual_information_up_to_four_senders():
    rng = np.random.default_rng(72)
    for trial in range(24):
        s = 1 + trial % 4
        ch = kernel_channel(rng, s, max_alphabet=3 if s < 4 else 2, max_dim=4 if s < 4 else 3)
        for prior in edge_priors(rng, ch.sender_alphabets):
            e = channel_state(ch, prior)
            cs = constraint_set(ch, prior)
            for mask in range(1, 1 << s):
                assert abs(cs.bounds[mask] - mutual_information(e, mask_members(mask))) <= 1e-12


# --- the per-ensemble block memo ----------------------------------------------------

def all_selectors(arity):
    return [SubsystemSelector.of(mask_members(mask), quantum)
            for mask in range(1 << arity) for quantum in (0, 1) if mask or quantum]


def oracle_calls(e):
    """(key, oracle, arguments) asking for every block, averaged conditional
    entropy, conditional entropy and mutual information of an ensemble."""
    arity = len(e.label_spaces)
    y = SubsystemSelector.of((), True)
    calls = [(("H", sel.key()), subsystem_entropy, (sel,)) for sel in all_selectors(arity)]
    for mask in range(1 << arity):
        members = mask_members(mask)
        calls.append((("H(Y|X)", mask), average_conditional_entropy, (members,)))
        calls.append((("cond", mask), conditional_entropy, (y, SubsystemSelector.of(members))))
        if mask:
            calls.append((("I", mask), mutual_information, (members,)))
    return calls


def subadditivity_joint(rng):
    """A joint ensemble as `check_subadditivity` builds it, d = d1 * d2 <= 9."""
    a1, a2, d1, d2 = (int(x) for x in rng.integers(2, 4, size=4))
    v1 = [random_density(rng, d1) for _ in range(a1)]
    v2 = [random_density(rng, d2) for _ in range(a2)]
    q = rng.dirichlet(np.ones(a1 * a2)).reshape(a1, a2)
    return make_ensemble((a1, a2), d1 * d2,
                         (((x1, x2), q[x1, x2], np.kron(v1[x1], v2[x2]))
                          for x1 in range(a1) for x2 in range(a2)))


def test_batched_state_entropy_equals_the_atom_loop():
    rng = np.random.default_rng(81)
    ensembles = []
    for _ in range(20):
        ch = random_channel(rng, max_output_dim=4)
        ensembles.append(channel_state(ch, random_prior(rng, ch)))
        ensembles.append(subadditivity_joint(rng))
        d = int(rng.integers(2, 5))
        ensembles.append(make_ensemble((1,), d, [((0,), 1.0, random_density(rng, d))]))
    assert {e.quantum_dim for e in ensembles} == {2, 3, 4, 6, 9}
    for e in ensembles:
        arity = len(e.label_spaces)
        for mask in range(1 << arity):
            members = mask_members(mask)
            r = restrict(e, SubsystemSelector.of(members, True))
            assert average_conditional_entropy(e, members) == state_entropy_loop(r)
        # the empty conditioner restricts to one atom, the averaged state
        assert len(restrict(e, SubsystemSelector.of((), True)).atoms) == 1


def test_warm_block_memo_returns_the_cold_floats():
    rng = np.random.default_rng(82)
    for _ in range(12):
        ch = random_channel(rng)
        prior = random_prior(rng, ch)
        warm = channel_state(ch, prior)
        shown = repr(warm)
        calls = oracle_calls(warm)
        for _, fn, args in calls:        # fill the memo
            fn(warm, *args)
        warm_values = {key: fn(warm, *args) for key, fn, args in calls}
        # each value again on a fresh ensemble, asked in the reverse order
        cold_values = {key: fn(channel_state(ch, prior), *args)
                       for key, fn, args in reversed(calls)}
        assert warm_values == cold_values
        assert len(warm.block_memo) == 2 * (1 << ch.s) - 1
        assert repr(warm) == shown      # the memo is not a field


def test_block_memo_survives_a_mutated_input():
    rho = PLUS.copy()
    e = make_ensemble((2,), 2, [((0,), 0.5, Z0), ((1,), 0.5, rho)])
    sel = SubsystemSelector.of((), True)
    before = subsystem_entropy(e, sel)
    rho[:] = Z1
    assert subsystem_entropy(e, sel) == before == subsystem_entropy(two_state_ensemble(), sel)
    stored = e.atoms[1][2]
    assert stored is not rho and not stored.flags.writeable
    with pytest.raises(ValueError):
        stored[0, 0] = 0.0


# --- conditional entropy -----------------------------------------------------------

def test_conditional_empty_conditioner():
    e = adder_state()
    b = SubsystemSelector.of((), True)
    assert conditional_entropy(e, b, SubsystemSelector.of(())) == subsystem_entropy(e, b)


def test_conditional_independence():
    # product ensemble: labels independent of a fixed quantum state
    e = make_ensemble((2,), 2, [((0,), 0.5, PLUS), ((1,), 0.5, PLUS)])
    hb = subsystem_entropy(e, SubsystemSelector.of((0,)))
    cond = conditional_entropy(e, SubsystemSelector.of((0,)),
                               SubsystemSelector.of((), True))
    assert abs(cond - hb) < 1e-12


def test_conditional_deterministic_channel():
    e = adder_state()
    cond = conditional_entropy(e, SubsystemSelector.of((), True),
                               SubsystemSelector.of((0, 1)))
    assert abs(cond) < 1e-12


def test_conditional_rejects_overlap():
    e = adder_state()
    with pytest.raises(ValidationError, match="disjoint"):
        conditional_entropy(e, SubsystemSelector.of((0,)), SubsystemSelector.of((0, 1)))


# --- mutual information --------------------------------------------------------------

def test_mi_constant_channel_is_zero():
    states = {k: np.eye(2) / 2 for k in itertools.product(range(2), range(2))}
    ch = CqMacChannel((2, 2), 2, states)
    e = channel_state(ch, Prior.uniform((2, 2)))
    for members in ((0,), (1,), (0, 1)):
        assert abs(mutual_information(e, members)) < 1e-12


def test_mi_adder_against_classical_oracle():
    e = adder_state()
    joint = adder_joint()
    assert abs(mutual_information(e, (0,)) - classical_bound(joint, (0,))) < 1e-9
    assert abs(mutual_information(e, (0,)) - 1.0) < 1e-9
    assert abs(mutual_information(e, (0, 1)) - 1.5) < 1e-9
    assert abs(classical_bound(joint, (0, 1)) - shannon([0.25, 0.5, 0.25])) < 1e-12


def test_mi_difference_identity_random():
    rng = np.random.default_rng(31)
    for _ in range(25):
        ch = random_channel(rng)
        e = channel_state(ch, random_prior(rng, ch))
        arity = ch.s
        for mask in range(1, 1 << arity):
            members = frozenset(i for i in range(arity) if mask >> i & 1)
            comp = frozenset(range(arity)) - members
            mi = mutual_information(e, members)
            ident = (conditional_entropy(e, SubsystemSelector.of((), True),
                                         SubsystemSelector.of(comp))
                     - conditional_entropy(e, SubsystemSelector.of((), True),
                                           SubsystemSelector.of(range(arity))))
            assert abs(max(ident, 0.0) - mi) <= 1e-9
            assert mi >= 0.0


def test_mi_empty_subset_rejected():
    with pytest.raises(ValidationError):
        mutual_information(adder_state(), ())


# --- H(V|Q) ---------------------------------------------------------------------------

def one_sender_entropy(states, q):
    """H(V|Q) = sum_a q(a) S(V_a) of a one-sender channel state."""
    ch = CqMacChannel((len(states),), 2, {(a,): m for a, m in enumerate(states)})
    return average_conditional_entropy(channel_state(ch, Prior((np.asarray(q),))), (0,))


def test_conditional_channel_entropy():
    assert one_sender_entropy([Z0, Z1], [0.5, 0.5]) == 0.0
    assert abs(one_sender_entropy([Z0, np.eye(2) / 2], [0.0, 1.0]) - 1.0) < 1e-12
    assert abs(one_sender_entropy([np.eye(2) / 2, Z0], [0.5, 0.5]) - 0.5) < 1e-12
    with pytest.raises(ValidationError):
        one_sender_entropy([Z0], [0.5, 0.5])


# --- subadditivity ----------------------------------------------------------------------

def test_subadditivity_product_distribution_is_tight():
    v1 = [Z0, PLUS]
    v2 = [Z0, Z1]
    q = np.outer([0.4, 0.6], [0.5, 0.5])
    assert abs(check_subadditivity(v1, v2, q)) <= 1e-9


def test_subadditivity_correlated_classical_strictly_negative():
    # identical perfectly-correlated classical channels lose one full bit
    v = [Z0, Z1]
    q = np.array([[0.5, 0.0], [0.0, 0.5]])
    slack = check_subadditivity(v, v, q)
    assert abs(slack - (-1.0)) < 1e-9


def test_subadditivity_constant_channels():
    v = [np.eye(2) / 2, np.eye(2) / 2]
    q = np.full((2, 2), 0.25)
    assert abs(check_subadditivity(v, v, q)) <= 1e-12


def test_subadditivity_checks_each_factor_once_and_no_product(monkeypatch):
    # the factors are checked once each, in letter order, and the products
    # not at all; the slack equals the one computed from ensembles that
    # make_ensemble checks atom by atom.  Sender 1's last letter has
    # probability 0, so neither it nor its products are read
    rng = np.random.default_rng(84)
    v1 = [random_density(rng, 2) for _ in range(2)] + [np.full((2, 2), np.nan)]
    v2 = [random_density(rng, 3) for _ in range(3)]
    q = np.zeros((3, 3))
    q[:2] = rng.dirichlet(np.ones(6)).reshape(2, 3)
    joint = make_ensemble((3, 3), 6, (((a1, a2), q[a1, a2], np.kron(v1[a1], v2[a2]))
                                      for a1 in range(3) for a2 in range(3)))
    e1 = make_ensemble((3,), 2, (((a,), q[a].sum(), v1[a]) for a in range(3)))
    e2 = make_ensemble((3,), 3, (((a,), q[:, a].sum(), v2[a]) for a in range(3)))
    slack = (mutual_information(joint, (0, 1)) - mutual_information(e1, (0,))
             - mutual_information(e2, (0,)))
    checked = count_checked_states(monkeypatch)
    assert check_subadditivity(v1, v2, q) == slack
    assert len(checked) == 5
    assert all(np.array_equal(c, v) for c, v in zip(checked, v1[:2] + v2))
    bad = v2[:2] + [np.diag([1.2, -0.1, -0.1]).astype(complex)]
    with pytest.raises(ValidationError, match=r"atom \(2,\) has negative eigenvalue"):
        check_subadditivity(v1, bad, q)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_subadditivity_rejects_non_finite_q(bad):
    q = np.array([[0.5, bad], [0.25, 0.25]])
    with pytest.raises(ValidationError, match="q has non-finite entries"):
        check_subadditivity([Z0, Z1], [Z0, Z1], q)


# --- error-entropy bound ----------------------------------------------------------------

def test_fano_perfectly_distinguishable():
    e = make_ensemble((2,), 2, [((0,), 0.5, Z0), ((1,), 0.5, Z1)])
    x_povm = np.eye(2)
    lhs, rhs = fano_bound_check(e, x_povm, [Z0, Z1])
    assert abs(lhs) < 1e-9
    assert abs(rhs - 1.0) < 1e-12  # P_e = 0


def test_fano_uninformative_measurement():
    # four equiprobable labels, a constant signal state, uniform guessing
    e = make_ensemble((4,), 2, [((i,), 0.25, np.eye(2) / 2) for i in range(4)])
    x_povm = np.eye(4)
    y_povm = [np.eye(2) / 4] * 4
    lhs, rhs = fano_bound_check(e, x_povm, y_povm)
    assert abs(lhs - 2.0) < 1e-9          # H(X), the signal carries nothing
    assert abs(rhs - 2.5) < 1e-12         # 1 + 0.75 * log2(4)
    assert lhs <= rhs + 1e-9


def test_fano_single_label():
    e = make_ensemble((1,), 2, [((0,), 1.0, PLUS)])
    lhs, rhs = fano_bound_check(e, np.ones((1, 1)), [np.eye(2)])
    assert abs(lhs) < 1e-12
    assert abs(rhs - 1.0) < 1e-12


def test_fano_mismatched_index_sets():
    e = make_ensemble((2,), 2, [((0,), 0.5, Z0), ((1,), 0.5, Z1)])
    with pytest.raises(ValidationError, match="index set"):
        fano_bound_check(e, np.eye(2), [Z0, Z1, np.zeros((2, 2))])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_fano_rejects_non_finite_x_povm(bad):
    e = make_ensemble((2,), 2, [((0,), 0.5, Z0), ((1,), 0.5, Z1)])
    with pytest.raises(ValidationError, match=r"entries must lie in \[0, 1\]"):
        fano_bound_check(e, np.array([[1.0, bad], [0.0, 1.0]]), [Z0, Z1])


# --- report ------------------------------------------------------------------------------

def test_info_report_serialization():
    rep = info_report(adder_state())
    doc = rep.to_json_dict()
    assert set(doc) == {"H", "I_cond", "I_cond_raw"}
    assert abs(doc["I_cond"]["1"] - 1.0) < 1e-9
    assert abs(doc["I_cond"]["3"] - 1.5) < 1e-9
    assert abs(doc["H"]["Y"] - 1.5) < 1e-9
    json.dumps(doc)  # serializable as-is
    for key, value in doc["I_cond"].items():
        assert value >= 0.0
        assert abs(value - max(doc["I_cond_raw"][key], 0.0)) < 1e-15
