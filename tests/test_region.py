import itertools
import math
import re

import numpy as np
import pytest

from qmac import config, entropy, region
from qmac.channel import CqMacChannel, Prior, channel_state, load_channel, mask_members
from qmac.checks import random_channel, random_density, random_prior, relabel_channel
from qmac.config import CapExceeded
from qmac.entropy import SubsystemSelector, mutual_information, subsystem_entropy
from qmac.operators import ValidationError
from qmac.region import (MixtureSpec, RateConstraintSet, RatePoint,
                         all_corners, boundary_sweep, constraint_set,
                         corner_from_bounds, corner_table, is_member,
                         member_corners, mixture_constraints, prior_grid, prior_tables,
                         upper_boundary_2d)

from oracles import (classical_bound, classical_corner, classical_joint, constraint_set_checked,
                     corner_table_loop, corners_loop, count_checked_states, dedup_points,
                     entropy_tables_full, grid_priors, hull_member_2d, info_report,
                     member_corners_loop, mixture_constraints_checked, point_mass_prior,
                     random_diagonal_channel, signed, sweep_loop)

TWO_STATE_CHI = 0.6008760366928562


def adder():
    return load_channel("adder-classical")


def adder_joint(vecs=((0.5, 0.5), (0.5, 0.5))):
    cond = {(a, b): [0.0, 0.0, 0.0] for a in range(2) for b in range(2)}
    for a in range(2):
        for b in range(2):
            cond[(a, b)][a + b] = 1.0
    return classical_joint([np.asarray(v) for v in vecs], cond)


def diagonal_joint(ch, prior):
    cond = {letters: np.diag(ch.state(letters)).real for letters in ch.joint_letters()}
    return classical_joint(list(prior.per_sender), cond)


# --- constraint sets ------------------------------------------------------------

def test_adder_constraint_set():
    cs = constraint_set(adder(), Prior.uniform((2, 2)))
    assert abs(cs.bounds[1] - 1.0) < 1e-9
    assert abs(cs.bounds[2] - 1.0) < 1e-9
    assert abs(cs.bounds[3] - 1.5) < 1e-9


def test_constant_channel_all_bounds_zero():
    states = {k: np.eye(2) / 2 for k in itertools.product(range(2), range(2))}
    ch = CqMacChannel((2, 2), 2, states)
    cs = constraint_set(ch, Prior.uniform((2, 2)))
    assert all(abs(b) < 1e-12 for b in cs.bounds.values())


def test_single_sender_holevo_bound():
    ch = load_channel("holevo-two-state")
    cs = constraint_set(ch, Prior.uniform((2,)))
    assert abs(cs.bounds[1] - TWO_STATE_CHI) < 1e-9


def test_constraint_set_validation():
    with pytest.raises(ValidationError):
        RateConstraintSet(2, {1: 1.0, 2: 1.0})  # missing full-set bound
    with pytest.raises(ValidationError):
        RateConstraintSet(1, {1: -0.5})


def test_constraint_set_without_a_prior_or_a_table_names_both():
    # None is a prior only beside a table row; alone it is refused as such
    with pytest.raises(ValidationError, match="needs a prior, or its table row as table="):
        constraint_set(adder(), None)


def same_set(got, want):
    """Equal sets, bit for bit and in key order, of Python floats."""
    assert type(got) is RateConstraintSet and got == want and got.s == want.s
    assert [(mask, b.hex()) for mask, b in got.bounds.items()] == [
        (mask, b.hex()) for mask, b in want.bounds.items()]
    assert all(type(b) is float for b in got.bounds.values())


def test_computed_sets_equal_publicly_constructed_ones():
    # the engine builds its sets past the constructor's checks; each equals the
    # set the constructor builds of its bounds, and the checked form's set
    rng = np.random.default_rng(96)
    for trial in range(30):
        ch = random_channel(rng, max_senders=4, max_output_dim=5)
        priors = [random_prior(rng, ch) for _ in range(3)]
        for prior, table in zip(priors, prior_tables(ch, priors)):
            cs = constraint_set(ch, prior)
            same_set(cs, RateConstraintSet(cs.s, dict(cs.bounds)))
            same_set(cs, constraint_set_checked(ch, prior))
            same_set(constraint_set(ch, None, table=table), cs)
        weights = rng.dirichlet(np.ones(3))
        if trial % 3 == 0:   # a component of weight 0 is skipped
            weights = np.array([0.0, weights[1], 1.0 - weights[1]])
        mix = MixtureSpec(tuple(zip(weights.tolist(), priors)))
        mixed = mixture_constraints(ch, mix)
        same_set(mixed, RateConstraintSet(mixed.s, dict(mixed.bounds)))
        same_set(mixed, mixture_constraints_checked(ch, mix))


def uniform_row(ch):
    return prior_tables(ch, [Prior.uniform(ch.sender_alphabets)])[0]


def zero_row(ch):
    return np.zeros((1 << ch.s, 2))


@pytest.mark.parametrize("row, entries, message", [
    (uniform_row, {(1, 0): np.nan}, "bounds has non-finite entries"),
    (uniform_row, {(2, 1): np.inf}, "bounds has non-finite entries"),
    (uniform_row, {(1, 0): -np.inf}, "bound for mask 1: mutual information -inf below -1e-9"),
    (uniform_row, {(3, 1): np.inf}, "bound for mask 1: mutual information -inf below -1e-9"),
    (zero_row, {(2, 0): -2e-9}, "bound for mask 2: mutual information -2e-09 below -1e-9"),
    # every mask is clamped before a non-finite bound is refused
    (zero_row, {(1, 0): np.nan, (3, 0): -2e-9},
     "bound for mask 3: mutual information -2e-09 below -1e-9"),
], ids=["nan", "inf", "-inf", "inf-subtracted", "below-clamp", "clamp-before-finite"])
def test_a_bad_table_row_raises_the_message_of_the_checked_form(row, entries, message):
    ch = load_channel("qubit-pure-mac")
    table = row(ch).copy()
    for entry, value in entries.items():
        table[entry] = value
    with pytest.raises(ValidationError) as want:
        constraint_set_checked(ch, None, table)
    assert str(want.value) == message
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        constraint_set(ch, None, table=table)


@pytest.mark.parametrize("row", [
    lambda t: t.tolist(), lambda t: t[:3], lambda t: t.ravel(), lambda t: t.astype(complex),
    lambda t: t.astype(int), lambda t: t.astype(object),
], ids=["list", "(3, 2)", "flat", "complex", "int", "object"])
def test_a_table_row_that_is_not_a_float_table_is_refused_naming_table(row):
    # not AttributeError, IndexError or TypeError from deep in the bound loop
    ch = load_channel("qubit-pure-mac")
    with pytest.raises(ValidationError,
                       match=f"^{re.escape('table must be a float array of shape (4, 2)')}$"):
        constraint_set(ch, None, table=row(uniform_row(ch)))
    table = uniform_row(ch).astype(np.float32)   # any float array of the shape passes
    assert list(constraint_set(ch, None, table=table).bounds) == [1, 2, 3]


# --- corners ---------------------------------------------------------------------

def test_adder_corners_both_orders():
    ch = adder()
    p = Prior.uniform((2, 2))
    table = corner_table(ch, p)
    assert np.allclose(table[(0, 1)].rates, (0.5, 1.0), atol=1e-9)
    assert np.allclose(table[(1, 0)].rates, (1.0, 0.5), atol=1e-9)
    points = all_corners(ch, p)
    assert len(points) == 2
    assert np.allclose(points[0].rates, (0.5, 1.0), atol=1e-9)
    assert np.allclose(points[1].rates, (1.0, 0.5), atol=1e-9)


def test_corner_matches_classical_oracle():
    joint = adder_joint()
    want_01 = classical_corner(joint, (0, 1))
    want_10 = classical_corner(joint, (1, 0))
    table = corner_table(adder(), Prior.uniform((2, 2)))
    assert np.allclose(table[(0, 1)].rates, want_01, atol=1e-9)
    assert np.allclose(table[(1, 0)].rates, want_10, atol=1e-9)


def test_single_sender_corner_is_the_bound():
    ch = load_channel("holevo-two-state")
    p = Prior.uniform((2,))
    cs = constraint_set(ch, p)
    assert abs(corner_table(ch, p)[(0,)].rates[0] - cs.bounds[1]) < 1e-12


def test_corner_rejects_bad_permutation():
    cs = constraint_set(adder(), Prior.uniform((2, 2)))
    with pytest.raises(ValidationError):
        corner_from_bounds(cs, (0, 0))


def test_decode_orders_and_relabelings_refuse_a_non_permutation_alike():
    ch = adder()
    cs = constraint_set(ch, Prior.uniform((2, 2)))
    for call in (lambda: corner_from_bounds(cs, (0, 0)), lambda: relabel_channel(ch, (0, 0))):
        with pytest.raises(ValidationError) as got:
            call()
        assert str(got.value) == "(0, 0) is not a permutation of 0..1"


def test_corners_collapse_when_one_sender_is_silent():
    # channel depends only on sender 1: sender 2's rate is pinned at zero
    states = {(x1, x2): np.diag([1.0 - x1, float(x1)]).astype(complex)
              for x1 in range(2) for x2 in range(2)}
    ch = CqMacChannel((2, 2), 2, states)
    points = all_corners(ch, Prior.uniform((2, 2)))
    assert len(points) == 1
    assert np.allclose(points[0].rates, (1.0, 0.0), atol=1e-9)


def test_telescoping_and_membership_random():
    rng = np.random.default_rng(41)
    for _ in range(30):
        ch = random_channel(rng)
        prior = random_prior(rng, ch)
        cs = constraint_set(ch, prior)
        full = (1 << ch.s) - 1
        for perm, point in corner_table(ch, prior).items():
            assert abs(sum(point.rates) - cs.bounds[full]) <= 1e-9
            assert is_member(point, cs, 1e-9)
            alt = corner_from_bounds(cs, perm)
            assert max(abs(a - b) for a, b in zip(point.rates, alt.rates)) <= 1e-9


def test_corner_cap():
    # 7 senders means 5040 decode orders, above the cap of 6 senders
    alphabets = (2,) * 7
    states = {k: np.eye(1) for k in itertools.product(*(range(a) for a in alphabets))}
    ch = CqMacChannel(alphabets, 1, states)
    with pytest.raises(CapExceeded):
        corner_table(ch, Prior.uniform(alphabets))


@pytest.mark.parametrize("s", range(1, 7))
def test_decode_order_table_is_the_permutations_and_their_before_masks(s):
    orders, before = region._orders(s)
    perms = list(itertools.permutations(range(s)))
    assert orders.tolist() == [list(perm) for perm in perms]
    # the set decoded before sender k, rebuilt per order as the chain kernel once did
    assert before.tolist() == [[sum(1 << i for i in perm[:perm.index(k)]) for k in range(s)]
                               for perm in perms]
    for arr in (orders, before):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0
    assert region._orders(s)[0] is orders   # built once


def test_decode_order_table_refuses_past_the_cap():
    with pytest.raises(CapExceeded) as err:
        region._orders(7)
    assert str(err.value) == ("corner enumeration needs 5040 permutations for s=7, "
                              "configured cap is s<=6")


# --- membership --------------------------------------------------------------------

def test_membership_examples():
    cs = constraint_set(adder(), Prior.uniform((2, 2)))
    assert is_member(RatePoint((0.0, 0.0)), cs)
    assert not is_member(RatePoint((1.0, 1.0)), cs)  # sum 2.0 > 1.5
    assert is_member(RatePoint((0.5, 1.0)), cs, 1e-9)


def test_rate_point_validation():
    with pytest.raises(ValidationError):
        RatePoint((0.5, -0.1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_rates_and_bounds_rejected(bad):
    with pytest.raises(ValidationError, match="finite"):
        RatePoint((0.1, bad))
    with pytest.raises(ValidationError, match="finite"):
        RateConstraintSet(2, {1: 0.5, 2: bad, 3: 1.0})


# --- quasi-classical reduction -------------------------------------------------------

def test_diagonal_channels_match_classical_oracle():
    rng = np.random.default_rng(43)
    for _ in range(25):
        ch = random_diagonal_channel(rng)
        prior = random_prior(rng, ch)
        cs = constraint_set(ch, prior)
        joint = diagonal_joint(ch, prior)
        for mask in cs.bounds:
            members = [i for i in range(ch.s) if mask >> i & 1]
            assert abs(cs.bounds[mask] - classical_bound(joint, members)) <= 1e-9


# --- mixtures -------------------------------------------------------------------------

def test_mixture_single_component_identity():
    ch = adder()
    p = Prior.uniform((2, 2))
    cs = constraint_set(ch, p)
    mixed = mixture_constraints(ch, MixtureSpec(((1.0, p),)))
    for mask in cs.bounds:
        assert abs(mixed.bounds[mask] - cs.bounds[mask]) < 1e-12


def test_mixture_identical_components_degenerate():
    ch = adder()
    p = Prior.uniform((2, 2))
    cs = constraint_set(ch, p)
    mixed = mixture_constraints(ch, MixtureSpec(((0.5, p), (0.5, p))))
    for mask in cs.bounds:
        assert abs(mixed.bounds[mask] - cs.bounds[mask]) < 1e-12


def test_mixture_is_arithmetic_mean():
    ch = adder()
    uniform = Prior.uniform((2, 2))
    point = point_mass_prior((2, 2), (0, 0))
    cs_u = constraint_set(ch, uniform)
    cs_p = constraint_set(ch, point)
    joint_u = adder_joint()
    joint_p = adder_joint(((1.0, 0.0), (1.0, 0.0)))
    mixed = mixture_constraints(ch, MixtureSpec(((0.5, uniform), (0.5, point))))
    for mask in mixed.bounds:
        members = [i for i in range(2) if mask >> i & 1]
        want = 0.5 * classical_bound(joint_u, members) + 0.5 * classical_bound(joint_p, members)
        assert abs(mixed.bounds[mask] - want) <= 1e-9
        assert abs(mixed.bounds[mask] - 0.5 * (cs_u.bounds[mask] + cs_p.bounds[mask])) <= 1e-12


def test_mixture_weight_validation():
    p = Prior.uniform((2, 2))
    with pytest.raises(ValidationError):
        MixtureSpec(((0.5, p), (0.3, p)))
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            MixtureSpec(((bad, p), (1.0, p)))


def test_mixture_with_more_components_than_senders():
    # time sharing over three priors of two senders, one of them repeated
    # and one weight 0: each bound is the weighted sum of the components'
    ch = load_channel("qubit-pure-mac")
    rng = np.random.default_rng(29)
    p, q = random_prior(rng, ch), random_prior(rng, ch)
    components = ((0.0, p), (0.6, q), (0.4, p))
    mixed = mixture_constraints(ch, MixtureSpec(components))
    for mask in mixed.bounds:
        want = sum(w * constraint_set(ch, prior).bounds[mask] for w, prior in components)
        assert abs(mixed.bounds[mask] - want) <= 1e-12


def test_mixture_components_capped_like_sweep_priors(monkeypatch):
    tables = []
    monkeypatch.setattr(entropy, "entropy_tables", lambda *args: tables.append(args))
    p = Prior.uniform((2, 2))
    count = config.DEFAULT_MAX_GRID_POINTS + 1
    with pytest.raises(CapExceeded, match=f"mixture has {count} components, "
                                          f"configured cap is {count - 1}"):
        mixture_constraints(adder(), MixtureSpec(((1.0 / count, p),) * count))
    assert tables == []
    monkeypatch.undo()
    monkeypatch.setattr(region, "DEFAULT_MAX_GRID_POINTS", 3)
    mixture_constraints(adder(), MixtureSpec(((0.5, p), (0.25, p), (0.25, p))))
    with pytest.raises(CapExceeded):
        MixtureSpec(((0.25, p),) * 4)


# --- one table per (channel, prior) ----------------------------------------------------

def table_bytes(tables):
    return [np.array(table).tobytes() for table in tables]


def test_memo_tables_equal_one_prior_tables_bit_for_bit():
    rng = np.random.default_rng(90)
    for _ in range(40):
        ch = random_channel(rng, max_senders=4, max_output_dim=5)
        letters = [int(rng.integers(a)) for a in ch.sender_alphabets]
        priors = ([random_prior(rng, ch) for _ in range(4)]
                  + [point_mass_prior(ch.sender_alphabets, letters),
                     Prior.uniform(ch.sender_alphabets)])
        # each prior alone, on channels whose memo is empty
        alone = [table_bytes(prior_tables(CqMacChannel(ch.sender_alphabets, ch.output_dim,
                                                       ch.states), [p]))[0] for p in priors]
        batch = prior_tables(CqMacChannel(ch.sender_alphabets, ch.output_dim, ch.states),
                             priors[::-1])
        assert table_bytes(batch) == alone[::-1]
        for _ in range(4):   # any composition and order, repeats included
            picks = rng.integers(len(priors), size=int(rng.integers(1, 9))).tolist()
            got = prior_tables(ch, [priors[i] for i in picks])
            assert table_bytes(got) == [alone[i] for i in picks]
            got[0][-1][1] = 99.0   # a fresh array: a caller cannot change the memo
        assert table_bytes(prior_tables(ch, priors)) == alone
        assert len(ch.table_memo) == len(priors)


def test_rows_of_a_stack_of_several_shannon_chunks_equal_one_prior_rows(monkeypatch):
    # the masses and Shannon parts are chunked by a row of label weights, 8
    # bytes per letter tuple: 2,048 priors of qubit-pure-mac's 4 tuples a chunk
    ch = load_channel("qubit-pure-mac")
    priors = grid_priors(ch.sender_alphabets, 50)
    passes = []
    chunks = entropy.chunks
    monkeypatch.setattr(entropy, "chunks", lambda count, item: passes.append(
        (count, len(list(chunks(count, item))))) or chunks(count, item))
    stack = prior_tables(ch, priors)
    monkeypatch.undo()
    assert len(priors) == 2601 and (2601, 2) in passes
    solo = CqMacChannel(ch.sender_alphabets, ch.output_dim, ch.states)
    assert table_bytes(stack) == [table_bytes(prior_tables(solo, [p]))[0] for p in priors]


def test_prior_tables_are_a_fresh_array_of_the_memo_rows():
    rng = np.random.default_rng(92)
    ch = random_channel(rng)
    priors = [random_prior(rng, ch) for _ in range(3)]
    got = prior_tables(ch, priors)
    assert got.shape == (3, 1 << ch.s, 2) and got.dtype == float
    memo = list(ch.table_memo.values())
    assert [row.tobytes() for row in got] == [row.tobytes() for row in memo]
    want = got.copy()
    got[...] = 99.0   # writable, and written into neither the memo nor a later call
    assert [row.tobytes() for row in ch.table_memo.values()] == [row.tobytes() for row in want]
    assert prior_tables(ch, priors).tobytes() == want.tobytes()
    assert prior_tables(ch, []).shape == (0, 1 << ch.s, 2)


def test_constraint_set_of_a_table_row_equals_its_own_table_bit_for_bit():
    rng = np.random.default_rng(93)
    for _ in range(10):
        ch = random_channel(rng)
        p = random_prior(rng, ch)
        given = constraint_set(ch, p, table=prior_tables(ch, [p])[0]).bounds
        alone = constraint_set(CqMacChannel(ch.sender_alphabets, ch.output_dim, ch.states),
                               p).bounds
        assert [v.hex() for v in given.values()] == [v.hex() for v in alone.values()]
        assert all(type(v) is float for v in given.values())


def test_each_prior_tabled_once_per_channel(monkeypatch):
    counts = []
    entropy_tables = entropy.entropy_tables
    monkeypatch.setattr(entropy, "entropy_tables",
                        lambda factors, states: counts.append(len(factors[0]))
                        or entropy_tables(factors, states))
    rng = np.random.default_rng(91)
    ch = random_channel(rng)
    p, q, r = (random_prior(rng, ch) for _ in range(3))
    constraint_set(ch, p)
    corner_table(ch, p)
    all_corners(ch, p)
    constraint_set(ch, q)
    for w in (0.0, 1.0, 0.3):
        mixture_constraints(ch, MixtureSpec(((w, p), (1.0 - w, q))))
    assert counts == [1, 1]
    mixture_constraints(ch, MixtureSpec(((0.2, r), (0.3, p), (0.1, r), (0.4, r))))
    assert counts == [1, 1, 1]   # r once, however often it repeats
    same = CqMacChannel(ch.sender_alphabets, ch.output_dim, ch.states)
    constraint_set(same, p)      # the memo belongs to one channel object
    assert counts == [1, 1, 1, 1]


def test_sweep_keeps_no_tables():
    ch = load_channel("qubit-pure-mac")
    assert len(boundary_sweep(ch, 4).bounds) == 25
    assert ch.table_memo == {}


# --- sweeps ----------------------------------------------------------------------------

def test_grid_priors_resolution_one():
    (compositions,), index = prior_grid((2,), 1)
    vecs = [tuple(compositions[i]) for i in index[0]]
    assert vecs == [(0.0, 1.0), (1.0, 0.0)]


def test_sweep_single_uniform_grid_point():
    # resolution 2 on a binary sender contains the uniform prior
    ch = load_channel("holevo-two-state")
    sweep = boundary_sweep(ch, 2)
    (mids,) = np.nonzero(np.abs(sweep.per_sender[0][:, 0] - 0.5) < 1e-12)
    assert len(mids) == 1
    assert abs(sweep.bounds[mids[0], 0] - TWO_STATE_CHI) < 1e-9


def test_sweep_refinement_nests():
    ch = load_channel("qubit-pure-mac")
    coarse = boundary_sweep(ch, 2)
    fine = boundary_sweep(ch, 4)
    hull = upper_boundary_2d(fine.corner_rates)
    for point in coarse.corner_rates:
        assert hull_member_2d(point, hull, tol=1e-9)


def test_sweep_grid_too_large():
    # 401**2 priors at resolution 400, above the cap of 100,000; the count is
    # checked before any prior is built
    with pytest.raises(CapExceeded):
        boundary_sweep(adder(), 400)


def test_single_sender_two_state_sweep_maximizer():
    # brute-force scan: chi(p) peaks at the uniform prior for this pair
    ch = load_channel("holevo-two-state")
    sweep = boundary_sweep(ch, 64)
    best = int(np.argmax(sweep.bounds[:, 0]))
    assert abs(sweep.per_sender[0][best, 0] - 0.5) < 1e-12
    assert abs(sweep.bounds[best, 0] - TWO_STATE_CHI) < 1e-9


def test_upper_boundary_2d_adder():
    hull = upper_boundary_2d(boundary_sweep(adder(), 2).corner_rates)
    coords = hull.tolist()
    assert (0.5, 1.0) in [(round(a, 9), round(b, 9)) for a, b in coords]
    assert (1.0, 0.5) in [(round(a, 9), round(b, 9)) for a, b in coords]
    assert hull_member_2d((0.75, 0.75), hull)
    assert not hull_member_2d((1.0, 1.0), hull)


def test_upper_boundary_2d_rejects_three_sender_points():
    with pytest.raises(ValidationError, match=r"\(m, 2\)"):
        upper_boundary_2d(np.array([(0.1, 0.2, 0.3), (0.3, 0.1, 0.0)]))


@pytest.mark.parametrize("bad, problem", [(-0.1, "negative"), (np.nan, "finite")],
                         ids=["negative", "nan"])
def test_upper_boundary_2d_rejects_a_negative_or_nan_rate(bad, problem):
    # the array is checked once, as RatePoint checked each point
    rates = np.array([(0.1, 0.2), (0.3, bad), (0.4, 0.0)])
    with pytest.raises(ValidationError, match=problem):
        upper_boundary_2d(rates)


# --- table route against the two-form oracle -------------------------------------

def test_table_bounds_match_mutual_information_oracle():
    rng = np.random.default_rng(61)
    for _ in range(50):
        ch = random_channel(rng)
        prior = random_prior(rng, ch)
        e = channel_state(ch, prior)
        cs = constraint_set(ch, prior)
        report = info_report(e)
        for mask in range(1, 1 << ch.s):
            oracle = mutual_information(e, mask_members(mask))
            assert abs(cs.bounds[mask] - oracle) <= 1e-12
            assert abs(report.conditional_mi[str(mask)] - oracle) <= 1e-12


# --- batched sweep ---------------------------------------------------------------

def sweep_rows(sweep):
    """The array sweep in `oracles.sweep_loop`'s per-prior form, floats signed:
    (prior id, per-sender lists, {mask: bound}, [(perm, rates), ...])."""
    corners = {}
    for p, perm, rates in zip(sweep.corner_prior.tolist(), sweep.corner_perm.tolist(),
                              sweep.corner_rates.tolist()):
        corners.setdefault(p, []).append((tuple(perm), tuple(rates)))
    return signed([(p, [v[p].tolist() for v in sweep.per_sender], dict(enumerate(bounds, 1)),
                    corners[p]) for p, bounds in enumerate(sweep.bounds.tolist())])


def loop_rows(ch, resolution):
    return signed([(pid, [v.tolist() for v in prior.per_sender], cs.bounds,
                    [(perm, point.rates) for perm, point in pairs])
                   for pid, prior, cs, pairs in sweep_loop(ch, resolution)])


def test_sweep_chunks_match_single_chunk(monkeypatch):
    rng = np.random.default_rng(74)
    letters = list(itertools.product(range(2), repeat=3))
    ch = CqMacChannel((2, 2, 2), 3, {x: random_density(rng, 3) for x in letters})
    prior_bytes = 16 * 3 * 3 * len(letters)           # stacked states of one prior
    eig_calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: eig_calls.append(1) or eigvalsh(a))
    sweeps = {}
    for per_chunk in (64, 1, 5, 63):                  # the grid has 4**3 = 64 priors
        eig_calls.clear()
        monkeypatch.setattr(config, "CHUNK_BYTES", per_chunk * prior_bytes)
        sweeps[per_chunk] = sweep_rows(boundary_sweep(ch, 3))
        # one per mask and chunk of distinct keys: each sender has 4 distinct
        # vectors, so a mask averaging over c senders has 4**c keys
        keys = [4 ** (3 - bin(mask).count("1")) for mask in range(8)]
        assert len(eig_calls) == sum(-(-k // per_chunk) for k in keys)
    assert len(sweeps[64]) == 64
    for per_chunk in (1, 5, 63):
        assert sweeps[per_chunk] == sweeps[64]


def test_sweep_diagonalizes_each_group_state_once_per_key(monkeypatch):
    rng = np.random.default_rng(77)
    letters = list(itertools.product(range(2), repeat=3))
    ch = CqMacChannel((2, 2, 2), 2, {x: random_density(rng, 2) for x in letters})
    rows = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: rows.append(a.size // 4) or eigvalsh(a))
    assert len(boundary_sweep(ch, 6).bounds) == 343
    # 7 vectors per sender: a mask keeping k senders has 7**(3 - k) keys of
    # 2**k group states each, 9**3 in all; per prior there would be 343 * 3**3
    assert sum(rows) == 729
    compositions, index = prior_grid(ch.sender_alphabets, 6)
    factors = [c[i].reshape((-1,) + tuple(2 if j == k else 1 for j in range(3)))
               for k, (c, i) in enumerate(zip(compositions, index))]
    rows.clear()
    entropy_tables_full(factors, ch.states)
    assert sum(rows) == 9261


def test_sweep_checks_each_state_once(monkeypatch):
    checked = count_checked_states(monkeypatch)
    ch = load_channel("qubit-pure-mac")
    assert len(checked) == 4
    assert all(np.array_equal(rho, ch.states[x]) for rho, x in zip(checked, ch.joint_letters()))
    assert len(boundary_sweep(ch, 4).bounds) == 25
    assert len(checked) == 4              # the sweep itself checks none


@pytest.mark.parametrize("bad, problem", [
    (np.diag([1.5, -0.5]).astype(complex), "negative eigenvalue"),
    (np.eye(2, dtype=complex), "trace 2,"),
])
@pytest.mark.parametrize("call", [
    lambda ch: boundary_sweep(ch, 2),
    lambda ch: constraint_set(ch, Prior.uniform((2, 2))),
    lambda ch: corner_table(ch, Prior.uniform((2, 2))),
], ids=["boundary_sweep", "constraint_set", "corner_table"])
def test_unchecked_channel_state_named_by_letters(bad, problem, call):
    states = {x: np.eye(2, dtype=complex) / 2 for x in itertools.product(range(2), repeat=2)}
    states[(1, 0)] = bad
    with pytest.raises(ValidationError, match=rf"state \(1, 0\) has {problem}") as err:
        call(CqMacChannel((2, 2), 2, states))
    # rejected where the channel is built, so no entry point sees the bad state
    assert err.traceback[-1].name == "__post_init__"


def oracle_corners(ch, prior):
    """Distinct chain-rule corners from per-block `subsystem_entropy` values."""
    e = channel_state(ch, prior)

    def h(mask, quantum):
        if not (mask or quantum):
            return 0.0
        return subsystem_entropy(e, SubsystemSelector.of(mask_members(mask), quantum))

    corners = {}
    for perm in itertools.permutations(range(ch.s)):
        rates, decoded = [0.0] * ch.s, 0
        for k in perm:
            rates[k] = max(h(1 << k, False) + h(decoded, True) - h(decoded | 1 << k, True), 0.0)
            decoded |= 1 << k
        corners[perm] = RatePoint(tuple(rates))
    return dedup_points(sorted(corners.items()))


def test_sweep_corners_match_oracle_table():
    rng = np.random.default_rng(75)
    for _ in range(5):
        ch = random_channel(rng, max_alphabet=2)
        sweep = boundary_sweep(ch, 2)
        for p, (_, _, _, corners) in enumerate(sweep_rows(sweep)):
            want = oracle_corners(ch, Prior(tuple(v[p] for v in sweep.per_sender)))
            assert [tuple(perm) for perm, _ in corners] == [perm for perm, _ in want]
            for (_, got), (_, exp) in zip(corners, want):
                assert max(abs(a - b) for (a, _), b in zip(got, exp.rates)) <= 1e-12


def sweep_test_channel(rng, s):
    """Random channel with alphabets 1-3 and output dimension 1-3, of mixed
    states, pure states or basis states; in every other one the states depend
    on the first sender's letter only, so that corners coincide and others
    read 0."""
    alphabets = tuple(int(rng.integers(1, 4)) for _ in range(s))
    d = int(rng.choice([1, 2, 2, 3]))
    kind = int(rng.integers(3))
    follow_first = bool(rng.integers(2))

    def draw():
        if kind == 0:
            return random_density(rng, d)
        if kind == 1:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            return np.outer(v, v.conj()) / np.vdot(v, v).real
        return np.diag(np.eye(d)[rng.integers(d)]).astype(complex)

    first = [draw() for _ in range(alphabets[0])]
    states = {x: first[x[0]] if follow_first else draw()
              for x in itertools.product(*map(range, alphabets))}
    return CqMacChannel(alphabets, d, states)


@pytest.mark.parametrize("per_chunk", [None, 1, 3, 7])
def test_sweep_equals_per_prior_loop(monkeypatch, per_chunk):
    rng = np.random.default_rng(76)
    for trial in range(15):
        s, resolution = 1 + trial % 3, 1 + trial % 4
        ch = sweep_test_channel(rng, s)
        want = loop_rows(ch, resolution)
        if per_chunk is not None:   # priors per chunk of the corner arrays
            monkeypatch.setattr(config, "CHUNK_BYTES", per_chunk * 8 * math.factorial(s) * s)
        assert sweep_rows(boundary_sweep(ch, resolution)) == want
        monkeypatch.undo()


def test_sweep_dedups_corners_within_tolerance_as_the_loop_does(monkeypatch):
    # Tables of entries 0, 1e-9/3, 2e-9/3 and 1e-9 give corners whose distances
    # straddle the 1e-9 dedup tolerance, meet it exactly, and chain: B within
    # 1e-9 of A is dropped, C within 1e-9 of B but not of A is kept.
    steps = np.array([0.0, 1e-9 / 3, 2e-9 / 3, 1e-9])

    def near_tables(factors, states):
        shape = (len(factors[0]), 1 << states.ndim - 2, 2)
        return steps[np.random.default_rng(shape[0]).integers(len(steps), size=shape)]

    monkeypatch.setattr(entropy, "entropy_tables", near_tables)
    ch = sweep_test_channel(np.random.default_rng(78), 3)
    sweep = boundary_sweep(ch, 3)
    assert sweep_rows(sweep) == loop_rows(ch, 3)
    assert 0 < len(sweep.corner_rates) < 6 * len(sweep.bounds)


def use_signed_zero_tables(monkeypatch):
    """Replace every other prior's entropy table (the first one's too) by
    zeros of random sign.  The kernel's tables never give a corner of -0.0,
    but a corner (-0.0) + (-0.0) - 0.0 is -0.0 on the per-prior path
    (max(-0.0, 0.0) keeps it), and must stay so."""
    entropy_tables = entropy.entropy_tables

    def signed_zero_tables(factors, states):
        table = entropy_tables(factors, states)
        signs = np.random.default_rng(len(table)).random(table[::2].shape) < 0.5
        table[::2] = np.where(signs, -0.0, 0.0)
        return table

    monkeypatch.setattr(entropy, "entropy_tables", signed_zero_tables)


def test_sweep_keeps_the_sign_of_zero_corners(monkeypatch):
    use_signed_zero_tables(monkeypatch)
    rng = np.random.default_rng(77)
    negative_zeros = 0
    for trial in range(9):
        ch = sweep_test_channel(rng, 1 + trial % 3)
        sweep = boundary_sweep(ch, 3)
        assert sweep_rows(sweep) == loop_rows(ch, 3)
        rates = sweep.corner_rates
        negative_zeros += int(np.sum((rates == 0.0) & np.signbit(rates)))
    assert negative_zeros > 0


def rate_pairs(pairs):
    return signed([(perm, point.rates) for perm, point in pairs])


@pytest.mark.parametrize("signed_zeros", [False, True])
@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_corner_routes_equal_the_scalar_loop(monkeypatch, s, signed_zeros):
    if signed_zeros:
        use_signed_zero_tables(monkeypatch)
    rng = np.random.default_rng(80 + s)
    for _ in range(4):
        ch = sweep_test_channel(rng, s)
        point_mass = point_mass_prior(ch.sender_alphabets,
                                      [rng.integers(a) for a in ch.sender_alphabets])
        mixed = mixture_constraints(ch, MixtureSpec(((0.5, random_prior(rng, ch)),
                                                     (0.5, point_mass))))
        for prior in (random_prior(rng, ch), point_mass):
            # the fake tables depend on a prior's place in its batch: each
            # route below reads the prior's table of a one-prior call
            ch.table_memo.clear()
            assert (rate_pairs(corner_table(ch, prior).items())
                    == rate_pairs(corner_table_loop(ch, prior).items()))
            assert (signed([point.rates for point in all_corners(ch, prior)])
                    == signed([point.rates for _, point in corners_loop(ch, prior)]))
            for cs in (constraint_set(ch, prior), mixed):
                for tol in (0.0, 1e-12, 1e-9, 1e-3, 0.1):
                    perms, rates = member_corners(cs, tol)
                    assert (signed(list(zip(perms.tolist(), rates.tolist())))
                            == rate_pairs(member_corners_loop(cs, tol)))
        resolution = 2 if s < 4 else 1   # the grid of point masses at s = 4
        ch.table_memo.clear()   # so that the loop's batch is the whole grid
        assert sweep_rows(boundary_sweep(ch, resolution)) == loop_rows(ch, resolution)


def test_low_corner_stage_raises_the_loop_error(monkeypatch):
    # Raising H(X_A, Y) for every proper nonempty sender set A, by distinct
    # multiples of 4 bits (one of them 0), raises every bound that reads it
    # (each does with a plus sign) and moves each corner stage by the lift
    # of the set after it less that of the set before it: a stage whose set
    # gains lift fails, often several per order, so the corner chain, not a
    # bound, must fail, at the loop's first failing prior, order and stage.
    entropy_tables = entropy.entropy_tables
    rng = np.random.default_rng(82)
    for trial in range(9):
        s = 2 + trial % 3
        ch = sweep_test_channel(rng, s)
        lift = np.zeros(1 << s)
        lift[1:-1] = 4.0 * rng.permutation(len(lift) - 2)

        def lift_every(every):
            def lifted_tables(factors, states):
                table = entropy_tables(factors, states)
                table[every - 1::every, :, 1] += lift
                return table
            monkeypatch.setattr(entropy, "entropy_tables", lifted_tables)

        lift_every(1)
        prior = random_prior(rng, ch)
        with pytest.raises(ValidationError, match="corner stage") as want:
            corner_table_loop(ch, prior)
        with pytest.raises(ValidationError) as got:
            corner_table(ch, prior)
        assert str(got.value) == str(want.value)
        lift_every(int(rng.integers(1, 4)))
        with pytest.raises(ValidationError, match="corner stage") as want:
            sweep_loop(ch, 2)
        with pytest.raises(ValidationError) as got:
            boundary_sweep(ch, 2)
        assert str(got.value) == str(want.value)
