"""Caller real numbers (priors, mixture weights, rates, bounds, tolerances)
are read by one rule, `operators.as_reals` and the two layers on it: every
entry point refuses a bad real with a ValidationError that names the
argument, and reads every real form a caller may pass as its float."""

import re

import numpy as np
import pytest

from qmac import coding
from qmac.channel import Prior, channel_state, load_channel, reduced_channel
from qmac.checks import run_suites
from qmac.coding import TenderInstrument, codebooks_from_seed, pgm_decoder, sizes_from_rates
from qmac.entropy import check_subadditivity
from qmac.operators import ValidationError, as_distribution, as_nonnegative, as_reals
from qmac.region import (MixtureSpec, RateConstraintSet, RatePoint, all_corners,
                         constraint_set, corner_table, is_member, member_corners,
                         mixture_constraints, prior_tables, upper_boundary_2d)

Z0 = np.diag([1.0, 0.0]).astype(complex)
Z1 = np.diag([0.0, 1.0]).astype(complex)
UNIFORM = Prior.uniform((2, 2))
RAGGED = [0.5, [0.5]]

# each bad real, as one entry of a vector or as the whole of a scalar argument
NOT_REAL = "must hold real numbers"
NON_FINITE = "has non-finite entries"
BAD = {
    "string": ("0.5", NOT_REAL),
    "none": (None, NOT_REAL),
    "complex": (1 + 0j, NOT_REAL),
    "ragged": (RAGGED, NOT_REAL),
    "nan": (float("nan"), NON_FINITE),
    "inf": (float("inf"), NON_FINITE),
    "-inf": (float("-inf"), NON_FINITE),
    "negative": (-0.5, "has negative entries"),
}
# a distribution's own two: its entries sum to 1.1, or it has none
SUM, EMPTY = object(), object()
DISTRIBUTION_BAD = {**BAD, "sum": (SUM, "sums to 1.1, expected 1"), "empty": (EMPTY, "is empty")}


def vector(bad, ok=0.5):
    """Two entries, the second bad; or two that sum to 1.1, or none."""
    if bad is SUM:
        return [0.5, 0.6]
    return [] if bad is EMPTY else [ok, bad]


def qubit_pure_mac():
    return load_channel("qubit-pure-mac")


def instrument():
    return TenderInstrument(pgm_decoder([(0, Z0), (1, Z1)]))


def constraints():
    return constraint_set(qubit_pure_mac(), UNIFORM)


# entry point: (name of the argument, the call with a bad real, refused bad reals)
ENTRIES = {
    "prior": ("prior for sender 1", lambda bad: Prior(([0.5, 0.5], vector(bad))),
              DISTRIBUTION_BAD),
    "mixture-weights": ("mixture weights",
                        lambda bad: MixtureSpec(tuple((w, UNIFORM) for w in vector(bad))),
                        {k: v for k, v in DISTRIBUTION_BAD.items() if k != "empty"}),
    "tender-weights": ("weights",
                       lambda bad: coding.tender_bound_check([(0, Z0), (1, Z1)], instrument(),
                                                             weights=vector(bad)),
                       DISTRIBUTION_BAD),
    "subadditivity-q": ("q", lambda bad: check_subadditivity(
        [Z0, Z1], [Z0, Z1], [[0.25, 0.25], [0.25, 0.35] if bad is SUM else vector(bad, 0.25)]),
        {k: v for k, v in DISTRIBUTION_BAD.items() if k != "empty"}),
    "rate-point": ("rates", lambda bad: RatePoint(vector(bad)), BAD),
    "constraint-bounds": ("bounds", lambda bad: RateConstraintSet(2, {1: 0.5, 2: bad, 3: 1.0}),
                          BAD),
    "upper-boundary": ("rates", lambda bad: upper_boundary_2d([[0.1, 0.2], vector(bad, 0.3)]),
                       BAD),
    "code-rates": ("rates", lambda bad: sizes_from_rates(vector(bad), 2), BAD),
    "code-delta": ("delta", lambda bad: sizes_from_rates([1.0], 2, bad),
                   {k: v for k, v in BAD.items() if k != "negative"}),
    "member-tol": ("tol", lambda bad: is_member(RatePoint((0.0, 0.0)), constraints(), bad), BAD),
    "corners-tol": ("tol", lambda bad: member_corners(constraints(), bad), BAD),
    "check-tol": ("tol", lambda bad: run_suites("region", 1, 0, bad), BAD),
}
CASES = [(entry, case) for entry, (_, _, bad) in ENTRIES.items() for case in bad]


@pytest.mark.parametrize("entry, case", CASES, ids=[f"{e}-{c}" for e, c in CASES])
def test_a_bad_real_is_refused_naming_its_argument(entry, case):
    # not a bare TypeError, a NaN that fails a comparison, or a value stored as given
    what, enter, bad = ENTRIES[entry]
    value, problem = bad[case]
    with pytest.raises(ValidationError) as got:
        enter(value)
    assert re.match(f"{re.escape(what)} {re.escape(problem)}", str(got.value))


def test_mixture_weights_with_a_nested_weight_are_refused():
    # flattened, they would pair the wrong weight with each prior
    with pytest.raises(ValidationError, match="^mixture weights must be one number per"):
        MixtureSpec((([0.25, 0.25], UNIFORM), ([0.25, 0.25], UNIFORM)))


def test_subadditivity_q_of_another_shape_is_refused_as_before():
    with pytest.raises(ValidationError, match=r"^q must have shape \(2, 2\), got \(4,\)"):
        check_subadditivity([Z0, Z1], [Z0, Z1], [0.25] * 4)
    with pytest.raises(ValidationError, match=r"^q must have shape \(2, 2\), got \(0,\)"):
        check_subadditivity([Z0, Z1], [Z0, Z1], [])


def test_tender_weights_of_another_size_are_refused():
    with pytest.raises(ValidationError, match="^weights has 1 entries, expected 2$"):
        coding.tender_bound_check([(0, Z0), (1, Z1)], instrument(), weights=[1.0])


def test_a_tolerance_of_zero_is_accepted():
    cs = constraints()
    assert is_member(RatePoint((0.0, 0.0)), cs, 0)
    assert len(member_corners(cs, 0.0)[0]) == len(member_corners(cs, np.float32(0))[0])
    assert run_suites("region", 1, 0, 0)[0].checks > 0


# --- every real form a caller may pass reads as its float --------------------------

REAL_FORMS = [1, True, np.float32(0.5), np.float64(0.25), np.array(0.75), np.int64(2)]


def test_the_owner_reads_each_real_form_as_its_float():
    for value in REAL_FORMS:
        got = as_reals(value, "x")
        assert got.dtype == np.float64 and got.shape == () and got == float(value)
    got = as_nonnegative([REAL_FORMS[:3], [0, 1.5, np.float32(0.125)]], "x")
    assert got.dtype == np.float64 and got.tolist() == [[1.0, 1.0, 0.5], [0.0, 1.5, 0.125]]
    assert as_distribution([[0.5], [np.float32(0.5)]], "x").tolist() == [0.5, 0.5]


def test_prior_reads_int_bool_and_numpy_entries_as_floats():
    base = Prior(([0.5, 0.5], [1.0, 0.0]))
    for vec in ([np.float32(0.5), 0.5], np.array([0.5, 0.5], dtype=np.float32)):
        prior = Prior((vec, [1, 0]))
        assert [v.tobytes() for v in prior.per_sender] == [v.tobytes() for v in base.per_sender]
    assert Prior(([True, False],)).per_sender[0].tolist() == [1.0, 0.0]
    assert Prior((np.array(1),)).per_sender[0].tolist() == [1.0]


def test_mixture_constraints_equal_with_int_and_float_weights():
    ch = qubit_pure_mac()
    skewed = Prior(([0.3, 0.7], [1.0, 0.0]))
    for ints, floats in [((1, 0), (1.0, 0.0)), ((0, True), (0.0, 1.0)),
                         ((np.float32(0.5), np.array(0.5)), (0.5, 0.5))]:
        got = mixture_constraints(ch, MixtureSpec(tuple(zip(ints, (UNIFORM, skewed)))))
        want = mixture_constraints(ch, MixtureSpec(tuple(zip(floats, (UNIFORM, skewed)))))
        assert got == want
        assert all(type(b) is float for b in got.bounds.values())
    spec = MixtureSpec(((1, UNIFORM), (np.float64(0), skewed)))
    assert [type(w) for w, _ in spec.components] == [float, float]


def test_rates_bounds_and_tolerances_read_each_real_form_as_its_float():
    assert RatePoint((1, True, np.float32(0.5), np.array(0.25))).rates == (1.0, 1.0, 0.5, 0.25)
    assert sizes_from_rates([1, np.float64(0.5)], 4, np.array(0)) == sizes_from_rates(
        [1.0, 0.5], 4, 0.0)
    assert sizes_from_rates([1.0], 4, np.float32(-0.5)) == sizes_from_rates([1.0], 4, -0.5)
    assert RateConstraintSet(2, {1: 1, 2: np.float32(0.5), 3: True}).s == 2
    hull = upper_boundary_2d(np.array([[1, 0], [0, 1]]))
    assert hull.dtype == np.float64
    assert np.array_equal(hull, upper_boundary_2d([[1.0, 0.0], [0.0, 1.0]]))
    cs = constraints()
    for tol in (1e-9, np.float32(1e-9), np.array(1e-9), 0, False):
        assert is_member(RatePoint((0.1, 0.1)), cs, tol)
    assert [r.summary_lines() for r in run_suites("region", 2, 0, np.array(1e-9))] == [
        r.summary_lines() for r in run_suites("region", 2, 0, 1e-9)]


def test_tender_weights_and_q_read_int_entries_as_floats():
    check = coding.tender_bound_check([(0, Z0), (1, Z1)], instrument(), weights=[1, 0])
    assert check == coding.tender_bound_check([(0, Z0), (1, Z1)], instrument(),
                                              weights=[1.0, 0.0])
    assert check_subadditivity([Z0, Z1], [Z0, Z1], [[1, 0], [0, 0]]) == check_subadditivity(
        [Z0, Z1], [Z0, Z1], [[1.0, 0.0], [0.0, 0.0]])


# --- the prior-matches-channel rule refuses what is not a Prior -------------------

PRIOR_ENTRIES = {
    "prior-tables": lambda ch, prior: prior_tables(ch, [prior]),
    "constraint-set": constraint_set,
    "corner-table": corner_table,
    "all-corners": all_corners,
    "mixture": lambda ch, prior: mixture_constraints(ch, MixtureSpec(((1.0, prior),))),
    "codebooks": lambda ch, prior: codebooks_from_seed(ch, prior, 2, (2, 2), 0),
    "channel-state": channel_state,
    "reduced-channel": lambda ch, prior: reduced_channel(ch, prior, [0]),
}


@pytest.mark.parametrize("entry", PRIOR_ENTRIES)
@pytest.mark.parametrize("prior, kind", [([np.array([0.5, 0.5])] * 2, "list"),
                                         ("uniform", "str"), ((UNIFORM,), "tuple")],
                         ids=["list", "str", "tuple"])
def test_only_a_prior_passes_as_a_prior(entry, prior, kind):
    # not AttributeError: 'list' object has no attribute 'alphabet_sizes'
    with pytest.raises(ValidationError, match=f"^prior must be a Prior, got {kind}$"):
        PRIOR_ENTRIES[entry](qubit_pure_mac(), prior)
    PRIOR_ENTRIES[entry](qubit_pure_mac(), UNIFORM)
