"""Capacity-region geometry: constraint sets, corners, membership, mixtures,
prior sweeps.

The region for a fixed prior is the set of nonnegative rate tuples whose
subset sums stay below the conditional mutual informations; its upper
extremal points (corners) are the successive-decoding rate tuples, one per
decoding order.  Bounds and corners are both read off the entropy table of
the channel state (`entropy.entropy_tables`), which a sweep computes for all
of its priors in one batched call.  Corners are chain-rule entropy
differences, exact and LP-free: one routine (`table_corners`) selects the
distinct corners of any stack of tables, with one kernel (`_chain_rates`)
and one dedup rule (`_distinct`).  Every decode order comes from one cached
table (`_orders`), which refuses to form any past the sender cap.  An
independent route recovers corners from suffix differences of the bounds
for cross-checking.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import entropy as ent
from .channel import CqMacChannel, Prior, mask_members
from .config import DEFAULT_MAX_GRID_POINTS, DEFAULT_MAX_PERM_SENDERS, CapExceeded, chunks
from .operators import (ValidationError, _as_tolerance, as_distribution, as_index,
                        as_nonnegative)

MEMBER_TOL = 1e-9
CORNER_DEDUP_TOL = 1e-9


@dataclass(frozen=True)
class RatePoint:
    """A candidate rate tuple, bits per channel use, componentwise >= 0."""

    rates: tuple[float, ...]

    def __post_init__(self):
        rates = as_nonnegative(self.rates, "rates").ravel()
        object.__setattr__(self, "rates", tuple(rates.tolist()))

    @property
    def s(self) -> int:
        return len(self.rates)


@dataclass(frozen=True)
class RateConstraintSet:
    """The 2^s - 1 subset-sum bounds of one (channel, prior) pair."""

    s: int
    bounds: dict[int, float]

    def __post_init__(self):
        expected = set(range(1, 1 << self.s))
        if set(self.bounds) != expected:
            raise ValidationError(
                f"bounds must cover every nonempty subset mask of {self.s} senders"
            )
        as_nonnegative(list(self.bounds.values()), "bounds")


def _computed_set(s: int, bounds: dict[int, float]) -> RateConstraintSet:
    """A RateConstraintSet of bounds the region engine computed: one Python
    float per nonempty subset mask of s senders, in mask order, each finite
    and nonnegative, so the constructor's checks are not run again."""
    cs = object.__new__(RateConstraintSet)
    object.__setattr__(cs, "s", s)
    object.__setattr__(cs, "bounds", bounds)
    return cs


def check_mixture_size(count: int) -> None:
    """Refuse a mixture of more than `config.DEFAULT_MAX_GRID_POINTS`
    components, the prior cap of a sweep."""
    if count > DEFAULT_MAX_GRID_POINTS:
        raise CapExceeded(f"mixture has {count} components, "
                          f"configured cap is {DEFAULT_MAX_GRID_POINTS}")


@dataclass(frozen=True)
class MixtureSpec:
    """Convex combination of priors for the mixture outer bound, of at most
    as many components as `check_mixture_size` allows."""

    components: tuple[tuple[float, Prior], ...]

    def __post_init__(self):
        if not self.components:
            raise ValidationError("mixture needs at least one component")
        check_mixture_size(len(self.components))
        weights = as_distribution([w for w, _ in self.components], "mixture weights")
        if weights.size != len(self.components):
            raise ValidationError("mixture weights must be one number per component")
        object.__setattr__(self, "components",
                           tuple(zip(weights.tolist(), (p for _, p in self.components))))


def _sender_tables(ch: CqMacChannel, per_sender: Sequence[np.ndarray]) -> np.ndarray:
    """(P, 2^s, 2) entropy tables of the P priors whose sender i has the
    distribution `per_sender[i][p]`: one `entropy.entropy_tables` call over
    the channel's state array, one weight factor per sender, multiplied in
    sender order as Prior.prob does.  Per sender subset kept, the group
    states are diagonalized once per distinct vectors of the senders
    averaged out, however many priors share them."""
    factors = [v.reshape((len(v),) + tuple(a if j == i else 1 for j in range(ch.s)))
               for i, (v, a) in enumerate(zip(per_sender, ch.sender_alphabets))]
    return ent.entropy_tables(factors, ch.states)


def prior_tables(ch: CqMacChannel, priors: Sequence[Prior]) -> np.ndarray:
    """Entropy tables (P, 2^s, 2) of the channel state under the P priors, in order.

    Each table is computed once per channel: `ch.table_memo` keeps it under
    the bytes of the prior's per-sender vectors, and the priors not yet in
    it, each once however often it repeats, are tabled by one
    `_sender_tables` call, which shares group states between priors that
    share the vectors of the senders averaged out.  A batched row equals
    the row of a one-prior call bit for bit (the tests check it over random
    channels), so a table does not depend on which call made it.  The memo lives and dies with
    the channel; `boundary_sweep` calls `_sender_tables` directly, so a
    sweep's tables are not kept.  Every call returns a fresh array.
    """
    for prior in priors:
        ch.check_prior(prior)
    memo = ch.table_memo
    keys = [b"".join(v.tobytes() for v in prior.per_sender) for prior in priors]
    misses = {key: prior for key, prior in zip(keys, priors) if key not in memo}
    if misses:
        per_sender = [np.array([prior.per_sender[i] for prior in misses.values()])
                      for i in range(ch.s)]
        tables = _sender_tables(ch, per_sender)
        tables.setflags(write=False)
        memo.update(zip(misses, tables))
    return np.array([memo[key] for key in keys]).reshape(len(keys), 1 << ch.s, 2)


def constraint_set(ch: CqMacChannel, prior: Prior | None, *,
                   table: np.ndarray | None = None) -> RateConstraintSet:
    """All bounds I(X(J) ^ Y | X(Jc)) of the channel state, in bits, read off
    the entropy table the corners use, as Python floats;
    `entropy.mutual_information` is their oracle.

    `table` is the prior's (2^s, 2) row of a `prior_tables` call with other
    priors, a float array; `prior` is then not read and may be None.  The
    bounds are checked here, once: `entropy.clamp_mi` clamps each in mask
    order, then a non-finite one is refused, and the set is built without
    running `RateConstraintSet`'s checks on them again.
    """
    s = ch.s
    if table is None:
        if prior is None:
            raise ValidationError("constraint_set needs a prior, or its table row as table=")
        (table,) = prior_tables(ch, [prior])
    elif not (isinstance(table, np.ndarray) and table.dtype.kind == "f"
              and table.shape == (1 << s, 2)):
        raise ValidationError(f"table must be a float array of shape ({1 << s}, 2)")
    table = table.tolist()
    bounds = {
        mask: ent.clamp_mi(ent.table_mi(table, mask, s), f"bound for mask {mask}")
        for mask in range(1, 1 << s)
    }
    if not all(map(math.isfinite, bounds.values())):
        raise ValidationError("bounds has non-finite entries")
    return _computed_set(s, bounds)


def _check_perm(perm: Sequence[int], s: int) -> tuple[int, ...]:
    perm = tuple(as_index(i, "perm") for i in perm)
    if sorted(perm) != list(range(s)):
        raise ValidationError(f"{perm} is not a permutation of 0..{s - 1}")
    return perm


@functools.cache
def _orders(s: int) -> tuple[np.ndarray, np.ndarray]:
    """The s! decode orders of s senders, lexicographic, as a read-only
    (s!, s) array, and beside it the mask of the senders decoded before
    sender k in order j at [j, k].  Past the sender cap no order is formed."""
    if s > DEFAULT_MAX_PERM_SENDERS:
        raise CapExceeded(
            f"corner enumeration needs {math.factorial(s)} permutations for s={s}, "
            f"configured cap is s<={DEFAULT_MAX_PERM_SENDERS}"
        )
    orders = np.array(list(itertools.permutations(range(s))))
    bits = 1 << orders
    before = np.empty_like(orders)   # stage i's sender comes after those of stages < i
    np.put_along_axis(before, orders, np.cumsum(bits, axis=1) - bits, axis=1)
    orders.setflags(write=False)
    before.setflags(write=False)
    return orders, before


def corner_table(ch: CqMacChannel, prior: Prior) -> dict[tuple[int, ...], RatePoint]:
    """Corner for every decoding order, computed off the prior's entropy
    table by `_chain_rates`.

    Stage i decodes sender perm[i] against the joint of the output and the
    already-decoded senders: R = H(X_k) + H(X_A, Y) - H(X_A + k, Y).  The
    rates of each corner telescope: their total equals the full-set bound.
    """
    orders, _ = _orders(ch.s)
    (rates,) = _chain_rates(prior_tables(ch, [prior]), ch.s).tolist()
    return dict(zip(map(tuple, orders.tolist()), map(RatePoint, rates)))


def table_corners(tables: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct corners (within CORNER_DEDUP_TOL) of the entropy tables
    (P, 2^s, 2), listed by table, each with its first decode order: the
    table index, the 0-based order and the rates of each, as arrays."""
    orders, _ = _orders(s)
    rates = _chain_rates(tables, s)
    p_idx, j_idx = np.nonzero(_distinct(rates, CORNER_DEDUP_TOL))
    return p_idx, orders[j_idx], rates[p_idx, j_idx]


def member_corners(cs: RateConstraintSet, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Distinct corners (within tol) of a constraint set that lie in it
    (within tol), as arrays of their first decode orders and of their
    rates; the corners come from the bounds (`corner_from_bounds`), as for
    a mixture of priors."""
    tol = _as_tolerance(tol)
    orders = _orders(cs.s)[0]
    points = [corner_from_bounds(cs, perm) for perm in orders.tolist()]
    members = np.flatnonzero([is_member(point, cs, tol) for point in points])
    rates = np.array([points[j].rates for j in members]).reshape(-1, cs.s)
    keep = _distinct(rates[None], tol)[0]
    return orders[members[keep]], rates[keep]


def all_corners(ch: CqMacChannel, prior: Prior) -> list[RatePoint]:
    """Distinct corners (within 1e-9), ordered by first achieving permutation."""
    _, _, rates = table_corners(prior_tables(ch, [prior]), ch.s)
    return [RatePoint(r) for r in rates.tolist()]


def _chain_rates(tables: np.ndarray, s: int) -> np.ndarray:
    """Corner rates (P, s!, s) of the entropy tables (P, 2^s, 2): decode
    orders lexicographic, rates in sender order.

    A stage decoding sender k after the set A has the term
    H(X_k) + H(X_A, Y) - H(X_A + k, Y), added in that order; the first term
    below -MI_CLAMP, in prior, order and stage order, raises
    `entropy.clamp_mi`'s error, and the others are clamped as it clamps.
    """
    orders, before = _orders(s)
    k_mask = 1 << np.arange(s)
    raw = tables[:, None, k_mask, 0] + tables[:, before, 1] - tables[:, before | k_mask, 1]
    low = raw < -ent.MI_CLAMP
    if low.any():
        p, j = np.argwhere(low.any(axis=2))[0]
        k = next(k for k in orders[j].tolist() if low[p, j, k])
        ent.clamp_mi(float(raw[p, j, k]), f"corner stage for sender {k}")
    return np.where(raw < 0.0, 0.0, raw)


def _distinct(rates: np.ndarray, tol: float) -> np.ndarray:
    """Which of the points rates[p] (P, m, s) to keep: each point farther
    than tol (max-norm) from every point of its row kept before it."""
    # senders on the middle axis: the max-norm reduces over whole rows
    by_sender = np.ascontiguousarray(rates.transpose(0, 2, 1))
    keep = np.ones(rates.shape[:2], dtype=bool)
    for j in range(1, rates.shape[1]):
        gap = np.abs(by_sender[:, :, :j] - by_sender[:, :, j, None]).max(axis=1)
        keep[:, j] = ~((gap <= tol) & keep[:, :j]).any(axis=1)
    return keep


def corner_from_bounds(cs: RateConstraintSet, perm: Sequence[int]) -> RatePoint:
    """Cross-check route: corners as suffix differences of the bounds.

    With decode order perm, the tight constraints form the chain of decode
    suffixes, so R_{perm[i]} = bound(suffix from i) - bound(suffix from i+1).
    """
    perm = _check_perm(perm, cs.s)
    rates = [0.0] * cs.s
    suffix_mask = 0
    for k in reversed(perm):
        prev = cs.bounds[suffix_mask] if suffix_mask else 0.0
        suffix_mask |= 1 << k
        rates[k] = ent.clamp_mi(cs.bounds[suffix_mask] - prev, f"bound difference for sender {k}")
    return RatePoint(tuple(rates))


def is_member(point: RatePoint, cs: RateConstraintSet, tol: float = MEMBER_TOL) -> bool:
    """True iff every subset sum respects its bound within tol (ties count in)."""
    tol = _as_tolerance(tol)
    if point.s != cs.s:
        raise ValidationError(f"point has {point.s} rates, constraint set has {cs.s}")
    return all(sum(point.rates[i] for i in mask_members(mask)) <= bound + tol
               for mask, bound in cs.bounds.items())


def mixture_constraints(ch: CqMacChannel, mix: MixtureSpec) -> RateConstraintSet:
    """Weighted average of the component constraint sets (mixture outer bound):
    the bounds of time sharing over the component priors, for any number of
    components `MixtureSpec` accepts.  Components of weight 0 are skipped;
    the others' tables come from one `prior_tables` call.  The weights are a
    checked distribution and each `constraint_set` checked its bounds, so
    the sums are finite and nonnegative and are not checked again.
    """
    bounds = {mask: 0.0 for mask in range(1, 1 << ch.s)}
    live = [(w, prior) for w, prior in mix.components if w != 0.0]
    tables = prior_tables(ch, [prior for _, prior in live])
    for (weight, prior), table in zip(live, tables):
        cs = constraint_set(ch, prior, table=table)
        for mask in bounds:
            bounds[mask] += weight * cs.bounds[mask]
    return _computed_set(ch.s, bounds)


# ---------------------------------------------------------------------------
# prior sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sweep:
    """Bounds and distinct corners of every prior of a grid, as arrays.

    Prior p gives sender i the distribution `per_sender[i][p]`, and its bound
    for the nonempty sender subset `mask` is `bounds[p, mask - 1]`.  Corner j
    belongs to prior `corner_prior[j]`, has the 0-based decode order
    `corner_perm[j]` and the rates `corner_rates[j]`; the corners are listed
    by prior, and each prior's as `table_corners` lists them.
    """

    per_sender: tuple[np.ndarray, ...]
    bounds: np.ndarray
    corner_prior: np.ndarray
    corner_perm: np.ndarray
    corner_rates: np.ndarray


def _compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def prior_grid(alphabet_sizes: Sequence[int],
               resolution: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Product priors whose per-sender probabilities are numerators over `resolution`.

    Returns, for each sender, the array of its distributions c / resolution
    (one row per composition c, lexicographic), and the (s, P) array whose
    column p picks each sender's row in prior p.  Priors are enumerated
    lexicographically, the first sender slowest; the grid refines as
    resolution grows, and any coarser grid's priors reappear in every
    multiple of it.
    """
    k = as_index(resolution, "resolution")
    if k < 1:
        raise ValidationError(f"grid resolution must be >= 1, got {resolution}")
    count = 1
    for a in alphabet_sizes:
        count *= math.comb(k + a - 1, a - 1)
    if count > DEFAULT_MAX_GRID_POINTS:
        raise CapExceeded(
            f"grid would contain {count} priors, configured cap is {DEFAULT_MAX_GRID_POINTS}"
        )
    compositions = [np.array(list(_compositions(k, a)), dtype=float) / k
                    for a in alphabet_sizes]
    index = np.indices([len(c) for c in compositions]).reshape(len(compositions), -1)
    return compositions, index


def boundary_sweep(ch: CqMacChannel, resolution: int) -> Sweep:
    """Constraint sets and corners over the deterministic prior grid.

    One `entropy.entropy_tables` call covers every grid prior; it
    diagonalizes each sender subset's group states once per composition
    tuple of the senders averaged out (729 states for three binary senders
    at resolution 6, against 9,261 taken prior by prior).  Each prior's
    bounds come from its `constraint_set`, where they are checked, once:
    clamped, and refused when non-finite.  Its corners are read off the
    tables, chunk by chunk, by `table_corners`, in chunks of as many priors
    as `config.CHUNK_BYTES` holds s! x s corner rates.
    The convex hull of all corners plus the origin under-approximates the
    capacity region and grows monotonically under grid refinement.
    """
    orders, _ = _orders(ch.s)   # before the tables of the whole grid are computed
    compositions, index = prior_grid(ch.sender_alphabets, resolution)
    per_sender = tuple(c[i] for c, i in zip(compositions, index))
    tables = _sender_tables(ch, per_sender)
    bounds = np.empty((len(tables), (1 << ch.s) - 1))
    kept = []   # (prior, order, rates) arrays of each chunk's corners
    for rows in chunks(len(tables), 8 * orders.size):   # one prior: s! x s rates
        for p in range(len(tables))[rows]:
            bounds[p] = list(constraint_set(ch, None, table=tables[p]).bounds.values())
        p_idx, perms, rates = table_corners(tables[rows], ch.s)
        kept.append((p_idx + rows.start, perms, rates))
    return Sweep(per_sender, bounds, *map(np.concatenate, zip(*kept)))


# ---------------------------------------------------------------------------
# two-sender hull
# ---------------------------------------------------------------------------

def upper_boundary_2d(rates: np.ndarray) -> np.ndarray:
    """Vertices of the Pareto part of the convex hull of two-sender rate points.

    The region being described is the downward-closed convex hull of the
    (m, 2) rates and the origin; the returned (k, 2) vertices are sorted by
    increasing first rate and decreasing second rate.
    """
    rates = as_nonnegative(rates, "rates")
    if rates.ndim != 2 or rates.shape[1] != 2:
        raise ValidationError(f"upper_boundary_2d expects (m, 2) rates, got shape {rates.shape}")
    pts = sorted(set(map(tuple, rates.tolist())))
    if not pts:
        return np.empty((0, 2))
    # upper-left anchor and lower-right anchor close the region along the axes
    x_max = max(x for x, _ in pts)
    y_max = max(y for _, y in pts)
    candidates = sorted(set(pts) | {(0.0, y_max), (x_max, 0.0)})
    hull: list[tuple[float, float]] = []
    for p in candidates:  # monotone chain, upper hull
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) >= -1e-15:
                hull.pop()
            else:
                break
        hull.append(p)
    pareto = [
        (x, y) for x, y in hull
        if not any(x2 >= x - 1e-15 and y2 >= y - 1e-15 and (x2, y2) != (x, y) for x2, y2 in hull)
    ]
    return np.array(pareto or hull[:1])
