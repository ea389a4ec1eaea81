"""Information quantities of labeled classical-quantum ensembles.

`entropy_tables` is the one entropy table: for a stack of label
distributions sharing one table of states it returns H of every (label
subset, with or without the quantum part) block, by the block formula
H = H_Shannon(group masses) + sum_g p(g) S(state_g).  A conditional state
depends only on the weights of the labels it averages over, so per label
subset each is formed and diagonalized once per distinct such weights, by
one einsum and one batched eigvalsh per chunk, and ensembles that share
them share its entropy.  Every conditional mutual information is a signed
sum of table entries (`table_mi`).  `restrict`, `subsystem_entropy` and
`mutual_information` (two entropy identities, which must agree) are the
per-block oracle path, with a dense-matrix oracle (expand, partial-trace,
diagonalize) beside them.  The per-block path computes each block of an
ensemble once: the ensemble's `block_memo` keeps, per selector, the
restriction and its Shannon and state-entropy parts, the latter from one
eigvalsh over the restriction's stacked atom states.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import operators as ops
from .channel import (ATOM_FLOOR, CqEnsemble, make_ensemble, mask_members, normalize_subset,
                      subset_mask)
from .config import chunks
from .operators import ValidationError, as_distribution, as_index, as_reals, shannon_bits

MI_FORM_TOL = 1e-9      # the two mutual-information forms must agree this tightly
MI_CLAMP = 1e-9         # raw values in [-MI_CLAMP, 0) are reported as 0


@dataclass(frozen=True)
class SubsystemSelector:
    """Names a commuting block of an ensemble: some label factors, optionally
    the quantum part.  Overlapping selectors are rejected where disjointness
    matters; there is no silent coercion."""

    classical: frozenset[int]
    quantum: bool

    @staticmethod
    def of(classical: Iterable[int] = (), quantum: bool = False) -> "SubsystemSelector":
        return SubsystemSelector(frozenset(as_index(i, "classical") for i in classical),
                                 bool(quantum))

    @property
    def is_empty(self) -> bool:
        return not self.classical and not self.quantum

    def key(self) -> str:
        """Serialization key: bitmask of label factors, '+Y' when quantum included."""
        mask = subset_mask(self.classical)
        if self.quantum:
            return f"{mask}+Y" if mask else "Y"
        return str(mask)

    def union(self, other: "SubsystemSelector") -> "SubsystemSelector":
        return SubsystemSelector(self.classical | other.classical, self.quantum or other.quantum)

    def disjoint(self, other: "SubsystemSelector") -> bool:
        if self.classical & other.classical:
            return False
        return not (self.quantum and other.quantum)

    def validate(self, e: CqEnsemble) -> None:
        arity = len(e.label_spaces)
        if any(i < 0 or i >= arity for i in self.classical):
            raise ValidationError(
                f"selector names label factors {sorted(self.classical)}, ensemble has {arity}"
            )
        if self.is_empty:
            raise ValidationError("empty selector: no classical part and no quantum part")


def restrict(e: CqEnsemble, sel: SubsystemSelector) -> CqEnsemble:
    """Marginal ensemble on the selected block.

    Labels outside the selector are summed out (atoms merged, states
    probability-averaged); the quantum part is traced away when not selected,
    leaving trivial one-dimensional states.  Merged states are mixtures of
    atoms `make_ensemble` checked, so they are not checked again.
    """
    sel.validate(e)
    kept = sorted(sel.classical)
    groups: dict[tuple[int, ...], list] = {}
    for label, p, rho in e.atoms:
        key = tuple(label[i] for i in kept)
        entry = groups.get(key)
        if entry is None:
            groups[key] = [p, p * rho if sel.quantum else None]
        else:
            entry[0] += p
            if sel.quantum:
                entry[1] = entry[1] + p * rho
    spaces = tuple(e.label_spaces[i] for i in kept)
    one = np.eye(1, dtype=complex)
    atoms = tuple(
        (k, p, ops.hermitize(acc / p) if sel.quantum else one)
        for k, (p, acc) in sorted(groups.items()) if p >= ATOM_FLOOR
    )
    return CqEnsemble(spaces, e.quantum_dim if sel.quantum else 1, atoms)


def _state_entropy(r: CqEnsemble) -> float:
    """sum_l p(l) S(state_l) in bits: one eigvalsh over the stacked states,
    the terms added in atom order."""
    spectra = shannon_bits(np.linalg.eigvalsh(np.stack([rho for _, _, rho in r.atoms])))
    return float(sum(p * h for (_, p, _), h in zip(r.atoms, spectra)))


def _block(e: CqEnsemble, sel: SubsystemSelector) -> tuple[CqEnsemble, float, float]:
    """(restriction, Shannon part, state-entropy part) in bits of the selected
    block of `e`, the last 0 for a classical block; `restrict` runs on the
    block's first use only."""
    block = e.block_memo.get(sel)
    if block is None:
        r = restrict(e, sel)
        block = (r, float(shannon_bits(r.probabilities())),
                 _state_entropy(r) if sel.quantum else 0.0)
        e.block_memo[sel] = block
    return block


def subsystem_entropy(e: CqEnsemble, sel: SubsystemSelector) -> float:
    """Entropy in bits of the ensemble restricted to the selected block."""
    r, h, states = _block(e, sel)
    if r.quantum_dim > 1:
        h += states
    return h


def entropy_tables(factors: Sequence[np.ndarray], states: np.ndarray) -> np.ndarray:
    """H in bits of every block of a stack of ensembles that share their states.

    `states` has shape (a_1, ..., a_s, d, d) and holds the state of each
    label tuple; the caller has checked them.  The label weights of the P
    ensembles are the product of `factors`, multiplied in order, whose
    broadcast shape is (P, a_1, ..., a_s): one factor of that shape, or one
    per sender of shape (P, 1, ..., a_i, ..., 1) for product priors.  Returns
    an array of shape (P, 2^s, 2) whose row p is the entropy table of
    ensemble p: entry [mask, q] is the entropy of the ensemble restricted to
    the label factors in `mask`, with the quantum part when q == 1.  Entry
    [0, 0], the empty block, is 0, so that chain-rule differences need no
    special case.

    A group's mass is the sum of its labels' full weights, labels below
    1e-15 dropped as in `restrict`, so a group below that floor has mass 0.
    A group's state depends only on the factors that average, those with a
    broadcast axis outside `mask`; the others are constant over the averaged
    labels and cancel.  It is the average of its labels' (hermitized)
    states under the product of the averaging factors, a label left out
    when that averaging weight is below ATOM_FLOOR = 1e-15.  So each mask
    forms and diagonalizes the group states once per distinct key, the
    bytes of an ensemble's averaging factor rows (as `region.prior_tables`
    keys its memo), and ensemble p adds sum_g mass_pg S[key_p, g].  At the
    full mask no factor averages: the group states are the letter states,
    one stack for every ensemble.  Group states are formed in chunks of
    keys, a stack of group states the item; masses and Shannon parts in
    chunks of ensembles, a row of label weights the item (`config.chunks`).
    A row does not depend on the other ensembles of the stack.
    """
    num = factors[0].shape[0]
    spaces = states.shape[:-2]
    s, d = len(spaces), states.shape[-1]
    labels = list(range(1, s + 1))
    item = 16 * d * d * int(np.prod(spaces))
    kept = [[ax for ax in labels if mask >> (ax - 1) & 1] for mask in range(1 << s)]
    summed = [tuple(ax for ax in labels if ax not in k) for k in kept]
    table = np.zeros((num, 1 << s, 2))
    group_h = [None] * (1 << s)
    if d > 1 and num:   # a one-dimensional quantum part adds no entropy
        states = ops.hermitize(states)   # so every group state is Hermitian
        axes = [sum(1 << (ax - 1) for ax in labels if f.shape[ax] > 1) for f in factors]
        row_bytes = []
        for f in factors:
            raw = f.tobytes()
            size = len(raw) // num
            row_bytes.append([raw[at:at + size] for at in range(0, len(raw), size)])
        group_h = [_group_entropies([i for i, a in enumerate(axes) if a & ~mask], factors,
                                    row_bytes, states, kept[mask], summed[mask], item)
                   for mask in range(1 << s)]
    for rows in chunks(num, 8 * int(np.prod(spaces))):
        w = functools.reduce(np.multiply, (f[rows] for f in factors))
        w = np.where(w >= ATOM_FLOOR, w, 0.0)
        for mask, by_key in enumerate(group_h):
            flat = w.sum(axis=summed[mask]).reshape(len(w), -1)
            h = shannon_bits(flat)
            if mask:
                table[rows, mask, 0] = h
            if by_key is not None:   # a group below the floor has mass 0 and adds 0
                key_h, key_of = by_key
                h = h + (flat * key_h.take(key_of[rows], axis=0)).sum(axis=1)
            table[rows, mask, 1] = h
    return table


def _group_entropies(averaging: list[int], factors: Sequence[np.ndarray],
                     row_bytes: list[list[bytes]], states: np.ndarray, kept: list[int],
                     summed: tuple[int, ...], item: int) -> tuple[np.ndarray, list[int]]:
    """For the label axes `kept` of `entropy_tables`, the axes `summed`
    averaged by the factors numbered `averaging`: the entropy of each group
    state per distinct key, shape (keys, groups), and the key index of each
    of the P ensembles.  `row_bytes[i][p]` is the bytes of row p of `factors[i]`."""
    num = len(row_bytes[0])
    keys = list(zip(*(row_bytes[i] for i in averaging))) or [()] * num
    index: dict = {}   # keys numbered in first-seen order
    key_of = [index.setdefault(key, len(index)) for key in keys]
    members = list(dict(zip(key_of, range(num))).values())   # each key's last ensemble
    if not averaging:   # the group states are the letter states
        return shannon_bits(np.linalg.eigvalsh(states)).reshape(1, -1), key_of
    s = states.ndim - 2
    labels = list(range(1, s + 1))
    key_h = []
    for part in chunks(len(members), item):
        u = functools.reduce(np.multiply, (factors[i].take(members[part], 0) for i in averaging))
        u = np.where(u >= ATOM_FLOOR, u, 0.0)
        # a group's averaging mass is 0 or at least ATOM_FLOOR: the maximum
        # only keeps an empty group's zero weights from dividing by 0
        u = u / np.maximum(u.sum(axis=summed, keepdims=True), ATOM_FLOOR)
        blocks = np.einsum(u, [0, *labels], states, [*labels, s + 1, s + 2],
                           [0, *kept, s + 1, s + 2])
        key_h.append(shannon_bits(np.linalg.eigvalsh(blocks)).reshape(len(u), -1))
    return np.concatenate(key_h), key_of


def subsystem_entropy_dense(e: CqEnsemble, sel: SubsystemSelector) -> float:
    """Same quantity by the dense oracle: expand the whole ensemble to its
    block-diagonal matrix, partial-trace to the selector, diagonalize.  Only
    the selector is checked: the matrix mixes the ensemble's states, checked
    where the ensemble was built, so its partial traces are states, and the
    unchecked cores of `partial_trace` and `entropy_bits` run on them."""
    sel.validate(e)
    dims = list(e.label_spaces) + [e.quantum_dim]
    keep = sorted(sel.classical) + ([len(e.label_spaces)] if sel.quantum else [])
    return ops._entropy_bits(ops._partial_trace(e.dense_matrix, dims, keep))


def conditional_entropy(e: CqEnsemble, b: SubsystemSelector, c: SubsystemSelector) -> float:
    """H(B|C) = H(BC) - H(C); an empty conditioner C contributes zero."""
    if not b.disjoint(c):
        raise ValidationError("conditional entropy needs disjoint selectors")
    if c.is_empty:
        return subsystem_entropy(e, b)
    return subsystem_entropy(e, b.union(c)) - subsystem_entropy(e, c)


def average_conditional_entropy(e: CqEnsemble, conditioner: Iterable[int]) -> float:
    """H(quantum | selected labels) as the probability-weighted average of the
    conditional states' entropies (valid because the conditioner is classical)."""
    return _block(e, SubsystemSelector.of(conditioner, quantum=True))[2]


def clamp_mi(value: float, context: str) -> float:
    """Values in [-1e-9, 0) become 0; below that the numerics are broken and raise."""
    if value < -MI_CLAMP:
        raise ValidationError(f"{context}: mutual information {value!r} below -1e-9")
    return max(value, 0.0)


def table_mi(table: Sequence[Sequence[float]], mask: int, arity: int) -> float:
    """Unclamped I(X(J) ^ Y | X(Jc)) = H(X(J)) + H(X(Jc) Y) - H(X(all) Y), J = mask,
    from one ensemble's entropy table (a row of `entropy_tables`)."""
    full = (1 << arity) - 1
    return float(table[mask][0] + table[full & ~mask][1] - table[full][1])


def mutual_information(e: CqEnsemble, members: Iterable[int]) -> float:
    """I(X(J) ^ Y | X(Jc)) in bits for label-factor subset J: the oracle of `table_mi`.

    Form A, H(Y | X(Jc)) - H(Y | X(all)), and form B, H(X(J)) + H(X(Jc) Y)
    - H(X(all) Y), must agree within 1e-9; form B is returned through `clamp_mi`.
    """
    arity = len(e.label_spaces)
    sub = normalize_subset(members, arity)
    comp = frozenset(range(arity)) - sub
    form_a = average_conditional_entropy(e, comp) - average_conditional_entropy(e, range(arity))
    h_j = subsystem_entropy(e, SubsystemSelector.of(sub))
    h_rest = subsystem_entropy(e, SubsystemSelector.of(comp, quantum=True))
    h_all = subsystem_entropy(e, SubsystemSelector.of(range(arity), quantum=True))
    form_b = h_j + h_rest - h_all
    if abs(form_a - form_b) > MI_FORM_TOL:
        raise ValidationError(
            f"mutual information forms disagree for J={sorted(sub)}: "
            f"{form_a!r} vs {form_b!r}"
        )
    return clamp_mi(form_b, f"J={sorted(sub)}")


def check_subadditivity(v1: Sequence[np.ndarray], v2: Sequence[np.ndarray], q) -> float:
    """Slack I(A1 A2 ^ Z1 Z2) - I(A1 ^ Z1) - I(A2 ^ Z2) in bits.

    Built on the joint ensemble that pairs letter (a1, a2) with the product
    state V1_a1 (x) V2_a2 under the joint distribution q; each factor is
    checked once, in its marginal ensemble, and no product.  The slack is
    always <= 0 up to numerics (mutual information is subadditive across
    independent channels); callers assert `slack <= 1e-9`.
    """
    q = as_reals(q, "q")
    if q.shape != (len(v1), len(v2)):
        raise ValidationError(f"q must have shape ({len(v1)}, {len(v2)}), got {q.shape}")
    q = as_distribution(q, "q").reshape(q.shape)
    # each factor's dimension is that of its first state, read as a caller's operator
    d1, d2 = (len(ops.as_operator(v[0], "atom (0,)")) for v in (v1, v2))
    e1 = make_ensemble((len(v1),), d1, (((a1,), q[a1].sum(), v1[a1]) for a1 in range(len(v1))))
    e2 = make_ensemble((len(v2),), d2, (((a2,), q[:, a2].sum(), v2[a2]) for a2 in range(len(v2))))
    # products of checked factors are states, so the joint ensemble is built as
    # channel_state builds its own; a kept atom's factors have kept marginals
    factors = [{a: rho for (a,), _, rho in e.atoms} for e in (e1, e2)]
    atoms = []
    for (a1, a2), p in np.ndenumerate(q):
        if p >= ATOM_FLOOR:
            rho = np.kron(factors[0][a1], factors[1][a2])
            rho.setflags(write=False)
            atoms.append(((a1, a2), float(p), rho))
    joint = CqEnsemble((len(v1), len(v2)), d1 * d2, tuple(atoms))
    i_joint = mutual_information(joint, (0, 1))
    i_1 = mutual_information(e1, (0,))
    i_2 = mutual_information(e2, (0,))
    return i_joint - i_1 - i_2


def fano_bound_check(e: CqEnsemble, x_povm, y_povm) -> tuple[float, float]:
    """Both sides of the error-probability entropy bound.

    `x_povm` is a diagonal POVM over the joint labels: an array of shape
    (k, num_labels), entries in [0, 1], columns summing to 1.  `y_povm` is a
    POVM on the quantum part with the same number of outcomes, given as a
    sequence of its matrices.  Returns
    (H(labels | quantum), 1 + P_e * log2(num_labels)); the bound asserts
    lhs <= rhs up to 1e-9.
    """
    x = as_reals(x_povm, "x_povm")
    n_labels = e.num_labels
    if x.ndim != 2 or x.shape[1] != n_labels:
        raise ValidationError(f"x_povm must have shape (k, {n_labels}), got {x.shape}")
    if not np.all((x >= -1e-10) & (x <= 1 + 1e-10)):
        raise ValidationError("x_povm entries must lie in [0, 1]")
    if not np.max(np.abs(x.sum(axis=0) - 1.0)) <= 1e-8:
        raise ValidationError("x_povm columns must sum to 1")
    y_elements = [ops.as_operator(m, f"y_povm element {j}") for j, m in enumerate(y_povm)]
    if len(y_elements) != x.shape[0]:
        raise ValidationError(
            f"POVMs must share an index set: {x.shape[0]} vs {len(y_elements)} outcomes"
        )
    ops.check_povm(y_elements, e.quantum_dim, name="y_povm")

    correct = 0.0
    for label, p, rho in e.atoms:
        idx = e.label_index(label)
        for j, y in enumerate(y_elements):
            xj = x[j, idx]
            if xj > 0:
                correct += p * xj * float(np.trace(rho @ y).real)
    p_err = 1.0 - correct
    arity = range(len(e.label_spaces))
    lhs = conditional_entropy(
        e, SubsystemSelector.of(arity), SubsystemSelector.of((), quantum=True)
    )
    rhs = 1.0 + p_err * np.log2(n_labels) if n_labels > 1 else 1.0
    return lhs, float(rhs)
