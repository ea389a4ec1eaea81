"""Classical-quantum multiple-access channel model.

A channel maps joint letter tuples (x_1, ..., x_s) from s sender alphabets
to density matrices on a d-dimensional output system.  This module validates
channels, reads and writes their JSON file format, and builds the derived
objects everything else consumes: reduced channels (a sender subset sees the
complement averaged over its priors), lazy n-block channels, and channel
states represented as labeled classical-quantum ensembles.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import operators as ops
from .config import DEFAULT_MAX_LETTER_TUPLES, CapExceeded, max_dim, require_dim
from .operators import PROB_TOL, ValidationError, as_block_length, as_index, letter_tuple

ATOM_FLOOR = 1e-15      # ensemble atoms below this probability are dropped
KRAUS_TOL = 1e-9        # completeness tolerance for trace preservation
CHOI_PSD_TOL = 1e-8     # how negative a Choi eigenvalue may be before rejection


class ChannelFormatError(ValueError):
    """The channel file or raw description is malformed (schema level)."""


# ---------------------------------------------------------------------------
# sender subsets (bitmask semantics)
# ---------------------------------------------------------------------------

def subset_mask(members: Iterable[int]) -> int:
    """Bitmask of a set of 0-based sender indices."""
    return sum(1 << int(i) for i in set(members))


def mask_members(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def normalize_subset(members: Iterable[int], s: int) -> frozenset[int]:
    sub = frozenset(as_index(i, "members") for i in members)
    if any(i < 0 or i >= s for i in sub):
        raise ValidationError(f"sender subset {sorted(sub)} not within 0..{s - 1}")
    if not sub:
        raise ValidationError("sender subset must be nonempty")
    return sub


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prior:
    """Independent per-sender input distributions."""

    per_sender: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "per_sender",
                           tuple(Prior.vector(v, i) for i, v in enumerate(self.per_sender)))

    @staticmethod
    def vector(values, sender: int) -> np.ndarray:
        """A read-only float copy of `values`, read by `operators.as_distribution`."""
        v = ops.as_distribution(values, f"prior for sender {sender}").copy()
        v.setflags(write=False)
        return v

    @property
    def s(self) -> int:
        return len(self.per_sender)

    @property
    def alphabet_sizes(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.per_sender)

    def prob(self, letters: Sequence[int]) -> float:
        """Product probability of a joint letter tuple."""
        if len(letters) != self.s:
            raise ValidationError(f"expected {self.s} letters, got {len(letters)}")
        out = 1.0
        for v, x in zip(self.per_sender, letters):
            out *= float(v[x])
        return out

    @staticmethod
    def uniform(alphabet_sizes: Sequence[int]) -> "Prior":
        """Uniform prior on each alphabet, its size read by `as_index`, from 1 to
        DEFAULT_MAX_LETTER_TUPLES (the largest a channel table may have)."""
        sizes = tuple(as_index(a, "alphabet_sizes") for a in alphabet_sizes)
        if not all(1 <= a <= DEFAULT_MAX_LETTER_TUPLES for a in sizes):
            raise ValidationError(f"alphabet sizes must be from 1 to "
                                  f"{DEFAULT_MAX_LETTER_TUPLES}, got {sizes}")
        return Prior(tuple(np.full(a, 1.0 / a) for a in sizes))


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def _table_shape(sender_alphabets: Sequence[int],
                 output_dim: int) -> tuple[tuple[int, ...], int]:
    """Alphabets and output dimension of a channel table, checked before
    anything of the size they declare is parsed, allocated or enumerated."""
    alphabets = tuple(as_index(a, "sender_alphabets") for a in sender_alphabets)
    d = as_index(output_dim, "output_dim")
    problems: list[str] = []
    if not alphabets:
        problems.append("channel needs at least one sender")
    if any(a < 1 for a in alphabets):
        problems.append(f"alphabet sizes must be >= 1, got {alphabets}")
    if d < 1:
        problems.append(f"output_dim must be >= 1, got {d}")
    if problems:
        raise ValidationError("\n".join(problems))
    require_dim(d, what="channel output state")
    cap = DEFAULT_MAX_LETTER_TUPLES
    if 1 << len(alphabets) > cap:
        raise CapExceeded(f"{len(alphabets)} senders exceed the cap of {cap} sender subsets")
    if math.prod(alphabets) > cap:
        raise CapExceeded(f"channel table needs {math.prod(alphabets)} letter tuples, "
                          f"configured cap is {cap}")
    return alphabets, d


def _read_table(states, alphabets: tuple[int, ...],
                d: int) -> tuple[np.ndarray | None, list[str]]:
    """The checked (a_1, ..., a_s, d, d) table of a mapping from letter tuples
    to d x d states, or of an array of that shape, as a new array; or None
    and every violation, one line each.

    A mapping whose keys are exactly the letter tuples, or an array, is read
    by one `operators._complex` and checked by one `operators.densities_pass`.
    Only a table that fails either is read and checked entry by entry
    (`_complex`, the shape, `check_density`), which writes the lines: per
    letter tuple in sorted order, then the missing tuples.  So the messages
    and their order do not depend on the stacked check.
    """
    keys = list(np.ndindex(alphabets))
    if isinstance(states, Mapping):
        states = {letter_tuple(key, "letter tuple"): mat for key, mat in states.items()}
        try:   # with as many keys as tuples, a missing one reads as None and fails
            table = ops._complex([states.get(x) for x in keys]
                                 if len(states) == len(keys) else None, "state table")
        except ValidationError:
            table = None
    else:   # a copy, so the caller cannot change it
        table = np.array(ops._complex(states, "state table"), order="C")
        if table.shape != alphabets + (d, d):
            return None, [f"state table has shape {table.shape}, expected {alphabets + (d, d)}"]
        table = table.reshape(-1, d, d)
        states = dict(zip(keys, table))
    if table is not None and table.shape[1:] == (d, d) and ops.densities_pass(table):
        return table.reshape(alphabets + (d, d)), []
    expected = set(keys)
    problems: list[str] = []
    for key in sorted(states):
        name = f"state {key}"
        try:
            if key not in expected:
                raise ValidationError(f"unexpected state for letter tuple {key}")
            mat = ops._complex(states[key], name)
            if mat.shape != (d, d):
                raise ValidationError(f"{name}: shape {mat.shape}, expected ({d}, {d})")
            ops.check_density(mat, name=name)
        except ValidationError as exc:
            problems.append(str(exc))
    problems += [f"missing state {key}" for key in keys if key not in states]
    # no problem here: the stacked check disagreed by rounding, and the
    # table read whole is complete and checked
    return (None if problems else table.reshape(alphabets + (d, d))), problems


@dataclass(frozen=True)
class CqMacChannel:
    """Complete table of output states, one per joint letter tuple.

    The constructor is the one place a channel is checked.  `states` maps
    letter tuples to d x d matrices, or is an array (a_1, ..., a_s, d, d);
    every violation (missing, unexpected, unreadable or misshapen entries,
    non-Hermitian or non-PSD states, traces away from 1) is collected into
    one ValidationError, one line each, naming its letter tuple.  `states`
    is then stored as one read-only complex array of that shape.
    `_read_table` reads and checks the table whole, and entry by entry only
    for the messages.

    `table_memo` keeps the entropy tables `region.prior_tables` computed
    for this channel, one per prior.
    """

    sender_alphabets: tuple[int, ...]
    output_dim: int
    states: np.ndarray
    sender_names: tuple[str, ...] = ()

    def __post_init__(self):
        alphabets, d = _table_shape(self.sender_alphabets, self.output_dim)
        table, problems = _read_table(self.states, alphabets, d)
        if problems:
            raise ValidationError("\n".join(problems))
        table.setflags(write=False)
        object.__setattr__(self, "sender_alphabets", alphabets)
        object.__setattr__(self, "output_dim", d)
        object.__setattr__(self, "states", table)
        object.__setattr__(self, "sender_names", tuple(self.sender_names)
                           or tuple(f"S{i + 1}" for i in range(len(alphabets))))

    @functools.cached_property
    def table_memo(self) -> dict:
        """Entropy tables of this channel's state, by the prior's per-sender
        vector bytes (see `region.prior_tables`).

        Held in the instance dict, not in a field, so `eq` and `repr` ignore
        it; it stays valid because the state array is read-only.
        """
        return {}

    @property
    def s(self) -> int:
        return len(self.sender_alphabets)

    def joint_letters(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(*(range(a) for a in self.sender_alphabets))

    def state(self, letters: Sequence[int]) -> np.ndarray:
        key = letter_tuple(letters, "letter tuple")
        if len(key) != self.s or not all(0 <= x < a for x, a in zip(key, self.sender_alphabets)):
            raise ValidationError(f"no state for letter tuple {key}")
        return self.states[key]   # checked first: indexing would wrap negative letters

    def check_prior(self, prior: Prior) -> None:
        """Refuse anything but a Prior whose per-sender alphabets are the channel's."""
        if not isinstance(prior, Prior):
            raise ValidationError(f"prior must be a Prior, got {type(prior).__name__}")
        if prior.alphabet_sizes != self.sender_alphabets:
            raise ValidationError(f"prior alphabets {prior.alphabet_sizes} "
                                  f"do not match channel {self.sender_alphabets}")


# ---------------------------------------------------------------------------
# labeled classical-quantum ensembles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CqEnsemble:
    """Finite ensemble of (classical label tuple, probability, quantum state).

    The joint state it represents is block diagonal over labels; entropies of
    such states split into a Shannon part plus averaged von Neumann parts,
    which is exponentially cheaper than the dense matrix.
    """

    label_spaces: tuple[int, ...]
    quantum_dim: int
    atoms: tuple[tuple[tuple[int, ...], float, np.ndarray], ...]

    @property
    def num_labels(self) -> int:
        return int(np.prod(self.label_spaces)) if self.label_spaces else 1

    def label_index(self, label: tuple[int, ...]) -> int:
        idx = 0
        for size, x in zip(self.label_spaces, label):
            idx = idx * size + x
        return idx

    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p, _ in self.atoms])

    @functools.cached_property
    def block_memo(self) -> dict:
        """The blocks `entropy` has computed for this ensemble, by selector.

        Held in the instance dict, not in a field, so `eq` and `repr` ignore
        it; it stays valid because atom states are never written.
        """
        return {}

    @functools.cached_property
    def dense_matrix(self) -> np.ndarray:
        """The full block-diagonal matrix, read-only (verification oracle only)."""
        dim = self.num_labels * self.quantum_dim
        require_dim(dim, what="dense ensemble expansion")
        out = np.zeros((dim, dim), dtype=complex)
        d = self.quantum_dim
        for label, p, rho in self.atoms:
            b = self.label_index(label)
            out[b * d:(b + 1) * d, b * d:(b + 1) * d] += p * rho
        out.setflags(write=False)
        return out


def make_ensemble(label_spaces: Sequence[int], quantum_dim: int,
                  atoms: Iterable[tuple[Sequence[int], float, np.ndarray]]) -> CqEnsemble:
    """Normalize and validate an atom list into a CqEnsemble.

    Atoms with probability below 1e-15 are dropped (they contribute nothing
    to entropies but destabilize logarithms).  Labels must be unique and in
    range; probabilities must be nonnegative and sum to 1 within 1e-10; each
    kept state must pass `check_density`, the one check that entropies trust.
    Each kept state is stored as a read-only copy.
    """
    spaces = tuple(as_index(a, "label_spaces") for a in label_spaces)
    d = as_index(quantum_dim, "quantum_dim")
    seen: dict[tuple[int, ...], tuple[float, np.ndarray]] = {}
    total = 0.0
    for label, p, rho in atoms:
        label_t = letter_tuple(label, "label")
        if len(label_t) != len(spaces):
            raise ValidationError(f"label {label_t} has arity {len(label_t)}, expected {len(spaces)}")
        if any(x < 0 or x >= a for x, a in zip(label_t, spaces)):
            raise ValidationError(f"label {label_t} outside label spaces {spaces}")
        if label_t in seen:
            raise ValidationError(f"duplicate atom for label {label_t}")
        p = ops._one_real(p, f"atom {label_t} probability")
        if p < -PROB_TOL:
            raise ValidationError(f"atom {label_t} has negative probability {p:.3e}")
        total += p
        if p < ATOM_FLOOR:
            continue
        rho = np.array(ops._complex(rho, f"atom {label_t}"))   # a copy: the caller's stays theirs
        if rho.shape != (d, d):
            raise ValidationError(f"atom {label_t}: state shape {rho.shape}, expected ({d}, {d})")
        rho.setflags(write=False)
        seen[label_t] = (p, ops.check_density(rho, name=f"atom {label_t}"))
    if not abs(total - 1.0) <= PROB_TOL:
        raise ValidationError(f"atom probabilities sum to {total:.12g}, expected 1")
    ordered = tuple((label, p, rho) for label, (p, rho) in sorted(seen.items()))
    return CqEnsemble(spaces, d, ordered)


def channel_state(ch: CqMacChannel, prior: Prior) -> CqEnsemble:
    """Joint input-output state for one channel use: labels carry the letters.

    One atom per joint letter tuple, with the product prior probability and
    the channel's output state.  Together with the prior this is a faithful
    stand-in for the channel itself.
    """
    ch.check_prior(prior)
    # the states were checked by the channel's constructor, so the ensemble
    # is built directly, with make_ensemble's floor and label order
    atoms = tuple((x, p, ch.states[x]) for x in ch.joint_letters()
                  if (p := prior.prob(x)) >= ATOM_FLOOR)
    return CqEnsemble(ch.sender_alphabets, ch.output_dim, atoms)


def reduced_channel(ch: CqMacChannel, prior: Prior, members: Iterable[int]) -> np.ndarray:
    """Channel seen by the sender subset after averaging the complement.

    Indexed like `ch.states`, by letter tuples of the subset's senders in
    ascending sender order: each entry is the prior-weighted average of the
    table over the complement's letters, added up in lexicographic order of
    the complement's letter tuples.
    """
    sub = normalize_subset(members, ch.s)
    ch.check_prior(prior)
    inside = sorted(sub)
    outside = [i for i in range(ch.s) if i not in sub]
    d = ch.output_dim
    # axes (inside letters..., complement tuple, d, d)
    table = ch.states.transpose(inside + outside + [ch.s, ch.s + 1])
    table = table.reshape(table.shape[:len(inside)] + (-1, d, d))
    acc = np.zeros(table.shape[:len(inside)] + (d, d), dtype=complex)
    for k, rest in enumerate(itertools.product(*(range(ch.sender_alphabets[i])
                                                 for i in outside))):
        w = 1.0
        for i, x in zip(outside, rest):
            w *= float(prior.per_sender[i][x])
        acc += w * table[..., k, :, :]
    return ops.hermitize(acc)


def block_states(table: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """Kronecker products over positions of letter-tuple states, per row.

    `table` is indexed by k-letter tuples, shape (a_1, ..., a_k, d, c), as
    `ch.states` or a reduced channel is (c = d), or a letter factor table
    (`BlockChannel.letter_factors`, c = r); `letters` is an integer array
    (..., n, k) of tuples the caller checked to lie in the table.  Returns
    (..., d^n, c^n): for each row, position 0's matrix times position 1's
    and so on, bit-identical to reduce(np.kron, ...) of the n matrices.
    """
    letters = np.asarray(letters)
    states = table[tuple(np.moveaxis(letters, -1, 0))]   # (..., n, d, c)
    return ops.tensor_all(states[..., k, :, :] for k in range(letters.shape[-2]))


def _letter_factors(table: np.ndarray) -> np.ndarray:
    """Factor of each state of a letter table (..., d, d) of checked states,
    shape (..., d, r).

    A factor's columns are its state's eigenvectors times the roots of their
    eigenvalues above SUPPORT_FLOOR, so factor times adjoint is the state; r
    is the table's largest such rank, and lower-rank letters are padded with
    zero columns.
    """
    w, v = ops.eig_hermitian(table, hermitian=True)   # ascending
    on = w > ops.SUPPORT_FLOOR
    rank = int(on.sum(axis=-1).max())
    return (v * np.sqrt(np.where(on, w, 0.0))[..., None, :])[..., -rank:]


@dataclass(frozen=True)
class BlockChannel:
    """n-letter extension of a channel, evaluated lazily per word tuple.

    Only the states actually requested are materialized; each is the
    Kronecker product of the per-position letter states (`block_states`).
    """

    base: CqMacChannel
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", as_block_length(self.n))
        d, cap = self.base.output_dim, max_dim()
        # past the cap's bit length d**n > cap when d > 1, and for any d the
        # n-letter words and the n-factor products would grow without bound
        if self.n > cap.bit_length():
            raise CapExceeded(f"{self.n}-block output state needs dimension {d}^{self.n}, "
                              f"configured cap is {cap}")
        require_dim(self.output_dim, f"{self.n}-block output state")

    @property
    def s(self) -> int:
        return self.base.s

    @property
    def output_dim(self) -> int:
        return self.base.output_dim ** self.n

    @functools.cached_property
    def letter_factors(self) -> np.ndarray:
        """`_letter_factors` of the channel's table, shape (a_1, ..., a_s, d, r),
        built once per block channel, on first use."""
        factors = _letter_factors(self.base.states)
        factors.setflags(write=False)
        return factors

    def state_for_words(self, words: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
        """Factor F of the output state F F† of one word per sender (each
        word is n letters): the (d^n, r^n) Kronecker product of the word's
        `letter_factors`.

        Given an integer array (..., s, n) of such word tuples instead, the
        stack (..., d^n, r^n) of their factors.
        """
        words = ops._numeric(words, "words", "biu", "integer letters")
        if words.shape[-2:] != (self.s, self.n):
            raise ValidationError(f"expected {self.s} words of {self.n} letters each")
        letters = words.swapaxes(-1, -2)   # (..., n, s): one letter tuple per position
        bad = ((letters < 0) | (letters >= np.array(self.base.sender_alphabets))).any(-1)
        if bad.any():   # checked first: indexing would wrap negative letters
            first = letters.reshape(-1, self.s)[np.flatnonzero(bad)[0]]
            raise ValidationError(f"no state for letter tuple {tuple(first.tolist())}")
        return block_states(self.letter_factors, letters)


# ---------------------------------------------------------------------------
# quantum-input channels compiled down to cq channels
# ---------------------------------------------------------------------------

def kraus_from_choi(choi: np.ndarray, dim_in: int, dim_out: int) -> list[np.ndarray]:
    """Kraus operators from a Choi matrix, convention C = sum_ij E_ij (x) Phi(E_ij)."""
    choi = ops.check_hermitian(choi, name="Choi matrix")
    if choi.shape[0] != dim_in * dim_out:
        raise ValidationError(
            f"Choi matrix has dimension {choi.shape[0]}, expected {dim_in * dim_out}"
        )
    w, v = ops.eig_hermitian(choi, hermitian=True)
    kraus = []
    for lam, vec in zip(w, v.T):
        if lam < -CHOI_PSD_TOL:
            raise ValidationError(f"Choi matrix is not PSD (eigenvalue {lam:.3e})")
        if lam <= ops.SUPPORT_FLOOR:
            continue
        kraus.append(np.sqrt(lam) * vec.reshape(dim_in, dim_out).T)
    return kraus


def precompose_qq(input_states: Sequence[Sequence[np.ndarray]],
                  kraus: Sequence[np.ndarray] | None = None,
                  choi: np.ndarray | None = None,
                  sender_names: Sequence[str] = ()) -> CqMacChannel:
    """Compile per-sender signal states through a quantum operation.

    `input_states[i]` lists the density matrices sender i may inject; the
    operation (given as Kraus operators, or as a Choi matrix from which they
    are extracted) maps the product of the chosen signals to the output
    state.  The result is an ordinary cq channel whose letter (a_1, ..., a_s)
    selects signal a_i for sender i.
    """
    if (kraus is None) == (choi is None):
        raise ValidationError("provide exactly one of kraus= or choi=")
    per_sender = []
    dims = []
    for i, sig in enumerate(input_states):
        if not len(sig):
            raise ValidationError(f"sender {i} has no signal states")
        mats = [ops.check_density(m, name=f"sender {i} signal {a}") for a, m in enumerate(sig)]
        if len({m.shape[0] for m in mats}) != 1:
            raise ValidationError(f"sender {i} signal states have mixed dimensions")
        per_sender.append(mats)
        dims.append(mats[0].shape[0])
    dim_in = int(np.prod(dims))
    if choi is not None:
        choi = ops.as_operator(choi, "Choi matrix")
        dim_out_sq = choi.shape[0] // dim_in if choi.shape[0] % dim_in == 0 else 0
        if dim_out_sq < 1:
            raise ValidationError("Choi matrix dimension is not a multiple of the input dimension")
        kraus = kraus_from_choi(choi, dim_in, dim_out_sq)
    mats = [ops._complex(k, f"Kraus operator {j}") for j, k in enumerate(kraus)]
    if not mats:
        raise ValidationError("empty Kraus list")
    for j, k in enumerate(mats):
        if k.ndim != 2:
            raise ValidationError(f"Kraus operator {j} must be a matrix, got shape {k.shape}")
        if not np.isfinite(k).all():   # a NaN would pass the completeness test below
            raise ValidationError(f"Kraus operator {j} has non-finite entries")
    if len({k.shape[1] for k in mats}) != 1 or mats[0].shape[1] != dim_in:
        raise ValidationError(
            f"Kraus operators must have {dim_in} columns to match the input states"
        )
    dim_out = mats[0].shape[0]
    if len({k.shape[0] for k in mats}) != 1:
        raise ValidationError("Kraus operators have mixed output dimensions")
    comp = sum(k.conj().T @ k for k in mats)
    dev = float(np.max(np.abs(comp - np.eye(dim_in))))
    if dev > KRAUS_TOL:
        raise ValidationError(f"map is not trace preserving (completeness deviation {dev:.3e})")

    states = {}
    for letters in itertools.product(*(range(len(sig)) for sig in per_sender)):
        joint = ops.tensor_all(per_sender[i][a] for i, a in enumerate(letters))
        out = np.zeros((dim_out, dim_out), dtype=complex)
        for k in mats:
            out += k @ joint @ k.conj().T
        states[letters] = ops.hermitize(out)
    return CqMacChannel(tuple(len(sig) for sig in per_sender), dim_out, states,
                        tuple(sender_names))


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

_TOP_KEYS = {"senders", "output_dim", "states", "classical"}
_SENDER_KEYS = {"name", "alphabet"}


def _parse_key(key: str, s: int) -> tuple[int, ...]:
    parts = key.split(",")
    if len(parts) != s:
        raise ChannelFormatError(f"state key {key!r} has {len(parts)} letters, expected {s}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ChannelFormatError(f"state key {key!r} is not a comma-joined integer tuple") from exc


def _numbers(raw, shape: tuple[int, ...], what: str) -> np.ndarray:
    """`raw` as a float array of `shape`: JSON numbers only, never ragged."""
    try:
        arr = np.asarray(raw)
    except (ValueError, TypeError, OverflowError):
        raise ChannelFormatError(f"{what}, got ragged nesting") from None
    if arr.dtype.kind not in "iuf":
        raise ChannelFormatError(f"{what}, got non-numeric entries")
    if arr.shape != shape:
        raise ChannelFormatError(f"{what}, got shape {arr.shape}")
    return arr.astype(float)


def channel_from_dict(raw: Mapping) -> CqMacChannel:
    """Parse a channel description; schema violations raise ChannelFormatError,
    semantic violations (missing tuples, bad states) raise ValidationError."""
    if not isinstance(raw, Mapping):
        raise ChannelFormatError("channel description must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ChannelFormatError(f"unknown top-level fields: {sorted(unknown)}")
    if "senders" not in raw or "output_dim" not in raw:
        raise ChannelFormatError("channel description needs 'senders' and 'output_dim'")
    if ("states" in raw) == ("classical" in raw):
        raise ChannelFormatError("provide exactly one of 'states' or 'classical'")

    senders = raw["senders"]
    if not isinstance(senders, list) or not senders:
        raise ChannelFormatError("'senders' must be a nonempty list")
    alphabets, names = [], []
    for i, entry in enumerate(senders):
        if not isinstance(entry, Mapping):
            raise ChannelFormatError(f"sender {i} must be an object")
        bad = set(entry) - _SENDER_KEYS
        if bad:
            raise ChannelFormatError(f"sender {i}: unknown fields {sorted(bad)}")
        if not isinstance(entry.get("alphabet"), int) or isinstance(entry["alphabet"], bool):
            raise ChannelFormatError(f"sender {i}: 'alphabet' must be an integer")
        alphabets.append(entry["alphabet"])
        names.append(str(entry.get("name", f"S{i + 1}")))
    d = raw["output_dim"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ChannelFormatError("'output_dim' must be a positive integer")
    alphabets, d = _table_shape(alphabets, d)

    table = "states" if "states" in raw else "classical"
    if not isinstance(raw[table], Mapping):
        raise ChannelFormatError(f"'{table}' must be an object")
    states: dict[tuple[int, ...], np.ndarray] = {}
    for key, entry in raw[table].items():
        if table == "states":
            pairs = _numbers(entry, (d, d, 2),
                             f"state {key!r}: expected a {d}x{d} matrix of [re, im] pairs")
            with np.errstate(invalid="ignore"):   # an infinite part: non-finite, rejected
                states[_parse_key(key, len(alphabets))] = pairs[..., 0] + 1j * pairs[..., 1]
        else:
            vec = _numbers(entry, (d,), f"classical row {key!r}: expected {d} output probabilities")
            states[_parse_key(key, len(alphabets))] = np.diag(vec).astype(complex)
    return CqMacChannel(alphabets, d, states, tuple(names))


# the channel files shipped in qmac/data: a binary adder embedded as diagonal
# qutrit states, two senders steering one qubit through four pure states, and
# one sender emitting |0><0| or |+><+| (its bound is the two-state Holevo quantity)
BUILTIN_CHANNELS = ("adder-classical", "qubit-pure-mac", "holevo-two-state")


def load_channel(spec) -> CqMacChannel:
    """Channel from a JSON file path or a bundled channel name.

    An existing path wins; otherwise a name of BUILTIN_CHANNELS, with or
    without .json, loads that channel (a name containing a separator is
    never one of them); otherwise FileNotFoundError.
    """
    name = os.fsdecode(spec)
    stem = name[:-5] if name.endswith(".json") else name
    if os.path.exists(spec):
        source = open(spec, encoding="utf-8")
    elif stem in BUILTIN_CHANNELS:
        source = resources.files("qmac.data").joinpath(f"{stem}.json").open(encoding="utf-8")
    else:
        raise FileNotFoundError(
            f"no channel file {name!r} (bundled names: {', '.join(BUILTIN_CHANNELS)})")
    with source as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:   # also bad UTF-8, huge integers
            raise ChannelFormatError(f"{spec}: invalid JSON ({exc})") from exc
    return channel_from_dict(raw)
