"""Classical-quantum multiple-access channel model.

A channel maps joint letter tuples (x_1, ..., x_s) from s sender alphabets
to density matrices on a d-dimensional output system.  This module validates
channels, reads and writes their JSON file format, and builds the derived
objects everything else consumes: reduced channels (a sender subset sees the
complement averaged over its priors), lazy n-block channels, and channel
states represented as labeled classical-quantum ensembles.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import operators as ops
from .config import DEFAULT_MAX_LETTER_TUPLES, CapExceeded, max_dim, require_dim
from .operators import ValidationError

PROB_TOL = 1e-10        # tolerance for probability vectors summing to 1
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
    sub = frozenset(int(i) for i in members)
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
        vecs = []
        for i, v in enumerate(self.per_sender):
            v = np.asarray(v, dtype=float).ravel()
            if v.size < 1:
                raise ValidationError(f"prior for sender {i} is empty")
            if not np.all(np.isfinite(v)):
                raise ValidationError(f"prior for sender {i} has non-finite entries")
            if np.any(v < 0):
                raise ValidationError(f"prior for sender {i} has negative entries")
            if abs(v.sum() - 1.0) > PROB_TOL:
                raise ValidationError(f"prior for sender {i} sums to {v.sum():.12g}, expected 1")
            v = v.copy()
            v.setflags(write=False)
            vecs.append(v)
        object.__setattr__(self, "per_sender", tuple(vecs))

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
        return Prior(tuple(np.full(a, 1.0 / a) for a in alphabet_sizes))

    @staticmethod
    def point_mass(alphabet_sizes: Sequence[int], letters: Sequence[int]) -> "Prior":
        vecs = []
        for a, x in zip(alphabet_sizes, letters):
            v = np.zeros(a)
            v[x] = 1.0
            vecs.append(v)
        return Prior(tuple(vecs))


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def _table_shape(sender_alphabets: Sequence[int],
                 output_dim: int) -> tuple[tuple[int, ...], int]:
    """Alphabets and output dimension of a channel table, checked before
    anything of the size they declare is parsed, allocated or enumerated."""
    alphabets = tuple(int(a) for a in sender_alphabets)
    d = int(output_dim)
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


@dataclass(frozen=True)
class CqMacChannel:
    """Complete table of output states, one per joint letter tuple.

    The constructor is the one place a channel is checked.  `states` maps
    letter tuples to d x d matrices, or is an array (a_1, ..., a_s, d, d);
    every violation (missing, unexpected or misshapen entries, non-Hermitian
    or non-PSD states, traces away from 1) is collected into one
    ValidationError, one line each, naming its letter tuple.  `states` is
    then stored as one read-only complex array of that shape.
    """

    sender_alphabets: tuple[int, ...]
    output_dim: int
    states: np.ndarray
    sender_names: tuple[str, ...] = ()

    def __post_init__(self):
        alphabets, d = _table_shape(self.sender_alphabets, self.output_dim)
        states = self.states
        if not isinstance(states, Mapping):
            states = np.asarray(states, dtype=complex)
            if states.shape != alphabets + (d, d):
                raise ValidationError(
                    f"state table has shape {states.shape}, expected {alphabets + (d, d)}")
            states = dict(zip(np.ndindex(alphabets), states.reshape(-1, d, d)))
        expected = set(np.ndindex(alphabets))
        problems: list[str] = []
        checked: dict[tuple[int, ...], np.ndarray] = {}
        for key in sorted(states):
            key_t = tuple(int(x) for x in key)
            if key_t not in expected:
                problems.append(f"unexpected state for letter tuple {key_t}")
                continue
            mat = np.asarray(states[key], dtype=complex)
            if mat.shape != (d, d):
                problems.append(f"state {key_t}: shape {mat.shape}, expected ({d}, {d})")
                continue
            try:
                checked[key_t] = ops.check_density(mat, name=f"state {key_t}")
            except ValidationError as exc:
                problems.append(str(exc))
        missing = expected - {tuple(int(x) for x in k) for k in states}
        problems += [f"missing state {key_t}" for key_t in sorted(missing)]
        if problems:
            raise ValidationError("\n".join(problems))
        table = np.empty(alphabets + (d, d), dtype=complex)  # complete: no larger than the input
        for key_t, mat in checked.items():
            table[key_t] = mat
        table.setflags(write=False)
        object.__setattr__(self, "sender_alphabets", alphabets)
        object.__setattr__(self, "output_dim", d)
        object.__setattr__(self, "states", table)
        object.__setattr__(self, "sender_names", tuple(self.sender_names)
                           or tuple(f"S{i + 1}" for i in range(len(alphabets))))

    @property
    def s(self) -> int:
        return len(self.sender_alphabets)

    def joint_letters(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(*(range(a) for a in self.sender_alphabets))

    def state(self, letters: Sequence[int]) -> np.ndarray:
        key = tuple(int(x) for x in letters)
        if len(key) != self.s or not all(0 <= x < a for x, a in zip(key, self.sender_alphabets)):
            raise ValidationError(f"no state for letter tuple {key}")
        return self.states[key]   # checked first: indexing would wrap negative letters


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

    def dense_matrix(self) -> np.ndarray:
        """Expand to the full block-diagonal matrix (verification oracle only)."""
        dim = self.num_labels * self.quantum_dim
        require_dim(dim, what="dense ensemble expansion")
        out = np.zeros((dim, dim), dtype=complex)
        d = self.quantum_dim
        for label, p, rho in self.atoms:
            b = self.label_index(label)
            out[b * d:(b + 1) * d, b * d:(b + 1) * d] += p * rho
        return out


def make_ensemble(label_spaces: Sequence[int], quantum_dim: int,
                  atoms: Iterable[tuple[Sequence[int], float, np.ndarray]]) -> CqEnsemble:
    """Normalize and validate an atom list into a CqEnsemble.

    Atoms with probability below 1e-15 are dropped (they contribute nothing
    to entropies but destabilize logarithms).  Labels must be unique and in
    range; probabilities must be nonnegative and sum to 1 within 1e-10; each
    kept state must pass `check_density`, the one check that entropies trust.
    """
    spaces = tuple(int(a) for a in label_spaces)
    d = int(quantum_dim)
    seen: dict[tuple[int, ...], tuple[float, np.ndarray]] = {}
    total = 0.0
    for label, p, rho in atoms:
        label_t = tuple(int(x) for x in label)
        if len(label_t) != len(spaces):
            raise ValidationError(f"label {label_t} has arity {len(label_t)}, expected {len(spaces)}")
        if any(x < 0 or x >= a for x, a in zip(label_t, spaces)):
            raise ValidationError(f"label {label_t} outside label spaces {spaces}")
        if label_t in seen:
            raise ValidationError(f"duplicate atom for label {label_t}")
        p = float(p)
        if p < -PROB_TOL:
            raise ValidationError(f"atom {label_t} has negative probability {p:.3e}")
        total += p
        if p < ATOM_FLOOR:
            continue
        rho = np.asarray(rho, dtype=complex)
        if rho.shape != (d, d):
            raise ValidationError(f"atom {label_t}: state shape {rho.shape}, expected ({d}, {d})")
        seen[label_t] = (p, ops.check_density(rho, name=f"atom {label_t}"))
    if abs(total - 1.0) > PROB_TOL:
        raise ValidationError(f"atom probabilities sum to {total:.12g}, expected 1")
    ordered = tuple((label, p, rho) for label, (p, rho) in sorted(seen.items()))
    return CqEnsemble(spaces, d, ordered)


def channel_state(ch: CqMacChannel, prior: Prior) -> CqEnsemble:
    """Joint input-output state for one channel use: labels carry the letters.

    One atom per joint letter tuple, with the product prior probability and
    the channel's output state.  Together with the prior this is a faithful
    stand-in for the channel itself.
    """
    if prior.alphabet_sizes != ch.sender_alphabets:
        raise ValidationError(
            f"prior alphabets {prior.alphabet_sizes} do not match channel {ch.sender_alphabets}"
        )
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
    if prior.alphabet_sizes != ch.sender_alphabets:
        raise ValidationError("prior does not match channel alphabets")
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

    `table` is indexed by k-letter tuples, shape (a_1, ..., a_k, d, d), as
    `ch.states` or a reduced channel is; `letters` is an integer array
    (..., n, k) of tuples the caller checked to lie in the table.  Returns
    (..., d^n, d^n): for each row, position 0's state times position 1's and
    so on, bit-identical to reduce(np.kron, ...) of the n states.
    """
    letters = np.asarray(letters)
    states = table[tuple(np.moveaxis(letters, -1, 0))]   # (..., n, d, d)
    return ops.tensor_all(states[..., k, :, :] for k in range(letters.shape[-2]))


@dataclass(frozen=True)
class BlockChannel:
    """n-letter extension of a channel, evaluated lazily per word tuple.

    Only the states actually requested are materialized; each is the
    Kronecker product of the per-position letter states (`block_states`).
    """

    base: CqMacChannel
    n: int
    max_block_dim: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"block length must be >= 1, got {self.n}")
        d, cap = self.base.output_dim, max_dim(self.max_block_dim)
        if d > 1 and self.n > cap.bit_length():   # d**n > 2**n > cap, too large to form
            raise CapExceeded(f"{self.n}-block output state needs dimension {d}^{self.n}, "
                              f"configured cap is {cap}")
        require_dim(self.output_dim, self.max_block_dim, f"{self.n}-block output state")

    @property
    def s(self) -> int:
        return self.base.s

    @property
    def output_dim(self) -> int:
        return self.base.output_dim ** self.n

    def state_for_words(self, words: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
        """Output state of one word per sender (each word is n letters).

        Given an integer array (..., s, n) of such word tuples instead, the
        stack (..., d^n, d^n) of their states.
        """
        try:
            words = np.asarray(words, dtype=int)
        except ValueError:   # ragged word lists
            words = np.empty(0, dtype=int)
        if words.shape[-2:] != (self.s, self.n):
            raise ValidationError(f"expected {self.s} words of {self.n} letters each")
        letters = words.swapaxes(-1, -2)   # (..., n, s): one letter tuple per position
        bad = ((letters < 0) | (letters >= np.array(self.base.sender_alphabets))).any(-1)
        if bad.any():   # checked first: indexing would wrap negative letters
            first = letters.reshape(-1, self.s)[np.flatnonzero(bad)[0]]
            raise ValidationError(f"no state for letter tuple {tuple(first.tolist())}")
        return block_states(self.base.states, letters)


def block_channel(ch: CqMacChannel, n: int, max_block_dim: int | None = None) -> BlockChannel:
    return BlockChannel(ch, int(n), max_block_dim)


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
    w, v = ops.eig_hermitian(choi)
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
        dim_out_sq = choi.shape[0] // dim_in if choi.shape[0] % dim_in == 0 else 0
        if dim_out_sq < 1:
            raise ValidationError("Choi matrix dimension is not a multiple of the input dimension")
        kraus = kraus_from_choi(choi, dim_in, dim_out_sq)
    mats = [np.asarray(k, dtype=complex) for k in kraus]
    if not mats:
        raise ValidationError("empty Kraus list")
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
            states[_parse_key(key, len(alphabets))] = pairs[..., 0] + 1j * pairs[..., 1]
        else:
            vec = _numbers(entry, (d,), f"classical row {key!r}: expected {d} output probabilities")
            states[_parse_key(key, len(alphabets))] = np.diag(vec).astype(complex)
    return CqMacChannel(alphabets, d, states, tuple(names))


def channel_to_dict(ch: CqMacChannel) -> dict:
    states = {}
    for key in ch.joint_letters():
        mat = ch.states[key]
        states[",".join(str(x) for x in key)] = np.stack([mat.real, mat.imag], -1).tolist()
    return {
        "senders": [
            {"name": name, "alphabet": a}
            for name, a in zip(ch.sender_names, ch.sender_alphabets)
        ],
        "output_dim": ch.output_dim,
        "states": states,
    }


def load_channel(path) -> CqMacChannel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as exc:   # also bad UTF-8, huge integers
            raise ChannelFormatError(f"{path}: invalid JSON ({exc})") from exc
    return channel_from_dict(raw)


def save_channel(ch: CqMacChannel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_dict(ch), fh, indent=2, sort_keys=True)
        fh.write("\n")
