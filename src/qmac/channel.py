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
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import operators as ops
from .config import require_dim
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

@dataclass(frozen=True)
class CqMacChannel:
    """Complete table of output states, one per joint letter tuple."""

    sender_alphabets: tuple[int, ...]
    output_dim: int
    states: Mapping[tuple[int, ...], np.ndarray]
    sender_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.sender_names:
            object.__setattr__(
                self, "sender_names",
                tuple(f"S{i + 1}" for i in range(len(self.sender_alphabets))),
            )

    @property
    def s(self) -> int:
        return len(self.sender_alphabets)

    def joint_letters(self) -> Iterable[tuple[int, ...]]:
        return itertools.product(*(range(a) for a in self.sender_alphabets))

    def state(self, letters: Sequence[int]) -> np.ndarray:
        key = tuple(int(x) for x in letters)
        try:
            return self.states[key]
        except KeyError:
            raise ValidationError(f"no state for letter tuple {key}") from None


def validate_channel(sender_alphabets: Sequence[int], output_dim: int,
                     states: Mapping[tuple[int, ...], np.ndarray],
                     sender_names: Sequence[str] = ()) -> CqMacChannel:
    """Build a channel, collecting every invariant violation into one error.

    Violations are reported one per line, each naming the offending tuple:
    missing table entries, wrong shapes, non-Hermitian entries, negative
    eigenvalues, traces away from 1.
    """
    alphabets = tuple(int(a) for a in sender_alphabets)
    problems: list[str] = []
    if not alphabets:
        problems.append("channel needs at least one sender")
    if any(a < 1 for a in alphabets):
        problems.append(f"alphabet sizes must be >= 1, got {alphabets}")
    d = int(output_dim)
    if d < 1:
        problems.append(f"output_dim must be >= 1, got {d}")
    if problems:
        raise ValidationError("\n".join(problems))

    table: dict[tuple[int, ...], np.ndarray] = {}
    expected = set(itertools.product(*(range(a) for a in alphabets)))
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
            table[key_t] = ops.check_density(mat, name=f"state {key_t}")
        except ValidationError as exc:
            problems.append(str(exc))
    missing = expected - set(tuple(int(x) for x in k) for k in states)
    for key_t in sorted(missing):
        problems.append(f"missing state {key_t}")
    if problems:
        raise ValidationError("\n".join(problems))
    for m in table.values():
        m.setflags(write=False)
    return CqMacChannel(alphabets, d, table, tuple(sender_names))


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
    atoms = ((x, prior.prob(x), ch.state(x)) for x in ch.joint_letters())
    return make_ensemble(ch.sender_alphabets, ch.output_dim, atoms)


def reduced_channel(ch: CqMacChannel, prior: Prior,
                    members: Iterable[int]) -> dict[tuple[int, ...], np.ndarray]:
    """Channel seen by the sender subset after averaging the complement.

    Keys are letter tuples of the subset's senders in ascending sender order;
    each value is the prior-weighted average of the full table over the
    complement's letters.
    """
    sub = normalize_subset(members, ch.s)
    if prior.alphabet_sizes != ch.sender_alphabets:
        raise ValidationError("prior does not match channel alphabets")
    inside = sorted(sub)
    outside = [i for i in range(ch.s) if i not in sub]
    out: dict[tuple[int, ...], np.ndarray] = {}
    for letters in itertools.product(*(range(ch.sender_alphabets[i]) for i in inside)):
        acc = np.zeros((ch.output_dim, ch.output_dim), dtype=complex)
        for rest in itertools.product(*(range(ch.sender_alphabets[i]) for i in outside)):
            full = [0] * ch.s
            for i, x in zip(inside, letters):
                full[i] = x
            w = 1.0
            for i, x in zip(outside, rest):
                full[i] = x
                w *= float(prior.per_sender[i][x])
            acc += w * ch.state(full)
        out[letters] = ops.hermitize(acc)
    return out


@dataclass(frozen=True)
class BlockChannel:
    """n-letter extension of a channel, evaluated lazily per word tuple.

    Only the states actually requested are materialized; each is the
    Kronecker product of the per-position letter states.
    """

    base: CqMacChannel
    n: int
    max_block_dim: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"block length must be >= 1, got {self.n}")
        require_dim(self.output_dim, self.max_block_dim, f"{self.n}-block output state")

    @property
    def s(self) -> int:
        return self.base.s

    @property
    def output_dim(self) -> int:
        return self.base.output_dim ** self.n

    def state_for_words(self, words: Sequence[Sequence[int]]) -> np.ndarray:
        """Output state of one word per sender (each word is n letters)."""
        if len(words) != self.s:
            raise ValidationError(f"expected {self.s} words, got {len(words)}")
        for w in words:
            if len(w) != self.n:
                raise ValidationError(f"word {tuple(w)} has length {len(w)}, expected {self.n}")
        return ops.tensor_all(
            self.base.state([w[k] for w in words]) for k in range(self.n)
        )


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
    return validate_channel(
        tuple(len(sig) for sig in per_sender), dim_out, states, sender_names
    )


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


def _parse_matrix(key: str, raw, d: int) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    if arr.shape != (d, d, 2):
        raise ChannelFormatError(
            f"state {key!r}: expected a {d}x{d} matrix of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


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
        if "alphabet" not in entry or not isinstance(entry["alphabet"], int):
            raise ChannelFormatError(f"sender {i}: 'alphabet' must be an integer")
        alphabets.append(entry["alphabet"])
        names.append(str(entry.get("name", f"S{i + 1}")))
    d = raw["output_dim"]
    if not isinstance(d, int) or d < 1:
        raise ChannelFormatError("'output_dim' must be a positive integer")

    states: dict[tuple[int, ...], np.ndarray] = {}
    if "states" in raw:
        if not isinstance(raw["states"], Mapping):
            raise ChannelFormatError("'states' must be an object")
        for key, mat in raw["states"].items():
            states[_parse_key(key, len(alphabets))] = _parse_matrix(key, mat, d)
    else:
        if not isinstance(raw["classical"], Mapping):
            raise ChannelFormatError("'classical' must be an object")
        for key, row in raw["classical"].items():
            vec = np.asarray(row, dtype=float)
            if vec.shape != (d,):
                raise ChannelFormatError(
                    f"classical row {key!r}: expected {d} output probabilities, got shape {vec.shape}"
                )
            states[_parse_key(key, len(alphabets))] = np.diag(vec).astype(complex)
    return validate_channel(alphabets, d, states, names)


def channel_to_dict(ch: CqMacChannel) -> dict:
    states = {}
    for key in sorted(ch.states):
        mat = ch.states[key]
        states[",".join(str(x) for x in key)] = [
            [[float(mat[i, j].real), float(mat[i, j].imag)] for j in range(ch.output_dim)]
            for i in range(ch.output_dim)
        ]
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
        except json.JSONDecodeError as exc:
            raise ChannelFormatError(f"{path}: invalid JSON ({exc})") from exc
    return channel_from_dict(raw)


def save_channel(ch: CqMacChannel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_dict(ch), fh, indent=2, sort_keys=True)
        fh.write("\n")
