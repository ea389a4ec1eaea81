"""The four benchmark workloads: inputs from a seed, and output checks.

Every workload is one ``qmac`` CLI invocation.  ``make(seed, workdir)``
returns its argv (plus what the check needs); ``verify`` returns a list of
problems with the CLI's stdout, empty when the output is correct.

Why these four (also recorded in BENCHMARK.json):

- ``region-sweep`` runs many priors of one channel through the
  entropy/region/operators layers; a generated 3-sender channel keeps a
  two-sender special case from passing as the general engine.
- ``simulate-chain`` is dominated by the per-tuple operator chain and the
  error accounting; its codebooks (L=32) are larger than the block
  dimension (2**4=16), so support (Gram) compression has nothing to remove.
- ``simulate-decoder`` is dominated by building 128x128 pretty-good
  measurements for L=16 codewords, where Gram compression applies.
- ``check-suite`` runs many small random channels with one prior each, the
  dense oracles and the lemma checks, so per-channel amortisation barely
  helps.

Correctness: ``region-sweep`` outputs are recomputed by an independent
batched-numpy oracle (every bound and every corner, within 1e-9) for any
seed, and the default seed's output is also compared with the stored
reference.  The other three workloads draw their CLI ``--seed`` from a
stored pool, and every pool seed has a stored reference output: JSON is
compared number by number within 1e-9, ``check`` text exactly.

The pools hold CLI seeds whose runs do about the same work (the most
common decoder-build count for ``simulate``, a time near the median for
``check``; see make_reference.py).  The work of these commands depends on
the random draws behind their seed, and without the pools the spread of
wall time between benchmark seeds would be wider than the regression bound.
"""

from __future__ import annotations

import gzip
import itertools
import json
import math
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

DEFAULT_SEED = 0
NUM_TOL = 1e-9          # allowed deviation of any JSON number from its reference
ENTROPY_FLOOR = 1e-12   # eigenvalues below this are dropped, as in qmac.operators
DEDUP_TOL = 1e-9        # corners closer than this are one corner, as in qmac.region

SWEEP_SENDERS = 3
SWEEP_DIM = 4
SWEEP_RANK = 2
SWEEP_RESOLUTION = 6

ARGV = {
    "simulate-chain": ["simulate", "--channel", "qubit-pure-mac", "--n", "4",
                       "--sizes", "32,32"],
    "simulate-decoder": ["simulate", "--channel", "qubit-pure-mac", "--n", "7",
                         "--sizes", "16,16", "--mode", "mc", "--trials", "16"],
    "check-suite": ["check", "--suite", "all", "--trials", "30"],
}
NAMES = ("region-sweep", "simulate-chain", "simulate-decoder", "check-suite")


def reference_path(name: str) -> str:
    if name == "region-sweep":
        return os.path.join(REFERENCE_DIR, "region-sweep.json.gz")
    return os.path.join(REFERENCE_DIR, f"{name}.json")


def load_reference(name: str):
    if name == "region-sweep":
        with gzip.open(reference_path(name), "rt", encoding="utf-8") as fh:
            return fh.read()
    with open(reference_path(name), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def sweep_channel_states(seed: int) -> np.ndarray:
    """Rank-2 mixed states of a 3-sender binary channel on C^4, from the seed.

    Shape (2, 2, 2, 4, 4), indexed by the letters of senders 1..3.
    """
    rng = np.random.default_rng(seed)
    shape = (2,) * SWEEP_SENDERS
    states = np.empty(shape + (SWEEP_DIM, SWEEP_DIM), dtype=complex)
    for letters in itertools.product(range(2), repeat=SWEEP_SENDERS):
        g = (rng.standard_normal((SWEEP_DIM, SWEEP_RANK))
             + 1j * rng.standard_normal((SWEEP_DIM, SWEEP_RANK)))
        rho = g @ g.conj().T
        rho = (rho + rho.conj().T) / 2
        states[letters] = rho / np.trace(rho).real
    return states


def write_sweep_channel(states: np.ndarray, path: str) -> None:
    doc = {
        "senders": [{"name": f"S{i + 1}", "alphabet": 2} for i in range(SWEEP_SENDERS)],
        "output_dim": SWEEP_DIM,
        "states": {
            ",".join(map(str, letters)): [
                [[float(z.real), float(z.imag)] for z in row] for row in states[letters]
            ]
            for letters in itertools.product(range(2), repeat=SWEEP_SENDERS)
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def make(name: str, seed: int, workdir: str, offset: int = 0) -> tuple[list[str], dict]:
    """CLI argv for the workload at this seed, and the context verify() needs.

    The pooled workloads take the pool entry ``offset`` places after the
    seed's own; the generated region channel depends on the seed alone.
    """
    if name == "region-sweep":
        states = sweep_channel_states(seed)
        path = os.path.join(workdir, f"sweep-channel-{seed}.json")
        write_sweep_channel(states, path)
        argv = ["region", "--channel", path, "--sweep", str(SWEEP_RESOLUTION),
                "--format", "json"]
        return argv, {"seed": seed, "states": states}
    pool = load_reference(name)["pool"]
    cli_seed = pool[(seed + offset) % len(pool)]
    return ARGV[name] + ["--seed", str(cli_seed)], {"seed": seed, "cli_seed": cli_seed}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def compare_json(ref, got, path: str = "$", tol: float = NUM_TOL,
                 out: list | None = None) -> list[str]:
    """Differences between two JSON documents; numbers may differ by tol."""
    out = [] if out is None else out
    num = (int, float)
    if isinstance(ref, num) and not isinstance(ref, bool):
        if (not isinstance(got, num) or isinstance(got, bool)
                or not math.isfinite(got) or abs(got - ref) > tol):
            out.append(f"{path}: {got!r} != {ref!r}")
    elif isinstance(ref, dict):
        if not isinstance(got, dict) or set(ref) != set(got):
            out.append(f"{path}: keys differ")
        else:
            for key in ref:
                compare_json(ref[key], got[key], f"{path}.{key}", tol, out)
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            out.append(f"{path}: list lengths differ")
        else:
            for i, (a, b) in enumerate(zip(ref, got)):
                compare_json(a, b, f"{path}[{i}]", tol, out)
    elif ref != got:
        out.append(f"{path}: {got!r} != {ref!r}")
    return out


def _entropies(states: np.ndarray) -> np.ndarray:
    """sum_x p(x) S(rho_x) per leading index, from unnormalized p(x) rho_x blocks."""
    mass = np.trace(states, axis1=-2, axis2=-1).real
    safe = np.where(mass > 1e-15, mass, 1.0)
    lam = np.linalg.eigvalsh(states / safe[..., None, None])
    terms = np.where(lam > ENTROPY_FLOOR, -lam * np.log2(np.where(lam > 0, lam, 1.0)), 0.0)
    ent = np.where(mass > 1e-15, mass * terms.sum(axis=-1), 0.0)
    return ent.reshape(ent.shape[0], -1).sum(axis=1)


def sweep_oracle(states: np.ndarray, resolution: int):
    """Priors, bounds and corners of the sweep, by batched numpy.

    h(M) = sum over letters of the senders in M of p * S(average state),
    the other senders averaged under the prior.  Then the bound of subset
    J is h(complement of J) - h(all), and in decode order perm the sender
    k decoded after the set A gets h(A) - h(A + k).
    """
    s = states.ndim - 2
    comps = [(c, resolution - c) for c in range(resolution + 1)]
    per_sender = [np.array(c, dtype=float) / resolution for c in comps]
    priors = list(itertools.product(per_sender, repeat=s))
    p = np.array([np.stack(pr) for pr in priors])          # (P, s, 2)
    letters = "abcdefgh"[:s]
    joint = p[:, 0, :]
    for i in range(1, s):
        joint = joint[..., None] * p[:, i, :].reshape((-1,) + (1,) * i + (2,))
    h = {}
    for m in range(1 << s):
        kept = "".join(letters[i] for i in range(s) if m >> i & 1)
        sigma = np.einsum(f"z{letters},{letters}ij->z{kept}ij", joint, states)
        h[m] = _entropies(sigma)
    full = (1 << s) - 1
    bounds = {j: np.maximum(h[full ^ j] - h[full], 0.0) for j in range(1, full + 1)}
    corners = []
    for perm in itertools.permutations(range(s)):
        rates = np.zeros((len(priors), s))
        decoded = 0
        for k in perm:
            rates[:, k] = np.maximum(h[decoded] - h[decoded | 1 << k], 0.0)
            decoded |= 1 << k
        corners.append((perm, rates))
    return priors, bounds, corners


def verify_sweep(states: np.ndarray, doc: dict) -> list[str]:
    priors, bounds, corners = sweep_oracle(states, SWEEP_RESOLUTION)
    problems: list[str] = []
    got_priors = doc.get("priors", [])
    if len(got_priors) != len(priors):
        return [f"{len(got_priors)} priors, expected {len(priors)}"]
    for pid, (entry, want) in enumerate(zip(got_priors, priors)):
        if entry.get("id") != pid or compare_json([list(v) for v in want],
                                                  entry.get("per_sender")):
            problems.append(f"prior {pid} differs")
    region_rows = {(r["prior_id"], r["subset_mask"]): r["bound_bits"]
                   for r in doc.get("region", [])}
    if len(region_rows) != len(priors) * len(bounds):
        problems.append(f"{len(region_rows)} region rows, expected "
                        f"{len(priors) * len(bounds)}")
    for mask, values in bounds.items():
        for pid, want in enumerate(values):
            got = region_rows.get((pid, mask))
            if got is None or abs(got - want) > NUM_TOL:
                problems.append(f"bound prior {pid} mask {mask}: {got!r} != {want!r}")
    got_corners: dict[int, list] = {}
    for row in doc.get("corners", []):
        got_corners.setdefault(row["prior_id"], []).append(
            (tuple(i - 1 for i in row["perm"]), row["rates"]))
    for pid in range(len(priors)):
        kept: list[tuple] = []
        for perm, rates in corners:
            point = rates[pid]
            if not any(np.max(np.abs(point - q)) <= DEDUP_TOL for _, q in kept):
                kept.append((perm, point))
        got = got_corners.get(pid, [])
        if [perm for perm, _ in got] != [perm for perm, _ in kept]:
            problems.append(f"corner orders of prior {pid} differ")
            continue
        for (perm, rates), (_, want) in zip(got, kept):
            want = [float(x) for x in want]
            if compare_json(want, rates):
                problems.append(f"corner prior {pid} perm {perm}: {rates!r} != {want!r}")
    return problems


def verify(name: str, ctx: dict, stdout: str) -> list[str]:
    """Problems with one run's stdout; empty when it matches the reference."""
    if name == "check-suite":
        want = load_reference(name)["outputs"][str(ctx["cli_seed"])]
        return [] if stdout == want else ["check output differs from the reference"]
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON ({exc})"]
    if name != "region-sweep":
        want = json.loads(load_reference(name)["outputs"][str(ctx["cli_seed"])])
        return compare_json(want, doc)
    try:
        problems = verify_sweep(ctx["states"], doc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed region output ({exc!r})"]
    if ctx["seed"] == DEFAULT_SEED:
        problems += compare_json(json.loads(load_reference(name)), doc)
    return problems
