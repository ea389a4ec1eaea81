"""Runtime limits for dense-matrix materialization, and the chunk budget.

Everything in this package works with dense complex matrices, so block
states of an n-letter channel grow like d**n.  The caps below make such
computations fail fast with a clear message instead of exhausting memory.

Every stacked loop (entropy tables, decoder states, elements and message
tuples, sweep corners, report rows) runs in `chunks` of `CHUNK_BYTES`.
"""

from __future__ import annotations

import os
from typing import Iterator

# Largest dense matrix dimension (rows) we agree to materialize.
DEFAULT_MAX_DIM = 4096

# Exhaustive decoding enumerates |M_1| * ... * |M_s| message tuples; no codebook is larger.
DEFAULT_MAX_MESSAGES = 4096

# Randomized verification draws this many instances per suite at most.
DEFAULT_MAX_CHECK_TRIALS = 10_000

# Corner enumeration runs over s! permutations.
DEFAULT_MAX_PERM_SENDERS = 6

# Prior sweeps enumerate a product grid over sender simplices.
DEFAULT_MAX_GRID_POINTS = 100_000

# A channel table holds one state per joint letter tuple, and region bounds
# run over its 2^s sender subsets; neither count may exceed this.
DEFAULT_MAX_LETTER_TUPLES = 4096

ENV_MAX_DIM = "QMAC_MAX_DIM"

# Bytes of stacked items processed at once, so that temporaries stay bounded
# at every cap.  Below glibc's 128 KiB mmap threshold they are reused from the
# heap: a 1 MiB budget raised the peak resident set of a 343-prior, 3-sender,
# d=4 sweep by about 0.4 MB.
CHUNK_BYTES = 1 << 16

# Each decoder-building thread beyond the first (`coding._workers`) holds
# about TASK_OPERATORS more block operators of 16 D^2 bytes: its task's, and
# those of the chunks `coding._plan` builds ahead for it (peak resident set at
# D = 512: 39 to 58 MB per thread at 4 MiB an operator).  Threads are limited
# so that these stay within THREAD_BYTES whatever the CPU count.
TASK_OPERATORS = 16
THREAD_BYTES = 1 << 28


class CapExceeded(RuntimeError):
    """A computation would exceed a configured size cap."""


class UsageError(ValueError):
    """Bad command-line or environment values (exit code 2)."""


def max_dim() -> int:
    """Effective dense-dimension cap: QMAC_MAX_DIM, else the default."""
    env = os.environ.get(ENV_MAX_DIM)
    if env is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(env)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"{ENV_MAX_DIM} must be a positive integer, got {env!r}")
    return value


def require_dim(dim: int, what: str = "matrix") -> None:
    limit = max_dim()
    if dim > limit:
        raise CapExceeded(
            f"{what} needs dimension {dim}, configured cap is {limit} (raise via {ENV_MAX_DIM})"
        )


def per_chunk(item_bytes: int) -> int:
    """Items of `item_bytes` each in one chunk: as many as fit in CHUNK_BYTES,
    and at least one."""
    return max(1, CHUNK_BYTES // item_bytes)


def chunks(count: int, item_bytes: int) -> Iterator[slice]:
    """Consecutive slices of `count` items of `item_bytes` each, `per_chunk`
    items per slice."""
    step = per_chunk(item_bytes)
    for lo in range(0, count, step):
        yield slice(lo, lo + step)
