"""Dense complex Hermitian linear algebra kernel.

Eigendecompositions, operator functions, tensor products, partial traces
and norms used by every other module.  Operators are plain complex numpy
arrays; public functions validate the invariants they rely on (Hermiticity,
positivity, unit trace) and fail loudly instead of silently coercing.

All entropies produced downstream are in bits (log base 2).
"""

from __future__ import annotations

import operator
from typing import Iterable, Sequence

import numpy as np

# Tolerances separating numerical noise from genuine violations.
HERMITIAN_TOL = 1e-10   # max-entry deviation from the conjugate transpose
PSD_CLAMP = 1e-10       # eigenvalues in [-PSD_CLAMP, 0) are clamped to 0
PSD_HARD = 1e-6         # below -PSD_HARD an operator is genuinely not PSD
TRACE_TOL = 1e-10
ENTROPY_FLOOR = 1e-12   # eigenvalues below this are dropped from -sum(l*log l)
SUPPORT_FLOOR = 1e-12   # eigenvalues below this count as outside the support
POVM_SUM_TOL = 1e-8     # max-entry deviation of sum(elements) from identity
PROB_TOL = 1e-10        # tolerance for probability vectors summing to 1


class ValidationError(ValueError):
    """An operator, distribution or table violates a documented invariant."""


def as_index(value, what: str) -> int:
    """A caller's integer as a Python int; numpy integers pass, but a float
    or a string raises ValidationError naming `what` instead of being
    rounded or parsed."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{what}: {value!r} is not an integer") from None


def as_block_length(value) -> int:
    """A caller's block length n, read as `as_index` reads an integer, at least 1."""
    n = as_index(value, "n")
    if n < 1:
        raise ValidationError(f"block length must be >= 1, got {n}")
    return n


def as_seed(value, what: str) -> int:
    """A caller's seed, read as `as_index` reads an integer, from 0 to 2^64 - 1."""
    seed = as_index(value, what)
    if not 0 <= seed < 2 ** 64:
        raise ValidationError(f"{what} must be an integer from 0 to 2^64 - 1, got {seed}")
    return seed


def _numeric(values, what: str, kinds: str, numbers: str) -> np.ndarray:
    """A caller's number, or array of numbers of any shape, as an array whose
    dtype kind is one of `kinds`, decided from the dtype alone: a string,
    None, an object array or ragged nesting raises ValidationError naming
    `what` and saying it must hold `numbers`."""
    try:
        a = np.asarray(values)
    except ValueError:   # ragged nesting, refused below as an object array is
        a = np.asarray(None)
    if a.dtype.kind not in kinds:
        raise ValidationError(f"{what} must hold {numbers}")
    return a


def as_reals(values, what: str) -> np.ndarray:
    """A caller's number, or array of numbers of any shape, as a float array:
    ints, bools and numpy reals pass, but a string, None, a complex value or
    ragged nesting raises ValidationError naming `what`, as does a NaN or inf."""
    a = np.asarray(_numeric(values, what, "biuf", "real numbers"), dtype=float)
    if not np.isfinite(a).all():
        raise ValidationError(f"{what} has non-finite entries")
    return a


def as_nonnegative(values, what: str) -> np.ndarray:
    """Caller reals read as `as_reals` reads them, none below 0."""
    a = as_reals(values, what)
    if (a < 0).any():
        raise ValidationError(f"{what} has negative entries")
    return a


def as_distribution(values, what: str) -> np.ndarray:
    """A caller's probability vector, read as `as_nonnegative` reads reals and
    flattened: nonempty, summing to 1 within PROB_TOL."""
    p = as_nonnegative(values, what).ravel()
    if p.size < 1:
        raise ValidationError(f"{what} is empty")
    if abs(p.sum() - 1.0) > PROB_TOL:
        raise ValidationError(f"{what} sums to {p.sum():.12g}, expected 1")
    return p


def _one_real(value, what: str, read=as_reals) -> float:
    """A caller's one real number, read by `read` (`as_reals` or a layer on
    it), as a float; an array of any other shape than () raises
    ValidationError naming `what`."""
    a = read(value, what)
    if a.ndim:
        raise ValidationError(f"{what} must be one number, got shape {a.shape}")
    return float(a)


def _as_tolerance(tol) -> float:
    """A caller's tolerance: one number, read as `as_nonnegative` reads reals."""
    return _one_real(tol, "tol", as_nonnegative)


def letter_tuple(letters: Iterable, what: str) -> tuple[int, ...]:
    """Letters (or labels) as Python ints, each read as `as_index` reads one."""
    try:
        return tuple(operator.index(x) for x in letters)
    except TypeError:
        raise ValidationError(f"{what} {letters!r} must hold integer letters") from None


def as_operator(a, name: str = "matrix") -> np.ndarray:
    """A caller's square matrix as a complex array, read by the `as_reals` rule
    widened to complex: ints, bools, reals and complex values pass, but a
    string, None, an object array or ragged nesting raises ValidationError
    naming `name`, as does a NaN or inf entry."""
    a = np.asarray(_numeric(a, name, "biufc", "numbers"), dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValidationError(f"{name} has non-finite entries")
    return a


def hermitize(a: np.ndarray) -> np.ndarray:
    """Hermitian part (a + a†)/2 of a matrix, or of each matrix of a stack (the
    last two axes); suppresses drift after operator functions.  An inexact sum is
    halved in place by that division, bit for bit (`*= 0.5`, a complex product,
    can flip a zero's sign); an integer one into a new float array."""
    h = a + a.conj().swapaxes(-1, -2)
    return np.true_divide(h, 2, out=h if h.dtype.kind in "fc" else None)


def check_hermitian(a, name: str = "operator") -> np.ndarray:
    a = as_operator(a, name)
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if dev > HERMITIAN_TOL:
        raise ValidationError(f"{name} is not Hermitian (max deviation {dev:.3e})")
    return a


def _psd_shifted(a: np.ndarray) -> np.ndarray:
    """2 (hermitize(a) + PSD_CLAMP I), of a matrix or of each matrix of a
    stack: doubling is exact in floating point and saves hermitize's division."""
    h = a + a.conj().swapaxes(-1, -2)
    diag = np.arange(h.shape[-1])
    h[..., diag, diag] += 2 * PSD_CLAMP
    return h


def _negative_eigenvalue(a: np.ndarray) -> float | None:
    """Smallest eigenvalue of hermitize(a) when it is below -PSD_CLAMP, else None.

    A Cholesky factorization of hermitize(a) + PSD_CLAMP * I (as
    `_psd_shifted`) succeeds exactly when that eigenvalue is above
    -PSD_CLAMP, up to rounding, at a quarter of the cost of eigvalsh at
    d=128.  eigvalsh runs only when the factorization fails, so that a
    rounding disagreement is settled by the eigenvalue and a rejection can
    report it.
    """
    try:
        np.linalg.cholesky(_psd_shifted(a))
        return None
    except np.linalg.LinAlgError:
        w0 = float(np.linalg.eigvalsh(hermitize(a))[0])
    return w0 if w0 < -PSD_CLAMP else None


def check_density(rho, name: str = "state") -> np.ndarray:
    """Validate a density matrix: Hermitian, eigenvalues >= -1e-10, trace 1."""
    rho = check_hermitian(rho, name=name)
    w0 = _negative_eigenvalue(rho)
    if w0 is not None:
        raise ValidationError(f"{name} has negative eigenvalue {w0:.3e}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValidationError(f"{name} has trace {tr:.12g}, expected 1")
    return rho


def densities_pass(stack: np.ndarray) -> bool:
    """Whether every matrix of a complex (N, d, d) stack passes check_density.

    One test of each kind covers the whole stack: finiteness, the largest
    Hermitian deviation, one batched Cholesky of the matrices
    `_negative_eigenvalue` factors, and the traces, each computed as
    check_density computes it.  False means only that some matrix may fail:
    a failed factorization is settled by eigvalsh in check_density alone,
    so a caller runs check_density on each matrix for the verdict and its
    message.
    """
    if not (np.all(np.isfinite(stack.real)) and np.all(np.isfinite(stack.imag))):
        return False
    if np.max(np.abs(stack - stack.conj().swapaxes(-1, -2))) > HERMITIAN_TOL:
        return False
    try:
        np.linalg.cholesky(_psd_shifted(stack))
    except np.linalg.LinAlgError:
        return False
    traces = np.trace(stack, axis1=-2, axis2=-1).real
    return float(np.max(np.abs(traces - 1.0))) <= TRACE_TOL


def check_povm(elements: Sequence[np.ndarray], dim: int | None = None,
               name: str = "POVM") -> None:
    """Validate POVM elements: each PSD within 1e-10, summing to identity within 1e-8."""
    if not len(elements):
        raise ValidationError(f"{name} has no elements")
    mats = [check_hermitian(e, name=f"{name} element {i}") for i, e in enumerate(elements)]
    d = mats[0].shape[0] if dim is None else dim
    if d < 1:
        raise ValidationError(f"{name} has dimension {d}, expected at least 1")
    total = np.zeros((d, d), dtype=complex)
    for i, m in enumerate(mats):
        if m.shape[0] != d:
            raise ValidationError(f"{name} element {i} has dimension {m.shape[0]}, expected {d}")
        w0 = _negative_eigenvalue(m)
        if w0 is not None:
            raise ValidationError(f"{name} element {i} has negative eigenvalue {w0:.3e}")
        total += m
    dev = float(np.max(np.abs(total - np.eye(d))))
    if dev > POVM_SUM_TOL:
        raise ValidationError(f"{name} elements do not sum to identity (deviation {dev:.3e})")


def eig_hermitian(a, *, hermitian: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending, real) and unitary eigenvectors of a Hermitian operator.

    Satisfies a = V diag(w) V† up to ~1e-9 in max-entry norm.  The input is
    checked to be Hermitian unless `hermitian` says it is so by construction;
    such an input may also be a stack (..., D, D), decomposed in one call.
    """
    if not hermitian:
        a = check_hermitian(a)
    w, v = np.linalg.eigh(hermitize(a))
    return w, v


def op_sqrt(a, *, hermitian: bool = False) -> np.ndarray:
    """Operator square root of a PSD operator, clamping eigenvalue noise at zero.

    With `hermitian` (see eig_hermitian) `a` may be a stack of operators;
    each root equals the one computed alone, bit for bit.
    """
    w, v, _ = _support(a, 0.0, hermitian)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    del v   # freed before hermitize allocates: one operator fewer at the peak
    return hermitize(root)


def _support(a, support_rtol: float, hermitian: bool) -> tuple[np.ndarray, ...]:
    """eig_hermitian of a PSD operator, or of each of a stack, refusing an eigenvalue below
    -PSD_HARD, and which eigenvalues are on its support: those above max(1e-12, max_eig *
    support_rtol), a relative cutoff that keeps inversion stable."""
    w, v = eig_hermitian(a, hermitian=hermitian)
    if w.size and w[..., 0].min() < -PSD_HARD:
        raise ValidationError(f"operator is not PSD (eigenvalue {w[..., 0].min():.3e})")
    return w, v, w > np.maximum(SUPPORT_FLOOR, w[..., -1:] * support_rtol)


def pinv_sqrt(a, support_rtol: float = 0.0, *, hermitian: bool = False) -> tuple[np.ndarray, int]:
    """a^{-1/2} on the support (`_support`) of PSD `a`, and its null-space dimension."""
    w, v, on = _support(a, support_rtol, hermitian)
    root = (v * np.where(on, 1.0 / np.sqrt(np.where(on, w, 1.0)), 0.0)) @ v.conj().T
    del v   # as in op_sqrt
    return hermitize(root), int(on.size - np.count_nonzero(on))


def support_projector(a, support_rtol: float = 0.0, *, hermitian: bool = False) -> np.ndarray:
    """Projector onto the support (`_support`) of a PSD operator."""
    _, v, on = _support(a, support_rtol, hermitian)
    return hermitize((v * on.astype(float)) @ v.conj().T)


def entropy_bits(rho) -> float:
    """Von Neumann entropy -Tr(rho log2 rho) in bits, with 0 log 0 := 0."""
    return _entropy_bits(check_density(rho))


def _entropy_bits(rho: np.ndarray) -> float:
    """`entropy_bits` of a complex matrix that passes check_density, unchecked."""
    return float(shannon_bits(np.linalg.eigvalsh(hermitize(rho))))


def shannon_bits(p) -> np.ndarray:
    """Shannon entropy in bits of each probability vector along the last axis
    of p (a scalar for one vector); entries at or below 1e-12 are dropped."""
    p = np.asarray(p, dtype=float)
    p = np.where(p > ENTROPY_FLOOR, p, 1.0)
    return -(p * np.log2(p)).sum(axis=-1)


def tensor_all(mats: Iterable[np.ndarray]) -> np.ndarray:
    """Kronecker product of matrices the caller already checked; [[1]] when empty.

    Factors may be stacks (..., m_k, c_k) with broadcastable leading axes, and
    the product is taken per row.  It is built left to right by broadcasting,
    in the order and with the products of reduce(np.kron, mats), so each row
    equals np.kron's result bit for bit.
    """
    mats = list(mats)
    if not mats:
        return np.eye(1, dtype=complex)
    out = mats[0]
    for a in mats[1:]:
        prod = out[..., :, None, :, None] * a[..., None, :, None, :]
        shape = (out.shape[-2] * a.shape[-2], out.shape[-1] * a.shape[-1])
        out = prod.reshape(prod.shape[:-4] + shape)
    return out


def partial_trace(a, factor_dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out all tensor factors not listed in `keep`.

    Parameters
    ----------
    a : square matrix on the tensor product of the given factors
    factor_dims : dimension of each factor, in tensor order
    keep : indices (0-based) of the factors to retain; order of the result
        follows the original factor order.  An empty `keep` yields the 1x1
        matrix [[Tr a]].
    """
    a = as_operator(a)
    dims = [as_index(d, "factor_dims") for d in factor_dims]
    if any(d < 1 for d in dims):
        raise ValidationError(f"factor dimensions must be positive, got {dims}")
    total = int(np.prod(dims))
    if total != a.shape[0]:
        raise ValidationError(
            f"factor dimensions {dims} give total {total}, matrix has dimension {a.shape[0]}"
        )
    keep = sorted(set(as_index(k, "keep") for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise ValidationError(f"keep indices {keep} out of range for {len(dims)} factors")
    return _partial_trace(a, dims, keep)


def _partial_trace(a: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """`partial_trace` of a complex matrix on factors of positive dimensions
    `dims`, which multiply to its size, keeping the sorted distinct factor
    indices `keep`, unchecked."""
    drop = [i for i in range(len(dims)) if i not in keep]
    out = a.reshape(dims + dims)
    for i in sorted(drop, reverse=True):
        out = np.trace(out, axis1=i, axis2=i + out.ndim // 2)
    size = int(np.prod([dims[k] for k in keep])) if keep else 1
    return out.reshape(size, size)


def factor_difference(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Hermitian stack with the trace norm of f f† - g g†, per row.

    `f` and `g` are stacks (..., D, r) of factors.  The difference is
    compressed onto the range of [f, g]: with [f, g] = Q R,
    f f† - g g† = Q (R_f R_f† - R_g R_g†) Q† and Q has orthonormal columns,
    so the min(D, 2r)-sided middle has the same nonzero spectrum.
    """
    r = np.linalg.qr(np.concatenate([f, g], axis=-1), mode="r")
    rf, rg = r[..., :f.shape[-1]], r[..., f.shape[-1]:]
    return rf @ rf.conj().swapaxes(-1, -2) - rg @ rg.conj().swapaxes(-1, -2)


def trace_norm(a, *, hermitian: bool = False) -> float | np.ndarray:
    """Trace norm of a Hermitian operator: sum of absolute eigenvalues.

    The input is checked to be Hermitian unless `hermitian` says it is so by
    construction, as in inner loops whose inputs were checked where they entered.
    Such an input may also be a stack (..., D, D); its norms come from one
    batched eigvalsh, as an array, each equal to the norm computed alone.
    """
    if not hermitian:
        a = check_hermitian(a)
    norms = np.abs(np.linalg.eigvalsh(hermitize(a))).sum(axis=-1)
    return float(norms) if np.ndim(a) == 2 else norms
