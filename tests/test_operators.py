from functools import reduce

import numpy as np
import pytest

from qmac import operators
from qmac.operators import (ValidationError, check_density, check_povm,
                            eig_hermitian, entropy_bits, factor_difference, hermitize, op_sqrt,
                            partial_trace, pinv_sqrt, support_projector, tensor_all,
                            trace_norm)

from oracles import (eigh_mp, hermitize_divided, op_sqrt_mp, psd_within, rank1_root, same_bits,
                     smallest_eigenvalue)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return hermitize(g)


def random_psd(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return g @ g.conj().T


def random_density(rng, d):
    rho = random_psd(rng, d)
    return rho / np.trace(rho).real


def random_unitary(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


# --- eig_hermitian -----------------------------------------------------------

def test_eig_diagonal():
    w, v = eig_hermitian(np.diag([2.0, 5.0]))
    assert np.allclose(w, [2.0, 5.0])
    assert np.allclose(np.abs(v), np.eye(2))


def test_eig_closed_form_2x2():
    # eigenvalues of [[0.75, 0.25], [0.25, 0.25]] are 0.5 +- sqrt(0.125)
    w, _ = eig_hermitian([[0.75, 0.25], [0.25, 0.25]])
    root = np.sqrt(0.125)
    assert abs(w[0] - (0.5 - root)) < 1e-12
    assert abs(w[1] - (0.5 + root)) < 1e-12


def test_eig_identity():
    for d in (1, 3, 7):
        w, _ = eig_hermitian(np.eye(d))
        assert np.allclose(w, 1.0)


def test_eig_reconstruction_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = int(rng.integers(2, 17))
        a = random_hermitian(rng, d)
        w, v = eig_hermitian(a)
        recon = (v * w) @ v.conj().T
        assert np.max(np.abs(recon - a)) <= 1e-9
        assert np.all(np.diff(w) >= -1e-12)


def test_eig_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


# --- op_sqrt -----------------------------------------------------------------

def test_sqrt_diagonal():
    assert np.allclose(op_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_sqrt_identity_and_projector():
    assert np.allclose(op_sqrt(np.eye(3)), np.eye(3))
    p = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert np.allclose(op_sqrt(p), p)


def test_sqrt_squares_back():
    rng = np.random.default_rng(12)
    for _ in range(40):
        d = int(rng.integers(2, 17))
        a = random_psd(rng, d)
        r = op_sqrt(a)
        assert np.max(np.abs(r @ r - a)) <= 1e-9 * max(1.0, np.max(np.abs(a)))
        assert np.linalg.eigvalsh(r)[0] >= -1e-10


def test_sqrt_rejects_negative():
    with pytest.raises(ValidationError):
        op_sqrt(np.diag([1.0, -0.5]))


def test_pinv_sqrt_support():
    a = np.diag([4.0, 0.0])
    inv, off = pinv_sqrt(a)
    assert np.allclose(inv, np.diag([0.5, 0.0]))
    assert off == 1
    assert np.allclose(support_projector(a), np.diag([1.0, 0.0]))


@pytest.mark.parametrize("seed", range(12))
def test_gram_power_equals_the_dense_inverse_root_and_projector(seed):
    # f G^{-3/2} f† and f G^+ f† from the Gram matrix G = f†f of a (D, m)
    # factor, with a repeated and a zero column, against pinv_sqrt and
    # support_projector of S = f f†: the same null-space dimension, and
    # within 3e-14 (relative) and 9e-15 measured on 40 seeds, four kernels
    rng = np.random.default_rng(seed)
    d = int(rng.integers(4, 40))
    m = int(rng.integers(3, d))
    f = rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
    f[:, 1], f[:, 2] = f[:, 0], 0.0
    f /= np.linalg.norm(f)
    s = f @ f.conj().T
    inv, off = operators._gram_power(f, -1.5, 1e-6)
    want, want_off = pinv_sqrt(s, 1e-6, hermitian=True)
    assert off == want_off == d - (m - 2)
    assert np.max(np.abs(inv - want)) <= 1e-12 * np.max(np.abs(want))
    assert psd_within(inv)
    proj, _ = operators._gram_power(f, -1.0, 1e-6)
    assert np.max(np.abs(proj - support_projector(s, 1e-6, hermitian=True))) <= 1e-12


# --- entropy_bits ------------------------------------------------------------

def test_entropy_maximally_mixed():
    assert abs(entropy_bits(np.eye(2) / 2) - 1.0) < 1e-12
    assert abs(entropy_bits(np.eye(8) / 8) - 3.0) < 1e-12


def test_entropy_pure_state():
    v = np.array([1.0, 1.0j]) / np.sqrt(2)
    assert abs(entropy_bits(np.outer(v, v.conj()))) < 1e-12


def test_entropy_two_state_mixture():
    # 1/2 |0><0| + 1/2 |+><+| has eigenvalues (1 +- 2^-1/2)/2
    rho = np.array([[0.75, 0.25], [0.25, 0.25]])
    lam = (1 + 2 ** -0.5) / 2
    expect = -(lam * np.log2(lam) + (1 - lam) * np.log2(1 - lam))
    assert abs(expect - 0.6008760366928562) < 1e-15
    assert abs(entropy_bits(rho) - expect) < 1e-12


def test_entropy_unitary_invariance():
    rng = np.random.default_rng(13)
    for _ in range(30):
        d = int(rng.integers(2, 9))
        rho = random_density(rng, d)
        u = random_unitary(rng, d)
        assert abs(entropy_bits(u @ rho @ u.conj().T) - entropy_bits(rho)) <= 1e-9


def test_entropy_rejects_bad_trace():
    with pytest.raises(ValidationError):
        entropy_bits(np.diag([0.5, 0.4]))


# --- partial_trace -----------------------------------------------------------

def test_partial_trace_of_product():
    rng = np.random.default_rng(15)
    for _ in range(20):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        a, b = random_density(rng, da), random_density(rng, db)
        ab = np.kron(a, b)
        assert np.max(np.abs(partial_trace(ab, [da, db], [0]) - a)) <= 1e-12
        assert np.max(np.abs(partial_trace(ab, [da, db], [1]) - b)) <= 1e-12
        assert np.max(np.abs(partial_trace(ab, [da, db], [0, 1]) - ab)) <= 1e-12


def test_partial_trace_bell_state():
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell)
    reduced = partial_trace(rho, [2, 2], [0])
    assert np.max(np.abs(reduced - np.eye(2) / 2)) <= 1e-12


def test_partial_trace_keep_nothing_is_trace():
    rng = np.random.default_rng(16)
    rho = random_density(rng, 6)
    out = partial_trace(rho, [2, 3], [])
    assert out.shape == (1, 1)
    assert abs(out[0, 0] - 1.0) < 1e-12


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValidationError):
        partial_trace(np.eye(6), [2, 2], [0])


# --- trace_norm --------------------------------------------------------------

def test_trace_norm_examples():
    assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) < 1e-12
    rng = np.random.default_rng(17)
    rho = random_density(rng, 5)
    assert abs(trace_norm(rho) - 1.0) < 1e-10
    # scalar multiple of a pure state: rho - (1-eps) rho has norm eps
    v = np.array([1.0, 0.0])
    p = np.outer(v, v)
    assert abs(trace_norm(p - 0.98 * p) - 0.02) < 1e-12


def test_trace_norm_triangle_and_multiplicative():
    rng = np.random.default_rng(18)
    for _ in range(20):
        d = int(rng.integers(2, 6))
        a, b = random_hermitian(rng, d), random_hermitian(rng, d)
        assert trace_norm(a + b) <= trace_norm(a) + trace_norm(b) + 1e-9
        assert abs(trace_norm(np.kron(a, b)) - trace_norm(a) * trace_norm(b)) <= 1e-9 * (
            1 + trace_norm(a) * trace_norm(b)
        )


def test_trace_norm_of_trusted_hermitian_skips_only_the_check():
    rng = np.random.default_rng(19)
    for d in (1, 2, 5):
        a = random_hermitian(rng, d)
        assert trace_norm(a, hermitian=True) == trace_norm(a)
    with pytest.raises(ValidationError, match="not Hermitian"):
        trace_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_stacked_roots_norms_and_products_equal_one_at_a_time():
    # the simulator's stacks must give each operator's values bit for bit
    rng = np.random.default_rng(16)
    for _ in range(20):
        t, d = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        psd = np.stack([random_psd(rng, d) for _ in range(t)])
        herm = np.stack([random_hermitian(rng, d) for _ in range(t)])
        roots = op_sqrt(psd, hermitian=True)
        norms = trace_norm(herm, hermitian=True)
        assert norms.shape == (t,)
        for k in range(t):
            assert np.array_equal(roots[k], op_sqrt(psd[k]))
            assert norms[k] == trace_norm(herm[k])
        factors = [np.stack([random_density(rng, int(dk)) for _ in range(t)])
                   for dk in rng.integers(1, 4, size=int(rng.integers(1, 4)))]
        prod = tensor_all(factors)
        for k in range(t):
            assert np.array_equal(prod[k], reduce(np.kron, [f[k] for f in factors]))
        # rectangular factors (word-state factors) multiply the same way
        rect = [rng.standard_normal((t, int(m), int(c))) for m, c in rng.integers(1, 4, (3, 2))]
        prod = tensor_all(rect)
        for k in range(t):
            assert np.array_equal(prod[k], reduce(np.kron, [f[k] for f in rect]))
        f, g = (rng.standard_normal((t, 9, 2)) + 1j * rng.standard_normal((t, 9, 2))
                for _ in range(2))
        diff = factor_difference(f, g)
        for k in range(t):
            assert np.array_equal(diff[k], factor_difference(f[k], g[k]))
    assert np.array_equal(tensor_all([]), np.eye(1))


def random_factor(rng, dim, rank, zero_columns=0):
    f = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    f /= np.linalg.norm(f)
    return np.concatenate([f, np.zeros((dim, zero_columns))], axis=1)


@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("dim", [4, 8, 16, 64])
def test_factor_difference_has_the_dense_trace_norm(rank, dim):
    rng = np.random.default_rng(100 * rank + dim)
    for pad in (0, 2):
        f = random_factor(rng, dim, rank, pad)
        noise = random_factor(rng, dim, rank, pad)
        cases = [random_factor(rng, dim, rank, pad),   # an unrelated factor
                 rng.uniform(0.2, 0.9) * f,             # a shrunk branch
                 f,                                     # norm 0
                 f + 1e-9 * noise]                      # norm near 0
        for g in cases:
            diff = factor_difference(f, g)
            side = min(2 * (rank + pad), dim)
            assert diff.shape == (side, side)
            got = trace_norm(diff, hermitian=True)
            want = trace_norm(f @ f.conj().T - g @ g.conj().T)
            assert abs(got - want) <= 1e-13 * (1 + want)


def test_unchecked_stack_root_still_rejects_negative_operators():
    with pytest.raises(ValidationError, match="not PSD"):
        op_sqrt(np.stack([np.eye(2), np.diag([1.0, -0.5])]), hermitian=True)


def test_root_inverse_root_and_support_refuse_one_negative_eigenvalue_alike():
    # one rule owns the PSD refusal: the same message from every operator function
    a = np.diag([1.0, -1e-5])
    calls = [op_sqrt, pinv_sqrt, support_projector,
             lambda m: op_sqrt(np.stack([np.eye(2), m]), hermitian=True)]
    for call in calls:
        with pytest.raises(ValidationError) as got:
            call(a)
        assert str(got.value) == "operator is not PSD (eigenvalue -1.000e-05)"
    for call in calls[:3]:   # noise above -PSD_HARD is clamped, not refused
        call(np.diag([1.0, -1e-7]))


def test_trace_norm_zero_iff_zero():
    assert trace_norm(np.zeros((3, 3))) == 0.0


# --- the kernels, bit for bit against np.kron and their former forms --------

def with_signed_zeros(rng, shape, share=0.2):
    """Random complex entries, about `share` of the real and of the imaginary
    parts set to -0.0, and as many to +0.0."""
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for part in (z.real, z.imag):
        pick = rng.random(shape)
        part[pick < share] = -0.0
        part[(pick >= share) & (pick < 2 * share)] = 0.0
    return z


# block dimension d^n from 4 to 256
KRON_SHAPES = [(d, n) for d, top in ((2, 8), (3, 5), (4, 4)) for n in range(2, top + 1)]


@pytest.mark.parametrize("d, n", KRON_SHAPES, ids=[f"{d}^{n}" for d, n in KRON_SHAPES])
def test_tensor_all_equals_reduce_kron_bit_for_bit(d, n):
    rng = np.random.default_rng(100 * d + n)
    factors = [with_signed_zeros(rng, (d, d)) for _ in range(n)]
    prod = tensor_all(factors)
    assert prod.shape == (d ** n, d ** n)
    assert same_bits(prod, reduce(np.kron, factors))


RECT_SHAPES = [((2, 1), 12), ((2, 1), 6), ((4, 2), 5), ((3, 2), 6), ((2, 2), 7)]


@pytest.mark.parametrize("shape, n", RECT_SHAPES,
                         ids=[f"{d}x{r}^{n}" for (d, r), n in RECT_SHAPES])
def test_tensor_all_of_rectangular_and_broadcast_stacks_bit_for_bit(shape, n):
    # (d, r) factors as BlockChannel.letter_factors holds them, as stacks whose
    # leading axes (3, 1), (1, 2) and () broadcast to (3, 2)
    rng = np.random.default_rng(sum(shape) * n)
    leads = [(3, 1), (1, 2), ()]
    factors = [with_signed_zeros(rng, leads[k % 3] + shape) for k in range(n)]
    prod = tensor_all(factors)
    assert prod.shape == (3, 2, shape[0] ** n, shape[1] ** n)
    for i, j in np.ndindex(3, 2):
        rows = [np.broadcast_to(f, (3, 2) + shape)[i, j] for f in factors]
        assert same_bits(prod[i, j], reduce(np.kron, rows))


def test_hermitize_equals_the_divided_sum_bit_for_bit():
    rng = np.random.default_rng(29)
    stack = with_signed_zeros(rng, (6, 5, 5))
    # -0.0 real parts on both sides of the diagonal and a negative imaginary
    # part in their sum: a complex halving (`*= 0.5`) would give +0.0 there
    stack[:, 0, 1], stack[:, 1, 0] = complex(-0.0, -1.0), complex(-0.0, 2.0)
    for a in (stack, stack[0], stack.real, stack[2].real, np.eye(1, dtype=complex)):
        assert same_bits(hermitize(a), hermitize_divided(a))
    halved = stack + stack.conj().swapaxes(-1, -2)
    halved *= 0.5
    assert not same_bits(halved, hermitize_divided(stack))   # the data tells the two apart


def test_integer_input_is_halved_into_floats():
    # eig_hermitian(hermitian=True) hermitizes its input as given, so an
    # integer operator reaches hermitize, which cannot halve it in place
    a = np.array([[2, 1], [1, 2]])
    assert same_bits(hermitize(a), hermitize_divided(a))
    w, v = eig_hermitian(a, hermitian=True)
    assert np.allclose(w, [1, 3])
    assert np.allclose(op_sqrt(4 * np.eye(2, dtype=int), hermitian=True), 2 * np.eye(2))
    assert np.allclose(support_projector(np.diag([1, 0]), hermitian=True), np.diag([1, 0]))
    assert np.allclose(pinv_sqrt(np.diag([4, 0]), hermitian=True)[0], np.diag([0.5, 0]))


# --- density / POVM validation ----------------------------------------------

def test_check_density_accepts_and_rejects():
    check_density(np.eye(2) / 2)
    with pytest.raises(ValidationError):
        check_density(np.array([[1.0, 0.5], [0.4, 0.0]]))  # not Hermitian
    with pytest.raises(ValidationError):
        check_density(np.diag([1.5, -0.5]))  # negative eigenvalue


def test_check_povm():
    check_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    with pytest.raises(ValidationError):
        check_povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])])


def _psd_rejection(check, m):
    """The message of a positivity rejection by `check`, or None."""
    try:
        check(m)
    except ValidationError as exc:
        if "negative eigenvalue" in str(exc):
            return str(exc)
    return None


def _with_spectrum(rng, w):
    u = random_unitary(rng, len(w))
    return (u * np.asarray(w, dtype=float)) @ u.conj().T


@pytest.mark.parametrize("d", [1, 2, 4, 16, 128])
def test_psd_check_matches_eigvalsh_oracle(d):
    rng = np.random.default_rng(1000 + d)
    mins = [0.0, -1e-6] + [-1e-10 + sign * off for off in (1e-12, 1e-9) for sign in (1, -1)]
    cases = []   # (state of trace 1, POVM element with its complement PSD)
    for lam in mins:
        rest = rng.uniform(0.05, 0.95, d - 1)
        density = np.concatenate([[lam], rest * (1 - lam) / rest.sum()]) if d > 1 else [lam]
        cases.append((_with_spectrum(rng, density),
                      _with_spectrum(rng, np.concatenate([[lam], rest]))))
    for _ in range(3):
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        pure = np.outer(v, v.conj()) / np.vdot(v, v).real
        cases.append((pure, pure))
    for state, elem in cases:
        for check, m in ((check_density, state),
                         (lambda e: check_povm([e, np.eye(d) - e]), elem)):
            msg = _psd_rejection(check, m)
            assert (msg is None) == psd_within(m), (d, smallest_eigenvalue(m), msg)
            if msg is not None:
                assert f"negative eigenvalue {smallest_eigenvalue(m):.3e}" in msg


def test_zero_dimension_rejected():
    empty = np.zeros((0, 0))
    with pytest.raises(ValidationError, match="trace 0"):
        check_density(empty)
    with pytest.raises(ValidationError, match="trace 0"):
        entropy_bits(empty)
    with pytest.raises(ValidationError, match="dimension 0"):
        check_povm([empty])


# --- the extended-precision root oracle ---------------------------------------------

def spread_density(rng, d):
    """A random density whose eigenvalues are k / (d (d + 1) / 2), k = 1..d:
    at least 1/136 apart and from zero at d = 16, so its eigenvectors and
    root are well conditioned."""
    u = random_unitary(rng, d)
    values = np.arange(1, d + 1) / (d * (d + 1) / 2)
    return hermitize((u * values) @ u.conj().T)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 16])
def test_mp_oracle_matches_numpy_on_well_conditioned_states(d):
    rng = np.random.default_rng(93 + d)
    for _ in range(3):
        rho = spread_density(rng, d)
        values, vectors = eigh_mp(rho)
        assert np.max(np.abs(values - np.linalg.eigvalsh(rho))) <= 1e-12
        # distinct eigenvalues: each eigenvector is fixed up to a phase
        overlaps = np.abs(np.sum(vectors.conj() * np.linalg.eigh(rho)[1], axis=0))
        assert np.max(np.abs(overlaps - 1.0)) <= 1e-12
        assert np.max(np.abs(op_sqrt_mp(rho) - op_sqrt(rho))) <= 1e-12


@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_rank1_root_matches_mp_root(d):
    rng = np.random.default_rng(97 + d)
    for _ in range(3):
        # small Gaussian-integer entries make |mu><mu| exact in double
        # precision, so the mp oracle roots an operator of rank exactly 1
        mu = rng.integers(-3, 4, size=d) + 1j * rng.integers(-3, 4, size=d)
        mu[0] += 4
        e = np.outer(mu, mu.conj())
        root = rank1_root(mu)
        scale = np.linalg.norm(mu)
        assert np.max(np.abs(root - op_sqrt_mp(e))) <= 1e-12 * scale
        assert np.max(np.abs(root @ root - e)) <= 1e-12 * scale ** 2
