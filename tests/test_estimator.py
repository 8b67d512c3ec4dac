import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ofevi import (
    HERMITE,
    BasisFamily,
    Gaussian,
    OfeDensity,
    ProductBasis,
    ProposalSupportError,
    ScoreCache,
    ScoreRejectionError,
    UniformBox,
    assemble_moment_matrix,
    basis_tables,
    feature_vectors,
    fit,
    fit_from_batch,
    min_eigenpair,
)
from ofevi.estimator import CHUNK

from oracles import eval_product, fd_gradient


def standard_gaussian(dim=1):
    return Gaussian(np.zeros(dim), np.eye(dim))


def basis_1d(k):
    return ProductBasis([BasisFamily(HERMITE)], (k,))


# -- feature vectors -----------------------------------------------------------

def test_features_vanish_for_the_exact_family_member():
    # With K = 1 the expansion is the standard normal and u_1 is identically 0.
    basis = basis_1d(1)
    z = np.linspace(-5.0, 5.0, 11)[:, None]
    u = feature_vectors(basis, z, -z)
    assert np.array_equal(u, np.zeros_like(u))


def test_feature_value_example():
    basis = basis_1d(2)
    z = np.array([[1.0]])
    u = feature_vectors(basis, z, -z)
    # u_2(1) = 2 phi'_2(1) + phi_2(1) = 2 phi_1(1)
    phi_1 = basis_tables(BasisFamily(HERMITE), 1, [1.0])[0][0, 0]
    assert u[1, 0, 0] == pytest.approx(2.0 * phi_1, rel=1e-13)
    assert u[1, 0, 0] == pytest.approx(0.9838, abs=5e-5)


def test_features_match_finite_differences():
    rng = np.random.default_rng(0)
    target = Gaussian(np.array([0.5, -0.2]), np.array([[1.0, 0.3], [0.3, 0.8]]))
    basis = ProductBasis([BasisFamily(HERMITE)] * 2, (3, 2))
    z = rng.normal(size=(6, 2))
    u = feature_vectors(basis, z, np.asarray(target.score(z)))
    for i in range(basis.size):
        for n in range(z.shape[0]):
            grad = fd_gradient(lambda x: eval_product(basis, i, x), z[n])
            direct = 2.0 * grad - eval_product(basis, i, z[n]) * target.score(z[n][None])[0]
            assert np.allclose(u[i, n], direct, rtol=1e-6, atol=1e-8)


# -- moment matrix ---------------------------------------------------------------

def test_moment_matrix_is_exactly_symmetric():
    rng = np.random.default_rng(1)
    u = rng.normal(size=(5, 40, 2))
    w = rng.uniform(0.5, 2.0, size=40)
    m = assemble_moment_matrix(u, w)
    assert np.array_equal(m, m.T)


def test_moment_matrix_matches_direct_sum():
    rng = np.random.default_rng(2)
    u = rng.normal(size=(4, 30, 3))
    w = rng.uniform(0.5, 2.0, size=30)
    direct = np.einsum("b,jbd,kbd->jk", w, u, u)
    m = assemble_moment_matrix(u, w)
    assert np.allclose(m, direct, rtol=1e-13)


def test_doubling_the_batch_doubles_the_matrix_exactly():
    # A batch of exactly one chunk, repeated, streams as two identical chunks.
    rng = np.random.default_rng(3)
    target = standard_gaussian(2)
    basis = ProductBasis([BasisFamily(HERMITE)] * 2, (3, 2))
    z = rng.uniform(-4.0, 4.0, size=(CHUNK, 2))
    w = rng.uniform(0.5, 2.0, size=CHUNK)
    m1 = fit_from_batch(target, basis, z, w).moment_matrix
    m2 = fit_from_batch(
        target, basis, np.concatenate([z, z]), np.concatenate([w, w])
    ).moment_matrix
    assert np.array_equal(m2, 2.0 * m1)


# -- eigensolve ------------------------------------------------------------------

def test_min_eigenpair_diagonal_example():
    lam, alpha = min_eigenpair(np.diag([3.0, 1.0, 2.0]))
    assert lam == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(alpha, [0.0, 1.0, 0.0], atol=1e-14)


def test_min_eigenpair_identity_matrix():
    lam, alpha = min_eigenpair(np.eye(3))
    assert lam == pytest.approx(1.0, rel=1e-14)
    assert np.linalg.norm(alpha) == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(np.eye(3) @ alpha, lam * alpha, atol=1e-14)


def test_min_eigenpair_matches_dense_oracle():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(12, 12))
    m = a @ a.T
    lam, alpha = min_eigenpair(m)
    vals, vecs = np.linalg.eigh(m)
    assert lam == pytest.approx(vals[0], rel=1e-10, abs=1e-12)
    ref = vecs[:, 0]
    gap = min(np.linalg.norm(alpha - ref), np.linalg.norm(alpha + ref))
    assert gap < 1e-8


def test_min_eigenpair_above_two_thousand_functions():
    # H D H with H = I - 2 v v^T has eigenvalues D and eigenvectors H e_i,
    # so the smallest pair is known without a solve.
    k = 2049
    rng = np.random.default_rng(6)
    v = rng.normal(size=k)
    v /= np.linalg.norm(v)
    d = rng.uniform(1.0, 2.0, size=k)
    d[700] = 0.5
    hd = d[:, None] * (np.eye(k) - 2.0 * np.outer(v, v))
    m = hd - 2.0 * np.outer(v, v @ hd)
    lam, alpha = min_eigenpair(m)
    known = -2.0 * v[700] * v
    known[700] += 1.0
    vals, vecs = np.linalg.eigh(m)
    for ref_lam, ref in ((0.5, known), (vals[0], vecs[:, 0])):
        assert lam == pytest.approx(ref_lam, abs=1e-10)
        assert min(np.linalg.norm(alpha - ref), np.linalg.norm(alpha + ref)) < 1e-10


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_eigenvector_sign_convention(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6))
    _, alpha = min_eigenpair(a + a.T)
    lead = int(np.argmax(np.abs(alpha)))
    assert alpha[lead] >= 0.0


# -- fitting ----------------------------------------------------------------------

def test_gaussian_fit_is_exact_at_order_one():
    result = fit(
        standard_gaussian(), basis_1d(1), UniformBox.centered(6.0, 1),
        np.random.default_rng(7), n_samples=100,
    )
    assert result.eigenvalue == 0.0
    assert np.array_equal(result.moment_matrix, np.zeros((1, 1)))
    assert np.array_equal(result.density.coeffs, [1.0])
    assert result.rejected == 0
    assert set(result.timings_ms) == {"score_eval", "assemble", "eigensolve"}


def test_fit_recovers_an_in_family_density():
    rng = np.random.default_rng(8)
    alpha_true = np.array([0.8, 0.1, -0.4, 0.2, 0.4])
    alpha_true = alpha_true / np.linalg.norm(alpha_true)
    truth = OfeDensity(basis_1d(5), alpha_true)
    result = fit(truth, basis_1d(5), UniformBox.centered(8.0, 1), rng, n_samples=4000)
    assert result.eigenvalue < 1e-6
    fitted = result.density.coeffs
    gap = min(np.linalg.norm(fitted - alpha_true), np.linalg.norm(fitted + alpha_true))
    assert gap < 1e-3


def test_fit_minimizes_the_quadratic_form():
    result = fit(
        standard_gaussian(2), ProductBasis([BasisFamily(HERMITE)] * 2, (3, 3)),
        UniformBox.centered(6.0, 2), np.random.default_rng(9), n_samples=2000,
    )
    m, alpha = result.moment_matrix, result.density.coeffs
    assert np.min(np.linalg.eigvalsh(m)) >= -1e-10 * np.linalg.norm(m, 2)
    value = alpha @ m @ alpha
    rng = np.random.default_rng(10)
    for _ in range(200):
        v = rng.normal(size=9)
        v /= np.linalg.norm(v)
        assert value <= v @ m @ v + 1e-12


def test_small_batch_warns_about_rank_deficiency():
    with pytest.warns(UserWarning, match="below the basis size"):
        fit(
            standard_gaussian(), basis_1d(6), UniformBox.centered(6.0, 1),
            np.random.default_rng(11), n_samples=4,
        )


def test_zero_proposal_density_raises():
    target = standard_gaussian()
    z = np.array([[0.0], [1.0]])
    with pytest.raises(ProposalSupportError):
        fit_from_batch(target, basis_1d(1), z, np.array([1.0, np.inf]))
    with pytest.raises(ProposalSupportError):
        fit_from_batch(target, basis_1d(1), z, np.array([1.0, 0.0]))


class PatchyScore:
    """Standard normal whose score is NaN beyond a threshold."""

    dim = 1

    def __init__(self, edge):
        self.edge = edge

    def log_density(self, z):
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return -0.5 * z[:, 0] ** 2 - 0.5 * math.log(2.0 * math.pi)

    def score(self, z):
        z = np.atleast_2d(np.asarray(z, dtype=float))
        out = -z.copy()
        out[np.abs(z[:, 0]) > self.edge] = np.nan
        return out


def test_a_few_bad_scores_are_dropped_and_counted():
    rng = np.random.default_rng(12)
    z = rng.uniform(-1.0, 1.0, size=(200, 1))
    z[0, 0] = 3.0  # exactly one point past the edge
    result = fit_from_batch(PatchyScore(2.0), basis_1d(3), z, np.ones(200))
    assert result.rejected == 1
    assert result.samples.shape[0] == 199


def test_too_many_bad_scores_raise():
    rng = np.random.default_rng(13)
    z = rng.uniform(-6.0, 6.0, size=(200, 1))
    with pytest.raises(ScoreRejectionError):
        fit_from_batch(PatchyScore(1.0), basis_1d(3), z, np.ones(200))


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        fit(
            standard_gaussian(2), basis_1d(3), UniformBox.centered(6.0, 1),
            np.random.default_rng(14),
        )


# -- score cache --------------------------------------------------------------------

def test_score_cache_counts_and_reuses():
    target = standard_gaussian()
    cache = ScoreCache(target)
    z = np.random.default_rng(15).normal(size=(50, 1))
    s1 = cache.score(z)
    s2 = cache.score(z)
    assert cache.n_score_evals == 50
    assert s2 is s1
    assert np.array_equal(s1, -z)
    other = z.copy()
    cache.score(other)  # same values, different object: a fresh batch
    assert cache.n_score_evals == 100


def test_score_cache_shares_work_across_basis_sizes():
    cache = ScoreCache(standard_gaussian())
    z = np.random.default_rng(16).normal(size=(120, 1))
    w = np.ones(120)
    r1 = fit_from_batch(cache, basis_1d(3), z, w)
    r2 = fit_from_batch(cache, basis_1d(5), z, w)
    assert cache.n_score_evals == 120
    assert np.array_equal(r2.moment_matrix[:3, :3], r1.moment_matrix)


# -- streamed assembly and nested blocks ---------------------------------------------

# (target, smaller orders, larger orders, box half-width, batch size).  Without
# the cache rule, 12 of these 15 (pair, seed) cases give nested blocks that
# differ in the last bits, because matrix products of different shapes need
# not round alike.
NESTED_PAIRS = [
    pytest.param("sinh5d_1", (3, 3, 3, 3, 3), (4, 4, 4, 3, 3), 6.0, 5760, id="sinh5d-243-in-576"),
    pytest.param("mixture2d", (5, 5), (20, 20), 9.0, 4000, id="mixture2d-5x5-in-20x20"),
    pytest.param("mixture2d", (7, 3), (16, 11), 9.0, 1760, id="mixture2d-7x3-in-16x11"),
    pytest.param("mixture2d", (3, 3), (5, 5), 9.0, 250, id="mixture2d-3x3-in-5x5"),
    pytest.param("mixture2d", (10, 10), (15, 15), 9.0, 2250, id="mixture2d-10x10-in-15x15"),
]


@pytest.mark.parametrize("large_first", [False, True], ids=["small-first", "large-first"])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name, small, large, scale, batch", NESTED_PAIRS)
def test_nested_blocks_are_bit_identical_in_either_order(
    name, small, large, scale, batch, seed, large_first, monkeypatch
):
    from ofevi import estimator, make_target

    assembled = []
    assemble = estimator.assemble_moment_matrix

    def counting(u, *args, **kwargs):
        assembled.append(u.shape[0])
        return assemble(u, *args, **kwargs)

    monkeypatch.setattr(estimator, "assemble_moment_matrix", counting)
    target = make_target(name)
    proposal = UniformBox.centered(scale, target.dim)
    z = proposal.sample(np.random.default_rng((seed, 7)), batch)
    w = 1.0 / proposal.density(z)
    small_basis = ProductBasis([BasisFamily(HERMITE)] * target.dim, small)
    large_basis = ProductBasis([BasisFamily(HERMITE)] * target.dim, large)
    cache = ScoreCache(target)
    if large_first:
        r_large = fit_from_batch(cache, large_basis, z, w)
        r_small = fit_from_batch(cache, small_basis, z, w)
        # The smaller basis is a slice of the held M: nothing is assembled for it.
        assert small_basis.size not in assembled
    else:
        r_small = fit_from_batch(cache, small_basis, z, w)
        r_large = fit_from_batch(cache, large_basis, z, w)
    assert cache.n_score_evals == batch
    rows = np.ravel_multi_index(np.unravel_index(np.arange(small_basis.size), small), large)
    assert np.array_equal(r_large.moment_matrix[np.ix_(rows, rows)], r_small.moment_matrix)


def test_streamed_fit_matches_one_unchunked_product():
    rng = np.random.default_rng(17)
    target = Gaussian(np.array([0.3, -0.1]), np.array([[1.0, 0.2], [0.2, 0.7]]))
    basis = ProductBasis([BasisFamily(HERMITE)] * 2, (6, 5))
    z = rng.uniform(-6.0, 6.0, size=(2500, 2))
    w = rng.uniform(0.5, 2.0, size=2500)
    u = feature_vectors(basis, z, np.asarray(target.score(z)))
    direct = np.einsum("b,jbd,kbd->jk", w, u, u)
    # 2500 samples stream as two full chunks and one partial one.
    m = fit_from_batch(target, basis, z, w).moment_matrix
    assert np.array_equal(m, m.T)
    assert np.allclose(m, direct, rtol=1e-12, atol=1e-12 * np.abs(direct).max())
    # The chunk layout is fixed, so a refit of the batch repeats M bit for bit.
    assert np.array_equal(fit_from_batch(target, basis, z, w).moment_matrix, m)


def test_the_held_matrix_serves_only_its_own_batch_and_weights():
    cache = ScoreCache(standard_gaussian())
    rng = np.random.default_rng(18)
    z1, z2 = rng.normal(size=(80, 1)), rng.normal(size=(80, 1))
    w = rng.uniform(0.5, 2.0, size=80)
    for z, weights in ((z1, 2.0 * w), (z2, w)):
        fit_from_batch(cache, basis_1d(6), z1, w)
        held_elsewhere = fit_from_batch(cache, basis_1d(3), z, weights).moment_matrix
        fresh = fit_from_batch(standard_gaussian(), basis_1d(3), z, weights).moment_matrix
        assert np.array_equal(held_elsewhere, fresh)


def test_fit_memory_stays_bounded_by_the_chunk():
    import tracemalloc

    from ofevi import make_target

    # u for the whole batch would be 576 * 5760 * 5 doubles (133 MB); a
    # streamed fit holds one 1024-sample chunk of it at a time.
    target = make_target("sinh5d_1")
    proposal = UniformBox.centered(6.0, 5)
    z = proposal.sample(np.random.default_rng(19), 5760)
    w = 1.0 / proposal.density(z)
    cache = ScoreCache(target)
    cache.score(z)
    basis = ProductBasis([BasisFamily(HERMITE)] * 5, (4, 4, 4, 3, 3))
    tracemalloc.start()
    try:
        fit_from_batch(cache, basis, z, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 96 * 2**20
