import re
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import linalg as scipy_linalg

from ofevi import (
    FOURIER,
    HERMITE,
    LEGENDRE,
    BasisFamily,
    ConfigError,
    Gaussian,
    OfeDensity,
    ProductBasis,
    ProposalSupportError,
    ScoreRejectionError,
    UniformBox,
    assemble_moment_matrix,
    basis_tables,
    feature_vectors,
    fit,
    fit_from_batch,
    min_eigenpair,
)
from ofevi import estimator
from ofevi.estimator import CHUNK_COLUMNS, chunk_draws

from oracles import CountingScore, copying_moment_matrix, eval_product, fd_gradient, traced_peak


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
    phi_1 = basis_tables(BasisFamily(HERMITE), 1, [1.0])[0, 0]
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


@pytest.mark.parametrize("k", [1, 2, 3, 4, 576])
def test_moment_matrix_matches_direct_sum(k):
    rng = np.random.default_rng(2)
    u = rng.normal(size=(k, 30, 3))
    w = rng.uniform(0.5, 2.0, size=30)
    direct = np.einsum("b,jbd,kbd->jk", w, u, u)
    m = assemble_moment_matrix(u, w)
    assert np.array_equal(m, m.T)
    assert np.allclose(m, direct, rtol=1e-13, atol=1e-13 * np.abs(direct).max())


def test_doubling_the_batch_doubles_the_matrix_exactly():
    # A batch of exactly one chunk, repeated, streams as two identical chunks.
    rng = np.random.default_rng(3)
    target = standard_gaussian(2)
    basis = ProductBasis([BasisFamily(HERMITE)] * 2, (3, 2))
    z = rng.uniform(-4.0, 4.0, size=(chunk_draws(2), 2))
    w = rng.uniform(0.5, 2.0, size=chunk_draws(2))
    m1 = fit_from_batch(target, basis, z, w).moment_matrix
    m2 = fit_from_batch(
        target, basis, np.concatenate([z, z]), np.concatenate([w, w])
    ).moment_matrix
    assert np.array_equal(m2, 2.0 * m1)


# -- eigensolve ------------------------------------------------------------------

def test_min_eigenpair_diagonal_example():
    lam, alpha, lambda_2 = min_eigenpair(np.diag([3.0, 1.0, 2.0]))
    assert lam == pytest.approx(1.0, abs=1e-14)
    assert lambda_2 == pytest.approx(2.0, abs=1e-14)
    assert np.allclose(alpha, [0.0, 1.0, 0.0], atol=1e-14)


def test_min_eigenpair_identity_matrix():
    lam, alpha, _ = min_eigenpair(np.eye(3))
    assert lam == pytest.approx(1.0, rel=1e-14)
    assert np.linalg.norm(alpha) == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(np.eye(3) @ alpha, lam * alpha, atol=1e-14)


def test_min_eigenpair_matches_dense_oracle():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(12, 12))
    m = a @ a.T
    lam, alpha, _ = min_eigenpair(m)
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
    lam, alpha, _ = min_eigenpair(m)
    known = -2.0 * v[700] * v
    known[700] += 1.0
    vals, vecs = np.linalg.eigh(m)
    for ref_lam, ref in ((0.5, known), (vals[0], vecs[:, 0])):
        assert lam == pytest.approx(ref_lam, abs=1e-10)
        assert min(np.linalg.norm(alpha - ref), np.linalg.norm(alpha + ref)) < 1e-10


def _wishart(k, cols, seed):
    a = np.random.default_rng(seed).normal(size=(k, cols))
    return a @ a.T


def _lowest_four_within(spread, k, seed):
    # PSD, lambda_max near 1, the four lowest eigenvalues in [0, spread].
    rng = np.random.default_rng(seed)
    vals = rng.uniform(0.1, 1.0, size=k)
    vals[:4] = spread * np.array([0.0, 0.3, 0.6, 0.9])
    q = np.linalg.qr(rng.normal(size=(k, k)))[0]
    return (q * vals) @ q.T


LOWEST_PAIR_CASES = {
    # Wishart: the lowest eigenvalues of a (K, 2K) factor's Gram matrix are
    # close in ratio, so the block iteration converges slowly: at K = 25
    # within the step cap, at 243 and 576 past it, where the dense solve runs.
    "25": lambda: _wishart(25, 50, 25),
    "243": lambda: _wishart(243, 486, 243),
    "576": lambda: _wishart(576, 1152, 576),
    # Indefinite: no Cholesky factor, so the dense solve runs.
    "indefinite": lambda: _wishart(40, 40, 3) - 20.0 * np.eye(40),
    # A near-null cluster of four, as in the largest 2-D fits: alpha is any
    # vector of the cluster, so only its residual and lambda are checked.
    "cluster": lambda: _lowest_four_within(1e-10, 200, 4),
    # K at most the block width: the block spans the whole space.
    "4": lambda: _wishart(4, 6, 5),
}


@pytest.mark.parametrize("case", list(LOWEST_PAIR_CASES))
def test_min_eigenpair_matches_the_lowest_pair_only_solve(case):
    m = LOWEST_PAIR_CASES[case]()
    lam, alpha, lambda_2 = min_eigenpair(m)
    vals, vecs = scipy_linalg.eigh(m, subset_by_index=(0, 1))
    norm = np.linalg.norm(m, 2)
    assert lam == pytest.approx(vals[0], abs=1e-12 * norm)
    assert lambda_2 == pytest.approx(vals[1], abs=1e-12 * norm)
    # Within the bound fit_from_batch applies to every eigenpair.
    assert np.linalg.norm(m @ alpha - lam * alpha) <= 1e-8 * np.linalg.norm(m)
    assert np.linalg.norm(alpha) == pytest.approx(1.0, rel=1e-14)
    assert alpha[np.argmax(np.abs(alpha))] > 0.0
    if case != "cluster":
        ref = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        ref *= np.sign(ref[np.argmax(np.abs(ref))])
        assert np.max(np.abs(alpha - ref)) < 1e-9


def test_min_eigenpair_runs_no_dense_solve_on_a_well_separated_matrix(monkeypatch):
    # A square factor's Wishart matrix has its lowest eigenvalues far apart
    # in ratio, so the block iteration converges and eigh sees only blocks.
    k = 576
    m = _wishart(k, k, 7)
    shapes, eigh = [], np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    lam, alpha, _ = min_eigenpair(m)
    assert shapes and (k, k) not in shapes
    assert np.linalg.norm(m @ alpha - lam * alpha) <= 1e-12 * np.linalg.norm(m)


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_eigenvector_sign_convention(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(6, 6))
    _, alpha, _ = min_eigenpair(a + a.T)
    lead = int(np.argmax(np.abs(alpha)))
    assert alpha[lead] >= 0.0


# -- fitting ----------------------------------------------------------------------

def test_gaussian_fit_is_exact_at_order_one():
    result = fit(
        standard_gaussian(), basis_1d(1), UniformBox.centered(6.0, 1),
        np.random.default_rng(7), n_samples=100,
    )
    assert result.eigenvalue == 0.0
    assert result.lambda_2 is None
    assert np.array_equal(result.moment_matrix, np.zeros((1, 1)))
    assert np.array_equal(result.density.coeffs, [1.0])
    assert result.rejected == 0
    assert set(result.timings_ms) == {"score_eval", "assemble", "eigensolve"}
    # The larger of M (8 bytes) and one chunk's features: in 1-D a chunk
    # holds CHUNK_COLUMNS draws of one column each.
    assert result.largest_array_bytes == 8 * CHUNK_COLUMNS


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
    vals = np.linalg.eigvalsh(m)
    assert np.min(vals) >= -1e-10 * np.linalg.norm(m, 2)
    # lambda_2 is the block's second Ritz value: an upper bound on vals[1].
    assert vals[1] - 1e-12 * vals[-1] <= result.lambda_2 <= vals[-1]
    value = alpha @ m @ alpha
    rng = np.random.default_rng(10)
    for _ in range(200):
        v = rng.normal(size=9)
        v /= np.linalg.norm(v)
        assert value <= v @ m @ v + 1e-12


@pytest.mark.parametrize("count", [2.5, True])
def test_fit_refuses_a_sample_count_that_is_not_an_integer(count):
    with pytest.raises(ConfigError, match="n_samples"):
        fit(
            standard_gaussian(), basis_1d(3), UniformBox.centered(6.0, 1),
            np.random.default_rng(12), n_samples=count,
        )


def test_fit_takes_a_whole_float_sample_count():
    result = fit(
        standard_gaussian(), basis_1d(3), UniformBox.centered(6.0, 1),
        np.random.default_rng(12), n_samples=2000.0,
    )
    assert result.samples.shape == (2000, 1)


def test_small_batch_warns_about_rank_deficiency():
    with pytest.warns(UserWarning, match="below the basis size"):
        fit(
            standard_gaussian(), basis_1d(6), UniformBox.centered(6.0, 1),
            np.random.default_rng(11), n_samples=4,
        )


def test_a_fit_refuses_an_eigenpair_past_the_residual_bound(monkeypatch):
    # The eigensolver hands back a unit vector that is no eigenvector of M.
    monkeypatch.setattr(estimator, "min_eigenpair", lambda m: (0.0, np.eye(m.shape[0])[-1], 1.0))
    z = np.random.default_rng(13).uniform(-3.0, 3.0, size=(50, 1))
    with pytest.raises(RuntimeError, match="eigenpair residual .* exceeds"):
        fit_from_batch(standard_gaussian(), basis_1d(3), z, np.ones(50))


def test_zero_proposal_density_raises():
    target = standard_gaussian()
    z = np.array([[0.0], [1.0]])
    with pytest.raises(ProposalSupportError):
        fit_from_batch(target, basis_1d(1), z, np.array([1.0, np.inf]))
    with pytest.raises(ProposalSupportError):
        fit_from_batch(target, basis_1d(1), z, np.array([1.0, 0.0]))


class PatchyScore:
    """Standard normal whose score is NaN where the first coordinate passes a threshold."""

    def __init__(self, edge, dim=1):
        self.edge = edge
        self.dim = dim

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


@pytest.mark.parametrize("earlier_orders", [None, (3, 3)], ids=["fresh", "earlier"])
def test_a_fit_warns_when_its_kept_draws_are_fewer_than_the_basis(earlier_orders):
    # 100 draws for K = 100, but one score is NaN: 99 draws are kept.
    z = np.random.default_rng(23).uniform(-1.0, 1.0, size=(100, 2))
    z[0, 0] = 3.0
    w = np.ones(100)
    target = PatchyScore(2.0, dim=2)
    earlier = None
    if earlier_orders is not None:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            earlier = fit_from_batch(
                target, ProductBasis([BasisFamily(HERMITE)] * 2, earlier_orders), z, w
            )
    basis = ProductBasis([BasisFamily(HERMITE)] * 2, (10, 10))
    with pytest.warns(UserWarning, match="99 of 100 draws .* below the basis size 100"):
        result = fit_from_batch(target, basis, z, w, earlier=earlier)
    assert result.rejected == 1 and result.samples.shape[0] == 99


def test_too_many_bad_scores_raise():
    rng = np.random.default_rng(13)
    z = rng.uniform(-6.0, 6.0, size=(200, 1))
    with pytest.raises(ScoreRejectionError):
        fit_from_batch(PatchyScore(1.0), basis_1d(3), z, np.ones(200))


@pytest.mark.parametrize(
    "z_rows, weights",
    [
        (20, np.ones(21)),
        (20, np.ones(19)),
        (20, np.float64(1.0)),
        (20, np.ones((20, 1))),
        (0, np.ones(0)),
    ],
    ids=["longer", "shorter", "scalar", "two-d", "empty"],
)
def test_a_batch_whose_weights_do_not_fit_raises_before_scoring(z_rows, weights):
    target = CountingScore(standard_gaussian())
    z = np.random.default_rng(15).normal(size=(z_rows, 1))
    shapes = f"shape {re.escape(str(np.shape(weights)))} .* shape {re.escape(str(z.shape))}"
    with pytest.raises(ValueError, match=shapes):
        fit_from_batch(target, basis_1d(3), z, weights)
    assert target.points == 0


def test_a_fit_leaves_no_thread_behind():
    before = threading.active_count()
    fit(
        standard_gaussian(2), ProductBasis([BasisFamily(HERMITE)] * 2, (6, 5)),
        UniformBox.centered(6.0, 2), np.random.default_rng(16), n_samples=2500,
    )
    assert threading.active_count() == before


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        fit(
            standard_gaussian(2), basis_1d(3), UniformBox.centered(6.0, 1),
            np.random.default_rng(14),
        )


# -- an earlier fit of the batch ------------------------------------------------------

def test_an_earlier_fit_shares_its_scores_across_basis_sizes():
    target = CountingScore(standard_gaussian())
    z = np.random.default_rng(16).normal(size=(120, 1))
    w = np.ones(120)
    r1 = fit_from_batch(target, basis_1d(3), z, w)
    r2 = fit_from_batch(target, basis_1d(5), z, w, earlier=r1)
    assert target.points == 120
    assert np.array_equal(r2.scores, r1.scores)
    assert np.array_equal(r2.moment_matrix[:3, :3], r1.moment_matrix)


def test_an_earlier_fit_of_another_batch_size_is_refused():
    target = CountingScore(standard_gaussian())
    rng = np.random.default_rng(18)
    z = rng.normal(size=(80, 1))
    earlier = fit_from_batch(target, basis_1d(6), z, np.ones(80))
    other = rng.normal(size=(81, 1))
    with pytest.raises(ValueError, match="kept 80 and rejected 0 draws, not the 81"):
        fit_from_batch(target, basis_1d(3), other, np.ones(81), earlier=earlier)
    assert target.points == 80


def test_a_mismatched_earlier_never_lends_its_matrix_silently():
    # The earlier fit kept 99 of its 100 draws.  A batch of its 99 kept draws,
    # or of 101, is not its batch, though its M holds a block for basis_1d(3).
    rng = np.random.default_rng(18)
    z = rng.uniform(-1.0, 1.0, size=(100, 1))
    z[0, 0] = 3.0
    w = rng.uniform(0.5, 2.0, size=100)
    earlier = fit_from_batch(PatchyScore(2.0), basis_1d(6), z, w)
    assert earlier.rejected == 1
    for other, weights in ((earlier.samples, earlier.weights),
                           (np.concatenate([z, z[:1]]), np.concatenate([w, w[:1]]))):
        with pytest.raises(ValueError, match="the earlier fit kept 99 and rejected 1 draws"):
            fit_from_batch(PatchyScore(2.0), basis_1d(3), other, weights, earlier=earlier)
    lent = fit_from_batch(PatchyScore(2.0), basis_1d(3), z, w, earlier=earlier)
    assert np.array_equal(lent.moment_matrix, earlier.moment_matrix[:3, :3])


# -- streamed assembly and nested blocks ---------------------------------------------

# (target, smaller orders, larger orders, box half-width, batch size).  Without
# the shared block, 12 of these 15 (pair, seed) cases give nested blocks that
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
    target = CountingScore(make_target(name))
    proposal = UniformBox.centered(scale, target.dim)
    z = proposal.sample(np.random.default_rng((seed, 7)), batch)
    w = 1.0 / proposal.density(z)
    small_basis = ProductBasis([BasisFamily(HERMITE)] * target.dim, small)
    large_basis = ProductBasis([BasisFamily(HERMITE)] * target.dim, large)
    if large_first:
        r_large = fit_from_batch(target, large_basis, z, w)
        r_small = fit_from_batch(target, small_basis, z, w, earlier=r_large)
        # The smaller basis is a slice of the earlier M: nothing is assembled for it.
        assert small_basis.size not in assembled
    else:
        r_small = fit_from_batch(target, small_basis, z, w)
        r_large = fit_from_batch(target, large_basis, z, w, earlier=r_small)
    assert target.points == batch
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


def sinh5d_batch(seed, n):
    """The benchmark's 5-D fit at K = 576 on n draws from the box it uses."""
    from ofevi import make_target

    target = make_target("sinh5d_1")
    proposal = UniformBox.centered(6.0, 5)
    z = proposal.sample(np.random.default_rng(seed), n)
    basis = ProductBasis([BasisFamily(HERMITE)] * 5, (4, 4, 4, 3, 3))
    return target, basis, z, 1.0 / proposal.density(z)


def test_copy_free_assembly_gives_the_copying_matrix_bit_for_bit():
    # Non-constant weights, and batches that end in a partial chunk.
    rng = np.random.default_rng(20)
    gaussian_1d = Gaussian(np.array([0.4]), np.array([[1.3]]))
    gaussian_2d = Gaussian(np.array([0.1, 3.0]), np.array([[0.4, 0.1], [0.1, 2.0]]))
    legendre_fourier = ProductBasis([BasisFamily(LEGENDRE), BasisFamily(FOURIER)], (5, 4))
    sinh5d, sinh5d_basis, z_5d, _ = sinh5d_batch(21, 5760)
    cases = [
        (gaussian_1d, basis_1d(7), rng.normal(size=(2500, 1))),  # D = 1: one table
        (gaussian_2d, legendre_fourier,
         np.column_stack([rng.uniform(-1.0, 1.0, 1500), rng.uniform(0.0, 2.0 * np.pi, 1500)])),
        (sinh5d, sinh5d_basis, z_5d),
    ]
    for target, basis, z in cases:
        step = chunk_draws(basis.dim)
        assert z.shape[0] % step
        w = rng.uniform(0.5, 2.0, size=z.shape[0])
        scores = np.asarray(target.score(z))
        m = fit_from_batch(target, basis, z, w).moment_matrix
        assert np.array_equal(m, copying_moment_matrix(basis, z, scores, w, step))


def test_assembly_allocates_only_the_matrix():
    target, basis, z, w = sinh5d_batch(22, chunk_draws(5))
    u = feature_vectors(basis, z, np.asarray(target.score(z)))
    # M takes 8 * 576^2 bytes; copying the scaled features would take
    # another 8 * 576 * 409 * 5 bytes (9.4 MB).
    assert traced_peak(assemble_moment_matrix, u, w) <= 8 * basis.size**2 + 2**20


def test_a_streamed_fit_holds_one_feature_array_per_chunk():
    # The whole batch's features would be 576 * 5760 * 5 doubles (133 MB).
    # One chunk's are 9.4 MB at K = 576, and a copy of them per chunk would
    # add as much again.
    target, basis, z, w = sinh5d_batch(19, 5760)
    assert traced_peak(fit_from_batch, target, basis, z, w) < 20 * 2**20


def test_fit_chunks_hold_at_most_chunk_columns_feature_columns(monkeypatch):
    # A chunk's features take at most 8 K CHUNK_COLUMNS bytes whatever D,
    # and every chunk writes them into the same buffer.  2048 columns keep
    # the 400-draw 5-D fit of the benchmark's tests whole.
    assert [chunk_draws(d) for d in (1, 2, 5, 17, 4096)] == [2048, 1024, 409, 120, 1]
    chunks = []
    inner = estimator.feature_vectors

    def recording(basis, z, scores, **kwargs):
        u = inner(basis, z, scores, **kwargs)
        chunks.append((z.shape[0], u.nbytes, u.__array_interface__["data"][0]))
        return u

    monkeypatch.setattr(estimator, "feature_vectors", recording)
    for dim in range(1, 6):
        chunks.clear()
        basis = ProductBasis([BasisFamily(HERMITE)] * dim, (2,) * dim)
        n = 2 * chunk_draws(dim) + 7
        z = np.random.default_rng(dim).uniform(-3.0, 3.0, size=(n, dim))
        fit_from_batch(standard_gaussian(dim), basis, z, np.ones(n))
        assert [draws for draws, _, _ in chunks] == [chunk_draws(dim)] * 2 + [7]
        assert max(nbytes for _, nbytes, _ in chunks) <= 8 * basis.size * CHUNK_COLUMNS
        assert len({start for _, _, start in chunks}) == 1
