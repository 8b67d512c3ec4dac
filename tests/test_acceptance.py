"""End-to-end acceptance checks for the package.

Each criterion prints exactly one PASS/FAIL line (run with ``pytest -s`` to
see them live); the assertion carries the same message.  Tolerances here are
contractual: they must not be loosened to make a failing build pass.
"""

import math
import time
from dataclasses import replace

import numpy as np

from ofevi import (
    HERMITE,
    BasisFamily,
    ExperimentConfig,
    Gaussian,
    OfeDensity,
    ProductBasis,
    SinhArcsinh,
    StandardizedTarget,
    UniformBox,
    assemble_moment_matrix,
    bimodal_1d,
    estimate_transform,
    feature_vectors,
    fit,
    fit_from_batch,
    funnel_2d,
    make_target,
    records_to_csv,
    run,
    write_outputs,
)
from ofevi.harness import kl_from_samples

from oracles import CountingScore, expansion_cdf, fd_gradient, gauss_panels, random_unit


def report(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line)
    assert ok, line


def basis_nd(dim, order):
    return ProductBasis([BasisFamily(HERMITE)] * dim, (order,) * dim)


def test_criterion_01_gaussian_exactness():
    t0 = time.perf_counter()
    result = fit(
        Gaussian(np.zeros(1), np.eye(1)), basis_nd(1, 1), UniformBox.centered(6.0, 1),
        np.random.default_rng(1), n_samples=100,
    )
    elapsed = time.perf_counter() - t0
    at_zero = result.density.density([[0.0]])[0]
    gap = abs(at_zero - (2.0 * math.pi) ** -0.5)
    ok = result.eigenvalue <= 1e-12 and gap <= 1e-12 and elapsed < 1.0
    report(
        1, "standard Gaussian is fitted exactly at K=1", ok,
        f"lambda_min={result.eigenvalue:.1e}, |q(0)-(2pi)^-1/2|={gap:.1e}, {elapsed:.2f}s",
    )


def test_criterion_02_in_family_recovery():
    results = []
    for dim, order, seed, halfwidth in ((1, 5, 21, 8.0), (2, 3, 22, 6.0)):
        basis = basis_nd(dim, order)
        alpha_true = random_unit(np.random.default_rng(seed), basis.size)
        truth = OfeDensity(basis, alpha_true)
        result = fit(
            truth, basis, UniformBox.centered(halfwidth, dim),
            np.random.default_rng(seed + 100), n_samples=10_000,
        )
        gap = min(
            np.linalg.norm(result.density.coeffs - truth.coeffs),
            np.linalg.norm(result.density.coeffs + truth.coeffs),
        )
        results.append((dim, result.eigenvalue, gap))
    ok = all(lam < 1e-6 and gap < 1e-3 for _, lam, gap in results)
    detail = "; ".join(f"{d}-D lambda={lam:.1e} gap={gap:.1e}" for d, lam, gap in results)
    report(2, "fits recover in-family targets from 10K samples", ok, detail)


def test_criterion_03_quadratic_form_identity():
    # The scalar divergence estimator evaluated on a mixture expansion f_alpha
    # must equal alpha' M alpha for the assembled matrix, to rounding.
    cases = [
        (Gaussian(np.zeros(2), np.eye(2)), basis_nd(2, 3), 9.0),
        (bimodal_1d(), basis_nd(1, 6), 6.0),
        (funnel_2d(), basis_nd(2, 3), 9.0),
    ]
    worst = 0.0
    rng_alpha = np.random.default_rng(31)
    for target, basis, halfwidth in cases:
        proposal = UniformBox.centered(halfwidth, target.dim)
        z = proposal.sample(np.random.default_rng(32), 200)
        w = 1.0 / proposal.density(z)
        scores = np.asarray(target.score(z))
        m = assemble_moment_matrix(feature_vectors(basis, z, scores), w)
        vals, grads = basis.feature_gradients(z)
        for _ in range(100):
            alpha = random_unit(rng_alpha, basis.size)
            f = alpha @ vals
            g = np.einsum("k,knd->nd", alpha, grads)
            u_alpha = 2.0 * g - f[:, None] * scores
            direct = float(np.sum(w * np.sum(u_alpha * u_alpha, axis=1)))
            quad = float(alpha @ m @ alpha)
            worst = max(worst, abs(direct - quad) / (quad + 1e-30))
    ok = worst < 1e-10
    report(3, "direct estimator equals the quadratic form", ok,
           f"worst relative gap {worst:.1e} over 3 targets x 100 weights")


def test_criterion_04_psd_and_optimality():
    fits = []
    fits.append(fit(Gaussian(np.zeros(1), np.eye(1)), basis_nd(1, 1),
                    UniformBox.centered(6.0, 1), np.random.default_rng(41), n_samples=100))
    for name, order in (("mixture2d", 6), ("funnel2d", 6), ("cross2d", 6)):
        fits.append(fit(make_target(name), basis_nd(2, order),
                        UniformBox.centered(9.0, 2), np.random.default_rng(42)))
    worst_eig, worst_opt = 0.0, -np.inf
    rng = np.random.default_rng(43)
    for result in fits:
        m = result.moment_matrix
        scale = np.linalg.norm(m, 2)
        eigs = np.linalg.eigvalsh(m)
        worst_eig = max(worst_eig, -eigs[0] / scale if scale > 0 else 0.0)
        alpha = result.density.coeffs
        value = float(alpha @ m @ alpha)
        for _ in range(1000):
            v = random_unit(rng, m.shape[0])
            worst_opt = max(worst_opt, value - float(v @ m @ v))
    ok = worst_eig <= 1e-10 and worst_opt <= 1e-12
    report(4, "moment matrices are PSD and the fit is the minimizer", ok,
           f"worst -lambda_min/|M|={worst_eig:.1e}, worst alpha'Ma - v'Mv={worst_opt:.1e}")


def test_criterion_05_monotone_improvement_in_k():
    cases = [
        ("bimodal1d", [(3,), (5,), (7,), (9,)], 6.0),
        ("mixture2d", [(3, 3), (6, 6), (10, 10)], 9.0),
        ("funnel2d", [(3, 3), (6, 6), (10, 10)], 9.0),
        ("cross2d", [(3, 3), (6, 6), (10, 10)], 9.0),
    ]
    ok = True
    details = []
    mixture_first = mixture_last = None
    for ti, (name, orders_list, halfwidth) in enumerate(cases):
        target = make_target(name)
        z_ref = target.sample(np.random.default_rng(11), 100_000)
        log_p = np.asarray(target.log_density(z_ref))
        kls = []
        for ki, orders in enumerate(orders_list):
            basis = ProductBasis([BasisFamily(HERMITE)] * target.dim, orders)
            result = fit(  # default batch: ten samples per basis function
                target, basis, UniformBox.centered(halfwidth, target.dim),
                np.random.default_rng((0, ti, ki)),
            )
            kl, se, _ = kl_from_samples(z_ref, log_p, result.density)
            kls.append((kl, se))
        for (kl0, se0), (kl1, se1) in zip(kls, kls[1:]):
            if kl1 > kl0 + 2.0 * math.hypot(se0, se1):
                ok = False
        if name == "mixture2d":
            mixture_first, mixture_last = kls[0][0], kls[-1][0]
        details.append(f"{name} " + "->".join(f"{kl:.4f}" for kl, _ in kls))
    halved = mixture_last < mixture_first / 2.0
    ok = ok and halved
    report(5, "forward KL is non-increasing in K (2 SE slack)", ok,
           "; ".join(details) + f"; mixture halved: {halved}")


def test_criterion_06_standardization_benefit():
    target = Gaussian(np.array([3.0]), np.array([[0.125]]))
    proposal = UniformBox.centered(6.0, 1)
    z_ref = target.sample(np.random.default_rng(11), 100_000)
    log_p = np.asarray(target.log_density(z_ref))

    transform = estimate_transform(target, proposal, 500_000, np.random.default_rng((0, 2)))
    res_std = fit(StandardizedTarget(target, transform), basis_nd(1, 1), proposal,
                  np.random.default_rng((0, 3)), n_samples=100)
    q_std = OfeDensity(res_std.density.basis, res_std.density.coeffs, transform)
    kl_std, _, _ = kl_from_samples(z_ref, log_p, q_std)

    res_raw = fit(target, basis_nd(1, 8), proposal, np.random.default_rng((0, 4)))
    kl_raw, _, _ = kl_from_samples(z_ref, log_p, res_raw.density)

    ok = kl_std < 1e-4 and kl_std < kl_raw
    report(6, "standardized K=1 beats unstandardized K=8 on N(3, 1/8)", ok,
           f"kl_standardized={kl_std:.2e}, kl_raw_K8={kl_raw:.4f}")


def test_criterion_07_sampler_agrees_with_the_density():
    rng = np.random.default_rng(7)
    alpha = random_unit(rng, 6)
    q1 = OfeDensity(basis_nd(1, 6), alpha)
    z = np.sort(q1.sample(np.random.default_rng(77), 100_000)[:, 0])
    emp_hi = np.arange(1, z.size + 1) / z.size
    cdf = expansion_cdf(HERMITE, q1.coeffs, z)
    ks = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(emp_hi - 1.0 / z.size - cdf)))

    beta = np.random.default_rng(8).standard_normal(9)
    q2 = OfeDensity(basis_nd(2, 3), beta)
    mean, cov = q2.mean_and_cov()
    draws = q2.sample(np.random.default_rng(88), 100_000)
    n = draws.shape[0]
    mean_se = draws.std(axis=0, ddof=1) / math.sqrt(n)
    mean_ok = np.all(np.abs(draws.mean(axis=0) - mean) < 4.0 * mean_se)
    centered = draws - draws.mean(axis=0)
    prods = np.einsum("nd,ne->nde", centered, centered)
    cov_se = prods.std(axis=0, ddof=1) / math.sqrt(n)
    cov_ok = np.all(np.abs(prods.mean(axis=0) - cov) < 4.0 * cov_se)

    ok = ks < 0.00515 and mean_ok and cov_ok
    report(7, "exact sampler matches CDF (1-D) and moments (2-D)", ok,
           f"KS={ks:.5f} (<0.00515), 2-D moments within 4 SE: {bool(mean_ok and cov_ok)}")


def test_criterion_08_closed_form_moments():
    rng = np.random.default_rng(81)
    worst = 0.0
    nodes1, weights1 = gauss_panels(-12.0, 12.0, panels=48, order=20)
    for _ in range(10):
        order = int(rng.integers(2, 9))
        q = OfeDensity(basis_nd(1, order), rng.standard_normal(order))
        rho = q.density(nodes1[:, None])
        m1 = np.dot(weights1, nodes1 * rho)
        m2 = np.dot(weights1, nodes1**2 * rho)
        mean, cov = q.mean_and_cov()
        worst = max(worst, abs(mean[0] - m1), abs(cov[0, 0] - (m2 - m1 * m1)))
    nodes2, weights2 = gauss_panels(-10.0, 10.0, panels=30, order=16)
    zz = np.column_stack([np.repeat(nodes2, nodes2.size), np.tile(nodes2, nodes2.size)])
    ww = np.outer(weights2, weights2).ravel()
    for _ in range(10):
        order = int(rng.integers(2, 5))
        q = OfeDensity(basis_nd(2, order), rng.standard_normal(order * order))
        rho = q.density(zz)
        m1 = (ww * rho) @ zz
        mean, cov = q.mean_and_cov()
        worst = max(worst, float(np.max(np.abs(mean - m1))))
        for d in range(2):
            for e in range(2):
                m2 = np.dot(ww * rho, zz[:, d] * zz[:, e])
                worst = max(worst, abs(cov[d, e] - (m2 - m1[d] * m1[e])))
    c = 1.0 / math.sqrt(2.0)
    mean, cov = OfeDensity(basis_nd(1, 2), np.array([c, c])).mean_and_cov()
    worked = abs(mean[0] - 1.0) < 1e-12 and abs(cov[0, 0] - 1.0) < 1e-12
    ok = worst < 1e-6 and worked
    report(8, "analytic moments equal quadrature on 20 random densities", ok,
           f"worst gap {worst:.1e}; worked case mean=1, var=1: {worked}")


def test_criterion_09_target_zoo_is_sound():
    p0 = SinhArcsinh([0.0, 0.0], [1.0, 1.0], np.eye(2))
    ref = Gaussian(np.zeros(2), np.eye(2))
    pts = np.random.default_rng(91).uniform(-4.0, 4.0, size=(100, 2))
    gauss_gap = float(np.max(np.abs(p0.log_density(pts) - ref.log_density(pts))))

    names_2d = ["mixture2d", "funnel2d", "cross2d", "sinh2d_slight_skew_tails",
                "sinh2d_more_skew_tails", "sinh2d_heavier_tails"]
    nodes, weights = gauss_panels(-14.0, 14.0, panels=56, order=16)
    grid = np.column_stack([np.repeat(nodes, nodes.size), np.tile(nodes, nodes.size)])
    ww = np.outer(weights, weights).ravel()
    mass_gap = 0.0
    for name in names_2d:
        mass = float(ww @ np.exp(make_target(name).log_density(grid)))
        mass_gap = max(mass_gap, abs(mass - 1.0))

    score_gap = 0.0
    rng = np.random.default_rng(92)
    for name in ["bimodal1d"] + names_2d + ["sinh5d_1", "sinh5d_2", "sinh5d_3"]:
        target = make_target(name)
        for _ in range(10):
            z = rng.uniform(-2.5, 2.5, size=target.dim)
            fd = fd_gradient(lambda x: target.log_density(x[None])[0], z)
            score_gap = max(score_gap, float(np.max(np.abs(target.score(z[None])[0] - fd))))

    ok = gauss_gap < 1e-10 and mass_gap < 1e-4 and score_gap < 1e-6
    report(9, "targets: Gaussian limit, unit mass, exact scores", ok,
           f"gauss gap {gauss_gap:.1e}, mass gap {mass_gap:.1e}, score-FD gap {score_gap:.1e}")


def test_criterion_10_score_cache_reuse():
    target = CountingScore(make_target("mixture2d"))
    proposal = UniformBox.centered(9.0, 2)
    z = proposal.sample(np.random.default_rng(101), 250)
    w = 1.0 / proposal.density(z)
    small = basis_nd(2, 3)
    large = basis_nd(2, 5)
    r_small = fit_from_batch(target, small, z, w)
    r_large = fit_from_batch(target, large, z, w, earlier=r_small)
    one_eval_each = target.points == 250
    idx = np.ravel_multi_index(np.unravel_index(np.arange(small.size), small.orders), large.orders)
    shared = np.array_equal(r_large.moment_matrix[np.ix_(idx, idx)], r_small.moment_matrix)
    ok = one_eval_each and shared
    report(10, "one scored batch serves K=9 and K=25 fits", ok,
           f"score evals {target.points} for 250 samples; shared block bitwise: {shared}")


def test_criterion_11_byte_identical_outputs(tmp_path):
    cfg = ExperimentConfig(
        target="mixture2d", orders=((3, 3), (4, 4)), seed=123, samples=(500,),
        proposal_scale=9.0, eval_samples=20_000, sample_probe=200,
    )
    rec_a, dens_a = run(cfg)
    rec_b, dens_b = run(cfg)
    csv_a, csv_b = records_to_csv(rec_a), records_to_csv(rec_b)
    files = []
    for tag, recs, dens in (("a", rec_a, dens_a), ("b", rec_b, dens_b)):
        out = replace(cfg, out_prefix=str(tmp_path / tag / "run"))
        # records JSON carries wall-clock timings, so only the CSV and the
        # density artifacts are required to be byte-stable
        files.append(sorted(p for p in write_outputs(out, recs, dens)
                            if "_records" not in p.name))
    pairs = list(zip(*files))
    file_ok = all(pa.read_bytes() == pb.read_bytes() for pa, pb in pairs)
    ok = csv_a == csv_b and file_ok
    report(11, "identical seeds yield byte-identical outputs", ok,
           f"CSV bytes equal: {csv_a == csv_b}; {len(pairs)} files equal: {file_ok}")
