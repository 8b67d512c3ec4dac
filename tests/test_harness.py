import json
import math

import numpy as np
import pytest

from ofevi import (
    HERMITE,
    BasisFamily,
    ConfigError,
    ExperimentConfig,
    Gaussian,
    OfeDensity,
    ProductBasis,
    RunRecord,
    StandardizingTransform,
    TableBuildError,
    pull_density,
    records_from_json,
    records_to_csv,
    records_to_json,
    run,
    write_outputs,
)
from ofevi import density, harness
from ofevi.estimator import MAX_ARRAY_BYTES, largest_array_bytes
from ofevi.harness import CSV_HEADER, _fisher_from_scores, kl_from_samples


def standard_fit_density(k=1):
    coeffs = np.zeros(k)
    coeffs[0] = 1.0
    return OfeDensity(ProductBasis([BasisFamily(HERMITE)], (k,)), coeffs)


# -- divergences -----------------------------------------------------------------

def test_forward_kl_of_a_perfect_fit_is_zero():
    target = Gaussian(np.zeros(1), np.eye(1))
    z = target.sample(np.random.default_rng(0), 10_000)
    kl, se, _ = kl_from_samples(z, np.asarray(target.log_density(z)), standard_fit_density())
    assert abs(kl) < 1e-12 and se < 1e-12


def test_forward_kl_matches_the_gaussian_formula():
    # KL(N(0,1) || N(0,2)) = (1/2 + ln 2 - 1) / 2
    target = Gaussian(np.zeros(1), np.eye(1))
    wide = pull_density(
        standard_fit_density(), StandardizingTransform(np.zeros(1), np.array([[math.sqrt(2.0)]]))
    )
    z = target.sample(np.random.default_rng(1), 200_000)
    kl, se, _ = kl_from_samples(z, np.asarray(target.log_density(z)), wide)
    expected = 0.5 * (0.5 + math.log(2.0) - 1.0)
    assert abs(kl - expected) < 3.0 * se
    assert kl == pytest.approx(expected, abs=0.005)


def test_kl_excludes_poles_with_a_warning():
    q = OfeDensity(ProductBasis([BasisFamily(HERMITE)], (2,)), np.array([0.0, 1.0]))
    z = np.array([[0.5], [0.0], [-0.3]])  # q vanishes exactly at the origin
    target = Gaussian(np.zeros(1), np.eye(1))
    with pytest.warns(UserWarning, match="excluded"):
        kl, se, excluded = kl_from_samples(z, np.asarray(target.log_density(z)), q)
    assert excluded == 1
    assert np.isfinite(kl) and np.isfinite(se)


def test_kl_with_every_point_excluded_is_nan():
    q = OfeDensity(ProductBasis([BasisFamily(HERMITE)], (2,)), np.array([0.0, 1.0]))
    z = np.zeros((3, 1))
    target = Gaussian(np.zeros(1), np.eye(1))
    with pytest.warns(UserWarning):
        kl, se, excluded = kl_from_samples(z, np.asarray(target.log_density(z)), q)
    assert excluded == 3
    assert math.isnan(kl) and math.isnan(se)


def fisher(target, q, z):
    return _fisher_from_scores(np.asarray(target.score(z)), q, z)


def test_fisher_divergence_example():
    # q = N(0,1), p = N(0,2): E_p[(z/2 - z)^2] = E_p[z^2]/4 = 1/2.
    target = Gaussian(np.zeros(1), 2.0 * np.eye(1))
    z = target.sample(np.random.default_rng(3), 200_000)
    val, se, excluded = fisher(target, standard_fit_density(), z)
    assert val == pytest.approx(0.5, abs=0.01)
    assert 0.0 < se < 0.01
    assert excluded == 0


def test_fisher_standard_error_by_hand():
    # q = N(0,1), p = N(0,2): the squared gaps at z = 1, 2, 3 are z^2/4 =
    # 1/4, 1, 9/4, with mean 7/6, sample variance 49/48 and so SE
    # sqrt(49/48 / 3) = 7/12.
    target = Gaussian(np.zeros(1), 2.0 * np.eye(1))
    z = np.array([[1.0], [2.0], [3.0]])
    val, se, _ = fisher(target, standard_fit_density(), z)
    assert val == pytest.approx(7.0 / 6.0, rel=1e-12)
    assert se == pytest.approx(7.0 / 12.0, rel=1e-12)


def test_fisher_divergence_of_a_perfect_fit_is_zero():
    target = Gaussian(np.zeros(1), np.eye(1))
    z = target.sample(np.random.default_rng(4), 1000)
    val, se, _ = fisher(target, standard_fit_density(), z)
    assert val < 1e-28 and se < 1e-28


def test_fisher_divergence_validates_input():
    target = Gaussian(np.zeros(1), np.eye(1))
    with pytest.raises(ValueError):
        fisher(target, standard_fit_density(), np.zeros((0, 1)))


def test_divergences_fill_the_record_fields_from_one_reference_set():
    target = Gaussian(np.zeros(1), 2.0 * np.eye(1))
    q = standard_fit_density()
    reference = harness._reference_set(target, 3, 5_000)
    z, log_p, p_scores = reference
    assert np.array_equal(z, target.sample(np.random.default_rng((3, 3)), 5_000))
    fields, notes = harness._divergences(q, reference)
    assert notes == []
    assert (fields["kl"], fields["kl_se"], fields["kl_excluded"]) == kl_from_samples(z, log_p, q)
    assert (fields["fisher_div"], fields["fisher_se"], fields["fisher_excluded"]) == fisher(
        target, q, z
    )


# -- configs ----------------------------------------------------------------------

def test_config_round_trip_through_json():
    cfg = ExperimentConfig(
        target="mixture2d", orders=((3, 3), (6, 6)), seed=7, samples=(500, None),
        proposal="uniform", proposal_scale=9.0, sample_probe=100,
    )
    back = ExperimentConfig.from_json(json.dumps(cfg.to_dict()))
    assert back == cfg
    assert back.hash() == cfg.hash()


def test_config_hash_ignores_output_prefix_only():
    a = ExperimentConfig(target="bimodal1d", orders=((3,),), seed=0)
    b = ExperimentConfig(target="bimodal1d", orders=((3,),), seed=0, out_prefix="x")
    c = ExperimentConfig(target="bimodal1d", orders=((3,),), seed=1)
    assert a.hash() == b.hash()
    assert a.hash() != c.hash()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(target="bimodal1d", orders=(), seed=0),
        dict(target="bimodal1d", orders=((0,),), seed=0),
        dict(target="bimodal1d", orders=((3,), (3, 3)), seed=0),
        dict(target="bimodal1d", orders=((3,),), seed=0, samples=()),
        dict(target="bimodal1d", orders=((3,),), seed=0, samples=(0,)),
        dict(target="nope", orders=((3,),), seed=0),
        dict(target="bimodal1d", orders=((3,),), seed=0, proposal="cauchy"),
        dict(target="bimodal1d", orders=((3,),), seed=0, proposal_scale=-1.0),
        dict(target="bimodal1d", orders=((3,),), seed=0, proposal_scale=math.nan),
        dict(target="bimodal1d", orders=((3,),), seed=0, proposal_scale=math.inf),
        dict(target="bimodal1d", orders=((3,),), seed=0, eval_samples=0),
        dict(target="bimodal1d", orders=((3,),), seed=0, family="hermit"),
        dict(target="bimodal1d", orders=((3,),), seed=0, standardize_samples=0),
        dict(target="bimodal1d", orders=((3,),), seed=0, sample_probe=-1),
        dict(target="bimodal1d", orders=((3,),), seed=-1),
        dict(target="bimodal1d", orders=(("a",),), seed=0),
        dict(target="bimodal1d", orders=((1e400,),), seed=0),
        dict(target="bimodal1d", orders=((3,),), seed=0, samples=("x",)),
        # Two cells with the same orders and B, a null sample count being 10 K.
        dict(target="mixture2d", orders=((2, 8), (2, 8)), seed=0),
        dict(target="bimodal1d", orders=((3,),), seed=0, samples=(None, 30)),
        dict(target="bimodal1d", orders=((3,),), seed=0, target_params=[1]),
        # A Gaussian proposal draws outside every support but Hermite's.
        dict(target="bimodal1d", orders=((3,),), seed=0, family="laguerre", proposal="gaussian"),
        dict(target="bimodal1d", orders=((3,),), seed=0, proposal_scale=True),
        dict(target="bimodal1d", orders=((3,),), seed=0, standardize="false"),
        dict(target="bimodal1d", orders=((3,),), seed=0, out_prefix=5),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kwargs)


@pytest.mark.parametrize(
    "field, value",
    [
        ("orders", ((2.5, 3.9),)),
        ("orders", ((True, 3),)),
        ("samples", (99.7,)),
        ("samples", (False,)),
        ("seed", True),
        ("seed", 7.5),
        ("seed", None),
        ("standardize_samples", 500.5),
        ("eval_samples", 2000.1),
        ("eval_samples", True),
        ("sample_probe", 0.5),
        ("sample_probe", math.nan),
    ],
)
def test_integer_fields_refuse_fractions_and_bools(field, value):
    base = dict(target="bimodal1d", orders=((3,),), seed=0)
    with pytest.raises(ConfigError, match=f"{field}: .* is not an integer"):
        ExperimentConfig(**dict(base, **{field: value}))


def test_integer_fields_take_whole_numbers_as_ints():
    config = ExperimentConfig(
        target="bimodal1d", orders=(("6",), (7.0,)), samples=(np.int64(80), 90.0), seed=7.0,
        standardize_samples=500.0, eval_samples=2000.0, sample_probe=np.float64(3.0),
    )
    values = (config.orders, config.samples, config.seed, config.standardize_samples,
              config.eval_samples, config.sample_probe)
    assert values == (((6,), (7,)), (80, 90), 7, 500, 2000, 3)
    assert all(type(v) is int for v in (*config.orders[0], *config.samples, *values[2:]))
    assert config.hash() == ExperimentConfig(
        target="bimodal1d", orders=((6,), (7,)), samples=(80, 90), seed=7,
        standardize_samples=500, eval_samples=2000, sample_probe=3,
    ).hash()


def test_config_schema_and_seed_are_enforced():
    good = ExperimentConfig(target="bimodal1d", orders=((3,),), seed=0).to_dict()
    bad_version = dict(good, schema_version=99)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(bad_version)
    no_seed = dict(good)
    del no_seed["seed"]
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(no_seed)
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json("not json {")
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json("[1, 2]")
    # The chunk size of a fit is not a setting; a config naming one is refused.
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict(dict(good, chunk_size=1024))


def test_config_refuses_bases_past_the_memory_bound():
    # 64^3 functions need a 550 GB M.  (2,)*13 + (1,)*4 has a 537 MB M, but
    # one chunk of its 17-D features takes 1.14 GB.
    for orders in ((64, 64, 64), (2,) * 13 + (1,) * 4):
        assert largest_array_bytes(math.prod(orders), len(orders)) > MAX_ARRAY_BYTES
        with pytest.raises(ConfigError, match="bytes for M or one chunk"):
            ExperimentConfig(target="mixture2d", orders=(orders,), seed=0)
    ExperimentConfig(target="mixture2d", orders=((64, 64),), seed=0)


# -- runs --------------------------------------------------------------------------

def small_config(**overrides):
    base = dict(
        target="mixture2d", orders=((2, 2), (3, 3)), seed=0, samples=(400,),
        proposal_scale=9.0, eval_samples=2_000, sample_probe=200,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_produces_complete_records():
    records, densities = run(small_config())
    assert len(records) == 2 and len(densities) == 2
    for rec, q in zip(records, densities):
        assert rec.error is None
        assert q is not None
        assert rec.lambda_min is not None and rec.lambda_min >= -1e-10
        assert rec.kl is not None and math.isfinite(rec.kl)
        assert rec.kl_se > 0.0
        assert math.isfinite(rec.fisher_div) and rec.fisher_se > 0.0
        assert rec.tail_clips is not None
        assert rec.B == 400
        for field in ("score_ms", "assemble_ms", "eigensolve_ms"):
            assert getattr(rec, field) >= 0.0
    assert records[0].K == 4 and records[1].K == 9


def test_run_is_deterministic_apart_from_timings():
    cfg = small_config()
    rec_a, dens_a = run(cfg)
    rec_b, dens_b = run(cfg)
    for a, b in zip(rec_a, rec_b):
        assert a.lambda_min == b.lambda_min
        assert a.kl == b.kl and a.kl_se == b.kl_se
        assert a.fisher_div == b.fisher_div and a.fisher_se == b.fisher_se
        assert a.tail_clips == b.tail_clips
    for qa, qb in zip(dens_a, dens_b):
        assert np.array_equal(qa.coeffs, qb.coeffs)


def test_run_shares_one_batch_across_basis_sizes():
    records, densities = run(small_config())
    # the K = 4 block of the K = 9 fit reuses the same draws, so nested
    # metrics cannot be worse than sampling noise allows; check KL improves
    assert records[1].kl <= records[0].kl + 3.0 * (records[0].kl_se + records[1].kl_se)


def test_run_records_cell_failures_and_continues():
    records, densities = run(small_config(orders=((2, 2), (65, 65))))
    assert records[0].error is None and densities[0] is not None
    assert "OrderLimitError" in records[1].error
    assert densities[1] is None
    assert records[1].kl is None


def test_a_failed_sampling_probe_keeps_the_fit_metrics(monkeypatch):
    config = ExperimentConfig(
        target="bimodal1d", orders=((20,), (26,)), seed=0, proposal_scale=9.0,
        eval_samples=2_000, sample_probe=100,
    )
    records, _ = run(config)
    assert [r.tail_clips for r in records] == [0, 0]

    # A table that fails to build for the second cell fails only its probe.
    build = density.build_cdf_table

    def failing_build(family, order):
        if order == 26:
            raise TableBuildError("grid [-12.0, 12.0] misses mass; widen the grid")
        return build(family, order)

    monkeypatch.setattr(density, "build_cdf_table", failing_build)
    records, densities = run(config)
    assert records[0].error is None and records[0].tail_clips is not None
    rec = records[1]
    assert rec.error is None and densities[1] is not None
    for key in ("lambda_min", "kl", "kl_se", "fisher_div"):
        assert math.isfinite(getattr(rec, key))
    assert rec.tail_clips is None
    assert rec.note.startswith("sample probe failed: TableBuildError: grid [-12.0, 12.0]")


@pytest.mark.parametrize("target, orders", [("mixture2d", ((3, 3),)), ("bimodal1d", ((3,),))])
def test_a_failed_evaluation_keeps_the_fit_and_its_density(tmp_path, target, orders):
    # Target samples outside the Legendre support fail KL and Fisher only.
    config = ExperimentConfig(
        target=target, orders=orders, seed=1, family="legendre", proposal_scale=1.0,
        eval_samples=2_000, sample_probe=100, out_prefix=str(tmp_path / "run"),
    )
    records, densities = run(config)
    [rec] = records
    assert rec.error is None and densities[0] is not None
    for key in ("lambda_min", "residual", "score_ms", "assemble_ms", "eigensolve_ms"):
        assert math.isfinite(getattr(rec, key))
    assert rec.rejected == 0 and rec.tail_clips == 0
    for key in ("kl", "kl_se", "kl_excluded", "fisher_div", "fisher_se", "fisher_excluded"):
        assert getattr(rec, key) is None
    assert rec.note.startswith("kl failed: SupportError: point outside legendre support")
    assert "; fisher failed: SupportError" in rec.note
    name = f"run_density_{'x'.join(map(str, rec.orders))}_B{rec.B}.json"
    assert tmp_path / name in write_outputs(config, records, densities)


@pytest.mark.parametrize("family", ["legendre", "fourier", "laguerre"])
def test_bounded_families_fit_on_a_box_inside_their_support(tmp_path, family):
    # The box's sides are the support's finite edges, and -/+ proposal_scale
    # where an edge is infinite: [-1, 1], [0, 2 pi] and [0, 6] here.
    config = ExperimentConfig(
        target="bimodal1d", orders=((6,),), seed=1, family=family, eval_samples=2_000,
        out_prefix=str(tmp_path / "run"),
    )
    records, densities = run(config)
    [rec] = records
    assert rec.error is None and math.isfinite(rec.lambda_min)
    assert tmp_path / "run_density_6_B60.json" in write_outputs(config, records, densities)


def test_run_rejects_dimension_mismatch():
    with pytest.raises(ConfigError):
        run(small_config(target="bimodal1d"))


def test_standardized_run_attaches_the_transform():
    cfg = small_config(standardize=True, standardize_samples=2_000)
    records, densities = run(cfg)
    assert all(r.error is None for r in records)
    assert all(q.transform is not None for q in densities)
    assert all(r.standardize for r in records)


def test_each_cell_computes_each_divergence_once(monkeypatch):
    # The traced benchmark reads KL and Fisher time from these two globals.
    calls = {"kl_from_samples": 0, "_fisher_from_scores": 0}
    for name in calls:
        original = getattr(harness, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(harness, name, counting)
    records, _ = run(small_config(sample_probe=0))
    assert len(records) == 2 and all(r.kl is not None for r in records)
    assert calls == {"kl_from_samples": 2, "_fisher_from_scores": 2}


def test_mandatory_fields_are_always_present():
    records, _ = run(small_config(sample_probe=0))
    for rec in records:
        payload = rec.to_dict()
        assert payload["tail_clips"] is None
        assert "no sampling probe" in payload["note"]
        for key in ("lambda_min", "kl", "kl_se", "fisher_div"):
            assert payload[key] is not None and math.isfinite(payload[key])


# -- outputs -----------------------------------------------------------------------

def test_records_round_trip_through_json():
    records, _ = run(small_config())
    back = records_from_json(records_to_json(records))
    assert back == list(records)


def test_csv_is_long_format_and_byte_stable():
    records, _ = run(small_config())
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    # two cells, six metrics each
    assert len(lines) == 1 + 2 * 6
    assert records_to_csv(records) == text
    row = lines[1].split(",")
    assert row[CSV_HEADER.index("metric")] == "lambda_min"
    value = float(row[CSV_HEADER.index("value")])
    assert value == records[0].lambda_min  # repr round-trips exactly


def test_csv_skips_failed_metrics_but_keeps_rows():
    records, _ = run(small_config(orders=((2, 2), (65, 65))))
    text = records_to_csv(records)
    lines = text.strip().split("\n")
    failed_rows = [ln for ln in lines[1:] if ",4225," in ln]
    assert failed_rows
    assert all(ln.endswith(",") or ln.split(",")[-1] == "" for ln in failed_rows)


def test_write_outputs_creates_all_files(tmp_path):
    cfg = small_config(out_prefix=str(tmp_path / "demo"))
    records, densities = run(cfg)
    paths = write_outputs(cfg, records, densities)
    names = {p.name for p in paths}
    assert names == {
        "demo_metrics.csv", "demo_records.json",
        "demo_density_2x2_B400.json", "demo_density_3x3_B400.json",
    }
    for p in paths:
        assert p.exists() and p.stat().st_size > 0
    payload = json.loads((tmp_path / "demo_records.json").read_text())
    assert len(payload) == 2
    assert payload[0]["target"] == "mixture2d"


def test_cells_of_equal_size_write_separate_density_files(tmp_path):
    cfg = small_config(
        orders=((2, 8), (8, 2)), samples=(None,), eval_samples=500, sample_probe=0,
        out_prefix=str(tmp_path / "demo"),
    )
    records, densities = run(cfg)
    paths = [p for p in write_outputs(cfg, records, densities) if "_density_" in p.name]
    assert [p.name for p in paths] == ["demo_density_2x8_B160.json", "demo_density_8x2_B160.json"]
    for path, q in zip(paths, densities):
        assert OfeDensity.load(path).basis.orders == q.basis.orders


def test_write_outputs_requires_a_prefix():
    cfg = small_config()
    with pytest.raises(ConfigError):
        write_outputs(cfg, [], [])


def test_record_round_trip_preserves_every_field():
    rec = RunRecord(
        config="abc", target="bimodal1d", family="hermite", orders=(3,), K=3, B=30,
        seed=1, standardize=False, lambda_min=1e-4, residual=1e-12,
        kl=0.5, kl_se=0.01, kl_excluded=0, fisher_div=0.2, fisher_se=0.02, fisher_excluded=0,
        rejected=0, tail_clips=2, score_ms=1.5, assemble_ms=0.3, eigensolve_ms=0.1,
        error=None, note="",
    )
    assert RunRecord.from_dict(rec.to_dict()) == rec
