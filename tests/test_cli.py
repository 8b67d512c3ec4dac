import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from ofevi import HERMITE, BasisFamily, OfeDensity, ProductBasis, _blas
from ofevi.cli import build_parser, main
from ofevi.estimator import largest_array_bytes
from ofevi.harness import FIT_FIELDS, ExperimentConfig, fit_cells

from oracles import traced_peak


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """text parsed as JSON, refusing the NaN and Infinity tokens json.loads accepts by default."""

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


def fit_gaussian(tmp_path, capsys, orders="1", extra=()):
    out = tmp_path / "density.json"
    code, stdout, _ = run_cli(
        capsys, "fit", "--target", "gaussian",
        "--target-params", '{"mean": [0.0], "cov": [[1.0]]}',
        "--orders", orders, "--samples", "500", "--seed", "1",
        "--out", str(out), *extra,
    )
    assert code == 0
    return out, strict_json(stdout)


def test_fit_writes_a_density_and_a_summary(tmp_path, capsys):
    out, summary = fit_gaussian(tmp_path, capsys)
    assert out.exists()
    assert summary["lambda_min"] == 0.0
    assert summary["lambda_2"] is None
    assert summary["K"] == 1 and summary["B"] == 500
    assert summary["blas_threads"] == (2 if _blas._libraries() else None)
    q = OfeDensity.load(out)
    assert np.array_equal(q.coeffs, [1.0])


def test_fit_summary_reports_the_cost_of_the_fit(tmp_path, capsys):
    _, summary = fit_gaussian(tmp_path, capsys, orders="3")
    assert summary["lambda_2"] > summary["lambda_min"]
    assert all(summary[key] >= 0.0 for key in ("score_ms", "assemble_ms", "eigensolve_ms"))
    assert summary["largest_array_bytes"] == largest_array_bytes(3, 1)


def test_fit_standardize_flag(tmp_path, capsys):
    out = tmp_path / "density.json"
    code, stdout, _ = run_cli(
        capsys, "fit", "--target", "gaussian",
        "--target-params", '{"mean": [3.0], "cov": [[0.125]]}',
        "--orders", "1", "--samples", "2000", "--standardize",
        "--standardize-samples", "20000", "--seed", "2", "--out", str(out),
    )
    assert code == 0
    assert json.loads(stdout)["standardize"] is True
    mean, cov = OfeDensity.load(out).mean_and_cov()
    assert mean[0] == pytest.approx(3.0, abs=0.05)
    assert cov[0, 0] == pytest.approx(0.125, abs=0.02)


@pytest.mark.parametrize("standardize", [False, True])
def test_fit_prints_the_record_that_fit_cells_yields(tmp_path, capsys, standardize):
    # The summary's keys are the records JSON's, and so are its values but the wall times.
    extra = ("--standardize", "--standardize-samples", "2000") if standardize else ()
    _, summary = fit_gaussian(tmp_path, capsys, orders="3", extra=extra)
    assert list(summary) == ["K", "B", "standardize", *FIT_FIELDS, "density_path"]
    assert summary["density_path"] == str(tmp_path / "density.json")
    config = ExperimentConfig(
        target="gaussian", target_params={"mean": [0.0], "cov": [[1.0]]}, orders=((3,),),
        samples=(500,), seed=1, standardize=standardize, standardize_samples=2000,
    )
    [(_, _, record, _)] = fit_cells(config, config.build_target())
    wall_times = ("score_ms", "assemble_ms", "eigensolve_ms")
    kept = [key for key in summary if key not in wall_times + ("density_path",)]
    assert {key: summary[key] for key in kept} == {key: getattr(record, key) for key in kept}
    assert summary["standardize"] is standardize


def test_sample_emits_csv_with_header(tmp_path, capsys):
    density, _ = fit_gaussian(tmp_path, capsys, orders="3")
    csv_path = tmp_path / "draws.csv"
    code, _, stderr = run_cli(
        capsys, "sample", "--density", str(density), "--n", "200",
        "--seed", "3", "--out", str(csv_path),
    )
    assert code == 0
    assert "boundary clamps" in stderr
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "z1"
    assert len(lines) == 201
    values = np.array([float(v) for v in lines[1:]])
    assert np.all(np.isfinite(values))


def test_sample_same_seed_same_bytes(tmp_path, capsys):
    density, _ = fit_gaussian(tmp_path, capsys, orders="3")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "sample", "--density", str(density), "--n", "100",
            "--seed", "9", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_streams_the_csv_bytes_of_one_joined_text(tmp_path, capsys):
    basis = ProductBasis([BasisFamily(HERMITE)] * 2, (4, 3))
    density = tmp_path / "density.json"
    OfeDensity(basis, np.random.default_rng(5).normal(size=basis.size)).save(density)
    peaks = {}
    for n in (20_000, 200_000):
        csv_path = tmp_path / f"draws_{n}.csv"
        argv = ["sample", "--density", str(density), "--n", str(n), "--seed", "4",
                "--out", str(csv_path)]
        peaks[n] = traced_peak(main, argv)
        capsys.readouterr()
        # The text as one join of every line, which the CLI used to build.
        samples = OfeDensity.load(density).sample(np.random.default_rng(4), n)
        lines = ["z1,z2"] + [",".join(repr(float(v)) for v in row) for row in samples]
        assert csv_path.read_text() == "\n".join(lines) + "\n"
    # Beyond the (n, 2) draws, 16 bytes each, the peak does not grow with n:
    # the joined text of 180k more lines would add more than 7 MB.
    assert peaks[200_000] - peaks[20_000] <= 16 * 180_000 + 2**20


def test_moments_reports_mean_and_cov(tmp_path, capsys):
    density, _ = fit_gaussian(tmp_path, capsys)
    code, stdout, _ = run_cli(capsys, "moments", "--density", str(density))
    assert code == 0
    payload = strict_json(stdout)
    assert payload["mean"][0] == pytest.approx(0.0, abs=1e-12)
    assert payload["cov"][0][0] == pytest.approx(1.0, rel=1e-12)


def test_evaluate_reports_divergences(tmp_path, capsys):
    density, _ = fit_gaussian(tmp_path, capsys)
    code, stdout, _ = run_cli(
        capsys, "evaluate", "--density", str(density), "--target", "gaussian",
        "--target-params", '{"mean": [0.0], "cov": [[1.0]]}',
        "--n", "5000", "--seed", "4",
    )
    assert code == 0
    payload = json.loads(stdout)
    assert abs(payload["kl"]) < 1e-10
    assert payload["fisher_div"] < 1e-24 and payload["fisher_se"] < 1e-24
    assert payload["n"] == 5000


def test_evaluate_prints_the_divergence_timings_to_stderr(tmp_path, capsys):
    # The wall times vary run to run, so they stay off the JSON on stdout.
    density, _ = fit_gaussian(tmp_path, capsys)
    code, out, err = run_cli(capsys, "evaluate", "--density", str(density), "--target",
                             "gaussian", "--target-params", '{"mean": [0.0], "cov": [[1.0]]}',
                             "--n", "2000")
    assert code == 0 and "_ms" not in out
    match = re.fullmatch(r"wall time: kl_ms (\S+), fisher_ms (\S+)\n", err)
    assert match and all(float(ms) >= 0.0 for ms in match.groups())


def test_evaluate_on_one_draw_prints_strict_json_with_null_standard_errors(tmp_path, capsys):
    # One draw has no sample standard error: NaN, which JSON cannot hold.
    density, _ = fit_gaussian(tmp_path, capsys)
    code, stdout, _ = run_cli(
        capsys, "evaluate", "--density", str(density), "--target", "gaussian",
        "--target-params", '{"mean": [0.0], "cov": [[1.0]]}', "--n", "1",
    )
    assert code == 0
    payload = strict_json(stdout)
    assert payload["kl_se"] is None and payload["fisher_se"] is None
    assert math.isfinite(payload["kl"]) and payload["n"] == 1


DRAW_COMMANDS = [
    ("sample",),
    ("evaluate", "--target", "gaussian", "--target-params", '{"mean": [0.0], "cov": [[1.0]]}'),
]


@pytest.mark.parametrize("command", DRAW_COMMANDS)
def test_a_draw_count_below_one_exits_one(tmp_path, capsys, command):
    density, _ = fit_gaussian(tmp_path, capsys)
    code, _, stderr = run_cli(capsys, *command, "--density", str(density), "--n", "0")
    assert code == 1 and "config error" in stderr


@pytest.mark.parametrize("command", DRAW_COMMANDS)
def test_a_negative_seed_exits_one(tmp_path, capsys, command):
    density, _ = fit_gaussian(tmp_path, capsys)
    code, _, stderr = run_cli(capsys, *command, "--density", str(density), "--seed", "-1")
    assert code == 1 and "--seed must be at least 0" in stderr


GOOD_DENSITY = OfeDensity(ProductBasis([BasisFamily(HERMITE)] * 2, (2, 2)), np.full(4, 0.5)).to_dict()


@pytest.mark.parametrize(
    "payload",
    [
        dict(GOOD_DENSITY, families=["hermit", "hermite"]),
        dict(GOOD_DENSITY, coeffs=[0.5] * 3),
        dict(GOOD_DENSITY, transform={"mean": [0.0, 0.0], "chol": [[1.0, 0.5], [0.0, 1.0]]}),
        [GOOD_DENSITY],
        # An older file's own "max_orders" cannot lift the cap of 64.
        dict(GOOD_DENSITY, max_orders=[128, 64], orders=[65, 2], coeffs=[0.1] * 130),
        # Such a transform would load and sample NaN.
        dict(GOOD_DENSITY, transform={"mean": [math.nan, 0.0], "chol": [[1.0, 0.0], [0.0, 1.0]]}),
        dict(GOOD_DENSITY, transform={"mean": [0.0, 0.0], "chol": [[math.inf, 0.0], [0.0, 1.0]]}),
        # Truncated to whole orders, these would match the four coefficients.
        dict(GOOD_DENSITY, orders=[2.5, 2]),
        dict(GOOD_DENSITY, orders=[True, 4]),
    ],
    ids=["unknown-family", "coefficient-short", "upper-triangular-chol", "top-level-list",
         "order-past-the-cap", "nan-transform-mean", "infinite-transform-chol",
         "fractional-order", "boolean-order"],
)
def test_a_malformed_density_file_exits_one(tmp_path, capsys, payload):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, _, stderr = run_cli(capsys, "moments", "--density", str(path))
    assert code == 1 and "cannot load density" in stderr


@pytest.mark.parametrize("command", [("sample",), ("moments",), ("evaluate", "--target", "mixture2d")])
def test_a_density_file_with_string_orders_exits_one(tmp_path, capsys, command):
    # Read one character at a time, "22" would be the 2x2 basis of the coefficients.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(GOOD_DENSITY, orders="22")))
    code, _, stderr = run_cli(capsys, command[0], "--density", str(path), *command[1:])
    assert code == 1 and "orders must be a list, not str '22'" in stderr


ONE_D_DENSITY = OfeDensity(ProductBasis([BasisFamily(HERMITE)], (2,)), np.array([0.6, 0.8])).to_dict()


@pytest.mark.parametrize(
    "fields, field",
    [
        ({}, None),
        # Each of these loaded: an object read as its keys, a string read as a number.
        ({"orders": {"2": 0}}, "orders"),
        ({"families": {HERMITE: 0}}, "families"),
        ({"coeffs": ["1", "0"]}, "coeffs"),
        ({"transform": {"mean": "12", "chol": [[1.0]]}}, "mean"),
        ({"transform": {"mean": [12.0], "chol": [["1"]]}}, "chol"),
    ],
    ids=["numbers", "object-orders", "object-families", "string-coeffs", "string-transform-mean",
         "string-transform-chol"],
)
def test_a_density_file_is_read_as_lists_of_numbers_only(tmp_path, capsys, fields, field):
    path = tmp_path / "density.json"
    path.write_text(json.dumps(dict(ONE_D_DENSITY, **fields)))
    code, _, stderr = run_cli(capsys, "moments", "--density", str(path))
    if field is None:
        assert code == 0
    else:
        assert code == 1 and "cannot load density" in stderr and f"{field} must be" in stderr


@pytest.mark.parametrize(
    "fields",
    [
        # Read as their keys, these were the cell K=3 B=40, fitted with exit 0.
        {"orders": [{"3": 0}], "samples": {"40": 1}},
        {"orders": [[3]], "samples": {"40": 1}},
        # Every cell was fitted, then the reference draw died with exit 2.
        {"target": "mixture", "target_params": {"weights": [[0.5, 0.5]], "means": [[0.0], [1.0]],
                                                "covs": [[[1.0]], [[1.0]]]}},
        {"target": "funnel", "orders": [[3, 3]], "target_params": {"sigma2": True}},
        {"target": "gaussian", "target_params": {"mean": "3", "cov": [[1.0]]}},
    ],
    ids=["object-orders", "object-samples", "matrix-weights", "boolean-sigma2", "string-mean"],
)
def test_a_sweep_config_of_the_wrong_kinds_exits_one_before_any_draw(tmp_path, capsys, monkeypatch,
                                                                    fields):
    from ofevi import proposals

    def no_draws(self, rng, n):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(proposals.UniformBox, "sample", no_draws)
    config = dict({"target": "bimodal1d", "orders": [[3]], "seed": 0,
                   "out_prefix": str(tmp_path / "out")}, **fields)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    code, _, stderr = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 1 and "config error" in stderr
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_a_density_file_with_the_old_max_orders_key_samples_the_same_bytes(tmp_path, capsys):
    density, _ = fit_gaussian(tmp_path, capsys, orders="4")
    payload = json.loads(density.read_text())
    assert "max_orders" not in payload
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"families": payload["families"], "max_orders": [64], **payload}))
    outputs = []
    for path in (density, old):
        for command in (("sample", "--n", "300", "--seed", "3"), ("moments",)):
            code, stdout, _ = run_cli(capsys, command[0], "--density", str(path), *command[1:])
            assert code == 0
            outputs.append(stdout)
    assert outputs[:2] == outputs[2:]


# Parameters the target's own constructor refuses (a ValueError or LinAlgError).
BAD_TARGET_PARAMS = [
    ("--target", "funnel", "--target-params", '{"sigma2": -1}', "--orders", "2,2"),
    ("--target", "gaussian", "--target-params", '{"mean": [0.0], "cov": [[-1.0]]}'),
    ("--target", "gaussian", "--target-params", '{"mean": [0.0], "cov": [[NaN]]}'),
    ("--target", "gaussian", "--target-params", '{"mean": [0.0, 0.0], "cov": [[1.0, 0.9], [0.0, 1.0]]}',
     "--orders", "2,2"),
    ("--target", "mixture", "--target-params",
     '{"weights": [NaN, 1.0], "means": [[0.0], [1.0]], "covs": [[[1.0]], [[1.0]]]}'),
    ("--target", "gaussian", "--target-params", '{"mean": [NaN], "cov": [[1.0]]}'),
    ("--target", "mixture", "--target-params",
     '{"weights": [0.5, 0.5], "means": [[0.0], [Infinity]], "covs": [[[1.0]], [[1.0]]]}'),
    ("--target", "funnel", "--target-params", '{"sigma2": Infinity}', "--orders", "2,2"),
    ("--target", "sinh_arcsinh", "--target-params", '{"s": [NaN], "tau": [1.0], "cov": [[1.0]]}'),
    ("--target", "sinh_arcsinh", "--target-params", '{"s": [0.0], "tau": [NaN], "cov": [[1.0]]}'),
    ("--target", "sinh_arcsinh", "--target-params",
     '{"s": [0.0], "tau": [Infinity], "cov": [[1.0]]}'),
]


@pytest.mark.parametrize("flags", BAD_TARGET_PARAMS)
def test_evaluate_with_target_params_the_constructor_refuses_exits_one(tmp_path, capsys, flags):
    density, _ = fit_gaussian(tmp_path, capsys)
    target_flags = flags[:4]  # evaluate takes no --orders
    code, _, stderr = run_cli(capsys, "evaluate", "--density", str(density), *target_flags, "--n", "10")
    assert code == 1 and "bad parameters for target" in stderr


def test_evaluate_draws_one_reference_set_for_both_divergences(tmp_path, capsys, monkeypatch):
    from ofevi import harness, targets

    density = tmp_path / "mix.json"
    code, _, _ = run_cli(
        capsys, "fit", "--target", "mixture2d", "--orders", "4,4", "--scale", "9",
        "--seed", "0", "--out", str(density),
    )
    assert code == 0
    draws = []
    sample = targets.GaussianMixture.sample

    def recording_sample(self, rng, n):
        draws.append(sample(self, rng, n))
        return draws[-1]

    monkeypatch.setattr(targets.GaussianMixture, "sample", recording_sample)
    code, stdout, _ = run_cli(
        capsys, "evaluate", "--density", str(density), "--target", "mixture2d",
        "--n", "1000", "--seed", "5",
    )
    assert code == 0
    assert [len(z) for z in draws] == [1000]
    z = draws[0]
    target, q = targets.make_target("mixture2d"), OfeDensity.load(density)
    kl, se, _ = harness.kl_from_samples(z, np.asarray(target.log_density(z)), q)
    fisher, fisher_se, _ = harness._fisher_from_scores(np.asarray(target.score(z)), q, z)
    payload = json.loads(stdout)
    assert (payload["kl"], payload["kl_se"]) == (kl, se)
    assert (payload["fisher_div"], payload["fisher_se"]) == (fisher, fisher_se)


@pytest.mark.parametrize("standardize", [False, True])
def test_evaluate_prints_the_divergences_a_sweep_wrote(tmp_path, capsys, standardize):
    config = {
        "target": "mixture2d", "orders": [[3, 3], [5, 5]], "samples": [None, 300], "seed": 7,
        "proposal_scale": 9.0, "standardize": standardize, "eval_samples": 3000,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    prefix = tmp_path / "run"
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out-prefix", str(prefix))
    assert code == 0
    rows = (tmp_path / "run_metrics.csv").read_text().strip().split("\n")[1:]
    written = {}
    for row in rows:
        fields = row.split(",")
        written[fields[3], fields[5], fields[7]] = fields[8]
    for orders, b in (("3x3", "90"), ("5x5", "300")):
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--density", str(tmp_path / f"run_density_{orders}_B{b}.json"),
            "--target", "mixture2d", "--seed", "7", "--n", "3000",
        )
        assert code == 0
        payload = json.loads(stdout)
        for key in ("kl", "kl_se", "fisher_div", "fisher_se"):
            assert payload[key] == float(written[orders, b, key]), (orders, key)


def test_evaluate_outside_the_density_support_exits_two_with_the_notes(tmp_path, capsys):
    density = tmp_path / "legendre.json"
    code, _, _ = run_cli(
        capsys, "fit", "--target", "mixture2d", "--orders", "3,3", "--family", "legendre",
        "--seed", "0", "--out", str(density),
    )
    assert code == 0
    code, stdout, stderr = run_cli(
        capsys, "evaluate", "--density", str(density), "--target", "mixture2d", "--n", "500",
    )
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: kl failed: SupportError: point outside legendre support")
    assert "; fisher failed: SupportError: point outside legendre support" in stderr


def test_sweep_runs_a_config_and_writes_outputs(tmp_path, capsys):
    config = {
        "target": "mixture2d",
        "orders": [[2, 2], [3, 3]],
        "samples": [400],
        "seed": 0,
        "proposal_scale": 9.0,
        "eval_samples": 2000,
        "sample_probe": 100,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, _ = run_cli(
        capsys, "sweep", "--config", str(cfg_path),
        "--out-prefix", str(tmp_path / "out" / "demo"),
    )
    assert code == 0
    assert "K=4 B=400" in stdout and "K=9 B=400" in stdout
    assert (tmp_path / "out" / "demo_metrics.csv").exists()
    assert (tmp_path / "out" / "demo_records.json").exists()


def test_sweep_prints_a_missing_kl(tmp_path, capsys):
    # Mixture samples fall outside the Legendre support: KL and Fisher fail,
    # the fit and its density stand.
    config = {
        "target": "mixture2d", "orders": [[3, 3]], "family": "legendre",
        "proposal_scale": 1.0, "seed": 1, "eval_samples": 500,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    prefix = tmp_path / "out" / "run"
    code, stdout, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out-prefix", str(prefix))
    assert code == 0
    assert "kl=n/a (kl failed: SupportError" in stdout
    assert (prefix.parent / "run_density_3x3_B90.json").exists()


def test_sweep_seed_override_changes_the_hash(tmp_path, capsys):
    config = {
        "target": "bimodal1d", "orders": [[3]], "samples": [300],
        "seed": 0, "eval_samples": 1000,
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config))
    outs = []
    for seed in ("11", "12"):
        prefix = tmp_path / f"s{seed}" / "run"
        code, _, _ = run_cli(
            capsys, "sweep", "--config", str(cfg_path), "--seed", seed,
            "--out-prefix", str(prefix),
        )
        assert code == 0
        outs.append((prefix.parent / "run_metrics.csv").read_text())
    assert outs[0] != outs[1]


def test_sweep_returns_two_when_every_cell_fails(tmp_path, capsys, monkeypatch):
    from ofevi import harness

    def failing_fit(*args, **kwargs):
        raise np.linalg.LinAlgError("eigensolve did not converge")

    monkeypatch.setattr(harness, "fit_from_batch", failing_fit)
    config = {
        "target": "bimodal1d", "orders": [[3]], "samples": [100],
        "seed": 0, "eval_samples": 100,
    }
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    code, stdout, stderr = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 2
    assert "FAILED" in stdout
    assert "every sweep cell failed" in stderr


def test_config_errors_exit_one(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "fit", "--target", "gaussian", "--orders", "0",
        "--target-params", '{"mean": [0.0], "cov": [[1.0]]}',
    )
    assert code == 1 and "config error" in stderr

    code, _, stderr = run_cli(capsys, "fit", "--target", "nope", "--orders", "3")
    assert code == 1

    code, _, stderr = run_cli(capsys, "sweep", "--config", str(tmp_path / "missing.json"))
    assert code == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run_cli(capsys, "sweep", "--config", str(bad))
    assert code == 1


@pytest.mark.parametrize(
    "extra",
    [
        ("--samples", "0"),
        ("--family", "hermit"),
        ("--standardize", "--standardize-samples", "0"),
        ("--target-params", '{"bogus": 1}'),
        ("--target-params", "{not json"),
        ("--target-params", "[0.0, 1.0]"),
        ("--orders", "64,64,64"),
        ("--orders", "65"),
        ("--scale", "nan"),
        ("--scale", "inf"),
        *BAD_TARGET_PARAMS,
    ],
)
def test_fit_flag_errors_exit_one(capsys, extra):
    code, _, stderr = run_cli(
        capsys, "fit", "--target", "gaussian", "--orders", "3",
        "--target-params", '{"mean": [0.0], "cov": [[1.0]]}', *extra,
    )
    assert code == 1 and "config error" in stderr


@pytest.mark.parametrize(
    "flags",
    [
        # scale**2 underflows to a zero variance
        ("--target", "bimodal1d", "--orders", "4", "--proposal", "gaussian", "--scale", "1e-200"),
        # scale**2 overflows
        ("--target", "bimodal1d", "--orders", "4", "--proposal", "gaussian", "--scale", "1e200"),
        # the box volume overflows, so the box density is 0
        ("--target", "mixture2d", "--orders", "4,4", "--scale", "1e200"),
    ],
    ids=["gaussian-underflow", "gaussian-overflow", "box-overflow"],
)
def test_a_scale_whose_proposal_density_under_or_overflows_exits_one(capsys, flags):
    # It used to fail later, in the fit, with exit 2 (and a RuntimeWarning on the box).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, stderr = run_cli(capsys, "fit", *flags, "--seed", "0")
    assert code == 1 and "config error" in stderr and "proposal_scale" in stderr


def test_fit_with_a_nan_target_mean_exits_one_before_drawing_a_batch(capsys, monkeypatch):
    # It used to draw its batch, find every score NaN and exit 2.
    from ofevi import proposals

    def no_draws(self, rng, n):
        raise AssertionError("a batch was drawn")

    monkeypatch.setattr(proposals.UniformBox, "sample", no_draws)
    code, _, stderr = run_cli(
        capsys, "fit", "--target", "gaussian", "--target-params", '{"mean": [NaN], "cov": [[1.0]]}',
        "--orders", "3", "--seed", "0",
    )
    assert code == 1 and "config error" in stderr and "mean must be finite" in stderr


@pytest.mark.parametrize(
    "field",
    [
        {"orders": [["a"]]},
        {"samples": ["x"]},
        {"chunk_size": 1024},
        {"orders": [[64, 64, 64]]},
        {"orders": [[65]]},
        {"proposal_scale": math.nan},
        {"target_params": [1]},
        {"orders": [[3], [3]]},
        {"family": "fourier", "proposal": "gaussian"},
        {"orders": [[2.5]]},
        {"samples": [99.7]},
        {"seed": True},
        {"standardize_samples": 500.5},
        {"eval_samples": 2000.5},
        {"sample_probe": False},
        {"standardize": "false"},
        {"proposal_scale": True},
        {"proposal_scale": 10**400},
        {"out_prefix": 5},
    ],
)
def test_sweep_config_value_errors_exit_one(tmp_path, capsys, field):
    config = dict({"target": "bimodal1d", "orders": [[3]], "seed": 0}, **field)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    code, _, stderr = run_cli(capsys, "sweep", "--config", str(cfg_path))
    assert code == 1 and "config error" in stderr


@pytest.mark.parametrize(
    "flags, fields",
    [
        (("--target", "mixture2d", "--orders", "6,6", "--scale", "9"),
         {"target": "mixture2d", "orders": [[6, 6]], "proposal_scale": 9.0}),
        (("--target", "gaussian", "--target-params", '{"mean": [3.0], "cov": [[0.125]]}',
          "--orders", "3", "--standardize", "--samples", "700"),
         {"target": "gaussian", "target_params": {"mean": [3.0], "cov": [[0.125]]},
          "orders": [[3]], "standardize": True, "samples": [700]}),
    ],
)
def test_fit_writes_the_density_a_one_cell_sweep_writes(tmp_path, capsys, flags, fields):
    fitted = tmp_path / "fit.json"
    code, _, _ = run_cli(capsys, "fit", *flags, "--seed", "4", "--out", str(fitted))
    assert code == 0
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(dict(fields, seed=4, eval_samples=500)))
    prefix = tmp_path / "sweep" / "run"
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg_path), "--out-prefix", str(prefix))
    assert code == 0
    [swept] = prefix.parent.glob("run_density_*.json")
    assert fitted.read_bytes() == swept.read_bytes()


def test_fit_flags_default_to_the_config_defaults():
    args = build_parser().parse_args(["fit", "--target", "t", "--orders", "2"])
    default = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    assert (args.family, args.proposal, args.scale, args.standardize_samples) == (
        default["family"], default["proposal"], default["proposal_scale"], default["standardize_samples"]
    )


def test_dimension_mismatch_is_a_config_error(tmp_path, capsys):
    code, _, stderr = run_cli(
        capsys, "fit", "--target", "mixture2d", "--orders", "3",
    )
    assert code == 1 and "dimension" in stderr
    density, _ = fit_gaussian(tmp_path, capsys)
    code, _, stderr = run_cli(capsys, "evaluate", "--density", str(density), "--target", "mixture2d")
    assert code == 1 and "config error: density has dimension 1, target has 2" in stderr


def test_a_fit_whose_cell_fails_exits_two(tmp_path, capsys, monkeypatch):
    from ofevi import harness

    def failing_fit(*args, **kwargs):
        raise np.linalg.LinAlgError("eigensolve did not converge")

    monkeypatch.setattr(harness, "fit_from_batch", failing_fit)
    out = tmp_path / "density.json"
    code, stdout, stderr = run_cli(
        capsys, "fit", "--target", "bimodal1d", "--orders", "3", "--out", str(out),
    )
    assert code == 2 and stdout == "" and not out.exists()
    assert stderr == "error: LinAlgError: eigensolve did not converge\n"


def test_a_runtime_exception_inside_a_command_exits_two(tmp_path, capsys, monkeypatch):
    density, _ = fit_gaussian(tmp_path, capsys)

    def failing_moments(self):
        raise FloatingPointError("overflow in the moments")

    monkeypatch.setattr(OfeDensity, "mean_and_cov", failing_moments)
    code, stdout, stderr = run_cli(capsys, "moments", "--density", str(density))
    assert code == 2 and stdout == ""
    assert stderr == "error: FloatingPointError: overflow in the moments\n"


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["fit", "--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
