import csv
import json

import numpy as np
import pytest

from plpareto import (
    DemandModel,
    DemandPoint,
    ExperimentConfig,
    constant_pl,
    evaluate,
    no_advice_level,
    run_experiment,
    sample_demand,
)
from plpareto import harness
from plpareto.harness import write_report_csv, write_report_json
from plpareto.region import MAX_SEGMENTS


def test_demand_model_validation():
    with pytest.raises(ValueError):
        DemandModel(kind="exotic")
    with pytest.raises(ValueError):
        DemandModel(weight=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(advice_kind="magic")
    with pytest.raises(ValueError):
        ExperimentConfig(c_rule=0.0)


def test_sample_demand_ranges():
    rng = np.random.default_rng(0)
    model = DemandModel()
    pts = [sample_demand(model, rng) for _ in range(2000)]
    assert all(0.0 <= p.x <= 30.0 and 0.0 <= p.y <= 30.0 for p in pts)
    core = sum(10.0 <= p.x <= 20.0 for p in pts) / len(pts)
    # 90% core mass plus the contaminant's overlap with [10, 20]
    assert 0.88 <= core <= 0.98


def test_sample_demand_normal_truncated():
    rng = np.random.default_rng(1)
    model = DemandModel(kind="normal-mixture", mean=0.5, sd=3.0)
    pts = [sample_demand(model, rng) for _ in range(500)]
    assert all(p.x >= 0.0 and p.y >= 0.0 for p in pts)


def test_evaluate_adversarial_fixed_level(rw):
    policy = constant_pl(no_advice_level(rw), rw.m)
    testset = [DemandPoint(20.0, 20.0), DemandPoint(0.0, 0.0)]
    rep = evaluate(policy, testset, "adversarial", rw)
    assert rep.per_instance[0] == pytest.approx(0.6, abs=1e-12)
    assert rep.per_instance[1] == 1.0
    assert rep.avg_cp == pytest.approx(0.8, abs=1e-12)
    assert rep.worst_cp == pytest.approx(0.6, abs=1e-12)


def test_evaluate_stochastic_not_worse(rw):
    rng = np.random.default_rng(7)
    policy = constant_pl(no_advice_level(rw), rw.m)
    testset = [DemandPoint(float(x), float(y))
               for x, y in rng.uniform(0, 30, size=(10, 2))]
    adv = evaluate(policy, testset, "adversarial", rw)
    sto = evaluate(policy, testset, "stochastic", rw, rng, n_perms=20)
    for a, s in zip(adv.per_instance, sto.per_instance):
        assert s >= a - 1e-9


def test_evaluate_empty_testset(rw):
    rep = evaluate(constant_pl(8.0, 20.0), [], "adversarial", rw)
    assert rep.avg_cp is None and rep.worst_cp is None


def test_run_experiment_reproducible(rw):
    cfg = ExperimentConfig(advice_kind="none", K=3, n_test=20, seed=42)
    rep1 = run_experiment(cfg, rw)
    rep2 = run_experiment(cfg, rw)
    assert rep1.per_trial == rep2.per_trial
    assert len(rep1.per_trial) == 3
    # the fixed no-advice level never drops below 0.6 on any instance
    assert rep1.worst_cp >= 0.6 - 1e-9


def test_run_experiment_box_beats_worst_of_none(rw):
    base = run_experiment(ExperimentConfig(advice_kind="none", K=2, n_test=30, seed=3), rw)
    box = run_experiment(
        ExperimentConfig(advice_kind="box", c_rule=0.9, K=2, n_test=30, seed=3), rw
    )
    assert box.avg_cp > base.avg_cp


def test_report_writers(tmp_path, rw):
    cfg = ExperimentConfig(advice_kind="none", K=2, n_test=5, seed=0)
    rep = run_experiment(cfg, rw)
    csv_path = tmp_path / "rep.csv"
    json_path = tmp_path / "rep.json"
    write_report_csv(rep, str(csv_path))
    write_report_json(rep, str(json_path), cfg)
    rows = list(csv.reader(csv_path.open()))
    assert rows[0] == ["trial", "avg_cp", "worst_cp"]
    assert len(rows) == 3
    payload = json.loads(json_path.read_text())
    assert payload["n_trials"] == 2
    assert payload["config"]["advice_kind"] == "none"
    assert payload["avg_cp"] == pytest.approx(rep.avg_cp)


@pytest.mark.parametrize("field,value", [
    ("n_test", 0), ("n_perms", 0), ("epsilon", 0.0), ("epsilon", -1e-6),
    ("epsilon", float("nan")), ("epsilon", float("inf")),
])
def test_experiment_config_rejects_bad_values(field, value):
    # epsilon is no longer a field, so any value of it is refused as an
    # unknown argument (TypeError, exit 2 at the CLI)
    with pytest.raises(TypeError if field == "epsilon" else ValueError):
        ExperimentConfig(**{field: value})


def test_experiment_config_refuses_epsilon():
    # a trial's C* is exact by enumeration and takes no tolerance; the CLI
    # turns this TypeError into exit 2
    with pytest.raises(TypeError):
        ExperimentConfig(epsilon=1e-6)


@pytest.mark.parametrize("order", ["adversarial", "stochastic"])
def test_evaluate_rejects_zero_perms(rw, order):
    with pytest.raises(ValueError):
        evaluate(constant_pl(8.0, 20.0), [DemandPoint(5.0, 5.0)], order, rw,
                 np.random.default_rng(0), n_perms=0)


@pytest.mark.parametrize("order", ["adversarial", "stochastic"])
@pytest.mark.parametrize("n_perms", [2.5, 3.0, "3", None])
def test_evaluate_rejects_non_integer_perms(rw, order, n_perms):
    with pytest.raises(ValueError, match="n_perms must be an integer"):
        evaluate(constant_pl(8.0, 20.0), [DemandPoint(5.0, 5.0)], order, rw,
                 np.random.default_rng(0), n_perms=n_perms)
    with pytest.raises(ValueError, match="n_perms must be an integer"):
        ExperimentConfig(n_perms=n_perms)


@pytest.mark.parametrize("field", ["n_samples", "K", "n_test", "seed", "n_perms"])
@pytest.mark.parametrize("value", [True, False])
def test_experiment_config_rejects_booleans_as_counts(field, value):
    # a bool is an Integral: True ran one trial as K, and as n_samples
    # failed with a TypeError in the sampler
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("order", ["adversarial", "stochastic"])
def test_evaluate_rejects_a_boolean_perm_count(rw, order):
    with pytest.raises(ValueError, match="n_perms must be an integer"):
        evaluate(constant_pl(8.0, 20.0), [DemandPoint(5.0, 5.0)], order, rw,
                 np.random.default_rng(0), n_perms=True)


@pytest.mark.parametrize("K", [0, -1])
def test_experiment_config_rejects_no_trials(K):
    with pytest.raises(ValueError):
        ExperimentConfig(K=K)


@pytest.mark.parametrize("field,value", [
    ("segments", MAX_SEGMENTS + 1), ("segments", 2), ("segments", 64.0),
    ("z", 0.0), ("z", 1.5), ("order", "random"), ("n_samples", 0), ("seed", -1),
    ("K", 2.0), ("n_test", 1.5),
])
def test_experiment_config_rejects_fields_a_run_would_fail_on(field, value):
    with pytest.raises(ValueError):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("field,value", [
    ("sd", -1.0), ("main_high", float("inf")), ("cont_low", float("nan")),
])
def test_demand_model_rejects_parameters_sampling_would_fail_on(field, value):
    with pytest.raises(ValueError):
        DemandModel(**{field: value})


@pytest.mark.parametrize("kw", [
    {"main_high": 5.0}, {"cont_low": 31.0},
    {"main_low": -1.7e308, "main_high": 1.7e308}, {"cont_low": -1.7e308, "cont_high": 1.7e308},
    {"kind": "normal-mixture", "main_high": 5.0},
])
def test_demand_model_rejects_bad_ranges(kw):
    # rng.uniform would raise on them mid-run; the bulk sampler would not
    with pytest.raises(ValueError, match="low <= high"):
        DemandModel(**kw)


SAMPLER_MODELS = {
    "default": DemandModel(),
    "weight 0": DemandModel(weight=0.0),
    "weight 1": DemandModel(weight=1.0),
    "low == high": DemandModel(main_low=12.5, main_high=12.5, cont_low=3.0, cont_high=3.0),
    "negative bounds": DemandModel(main_low=-5.0, main_high=3.0, cont_low=-30.0, cont_high=-0.0),
    "normal-mixture": DemandModel(kind="normal-mixture", mean=0.5),
}


@pytest.mark.parametrize("n", [1, 10, 100])
@pytest.mark.parametrize("name", sorted(SAMPLER_MODELS))
def test_bulk_sampler_equals_sample_demand_loop(name, n):
    # the points, bit for bit and with the sign of zero, and the generator
    # state afterwards; normal-mixture takes the scalar loop itself
    model = SAMPLER_MODELS[name]
    for seed in range(30):
        one, each = np.random.default_rng(seed), np.random.default_rng(seed)
        got = harness._sample_points(model, n, one)
        want = [sample_demand(model, each) for _ in range(n)]
        assert got.shape == (n, 2)
        assert [(x.hex(), y.hex()) for x, y in got.tolist()] == [(p.x.hex(), p.y.hex()) for p in want]
        assert one.bit_generator.state == each.bit_generator.state


def test_run_experiment_samples_uniform_mixture_in_bulk(rw, monkeypatch):
    def scalar(*args):
        raise AssertionError("sample_demand called")
    monkeypatch.setattr(harness, "sample_demand", scalar)
    cfg = ExperimentConfig(advice_kind="box", order="stochastic", K=2, n_test=5, n_perms=3)
    assert len(run_experiment(cfg, rw).per_trial) == 2
