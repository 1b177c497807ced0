import json

import pytest

from workloads import WORKLOADS, config_hash, workload_config


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_config(name):
    first = workload_config(name, 5)
    second = workload_config(name, 5)
    assert first == second
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert config_hash(first) == config_hash(second)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_sets_only_base_seed(name):
    a, b = workload_config(name, 1), workload_config(name, 2)
    assert (a["base_seed"], b["base_seed"]) == (1, 2)
    assert {k: v for k, v in a.items() if k != "base_seed"} == \
        {k: v for k, v in b.items() if k != "base_seed"}
    assert config_hash(a) != config_hash(b)


def test_config_is_a_fresh_copy():
    cfg = workload_config("drift", 0)
    cfg["funnel"]["drift_rate"] = 9.0
    assert workload_config("drift", 0)["funnel"]["drift_rate"] == 0.25


def test_hash_ignores_key_order():
    assert config_hash({"a": 1, "b": {"c": 2, "d": 3}}) == \
        config_hash({"b": {"d": 3, "c": 2}, "a": 1})


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
def test_bad_seed_rejected(seed):
    with pytest.raises(ValueError):
        workload_config("ablation", seed)


def test_unknown_workload_rejected():
    with pytest.raises(KeyError):
        workload_config("nope", 0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_program_accepts_every_workload_config(name):
    from funnellab import cli

    cfg = cli.config_from_dict(workload_config(name, 3))
    assert cfg.base_seed == 3
