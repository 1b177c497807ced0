"""The benchmark's workloads and the mapping from a workload seed to the
experiment config the program receives.

Each workload is a partial config in the schema of ``cli.DEFAULT_CONFIG``;
keys it leaves out take the program's defaults. The seed becomes the
config's ``base_seed`` and nothing else, so one seed always yields the same
config and the same datasets.
"""

import hashlib
import json

# Product-composed designs: their joint prediction is ctr * cvr, so the
# ESSP consistency violation rate (joint > ctr) must be exactly zero.
PRODUCT_DESIGNS = ("IP", "ESMM", "ESMM-NS", "IPSP")

WORKLOADS = {
    # The lab's main job at batch 512: all six designs on the default funnel
    # and net, four 100k-row training days (about 58k rows after negative
    # downsampling) and a 25k-row eval set. Dense forward and backward (BLAS)
    # and the optimizer do most of the work. Training days and eval set are
    # half the program's defaults, so that three fresh-process repetitions
    # fit in one measured run while evaluation keeps its default share.
    "ablation": {
        "kind": "ablation",
        "config": {
            "n_seeds": 2,
            "n_train_per_day": 100_000,
            "n_eval": 25_000,
            "train": {"epochs": 1, "batch_size": 512},
        },
    },
    # The same training path where the fixed cost of each step dominates:
    # batch 64 over about 14.5k downsampled rows, so tape node records,
    # per-node zero-fill and the per-parameter Adam loop outweigh BLAS.
    "ablation-b64": {
        "kind": "ablation",
        "config": {
            "n_seeds": 2,
            "n_train_per_day": 25_000,
            "n_eval": 20_000,
            "train": {"epochs": 1, "batch_size": 64},
        },
    },
    # Forward-only inference over large eval sets on drifting days: a small
    # training set (one 100k-row day, about 14.5k rows after downsampling),
    # then IP and ESMM evaluated on each of the 5 offset days. Backward and
    # Adam are a small share here, so a gain in either must show no change.
    # The eval size keeps peak memory at 1.0 to 1.5 GB: predict_all keeps each
    # whole eval-set tape alive until the cyclic collector runs.
    "drift": {
        "kind": "drift",
        "config": {
            "n_seeds": 4,
            "models": ["IP", "ESMM"],
            "funnel": {"drift_rate": 0.25},
            "train_days": 1,
            "n_train_per_day": 100_000,
            "n_eval": 30_000,
            "train": {"epochs": 1, "batch_size": 512},
        },
    },
}


def workload_config(name, seed):
    """The experiment config for one workload and seed (a fresh dict)."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; expected one of {sorted(WORKLOADS)}")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    config = json.loads(json.dumps(WORKLOADS[name]["config"]))
    config["base_seed"] = seed
    return config


def config_hash(config):
    """Short stable hash of a config dict (key order does not matter)."""
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
