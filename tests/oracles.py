"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's vectorized code paths: plain python
loops, explicit enumerations, or a whole array where the package works in
blocks. They are the second route in every dual-route check, so they live
with the tests, apart from the implementations they verify.
"""


def welch_t_statistic(a, b):
    """Welch's t statistic and degrees of freedom, from first principles."""
    import math

    def mean(xs):
        return sum(xs) / len(xs)

    def var(xs):
        m = mean(xs)
        return sum((x - m) ** 2 for x in xs) / (len(xs) - 1)

    na, nb = len(a), len(b)
    va, vb = var(a) / na, var(b) / nb
    t = (mean(a) - mean(b)) / math.sqrt(va + vb)
    df = (va + vb) ** 2 / (va ** 2 / (na - 1) + vb ** 2 / (nb - 1))
    return t, df


def brute_force_pr_auc(preds, labels, weights):
    """Weighted average precision by explicit precision-at-each-positive
    enumeration, descending prediction order with stable tie-break."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i], i))
    cum_weight = 0.0
    cum_positive = 0.0
    score = 0.0
    total_positive = 0.0
    for i in order:
        cum_weight += weights[i]
        if labels[i] > 0:
            cum_positive += weights[i]
            score += weights[i] * (cum_positive / cum_weight)
    for i in range(len(preds)):
        if labels[i] > 0:
            total_positive += weights[i]
    return score / total_positive


def whole_sample_intercepts(config, sample=200_000):
    """``config`` with its intercepts solved on the whole intercept sample,
    drawn in one piece: the stream of ``funnel.make_funnel_config``, without
    its blocks. The generative weights are taken from ``config``; their draws
    only advance the stream."""
    import dataclasses

    import numpy as np

    from funnellab import funnel as fd

    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 0xC0F1]))
    rng.standard_normal(2 * config.dense_dim + 2 * config.n_categorical * config.vocab_size)
    x = rng.standard_normal((sample, config.dense_dim))
    cats = rng.integers(0, config.vocab_size, size=(sample, config.n_categorical))

    def logits(dense_w, cat_table):
        contrib = 0
        for j in range(config.n_categorical):
            contrib = contrib + cat_table[j][cats[:, j]]
        return x @ dense_w + contrib

    click_logits = logits(config.click_dense, config.click_cat)
    click_intercept = fd._bisect_intercept(click_logits, config.base_click_rate_target)
    p_click = fd._sigmoid(click_logits + click_intercept)
    conv_intercept = fd._bisect_intercept(logits(config.conv_dense, config.conv_cat),
                                          config.base_conv_rate_target, weights=p_click)
    return dataclasses.replace(config, click_intercept=float(click_intercept),
                               conv_intercept=float(conv_intercept))
