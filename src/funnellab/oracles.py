"""Brute-force oracles that check the vectorized code paths.

These deliberately avoid the package's vectorized code: plain python loops,
explicit enumerations. They are the second route in every dual-route check
(``funnellab selftest`` and the test suite), so they live apart from the
implementations they verify.
"""


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
