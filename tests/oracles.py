"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's vectorized code paths: plain python
loops, explicit enumerations. They are the second route in every dual-route
check, so they live with the tests, apart from the implementations they
verify.
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
