"""Independent brute-force oracles used by the test suite.

These deliberately avoid the package's vectorized code paths: plain python
loops, explicit enumerations. They are the second route in every dual-route
check, so keep them separate from the implementations they verify. The
PR-AUC oracle, which ``funnellab selftest`` uses too, is in
``funnellab.oracles``.
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
