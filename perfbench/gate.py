"""Correctness gate: every check returns a list of problems, empty when the
outputs are correct. The benchmark reports ``correct: false`` and exits
nonzero when any list is not empty.
"""

import json
import math

from workloads import PRODUCT_DESIGNS


def report_differences(first, other):
    """Files that differ between two reports, each a {file name: bytes} dict."""
    problems = []
    for name in sorted(set(first) | set(other)):
        if name not in first or name not in other:
            problems.append(f"report file {name} is missing from one repetition")
        elif first[name] != other[name]:
            problems.append(f"report file {name} differs between repetitions")
    return problems


def essp_violations(rates):
    """Product designs whose ESSP violation rate is not exactly zero.

    ``rates`` maps a model name to its per-seed violation rates.
    """
    return [f"{model} has essp_violation_rate {rate!r} (must be exactly 0)"
            for model in PRODUCT_DESIGNS
            for rate in rates.get(model, []) if rate != 0.0]


def nonfinite_metrics(metrics):
    """Measured metrics (name -> number) that are not finite."""
    return [f"metric {name} is not finite: {value!r}"
            for name, value in metrics.items() if not math.isfinite(value)]


def nonfinite_report_numbers(report):
    """Non-finite numbers in report files (``.json`` and ``.csv``)."""
    problems = []

    def reject(token):
        problems.append(f"{name}: non-finite number {token}")
        return 0.0

    for name, data in sorted(report.items()):
        text = data.decode()
        if name.endswith(".json"):
            json.loads(text, parse_constant=reject)
            continue
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            for field in line.split(","):
                try:
                    value = float(field)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    reject(field)
    return problems


def empty_report(report):
    return [] if report else ["no report files were written"]
