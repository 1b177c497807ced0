import math

import gate

REPORT = {
    "ablation_runs.csv": b"# header\nmodel,seed,joint_ce\nIP,0,0.0123\nESP,0,0.0119\n",
    "ablation_report.json": b'{"runs": [{"joint_ce": 0.0123}], "p": 0.5}\n',
}


def test_identical_reports_pass():
    assert gate.report_differences(REPORT, dict(REPORT)) == []


def test_altered_report_fires():
    altered = dict(REPORT)
    altered["ablation_runs.csv"] = REPORT["ablation_runs.csv"].replace(b"0.0123", b"0.0124")
    problems = gate.report_differences(REPORT, altered)
    assert problems == ["report file ablation_runs.csv differs between repetitions"]


def test_missing_file_fires():
    partial = {"ablation_runs.csv": REPORT["ablation_runs.csv"]}
    assert gate.report_differences(REPORT, partial)
    assert gate.empty_report({}) and not gate.empty_report(REPORT)


def test_essp_violation_fires_only_for_product_designs():
    assert gate.essp_violations({"IP": [0.0, 0.0], "ESSP-Split": [0.2]}) == []
    problems = gate.essp_violations({"ESMM": [0.0, 1e-12]})
    assert len(problems) == 1 and "ESMM" in problems[0]


def test_nonfinite_numbers_in_report_fire():
    assert gate.nonfinite_report_numbers(REPORT) == []
    bad = {"ablation_runs.csv": b"model,seed,joint_ce\nIP,0,nan\n",
           "ablation_report.json": b'{"joint_ce": Infinity}'}
    problems = gate.nonfinite_report_numbers(bad)
    assert len(problems) == 2


def test_nonfinite_metric_fires():
    assert gate.nonfinite_metrics({"wall_s": 1.0}) == []
    assert gate.nonfinite_metrics({"wall_s": math.inf, "setup_s": math.nan})


def test_check_fires_on_altered_repetition():
    import run

    good = {"report": REPORT, "essp_rates": {"IP": [0.0]}}
    altered = {"report": {**REPORT, "ablation_report.json": b'{"p": 0.6}\n'},
               "essp_rates": {"IP": [0.0]}}
    assert run.check([good, dict(good)]) == []
    assert run.check([good, altered])
