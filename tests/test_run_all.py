"""run_all assembly test with stubbed runners (fast)."""

import importlib
from types import SimpleNamespace

from repro.experiments.common import Record
from repro.experiments.shapes import ShapeCheck

# ``repro.experiments.run_all`` the *attribute* is the re-exported function;
# importlib fetches the module itself for monkeypatching.
run_all_module = importlib.import_module("repro.experiments.run_all")


def stub_runners(monkeypatch):
    """Patch every runner with canned results."""
    ex_result = SimpleNamespace(
        name="hms_k2",
        selected={"a4", "a5"},
        mhr=0.9846,
        expected_selected={"a4", "a5"},
        expected_mhr=0.9846,
        matches=True,
    )
    monkeypatch.setattr(run_all_module, "run_example22", lambda: [ex_result])

    t2_row = SimpleNamespace(
        dataset="Adult", group="Gender", d=5, n=100, C=2,
        skylines=10, paper_skylines=130,
    )
    monkeypatch.setattr(
        run_all_module, "run_table2", lambda scale=1.0: [t2_row]
    )

    def fake_records(exp, metric_value=0.9):
        return {
            "panel": [
                Record(exp, "panel", "BiGreedy", "k", 10,
                       mhr=metric_value, time_ms=1.0, violations=0),
                Record(exp, "panel", "Greedy", "k", 10,
                       mhr=metric_value - 0.1, time_ms=0.5, violations=3),
            ]
        }

    monkeypatch.setattr(run_all_module, "run_fig3", lambda cfg=None: fake_records("fig3"))
    monkeypatch.setattr(run_all_module, "run_fig4", lambda cfg=None: fake_records("fig4"))
    monkeypatch.setattr(run_all_module, "run_fig56", lambda cfg=None: fake_records("fig56"))
    monkeypatch.setattr(run_all_module, "run_fig7", lambda cfg=None: fake_records("fig7"))
    monkeypatch.setattr(run_all_module, "run_fig89", lambda cfg=None: fake_records("fig89"))
    monkeypatch.setattr(
        run_all_module, "run_fig1011",
        lambda cfg=None: {
            "panel": [
                Record("fig1011", "panel", "BiGreedy+", "eps", 0.02,
                       mhr=0.9, time_ms=2.0, extra={"lambda": 0.04}),
            ]
        },
    )
    monkeypatch.setattr(
        run_all_module, "run_ablation_constraints",
        lambda cfg=None: {
            "panel": [
                Record("ablation", "panel", "proportional", "k", 6,
                       mhr=0.9, extra={"counts": [3, 3]}),
            ]
        },
    )


def test_run_all_assembles_report(monkeypatch, tmp_path):
    """Canned results in; check report structure."""
    stub_runners(monkeypatch)
    out = tmp_path / "EXPERIMENTS.md"
    report = run_all_module.run_all(fast=True, out=str(out))
    text = out.read_text()
    assert report == text
    for section in (
        "Example 2.2",
        "Table 2",
        "Figure 3",
        "Figure 4",
        "Figures 5 & 6",
        "Figure 7",
        "Figures 8 & 9",
        "Figures 10 & 11",
        "Paper-shape checks",
    ):
        assert section in text, f"missing section {section}"
    assert "at commit `" in text


def test_main_exits_1_when_a_shape_check_fails(monkeypatch, tmp_path, capsys):
    stub_runners(monkeypatch)
    out = str(tmp_path / "EXPERIMENTS.md")
    monkeypatch.setattr(
        run_all_module,
        "check_all_shapes",
        lambda **results: [
            ShapeCheck("holds", True, ""),
            ShapeCheck("breaks", False, "canned failure"),
        ],
    )
    assert run_all_module.main(["--fast", "--out", out]) == 1
    assert "paper-shape checks failed: breaks" in capsys.readouterr().err
    monkeypatch.setattr(
        run_all_module,
        "check_all_shapes",
        lambda **results: [ShapeCheck("holds", True, "")],
    )
    assert run_all_module.main(["--fast", "--out", out]) == 0


def test_fast_configs_have_expected_keys():
    configs = run_all_module._fast_configs()
    assert {"fig3", "fig4", "fig56", "fig7", "fig89", "fig1011"} <= set(configs)
