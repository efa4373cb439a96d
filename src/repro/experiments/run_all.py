"""Run every experiment and write EXPERIMENTS.md.

Usage::

    python -m repro.experiments.run_all [--fast] [--out EXPERIMENTS.md]

``--fast`` shrinks every workload further (a couple of minutes end to
end); the default scaled configuration takes tens of minutes; the paper's
full sizes can be reproduced by editing the per-figure configs.  The
command exits 1, naming the failures on stderr, when any paper-shape
check fails.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..benchio import git_sha
from .ablation_constraints import (
    AblationConstraintsConfig,
    render_ablation_constraints,
    run_ablation_constraints,
)
from .common import format_table
from .example22 import run_example22
from .fig3_violations import Fig3Config, render_fig3, run_fig3
from .fig4_twod import Fig4Config, render_fig4, run_fig4
from .fig56_md import Fig56Config, render_fig56, run_fig56
from .fig7_scalability import Fig7Config, render_fig7, run_fig7
from .fig89_samplesize import Fig89Config, render_fig89, run_fig89
from .fig1011_params import Fig1011Config, render_fig1011, run_fig1011
from .shapes import check_all_shapes
from .table2 import render_table2, run_table2

__all__ = ["run_all", "main"]


def _fast_configs() -> dict:
    return {
        "fig3": Fig3Config(
            ks=(10, 14, 18),
            anticor_n=800,
            real_n=2_000,
            panels=(
                ("Adult (Gender)", {"real": ("Adult", "Gender")}),
                ("AntiCor_6D", {"anticor": (6, 3)}),
                ("Credit (Job)", {"real": ("Credit", "Job")}),
            ),
        ),
        "fig4": Fig4Config(
            lawschs_gender_ks=(2, 4, 6),
            lawschs_race_ks=(5, 7, 10),
            anticor_ks=(5, 7, 10),
            anticor_n=600,
            vary_C=(2, 3, 4),
            vary_n=(100, 1_000),
            lawschs_n=8_000,
        ),
        "fig56": Fig56Config(
            default_ks=(10, 14, 20),
            anticor_n=800,
            real_n=2_000,
            panels=(
                ("Adult (Gender)", {"real": ("Adult", "Gender"), "ks": (6, 10, 16)}),
                ("Adult (Race)", {"real": ("Adult", "Race")}),
                ("AntiCor_6D", {"anticor": (6, 3)}),
                ("Compas (Gender)", {"real": ("Compas", "Gender")}),
                ("Credit (Job)", {"real": ("Credit", "Job")}),
            ),
        ),
        "fig7": Fig7Config(
            base_n=800, dims=(2, 4, 6), Cs=(2, 4, 6), ns=(100, 1_000)
        ),
        "fig89": Fig89Config(
            k=8,
            factors=(1.25, 5.0, 10.0, 20.0),
            anticor_n=800,
            real_n=2_000,
            panels=(
                ("Adult (Gender)", {"real": ("Adult", "Gender")}),
                ("AntiCor_6D", {"anticor": (6, 3)}),
            ),
        ),
        "fig1011": Fig1011Config(
            k=8,
            epsilons=(0.04, 0.16, 0.64),
            lambdas=(0.04, 0.16, 0.64),
            anticor_n=800,
            real_n=2_000,
            panels=(
                ("Adult (Gender)", {"real": ("Adult", "Gender")}),
                ("AntiCor_6D", {"anticor": (6, 3)}),
            ),
        ),
        "ablation": AblationConstraintsConfig(
            k=6,
            anticor_n=400,
            real_n=1_500,
            panels=(
                ("Adult (Gender)", {"real": ("Adult", "Gender")}),
                ("AntiCor_6D", {"anticor": (6, 3)}),
            ),
        ),
        "table2_scale": 0.1,
    }


def run_all(*, fast: bool = False, out: str | None = None) -> str:
    """Run every experiment; returns (and optionally writes) the report."""
    return _run(fast=fast, out=out)[0]


def _run(*, fast: bool, out: str | None) -> tuple[str, list[str]]:
    """The report, and the names of the paper-shape checks that failed."""
    configs = _fast_configs() if fast else {}
    sections: list[str] = []
    started = time.time()

    def log(msg: str) -> None:
        print(f"[{time.time() - started:7.1f}s] {msg}", file=sys.stderr, flush=True)

    log("Example 2.2 ...")
    ex = run_example22()
    rows = [
        [
            r.name,
            ",".join(sorted(r.selected)),
            f"{r.mhr:.4f}",
            ",".join(sorted(r.expected_selected)),
            f"{r.expected_mhr:.4f}",
            "MATCH" if r.matches else "MISMATCH",
        ]
        for r in ex
    ]
    sections.append(
        "## Example 2.2 (Table 1)\n\n```\n"
        + format_table(
            ["case", "selected", "mhr", "paper selected", "paper mhr", "status"], rows
        )
        + "\n```"
    )

    log("Table 2 ...")
    t2 = run_table2(scale=configs.get("table2_scale", 0.25))
    sections.append("## Table 2 (dataset statistics)\n\n```\n" + render_table2(t2) + "\n```")

    log("Figure 3 (fairness violations) ...")
    f3 = run_fig3(configs.get("fig3"))
    sections.append("## Figure 3 (fairness violations)\n\n```\n" + render_fig3(f3) + "\n```")

    log("Figure 4 (2-D) ...")
    f4 = run_fig4(configs.get("fig4"))
    sections.append("## Figure 4 (two-dimensional)\n\n```\n" + render_fig4(f4) + "\n```")

    log("Figures 5/6 (multi-dimensional) ...")
    f56 = run_fig56(configs.get("fig56"))
    sections.append("## Figures 5 & 6 (multi-dimensional)\n\n```\n" + render_fig56(f56) + "\n```")

    log("Figure 7 (scalability) ...")
    f7 = run_fig7(configs.get("fig7"))
    sections.append("## Figure 7 (scalability)\n\n```\n" + render_fig7(f7) + "\n```")

    log("Figures 8/9 (sample size) ...")
    f89 = run_fig89(configs.get("fig89"))
    sections.append("## Figures 8 & 9 (sample size)\n\n```\n" + render_fig89(f89) + "\n```")

    log("Figures 10/11 (epsilon/lambda) ...")
    f1011 = run_fig1011(configs.get("fig1011"))
    sections.append(
        "## Figures 10 & 11 (epsilon / lambda)\n\n```\n" + render_fig1011(f1011) + "\n```"
    )

    log("Constraint-family ablation ...")
    ablation_cfg = configs.get("ablation")
    ablation = run_ablation_constraints(ablation_cfg)
    sections.append(
        "## Constraint-family ablation (proportional / balanced / exact)\n\n```\n"
        + render_ablation_constraints(ablation)
        + "\n```"
    )

    log("Shape checks ...")
    shapes = check_all_shapes(
        example22=ex, fig3=f3, fig4=f4, fig56=f56, fig7=f7, fig89=f89
    )
    shape_rows = [[s.name, "PASS" if s.passed else "FAIL", s.detail] for s in shapes]
    sections.append(
        "## Paper-shape checks\n\n```\n"
        + format_table(["check", "status", "detail"], shape_rows)
        + "\n```"
    )

    header = (
        "# EXPERIMENTS — paper vs. measured\n\n"
        "Generated by `python -m repro.experiments.run_all"
        + (" --fast" if fast else "")
        + f"` at commit `{git_sha() or 'unknown'}`.\n\n"
        "Workloads are scaled down from the paper's sizes (see\n"
        "docs/ALGORITHMS.md, \"Substitutions\"); qualitative shapes, not\n"
        "absolute numbers, are the reproduction target. Times are\n"
        "pure-Python milliseconds.\n"
    )
    report = header + "\n" + "\n\n".join(sections) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(report)
        log(f"wrote {out}")
    log("done")
    return report, [s.name for s in shapes if not s.passed]


def main(argv=None) -> int:
    """Exit status 1 when any paper-shape check fails, else 0."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fast", action="store_true", help="smallest workloads")
    parser.add_argument("--out", default=None, help="write the report here")
    args = parser.parse_args(argv)
    report, failed = _run(fast=args.fast, out=args.out)
    if not args.out:
        print(report)
    if failed:
        print("paper-shape checks failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
