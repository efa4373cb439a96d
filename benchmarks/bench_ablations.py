"""Ablation benchmarks for the reproduction's own design choices.

Not a paper figure — these quantify the reproduction's own engineering
decisions so deviations from the paper's pseudocode stay measured:

* cap-descent scan depth (stop at first success vs scanning further);
* feasible vs bicriteria output mode;
* the hybrid direction oracle vs the exact LP scan (Greedy);
* HS with and without LP certification.
"""

import pytest

from repro.core.bigreedy import bigreedy
from repro.baselines.greedy import rdp_greedy
from repro.baselines.hs import hitting_set

from conftest import constraint_for

_K = 10


@pytest.mark.parametrize("extra_steps", [0, 2, 6])
def test_bench_ablation_cap_scan_depth(benchmark, anticor6d, extra_steps):
    constraint = constraint_for(anticor6d, _K)
    solution = benchmark(
        bigreedy, anticor6d, constraint, seed=7, extra_steps=extra_steps
    )
    benchmark.extra_info["extra_steps"] = extra_steps
    benchmark.extra_info["mhr_net"] = round(solution.mhr_estimate, 4)
    benchmark.extra_info["tau_steps"] = solution.stats["tau_steps"]


@pytest.mark.parametrize("mode", ["feasible", "bicriteria"])
def test_bench_ablation_output_mode(benchmark, anticor6d, mode):
    constraint = constraint_for(anticor6d, _K)
    solution = benchmark(bigreedy, anticor6d, constraint, seed=7, mode=mode)
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["size"] = solution.size
    benchmark.extra_info["mhr_net"] = round(solution.mhr_estimate, 4)


@pytest.mark.parametrize("oracle", ["hybrid", "lp"])
def test_bench_ablation_greedy_oracle(benchmark, adult_gender, oracle):
    solution = benchmark(rdp_greedy, adult_gender, _K, oracle=oracle)
    benchmark.extra_info["oracle"] = oracle
    benchmark.extra_info["mhr"] = round(solution.mhr(), 4)


@pytest.mark.parametrize("certify", [False, True])
def test_bench_ablation_hs_certification(benchmark, adult_gender, certify):
    solution = benchmark(hitting_set, adult_gender, _K, certify=certify)
    benchmark.extra_info["certify"] = certify
    benchmark.extra_info["eps"] = round(solution.stats["eps"], 4)
