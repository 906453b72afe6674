"""The experiment registry: machine-readable index of E1–E27.

A single source of truth connecting DESIGN.md §4's experiment table, the
benchmark modules, and the paper claims they reproduce.  Tests assert the
registry, the bench files, and the docs stay in sync — so an experiment
cannot silently lose its harness.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Experiment", "EXPERIMENTS", "RETIRED", "experiment", "bench_module_name"]


@dataclass(frozen=True)
class Experiment:
    """One row of the experiment index."""

    exp_id: str
    claim: str
    paper_ref: str
    bench_module: str


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("E1", "hopset size within ⌈log Λ⌉·n^{1+1/κ}", "eq. (10), Thm 3.7", "test_e1_hopset_size"),
    Experiment("E2", "eq. (1) stretch/hopbound + weight-mode ablation", "eq. (1), Thm 3.7", "test_e2_stretch"),
    Experiment("E3", "build work slightly super-linear, depth polylog", "Lemma 3.1", "test_e3_work_depth"),
    Experiment("E4", "hopset SSSP vs hopset-less Bellman–Ford", "Thm 3.8", "test_e4_sssp"),
    Experiment("E5", "derandomization vs sampling-based hopsets", "§1.2, [Coh94]/[EN19]", "test_e5_derandomization"),
    Experiment("E6", "(3, 2 log n)-ruling-set guarantees and cost", "Cor. B.4", "test_e6_ruling_sets"),
    Experiment("E7", "weight reduction removes Λ dependence", "Thm C.2, Lemma C.1", "test_e7_weight_reduction"),
    Experiment("E8", "path-reporting SPT validity and σ bound", "Thms 4.5/4.6, eq. (20)", "test_e8_spt"),
    Experiment("E9", "work vs the n^ω min-plus strawman", "§1.1, [Zwi02]", "test_e9_vs_matmul"),
    Experiment("E10", "PRAM primitive depth rates", "[SV82], [AKS83]", "test_e10_pram_primitives"),
    Experiment("E11", "multi-source aMSSD: work ∝ |S|, depth flat", "Thm 3.8/C.3", "test_e11_multi_source"),
    Experiment("E12", "Appendix D: Λ-free path-reporting SPT", "Thms D.1/D.2", "test_e12_reduction_paths"),
    Experiment("E13", "β ablation: safety at any β, stretch → 1+ε", "eq. (2) vs practice", "test_e13_beta_ablation"),
    Experiment("E14", "(κ, ρ) tradeoff surface", "Thm 3.7 knobs", "test_e14_kappa_rho"),
    Experiment("E15", "near-additive spanners from the same machinery", "§1.2/§1.4, [EM19]", "test_e15_spanners"),
    Experiment("E16", "depth vs Δ-stepping on deep graphs", "§1.1 context", "test_e16_delta_stepping"),
    Experiment("E17", "pairwise covers vs ruling sets", "§1.2 open problem", "test_e17_pairwise_covers"),
    Experiment("E18", "the hopset construction family compared", "§1.4", "test_e18_hopset_family"),
    Experiment("E19", "simulator wall-clock scaling", "engineering", "test_e19_simulator_scale"),
    Experiment("E20", "decremental SSSP via memory-path invalidation", "§1.4 future work", "test_e20_decremental"),
    Experiment("E21", "sparse-frontier vs dense relaxation engines", "engineering, docs/frontier.md", "test_e21_frontier"),
    Experiment("E27", "incremental repair vs full recompute under live updates", "§1.4 / engineering, docs/dynamic.md", "test_e27_dynamic"),
)


#: Ids of retired experiments, never reused.  E22's baseline code is gone;
#: E23–E26 were single best-of wall-clock readings, whose claims tier-1
#: tests and perfbench's distributions now carry (EXPERIMENTS.md).
RETIRED: tuple[str, ...] = ("E22", "E23", "E24", "E25", "E26")


def experiment(exp_id: str) -> Experiment:
    """Look one experiment up by id (raises KeyError if unknown)."""
    for e in EXPERIMENTS:
        if e.exp_id == exp_id:
            return e
    raise KeyError(f"unknown experiment id {exp_id!r}")


def bench_module_name(exp_id: str) -> str:
    """The benchmarks/ file (without .py) regenerating an experiment."""
    return experiment(exp_id).bench_module
