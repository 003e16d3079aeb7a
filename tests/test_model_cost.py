"""Tests for the analytic cost model (repro.model.cost).

The central invariant: the model's per-iteration flop/word predictions equal
the engine's measured counters exactly — they count the same events — which
is what justifies selecting strategies from predictions alone.
"""

import numpy as np
import pytest

from repro.core import strategy as S
from repro.core.engine import MemoizedMttkrp, contraction_work
from repro.core.symbolic import SymbolicTree
from repro.model.cost import (DEFAULT_MACHINE, ExecutionParams, MachineModel,
                              cost_from_symbolic, cost_report,
                              iteration_flops_words, node_cost_terms,
                              parallel_iteration_seconds,
                              simulate_peak_value_bytes, symbolic_index_bytes)
from repro.obs import switch
from repro.perf import counting

from .helpers import random_coo, random_factors

RANK = 4


def run_one_iteration(engine, rng):
    """Run a full steady-state CP-ALS iteration's MTTKRPs + updates."""
    for n in engine.mode_order:
        engine.mttkrp(n)
        engine.update_factor(
            n, rng.standard_normal((engine.tensor.shape[n], engine.rank))
        )


STRATEGIES = [
    S.star(4),
    S.two_way(4),
    S.chain(4, 2),
    S.balanced_binary(4),
    S.from_nested((0, (1, 2, 3))),
]


class TestModelMatchesCounters:
    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
    def test_flops_and_words_exact(self, strategy):
        rng = np.random.default_rng(0)
        tensor = random_coo(rng, (6, 5, 7, 4), 80)
        sym = SymbolicTree(tensor, strategy)
        engine = MemoizedMttkrp(
            tensor, strategy, random_factors(rng, tensor.shape, RANK),
            symbolic=sym,
        )
        run_one_iteration(engine, rng)  # warm-up to steady state
        with counting() as c:
            run_one_iteration(engine, rng)
        flops, words = iteration_flops_words(strategy, sym.node_nnz(), RANK)
        assert c.flops == flops
        assert c.words == words

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
    def test_per_node_rebuild_spans_match_terms(self, strategy):
        """Per node, not just per iteration: the steady-state sweep rebuilds
        every non-root node once, and the work its span's inputs imply is
        that node's predicted contraction (its terms minus the scatter)."""
        rng = np.random.default_rng(0)
        tensor = random_coo(rng, (6, 5, 7, 4), 80)
        sym = SymbolicTree(tensor, strategy)
        engine = MemoizedMttkrp(
            tensor, strategy, random_factors(rng, tensor.shape, RANK),
            symbolic=sym,
        )
        with switch.enabled("trace") as on:
            run_one_iteration(engine, rng)  # warm-up to steady state
            on["trace"].clear()
            run_one_iteration(engine, rng)
            spans = [r for r in on["trace"].finished()
                     if r.kind == "node_rebuild"]
        terms = {t.node_id: t
                 for t in node_cost_terms(strategy, sym.node_nnz(), RANK)
                 if t.parent is not None}
        by_node = {int(r.attrs["node"]): r for r in spans}
        assert len(spans) == len(by_node)  # no node rebuilt twice
        assert sorted(by_node) == sorted(terms)
        for nid, rec in by_node.items():
            term = terms[nid]
            assert rec.attrs["nnz"] == term.nnz
            assert contraction_work(rec.attrs["parent_nnz"], RANK,
                                    len(strategy.nodes[nid].delta)) == \
                (term.flops, term.words - term.scatter_words)

    @pytest.mark.parametrize("order", [3, 5, 6])
    def test_flops_exact_other_orders(self, order):
        rng = np.random.default_rng(order)
        tensor = random_coo(rng, tuple([5] * order), 60)
        strategy = S.balanced_binary(order)
        sym = SymbolicTree(tensor, strategy)
        engine = MemoizedMttkrp(
            tensor, strategy, random_factors(rng, tensor.shape, 3),
            symbolic=sym,
        )
        run_one_iteration(engine, rng)
        with counting() as c:
            run_one_iteration(engine, rng)
        flops, _ = iteration_flops_words(strategy, sym.node_nnz(), 3)
        assert c.flops == flops

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
    def test_peak_value_bytes_matches_engine(self, strategy):
        rng = np.random.default_rng(1)
        tensor = random_coo(rng, (6, 5, 7, 4), 80)
        sym = SymbolicTree(tensor, strategy)
        engine = MemoizedMttkrp(
            tensor, strategy, random_factors(rng, tensor.shape, RANK),
            symbolic=sym,
        )
        peak = 0
        for _ in range(2):
            for n in engine.mode_order:
                engine.mttkrp(n)
                peak = max(peak, engine.live_value_bytes())
                engine.update_factor(
                    n, rng.standard_normal((tensor.shape[n], RANK))
                )
        assert peak == simulate_peak_value_bytes(strategy, sym.node_nnz(), RANK)

    @pytest.mark.parametrize("strategy", STRATEGIES, ids=lambda s: s.name)
    def test_index_bytes_matches_symbolic(self, strategy):
        """The modeled index bytes bound the arrays the tree keeps, node
        by node, and equal them wherever a node carries a parent-row map
        and its own length-class layout (and at the root)."""
        rng = np.random.default_rng(2)
        for nnz in (80, 400):
            tensor = random_coo(rng, (6, 5, 7, 4), nnz)
            sym = SymbolicTree(tensor, strategy)
            node_nnz = sym.node_nnz()
            terms = node_cost_terms(strategy, node_nnz, RANK)
            for term in terms:
                measured = sym.node_index_nbytes(term.node_id)
                ki = sym.kernel_index(term.node_id)
                if ki is None or (ki.perm is not None
                                  and ki.layout is not None):
                    assert term.index_bytes == measured
                else:
                    assert term.index_bytes > measured
            modeled = symbolic_index_bytes(strategy, node_nnz)
            assert modeled == sum(t.index_bytes for t in terms)
            assert modeled >= sym.index_nbytes()


class TestCostReport:
    def test_star_flops_formula(self):
        """Star: every leaf rebuilt from the root with N-1 contractions."""
        strategy = S.star(4)
        nnz = 1000
        # Node nnz irrelevant beyond the root for flops (parents are root).
        node_nnz = [nnz] + [10] * (len(strategy.nodes) - 1)
        flops, _ = iteration_flops_words(strategy, node_nnz, 8)
        assert flops == 4 * nnz * 8 * 4  # N leaves * nnz * R * (N-1 + 1)

    def test_memoization_reduces_predicted_flops_with_overlap(self):
        """With strong overlap the BDT predicts fewer flops than the star."""
        rng = np.random.default_rng(3)
        # Heavy prefix sharing -> intermediate nodes shrink.
        idx = np.array(
            [[i % 3, i % 3, i % 5, i % 5] for i in range(200)]
        )
        from repro.core.coo import CooTensor

        tensor = CooTensor(idx, rng.random(200), (3, 3, 5, 5))
        star_sym = SymbolicTree(tensor, S.star(4))
        bdt_sym = SymbolicTree(tensor, S.balanced_binary(4))
        star_cost = cost_from_symbolic(star_sym, 16)
        bdt_cost = cost_from_symbolic(bdt_sym, 16)
        assert bdt_cost.flops_per_iteration < star_cost.flops_per_iteration

    def test_star_zero_peak_memory_except_leaves(self):
        strategy = S.star(3)
        node_nnz = [100, 10, 10, 10]
        peak = simulate_peak_value_bytes(strategy, node_nnz, 2)
        # Only one leaf value matrix lives at a time under the schedule.
        assert peak == 10 * 2 * 8

    def test_total_memory_is_sum(self):
        rng = np.random.default_rng(4)
        tensor = random_coo(rng, (5, 5, 5), 40)
        report = cost_from_symbolic(SymbolicTree(tensor, S.star(3)), 2)
        assert report.total_memory_bytes == (
            report.peak_value_bytes + report.index_bytes
        )

    def test_node_nnz_length_validation(self):
        with pytest.raises(ValueError):
            cost_report(S.star(3), [1, 2], 4)

    def test_summary_renders(self):
        rng = np.random.default_rng(5)
        tensor = random_coo(rng, (4, 4, 4), 20)
        report = cost_from_symbolic(SymbolicTree(tensor, S.star(3)), 2)
        assert "star" in report.summary()


class TestMachineModel:
    def test_seconds_linear(self):
        m = MachineModel(alpha_per_flop=2.0, beta_per_word=3.0)
        assert m.seconds(10, 100) == pytest.approx(320.0)

    def test_default_machine_positive(self):
        assert DEFAULT_MACHINE.alpha_per_flop > 0
        assert DEFAULT_MACHINE.beta_per_word > 0

    def test_predicted_seconds_uses_machine(self):
        rng = np.random.default_rng(6)
        tensor = random_coo(rng, (4, 4, 4), 20)
        sym = SymbolicTree(tensor, S.star(3))
        fast = cost_from_symbolic(sym, 2, MachineModel(1e-12, 1e-12))
        slow = cost_from_symbolic(sym, 2, MachineModel(1e-6, 1e-6))
        assert slow.predicted_seconds > fast.predicted_seconds


class TestExecutionModel:
    """The thread-tier scaling model behind E8's modeled column:
    :func:`parallel_iteration_seconds` over :class:`ExecutionParams`."""

    @pytest.fixture
    def cost(self, monkeypatch):
        import os

        # Enough CPUs that the model's clamp leaves p untouched.
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(16)), raising=False)
        rng = np.random.default_rng(12)
        tensor = random_coo(rng, (40, 30, 25, 20), 5000)
        return cost_from_symbolic(SymbolicTree(tensor, S.balanced_binary(4)),
                                  16)

    def test_terms_sum_to_prediction(self, cost):
        """GIL-serial share + Amdahl/bandwidth-scaled kernel + one barrier
        per MTTKRP is the whole prediction."""
        params = ExecutionParams(bandwidth_workers=2)
        serial = DEFAULT_MACHINE.seconds(cost.flops_per_iteration,
                                         cost.words_per_iteration)
        gil = serial * params.gil_serial_fraction
        kernel = (serial - gil) * (
            params.memory_bound_fraction / 2
            + (1.0 - params.memory_bound_fraction) / 4
        )
        sync = params.sync_seconds * cost.strategy.n_modes
        assert parallel_iteration_seconds(cost, 4, params=params) == \
            pytest.approx(gil + kernel + sync)

    def test_single_worker_recommends_thread(self, cost):
        """One worker runs the inline engine: no GIL share, bandwidth cap
        or barrier is charged, only the serial machine time."""
        params = ExecutionParams(gil_serial_fraction=0.9,
                                 bandwidth_workers=1, sync_seconds=10.0)
        assert parallel_iteration_seconds(cost, 1, params=params) == \
            DEFAULT_MACHINE.seconds(cost.flops_per_iteration,
                                    cost.words_per_iteration)
