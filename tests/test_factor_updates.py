"""In-place factor updates in CP-ALS.

``cp_als`` keeps one factor array per mode for the whole run and writes
each update into it; a mode with empty slices solves straight from its
leaf's value rows (:meth:`MemoizedMttkrp.mttkrp_rows`).  These tests pin
that the row-only MTTKRP equals the full one, that telemetry still sees
the factor before each update, that no full-size temporary is allocated
per iteration, and the callback's read-only, shared model.
"""

import tracemalloc

import numpy as np
import pytest

from repro.baselines import CooMttkrp, SplattMttkrp, TtvMttkrp
from repro.core import strategy as S
from repro.core.cpals import cp_als, initialize_factors
from repro.core.kruskal import KruskalTensor
from repro.model.overlap import DistinctCounter
from repro.model.search import dp_tree
from repro.obs import switch
from repro.obs.health import rel_delta

from .helpers import random_factors
from .test_empty_slices import CASES, make_engine, sliced_tensor

RANK = 6


def nonempty_rows(tensor, mode):
    return np.flatnonzero(tensor.slice_nnz(mode))


def strategies(tensor):
    return {
        "star": S.star(tensor.ndim),
        "balanced": S.balanced_binary(tensor.ndim),
        "dp": dp_tree(DistinctCounter(tensor), RANK),
        "kary": S.from_nested((0, (1, 2, 3))),
    }


class TestMttkrpRows:
    def test_case_has_both_leaf_orders(self):
        # every_mode's balanced tree stores leaves 1 and 3 out of
        # lexicographic order, and leaves 0 and 2 in it.
        tensor = CASES["every_mode"]()
        with make_engine("inline", tensor, "balanced") as engine:
            ordered = [engine.symbolic.row_order(engine.strategy.leaf_id(m))
                       is None for m in range(tensor.ndim)]
        assert ordered == [True, False, True, False]

    @pytest.mark.parametrize("name", ["star", "balanced", "dp", "kary"])
    @pytest.mark.parametrize("kind", ["inline", "thread"])
    def test_equals_full_mttkrp_rows(self, name, kind):
        tensor = CASES["every_mode"]()
        rng = np.random.default_rng(4)
        with make_engine(kind, tensor, strategies(tensor)[name]) as engine:
            engine.set_factors(random_factors(rng, tensor.shape, RANK))
            for _ in range(2):
                for n in engine.mode_order:
                    rows = nonempty_rows(tensor, n)
                    got = engine.mttkrp_rows(n, rows)
                    np.testing.assert_array_equal(got, engine.mttkrp(n)[rows])
                    engine.update_factor(
                        n, rng.random((tensor.shape[n], RANK)))

    @pytest.mark.parametrize("backend", [CooMttkrp, SplattMttkrp, TtvMttkrp])
    def test_baseline_default(self, backend):
        tensor = CASES["every_mode"]()
        engine = backend(tensor)
        engine.set_factors(random_factors(np.random.default_rng(5),
                                          tensor.shape, RANK))
        for n in engine.mode_order:
            rows = nonempty_rows(tensor, n)
            np.testing.assert_array_equal(engine.mttkrp_rows(n, rows),
                                          engine.mttkrp(n)[rows])

    def test_rejects_other_rows(self):
        tensor = CASES["one_mode"]()
        with make_engine("inline", tensor, "star") as engine:
            engine.set_factors(random_factors(np.random.default_rng(6),
                                              tensor.shape, RANK))
            with pytest.raises(ValueError, match="nonempty rows"):
                engine.mttkrp_rows(2, np.arange(tensor.shape[2]))


class TestHealthDeltas:
    def test_deltas_compare_consecutive_factors(self):
        tensor = CASES["every_mode"]()
        init = initialize_factors(tensor, RANK, "random", 3)
        models = [KruskalTensor(np.ones(RANK), init)]

        def keep(iteration, fit, model):
            models.append(KruskalTensor(model.weights, model.factors))

        with switch.enabled("health"):
            result = cp_als(tensor, RANK, strategy="star", n_iter_max=4,
                            tol=0, random_state=3, callback=keep)
        assert len(result.health_readings) == 4
        for reading, before, after in zip(result.health_readings, models,
                                          models[1:]):
            want = [rel_delta(U, U_prev) for U, U_prev
                    in zip(after.factors, before.factors)]
            assert reading.factor_deltas == want
            assert all(0.0 < d < np.inf for d in want)


class TestNoFullSizeTemporaries:
    def test_iteration_allocations_stay_below_half_a_factor(self):
        # Mode 2 has 100,000 rows, of which 1,000 are nonempty.
        tensor = sliced_tensor((30, 24, 100_000), 3000, {2: 1000})
        rank = 8
        excess = []
        live_after = []

        def measure(iteration, fit, model):
            current, peak = tracemalloc.get_traced_memory()
            if live_after:
                excess.append(peak - live_after[-1])
            # What stays live once the callback returns: the model's own
            # arrays (a copy, if the driver made one) are freed with it.
            owned = sum(a.nbytes for a in (model.weights, *model.factors)
                        if a.flags.owndata)
            live_after.append(current - owned)
            tracemalloc.reset_peak()

        tracemalloc.start()
        try:
            cp_als(tensor, rank, strategy="star", n_iter_max=4, tol=0,
                   random_state=0, callback=measure)
        finally:
            tracemalloc.stop()
        factor_bytes = tensor.shape[2] * rank * 8
        assert len(excess) == 3
        assert max(excess) < factor_bytes / 2, (excess, factor_bytes)


class TestCallbackModel:
    def test_model_is_read_only(self):
        tensor = CASES["every_mode"]()
        raised = []

        def write(iteration, fit, model):
            for array in (model.weights, *model.factors):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 1.0
            raised.append(iteration)

        cp_als(tensor, RANK, strategy="star", n_iter_max=3, tol=0,
               random_state=0, callback=write)
        assert raised == [0, 1, 2]

    def test_copies_keep_their_values(self):
        tensor = CASES["every_mode"]()
        shared, copies, snapshots = [], [], []

        def keep(iteration, fit, model):
            shared.append(model)
            copy = KruskalTensor(model.weights, model.factors)
            copies.append(copy)
            snapshots.append([U.tobytes() for U in copy.factors])

        result = cp_als(tensor, RANK, strategy="star", n_iter_max=4, tol=0,
                        random_state=0, callback=keep)
        for copy, snapshot in zip(copies, snapshots):
            assert [U.tobytes() for U in copy.factors] == snapshot
        # The models handed out share the run's arrays: the first one now
        # reads the last iteration's factors, which its copy does not.
        for n, view in enumerate(shared[0].factors):
            assert np.shares_memory(view, shared[-1].factors[n])
            np.testing.assert_array_equal(view, copies[-1].factors[n])
            assert not np.array_equal(view, copies[0].factors[n])
        for got, want in zip(result.ktensor.factors,
                             copies[-1].normalize().factors):
            np.testing.assert_array_equal(got, want)
