"""Equivalence suite: fused closed-form kernels vs the autograd oracle.

The fused fast path (:mod:`repro.nn.fused`) promises **bit-identical**
trained weights and loss curves to the closure-based autograd reference for
every eligible head.  These tests enforce that promise:

* a seeded property sweep across random hidden sizes, odd batch sizes,
  class counts, every searched activation (with a drawn LeakyReLU slope),
  both losses and both optimisers (hypothesis drives the configuration
  space; every comparison is exact equality, not allclose);
* the batched multi-candidate trainer vs per-head reference runs, including
  mixed shape and activation groups and fallback heads inside one batch;
* the lockstep loop: heads of every signature in one ``train_mlp_stacks``
  call, one loss-kernel call and one optimiser step per minibatch;
* the search-level batch evaluator vs executor-mapped single evaluations;
* an end-to-end :class:`~repro.core.MuffinSearch` run with the fast path on
  vs off;
* structural eligibility of :func:`~repro.nn.fused.extract_fused_stack`.
"""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nn
from repro.core import DEFAULT_ACTIVATIONS, HeadTrainConfig, MuffinSearch, SearchConfig
from repro.core.fusing import MuffinHead
from repro.core.search import evaluate_task, evaluate_task_batch
from repro.core.trainer import train_head_on_outputs, train_heads_batched
from repro.nn.fused import FusedParamBlock, extract_fused_stack
from repro.obs import TraceWriter, install, load_spans, uninstall


def _proxy(rng, n, num_classes, dim):
    return (
        rng.random((n, dim)),
        rng.integers(0, num_classes, n),
        rng.random(n) + 0.05,
    )


def _head(dim, num_classes, hidden, activation, seed, negative_slope=None):
    """A seeded muffin head; ``negative_slope`` overrides LeakyReLU's default."""
    head = MuffinHead(dim, num_classes, hidden, activation, seed=seed)
    if negative_slope is not None:
        for module in head.modules():
            if isinstance(module, nn.LeakyReLU):
                module.negative_slope = negative_slope
    return head


def _assert_heads_identical(reference: nn.Module, fused: nn.Module) -> None:
    ref_state = reference.state_dict()
    fused_state = fused.state_dict()
    assert set(ref_state) == set(fused_state)
    for key in ref_state:
        assert np.array_equal(ref_state[key], fused_state[key]), key


# ---------------------------------------------------------------------------
# Property sweep: fused vs autograd, bit-exact
# ---------------------------------------------------------------------------
@given(
    hidden=st.lists(st.integers(2, 24), min_size=0, max_size=3),
    batch_size=st.integers(16, 96),
    num_classes=st.integers(2, 9),
    n=st.integers(33, 200),
    loss=st.sampled_from(["weighted_mse", "weighted_ce"]),
    optimizer=st.sampled_from(["adam", "sgd"]),
    weight_decay=st.sampled_from([0.0, 1e-4]),
    activation=st.sampled_from(DEFAULT_ACTIVATIONS),
    slope=st.floats(0.0, 0.5),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_fused_training_matches_autograd_bit_exactly(
    hidden, batch_size, num_classes, n, loss, optimizer, weight_decay, activation, slope, seed
):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 30))
    outputs, labels, weights = _proxy(rng, n, num_classes, dim)
    base = dict(
        epochs=3,
        batch_size=batch_size,
        lr=5e-3,
        weight_decay=weight_decay,
        optimizer=optimizer,
        loss=loss,
        seed=seed % 1000,
    )
    head_seed = int(rng.integers(0, 2**31 - 1))

    slope = slope if activation == "leaky_relu" else None
    reference = _head(dim, num_classes, hidden, activation, head_seed, slope)
    fused = _head(dim, num_classes, hidden, activation, head_seed, slope)
    assert extract_fused_stack(fused) is not None  # the sweep must hit the kernels
    ref_result = train_head_on_outputs(
        reference, outputs, labels, weights, num_classes,
        HeadTrainConfig(use_fused=False, **base),
    )
    fused_result = train_head_on_outputs(
        fused, outputs, labels, weights, num_classes,
        HeadTrainConfig(use_fused=True, **base),
    )

    assert ref_result.losses == fused_result.losses
    _assert_heads_identical(reference, fused)


# ---------------------------------------------------------------------------
# Batched trainer
# ---------------------------------------------------------------------------
class TestBatchedTrainer:
    NUM_CLASSES = 6

    def _batch(self, specs, seed=0):
        rng = np.random.default_rng(seed)
        n = 157
        labels = rng.integers(0, self.NUM_CLASSES, n)
        weights = rng.random(n) + 0.05
        outputs = [rng.random((n, dim)) for _, dim, _ in specs]
        heads = lambda: [  # noqa: E731 - two identical sets of fresh heads
            MuffinHead(dim, self.NUM_CLASSES, hidden, activation, seed=100 + i)
            for i, (hidden, dim, activation) in enumerate(specs)
        ]
        return heads, outputs, labels, weights

    def test_mixed_shape_groups_match_per_head_runs(self):
        specs = [
            ((16,), 12, "relu"),
            ((16,), 12, "relu"),
            ((8, 4), 12, "relu"),
            ((), 18, "relu"),
            ((16,), 18, "relu"),
            ((16,), 12, "tanh"),
            ((8, 4), 12, "sigmoid"),
            ((16,), 12, "leaky_relu"),
            ((), 18, "tanh"),
        ]
        make_heads, outputs, labels, weights = self._batch(specs)
        config = HeadTrainConfig(epochs=4, batch_size=32, seed=3)
        reference_config = HeadTrainConfig(epochs=4, batch_size=32, seed=3, use_fused=False)

        reference_heads = make_heads()
        reference_results = [
            train_head_on_outputs(
                head, matrix, labels, weights, self.NUM_CLASSES, reference_config
            )
            for head, matrix in zip(reference_heads, outputs)
        ]
        batched_heads = make_heads()
        batched_results = train_heads_batched(
            batched_heads, outputs, labels, weights, self.NUM_CLASSES, config
        )

        assert len(batched_results) == len(specs)
        for ref_head, ref_result, fused_head, fused_result in zip(
            reference_heads, reference_results, batched_heads, batched_results
        ):
            assert ref_result.losses == fused_result.losses
            assert ref_result.proxy_size == fused_result.proxy_size
            _assert_heads_identical(ref_head, fused_head)

    def test_non_relu_heads_fall_back_inside_the_batch(self):
        """Heads the kernels cannot express — a plugin activation, dropout —
        train on the autograd loop beside the fused heads of one batch."""

        class ShiftedReLU(nn.ReLU):  # a subclass with its own forward
            def forward(self, x):
                return (x + 0.1).relu()

        rng = np.random.default_rng(5)
        n, dim = 157, 12
        labels = rng.integers(0, self.NUM_CLASSES, n)
        weights = rng.random(n) + 0.05
        outputs = [rng.random((n, dim)) for _ in range(3)]

        def make_heads():
            return [
                MuffinHead(dim, self.NUM_CLASSES, (16,), "tanh", seed=100),
                nn.Sequential(
                    nn.Linear(dim, 16, rng=np.random.default_rng(1)),
                    ShiftedReLU(),
                    nn.Linear(16, self.NUM_CLASSES, rng=np.random.default_rng(2)),
                ),
                nn.MLP(
                    dim, [8], self.NUM_CLASSES, activation="sigmoid", dropout=0.3,
                    rng=np.random.default_rng(3),
                ),
            ]

        config = HeadTrainConfig(epochs=3, batch_size=64, seed=1)
        reference_config = HeadTrainConfig(epochs=3, batch_size=64, seed=1, use_fused=False)
        reference_heads = make_heads()
        reference_results = [
            train_head_on_outputs(
                head, matrix, labels, weights, self.NUM_CLASSES, reference_config
            )
            for head, matrix in zip(reference_heads, outputs)
        ]
        batched_heads = make_heads()
        assert [extract_fused_stack(head) is not None for head in batched_heads] == [
            True, False, False
        ]
        batched_results = train_heads_batched(
            batched_heads, outputs, labels, weights, self.NUM_CLASSES, config
        )
        for ref_head, ref_result, fused_head, fused_result in zip(
            reference_heads, reference_results, batched_heads, batched_results
        ):
            assert ref_result.losses == fused_result.losses
            _assert_heads_identical(ref_head, fused_head)

    def test_leaky_relu_slopes_train_in_separate_groups(self, monkeypatch):
        import repro.nn.fused as fused_mod

        groups = []
        original = fused_mod._signature_groups

        def recording(stacks):
            positions = original(stacks)
            groups.extend([stacks[i].negative_slope for i in heads] for heads in positions)
            return positions

        monkeypatch.setattr(fused_mod, "_signature_groups", recording)
        slopes = [0.01, 0.2, 0.01]
        rng = np.random.default_rng(11)
        n, dim = 157, 12
        labels = rng.integers(0, self.NUM_CLASSES, n)
        weights = rng.random(n) + 0.05
        outputs = [rng.random((n, dim)) for _ in slopes]

        def make_heads():
            return [
                _head(dim, self.NUM_CLASSES, (16, 8), "leaky_relu", 100 + i, slope)
                for i, slope in enumerate(slopes)
            ]

        config = HeadTrainConfig(epochs=3, batch_size=48, seed=4)
        reference_config = HeadTrainConfig(epochs=3, batch_size=48, seed=4, use_fused=False)
        reference_heads = make_heads()
        reference_results = [
            train_head_on_outputs(
                head, matrix, labels, weights, self.NUM_CLASSES, reference_config
            )
            for head, matrix in zip(reference_heads, outputs)
        ]
        batched_heads = make_heads()
        batched_results = train_heads_batched(
            batched_heads, outputs, labels, weights, self.NUM_CLASSES, config
        )

        assert sorted(groups) == [[0.01, 0.01], [0.2]]
        for ref_head, ref_result, fused_head, fused_result in zip(
            reference_heads, reference_results, batched_heads, batched_results
        ):
            assert ref_result.losses == fused_result.losses
            _assert_heads_identical(ref_head, fused_head)

    def test_use_fused_false_forces_the_reference_path_for_all(self):
        specs = [((16,), 12, "relu"), ((16,), 12, "relu")]
        make_heads, outputs, labels, weights = self._batch(specs, seed=9)
        config = HeadTrainConfig(epochs=2, batch_size=64, seed=2, use_fused=False)
        reference_heads = make_heads()
        for head, matrix in zip(reference_heads, outputs):
            train_head_on_outputs(head, matrix, labels, weights, self.NUM_CLASSES, config)
        batched_heads = make_heads()
        train_heads_batched(batched_heads, outputs, labels, weights, self.NUM_CLASSES, config)
        for ref_head, fused_head in zip(reference_heads, batched_heads):
            _assert_heads_identical(ref_head, fused_head)

    def test_validates_misaligned_inputs(self):
        make_heads, outputs, labels, weights = self._batch([((16,), 12, "relu")])
        with pytest.raises(ValueError, match="align one-to-one"):
            train_heads_batched(
                make_heads(), outputs + outputs, labels, weights, self.NUM_CLASSES
            )

    @pytest.mark.parametrize("use_fused", [True, False])
    @pytest.mark.parametrize("bad_label", [-1, NUM_CLASSES])
    def test_out_of_range_labels_raise_on_both_paths(self, use_fused, bad_label):
        make_heads, outputs, labels, weights = self._batch([((16,), 12, "relu")] * 2)
        labels[5] = bad_label
        config = HeadTrainConfig(epochs=1, batch_size=64, use_fused=use_fused)
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 6\)"):
            train_heads_batched(make_heads(), outputs, labels, weights, self.NUM_CLASSES, config)

    @pytest.mark.parametrize("bad", ["output_width", "input_width"])
    def test_a_bad_third_head_fails_before_any_head_trains(self, bad):
        specs = [((16,), 12, "relu"), ((8,), 12, "tanh"), ((16,), 12, "sigmoid")]
        make_heads, outputs, labels, weights = self._batch(specs)
        heads = make_heads()
        if bad == "output_width":
            heads[2] = MuffinHead(12, self.NUM_CLASSES + 1, (16,), "sigmoid", seed=102)
        else:
            heads[2] = MuffinHead(14, self.NUM_CLASSES, (16,), "sigmoid", seed=102)
        before = [head.state_dict() for head in heads]
        with pytest.raises(ValueError):
            train_heads_batched(
                heads, outputs, labels, weights, self.NUM_CLASSES, HeadTrainConfig(epochs=2)
            )
        for head, state in zip(heads, before):
            for key, value in head.state_dict().items():
                assert np.array_equal(value, state[key]), key


# ---------------------------------------------------------------------------
# The lockstep loop: heads of every signature in one train_mlp_stacks call
# ---------------------------------------------------------------------------
class TestLockstepLoop:
    NUM_CLASSES = 5
    N = 157
    BATCH_SIZE = 48  # 157 = 3 * 48 + 13: a ragged last batch
    EPOCHS = 3
    #: (hidden sizes, input width, activation, LeakyReLU slope): depths 1-3,
    #: every activation, two slopes, two widths and one repeated signature
    SPECS = [
        ((), 12, "relu", None),
        ((16,), 12, "relu", None),
        ((8, 6), 18, "relu", None),
        ((16,), 12, "tanh", None),
        ((8, 6), 12, "tanh", None),
        ((16,), 18, "sigmoid", None),
        ((), 18, "sigmoid", None),
        ((16,), 12, "leaky_relu", 0.01),
        ((16,), 12, "leaky_relu", 0.2),
        ((8, 6), 18, "leaky_relu", 0.2),
        ((16,), 12, "relu", None),
    ]

    def _data(self):
        rng = np.random.default_rng(21)
        labels = rng.integers(0, self.NUM_CLASSES, self.N)
        weights = rng.random(self.N) + 0.05
        inputs = [rng.random((self.N, width)) for _, width, _, _ in self.SPECS]
        return inputs, labels, weights

    def _heads(self, indices=None):
        indices = range(len(self.SPECS)) if indices is None else indices
        heads = []
        for i in indices:
            hidden, width, activation, slope = self.SPECS[i]
            heads.append(_head(width, self.NUM_CLASSES, hidden, activation, 300 + i, slope))
        return heads

    def _train(self, heads, inputs, labels, weights, loss, optimizer, backend=None):
        from repro.nn.fused import train_mlp_stacks

        return train_mlp_stacks(
            [extract_fused_stack(head) for head in heads],
            inputs,
            labels,
            weights,
            self.NUM_CLASSES,
            epochs=self.EPOCHS,
            batch_size=self.BATCH_SIZE,
            lr=5e-3,
            weight_decay=1e-4,
            optimizer=optimizer,
            loss=loss,
            seed=6,
            backend=backend,
        ).losses

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("loss", ["weighted_mse", "weighted_ce"])
    def test_mixed_signatures_match_each_head_alone(self, loss, optimizer):
        inputs, labels, weights = self._data()
        heads = self._heads()
        signatures = {extract_fused_stack(head).signature for head in heads}
        assert len(signatures) == len(self.SPECS) - 1
        losses = self._train(heads, inputs, labels, weights, loss, optimizer)

        oracle_config = HeadTrainConfig(
            epochs=self.EPOCHS, batch_size=self.BATCH_SIZE, lr=5e-3, weight_decay=1e-4,
            optimizer=optimizer, loss=loss, seed=6, use_fused=False,
        )
        for index, (head, matrix) in enumerate(zip(self._heads(), inputs)):
            result = train_head_on_outputs(
                head, matrix, labels, weights, self.NUM_CLASSES, oracle_config
            )
            assert losses[index] == result.losses, index
            _assert_heads_identical(head, heads[index])

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    @pytest.mark.parametrize("loss", ["weighted_mse", "weighted_ce"])
    def test_float32_mixed_signatures_match_per_group_calls(self, loss, optimizer):
        inputs, labels, weights = self._data()
        heads = self._heads()
        losses = self._train(heads, inputs, labels, weights, loss, optimizer, "numpy-float32")

        groups = {}
        for index, head in enumerate(self._heads()):
            groups.setdefault(extract_fused_stack(head).signature, []).append(index)
        for indices in groups.values():
            group_heads = self._heads(indices)
            group_losses = self._train(
                group_heads, [inputs[i] for i in indices], labels, weights, loss, optimizer,
                "numpy-float32",
            )
            for index, head, curve in zip(indices, group_heads, group_losses):
                assert losses[index] == curve, index
                _assert_heads_identical(head, heads[index])

    def test_one_loss_kernel_and_optimiser_step_per_minibatch(self, monkeypatch):
        import repro.nn.fused as fused_mod

        calls = {"loss": 0, "step": 0, "groups": 0}
        kernel = fused_mod._LOSS_KERNELS["weighted_mse"]
        step = fused_mod.FusedAdam.step
        signature_groups = fused_mod._signature_groups

        def counting_kernel(*args):
            calls["loss"] += 1
            return kernel(*args)

        def counting_step(self, theta, grad):
            calls["step"] += 1
            return step(self, theta, grad)

        def counting_groups(stacks):
            positions = signature_groups(stacks)
            calls["groups"] += len(positions)
            return positions

        monkeypatch.setitem(fused_mod._LOSS_KERNELS, "weighted_mse", counting_kernel)
        monkeypatch.setattr(fused_mod.FusedAdam, "step", counting_step)
        monkeypatch.setattr(fused_mod, "_signature_groups", counting_groups)
        inputs, labels, weights = self._data()
        self._train(self._heads(), inputs, labels, weights, "weighted_mse", "adam")

        steps = self.EPOCHS * -(-self.N // self.BATCH_SIZE)
        assert calls == {"loss": steps, "step": steps, "groups": len(self.SPECS) - 1}


@pytest.mark.parametrize("num_classes", [2, 3, 8, 9, 40])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_class_max_equals_the_row_max(num_classes, dtype):
    from repro.nn.fused import _class_max

    rng = np.random.default_rng(num_classes)
    for shape in [(5, 128, num_classes), (1, 13, num_classes), (2, 256, num_classes)]:
        logits = rng.standard_normal(shape).astype(dtype)
        logits[0, 0] = -np.abs(logits[0, 0])
        logits[0, 0, :2] = [0.0, -0.0]  # a row whose maximum is a signed-zero tie
        logits[0, 1, 1] = np.nan
        got = _class_max(logits)
        assert got.dtype == logits.dtype
        np.testing.assert_array_equal(got, logits.max(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# Search-level batch evaluation and end-to-end identity
# ---------------------------------------------------------------------------
class TestSearchIntegration:
    def _search(self, pool, use_fused, seed=0, episodes=6, episode_batch=3):
        return MuffinSearch(
            pool,
            attributes=["age", "site"],
            base_model="MobileNet_V3_Small",
            search_config=SearchConfig(
                episodes=episodes, episode_batch=episode_batch, seed=seed
            ),
            head_config=HeadTrainConfig(epochs=5, seed=seed, use_fused=use_fused),
        )

    def test_evaluate_task_batch_matches_mapped_evaluate_task(self, pool):
        from repro.core.search_space import FusingCandidate

        search = self._search(pool, use_fused=True)
        candidates = [
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (16,), "relu"),
            FusingCandidate(("MobileNet_V3_Small", "DenseNet121"), (16,), "relu"),
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (8, 4), "relu"),
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (16,), "tanh"),
            FusingCandidate(("MobileNet_V3_Small", "DenseNet121"), (16,), "tanh"),
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (8,), "sigmoid"),
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (8, 4), "leaky_relu"),
        ]
        tasks = [
            search._task_for(candidate, search.candidate_seed(candidate))
            for candidate in candidates
        ]
        batched = evaluate_task_batch(tasks)
        mapped = [evaluate_task(task) for task in tasks]
        assert len(batched) == len(mapped)
        for got, expected in zip(batched, mapped):
            assert np.array_equal(got.predictions, expected.predictions)
            assert got.losses == expected.losses
            assert got.head_parameters == expected.head_parameters
            for key in expected.head_state:
                assert np.array_equal(got.head_state[key], expected.head_state[key])

    def test_end_to_end_search_identical_fused_on_and_off(self, pool):
        fused_result = self._search(pool, use_fused=True).run()
        reference_result = self._search(pool, use_fused=False).run()
        assert [r.reward for r in fused_result.records] == [
            r.reward for r in reference_result.records
        ]
        assert [r.candidate for r in fused_result.records] == [
            r.candidate for r in reference_result.records
        ]
        assert [r.train_losses for r in fused_result.records] == [
            r.train_losses for r in reference_result.records
        ]
        for fused_record, reference_record in zip(
            fused_result.records, reference_result.records
        ):
            for key in reference_record.head_state:
                assert np.array_equal(
                    fused_record.head_state[key], reference_record.head_state[key]
                )

    def test_mixed_batches_split_between_fused_path_and_executor(self, pool):
        """Under use_fused a batch mixing every activation trains on the
        batched kernels and never reaches the executor; the oracle maps it
        all through the executor — and the records stay bit-identical."""
        from repro.core.search_space import FusingCandidate

        class CountingExecutor:
            max_workers = 1

            def __init__(self):
                self.mapped = 0

            def map(self, fn, items):
                items = list(items)
                self.mapped += len(items)
                return [fn(item) for item in items]

            def shutdown(self):
                pass

        candidates = [
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (16,), "relu"),
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (16,), "tanh"),
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (8,), "sigmoid"),
            FusingCandidate(("MobileNet_V3_Small", "ResNet-18"), (8,), "leaky_relu"),
        ]
        fused_executor = CountingExecutor()
        fused_records = self._search(pool, use_fused=True).evaluate_batch(
            candidates, executor=fused_executor
        )
        assert fused_executor.mapped == 0
        reference_executor = CountingExecutor()
        reference_records = self._search(pool, use_fused=False).evaluate_batch(
            candidates, executor=reference_executor
        )
        assert reference_executor.mapped == 4  # everything
        assert len(fused_records) == len(reference_records) == 4
        for fused_record, reference_record in zip(fused_records, reference_records):
            assert fused_record.reward == reference_record.reward
            assert fused_record.train_losses == reference_record.train_losses
            for key in reference_record.head_state:
                assert np.array_equal(
                    fused_record.head_state[key], reference_record.head_state[key]
                )

    def test_every_batch_traces_one_train_and_one_score_span(self, pool):
        buffer = io.StringIO()
        install(TraceWriter(buffer))
        try:
            self._search(pool, use_fused=True).run()
        finally:
            uninstall()
        buffer.seek(0)
        rows = load_spans(buffer)
        batches = [row for row in rows if row["name"] == "search/batch"]
        assert len(batches) == 2
        for batch in batches:
            children = [row for row in rows if row["parent_id"] == batch["span_id"]]
            for name in ("search/train", "search/score"):
                matching = [row for row in children if row["name"] == name]
                assert len(matching) == 1
                assert matching[0]["candidates"] == 3
                assert matching[0]["duration_s"] <= batch["duration_s"]


# ---------------------------------------------------------------------------
# Backend/precision layer: float64 identity, float32 tolerance contract
# ---------------------------------------------------------------------------
class TestBackends:
    NUM_CLASSES = 5

    def _workload(self, activation="relu", seed=7, n=300, dim=14):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, self.NUM_CLASSES, n)
        weights = rng.random(n) + 0.05
        outputs = [rng.random((n, dim)) for _ in range(3)]
        make_heads = lambda: [  # noqa: E731 - fresh identical head sets
            MuffinHead(dim, self.NUM_CLASSES, (16,), activation, seed=40 + i)
            for i in range(3)
        ]
        return make_heads, outputs, labels, weights

    def _train(self, backend, activation="relu"):
        make_heads, outputs, labels, weights = self._workload(activation)
        config = HeadTrainConfig(epochs=6, batch_size=64, seed=2, backend=backend)
        heads = make_heads()
        results = train_heads_batched(
            heads, outputs, labels, weights, self.NUM_CLASSES, config
        )
        return heads, results

    def test_backend_aliases_resolve_at_config_time(self):
        assert HeadTrainConfig(backend="fp32").backend == "numpy-float32"
        assert HeadTrainConfig(backend="float64").backend == "numpy-float64"

    def test_unknown_backend_fails_at_config_time_with_suggestion(self):
        with pytest.raises(KeyError, match="numpy-float32"):
            HeadTrainConfig(backend="numpy-float3")

    def test_explicit_float64_backend_is_bit_identical_to_default(self):
        default_heads, default_results = self._train("numpy-float64")
        implicit_heads, implicit_results = self._train(None)
        for a, b in zip(default_results, implicit_results):
            assert a.losses == b.losses
        for a, b in zip(default_heads, implicit_heads):
            _assert_heads_identical(a, b)

    def test_float32_backend_satisfies_the_tolerance_contract(self):
        for activation in DEFAULT_ACTIVATIONS:
            self._check_float32_contract(activation)

    def _check_float32_contract(self, activation):
        from repro.core import assert_backend_close

        oracle_heads, oracle_results = self._train("numpy-float64", activation)
        fp32_heads, fp32_results = self._train("numpy-float32", activation)
        for oracle, fp32 in zip(oracle_results, fp32_results):
            assert_backend_close(
                "numpy-float32", "loss_curve", fp32.losses, oracle.losses
            )
        for oracle_head, fp32_head in zip(oracle_heads, fp32_heads):
            oracle_state = oracle_head.state_dict()
            fp32_state = fp32_head.state_dict()
            assert set(oracle_state) == set(fp32_state)
            for key in oracle_state:
                # parameters are widened back to one canonical float64 dtype
                assert fp32_state[key].dtype == np.float64
                assert_backend_close(
                    "numpy-float32", "head_weights", fp32_state[key], oracle_state[key]
                )

    @pytest.mark.parametrize("activation", DEFAULT_ACTIVATIONS)
    def test_float32_block_forward_stays_float32(self, activation):
        from repro.nn.fused import _forward

        _, outputs, _, _ = self._workload(activation)
        head = MuffinHead(14, self.NUM_CLASSES, (16, 8), activation, seed=3)
        stack = extract_fused_stack(head)
        block = FusedParamBlock([stack], dtype=np.float32)
        x = np.stack([outputs[0][:64]]).astype(np.float32)
        logits, layer_inputs, factors = _forward(block.weights, block.biases, x, stack.activate)
        intermediates = [logits, *layer_inputs, *(f for fs in factors for f in fs)]
        assert len(factors) == 2
        assert all(array.dtype == np.float32 for array in intermediates)

    def test_float32_backend_must_actually_diverge(self):
        """Guards the contract test against accidentally running float64."""
        oracle_heads, _ = self._train("numpy-float64")
        fp32_heads, _ = self._train("numpy-float32")
        drifted = any(
            not np.array_equal(a.state_dict()[key], b.state_dict()[key])
            for a, b in zip(oracle_heads, fp32_heads)
            for key in a.state_dict()
        )
        assert drifted, "float32 training reproduced float64 bits exactly"

    def test_identity_assertion_rejects_drift(self):
        from repro.core import assert_backend_close

        with pytest.raises(AssertionError, match="identity backend"):
            assert_backend_close(
                "numpy-float64", "head_weights", np.array([1.0]), np.array([1.0 + 1e-12])
            )


# ---------------------------------------------------------------------------
# Structural eligibility
# ---------------------------------------------------------------------------
class TestEligibility:
    def test_relu_muffin_head_is_eligible(self):
        head = MuffinHead(12, 4, (16, 8), "relu", seed=0)
        stack = extract_fused_stack(head)
        assert stack is not None
        assert stack.shapes == ((12, 16), (16, 8), (8, 4))
        assert stack.num_parameters == head.num_parameters()

    def test_linear_only_head_is_eligible(self):
        stack = extract_fused_stack(MuffinHead(12, 4, (), "relu", seed=0))
        assert stack is not None
        assert stack.shapes == ((12, 4),)

    @pytest.mark.parametrize("activation", DEFAULT_ACTIVATIONS)
    def test_every_searched_activation_is_eligible(self, activation):
        stack = extract_fused_stack(MuffinHead(12, 4, (16, 8), activation, seed=0))
        assert stack is not None
        assert stack.shapes == ((12, 16), (16, 8), (8, 4))
        assert stack.activation == activation
        assert stack.negative_slope == (0.01 if activation == "leaky_relu" else None)

    def test_linear_only_heads_share_one_signature(self):
        signatures = {
            extract_fused_stack(MuffinHead(12, 4, (), activation, seed=0)).signature
            for activation in DEFAULT_ACTIVATIONS
        }
        assert signatures == {(((12, 4),), None, None)}

    def test_mixed_activations_are_not_eligible(self):
        net = nn.Sequential(
            nn.Linear(12, 16), nn.ReLU(), nn.Linear(16, 8), nn.Tanh(), nn.Linear(8, 4)
        )
        assert extract_fused_stack(net) is None

    def test_mixed_leaky_relu_slopes_are_not_eligible(self):
        net = nn.Sequential(
            nn.Linear(12, 16), nn.LeakyReLU(0.01), nn.Linear(16, 8), nn.LeakyReLU(0.2),
            nn.Linear(8, 4),
        )
        assert extract_fused_stack(net) is None

    def test_activation_subclass_is_not_eligible(self):
        class ShiftedTanh(nn.Tanh):
            def forward(self, x):
                return (x + 0.1).tanh()

        net = nn.Sequential(nn.Linear(12, 16), ShiftedTanh(), nn.Linear(16, 4))
        assert extract_fused_stack(net) is None

    def test_dropout_is_not_eligible(self):
        for activation in DEFAULT_ACTIVATIONS:
            mlp = nn.MLP(12, [16], 4, activation=activation, dropout=0.5)
            assert extract_fused_stack(mlp) is None, activation

    def test_bias_free_linear_is_not_eligible(self):
        net = nn.Sequential(nn.Linear(12, 4, bias=False))
        assert extract_fused_stack(net) is None

    def test_unknown_wrapper_without_delegate_is_not_eligible(self):
        class Opaque(nn.Module):
            def __init__(self):
                super().__init__()
                self.inner = nn.Linear(4, 2)

            def forward(self, x):
                return self.inner(x) * 2.0

        assert extract_fused_stack(Opaque()) is None
