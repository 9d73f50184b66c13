import json

import numpy as np
import pytest

from kcod.encoder import (
    AdamState,
    EncoderModel,
    adam_step,
    backward,
    forward_batch,
    load_checkpoint,
    save_checkpoint,
    two_views_batch,
)
from kcod.errors import DataError, DivergenceError, ParameterError, StaleCacheError
from kcod.numerics import finite_diff_grad_nd, relative_error
from oracles import AdamLoopState, adam_step_loop


def small_model(seed=0, dropout=0.1):
    return EncoderModel.init(
        input_dim=5,
        cluster_count=3,
        ind_class_count=3,
        hidden_dim=7,
        feature_dim=6,
        instance_dim=4,
        dropout_rate=dropout,
        seed=seed,
    )


class TestInitAndInvariants:
    def test_bad_dims_rejected(self):
        with pytest.raises(ParameterError):
            EncoderModel.init(input_dim=0, cluster_count=2, ind_class_count=2)
        with pytest.raises(ParameterError):
            EncoderModel.init(input_dim=3, cluster_count=2, ind_class_count=2, dropout_rate=1.0)

    def test_forward_invariants(self):
        model = small_model()
        rng = np.random.default_rng(1)
        out = forward_batch(model, rng.normal(size=(6, 5)))
        assert np.allclose(np.linalg.norm(out.f, axis=1), 1.0, atol=1e-9)
        assert np.all(out.g > 0)
        assert np.allclose(out.g.sum(axis=1), 1.0, atol=1e-9)

    def test_forward_without_mask_is_pure(self):
        model = small_model()
        x = np.random.default_rng(2).normal(size=(3, 5))
        a = forward_batch(model, x)
        b = forward_batch(model, x)
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.g, b.g)
        assert np.array_equal(a.logits_ind, b.logits_ind)

    def test_single_sample_matches_batch(self):
        # a 1-D input is one row: the same bits as the explicit (1, dim) batch
        model = small_model()
        x = np.random.default_rng(3).normal(size=5)
        one = forward_batch(model, x)
        out = forward_batch(model, x[None, :])
        assert one.f.shape == (1, model.instance_dim)
        assert np.array_equal(one.z, out.z)
        assert np.array_equal(one.f, out.f)
        assert np.array_equal(one.g, out.g)
        assert np.array_equal(one.logits_ind, out.logits_ind)

    def test_input_dim_checked(self):
        with pytest.raises(ParameterError):
            forward_batch(small_model(), np.ones((2, 4)))


class TestDropout:
    def test_mask_reproducible(self):
        model = small_model(dropout=0.3)
        x = np.ones((1, 5))
        a = two_views_batch(model, x, seed=42)
        b = two_views_batch(model, x, seed=42)
        assert np.array_equal(a.cache["keep"], b.cache["keep"])

    def test_rate_zero_keeps_all(self):
        # at rate 0 an all-keep mask leaves the forward pass untouched
        model = small_model(dropout=0.0)
        x = np.random.default_rng(3).normal(size=(1, 5))
        masked = forward_batch(model, x, np.ones((1, model.hidden_dim), dtype=bool))
        assert np.array_equal(masked.f, forward_batch(model, x).f)

    def test_two_views_needs_dropout(self):
        model = small_model(dropout=0.0)
        with pytest.raises(ParameterError):
            two_views_batch(model, np.ones((1, 5)), seed=0)
        with pytest.raises(ParameterError):
            two_views_batch(model, np.ones((2, 5)), seed=0)

    def test_two_views_batch_deterministic(self):
        model = small_model(dropout=0.4)
        x = np.random.default_rng(4).normal(size=(4, 5))
        a = two_views_batch(model, x, seed=9)
        b = two_views_batch(model, x, seed=9)
        assert a.f.shape == (8, model.instance_dim)
        assert np.array_equal(a.f, b.f)
        assert not np.array_equal(a.f[:4], a.f[4:])

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_two_views_mask_is_two_sequential_draws(self, n):
        model = small_model(dropout=0.3)
        x = np.random.default_rng(5).normal(size=(n, 5))
        rng = np.random.default_rng(17)
        keep_a = rng.random((n, model.hidden_dim)) >= model.dropout_rate
        keep_b = rng.random((n, model.hidden_dim)) >= model.dropout_rate
        out = two_views_batch(model, x, seed=17)
        assert np.array_equal(out.cache["keep"], np.vstack([keep_a, keep_b]))
        assert np.array_equal(out.cache["x"], np.vstack([x, x]))
        for half, keep in ((slice(0, n), keep_a), (slice(n, 2 * n), keep_b)):
            single = forward_batch(model, x, keep)
            assert np.allclose(out.f[half], single.f, rtol=0.0, atol=1e-12)
            assert np.allclose(out.g[half], single.g, rtol=0.0, atol=1e-12)

    def test_inverted_scaling_on_full_keep(self):
        # keep-everything mask still applies the 1/(1-rate) inverted-dropout scale
        model = small_model(dropout=0.5)
        x = np.random.default_rng(5).normal(size=(3, 5))
        keep = np.ones((3, model.hidden_dim), dtype=bool)
        masked = forward_batch(model, x, keep)
        plain = forward_batch(model, x)
        assert np.allclose(masked.cache["h"], plain.cache["h"] / 0.5, atol=1e-12)

    def test_mask_shape_checked(self):
        model = small_model(dropout=0.5)
        with pytest.raises(ParameterError):
            forward_batch(model, np.ones((3, 5)), keep=np.ones((2, model.hidden_dim), dtype=bool))


class TestGradients:
    def test_parameter_gradients_match_finite_diff(self):
        model = small_model(seed=7, dropout=0.1)
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 5))
        keep = rng.random((4, model.hidden_dim)) >= model.dropout_rate
        d_f = rng.normal(size=(4, model.instance_dim))
        d_g = rng.normal(size=(4, model.cluster_count))
        d_logits = rng.normal(size=(4, model.ind_class_count))

        out = forward_batch(model, x, keep)
        grads = model.views(backward(model, out, d_f=d_f, d_g=d_g, d_logits_ind=d_logits))

        def probe(name):
            def fn(theta):
                trial = model.copy()
                trial.params[name][...] = theta
                o = forward_batch(trial, x, keep)
                return float(
                    np.sum(d_f * o.f) + np.sum(d_g * o.g) + np.sum(d_logits * o.logits_ind)
                )

            return fn

        for name in sorted(model.params):
            numeric = finite_diff_grad_nd(probe(name), model.params[name])
            err = relative_error(grads[name], numeric)
            assert err < 1e-4, f"{name}: relative error {err:.2e}"

    def test_single_route_gradients(self):
        # each upstream slot can be used alone; unused heads get zero grads
        model = small_model(seed=11)
        x = np.random.default_rng(12).normal(size=(3, 5))
        out = forward_batch(model, x)
        grads = model.views(backward(model, out, d_f=np.ones((3, model.instance_dim))))
        assert np.all(grads["w4"] == 0.0) and np.all(grads["w5"] == 0.0)
        assert np.any(grads["w3"] != 0.0)
        assert np.any(grads["w1"] != 0.0)

    def test_stale_cache_rejected(self):
        model = small_model()
        x = np.random.default_rng(13).normal(size=(2, 5))
        out = forward_batch(model, x)
        adam_step(AdamState(), model, backward(model, out, d_f=np.ones((2, model.instance_dim))))
        with pytest.raises(StaleCacheError):
            backward(model, out, d_f=np.ones((2, model.instance_dim)))

    def test_stacked_backward_sums_the_halves(self):
        # one backward over the 2N-row pass equals the two per-view backwards added
        model = small_model(seed=14, dropout=0.3)
        rng = np.random.default_rng(15)
        for n in (1, 3):
            x = rng.normal(size=(n, 5))
            out = two_views_batch(model, x, seed=16)
            keep = out.cache["keep"]
            d_f = rng.normal(size=(2 * n, model.instance_dim))
            d_g = rng.normal(size=(2 * n, model.cluster_count))
            stacked = model.views(backward(model, out, d_f=d_f, d_g=d_g))
            halves = [
                model.views(
                    backward(model, forward_batch(model, x, keep[rows]), d_f=d_f[rows], d_g=d_g[rows])
                )
                for rows in (slice(0, n), slice(n, 2 * n))
            ]
            assert sorted(stacked) == sorted(model.params)
            for name, grad in stacked.items():
                expected = halves[0][name] + halves[1][name]
                assert np.allclose(grad, expected, rtol=0.0, atol=1e-12), name


class TestAdam:
    def test_rejects_misshapen_and_nonfinite(self):
        model = small_model()
        with pytest.raises(ParameterError):
            adam_step(AdamState(), model, np.zeros(3))
        with pytest.raises(ParameterError):
            adam_step(AdamState(), model, np.zeros(model.flat.size + 1))
        bad = np.zeros_like(model.flat)
        model.views(bad)["w3"][1, 2] = np.nan
        with pytest.raises(DivergenceError, match="non-finite gradient for 'w3'"):
            adam_step(AdamState(), model, bad)

    def test_counts_advance(self):
        model = small_model()
        state = AdamState()
        v0, s0 = model.version, model.step
        adam_step(state, model, np.zeros_like(model.flat))
        assert model.version == v0 + 1
        assert model.step == s0 + 1
        assert state.step == 1

    def test_descends_a_quadratic(self):
        model = small_model(seed=21)
        state = AdamState(learning_rate=0.05)
        start = float(np.sum(model.params["w1"] ** 2))
        grad = np.zeros_like(model.flat)
        for _ in range(300):
            model.views(grad)["w1"][...] = 2.0 * model.params["w1"]
            adam_step(state, model, grad)
        assert float(np.sum(model.params["w1"] ** 2)) < 0.01 * start

    def test_flat_update_equals_per_tensor_loop(self):
        # 240 random steps on the quickstart shapes. The cluster head's gradient is
        # zero for the first 40 steps, as in pre-training, and on every sixth after.
        model = EncoderModel.init(input_dim=16, cluster_count=3, ind_class_count=7, seed=4)
        params = {name: value.copy() for name, value in model.params.items()}
        flat_state, loop_state = AdamState(learning_rate=5e-3), AdamLoopState(learning_rate=5e-3)
        rng = np.random.default_rng(5)
        for t in range(240):
            grad = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=model.flat.size)
            if t < 40 or t % 6 == 0:
                model.views(grad)["w4"][...] = 0.0
                model.views(grad)["b4"][...] = 0.0
            adam_step_loop(loop_state, params, model.views(grad.copy()))
            adam_step(flat_state, model, grad)
            for name, value in params.items():
                assert np.array_equal(model.params[name], value), (t, name)
        assert flat_state.step == loop_state.step == 240


class TestCopies:
    def test_copy_is_independent(self):
        model = small_model()
        clone = model.copy()
        clone.params["w1"][0, 0] += 5.0
        assert model.params["w1"][0, 0] != clone.params["w1"][0, 0]

    def test_cluster_head_swap(self):
        model = small_model()
        wider = model.with_cluster_count(9, seed=3)
        assert wider.cluster_count == 9
        assert wider.params["w4"].shape == (model.feature_dim, 9)
        assert np.array_equal(wider.params["w1"], model.params["w1"])
        assert np.array_equal(wider.params["w3"], model.params["w3"])
        assert wider.version == model.version + 1
        assert model.cluster_count == 3

    def test_cluster_head_swap_validates(self):
        with pytest.raises(ParameterError):
            small_model().with_cluster_count(0, seed=0)

    def test_params_are_views_of_one_buffer(self, tmp_path):
        model = small_model()
        path = str(tmp_path / "model.json")
        save_checkpoint(model, path)
        clone = model.copy()
        for m in (model, clone, model.with_cluster_count(9, seed=3), load_checkpoint(path)):
            assert m.flat.shape == (sum(v.size for v in m.params.values()),)
            for name, value in m.params.items():
                assert np.shares_memory(value, m.flat), name
        assert not np.shares_memory(clone.flat, model.flat)
        for name, value in clone.params.items():
            assert not np.shares_memory(value, model.flat), name


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        model = small_model(seed=5)
        model.step = 17
        path = str(tmp_path / "model.json")
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.step == 17
        for name, value in model.params.items():
            assert np.array_equal(loaded.params[name], value)
        x = np.random.default_rng(6).normal(size=(3, 5))
        assert np.array_equal(forward_batch(model, x).f, forward_batch(loaded, x).f)

    def test_file_bytes_deterministic(self, tmp_path):
        model = small_model(seed=5)
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_tampered_weights_rejected(self, tmp_path):
        model = small_model()
        path = str(tmp_path / "model.json")
        save_checkpoint(model, path)
        doc = json.load(open(path))
        doc["weights"]["w1"] = doc["weights"]["w1"][:-1]
        json.dump(doc, open(path, "w"))
        with pytest.raises(DataError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            (None, [1, 2]),  # the document itself is not an object
            ("input_dim", True),
            ("feature_dim", 2.0),
            ("step", -1),
            ("dropout_rate", 1.0),
            ("dropout_rate", "0.1"),
            ("weights", [0.0]),
            ("w2", "abc"),
            ("b5", [[0.0, 0.0, 0.0]]),
            ("w4", None),
        ],
    )
    def test_malformed_fields_are_data_errors(self, tmp_path, field, value):
        model = small_model()
        path = str(tmp_path / "model.json")
        save_checkpoint(model, path)
        doc = json.load(open(path))
        if field is None:
            doc = value
        elif field in model.params:
            doc["weights"][field] = value
        else:
            doc[field] = value
        json.dump(doc, open(path, "w"))
        with pytest.raises(DataError):
            load_checkpoint(path)
