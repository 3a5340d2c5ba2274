"""Autoencoder tests: shape chains, losses, training loop, persistence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentscope import autoencoder as ae
from latentscope.data import AtlasMap, Cohort, Subject, Volume
from latentscope.errors import (ConfigError, DependencyError, FormatError,
                               LatentScopeError, NumericError, ShapeError)


def cohort_of(vols):
    """A one-region cohort carrying the arrays `vols` as its volumes."""
    atlas = AtlasMap(np.ones(vols[0].shape, dtype=np.int32), region_count=1)
    return Cohort(subjects=[Subject(f"S{i:03d}", 0, Volume(v))
                            for i, v in enumerate(vols)], atlas=atlas)


def constant_cohort(dims=(8, 8, 8), n=16, value=0.5):
    return cohort_of([np.full(dims, value)] * n)


class TestEncoderChain:
    def test_reference_dims(self):
        chain = ae.encoder_chain_dims((121, 145, 121))
        assert chain == [(121, 145, 121), (61, 73, 61), (31, 37, 31), (16, 19, 16)]

    def test_power_of_two(self):
        assert ae.encoder_chain_dims((16, 16, 16)) == [
            (16, 16, 16), (8, 8, 8), (4, 4, 4), (2, 2, 2)]

    def test_too_small_raises(self):
        with pytest.raises(ShapeError):
            ae.encoder_chain_dims((7, 16, 16))

    def test_output_paddings_reconstruct_chain(self):
        # walking the decoder with these paddings must land exactly on the
        # mirrored encoder sizes, including odd inputs
        for dims in [(121, 145, 121), (16, 16, 16), (9, 11, 13)]:
            chain = ae.encoder_chain_dims(dims)
            pads = ae._decoder_output_paddings(chain)
            cur = chain[-1]
            for level, op in zip(range(len(chain) - 2, -1, -1), pads):
                cur = tuple(2 * s - 1 + p for s, p in zip(cur, op))
                assert cur == chain[level]
            assert cur == dims


class TestArchitecture:
    def test_default_channel_progression(self):
        layers = ae.default_architecture()
        enc = [(s.in_channels, s.out_channels) for s in layers if s.kind == "conv3d"]
        dec = [(s.in_channels, s.out_channels) for s in layers
               if s.kind == "conv_transpose3d"]
        assert enc == [(1, 16), (16, 32), (32, 64)]
        assert dec == [(64, 32), (32, 16), (16, 1)]

    def test_final_layer_sigmoid_no_norm(self):
        layers = ae.default_architecture()
        assert layers[-1].activation == "sigmoid"
        assert layers[-1].batch_norm is False
        for spec in layers[:-1]:
            assert spec.activation == "relu"
            assert spec.batch_norm is True

    def test_init_deterministic(self):
        a = ae.init_params(seed=4)
        b = ae.init_params(seed=4)
        c = ae.init_params(seed=5)
        assert ae.params_hash(a) == ae.params_hash(b)
        assert ae.params_hash(a) != ae.params_hash(c)


class TestForward:
    def test_shape_preserved_odd_dims(self):
        model = ae.init_params(seed=0)
        x = np.random.default_rng(1).uniform(size=(2, 1, 9, 11, 13))
        recon, acts, cache = ae.forward(model, x, mode="eval")
        assert recon.shape == x.shape
        assert cache is None
        assert len(acts) == 3

    def test_output_in_unit_interval(self):
        model = ae.init_params(seed=2)
        x = np.random.default_rng(3).uniform(size=(3, 1, 8, 8, 8))
        recon, _, _ = ae.forward(model, x, mode="eval")
        assert np.all(recon > 0.0) and np.all(recon < 1.0)

    def test_eval_mode_deterministic(self):
        model = ae.init_params(seed=6)
        x = np.random.default_rng(7).uniform(size=(2, 1, 8, 8, 8))
        r1, _, _ = ae.forward(model, x, mode="eval")
        r2, _, _ = ae.forward(model, x, mode="eval")
        np.testing.assert_array_equal(r1, r2)

    def test_zero_weights_give_half(self):
        # all-zero parameters push zeros through every layer; the closing
        # sigmoid maps that to exactly 0.5 regardless of the input
        model = ae.init_params(seed=0)
        for p in model.params:
            p.w[...] = 0.0
            p.b[...] = 0.0
        x = np.random.default_rng(8).uniform(size=(2, 1, 8, 8, 8))
        recon, _, _ = ae.forward(model, x, mode="eval")
        np.testing.assert_array_equal(recon, np.full_like(x, 0.5))

    def test_wrong_channel_count_raises(self):
        model = ae.init_params(seed=0)
        with pytest.raises(ShapeError):
            ae.forward(model, np.zeros((1, 2, 8, 8, 8)))

    def test_activation_shapes_match_chain(self):
        model = ae.init_params(seed=1)
        x = np.zeros((1, 1, 16, 16, 16))
        _, acts, _ = ae.forward(model, x, mode="eval")
        assert acts[0].shape == (1, 16, 8, 8, 8)
        assert acts[1].shape == (1, 32, 4, 4, 4)
        assert acts[2].shape == (1, 64, 2, 2, 2)


class TestLosses:
    def test_identical_inputs_zero(self):
        x = np.random.default_rng(0).uniform(size=(2, 1, 8, 8, 8))
        assert ae.loss_value(x, x, "mse") == 0.0
        assert ae.loss_value(x, x, "ssim") == pytest.approx(0.0, abs=1e-12)
        assert ae.loss_value(x, x, "combined") == pytest.approx(0.0, abs=1e-12)

    def test_constant_gap_mse(self):
        a = np.zeros((1, 1, 8, 8, 8))
        b = np.ones((1, 1, 8, 8, 8))
        assert ae.loss_value(a, b, "mse") == pytest.approx(1.0)

    def test_combined_is_convex_mix(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(size=(2, 1, 8, 8, 8))
        b = rng.uniform(size=(2, 1, 8, 8, 8))
        m = ae.loss_value(a, b, "mse")
        s = ae.loss_value(a, b, "ssim")
        for alpha in (0.0, 0.3, 0.5, 1.0):
            c = ae.loss_value(a, b, "combined", alpha=alpha)
            assert c == pytest.approx(alpha * m + (1 - alpha) * s, rel=1e-12)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ae.loss_value(np.zeros((1, 1, 8, 8, 8)), np.zeros((1, 1, 8, 8, 9)), "mse")

    def test_unknown_kind_raises(self):
        x = np.zeros((1, 1, 8, 8, 8))
        with pytest.raises(ConfigError):
            ae.loss_value(x, x, "mae")

    def test_loss_gradient_fd(self):
        # combined loss couples both terms; spot check by central differences
        rng = np.random.default_rng(9)
        a = rng.uniform(0.2, 0.8, size=(1, 1, 8, 8, 8))
        b = rng.uniform(0.2, 0.8, size=(1, 1, 8, 8, 8))
        _, grad = ae.loss_and_grad(a, b, "combined", alpha=0.4)
        h = 1e-5
        idx = [(0, 0, 1, 2, 3), (0, 0, 4, 4, 4), (0, 0, 7, 0, 5)]
        for ix in idx:
            ap = a.copy(); ap[ix] += h
            am = a.copy(); am[ix] -= h
            fd = (ae.loss_value(ap, b, "combined", alpha=0.4)
                  - ae.loss_value(am, b, "combined", alpha=0.4)) / (2 * h)
            assert grad[ix] == pytest.approx(fd, abs=1e-6)


def test_backward_skips_only_the_first_layer_input_gradient(monkeypatch):
    """The first layer's input gradient has no use, so backward asks
    conv3d_backward for (dw, db) only there, and for dx at every other
    encoder layer."""
    from latentscope import nn

    calls = []
    conv3d_backward = nn.conv3d_backward

    def recording(g, x, w, input_grad=True):
        calls.append(input_grad)
        return conv3d_backward(g, x, w, input_grad=input_grad)

    monkeypatch.setattr(nn, "conv3d_backward", recording)
    model = ae.init_params(seed=4)
    x = np.random.default_rng(4).uniform(size=(2, 1, 8, 8, 8))
    _, grads, _ = ae.loss_and_gradients(model, x, x, "mse")
    assert calls == [True, True, False]
    assert grads[(0, "w")].shape == model.params[0].w.shape


class TestStepMemory:
    """What one training step keeps; numpy reports its buffers to
    tracemalloc."""

    @staticmethod
    def _step_inputs():
        model = ae.init_params(seed=2)
        x = np.random.default_rng(2).uniform(size=(2, 1, 16, 16, 16))
        return model, x

    @staticmethod
    def _step_peak(model, x, kind):
        ae.loss_and_gradients(model, x, x, kind)  # one-off allocations
        tracemalloc.start()
        try:
            ae.loss_and_gradients(model, x, x, kind)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_step_peak_is_pinned(self):
        model, x = self._step_inputs()
        # 1.84 MiB, mostly the conv kernels' block buffers at this size; a
        # step that kept the encoder activations, dL/drecon and each conv
        # input to the end of their callers peaked at 1.98 MiB, and a cache
        # that also kept every layer's conv output and activation at 3.2
        assert self._step_peak(model, x, "combined") < 1.9 * 2**20
        # at 32^3 the layer outputs dominate: 5.75 MiB for mse, 7.60 for
        # combined (SSIM's per-volume temporaries); holding buffers past
        # their last reader as above peaked at 7.17 and 9.41 MiB, and a
        # cache that kept each batch-norm output next to its xhat at 9.6
        x = np.random.default_rng(2).uniform(size=(2, 1, 32, 32, 32))
        assert self._step_peak(model, x, "mse") < 6.0 * 2**20
        assert self._step_peak(model, x, "combined") < 7.9 * 2**20

    def test_training_forward_keeps_no_activation(self):
        """Training never reads the encoder activations, so forward with a
        cache returns none: each encoder output is freed once the next
        layer has read it. Eval forward still returns all three."""
        model, x = self._step_inputs()
        recon, acts, cache = ae.forward(model, x, "train", want_cache=True)
        assert acts == []
        _, eval_acts, _ = ae.forward(model, x, "eval")
        assert [a.shape[1] for a in eval_acts] == [16, 32, 64]

    def test_cache_keeps_masks_not_activations(self):
        model, x = self._step_inputs()
        recon, acts, cache = ae.forward(model, x, "train", want_cache=True)
        layers = cache["layers"]
        # layer 1 keeps the batch itself; every other layer's input is a
        # batch-norm output, which backward rebuilds from the entry before
        assert layers[0]["input"] is x
        for prev, lc in zip(model.layers, layers[1:]):
            assert prev.batch_norm and lc["input"] is None
        for spec, p, lc in zip(model.layers, model.params, layers):
            assert set(lc) == {"input", "act", "bn", "beta", "out_pad"}
            if spec.activation == "relu":
                assert lc["act"].dtype == np.bool_
                xhat = lc["bn"][0]
                assert xhat.shape == lc["act"].shape
                assert lc["beta"] is p.beta
                # xhat is the only layer-sized float array a layer keeps
                held = [a for a in (*lc["bn"], lc["beta"]) if a.size == xhat.size]
                assert len(held) == 1 and held[0] is xhat
            else:
                assert lc["act"] is recon and lc["bn"] is None and lc["beta"] is None

    def test_backward_consumes_the_cache(self):
        model, x = self._step_inputs()
        recon, _, cache = ae.forward(model, x, "train", want_cache=True)
        _, drecon = ae.loss_and_grad(recon, x, "mse")
        grads = ae.backward(model, cache, drecon)
        assert cache["layers"] == []
        assert set(grads) == {(i, name) for i, name, _ in model.trainable_items()}
        with pytest.raises(ShapeError, match="consumes"):
            ae.backward(model, cache, drecon)


@pytest.mark.parametrize("dims", [(16, 16, 16), (17, 19, 23)])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_backward_rebuilds_each_input_bitwise(monkeypatch, mode, dims):
    """Every conv backward reads bitwise the input its forward read: the
    batch for layer 1, a rebuilt batch-norm output for the rest. The
    transposed convs get it channel-major, so the weight gradient's
    (C, N*X*Y*Z) rows are a view, and the gradients are those of the
    forward's own inputs. 17 x 19 x 23 makes the decoder use output
    padding 1 on some axes."""
    from latentscope import nn

    model = ae.init_params(seed=6)
    rng = np.random.default_rng(6)
    for spec, p in zip(model.layers, model.params):
        if spec.batch_norm:  # away from the identity init, so xhat != output
            c = spec.out_channels
            p.gamma, p.beta = rng.uniform(0.5, 1.5, c), rng.normal(size=c)
            p.running_mean, p.running_var = rng.normal(size=c), rng.uniform(0.5, 2, c)
    x = rng.uniform(size=(2, 1, *dims))
    originals = {name: getattr(nn, name) for name in (
        "conv3d_forward", "conv_transpose3d_forward", "conv3d_backward",
        "conv_transpose3d_backward", "_weight_grad")}
    fwd_inputs, bwd_calls, row_views = [], [], []

    def forward_recorder(name):
        def record(h, *args):
            fwd_inputs.append(h.copy())
            return originals[name](h, *args)
        return record

    def backward_recorder(name):
        def record(g, h, *args, **kwargs):
            bwd_calls.append((name, g.copy(), h, args, kwargs))
            return originals[name](g, h, *args, **kwargs)
        return record

    def weight_grad(a, src_padded):
        rows = a.transpose(1, 0, 2, 3, 4).reshape(a.shape[1], -1)
        row_views.append(np.shares_memory(rows, a))
        return originals["_weight_grad"](a, src_padded)

    for name in ("conv3d_forward", "conv_transpose3d_forward"):
        monkeypatch.setattr(nn, name, forward_recorder(name))
    for name in ("conv3d_backward", "conv_transpose3d_backward"):
        monkeypatch.setattr(nn, name, backward_recorder(name))
    monkeypatch.setattr(nn, "_weight_grad", weight_grad)

    recon, _, cache = ae.forward(model, x, mode, want_cache=True)
    _, drecon = ae.loss_and_grad(recon, x, "mse")
    grads = ae.backward(model, cache, drecon)
    monkeypatch.undo()

    assert len(bwd_calls) == len(fwd_inputs) == len(model.layers)
    for i, (name, g, h, args, kwargs) in zip(range(len(model.layers) - 1, -1, -1),
                                             bwd_calls):
        want = fwd_inputs[i]
        assert h.shape == want.shape and h.tobytes() == want.tobytes(), i
        if name == "conv_transpose3d_backward":
            assert h.transpose(1, 0, 2, 3, 4).flags.c_contiguous
        _, dw, db = getattr(nn, name)(g, want, *args, **kwargs)
        assert dw.tobytes() == grads[(i, "w")].tobytes(), i
        assert db.tobytes() == grads[(i, "b")].tobytes(), i
    assert bwd_calls[-1][2] is x
    # one _weight_grad per layer, in backward order; the transposed convs'
    # rows are views of their channel-major input
    kinds = [spec.kind for spec in reversed(model.layers)]
    assert row_views == [k == "conv_transpose3d" for k in kinds]


class TestEarlyStop:
    def test_strictly_improving_never_stops(self):
        assert ae.early_stop_epoch([5, 4, 3, 2, 1], patience=2) is None

    def test_plateau_triggers(self):
        assert ae.early_stop_epoch([3.0, 2.0, 2.0, 2.0], patience=2) == 4

    def test_immediate_worsening(self):
        assert ae.early_stop_epoch([1.0, 2.0, 3.0], patience=1) == 2

    def test_recovery_resets_streak(self):
        losses = [3.0, 2.5, 2.6, 2.0, 2.1, 2.2, 2.3]
        assert ae.early_stop_epoch(losses, patience=3) == 7

    def test_equal_loss_counts_as_no_improvement(self):
        assert ae.early_stop_epoch([1.0, 1.0], patience=1) == 2


class TestTraining:
    def test_constant_cohort_converges(self):
        cohort = constant_cohort()
        cfg = ae.TrainConfig(loss_kind="mse", max_epochs=10, patience=10,
                             batch_size=4, seed=3)
        model, report = ae.train(cohort, cfg)
        assert report.best_loss < 1e-4
        assert report.best_loss == min(report.epoch_losses)
        # a constant target is the easy regime: after warmup the epoch curve
        # should not bounce upward by more than numerical noise
        tail = report.epoch_losses[1:]
        for prev, cur in zip(tail, tail[1:]):
            assert cur <= prev + 1e-6
        # eval mode uses running batch-norm statistics, which trail the batch
        # statistics while the loss is still dropping fast, so the eval-mode
        # bound is looser than the final training loss
        target = np.full((1, 1, 8, 8, 8), 0.5)
        recon, _, _ = ae.forward(model, target, mode="eval")
        assert ae.loss_value(recon, target, "mse") < 5e-3

    def test_same_seed_same_result(self):
        cohort = constant_cohort(n=8)
        cfg = ae.TrainConfig(loss_kind="mse", max_epochs=3, patience=3,
                             batch_size=4, seed=12)
        m1, r1 = ae.train(cohort, cfg)
        m2, r2 = ae.train(cohort, cfg)
        assert r1.params_sha256 == r2.params_sha256
        assert r1.epoch_losses == r2.epoch_losses
        assert ae.params_hash(m1) == r1.params_sha256

    def test_patience_stops_early(self):
        # patience=1 on a cohort this easy still trains a few epochs; force a
        # stop by exhausting max_epochs instead and check ledger consistency
        cohort = constant_cohort(n=8)
        cfg = ae.TrainConfig(loss_kind="mse", max_epochs=4, patience=1,
                             batch_size=4, seed=1)
        _, report = ae.train(cohort, cfg)
        assert report.stopped_epoch == len(report.epoch_losses) <= 4
        stop = ae.early_stop_epoch(report.epoch_losses, cfg.patience)
        if stop is not None:
            assert report.stopped_epoch == stop

    def test_float32_ragged_batches_params_pinned(self):
        """Volumes go to float64 one batch at a time; the hash is the one
        recorded when the whole cohort was stacked in float64 first (7
        float32 volumes at batch 3, so the last batch is short)."""
        rng = np.random.default_rng(8)
        vols = [rng.uniform(size=(8, 9, 8)).astype(np.float32) for _ in range(7)]
        _, report = ae.train(cohort_of(vols), ae.TrainConfig(
            loss_kind="combined", max_epochs=2, patience=2, batch_size=3,
            seed=8, lr=0.01))
        assert report.params_sha256 == (
            "6c97261d9645e08c23cae5db5d627a240409440337bbb179723a3ca9e3842bd0")

    def test_empty_cohort_raises(self):
        empty = Cohort(subjects=[], atlas=constant_cohort(n=1).atlas)
        with pytest.raises(ConfigError):
            ae.train(empty, ae.TrainConfig())
        with pytest.raises(ConfigError):
            ae.extract_activations(ae.init_params(seed=0), empty)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ae.TrainConfig(loss_kind="huber").validate()
        with pytest.raises(ConfigError):
            ae.TrainConfig(alpha=1.5).validate()
        with pytest.raises(ConfigError):
            ae.TrainConfig(patience=0).validate()
        with pytest.raises(ConfigError):
            ae.TrainConfig(max_epochs=0).validate()
        with pytest.raises(ConfigError):
            ae.TrainConfig(batch_size=0).validate()
        ae.TrainConfig().validate()


class TestActivations:
    def test_shapes_and_widths(self, small_cohort, trained_small):
        model, _ = trained_small
        n = len(small_cohort.subjects)
        with ae.extract_activations(model, small_cohort, batch_size=8) as acts:
            assert acts.matrix("L1").shape == (n, 16 * 8 ** 3)
            assert acts.matrix("L2").shape == (n, 32 * 4 ** 3)
            assert acts.matrix("L3").shape == (n, 64 * 2 ** 3)
        assert acts.shapes["L1"] == (16, 8, 8, 8)
        assert acts.shapes["L3"] == (64, 2, 2, 2)
        assert acts.subject_ids == small_cohort.subject_ids

    def test_batching_invariance(self, small_cohort, trained_small):
        model, _ = trained_small
        with (ae.extract_activations(model, small_cohort, batch_size=3) as a,
              ae.extract_activations(model, small_cohort, batch_size=64) as b):
            for key in ("L1", "L2", "L3"):
                np.testing.assert_allclose(a.matrix(key), b.matrix(key),
                                           rtol=0, atol=1e-12)

    def test_encoder_only_matches_forward_bitwise(self, small_cohort,
                                                   trained_small, monkeypatch):
        model, _ = trained_small
        x = np.stack([s.volume.voxels for s in small_cohort.subjects])
        x = x[:, None].astype(np.float64)
        _, acts, _ = ae.forward(model, x, "eval")

        def decoder(*args, **kwargs):
            raise AssertionError("extract_activations ran a decoder layer")

        monkeypatch.setattr(ae.nn, "conv_transpose3d_forward", decoder)
        with ae.extract_activations(model, small_cohort, batch_size=len(x)) as got:
            for j, key in enumerate(("L1", "L2", "L3")):
                want = acts[j].reshape(len(x), -1)
                assert got.matrix(key).shape == want.shape
                assert np.array_equal(got.matrix(key), want)

    def test_batchwise_float32_matches_stacked_chunks(self):
        """5 float32 volumes at batch 2: bitwise the matrices of the whole
        cohort stacked in float64, run chunk by chunk and vstacked."""
        rng = np.random.default_rng(6)
        vols = [rng.uniform(size=(9, 8, 10)).astype(np.float32) for _ in range(5)]
        model = ae.init_params(seed=6)
        x = np.stack([v.astype(np.float64) for v in vols])[:, None]
        chunks = [ae.forward(model, x[s:s + 2], "eval")[1] for s in range(0, 5, 2)]
        with ae.extract_activations(model, cohort_of(vols), batch_size=2) as got:
            assert list(got.shapes) == list(ae.LAYER_KEYS)
            for j, key in enumerate(ae.LAYER_KEYS):
                want = np.vstack([c[j].reshape(len(c[j]), -1) for c in chunks])
                m = got.matrix(key)
                assert m.flags.c_contiguous and m.dtype == want.dtype
                assert m.shape == want.shape and m.tobytes() == want.tobytes()

    def test_two_level_encoder_layout(self):
        """test_02's two-level net: keys L1 and L2, the bottleneck L2, and
        its decoded latent the bits of the eval forward's reconstruction."""
        layers = [ae.LayerSpec("conv3d", 1, 4, "relu", True),
                  ae.LayerSpec("conv3d", 4, 8, "relu", True),
                  ae.LayerSpec("conv_transpose3d", 8, 4, "relu", True),
                  ae.LayerSpec("conv_transpose3d", 4, 1, "sigmoid", False)]
        model = ae.init_params(seed=3, layers=layers)
        rng = np.random.default_rng(3)
        cohort = cohort_of([rng.uniform(size=(6, 7, 6)) for _ in range(3)])
        assert ae.encoder_keys(layers) == ("L1", "L2")
        assert ae.latent_shape(model, (6, 7, 6)) == (8, 2, 2, 2)
        x = np.stack([s.volume.voxels for s in cohort.subjects])[:, None]
        recon, acts, _ = ae.forward(model, x.astype(np.float64), "eval")
        with ae.extract_activations(model, cohort) as got:
            assert list(got.shapes) == ["L1", "L2"]
            latent = got.latent()
        assert latent.shape == (3, 8, 2, 2, 2)
        assert latent.tobytes() == acts[1].tobytes()
        assert ae.decode(model, latent, (6, 7, 6)).tobytes() == recon.tobytes()

    def test_unknown_layer_key(self, small_cohort, trained_small):
        model, _ = trained_small
        with ae.extract_activations(model, small_cohort) as acts:
            with pytest.raises(KeyError):
                acts.matrix("L9")

    @pytest.mark.parametrize("layers", [("L1",), ("L2",), ("L3",), (),
                                        ("L3", "L1"), ("L1", "L2", "L3")])
    def test_requested_layers_and_bottleneck_bitwise(self, small_cohort,
                                                     trained_small, layers):
        """Only the requested layers and the bottleneck are kept, each the
        bits of the matrix that the whole extraction builds."""
        model, _ = trained_small
        with (ae.extract_activations(model, small_cohort, batch_size=5) as every,
              ae.extract_activations(model, small_cohort, batch_size=5,
                                     layers=layers) as got):
            assert sorted(got.shapes) == sorted(set(layers) | {"L3"})
            for key in got.shapes:
                m, want = got.matrix(key), every.matrix(key)
                assert m.shape == want.shape and m.tobytes() == want.tobytes()
                assert got.shapes[key] == every.shapes[key]
            assert got.latent().tobytes() == every.latent().tobytes()
            assert got.latent().shape == every.latent().shape

    def test_unknown_requested_layer(self, small_cohort, trained_small):
        model, _ = trained_small
        with pytest.raises(KeyError):
            ae.extract_activations(model, small_cohort, layers=("L4",))

    def test_bottleneck_only_allocates_no_l1_matrix(self, small_cohort,
                                                    trained_small):
        """With layers=("L3",) the traced peak stays below the size of the
        L1 matrix, which the whole extraction allocates."""
        import tracemalloc

        model, _ = trained_small
        l1_matrix = len(small_cohort.subjects) * 16 * 8 ** 3 * 8
        tracemalloc.start()
        try:
            ae.extract_activations(model, small_cohort, batch_size=2,
                                   layers=("L3",)).close()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < l1_matrix


    def test_extraction_holds_less_than_one_l1_matrix(self, small_cohort,
                                                      trained_small):
        """All three layers kept: each batch's rows go to the spill file, so
        the traced peak stays below the L1 matrix alone (building the three
        matrices in memory took about 1.3 x it, plus a batch)."""
        model, _ = trained_small
        l1_matrix = len(small_cohort.subjects) * 16 * 8 ** 3 * 8
        tracemalloc.start()
        try:
            with ae.extract_activations(model, small_cohort, batch_size=2) as acts:
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(acts.shapes) == ["L1", "L2", "L3"]
        assert peak < l1_matrix

    def test_spill_file_is_anonymous_and_closed_on_exit(self, small_cohort,
                                                        trained_small, tmp_path):
        model, _ = trained_small
        with ae.extract_activations(model, small_cohort, spill_dir=tmp_path) as acts:
            assert list(tmp_path.iterdir()) == []  # no name on disk
            first = acts.matrix("L2")
            again = acts.matrix("L2")
            assert again is not first and again.tobytes() == first.tobytes()
        assert acts._spill.closed
        with pytest.raises(ValueError):  # read after close
            acts.matrix("L2")

    def test_failed_extraction_closes_its_spill_file(self, small_cohort,
                                                     trained_small, monkeypatch):
        import tempfile

        model, _ = trained_small
        opened = []
        make = tempfile.TemporaryFile

        def recording(*args, **kwargs):
            opened.append(make(*args, **kwargs))
            return opened[-1]

        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:  # the second batch's L1
                raise NumericError("injected")
            return conv(*args, **kwargs)

        conv = ae.nn.conv3d_forward
        monkeypatch.setattr(ae.tempfile, "TemporaryFile", recording)
        monkeypatch.setattr(ae.nn, "conv3d_forward", failing)
        with pytest.raises(NumericError):
            ae.extract_activations(model, small_cohort, batch_size=4)
        assert len(opened) == 1 and opened[0].closed


def test_loaded_cohort_gives_the_bits_of_the_cohort_in_memory(small_cohort,
                                                              tmp_path):
    """Training, extraction and the reconstruction error read a loaded
    cohort's volumes from disk one batch at a time: bitwise the results of
    the same cohort held in memory."""
    from latentscope.attribution import total_reconstruction_error
    from latentscope.fileio import StoredVolume, load_cohort, save_cohort

    save_cohort(str(tmp_path / "cohort"), small_cohort)
    loaded = load_cohort(str(tmp_path / "cohort"))
    assert isinstance(loaded.subjects[0].volume, StoredVolume)
    cfg = ae.TrainConfig(loss_kind="combined", max_epochs=2, patience=2,
                         batch_size=5, seed=3)
    model, report = ae.train(small_cohort, cfg)
    assert ae.train(loaded, cfg)[1].params_sha256 == report.params_sha256
    with (ae.extract_activations(model, small_cohort, batch_size=5,
                                 spill_dir=tmp_path) as want,
          ae.extract_activations(model, loaded, batch_size=5,
                                 spill_dir=tmp_path) as got):
        for key in ae.LAYER_KEYS:
            assert got.matrix(key).tobytes() == want.matrix(key).tobytes()
        assert got.subject_ids == want.subject_ids
        got_latent, want_latent = got.latent(), want.latent()
    assert (total_reconstruction_error(loaded, model, got_latent, chunk=5)
            == total_reconstruction_error(small_cohort, model, want_latent, chunk=5))


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        model = ae.init_params(seed=21)
        path = str(tmp_path / "model.lsm")
        ae.save_model(model, path)
        loaded = ae.load_model(path)
        assert ae.params_hash(loaded) == ae.params_hash(model)
        assert loaded.layers == model.layers
        x = np.random.default_rng(0).uniform(size=(1, 1, 8, 8, 8))
        r1, _, _ = ae.forward(model, x, mode="eval")
        r2, _, _ = ae.forward(loaded, x, mode="eval")
        np.testing.assert_array_equal(r1, r2)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.lsm"
        path.write_bytes(b"NOTAMODEL\n" + b"\x00" * 64)
        with pytest.raises(FormatError):
            ae.load_model(str(path))

    def test_truncation_raises(self, tmp_path):
        model = ae.init_params(seed=21)
        path = tmp_path / "model.lsm"
        ae.save_model(model, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            ae.load_model(str(path))

    def test_trailing_bytes_raise(self, tmp_path):
        model = ae.init_params(seed=21)
        path = tmp_path / "model.lsm"
        ae.save_model(model, str(path))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FormatError):
            ae.load_model(str(path))

    def test_file_is_one_float64_grid_of_all_arrays(self, tmp_path):
        model = ae.init_params(seed=21)
        path = tmp_path / "model.lsm"
        ae.save_model(model, str(path))
        flat = np.concatenate([a.ravel() for a in model.all_arrays()])
        assert path.read_bytes() == (ae.MODEL_MAGIC + b"%d\n" % flat.size
                                     + flat.astype("<f8").tobytes())

    @pytest.mark.parametrize("case", ["truncated_shape", "non_integer_count",
                                      "non_ascii_header", "claims_2_31_values",
                                      "two_dims", "first_format"])
    def test_malformed_blobs_raise_format_error(self, tmp_path, case):
        model = ae.init_params(seed=21)
        path = tmp_path / "model.lsm"
        ae.save_model(model, str(path))
        blob = path.read_bytes()
        dims, payload = blob[len(ae.MODEL_MAGIC):].split(b"\n", 1)
        if case == "truncated_shape":  # cut inside the dims line
            blob = ae.MODEL_MAGIC + dims[:2]
        elif case == "non_integer_count":
            blob = ae.MODEL_MAGIC + b"six\n" + payload
        elif case == "non_ascii_header":
            blob = ae.MODEL_MAGIC + b"\xff\n" + payload
        elif case == "claims_2_31_values":
            blob = ae.MODEL_MAGIC + b"%d\n" % 2**31 + payload
        elif case == "two_dims":
            blob = ae.MODEL_MAGIC + dims + b" 1\n" + payload
        else:  # the magic of the format with a layer table
            blob = b"LSAE1\n" + blob[len(ae.MODEL_MAGIC):]
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="model.lsm"):
            ae.load_model(str(path))

    def test_other_value_count_raises_format_error(self, tmp_path):
        from latentscope.fileio import _write_grid

        path = tmp_path / "model.lsm"
        flat = np.concatenate([a.ravel() for a in ae.init_params(seed=21).all_arrays()])
        for values in (flat[:-1], np.append(flat, 0.0), np.zeros(7)):
            _write_grid(str(path), ae.MODEL_MAGIC, values, "<f8")
            with pytest.raises(FormatError, match="architecture"):
                ae.load_model(str(path))

    def test_missing_file_is_dependency_error(self, tmp_path):
        with pytest.raises(DependencyError, match="absent.lsae"):
            ae.load_model(str(tmp_path / "absent.lsae"))
        with pytest.raises(DependencyError):
            ae.load_model(str(tmp_path))  # a directory, not a file

    @pytest.mark.parametrize("case", ["l1_bias", "l2_gamma", "t1_weight_order",
                                      "t3_weight_kernel"])
    def test_save_refuses_arrays_off_their_spec(self, tmp_path, case):
        model = ae.init_params(seed=21)
        if case == "l1_bias":
            model.params[0].b = np.zeros(5)
        elif case == "l2_gamma":
            model.params[1].gamma = np.ones(16)
        elif case == "t1_weight_order":  # a conv's (out, in) order
            model.params[3].w = model.params[3].w.transpose(1, 0, 2, 3, 4)
        else:
            model.params[5].w = np.zeros((16, 1, 3, 3, 2))
        path = tmp_path / "model.lsm"
        with pytest.raises(ShapeError, match="needs"):
            ae.save_model(model, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("case", ["two_layers", "relu_output"])
    def test_save_refuses_other_architectures(self, tmp_path, case):
        if case == "two_layers":
            layers = SMALL_LAYERS
        else:  # the default arrays, so only the layer table tells
            layers = ae.default_architecture()
            layers[-1] = ae.LayerSpec("conv_transpose3d", 16, 1, "relu", False)
        path = tmp_path / "model.lsm"
        with pytest.raises(ShapeError, match="default architecture"):
            ae.save_model(ae.init_params(seed=3, layers=layers), str(path))
        assert not path.exists()


SMALL_LAYERS = [ae.LayerSpec("conv3d", 1, 2, "relu", True),
                ae.LayerSpec("conv_transpose3d", 2, 1, "sigmoid", False)]


@pytest.fixture(scope="module")
def valid_model_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.lsae"
    ae.save_model(ae.init_params(seed=3), str(path))
    return path.read_bytes()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_model_loader_total_on_arbitrary_bytes(tmp_path_factory, valid_model_blob,
                                               data):
    """Arbitrary bytes, and truncations and single-byte edits of a valid
    model file, give a default-architecture model whose arrays are the
    file's payload, or a package error."""
    path = tmp_path_factory.getbasetemp() / "arbitrary.lsae"
    valid = valid_model_blob
    header = valid.index(b"\n", len(ae.MODEL_MAGIC)) + 1
    blob = data.draw(st.one_of(
        st.binary(max_size=300),
        st.binary(max_size=300).map(lambda tail: ae.MODEL_MAGIC + tail),
        st.tuples(st.integers(0, len(valid)), st.binary(max_size=40)).map(
            lambda t: valid[:t[0]] + t[1]),
        st.tuples(st.one_of(st.integers(0, header + 40),
                            st.integers(0, len(valid) - 1)),
                  st.integers(0, 255)).map(
            lambda t: valid[:t[0]] + bytes([t[1]]) + valid[t[0] + 1:]),
    ))
    path.write_bytes(blob)
    try:
        model = ae.load_model(str(path))
    except LatentScopeError:
        return
    assert model.layers == ae.default_architecture()
    want = [a.shape for a in ae.init_params(seed=3).all_arrays()]
    assert [a.shape for a in model.all_arrays()] == want
    flat = np.concatenate([a.ravel() for a in model.all_arrays()])
    assert blob.endswith(flat.astype("<f8").tobytes())


def test_short_training_run_params_pinned():
    """One short fixed run, pinned to the sha256 recorded before the conv
    kernels were rebuilt on shared primitives: odd and even axes (so every
    decoder level mixes output paddings), the combined MSE+SSIM loss, a
    ragged last batch, and an early stop (best epoch 6, stopped at 7)."""
    from latentscope.phantom import PhantomConfig, generate_phantom_cohort

    cohort = generate_phantom_cohort(PhantomConfig(
        dims=(12, 10, 9), region_count=4, class_counts={0: 5, 3: 5},
        effect_spec=[(2, 3, 0.3)], noise_sigma=0.05, smoothness=1.5, seed=3))
    _, report = ae.train(cohort, ae.TrainConfig(
        loss_kind="combined", max_epochs=8, patience=1, batch_size=4, seed=9,
        lr=0.02))
    assert (report.stopped_epoch, report.best_epoch) == (7, 6)
    assert report.params_sha256 == (
        "7ea0c7b27e1f2ddc3ea1c13613a7b7998ba004e5ac8eb2a440ce4650fa009bb9")
