"""Forecaster tests: position signal, layers, forward contract, training, checkpoints."""

import dataclasses
import json
import math

import numpy as np
import pytest

from localattn.attention import _full_attention, band_mask
from localattn.data import Scaler, WindowedDataset
from localattn.model import (
    CHECKPOINT_VERSION,
    CheckpointError,
    ForecastModel,
    ModelConfig,
    TrainDivergenceError,
    evaluate,
    load_checkpoint,
    positional_encoding,
    save_checkpoint,
    train,
)
from localattn import tensor
from localattn.tensor import DimensionError, Tensor


def tiny_config(**overrides):
    base = dict(
        d_features=1, n=8, m=2, d_model=4, num_layers=1, heads=2, kind="full", seed=0
    )
    base.update(overrides)
    return ModelConfig(**base)


def constant_target_dataset(seed=7, n=8, m=2, d=1, count=8, const=0.7, scale=1.0):
    """Random inputs, one shared constant target; bypasses standardization."""
    rng = np.random.default_rng(seed)
    windows = tuple(
        (
            Tensor._wrap(rng.normal(size=(n, d))),
            Tensor._wrap(np.full((m, d), const * scale)),
        )
        for _ in range(count)
    )
    return WindowedDataset(
        train=windows,
        val=windows[:2],
        test=windows[:2],
        scaler=Scaler(mean=np.zeros(d), std=np.ones(d)),
        n=n,
        m=m,
        stride=1,
        split_bounds=((0, 0), (0, 0), (0, 0)),
        feature_names=tuple(f"f{i}" for i in range(d)),
    )


class TestPositionalEncoding:
    def test_row_zero_is_all_ones(self):
        pe = positional_encoding(5, 7)
        assert np.array_equal(pe.data[0], np.ones(7))

    def test_first_step_first_feature(self):
        pe = positional_encoding(4, 3)
        assert pe.data[1, 0] == pytest.approx(math.sin(1.0) + math.cos(1.0))
        assert pe.data[1, 0] == pytest.approx(1.38177, abs=1e-5)

    def test_amplitude_bound(self):
        pe = positional_encoding(300, 16)
        assert np.all(np.abs(pe.data) <= math.sqrt(2.0) + 1e-12)

    def test_shape(self):
        assert positional_encoding(6, 3).shape == (6, 3)

    @pytest.mark.parametrize("n,d_model", [(0, 4), (4, 0), (-1, 2)])
    def test_rejects_empty_extents(self, n, d_model):
        with pytest.raises(ValueError):
            positional_encoding(n, d_model)


class TestModelConfig:
    def test_defaults_fill_in(self):
        cfg = ModelConfig(d_features=3, n=96, m=24)
        assert cfg.d_head == cfg.d_model // cfg.heads
        assert cfg.window == 28  # 4 * ceil(log2 96)

    def test_explicit_window_kept(self):
        cfg = tiny_config(window=3)
        assert cfg.window == 3

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(d_features=0),
            dict(n=2, m=3),
            dict(m=0),
            dict(num_layers=0),
            dict(kind="banana"),
            dict(kind="prob"),
            dict(d_model=6, heads=4),
            dict(heads=0),
            dict(d_model=0),
            dict(window=0),
            dict(window=9),
        ],
    )
    def test_rejects_bad_geometry(self, overrides):
        with pytest.raises(ValueError):
            tiny_config(**overrides)


def identity_model(n=5, d=3, num_layers=2):
    """All layers configured to pass a non-negative stream through unchanged.

    Attention outputs are zeroed (wo = 0) so residuals dominate, both
    projections are the identity (LeakyReLU leaves non-negative values
    alone), the position signal is zeroed, and embed/unembed/time are
    identity matrices. Forward must then reproduce a non-negative input.
    """
    cfg = ModelConfig(
        d_features=d, n=n, m=n, d_model=d, num_layers=num_layers, heads=1, kind="full", seed=0
    )
    model = ForecastModel(cfg)
    model.pe = Tensor.zeros(model.pe.shape)
    for name, t in list(model.params.items()):
        if name.endswith(".wo"):
            model.params[name] = Tensor.zeros(t.shape)
        elif name.endswith(".b"):
            model.params[name] = Tensor.zeros(t.shape)
        elif name.endswith(".w") and name != "time.w":
            model.params[name] = Tensor._wrap(np.eye(*t.shape))
    model.params["time.w"] = Tensor._wrap(np.eye(n))
    return model


class TestLayers:
    def test_zero_weights_give_zero_output(self):
        model = ForecastModel(tiny_config(d_features=3, num_layers=2))
        for name, t in model.params.items():
            model.params[name] = Tensor.zeros(t.shape)
        x = Tensor._wrap(np.random.default_rng(0).normal(size=(8, 3)))
        out = model.forward(x)
        assert np.array_equal(out.data, np.zeros((2, 3)))

    def test_zero_weight_encoder_layer_annihilates(self):
        model = ForecastModel(tiny_config())
        for name, t in model.params.items():
            model.params[name] = Tensor.zeros(t.shape)
        x = Tensor._wrap(np.random.default_rng(1).normal(size=(8, 4)))
        p = lambda name: model.params[name]
        out = model._encoder_layer(tensor, 0, x, p, model._inner())
        assert np.array_equal(out.data, np.zeros((8, 4)))

    @staticmethod
    def _identity_attention(model, prefix):
        for leaf in ("wq", "wk", "wv"):
            model.params[f"{prefix}.head0.{leaf}"] = Tensor._wrap(np.eye(3))
        model.params[f"{prefix}.wo"] = Tensor._wrap(np.eye(3))

    def test_encoder_layer_identity_weights_composition(self):
        # identity projections reduce the layer to x + attn(x,x,x) for x >= 0
        model = identity_model(n=6, d=3, num_layers=1)
        self._identity_attention(model, "enc0")
        x = Tensor._wrap(np.abs(np.random.default_rng(2).normal(size=(6, 3))))
        p = lambda name: model.params[name]
        out = model._encoder_layer(tensor, 0, x, p, model._inner())
        attn = _full_attention(tensor, x, x, x)
        expected = x.data + attn.data
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_decoder_layer_zero_encoder_averages_values(self):
        # literal wiring with enc = 0: uniform scores, so the second
        # attention adds the row-mean of the first block's output
        model = identity_model(n=6, d=3, num_layers=1)
        self._identity_attention(model, "dec0.self")
        self._identity_attention(model, "dec0.cross")
        y = Tensor._wrap(np.abs(np.random.default_rng(3).normal(size=(6, 3))))
        enc = Tensor.zeros((6, 3))
        p = lambda name: model.params[name]
        out = model._decoder_layer(tensor, 0, y, enc, p, model._inner())
        r1 = y.data + _full_attention(tensor, y, y, y).data
        expected = r1 + np.tile(r1.mean(axis=0), (6, 1))
        assert np.allclose(out.data, expected, atol=1e-12)

    def test_layer_shapes_preserved(self):
        model = ForecastModel(tiny_config(d_features=2, d_model=6, heads=3))
        x = Tensor._wrap(np.random.default_rng(4).normal(size=(8, 6)))
        p = lambda name: model.params[name]
        inner = model._inner()
        enc = model._encoder_layer(tensor, 0, x, p, inner)
        dec = model._decoder_layer(tensor, 0, x, enc, p, inner)
        assert enc.shape == x.shape
        assert dec.shape == x.shape


class TestForward:
    @pytest.mark.parametrize("kind", ["full", "lam"])
    def test_shape_contract(self, kind):
        cfg = ModelConfig(
            d_features=3, n=16, m=5, d_model=4, num_layers=2, heads=2, kind=kind
        )
        model = ForecastModel(cfg)
        x = Tensor._wrap(np.random.default_rng(5).normal(size=(16, 3)))
        assert model.forward(x).shape == (5, 3)

    def test_identity_pipeline_reproduces_input(self):
        model = identity_model(n=5, d=3, num_layers=2)
        x = Tensor._wrap(np.abs(np.random.default_rng(6).normal(size=(5, 3))))
        out = model.forward(x)
        assert np.array_equal(out.data, x.data)

    def test_forward_deterministic(self):
        cfg = tiny_config(kind="lam", d_features=2)
        x = Tensor._wrap(np.random.default_rng(7).normal(size=(8, 2)))
        a = ForecastModel(cfg).forward(x)
        b = ForecastModel(cfg).forward(x)
        assert np.array_equal(a.data, b.data)

    def test_seed_changes_parameters(self):
        a = ForecastModel(tiny_config(seed=0))
        b = ForecastModel(tiny_config(seed=1))
        assert not np.array_equal(a.params["embed.w"].data, b.params["embed.w"].data)

    def test_position_signal_changes_output(self):
        x = Tensor._wrap(np.random.default_rng(8).normal(size=(8, 1)))
        with_pe = ForecastModel(tiny_config()).forward(x)
        model = ForecastModel(tiny_config())
        model.pe = Tensor.zeros(model.pe.shape)
        without = model.forward(x)
        assert not np.allclose(with_pe.data, without.data)

    def test_rejects_wrong_input_shape(self):
        model = ForecastModel(tiny_config())
        with pytest.raises(DimensionError):
            model.forward(Tensor.zeros((7, 1)))
        with pytest.raises(DimensionError):
            model.forward(Tensor.zeros((8, 2)))

    def test_encode_shape(self):
        model = ForecastModel(tiny_config(d_features=3))
        x = Tensor._wrap(np.random.default_rng(10).normal(size=(8, 3)))
        assert model.encode(x).shape == (8, 4)


class TestKernelInterchangeability:
    def test_oracle_inner_matches_blocked_kernel(self):
        cfg = ModelConfig(
            d_features=2, n=13, m=4, d_model=6, num_layers=2, heads=2,
            kind="lam", window=4, seed=3,
        )
        model = ForecastModel(cfg)
        x = Tensor._wrap(np.random.default_rng(11).normal(size=(13, 2)))

        def oracle_inner(ops, q, k, v):
            n = ops.value(q).shape[0]
            return _full_attention(ops, q, k, v, band_mask(n, cfg.window))

        via_blocks = model.forward(x)
        via_oracle = model.forward(x, inner=oracle_inner)
        assert np.max(np.abs(via_blocks.data - via_oracle.data)) <= 1e-10


class TestParameterCounting:
    def test_doubling_layers_adds_constant_per_layer_cost(self):
        counts = [
            sum(t.size for t in ForecastModel(tiny_config(num_layers=depth)).params.values())
            for depth in (1, 2, 3)
        ]
        per_layer = counts[1] - counts[0]
        assert per_layer > 0
        assert counts[2] - counts[1] == per_layer
        model = ForecastModel(tiny_config(num_layers=2))
        layer1 = sum(t.size for name, t in model.params.items()
                     if name.split(".")[0] in ("enc1", "dec1"))
        assert per_layer == layer1


class TestTrain:
    def test_constant_target_converges_fast(self):
        dataset = constant_target_dataset()
        model = ForecastModel(tiny_config())
        report = train(model, dataset, epochs=5, lr=0.05, batch=1, patience=0)
        assert report.train_mse[-1] < 1e-2
        assert report.train_mse[-1] < report.train_mse[0]

    def test_zero_lr_freezes_everything(self):
        dataset = constant_target_dataset()
        model = ForecastModel(tiny_config())
        before = {k: t.data.copy() for k, t in model.params.items()}
        report = train(model, dataset, epochs=4, lr=0.0, batch=3, patience=0)
        assert len(set(report.train_mse)) == 1
        assert len(set(report.val_mse)) == 1
        for name, t in model.params.items():
            assert np.array_equal(t.data, before[name])

    def test_seeded_runs_reproduce_bitwise(self):
        dataset = constant_target_dataset()
        reports = []
        finals = []
        for _ in range(2):
            model = ForecastModel(tiny_config())
            reports.append(train(model, dataset, epochs=3, lr=0.01, batch=2))
            finals.append({k: t.data.copy() for k, t in model.params.items()})
        assert reports[0].train_mse == reports[1].train_mse
        assert reports[0].val_mse == reports[1].val_mse
        for name in finals[0]:
            assert np.array_equal(finals[0][name], finals[1][name])

    def test_divergence_aborts_with_history(self):
        dataset = constant_target_dataset(scale=1e200)
        model = ForecastModel(tiny_config())
        with np.errstate(over="ignore"):
            with pytest.raises(TrainDivergenceError, match="epoch 0") as info:
                train(model, dataset, epochs=2, lr=0.05, batch=4)
        assert "train_mse" in info.value.history

    def test_plateau_stops_early(self):
        dataset = constant_target_dataset()
        model = ForecastModel(tiny_config())
        report = train(model, dataset, epochs=10, lr=0.0, batch=3, patience=3)
        assert report.stopped_early
        assert report.epochs_run == 4  # epoch 0 best, then 3 stale epochs
        assert report.best_epoch == 0

    def test_reports_epoch_seconds_and_throughput(self):
        dataset = constant_target_dataset()
        lines = []
        report = train(ForecastModel(tiny_config()), dataset, epochs=10, lr=0.0, batch=3,
                       patience=2, log=lines.append)
        assert report.stopped_early
        assert len(report.epoch_seconds) == report.epochs_run == len(lines)
        assert all(seconds > 0 for seconds in report.epoch_seconds)
        assert all(line.endswith(" windows/s") for line in lines)

    def test_best_epoch_parameters_restored(self):
        dataset = constant_target_dataset()
        model = ForecastModel(tiny_config())
        report = train(model, dataset, epochs=5, lr=0.05, batch=2, patience=0)
        assert report.val_mse[report.best_epoch] == min(report.val_mse)
        val_mse, val_mae = evaluate(model, dataset.val)
        assert val_mse == report.val_mse[report.best_epoch]

    def test_empty_dataset_rejected(self):
        dataset = constant_target_dataset()
        empty = WindowedDataset(
            train=(), val=(), test=(), scaler=dataset.scaler, n=8, m=2,
            stride=1, split_bounds=dataset.split_bounds,
            feature_names=dataset.feature_names,
        )
        with pytest.raises(ValueError, match="no training windows"):
            train(ForecastModel(tiny_config()), empty)

    @pytest.mark.parametrize("kwargs", [dict(epochs=-1), dict(batch=0), dict(patience=-1)])
    def test_rejects_bad_arguments(self, kwargs):
        dataset = constant_target_dataset()
        with pytest.raises(ValueError):
            train(ForecastModel(tiny_config()), dataset, **kwargs)

    def test_zero_epochs_returns_empty_report(self):
        dataset = constant_target_dataset()
        model = ForecastModel(tiny_config())
        report = train(model, dataset, epochs=0)
        assert report.epochs_run == 0
        assert report.train_mse == []
        assert report.test_mse is not None  # test metrics still evaluated

    def test_evaluate_empty_windows(self):
        mse_val, mae_val = evaluate(ForecastModel(tiny_config()), ())
        assert math.isnan(mse_val) and math.isnan(mae_val)


def save_plain(model, path):
    """Checkpoint under an identity scaler and feature names f0, f1, ..."""
    d = model.config.d_features
    scaler = Scaler(mean=np.zeros(d), std=np.ones(d))
    return save_checkpoint(model, path, scaler, tuple(f"f{i}" for i in range(d)))


def rewrite_manifest(path, mutate):
    """Reload an archive, alter its manifest, and write it back."""
    with np.load(path, allow_pickle=False) as payload:
        arrays = {key: payload[key] for key in payload.files}
    manifest = json.loads(str(arrays.pop("__manifest__")[()]))
    mutate(manifest)
    np.savez(path, __manifest__=np.array(json.dumps(manifest)), **arrays)


def rewrite_bytes(keep):
    def corrupt(path):
        with open(path, "rb") as handle:
            raw = handle.read()
        with open(path, "wb") as handle:
            handle.write(keep(raw))
    return corrupt


def rewrite_arrays(mutate):
    def corrupt(path):
        with np.load(path, allow_pickle=False) as payload:
            arrays = {key: payload[key].copy() for key in payload.files}
        mutate(arrays)
        np.savez(path, **arrays)
    return corrupt


def poison(value):
    def mutate(arrays):
        arrays["time.w"][0, 0] = value
    return mutate


# (corruption, message the CheckpointError must carry), one row per bad input
CORRUPT_CHECKPOINTS = {
    "not-a-zip": (rewrite_bytes(lambda raw: b"not a checkpoint"), "not a readable"),
    "empty": (rewrite_bytes(lambda raw: b""), "not a readable"),
    "truncated": (rewrite_bytes(lambda raw: raw[: len(raw) // 2]), "not a readable"),
    "no-manifest": (rewrite_arrays(lambda a: a.pop("__manifest__")), "has no '__manifest__'"),
    "manifest-not-json": (
        rewrite_arrays(lambda a: a.update(__manifest__=np.array("{"))), "not a readable"
    ),
    "missing-array": (rewrite_arrays(lambda a: a.pop("time.w")), "no array for time.w"),
    "no-config": (lambda p: rewrite_manifest(p, lambda m: m.pop("config")), "has no 'config'"),
    "unknown-config-key": (
        lambda p: rewrite_manifest(p, lambda m: m["config"].update(colour="red")),
        "config is invalid.*colour",
    ),
    "bad-config-value": (
        lambda p: rewrite_manifest(p, lambda m: m["config"].update(kind="dense")),
        "config is invalid.*unknown kind",
    ),
    "heads=0": (
        lambda p: rewrite_manifest(p, lambda m: m["config"].update(heads=0)),
        "config is invalid.*heads=0",
    ),
    "version": (
        lambda p: rewrite_manifest(p, lambda m: m.update(version=CHECKPOINT_VERSION + 1)),
        "version",
    ),
    "v1-config-schema": (
        lambda p: rewrite_manifest(p, lambda m: (
            m.update(version=1),
            m["config"].update(d_head=2, cross_attention="literal"),
        )),
        "version 1 != 3",
    ),
    "v2-checkpoint": (  # the version-2 schema: shapes listed, scaler optional
        lambda p: rewrite_manifest(p, lambda m: (
            m.update(version=2, param_shapes={"time.w": [8, 2]}),
            m.pop("scaler"),
        )),
        "checkpoint version 2 != 3",
    ),
    "no-scaler": (lambda p: rewrite_manifest(p, lambda m: m.pop("scaler")), "has no 'scaler'"),
    "no-feature-names": (
        lambda p: rewrite_manifest(p, lambda m: m.pop("feature_names")), "has no 'feature_names'"
    ),
    "bad-feature-names": (
        lambda p: rewrite_manifest(p, lambda m: m.update(feature_names=[0])),
        "one string feature name per feature",
    ),
    "feature-name-count": (
        lambda p: rewrite_manifest(p, lambda m: m.update(feature_names=["a", "b"])),
        "one string feature name per feature",
    ),
    "nan-parameter": (rewrite_arrays(poison(np.nan)), "time.w is not finite"),
    "inf-parameter": (rewrite_arrays(poison(np.inf)), "time.w is not finite"),
    "text-parameter": (
        rewrite_arrays(lambda a: a.update({"time.w": a["time.w"].astype(str)})),
        "time.w is not finite",
    ),
    "zero-deviation-scaler": (
        lambda p: rewrite_manifest(p, lambda m: m["scaler"].update(std=[0.0])),
        "scaler needs",
    ),
    "scaler-not-object": (
        lambda p: rewrite_manifest(p, lambda m: m.update(scaler=[0.0])), "not a readable"
    ),
    "nan-scaler": (
        lambda p: rewrite_manifest(p, lambda m: m["scaler"].update(mean=[float("nan")])),
        "scaler needs",
    ),
}


class TestCheckpoint:
    def test_round_trip_forward_bitwise(self, tmp_path):
        cfg = tiny_config(kind="lam", d_features=2, num_layers=2)
        model = ForecastModel(cfg)
        x = Tensor._wrap(np.random.default_rng(12).normal(size=(8, 2)))
        before = model.forward(x)
        loaded, _, _ = load_checkpoint(save_plain(model, str(tmp_path / "model.npz")))
        assert loaded.config == cfg
        for name, t in model.params.items():
            assert np.array_equal(t.data, loaded.params[name].data)
        assert np.array_equal(before.data, loaded.forward(x).data)

    def test_suffix_added_when_missing(self, tmp_path):
        model = ForecastModel(tiny_config())
        path = save_plain(model, str(tmp_path / "bare"))
        assert path.endswith("bare.npz")
        load_checkpoint(path)

    def test_scaler_and_names_round_trip(self, tmp_path):
        model = ForecastModel(tiny_config(d_features=2))
        scaler = Scaler(mean=np.array([1.0, -2.0]), std=np.array([0.5, 3.0]))
        path = save_checkpoint(
            model, str(tmp_path / "m.npz"), scaler=scaler, feature_names=("a", "b")
        )
        _, loaded_scaler, names = load_checkpoint(path)
        assert np.array_equal(loaded_scaler.mean, scaler.mean)
        assert np.array_equal(loaded_scaler.std, scaler.std)
        assert names == ["a", "b"]

    def test_manifest_schema_is_pinned(self, tmp_path):
        path = save_plain(ForecastModel(tiny_config()), str(tmp_path / "m.npz"))
        with np.load(path, allow_pickle=False) as payload:
            manifest = json.loads(str(payload["__manifest__"][()]))
        assert CHECKPOINT_VERSION == 3 and manifest["version"] == 3
        assert set(manifest) == {"version", "config", "param_names", "scaler", "feature_names"}
        assert list(manifest["config"]) == [f.name for f in dataclasses.fields(ModelConfig)]

    def test_version_mismatch_rejected(self, tmp_path):
        path = save_plain(ForecastModel(tiny_config()), str(tmp_path / "m.npz"))
        rewrite_manifest(path, lambda m: m.update(version=CHECKPOINT_VERSION + 1))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = save_plain(ForecastModel(tiny_config()), str(tmp_path / "m.npz"))
        rewrite_manifest(path, lambda m: m["config"].update(d_model=8))
        with pytest.raises(ValueError, match="shape"):
            load_checkpoint(path)

    def test_name_mismatch_rejected(self, tmp_path):
        path = save_plain(ForecastModel(tiny_config()), str(tmp_path / "m.npz"))
        rewrite_manifest(path, lambda m: m["config"].update(num_layers=2))
        with pytest.raises(ValueError, match="names"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", sorted(CORRUPT_CHECKPOINTS))
    def test_corrupt_file_rejected(self, tmp_path, case):
        corrupt, message = CORRUPT_CHECKPOINTS[case]
        path = save_plain(ForecastModel(tiny_config()), str(tmp_path / "m.npz"))
        corrupt(path)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)
