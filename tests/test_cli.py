"""CLI tests: verify, bench, train, bandmass, forecast; flags and exit codes."""

import csv
import inspect
import json
import math
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import localattn.cli as cli
from localattn.attention import band_mask, full_attention
from localattn.cli import BENCH_HEADER, main, parse_config, resolve_band
from localattn.data import Scaler, load_csv, synth_series
from localattn.lam import default_window, lam_forward
from localattn.model import ForecastModel, ModelConfig, save_checkpoint, train
from localattn.tensor import DegenerateRowError, Tensor


def write_csv(path, values, names):
    with open(path, "w") as handle:
        handle.write(",".join(names) + "\n")
        for row in values:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")
    return str(path)


class TestVerifyCommand:
    def test_clean_build_passes(self, capsys):
        assert main(["verify", "--trials", "12", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_injected_fault_fails_equivalence(self, capsys):
        assert main(["verify", "--trials", "12", "--inject-fault", "pad-guard"]) == 1
        out = capsys.readouterr().out
        assert "FAIL  oracle-equivalence" in out
        # deviations must sit in the zero-padded early rows only
        assert "rows>=window-1 = " in out
        late = float(out.split("rows>=window-1 = ")[1].split()[0].rstrip(","))
        assert late <= 1e-10

    def test_unknown_fault_name_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--inject-fault", "other"])
        assert info.value.code == 2


class TestBenchCommand:
    def run_bench(self, tmp_path, capsys, *extra):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--n-list", "64,128,256", "--l-rule", "fixed:16",
             "--out", str(out), *extra]
        )
        assert code == 0
        return out.read_text(), capsys.readouterr().out

    def test_csv_schema_and_counts(self, tmp_path, capsys):
        text, stdout = self.run_bench(tmp_path, capsys)
        lines = text.strip().splitlines()
        assert lines[0] == BENCH_HEADER
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert len(rows) == 6  # 2 mechanisms x 3 sizes
        for row in rows:
            assert len(row) == 8
            mechanism, n, window, d_model, wall_ns, dots, peak, seed = row
            n, window, dots, peak = int(n), int(window), int(dots), int(peak)
            assert int(wall_ns) > 0
            if mechanism == "lam":
                assert dots == (2 * window - 1) * n  # 16 divides every n here
                assert peak == (n // window) * window * (2 * window - 1)
            if mechanism == "full":
                assert dots == n * n
                assert peak == n * n
        assert "slope(lam)" in stdout and "slope(full)" in stdout
        assert "peak RSS" in stdout

    def test_determinism_of_counts(self, tmp_path, capsys):
        text1, _ = self.run_bench(tmp_path, capsys)
        text2, _ = self.run_bench(tmp_path, capsys)
        strip_wall = lambda t: [
            line.split(",")[:4] + line.split(",")[5:]
            for line in t.strip().splitlines()
        ]
        assert strip_wall(text1) == strip_wall(text2)

    def test_memory_limit_skips_quadratic_cell(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MEM_LIMIT_BYTES", 1_000_000)
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--n-list", "256,512", "--l-rule", "fixed:16", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        skipped = [line for line in lines if line.startswith("# skipped")]
        assert len(skipped) == 1 and "full" in skipped[0] and "512" in skipped[0]
        empty = [line for line in lines if ",,,," in line]
        assert len(empty) == 1
        assert len(empty[0].split(",")) == 8  # schema kept, cells empty
        assert "skipped full at n=512" in capsys.readouterr().out

    def test_no_operands_are_drawn_when_no_cell_fits(self, capsys, monkeypatch):
        """Every cell is estimated before an n's operands are drawn, so none are when all skip."""
        monkeypatch.setattr(cli, "MEM_LIMIT_BYTES", 1000)
        monkeypatch.setattr(cli, "_warm_up", lambda: None)
        monkeypatch.setattr(np.random, "default_rng", lambda *a: pytest.fail("operands drawn"))
        assert main(["bench", "--n-list", "2,3", "--mechanisms", "full,lam", "--d-model", "64"]) == 0
        out = capsys.readouterr().out
        for cell in ("full at n=2", "lam at n=2", "full at n=3", "lam at n=3"):
            assert f"skipped {cell}: estimated" in out

    @pytest.mark.parametrize("n", [4096, 20000])
    def test_lam_estimate_covers_the_traced_peak(self, n):
        """The guard's lam estimate is at least what one forward allocates, operands included."""
        d, window = 8, default_window(n)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            q, k, v = (Tensor._wrap(rng.normal(size=(n, d))) for _ in range(3))
            lam_forward(q, k, v, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cli._estimated_bytes("lam", n, window, d) >= peak

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "--n-list", "128,64"],
            ["bench", "--n-list", "64,64"],
            ["bench", "--n-list", "oops"],
            ["bench", "--mechanisms", "dense"],
            ["bench", "--repeats", "3"],
            ["bench", "--l-rule", "fixed:x"],
            ["bench", "--l-rule", "log"],
            ["bench", "--mechanisms", "prob"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


class TestResolveBand:
    def test_rules(self):
        assert resolve_band("4ceil", 256) == 32
        assert resolve_band("4ceil", 100) == 28
        assert resolve_band("fixed:32", 512) == 32
        assert resolve_band("fixed:32", 8) == 8  # clamped to n

    def test_bad_rules(self):
        with pytest.raises(ValueError):
            resolve_band("fixed:0", 16)
        with pytest.raises(ValueError):
            resolve_band("quadratic", 16)
        with pytest.raises(ValueError, match="ceil4"):
            resolve_band("ceil4", 100)


class TestParseConfig:
    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\nkind=full\nn=32\nm=8\nd_model=4\nN=1\nh=2\nL=8\n"
            "lr=0.005\nepochs=2\nbatch=16\nseed=3\n\n"
        )
        config = parse_config(str(path))
        assert config["kind"] == "full"
        assert config["n"] == 32 and config["L"] == 8
        assert config["lr"] == 0.005
        assert isinstance(config["epochs"], int)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("window=8\n")
        with pytest.raises(ValueError, match="window"):
            parse_config(str(path))

    def test_bad_value_named(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n=abc\n")
        with pytest.raises(ValueError, match="abc"):
            parse_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ValueError, match="no-such"):
            parse_config("no-such.cfg")

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_config(str(path))


def tiny_train_args(tmp_path, out_name="run", **config):
    settings = dict(kind="lam", n=16, m=4, d_model=4, N=1, h=2, lr=0.01,
                    epochs=2, batch=16, seed=0)
    settings.update(config)
    cfg = tmp_path / f"{out_name}.cfg"
    cfg.write_text("".join(f"{k}={v}\n" for k, v in settings.items()))
    out = tmp_path / out_name
    return [
        "train", "--config", str(cfg), "--samples", "400", "--d-features", "2",
        "--stride", "4", "--out", str(out),
    ], out


class TestTrainCommand:
    def test_writes_all_artifacts(self, tmp_path, capsys):
        argv, out = tiny_train_args(tmp_path)
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert "test mse" in stdout and "baseline" in stdout
        assert stdout.count(" windows/s") == 2  # one throughput line per epoch

        with open(out / "loss.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["epoch", "train_mse", "val_mse", "train_mae", "val_mae"]
        assert len(rows) == 3  # header + 2 epochs
        assert float(rows[2][1]) < float(rows[1][1])  # loss fell

        from localattn.model import load_checkpoint

        model, scaler, names = load_checkpoint(str(out / "checkpoint.npz"))
        assert model.config.n == 16 and model.config.kind == "lam"
        assert scaler is not None and names == ["f0", "f1"]
        assert (out / "manifest.txt").exists()

    def test_same_config_gives_identical_csv(self, tmp_path):
        argv1, out1 = tiny_train_args(tmp_path, out_name="a")
        argv2, out2 = tiny_train_args(tmp_path, out_name="b")
        assert main(argv1) == 0
        assert main(argv2) == 0
        assert (out1 / "loss.csv").read_text() == (out2 / "loss.csv").read_text()

    def test_zero_epochs_initial_checkpoint(self, tmp_path, capsys):
        argv, out = tiny_train_args(tmp_path, epochs=0)
        assert main(argv) == 0
        rows = (out / "loss.csv").read_text().strip().splitlines()
        assert len(rows) == 1  # header only
        assert (out / "checkpoint.npz").exists()

    def test_csv_data_source(self, tmp_path):
        raw = synth_series("sines", 400, d=2, seed=1)
        data = write_csv(tmp_path / "series.csv", raw.values, ["x", "y"])
        argv, out = tiny_train_args(tmp_path)
        argv[argv.index("--samples"):argv.index("--stride")] = ["--data", data]
        assert main(argv) == 0
        from localattn.model import load_checkpoint

        _, _, names = load_checkpoint(str(out / "checkpoint.npz"))
        assert names == ["x", "y"]

    def test_checkpoint_from_a_bom_file_forecasts_the_same_header_without_one(self, tmp_path):
        raw = synth_series("sines", 400, d=2, seed=1)
        plain = write_csv(tmp_path / "plain.csv", raw.values, ["x", "y"])
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        argv, out = tiny_train_args(tmp_path)
        argv[argv.index("--samples"):argv.index("--stride")] = ["--data", str(bom)]
        assert main(argv) == 0
        assert main(["forecast", "--checkpoint", str(out / "checkpoint.npz"),
                     "--input", plain, "--out", str(tmp_path / "fc.csv")]) == 0
        assert load_csv(str(tmp_path / "fc.csv")).feature_names == ("x", "y")

    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("stride=4\n")
        assert main(["train", "--config", str(cfg)]) == 2
        assert "stride" in capsys.readouterr().err

    def test_unknown_data_source_exit_2(self, capsys):
        assert main(["train", "--data", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_readme_defaults_match_the_library(self):
        """The README's config table repeats the defaults cmd_train falls back to."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### train", 1)[1].split("### ", 1)[0]
        table = dict(re.findall(r"^\| `(\w+)` \|.*\| (.+?) \|$", section, re.M))
        assert list(table) == list(cli.CONFIG_KEYS)
        library = {f.name: f.default for f in fields(ModelConfig)}
        library.update(
            (name, p.default) for name, p in inspect.signature(train).parameters.items()
        )
        for key, (name, cast) in cli.CONFIG_KEYS.items():
            default = cli.DEFAULT_CONFIG.get(key, library[name])
            if default is None:  # derived from other values, here the band rule
                assert table[key] == "derived", key
            else:
                assert cast(table[key].strip("`")) == default, key


def bandmass_checkpoint(tmp_path, n=32, seed=0):
    """A seeded full-attention model saved with the scaler of its sines input."""
    model = ForecastModel(ModelConfig(d_features=2, n=n, m=1, d_model=4, num_layers=1,
                                      heads=2, kind="full", seed=seed))
    scaler = Scaler.fit(synth_series("sines", n, d=2, seed=seed).values)
    return save_checkpoint(model, str(tmp_path / "bandmass.npz"), scaler, ("f0", "f1"))


def edit_manifest(ckpt, edit):
    """Rewrite a checkpoint with ``edit`` applied to its JSON manifest."""
    with np.load(ckpt, allow_pickle=False) as payload:
        arrays = {key: payload[key] for key in payload.files}
    manifest = json.loads(str(arrays.pop("__manifest__")[()]))
    edit(manifest)
    np.savez(ckpt, __manifest__=np.array(json.dumps(manifest)), **arrays)


class TestBandmassCommand:
    def run_bandmass(self, tmp_path, *extra):
        out = tmp_path / "mass.csv"
        code = main(
            ["bandmass", "--checkpoint", bandmass_checkpoint(tmp_path), "--l-list", "1,4,32",
             "--out", str(out), *extra]
        )
        assert code == 0
        with open(out) as handle:
            return list(csv.DictReader(handle))

    def test_rows_and_range(self, tmp_path):
        rows = self.run_bandmass(tmp_path)
        # 3 attention blocks (enc0, dec0.self, dec0.cross) x 2 heads x 3 bands
        assert len(rows) == 18
        for row in rows:
            assert 0.0 < float(row["band_mass"]) <= 1.0

    def test_monotone_in_band(self, tmp_path):
        rows = self.run_bandmass(tmp_path)
        by_head = {}
        for row in rows:
            by_head.setdefault((row["layer"], row["head"]), []).append(
                (int(row["L"]), float(row["band_mass"]))
            )
        for series in by_head.values():
            masses = [mass for _, mass in sorted(series)]
            assert all(a <= b + 1e-12 for a, b in zip(masses, masses[1:]))

    def test_csv_equals_masked_reference(self, tmp_path):
        """Every CSV value is, bit for bit, the masked quadratic band mass of its head."""
        rows = self.run_bandmass(tmp_path)
        model, scaler, _ = cli.load_checkpoint(str(tmp_path / "bandmass.npz"))
        x = Tensor._wrap(scaler.transform(synth_series("sines", 32, d=2, seed=0).values))
        expect = []
        for label, head, q, k in cli._capture_projected_qk(model, x):
            weights = full_attention(q, k, Tensor(np.eye(32))).data
            for band in (1, 4, 32):
                mass = np.sum(weights * (band_mask(32, band).data == 0), axis=1).mean()
                expect.append((label, str(head), str(band), repr(float(mass))))
        assert [tuple(row.values()) for row in rows] == expect

    def test_checkpoint_mode(self, tmp_path):
        model = ForecastModel(
            ModelConfig(d_features=2, n=32, m=4, d_model=4, num_layers=1, heads=2)
        )
        scaler = Scaler(mean=np.zeros(2), std=np.ones(2))
        path = save_checkpoint(model, str(tmp_path / "ck.npz"), scaler, ("a", "b"))
        out = tmp_path / "mass.csv"
        assert main(["bandmass", "--checkpoint", path, "--l-list", "1,32",
                     "--out", str(out)]) == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 12  # 3 blocks x 2 heads x 2 bands

    def test_missing_checkpoint_exit_2(self, capsys):
        assert main(["bandmass", "--checkpoint", "nope.npz"]) == 2
        assert "nope.npz" in capsys.readouterr().err

    def test_band_out_of_range_exit_2(self, tmp_path, capsys):
        ckpt = bandmass_checkpoint(tmp_path, n=16)
        assert main(["bandmass", "--checkpoint", ckpt, "--l-list", "99"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_checkpoint_required(self):
        with pytest.raises(SystemExit) as info:
            main(["bandmass", "--l-list", "1,4"])
        assert info.value.code == 2


def forecast_fixture(tmp_path, d=2, n=8, m=3):
    model = ForecastModel(
        ModelConfig(d_features=d, n=n, m=m, d_model=4, num_layers=1, heads=2, seed=1)
    )
    scaler = Scaler(mean=np.zeros(d), std=np.ones(d))
    ckpt = save_checkpoint(
        model, str(tmp_path / "model.npz"), scaler=scaler,
        feature_names=tuple(f"f{i}" for i in range(d)),
    )
    raw = synth_series("sines", 20, d=d, seed=2)
    data = write_csv(tmp_path / "in.csv", raw.values, [f"f{i}" for i in range(d)])
    return ckpt, data, model


class TestForecastCommand:
    def test_round_trip_parses(self, tmp_path, capsys):
        ckpt, data, model = forecast_fixture(tmp_path)
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--checkpoint", ckpt, "--input", data,
                     "--out", str(out)]) == 0
        parsed = load_csv(str(out))
        assert parsed.values.shape == (3, 2)
        assert parsed.feature_names == ("f0", "f1")  # header matches the input

        raw = load_csv(data)
        x = Tensor._wrap(raw.values[-8:])  # identity scaler in the fixture
        expected = model.forward(x)
        assert np.allclose(parsed.values, expected.data, atol=1e-12)

    def test_missing_checkpoint_exit_2(self, tmp_path, capsys):
        assert main(["forecast", "--checkpoint", "missing.npz",
                     "--input", "x.csv", "--out", "y.csv"]) == 2
        assert "missing.npz" in capsys.readouterr().err

    def test_feature_count_mismatch_exit_2(self, tmp_path, capsys):
        ckpt, _, _ = forecast_fixture(tmp_path, d=2)
        raw = synth_series("sines", 20, d=3, seed=2)
        data = write_csv(tmp_path / "wide.csv", raw.values, ["a", "b", "c"])
        assert main(["forecast", "--checkpoint", ckpt, "--input", data,
                     "--out", str(tmp_path / "fc.csv")]) == 2
        err = capsys.readouterr().err
        assert "3 features" in err and "2" in err

    def test_too_short_input_exit_2(self, tmp_path, capsys):
        ckpt, _, _ = forecast_fixture(tmp_path, n=8)
        raw = synth_series("sines", 5, d=2, seed=2)
        data = write_csv(tmp_path / "short.csv", raw.values, ["f0", "f1"])
        assert main(["forecast", "--checkpoint", ckpt, "--input", data,
                     "--out", str(tmp_path / "fc.csv")]) == 2
        assert "at least 8" in capsys.readouterr().err

    def test_checkpoint_without_scaler_exit_2(self, tmp_path, capsys):
        ckpt, data, _ = forecast_fixture(tmp_path)
        edit_manifest(ckpt, lambda manifest: manifest.pop("scaler"))
        assert main(["forecast", "--checkpoint", ckpt, "--input", data,
                     "--out", str(tmp_path / "fc.csv")]) == 2
        assert "scaler" in capsys.readouterr().err

    def test_input_far_inside_the_bound_still_forecasts(self, tmp_path, capsys):
        """A cell 50 deviations out (identity scaler) is far from the data, not bad input."""
        ckpt, _, model = forecast_fixture(tmp_path)
        values = synth_series("sines", 20, d=2, seed=2).values.copy()
        values[-3, 0] = 50.0
        data = write_csv(tmp_path / "far.csv", values, ["f0", "f1"])
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--checkpoint", ckpt, "--input", data,
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        expected = model.forward(Tensor._wrap(values[-8:])).data
        assert np.array_equal(load_csv(str(out)).values, expected)

    def test_converged_model_forecasts_constant(self, tmp_path):
        # a model trained to emit one constant keeps emitting it
        from localattn.model import train
        from localattn.data import WindowedDataset

        rng = np.random.default_rng(4)
        windows = tuple(
            (Tensor._wrap(rng.normal(size=(8, 1))), Tensor._wrap(np.full((3, 1), 0.5)))
            for _ in range(8)
        )
        scaler = Scaler(mean=np.zeros(1), std=np.ones(1))
        dataset = WindowedDataset(
            train=windows, val=windows[:2], test=windows[:2], scaler=scaler,
            n=8, m=3, stride=1,
            split_bounds=((0, 0), (0, 0), (0, 0)), feature_names=("v",),
        )
        model = ForecastModel(
            ModelConfig(d_features=1, n=8, m=3, d_model=4, num_layers=1, heads=2)
        )
        train(model, dataset, epochs=6, lr=0.05, batch=1, patience=0)
        ckpt = save_checkpoint(model, str(tmp_path / "const.npz"), scaler, ("v",))
        data = write_csv(
            tmp_path / "in.csv", rng.normal(size=(10, 1)), ["v"]
        )
        out = tmp_path / "fc.csv"
        assert main(["forecast", "--checkpoint", ckpt, "--input", data,
                     "--out", str(out)]) == 0
        parsed = load_csv(str(out))
        assert np.max(np.abs(parsed.values - 0.5)) < 0.25


class TestMainPlumbing:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main(["paint"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv", [
        "verify --seed -1", "bench --seed -12 --n-list 8,16", "train --seed -1",
        "bandmass --checkpoint m.npz --seed -1",
    ])
    def test_negative_seed_is_a_usage_error_naming_the_seed(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv.split())
        assert info.value.code == 2
        assert "argument --seed: seed must be >= 0, got -" in capsys.readouterr().err

    def test_degenerate_row_is_a_run_failure_exit_1(self, capsys, monkeypatch):
        def degenerate(**kwargs):
            raise DegenerateRowError("softmax row with no finite entry cannot be normalized")

        monkeypatch.setattr(cli, "run_all", degenerate)
        assert main(["verify"]) == 1
        assert capsys.readouterr().err == (
            "error: softmax row with no finite entry cannot be normalized\n"
        )

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 745. GiB for an array", "Unable to allocate 745. GiB for an array"),
        ("", "MemoryError"),
    ])
    def test_out_of_memory_is_a_run_failure_exit_1(self, tmp_path, capsys, monkeypatch,
                                                    message, line):
        def too_large(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "synth_series", too_large)
        argv, _ = tiny_train_args(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_untrainable_kind_exits_2_before_loading_data(self, tmp_path, capsys, monkeypatch):
        argv, out = tiny_train_args(tmp_path, kind="prob")
        monkeypatch.setattr(cli, "_load_series", lambda *args: pytest.fail("data loaded"))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err.startswith("error: ") and "'prob'" in captured.err

    # bad flag values of the other commands -> text the error line must contain
    FLAG_CASES = {
        "bench --d-model 0": "--d-model must be >= 1",
        "bench --d-model -1": "--d-model must be >= 1",
        "bench --l-rule ceil4": "'ceil4'",
        "verify --trials 0": "trials must be >= 1",
        "verify --trials -5": "trials must be >= 1",
        "bench --mechanisms lam,lam": "once each, got 'lam,lam'",
    }

    @pytest.mark.parametrize("case", [
        "data-is-a-directory", "input-is-a-directory", "non-utf8-csv", "oversized-csv-field",
        "blank-first-csv-row", "lr=nan", "lr=0", "epochs=-1", "batch=0", "seed=-1", "h=0",
        "bandmass-heads=0", "forecast-header", "forecast-non-finite", "forecast-far-cell",
        "forecast-overflowing-checkpoint", "forecast-window=8.0", "no-validation-windows",
        "repeated-config-key", "train-overflowing-feature", "out-bandmass", "out-bench", "out-forecast", "out-train-file", "out-train-too-long",
        *FLAG_CASES,
    ])
    def test_bad_input_exits_2_with_one_error_line(self, tmp_path, capsys, monkeypatch, case):
        """Bad paths, config and flag values, splits: exit 2, one line naming the culprit."""
        argv, out = tiny_train_args(tmp_path)
        quiet = True  # nothing printed before the error
        if case.endswith("is-a-directory"):
            culprit = str(tmp_path / "dir.csv")
            (tmp_path / "dir.csv").mkdir()
            argv += ["--data", culprit]
            if case == "input-is-a-directory":
                ckpt, _, _ = forecast_fixture(tmp_path)
                argv = ["forecast", "--checkpoint", ckpt, "--input", culprit, "--out", str(out)]
        elif case == "non-utf8-csv":
            culprit = str(tmp_path / "latin1.csv")
            (tmp_path / "latin1.csv").write_bytes(b"a,b\n\xe9,1.0\n")
            argv += ["--data", culprit]
        elif case == "oversized-csv-field":  # beyond the csv module's field size limit
            culprit = str(tmp_path / "wide.csv")
            (tmp_path / "wide.csv").write_text("a,b\n" + "1" * 200_000 + ",1.0\n")
            argv += ["--data", culprit]
        elif case == "blank-first-csv-row":  # caught by the cell count, not the timestamp check
            culprit = "line 2 has 0 cells, header has 2"
            (tmp_path / "blank.csv").write_text("a,b\n\n1,2\n3,4\n")
            argv += ["--data", str(tmp_path / "blank.csv")]
        elif case in ("h=0", "bandmass-heads=0"):  # ModelConfig names the field
            culprit = "heads=0"
            argv, out = tiny_train_args(tmp_path, h="0")
            if case.startswith("bandmass"):
                ckpt, _, _ = forecast_fixture(tmp_path)
                edit_manifest(ckpt, lambda manifest: manifest["config"].update(heads=0))
                argv = ["bandmass", "--checkpoint", ckpt, "--out", str(out)]
        elif case == "forecast-header":  # the checkpoint's columns, reordered
            culprit = "has 2 features ['f1', 'f0'], checkpoint expects 2 ['f0', 'f1']"
            ckpt, _, _ = forecast_fixture(tmp_path)
            raw = synth_series("sines", 20, d=2, seed=2)
            data = write_csv(tmp_path / "swapped.csv", raw.values, ["f1", "f0"])
            argv = ["forecast", "--checkpoint", ckpt, "--input", data, "--out", str(out)]
        elif case == "forecast-non-finite":  # a finite cell so large the forward overflows
            ckpt, _, _ = forecast_fixture(tmp_path)
            values = synth_series("sines", 20, d=2, seed=2).values.copy()
            values[-3, 0] = 1e200
            culprit = write_csv(tmp_path / "huge.csv", values, ["f0", "f1"])
            argv = ["forecast", "--checkpoint", ckpt, "--input", culprit, "--out", str(out)]
        elif case == "forecast-far-cell":  # far outside any training range, finite forward or not
            ckpt, _, _ = forecast_fixture(tmp_path)
            values = synth_series("sines", 20, d=2, seed=2).values.copy()
            values[-3, 1] = 1e150
            data = write_csv(tmp_path / "far.csv", values, ["f0", "f1"])
            culprit = f"{data}: column f1 lies more than"
            argv = ["forecast", "--checkpoint", ckpt, "--input", data, "--out", str(out)]
        elif case == "forecast-overflowing-checkpoint":  # ordinary input, finite huge weights
            ckpt, data, _ = forecast_fixture(tmp_path)
            culprit = f"{data}: the forecast is not finite"
            with np.load(ckpt, allow_pickle=False) as payload:
                arrays = {key: payload[key].copy() for key in payload.files}
            # every unembedded entry near 1e6 and every time weight the float64
            # maximum: each product of the last matmul overflows
            arrays["unembed.b"] = np.full_like(arrays["unembed.b"], 1e6)
            arrays["time.w"] = np.full_like(arrays["time.w"], np.finfo(np.float64).max)
            np.savez(ckpt, **arrays)
            argv = ["forecast", "--checkpoint", ckpt, "--input", data, "--out", str(out)]
        elif case == "forecast-window=8.0":  # ModelConfig checks the type, not only the range
            culprit = "window must be an integer, got 8.0"
            ckpt, data, _ = forecast_fixture(tmp_path)
            edit_manifest(ckpt, lambda manifest: manifest["config"].update(window=8.0))
            argv = ["forecast", "--checkpoint", ckpt, "--input", data, "--out", str(out)]
        elif case == "repeated-config-key":  # kind is line 1, n line 2
            culprit = "repeated config key 'n' (first at line 2)"
            with open(argv[2], "a") as handle:
                handle.write("n=8\n")
        elif case == "train-overflowing-feature":  # its deviation overflows float64
            culprit = "feature 1 has mean"
            values = synth_series("sines", 400, d=2, seed=1).values.copy()
            values[:, 1] = 1e199 * (2.0 + values[:, 1])
            argv += ["--data", write_csv(tmp_path / "huge.csv", values, ["a", "b"])]
        elif case in self.FLAG_CASES:
            culprit, argv = self.FLAG_CASES[case], case.split()
            if argv[0] == "bench":
                argv += ["--n-list", "64", "--repeats", "5", "--out", str(out)]
        elif case.startswith("out-"):  # an --out the command cannot write
            culprit = str(tmp_path / "nodir" / "x.csv")
            if case == "out-bandmass":  # rejected before the checkpoint loads
                argv = ["bandmass", "--checkpoint", bandmass_checkpoint(tmp_path), "--out", culprit]
                monkeypatch.setattr(cli, "load_checkpoint", lambda *a: pytest.fail("loaded"))
            elif case == "out-bench":  # rejected before the sweep runs
                monkeypatch.setattr(cli, "bench_records", lambda *a: pytest.fail("sweep ran"))
                argv = ["bench", "--n-list", "512,1024", "--out", culprit]
            elif case == "out-forecast":  # rejected before the checkpoint loads
                ckpt, data, _ = forecast_fixture(tmp_path)
                argv = ["forecast", "--checkpoint", ckpt, "--input", data, "--out", culprit]
                monkeypatch.setattr(cli, "load_checkpoint", lambda *a: pytest.fail("loaded"))
            elif case == "out-train-file":  # an existing file where the directory goes
                culprit = str(tmp_path / "taken")
                (tmp_path / "taken").write_text("")
                argv[-1] = culprit
            else:  # a directory name too long to make, rejected before data loads
                culprit = str(tmp_path / ("a" * 300) / "x")
                argv[-1] = culprit
        elif case == "no-validation-windows":
            culprit, quiet = "no validation windows", False
            argv = ["train", "--samples", "400", "--out", str(out)]  # n=96 default
        else:
            culprit = case
            key, value = case.split("=")
            argv, out = tiny_train_args(tmp_path, **{key: value})
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert culprit in captured.err
        assert not out.exists() and (captured.out == "" or not quiet)

    @pytest.mark.parametrize("command", ["train", "forecast"])
    def test_dropped_csv_rows_reported(self, tmp_path, capsys, command):
        """Rows ``load_csv`` drops are counted on one stderr line; the run still succeeds."""
        values = synth_series("sines", 400, d=2, seed=1).values.astype(object)
        values[3, 0], values[7, 1] = "abc", "inf"  # file lines 5 and 9
        data = tmp_path / "gappy.csv"
        data.write_text("f0,f1\n" + "".join(f"{a},{b}\n" for a, b in values))
        if command == "train":
            argv, _ = tiny_train_args(tmp_path)
            argv[argv.index("--samples"):argv.index("--stride")] = ["--data", str(data)]
        else:
            ckpt, _, _ = forecast_fixture(tmp_path)
            argv = ["forecast", "--checkpoint", ckpt, "--input", str(data),
                    "--out", str(tmp_path / "fc.csv")]
        assert main(argv) == 0
        assert capsys.readouterr().err == (
            f"warning: {data}: dropped 2 row(s), first at line 5 (column f0: unparseable 'abc')\n"
        )

    # corruption -> text the error line must contain
    CORRUPT = {
        "truncated": "not a readable checkpoint",
        "nan-parameter": "time.w is not finite",
        "version-2": "checkpoint version 2 != 4",
    }

    @pytest.mark.parametrize("command", ["bandmass", "forecast"])
    @pytest.mark.parametrize("corrupt", sorted(CORRUPT))
    def test_corrupt_checkpoint_exit_2(self, tmp_path, capsys, command, corrupt):
        ckpt, data, _ = forecast_fixture(tmp_path)
        if corrupt == "truncated":
            raw = (tmp_path / "model.npz").read_bytes()
            (tmp_path / "model.npz").write_bytes(raw[: len(raw) // 2])
        else:
            with np.load(ckpt, allow_pickle=False) as payload:
                arrays = {key: payload[key].copy() for key in payload.files}
            if corrupt == "nan-parameter":
                arrays["time.w"][0, 0] = np.nan
            else:
                manifest = json.loads(str(arrays["__manifest__"][()]))
                manifest["version"] = 2
                arrays["__manifest__"] = np.array(json.dumps(manifest))
            np.savez(ckpt, **arrays)
        argv = ["--checkpoint", ckpt, "--out", str(tmp_path / "out.csv")]
        if command == "forecast":
            argv += ["--input", data]
        assert main([command, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert self.CORRUPT[corrupt] in captured.err
        assert "nan" not in captured.out
