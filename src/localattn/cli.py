"""Command-line entry point: verify, bench, train, bandmass, forecast.

``train`` maps its key=value config file onto :class:`ModelConfig` fields
and :func:`train` keywords (``CONFIG_KEYS``); a key the file leaves out
takes the library default. ``bandmass`` and ``forecast`` load their model
from a checkpoint that ``train`` wrote.

Exit codes: 0 success, 1 suite or run failure (``DegenerateRowError`` or
``MemoryError``), 2 usage error (any other ``ValueError``).
Every command is deterministic under a fixed --seed.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import resource
import stat
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .attention import _SCORE_CHUNK, band_mass, full_attention
from .data import (
    baseline_metrics,
    load_csv,
    standardize_split_window,
    synth_series,
    write_manifest,
)
from .lam import LamCounters, default_window, lam_forward, score_counts
from .model import (
    ForecastModel,
    ModelConfig,
    TrainDivergenceError,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .tensor import DegenerateRowError, Tensor
from .verify import run_all

__all__ = ["main", "BenchRecord", "bench_records", "parse_config", "BENCH_HEADER"]

BENCH_HEADER = "mechanism,n,L,d_model,wall_ns,dot_products,peak_score_elements,seed"

# memory guard for the quadratic baseline: an n x n float64 score matrix
# plus operands must fit comfortably; larger cells are skipped, not crashed
MEM_LIMIT_BYTES = int(3.5 * 2**30)

# untimed work before the first timed cell: a fresh process can run
# threaded matmuls an order of magnitude slower for up to about a second
WARMUP_SECONDS = 1.5

# config-file key -> (ModelConfig field or train() keyword, value type)
CONFIG_KEYS = {
    "kind": ("kind", str),
    "n": ("n", int),
    "m": ("m", int),
    "d_model": ("d_model", int),
    "N": ("num_layers", int),
    "h": ("heads", int),
    "L": ("window", int),
    "lr": ("lr", float),
    "epochs": ("epochs", int),
    "batch": ("batch", int),
    "seed": ("seed", int),
}

# values training cannot use, rejected as the file is read (before data loads)
CONFIG_RANGES = {
    "kind": (lambda x: x in ("full", "lam"), "full or lam"),
    "lr": (lambda x: math.isfinite(x) and x > 0, "finite and > 0"),
    "epochs": (lambda x: x >= 0, ">= 0"),
    "batch": (lambda x: x >= 1, ">= 1"),
}

# what ModelConfig leaves required (n, m) and the seed the synthetic series
# needs before the model config exists; every other default is the library's
DEFAULT_CONFIG = {"n": 96, "m": 24, "seed": 0}


# -- verify ------------------------------------------------------------------


def cmd_verify(args) -> int:
    results = run_all(
        trials=args.trials, seed=args.seed, inject_fault=args.inject_fault is not None
    )
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return 1 if failed else 0


# -- bench -------------------------------------------------------------------


@dataclass(frozen=True)
class BenchRecord:
    mechanism: str
    n: int
    window: int
    d_model: int
    wall_ns: int
    dot_products: int
    peak_score_elements: int
    seed: int

    def csv_row(self) -> str:
        return (
            f"{self.mechanism},{self.n},{self.window},{self.d_model},"
            f"{self.wall_ns},{self.dot_products},{self.peak_score_elements},{self.seed}"
        )


def resolve_band(rule: str, n: int) -> int:
    """Band size for one n under an --l-rule value; fixed:<k> clamps to n."""
    if rule == "4ceil":
        return default_window(n)
    if rule.startswith("fixed:"):
        try:
            k = int(rule.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad --l-rule {rule!r}: fixed:<k> needs an integer")
        if k < 1:
            raise ValueError(f"bad --l-rule {rule!r}: band must be >= 1")
        return min(k, n)
    raise ValueError(f"unknown --l-rule {rule!r}; expected 4ceil or fixed:<k>")


def _estimated_bytes(mechanism: str, n: int, window: int, d: int) -> int:
    operands = 4 * n * d * 8
    if mechanism == "full":
        return n * n * 8 + operands
    # the scores, one chunk of weights (one block at least, the whole scores at most)
    # and that chunk's band temporary (at most a chunk), plus the key and value slabs
    peak = score_counts(n, window)[1]
    chunk = min(peak, max(_SCORE_CHUNK, window * (2 * window - 1)))
    return (peak + 2 * chunk) * 8 + 2 * (peak // window) * d * 8 + operands


def _run_mechanism(mechanism: str, q, k, v, window: int):
    """One forward; returns its counters' (dot_products, peak_score_elements)."""
    counters = LamCounters()
    if mechanism == "lam":
        lam_forward(q, k, v, window, counters=counters)
    else:
        full_attention(q, k, v, counters=counters)
    return counters.dot_products, counters.peak_score_elements


def _warm_up() -> None:
    """Untimed full-attention forwards (threaded BLAS at n=512) for WARMUP_SECONDS."""
    x = Tensor._wrap(np.random.default_rng(0).normal(size=(512, 8)))
    deadline = time.perf_counter() + WARMUP_SECONDS
    while time.perf_counter() < deadline:
        full_attention(x, x, x)


def bench_records(n_list, mechanisms, l_rule, repeats, d_model, seed):
    """Timed records plus (mechanism, n, reason) skip notes.

    The process is warmed up for ``WARMUP_SECONDS`` first. Each cell is a
    single attention forward on seeded operands, timed as the median of
    ``repeats`` runs after one more untimed run. Counter columns come
    from the deterministic element accounting, not the clock. A cell
    estimated above ``MEM_LIMIT_BYTES`` is skipped, and an n's operands
    are drawn only when one of its cells fits.
    """
    windows = [resolve_band(l_rule, n) for n in n_list]
    _warm_up()
    records = []
    skipped = []
    for n, window in zip(n_list, windows):
        fits = []
        for mechanism in mechanisms:
            need = _estimated_bytes(mechanism, n, window, d_model)
            if need > MEM_LIMIT_BYTES:
                skipped.append(
                    (mechanism, n, window, f"estimated {need} bytes > {MEM_LIMIT_BYTES}")
                )
            else:
                fits.append(mechanism)
        if not fits:
            continue
        rng = np.random.default_rng(seed + n)
        q = Tensor._wrap(rng.normal(size=(n, d_model)))
        k = Tensor._wrap(rng.normal(size=(n, d_model)))
        v = Tensor._wrap(rng.normal(size=(n, d_model)))
        for mechanism in fits:
            try:
                dots, peak = _run_mechanism(mechanism, q, k, v, window)
                times = []
                for _ in range(repeats):
                    t0 = time.perf_counter_ns()
                    _run_mechanism(mechanism, q, k, v, window)
                    times.append(time.perf_counter_ns() - t0)
            except MemoryError:
                skipped.append((mechanism, n, window, "MemoryError during run"))
                continue
            records.append(
                BenchRecord(
                    mechanism=mechanism,
                    n=n,
                    window=window,
                    d_model=d_model,
                    wall_ns=int(np.median(times)),
                    dot_products=dots,
                    peak_score_elements=peak,
                    seed=seed,
                )
            )
    return records, skipped


def fit_slopes(records):
    """Least-squares slope of log(wall_ns) vs log(n) per mechanism."""
    slopes = {}
    by_mech: dict[str, list] = {}
    for r in records:
        by_mech.setdefault(r.mechanism, []).append(r)
    for mechanism, rows in by_mech.items():
        if len(rows) < 2:
            continue
        x = np.log([r.n for r in rows])
        y = np.log([r.wall_ns for r in rows])
        slopes[mechanism] = float(np.polyfit(x, y, 1)[0])
    return slopes


def cmd_bench(args) -> int:
    n_list = _parse_int_list(args.n_list, "--n-list")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"--n-list must be strictly ascending, got {n_list}")
    mechanisms = [m.strip() for m in args.mechanisms.split(",") if m.strip()]
    bad = [m for m in mechanisms if m not in ("full", "lam")]
    if bad or not mechanisms or len(set(mechanisms)) < len(mechanisms):
        raise ValueError(f"--mechanisms must name full and/or lam once each, got {args.mechanisms!r}")
    if args.repeats < 5:
        raise ValueError(f"--repeats must be >= 5 for a stable median, got {args.repeats}")
    if args.d_model < 1:
        raise ValueError(f"--d-model must be >= 1, got {args.d_model}")
    if args.out:
        _check_out_file(args.out)

    records, skipped = bench_records(
        n_list, mechanisms, args.l_rule, args.repeats, args.d_model, args.seed
    )
    lines = [BENCH_HEADER]
    lines += [r.csv_row() for r in records]
    for mechanism, n, window, reason in skipped:
        # empty measurement cells keep the 8-column schema for skipped cells
        lines.append(f"{mechanism},{n},{window},{args.d_model},,,,{args.seed}")
        lines.append(f"# skipped: mechanism={mechanism} n={n} reason={reason}")
    _write_or_print(lines, args.out, f"wrote {len(records)} records to {args.out}")

    for mechanism, n, window, reason in skipped:
        print(f"skipped {mechanism} at n={n}: {reason}")
    slopes = fit_slopes(records)
    for mechanism in mechanisms:
        if mechanism in slopes:
            print(f"slope({mechanism}) = {slopes[mechanism]:.3f}")
    if "full" in slopes and "lam" in slopes:
        print(f"slope(full) - slope(lam) = {slopes['full'] - slopes['lam']:.3f}")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"peak RSS (informational): {rss_kib} KiB")
    return 0


# -- train -------------------------------------------------------------------


def parse_config(path: str) -> dict:
    """Flat key=value config; an unknown or repeated key is an error naming the key."""
    values, first_line = {}, {}
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(f"{path}:{lineno}: repeated config key {key!r} "
                             f"(first at line {first_line[key]})")
        first_line[key] = lineno
        cast = CONFIG_KEYS[key][1]
        try:
            values[key] = cast(raw)
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: bad value {raw!r} for {key} (expected {cast.__name__})"
            )
        if key in CONFIG_RANGES and not CONFIG_RANGES[key][0](values[key]):
            raise ValueError(
                f"{path}:{lineno}: {key}={values[key]!r} out of range "
                f"(must be {CONFIG_RANGES[key][1]})"
            )
    return values


def _read_csv(path: str):
    """:func:`load_csv`, reporting the rows it dropped on one stderr line."""
    raw = load_csv(path)
    if raw.dropped_rows:
        line, reason = raw.dropped_rows[0]
        print(f"warning: {path}: dropped {len(raw.dropped_rows)} row(s), "
              f"first at line {line} ({reason})", file=sys.stderr)
    return raw


def _load_series(source: str, samples: int, d: int, seed: int):
    if source.endswith(".csv"):
        return _read_csv(source)
    if source in ("sines", "trend_season", "ar_noise"):
        return synth_series(source, samples, d=d, seed=seed)
    raise ValueError(
        f"--data must be sines, trend_season, ar_noise or a .csv path, got {source!r}"
    )


def cmd_train(args) -> int:
    config = dict(DEFAULT_CONFIG)
    if args.config:
        config.update(parse_config(args.config))
    if args.seed is not None:
        config["seed"] = args.seed
    _check_out_dir(args.out)

    raw = _load_series(args.data, args.samples, args.d_features, config["seed"])
    dataset = standardize_split_window(
        raw, n=config["n"], m=config["m"], stride=args.stride
    )
    model_fields = {f.name for f in fields(ModelConfig)}
    settings, fit = {}, {}
    for key, value in config.items():
        name = CONFIG_KEYS[key][0]
        (settings if name in model_fields else fit)[name] = value
    model_config = ModelConfig(d_features=raw.d, **settings)
    model = ForecastModel(model_config)
    print(
        f"training kind={model_config.kind} on {len(dataset.train)} windows "
        f"(val {len(dataset.val)}, test {len(dataset.test)})"
    )
    try:
        report = train(model, dataset, log=print, **fit)
    except TrainDivergenceError as exc:
        print(f"training diverged: {exc}")
        for key, curve in exc.history.items():
            print(f"  last finite {key}: {curve[-3:] if curve else '[]'}")
        return 1

    try:  # the directory is made only now, so a rejected run leaves none behind
        os.makedirs(args.out, exist_ok=True)
        loss_path = os.path.join(args.out, "loss.csv")
        with open(loss_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["epoch", "train_mse", "val_mse", "train_mae", "val_mae"])
            curves = (report.train_mse, report.val_mse, report.train_mae, report.val_mae)
            for epoch in range(report.epochs_run):
                writer.writerow([epoch] + [repr(curve[epoch]) for curve in curves])
        ckpt_path = save_checkpoint(model, os.path.join(args.out, "checkpoint.npz"),
                                    dataset.scaler, dataset.feature_names)
        write_manifest(os.path.join(args.out, "manifest.txt"), dataset)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}")

    base_mse, base_mae = baseline_metrics(dataset.test)
    print(f"epochs run: {report.epochs_run} (early stop: {report.stopped_early})")
    if report.test_mse is not None:
        print(f"test mse: {report.test_mse:.6f}  (repeat-last baseline {base_mse:.6f})")
        print(f"test mae: {report.test_mae:.6f}  (repeat-last baseline {base_mae:.6f})")
    print(f"wrote {ckpt_path}, {loss_path}")
    return 0


# -- bandmass ------------------------------------------------------------------


def _capture_projected_qk(model: ForecastModel, x: Tensor):
    """Run one forward; return each attention head's (block label, head, q, k) in call order."""
    cfg = model.config
    blocks = [f"enc{i}" for i in range(cfg.num_layers)]
    blocks += [f"dec{i}.{part}" for i in range(cfg.num_layers) for part in ("self", "cross")]
    heads = [(block, head) for block in blocks for head in range(cfg.heads)]
    captured = []
    real_inner = model._inner()

    def probe(ops, q, k, v):
        captured.append((ops.value(q), ops.value(k)))
        return real_inner(ops, q, k, v)

    model.forward(x, inner=probe)
    if len(captured) != len(heads):
        raise RuntimeError(f"captured {len(captured)} attention calls, expected {len(heads)}")
    return [(block, head, q, k) for (block, head), (q, k) in zip(heads, captured)]


def cmd_bandmass(args) -> int:
    if args.out:
        _check_out_file(args.out)
    model, scaler, _ = load_checkpoint(args.checkpoint)
    cfg = model.config
    raw = synth_series("sines", cfg.n, d=cfg.d_features, seed=args.seed)
    x = Tensor._wrap(scaler.transform(raw.values))

    if args.l_list:
        bands = _parse_int_list(args.l_list, "--l-list")
        if any(not 1 <= b <= cfg.n for b in bands):
            raise ValueError(f"--l-list values must lie in [1, {cfg.n}]")
    else:
        bands = sorted({2**p for p in range(int(math.log2(cfg.n)) + 1)} | {cfg.n})

    lines = ["layer,head,L,band_mass"]
    for label, head, q, k in _capture_projected_qk(model, x):
        masses = band_mass(q, k, bands)
        lines += [f"{label},{head},{band},{mass!r}" for band, mass in zip(bands, masses)]
    _write_or_print(lines, args.out, f"wrote {len(lines) - 1} rows to {args.out}")
    return 0


# -- forecast -------------------------------------------------------------------


def cmd_forecast(args) -> int:
    _check_out_file(args.out)
    model, scaler, feature_names = load_checkpoint(args.checkpoint)
    raw = _read_csv(args.input)
    cfg = model.config
    names = list(raw.feature_names)
    # the scaler's statistics are per feature: a renamed or reordered column
    # would be standardized with another feature's mean and deviation
    if names != feature_names:
        raise ValueError(
            f"{args.input} has {raw.d} features {names}, "
            f"checkpoint expects {cfg.d_features} {feature_names}"
        )
    if raw.length < cfg.n:
        raise ValueError(
            f"{args.input} has {raw.length} usable rows, need at least {cfg.n}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        window = scaler.transform(raw.values[-cfg.n :])
        # the population std puts every fit-region value within sqrt(rows - 1)
        # deviations of the mean, so |z| > 1e6 needs a fit on over 1e12 rows
        far = np.argwhere(np.abs(window) > 1e6)
        if len(far):
            raise ValueError(f"{args.input}: column {names[far[0, 1]]} lies more than 1e6 "
                             f"standard deviations from its training mean")
        # a checkpoint's own weights can still overflow the forward
        out_values = scaler.inverse(model.forward(Tensor._wrap(window)).data)
    if not np.isfinite(out_values).all():
        raise ValueError(
            f"{args.input}: the forecast is not finite; the checkpoint's forward "
            f"overflows on the last {cfg.n} rows"
        )
    with _open_out(args.out) as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for row in out_values:
            writer.writerow([repr(float(v)) for v in row])
    print(f"wrote {out_values.shape[0]} forecast rows to {args.out}")
    return 0


# -- plumbing ---------------------------------------------------------------------


def _open_out(path: str):
    """``path`` opened for writing; a path that cannot be opened is bad input."""
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}")


def _check_out_dir(path: str) -> None:
    """Reject an output directory that cannot be made, before any work runs."""
    head = os.path.abspath(path)
    while True:
        try:
            info = os.stat(head)
            break
        except FileNotFoundError:
            head = os.path.dirname(head)
        except OSError as exc:  # a name too long, a loop, no permission to search
            raise ValueError(f"cannot write {path}: {exc}")
    if not stat.S_ISDIR(info.st_mode):
        raise ValueError(f"--out {path}: {head} exists and is not a directory")


def _check_out_file(path: str) -> None:
    """Reject an output file outside an existing directory, before any work runs."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValueError(f"cannot write {path}: not a file in an existing directory")


def _write_or_print(lines, path: str | None, message: str) -> None:
    """Write the lines to ``path`` and print ``message``, or print the lines."""
    text = "\n".join(lines) + "\n"
    if path:
        with _open_out(path) as handle:
            handle.write(text)
        print(message)
    else:
        print(text, end="")


def _parse_int_list(text: str, flag: str):
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}")
    if not values:
        raise ValueError(f"{flag} must not be empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="localattn",
        description="Banded local attention: verification, benchmarks, toy forecasting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the self-verification suites")
    p.add_argument("--trials", type=int, default=200, help="randomized case count (>= 1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--inject-fault",
        choices=["pad-guard"],
        default=None,
        help="test-only: disable the first-block padding mask to prove the suites catch it",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time attention mechanisms over a range of n")
    p.add_argument("--n-list", default="512,1024,2048,4096,8192,16384")
    p.add_argument("--mechanisms", default="lam,full")
    p.add_argument(
        "--l-rule",
        default="4ceil",
        help="band rule: 4ceil (4*ceil(log2 n)) or fixed:<k>",
    )
    p.add_argument("--repeats", type=int, default=5, help="timing repetitions (>= 5)")
    p.add_argument("--d-model", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("train", help="train the forecaster on synthetic or CSV data")
    p.add_argument("--config", default=None, help="key=value file; keys: " + ", ".join(CONFIG_KEYS))
    p.add_argument("--data", default="sines", help="sines | trend_season | ar_noise | <path>.csv")
    p.add_argument("--samples", type=int, default=20000, help="synthetic series length")
    p.add_argument("--d-features", type=int, default=3, help="synthetic feature count")
    p.add_argument("--stride", type=int, default=8, help="training window stride")
    p.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    p.add_argument("--out", default="train_out", help="output directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("bandmass", help="report attention mass inside trailing bands")
    p.add_argument("--checkpoint", required=True, help="model to inspect")
    p.add_argument("--l-list", default=None, help="band sizes; default: powers of two up to n")
    p.add_argument("--seed", type=int, default=0, help="seed of the input sines series")
    p.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_bandmass)

    p = sub.add_parser("forecast", help="forecast m steps from the last n rows of a CSV")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True, help="input series CSV")
    p.add_argument("--out", required=True, help="forecast CSV to write")
    p.set_defaults(func=cmd_forecast)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateRowError, MemoryError) as exc:  # numerical or too large: a run failure
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
