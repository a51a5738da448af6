"""The benchmark's three workloads: their inputs, timed ops and output checks.

Each workload gets the caliblab package from ``setup`` and calls only its
public API. An op is one ``train``/``fit`` call or one CLI command; library
calls that run several fits (``multi_seed``, ``grid_search``) are timed as
one op and counted as their number of fits.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from oracle import METRIC_KEYS


@dataclass(frozen=True)
class Size:
    """How much work one pass does; FULL is the benchmark, TINY the self-test."""

    name: str
    epoch_divisor: int  # configs-24: shipped epochs / divisor, rounded up
    grid_epochs: int  # multiseed-grid epochs per fit
    log_rows: int  # log-100k rows per log


FULL = Size("full", epoch_divisor=8, grid_epochs=10, log_rows=100_000)
TINY = Size("tiny", epoch_divisor=10_000, grid_epochs=1, log_rows=2_000)
SIZES = {size.name: size for size in (FULL, TINY)}


def import_caliblab(root: Path):
    """Import caliblab from the checkout's src/ and make sure it came from
    there, not from an installed copy."""
    src = root / "src"
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    import caliblab
    import caliblab.cli

    where = Path(caliblab.__file__).resolve()
    if src not in where.parents:
        raise ImportError(f"caliblab was imported from {where}, not from {src}")
    return caliblab


@dataclass
class OpResult:
    fingerprint: str  # hash of everything the op produced
    steps: int = 0  # optimizer steps the op ran


@dataclass
class Op:
    name: str
    weight: int  # ops attempted: 1 per CLI command or fit
    run: Callable[[], None]  # timed
    result: Callable[[], OpResult]  # untimed: read back what `run` produced


class OpFailed(RuntimeError):
    pass


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def _cli(lab, argv: list[str]) -> str:
    """Run one CLI command in-process; returns its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lab.cli.main(argv)
    if code != 0:
        raise OpFailed(f"caliblab {argv[0]} exited with code {code}")
    return out.getvalue()


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(list(values), dtype=np.float64))))


class Workload:
    name = ""
    # Span or op names a traced pass must record at least once.
    required: list[str] = []

    def __init__(self, root: Path, work: Path, seed: int, size: Size):
        self.root = root
        self.work = work
        self.seed = seed
        self.size = size
        self.lab = None

    def make_inputs(self) -> None:
        """Write the seed's inputs under `work`; not part of set-up time.
        It runs in a process of its own, so the workload learns of its
        inputs from their paths alone."""

    def setup(self, lab) -> None:
        """The parsing and data work done before the first op, timed as
        set-up."""
        self.lab = lab

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def rows_per_pass(self) -> int:
        return 0

    def check(self, results: list[OpResult]) -> list[str]:
        """Output checks; returns one message per failure. `results` are the
        first pass's; files and objects left by the last pass are read too,
        as every pass must match the first."""
        return []


# -- configs-24 -----------------------------------------------------------------


TRAIN_LAYERS = [
    "matmul",
    "autodiff.backward",
    "nn.dense",
    "nn.optimizer",
    "losses.total_loss",
    "losses.cross_entropy",
    "harness.fit",
    "harness.forward",
    "harness.predict_records",
    "metrics.calibration_report",
    "metrics.validate_records",
]


class Configs24(Workload):
    name = "configs-24"
    required = TRAIN_LAYERS + [
        "uncertainty.sn_refresh",
        "uncertainty.sn_normalized",
        "uncertainty.evidence_head",
        "uncertainty.dm_logits",
        "losses.evidential_loss",
        "losses.avuc_loss",
        "losses.mmce_loss",
        "losses.ldu_aux_losses",
        "datasets.make_dataset",
        "datasets.augment",
        "config.load_config",
        "reports.prediction_log_text",
        "reports.report_json_text",
        "reports.commit_artifacts",
        "cli.train",
    ]

    def make_inputs(self) -> None:
        """Copy each shipped config with its seeds set from the workload seed
        and its epoch count divided by the size's divisor."""
        shipped = sorted((self.root / "configs").glob("table*/*.ini"))
        if len(shipped) != 24:
            raise OpFailed(f"expected 24 shipped configs, found {len(shipped)}")
        (self.work / "configs").mkdir(parents=True)
        for path in shipped:
            parser = configparser.ConfigParser(interpolation=None)
            parser.read(path, encoding="utf-8")
            epochs = math.ceil(int(parser["run"]["epochs"]) / self.size.epoch_divisor)
            parser["run"]["epochs"] = str(epochs)
            parser["run"]["seed"] = str(self.seed)
            parser["data"]["seed"] = str(self.seed)
            name = f"{path.parent.name}-{path.stem}"
            copy = self.work / "configs" / f"{name}.ini"
            with open(copy, "w", encoding="utf-8") as fh:
                parser.write(fh)

    def setup(self, lab) -> None:
        super().setup(lab)
        self.configs = sorted((self.work / "configs").glob("*.ini"))
        self.n_train = []
        for copy in self.configs:
            loaded = lab.load_config(copy)
            self.n_train.append(lab.make_dataset(loaded.data).x_train.shape[0])

    def _out(self, name: str, tag: str = "out") -> Path:
        return self.work / tag / name

    def _train(self, copy: Path, out: Path) -> None:
        _cli(self.lab, ["train", "--config", str(copy), "--out", str(out)])

    def _read(self, out: Path) -> OpResult:
        log = (out / "predictions.csv").read_bytes()
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        # wall_time_s is the one field that differs between identical runs.
        report["meta"].pop("wall_time_s", None)
        canon = json.dumps(report, sort_keys=True).encode()
        return OpResult(_sha(log, canon), steps=int(report["meta"]["steps"]))

    def ops(self) -> list[Op]:
        return [
            Op(
                name=f"train {copy.stem}",
                weight=1,
                run=lambda c=copy, o=self._out(copy.stem): self._train(c, o),
                result=lambda o=self._out(copy.stem): self._read(o),
            )
            for copy in self.configs
        ]

    def check(self, results: list[OpResult]) -> list[str]:
        problems = []
        for copy, n_train, res in zip(self.configs, self.n_train, results):
            name = copy.stem
            parser = configparser.ConfigParser(interpolation=None)
            parser.read(copy, encoding="utf-8")
            epochs, batch = int(parser["run"]["epochs"]), int(parser["run"]["batch_size"])
            out = self._out(name)
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            if not _finite(report[k] for k in METRIC_KEYS):
                problems.append(f"{name}: non-finite metric in report.json")
            expected = epochs * math.ceil(n_train / batch)
            if res.steps != expected:
                problems.append(f"{name}: {res.steps} steps, expected {expected}")
            evaluated = json.loads(
                _cli(self.lab, ["evaluate", str(out / "predictions.csv")])
            )
            for key in METRIC_KEYS + ("n_samples",):
                if not abs(evaluated[key] - report[key]) <= 1e-9:
                    problems.append(f"{name}: evaluate {key} differs from report.json")
        # Train one config again: its log must come out byte for byte the same.
        index = self.seed % len(self.configs)
        copy = self.configs[index]
        name = copy.stem
        again = self._out(name, "again")
        self._train(copy, again)
        if self._read(again).fingerprint != results[index].fingerprint:
            problems.append(f"{name}: a second training run gave different output")
        return problems


# -- multiseed-grid ---------------------------------------------------------------

# Mean BACC and ECE of the 10-seed baseline for the default seed at FULL size,
# recorded at the commit that introduced the benchmark. A later change may move
# the low bits (another summation order compounds over training), not the value.
REFERENCE = {"seed": 0, "bacc": 0.82396722380275, "ece": 0.08779117125277838}
REFERENCE_TOL = 0.02


class MultiseedGrid(Workload):
    name = "multiseed-grid"
    required = TRAIN_LAYERS + [
        "losses.avuc_loss",
        "losses.mmce_loss",
        "harness.ensemble",
        "harness.multi_seed",
        "harness.grid_search",
    ]

    def __init__(self, *args):
        super().__init__(*args)
        # The fits' results, by op; the inputs are the seeded dataset spec.
        self.out: dict[str, object] = {}

    def setup(self, lab) -> None:
        super().setup(lab)
        self.dataset = lab.make_dataset(
            lab.DatasetSpec(
                kind="blobs",
                samples=2000,
                classes=2,
                noise=1.0,
                label_noise=0.15,
                train_frac=0.05,
                val_frac=0.05,
                test_frac=0.9,
                seed=self.seed,
            )
        )
        self.base = lab.TrainingConfig(
            model=lab.ModelSpec(hidden=(64, 64)),
            loss=lab.LossWeights(),
            optimizer=lab.OptimizerSpec(lr=3e-3),
            epochs=self.size.grid_epochs,
            batch_size=16,
            seed=self.seed,
        )
        self.steps_per_fit = self.base.epochs * math.ceil(
            self.dataset.x_train.shape[0] / self.base.batch_size
        )

    def _multi_seed(self, key: str, config: Callable, ensemble: bool) -> None:
        self.out[key] = self.lab.multi_seed(
            config(), self.dataset, k=10, with_ensemble=ensemble
        )

    def _grid(self) -> None:
        self.out["grid"] = self.lab.grid_search(
            self.base, self.dataset, {"loss.mmce": [0.2, 0.4]}
        )

    def _agg_result(self, key: str) -> OpResult:
        agg = self.out[key]
        parts = [json.dumps([agg.seeds, agg.mean, agg.std], sort_keys=True).encode()]
        for run in agg.runs:
            parts.append(run.params_digest.encode())
            parts.append(_records_bytes(run.records))
        if agg.ensemble_report is not None:
            parts.append(json.dumps(agg.ensemble_report.metric_dict()).encode())
        return OpResult(_sha(*parts), steps=sum(run.steps for run in agg.runs))

    def _grid_result(self) -> OpResult:
        grid = self.out["grid"]
        trace = [(c.overrides, c.val_bacc, c.val_ece) for c in grid.trace]
        blob = json.dumps([trace, grid.best_overrides], sort_keys=True).encode()
        return OpResult(_sha(blob), steps=len(grid.trace) * self.steps_per_fit)

    def ops(self) -> list[Op]:
        base = lambda: self.base
        mmce = lambda: self.out["grid"].best
        avuc = lambda: dataclasses.replace(
            self.base, loss=self.lab.LossWeights(avuc=1.5)
        )
        return [
            Op("multi_seed baseline", 10,
               lambda: self._multi_seed("base", base, True),
               lambda: self._agg_result("base")),
            Op("grid_search loss.mmce", 2, self._grid, self._grid_result),
            Op("multi_seed mmce", 10,
               lambda: self._multi_seed("mmce", mmce, False),
               lambda: self._agg_result("mmce")),
            Op("multi_seed avuc", 10,
               lambda: self._multi_seed("avuc", avuc, False),
               lambda: self._agg_result("avuc")),
        ]

    def check(self, results: list[OpResult]) -> list[str]:
        problems = []
        aggs = [self.out[k] for k in ("base", "mmce", "avuc")]
        for key, agg in zip(("base", "mmce", "avuc"), aggs):
            values = [v for run in agg.runs for v in run.report.metric_dict().values()]
            values += list(agg.mean.values()) + list(agg.std.values())
            if not _finite(values):
                problems.append(f"{key}: non-finite metric")
        grid = self.out["grid"]
        if not _finite(v for c in grid.trace for v in (c.val_bacc, c.val_ece)):
            problems.append("grid: non-finite validation metric")
        base = aggs[0]
        if not _finite(base.ensemble_report.metric_dict().values()):
            problems.append("base: non-finite ensemble metric")

        combined = self.lab.ensemble([run.records for run in base.runs])
        probs = np.stack([r.probs for r in combined])
        conf = np.array([r.confidence for r in combined])
        if (
            np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-9
            or probs.min() < -1e-9
            or np.max(np.abs(probs.max(axis=1) - conf)) > 1e-9
        ):
            problems.append("ensemble rows are off the simplex")

        if self.size is FULL and self.seed == REFERENCE["seed"]:
            for key in ("bacc", "ece"):
                got = base.mean[key]
                if not abs(got - REFERENCE[key]) <= REFERENCE_TOL:
                    problems.append(
                        f"mean {key} {got:.6f} is more than {REFERENCE_TOL} "
                        f"from the reference {REFERENCE[key]:.6f}"
                    )
        return problems


def _records_bytes(records) -> bytes:
    table = np.array(
        [(r.sample_id, r.true_label, r.pred_label, r.confidence, r.uncertainty)
         for r in records]
    )
    return table.tobytes() + np.stack([r.probs for r in records]).tobytes()


# -- log-100k -----------------------------------------------------------------------


class Log100k(Workload):
    name = "log-100k"
    required = [
        "cli.evaluate",
        "cli.diagram",
        "cli.ensemble",
        "harness.ensemble",
        "metrics.calibration_report",
        "metrics.validate_records",
        "metrics.reliability_bins.fixed",
        "metrics.reliability_bins.adaptive",
        "metrics.balanced_accuracy",
        "metrics.brier_score",
        "reports.read_prediction_log",
        "reports.prediction_log_text",
        "reports.report_json_text",
        "reports.reliability_csv_text",
        "reports.reliability_svg_text",
        "reports.commit_artifacts",
    ]

    def __init__(self, *args):
        super().__init__(*args)
        self.logs = [self.work / "logs" / f"log{j}.csv" for j in range(3)]

    def make_inputs(self) -> None:
        ids, labels, logs = oracle.make_logs(self.seed, self.size.log_rows)
        (self.work / "logs").mkdir(parents=True)
        for path, probs in zip(self.logs, logs, strict=True):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(oracle.log_text(ids, labels, probs))

    def rows_per_pass(self) -> int:
        # evaluate and the two diagrams read one log each; ensemble reads three.
        return 6 * self.size.log_rows

    def _evaluate(self) -> None:
        self.evaluated = _cli(self.lab, ["evaluate", str(self.logs[0])])

    def _diagram(self, scheme: str) -> None:
        out = self.work / f"diagram-{scheme}"
        _cli(self.lab, ["diagram", "--log", str(self.logs[0]),
                        "--scheme", scheme, "--out", str(out)])

    def _ensemble(self) -> None:
        out = self.work / "ensemble"
        _cli(self.lab, ["ensemble", *map(str, self.logs), "--out", str(out)])

    def _files(self, directory: str, names: list[str]) -> OpResult:
        folder = self.work / directory
        return OpResult(_sha(*((folder / n).read_bytes() for n in names)))

    def ops(self) -> list[Op]:
        diagram = ["reliability.csv", "reliability.svg"]
        return [
            Op("evaluate", 1, self._evaluate,
               lambda: OpResult(_sha(self.evaluated.encode()))),
            Op("diagram fixed", 1, lambda: self._diagram("fixed"),
               lambda: self._files("diagram-fixed", diagram)),
            Op("diagram adaptive", 1, lambda: self._diagram("adaptive"),
               lambda: self._files("diagram-adaptive", diagram)),
            Op("ensemble", 1, self._ensemble,
               lambda: self._files("ensemble", ["ensemble_predictions.csv",
                                                "ensemble_report.json"])),
        ]

    def check(self, results: list[OpResult]) -> list[str]:
        inputs = [oracle.read_log(p) for p in self.logs]
        problems = [
            f"evaluate: {p}"
            for p in oracle.compare_report(
                json.loads(self.evaluated), oracle.oracle_report(inputs[0])
            )
        ]
        for scheme in ("fixed", "adaptive"):
            path = self.work / f"diagram-{scheme}" / "reliability.csv"
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            if int(table[:, 2].sum()) != self.size.log_rows:
                problems.append(f"diagram {scheme}: counts do not sum to the row count")

        folder = self.work / "ensemble"
        got = oracle.read_log(folder / "ensemble_predictions.csv")
        mean = np.mean([log["probs"] for log in inputs], axis=0)
        top = np.max(mean, axis=1)
        if not (
            np.array_equal(got["ids"], inputs[0]["ids"])
            and np.array_equal(got["labels"], inputs[0]["labels"])
        ):
            problems.append("ensemble: ids or labels differ from the inputs")
        if not (
            np.max(np.abs(got["probs"] - mean)) <= 1e-9
            and np.max(np.abs(got["conf"] - top)) <= 1e-9
            and np.max(np.abs(got["unc"] - (1.0 - top))) <= 1e-9
        ):
            problems.append("ensemble: probabilities differ from the mean of the inputs")
        own = {
            "labels": inputs[0]["labels"],
            "preds": np.argmax(mean, axis=1),
            "conf": top,
            "probs": mean,
        }
        report = json.loads((folder / "ensemble_report.json").read_text(encoding="utf-8"))
        problems += [
            f"ensemble report: {p}"
            for p in oracle.compare_report(report, oracle.oracle_report(own))
        ]
        return problems


WORKLOADS = {w.name: w for w in (Configs24, MultiseedGrid, Log100k)}
