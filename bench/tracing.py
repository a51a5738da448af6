"""Per-layer trace of caliblab, installed from outside the program.

``Tracer.install`` replaces public functions and methods of the caliblab
modules with wrappers and ``uninstall`` puts the originals back. Functions
are replaced under every name a caliblab module binds them to, because
callers import them by name (``harness`` does ``from .losses import
total_loss``, ``cli`` imports ``reports`` and ``metrics`` functions).

Two kinds of wrapper:

* a span wrapper records (name, start, end, parent span, run id) in memory;
* an op wrapper on the tape operations only counts calls, since a training
  step makes about a hundred of them and a span each would swamp the step.
  Their time falls in the self time of the span that called them.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

# (module, attribute path, span name). A method is replaced on its class.
SPAN_TARGETS = [
    ("autodiff", "Tensor.backward", "autodiff.backward"),
    ("nn", "DenseLayer.__call__", "nn.dense"),
    ("nn", "Adam.step", "nn.optimizer"),
    ("nn", "SGDMomentum.step", "nn.optimizer"),
    ("uncertainty", "SpectralNorm.refresh", "uncertainty.sn_refresh"),
    ("uncertainty", "SpectralNorm.normalized", "uncertainty.sn_normalized"),
    ("uncertainty", "evidence_head", "uncertainty.evidence_head"),
    ("uncertainty", "dm_logits", "uncertainty.dm_logits"),
    ("losses", "total_loss", "losses.total_loss"),
    ("losses", "cross_entropy", "losses.cross_entropy"),
    ("losses", "evidential_loss", "losses.evidential_loss"),
    ("losses", "avuc_loss", "losses.avuc_loss"),
    ("losses", "mmce_loss", "losses.mmce_loss"),
    ("losses", "ldu_aux_losses", "losses.ldu_aux_losses"),
    ("harness", "fit", "harness.fit"),
    ("harness", "train", "harness.train"),
    ("harness", "Classifier.forward", "harness.forward"),
    ("harness", "predict_records", "harness.predict_records"),
    ("harness", "ensemble", "harness.ensemble"),
    ("harness", "multi_seed", "harness.multi_seed"),
    ("harness", "grid_search", "harness.grid_search"),
    ("datasets", "make_dataset", "datasets.make_dataset"),
    ("datasets", "augment", "datasets.augment"),
    ("config", "load_config", "config.load_config"),
    ("metrics", "calibration_report", "metrics.calibration_report"),
    ("metrics", "validate_records", "metrics.validate_records"),
    ("metrics", "reliability_bins", "metrics.reliability_bins"),
    ("metrics", "balanced_accuracy", "metrics.balanced_accuracy"),
    ("metrics", "brier_score", "metrics.brier_score"),
    ("reports", "read_prediction_log", "reports.read_prediction_log"),
    ("reports", "prediction_log_text", "reports.prediction_log_text"),
    ("reports", "report_json_text", "reports.report_json_text"),
    ("reports", "reliability_csv_text", "reports.reliability_csv_text"),
    ("reports", "reliability_svg_text", "reports.reliability_svg_text"),
    ("reports", "commit_artifacts", "reports.commit_artifacts"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_evaluate", "cli.evaluate"),
    ("cli", "cmd_diagram", "cli.diagram"),
    ("cli", "cmd_ensemble", "cli.ensemble"),
]

# Tape operations: (attribute of Tensor or of the autodiff module, op name).
# __rsub__ and __rtruediv__ delegate to __sub__/__truediv__ and so are
# counted there; __radd__ and __rmul__ are separate class attributes.
OP_TARGETS = [
    ("Tensor.__matmul__", "matmul"),
    ("Tensor.__add__", "add"),
    ("Tensor.__radd__", "add"),
    ("Tensor.__sub__", "sub"),
    ("Tensor.__mul__", "mul"),
    ("Tensor.__rmul__", "mul"),
    ("Tensor.__truediv__", "div"),
    ("Tensor.__neg__", "neg"),
    ("Tensor.__pow__", "pow"),
    ("Tensor.sum", "sum"),
    ("Tensor.mean", "mean"),
    ("Tensor.reshape", "reshape"),
    ("Tensor.T", "transpose"),
    ("Tensor.exp", "exp"),
    ("Tensor.log", "log"),
    ("Tensor.sqrt", "sqrt"),
    ("Tensor.abs", "abs"),
    ("Tensor.relu", "relu"),
    ("Tensor.sigmoid", "sigmoid"),
    ("Tensor.digamma", "digamma"),
    ("Tensor.gammaln", "gammaln"),
    ("Tensor.clamp_min", "clamp_min"),
    ("Tensor.clamp_max", "clamp_max"),
    ("Tensor.row_max", "row_max"),
    ("softmax", "softmax"),
]
OPS = list(dict.fromkeys(op for _, op in OP_TARGETS))
# softmax is composite: its sub, exp, sum and div are counted as well, so it
# is reported on its own and left out of the node total.
NODE_OPS = [op for op in OPS if op != "softmax"]


def _scheme(args, kwargs) -> str:
    """The binning scheme of a reliability_bins(records, n_bins, scheme) call."""
    return args[2] if len(args) > 2 else kwargs.get("scheme", "fixed")


# Work sizes recorded per call: span name -> [(quantity, f(args, result))].
_SIZES = {
    "harness.fit": [("steps", lambda a, r: r[1])],
    "harness.predict_records": [("rows", lambda a, r: len(r))],
    "metrics.calibration_report": [("rows", lambda a, r: r.n_samples)],
    "reports.read_prediction_log": [("rows", lambda a, r: len(r))],
    # The artifacts are ASCII (numbers, and JSON escapes the rest), so their
    # length in characters is their size in bytes.
    "reports.commit_artifacts": [
        ("files", lambda a, r: len(a[0])),
        ("bytes", lambda a, r: sum(len(text) for _, text in a[0])),
    ],
}


class Tracer:
    """Spans and op counts for one traced run, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[int] = []
        self.run_id = 0
        self.op_counts = [0] * len(OPS)
        self.fit_op_counts = [0] * len(OPS)
        self.sizes: dict[str, float] = {}
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if (name == "caliblab" or name.startswith("caliblab.")) and mod
        }
        self.missing = []
        for mod_name, path, span in SPAN_TARGETS:
            self._wrap(modules, f"caliblab.{mod_name}", path, self._span_wrapper, span)
        for path, op in OP_TARGETS:
            self._wrap(modules, "caliblab.autodiff", path, self._op_wrapper, op)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, modules, mod_name, path, make, label) -> None:
        module = modules.get(mod_name)
        owner, _, attr = path.rpartition(".")
        owner = getattr(module, owner, None) if owner else module
        if owner is None or attr not in vars(owner):
            self.missing.append(f"{mod_name}.{path}")
            return
        original = vars(owner)[attr]
        if isinstance(original, property):
            self._set(owner, attr, property(make(original.fget, label)))
            return
        wrapper = make(original, label)
        if isinstance(owner, type):
            self._set(owner, attr, wrapper)
            return
        # A module-level function: rebind every name that refers to it.
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_wrapper(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        nid = self._name_id(name)
        sizes = [(f"{name}.{q}", f) for q, f in _SIZES.get(name, [])]
        counts, fit_counts = self.op_counts, self.fit_op_counts
        is_fit = name == "harness.fit"
        tracer = self
        # reliability_bins is reported per scheme, as two span names.
        by_scheme = None
        if name == "metrics.reliability_bins":
            by_scheme = {s: self._name_id(f"{name}.{s}") for s in ("fixed", "adaptive")}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_nid = nid if by_scheme is None else by_scheme.get(_scheme(args, kwargs), nid)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            before = list(counts) if is_fit else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (span_nid, start, end, parent, tracer.run_id)
            if is_fit:
                for i, c in enumerate(counts):
                    fit_counts[i] += c - before[i]
            for key, measure in sizes:
                tracer.sizes[key] = tracer.sizes.get(key, 0) + measure(args, result)
            return result

        return wrapper

    def _op_wrapper(self, fn, op):
        counts, i = self.op_counts, OPS.index(op)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[i] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output ----------------------------------------------------------------

    def arrays(self) -> dict:
        done = [s for s in self.spans if s is not None]
        table = np.array(done, dtype=np.float64).reshape(-1, 5)
        return {
            "name": table[:, 0].astype(np.int64),
            "start": table[:, 1],
            "end": table[:, 2],
            "parent": table[:, 3].astype(np.int64),
            "run": table[:, 4].astype(np.int64),
        }

    def write(self, path) -> None:
        """Write the spans as .npz plus a JSON sidecar with the span names."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path.with_suffix(".npz"), **self.arrays())
        meta = {
            "names": self.names,
            "ops": OPS,
            "op_counts": self.op_counts,
            "fit_op_counts": self.fit_op_counts,
            "sizes": self.sizes,
        }
        path.with_suffix(".json").write_text(json.dumps(meta) + "\n")


class SpanStats:
    """Inclusive and self time per span name, optionally under an ancestor."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.dur = a["end"] - a["start"]
        child = np.zeros_like(self.dur)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self._under: dict[str, np.ndarray] = {}

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def under(self, ancestor: str) -> np.ndarray:
        """Mask of spans that have a span named `ancestor` above them."""
        if ancestor not in self._under:
            is_ancestor = (self.name == self._id(ancestor)).tolist()
            mask = [False] * self.name.size
            # Parents are appended before their children, so one forward
            # sweep settles every span.
            for i, p in enumerate(self.parent.tolist()):
                if p >= 0:
                    mask[i] = mask[p] or is_ancestor[p]
            self._under[ancestor] = np.array(mask, dtype=bool)
        return self._under[ancestor]

    def _select(self, name: str, within: str | None) -> np.ndarray:
        mask = self.name == self._id(name)
        return mask & self.under(within) if within else mask

    def calls(self, name: str, within: str | None = None) -> int:
        return int(np.count_nonzero(self._select(name, within)))

    def total(self, name: str, within: str | None = None) -> float:
        return float(self.dur[self._select(name, within)].sum())

    def self_total(self, name: str, within: str | None = None) -> float:
        return float(self.self_time[self._select(name, within)].sum())


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


# Per-layer metrics: (name, unit, better). Every one is reported on every
# workload; a layer the workload does not run reads 0.
PER_LAYER = (
    [("autodiff.ops_per_step", "count", "lower")]
    + [(f"autodiff.ops_per_step.{op}", "count", "lower") for op in OPS]
    + [
        ("autodiff.backward.us_per_step", "us", "lower"),
        ("autodiff.backward.share", "ratio", "lower"),
        ("nn.dense.us_per_step", "us", "lower"),
        ("nn.optimizer.us_per_step", "us", "lower"),
        ("uncertainty.sn_refresh.us_per_step", "us", "lower"),
        ("uncertainty.sn_refresh.calls", "count", "lower"),
        ("uncertainty.sn_normalized.us_per_step", "us", "lower"),
        ("uncertainty.evidence_head.us_per_step", "us", "lower"),
        ("uncertainty.dm_logits.us_per_step", "us", "lower"),
        ("losses.total_loss.us_per_step", "us", "lower"),
    ]
    + [
        (f"losses.{fn}.{q}", unit, "lower")
        for fn in (
            "cross_entropy",
            "evidential_loss",
            "avuc_loss",
            "mmce_loss",
            "ldu_aux_losses",
        )
        for q, unit in (("us_per_call", "us"), ("calls", "count"))
    ]
    + [
        ("harness.fit.calls", "count", "lower"),
        ("harness.fit.self_us_per_step", "us", "lower"),
        ("harness.forward.self_us_per_step", "us", "lower"),
        ("harness.predict_records.ms", "ms", "lower"),
        ("harness.predict_records.rows", "count", "higher"),
        ("harness.ensemble.ms", "ms", "lower"),
        ("harness.multi_seed.self_ms", "ms", "lower"),
        ("harness.grid_search.self_ms", "ms", "lower"),
        ("datasets.make_dataset.ms", "ms", "lower"),
        ("datasets.augment.us_per_call", "us", "lower"),
        ("config.load_config.ms", "ms", "lower"),
        ("metrics.calibration_report.ms", "ms", "lower"),
        ("metrics.calibration_report.rows_per_s", "rows/s", "higher"),
        ("metrics.validate_records.calls_per_report", "count", "lower"),
        ("metrics.validate_records.ms", "ms", "lower"),
        ("metrics.reliability_bins.ms.fixed", "ms", "lower"),
        ("metrics.reliability_bins.ms.adaptive", "ms", "lower"),
        ("metrics.balanced_accuracy.ms", "ms", "lower"),
        ("metrics.brier_score.ms", "ms", "lower"),
        ("reports.read_prediction_log.ms", "ms", "lower"),
        ("reports.read_prediction_log.rows_per_s", "rows/s", "higher"),
        ("reports.prediction_log_text.ms", "ms", "lower"),
        ("reports.report_json_text.ms", "ms", "lower"),
        ("reports.reliability_csv_text.ms", "ms", "lower"),
        ("reports.reliability_svg_text.ms", "ms", "lower"),
        ("reports.commit_artifacts.ms", "ms", "lower"),
        ("reports.commit_artifacts.files", "count", "lower"),
        ("reports.commit_artifacts.bytes", "bytes", "lower"),
    ]
    + [(f"cli.{cmd}.self_ms", "ms", "lower") for cmd in ("train", "evaluate", "diagram", "ensemble")]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


def layer_metrics(tracer: Tracer, passes: int, overhead_ratio: float) -> dict:
    """Every PER_LAYER value from one traced run of `passes` passes.

    ``.ms``, ``.us_per_step`` and ``.us_per_call`` are inclusive times;
    names with ``self`` are self times. Per-step values count only spans
    inside ``fit``; ``.ms``, ``.calls``, ``.rows`` and the artifact counts are
    per pass.
    """
    st = SpanStats(tracer)
    fit = "harness.fit"
    steps = tracer.sizes.get("harness.fit.steps", 0)
    per_pass = 1.0 / passes
    us_step = lambda name: _div(st.total(name, fit), steps) * 1e6
    ms = lambda name: st.total(name) * per_pass * 1e3
    out: dict[str, float] = {}

    fit_counts = dict(zip(OPS, tracer.fit_op_counts))
    out["autodiff.ops_per_step"] = _div(sum(fit_counts[o] for o in NODE_OPS), steps)
    for op in OPS:
        out[f"autodiff.ops_per_step.{op}"] = _div(fit_counts[op], steps)
    out["autodiff.backward.us_per_step"] = us_step("autodiff.backward")
    out["autodiff.backward.share"] = _div(
        st.total("autodiff.backward", fit), st.total(fit)
    )
    out["nn.dense.us_per_step"] = us_step("nn.dense")
    out["nn.optimizer.us_per_step"] = us_step("nn.optimizer")
    for part in ("sn_refresh", "sn_normalized", "evidence_head", "dm_logits"):
        out[f"uncertainty.{part}.us_per_step"] = us_step(f"uncertainty.{part}")
    out["uncertainty.sn_refresh.calls"] = st.calls("uncertainty.sn_refresh", fit) * per_pass
    out["losses.total_loss.us_per_step"] = us_step("losses.total_loss")
    for fn in ("cross_entropy", "evidential_loss", "avuc_loss", "mmce_loss", "ldu_aux_losses"):
        name = f"losses.{fn}"
        out[f"{name}.us_per_call"] = _div(st.total(name), st.calls(name)) * 1e6
        out[f"{name}.calls"] = st.calls(name) * per_pass

    out["harness.fit.calls"] = st.calls(fit) * per_pass
    out["harness.fit.self_us_per_step"] = _div(st.self_total(fit), steps) * 1e6
    out["harness.forward.self_us_per_step"] = (
        _div(st.self_total("harness.forward", fit), steps) * 1e6
    )
    out["harness.predict_records.ms"] = ms("harness.predict_records")
    out["harness.predict_records.rows"] = (
        tracer.sizes.get("harness.predict_records.rows", 0) * per_pass
    )
    out["harness.ensemble.ms"] = ms("harness.ensemble")
    out["harness.multi_seed.self_ms"] = st.self_total("harness.multi_seed") * per_pass * 1e3
    out["harness.grid_search.self_ms"] = st.self_total("harness.grid_search") * per_pass * 1e3
    out["datasets.make_dataset.ms"] = ms("datasets.make_dataset")
    out["datasets.augment.us_per_call"] = (
        _div(st.total("datasets.augment"), st.calls("datasets.augment")) * 1e6
    )
    out["config.load_config.ms"] = ms("config.load_config")

    report = "metrics.calibration_report"
    out[f"{report}.ms"] = ms(report)
    out[f"{report}.rows_per_s"] = _div(
        tracer.sizes.get(f"{report}.rows", 0), st.total(report)
    )
    out["metrics.validate_records.calls_per_report"] = _div(
        st.calls("metrics.validate_records", report), st.calls(report)
    )
    out["metrics.validate_records.ms"] = ms("metrics.validate_records")
    for scheme in ("fixed", "adaptive"):
        out[f"metrics.reliability_bins.ms.{scheme}"] = ms(
            f"metrics.reliability_bins.{scheme}"
        )
    out["metrics.balanced_accuracy.ms"] = ms("metrics.balanced_accuracy")
    out["metrics.brier_score.ms"] = ms("metrics.brier_score")

    read = "reports.read_prediction_log"
    out[f"{read}.ms"] = ms(read)
    out[f"{read}.rows_per_s"] = _div(tracer.sizes.get(f"{read}.rows", 0), st.total(read))
    for fn in (
        "prediction_log_text",
        "report_json_text",
        "reliability_csv_text",
        "reliability_svg_text",
        "commit_artifacts",
    ):
        out[f"reports.{fn}.ms"] = ms(f"reports.{fn}")
    for q in ("files", "bytes"):
        key = f"reports.commit_artifacts.{q}"
        out[key] = tracer.sizes.get(key, 0) * per_pass
    for cmd in ("train", "evaluate", "diagram", "ensemble"):
        out[f"cli.{cmd}.self_ms"] = st.self_total(f"cli.{cmd}") * per_pass * 1e3
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def zero_call_layers(tracer: Tracer, required: list[str]) -> list[str]:
    """Required span or op names that recorded no call in the traced run."""
    st = SpanStats(tracer)
    counts = dict(zip(OPS, tracer.op_counts))
    return [
        name
        for name in required
        if (counts.get(name, 0) == 0 if name in counts else st.calls(name) == 0)
    ]
