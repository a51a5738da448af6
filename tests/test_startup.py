"""Start-up cost: caliblab loads scipy only for the terms that need it.

``scipy.special`` costs more to import than numpy and all of caliblab
together, and only the evidential loss, the Dirichlet KL and AvUC call it.
Each test runs a fresh interpreter, because this process has long since
imported scipy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import special

from caliblab import Predictions, constant, head_output
from caliblab.reports import prediction_log_text

SRC = Path(__file__).resolve().parent.parent / "src"

LOGITS = [[1.5, -0.3, 0.2], [-0.4, -1.0, 2.2], [0.1, 0.9, -0.6], [2.0, 0.0, 0.4]]
LABELS = [0, 2, 2, 1]
KL_WEIGHT = 0.7

TRAIN_CONFIG = """\
[model]
hidden = 8

[loss]
mmce = 0.5

[optimizer]
lr = 0.05

[run]
epochs = 2
batch_size = 16
seed = 3

[data]
kind = blobs
samples = 100
classes = 2
seed = 1
"""

# Each snippet ends by printing one JSON line: the scipy modules it loaded.
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"


def _fresh(body: str):
    """Run `body` in a new interpreter and parse its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = "import contextlib, io, json, sys\n" + body
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    assert _fresh("import caliblab, caliblab.cli\n" + LOADED) == []


def test_evaluate_loads_no_scipy(tmp_path):
    first = np.linspace(0.05, 0.95, 12)
    probs = np.stack([first, 1.0 - first], axis=1)
    log = tmp_path / "predictions.csv"
    log.write_text(
        prediction_log_text(
            Predictions(
                sample_id=np.arange(12),
                true_label=np.arange(12) % 2,
                pred_label=probs.argmax(axis=1),
                confidence=probs.max(axis=1),
                uncertainty=1.0 - probs.max(axis=1),
                probs=probs,
            )
        ),
        newline="",
    )
    body = (
        "from caliblab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['evaluate', {str(log)!r}]) == 0\n" + LOADED
    )
    assert _fresh(body) == []


def test_softmax_training_loads_no_scipy(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(TRAIN_CONFIG)
    out = tmp_path / "out"
    body = (
        "from caliblab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['train', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0\n"
        + LOADED
    )
    assert _fresh(body) == []
    assert (out / "report.json").exists()


def test_evidential_and_avuc_terms_load_scipy_and_match_eager_scipy():
    body = f"""\
import numpy as np
from caliblab import avuc_loss, constant, evidential_loss, head_output
out = head_output("enn", constant({LOGITS!r}))
labels = np.array({LABELS!r})
before = 'scipy' in sys.modules
enn = float(evidential_loss(out.dirichlet, labels, {KL_WEIGHT!r}).data)
avuc = float(
    avuc_loss(out.confidence, out.uncertainty, out.predictions == labels).data
)
print(json.dumps([before, 'scipy.special' in sys.modules, enn, avuc]))
"""
    before, after, enn, avuc = _fresh(body)
    assert not before and after

    out = head_output("enn", constant(LOGITS))
    labels = np.array(LABELS)
    mask = np.eye(3)[labels]
    alpha = out.dirichlet.alpha.data
    s_rows = out.dirichlet.strength.data.reshape((-1,))
    data_term = (special.psi(s_rows) - special.psi((alpha * mask).sum(axis=1))).mean()
    a = mask + (1.0 - mask) * alpha
    total = a.sum(axis=1, keepdims=True)
    log_norm = special.gammaln(total.reshape((-1,))) - special.gammaln(a).sum(axis=1)
    kl = (
        log_norm
        - float(special.gammaln(3))
        + ((a - 1.0) * (special.psi(a) - special.psi(total))).sum(axis=1)
    )
    assert enn == data_term + KL_WEIGHT * kl.mean()

    acc = (out.predictions == labels).astype(np.float64)
    certain = special.expit((out.confidence.data - 0.5) * 10.0) * special.expit(
        (0.5 - out.uncertainty.data) * 10.0
    )
    num = (acc * (1.0 - certain)).sum() + ((1.0 - acc) * certain).sum()
    den = (acc * certain).sum() + ((1.0 - acc) * (1.0 - certain)).sum() + 1e-8
    assert avuc == np.log(num / den + 1.0)
