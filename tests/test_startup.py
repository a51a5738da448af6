"""Start-up cost and memory: caliblab loads no scipy.

``scipy.special`` costs more to import than numpy and all of caliblab
together. caliblab computes its special functions in numpy
(``caliblab.special``), so no command and no loss term imports scipy. The
tests that check this run a fresh interpreter, because this process may
have imported scipy through other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np

from caliblab import Predictions, avuc_loss, constant, evidential_loss, head_output
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


def test_evidential_and_avuc_terms_load_no_scipy():
    body = f"""\
import numpy as np
from caliblab import avuc_loss, evidential_loss, gradients, head_output, parameter
logits = parameter({LOGITS!r})
out = head_output("enn", logits)
labels = np.array({LABELS!r})
loss = evidential_loss(out.dirichlet, labels, {KL_WEIGHT!r}) + avuc_loss(
    out.confidence, out.uncertainty, out.predictions == labels
)
gradients(loss, [logits])
""" + LOADED
    assert _fresh(body) == []


def test_evidential_and_avuc_terms_match_mpmath():
    out = head_output("enn", constant(LOGITS))
    labels = np.array(LABELS)
    enn = float(evidential_loss(out.dirichlet, labels, KL_WEIGHT).data)
    correct = out.predictions == labels
    avuc = float(avuc_loss(out.confidence, out.uncertainty, correct).data)

    with mpmath.workdps(40):
        alpha = [[mpmath.mpf(a) for a in row] for row in out.dirichlet.alpha.data.tolist()]
        data_term = kl = 0
        for row, y in zip(alpha, LABELS):
            data_term += mpmath.digamma(sum(row)) - mpmath.digamma(row[y])
            tilde = [mpmath.mpf(1) if c == y else a for c, a in enumerate(row)]
            total = sum(tilde)
            psi_total = mpmath.digamma(total)
            kl += (
                mpmath.loggamma(total)
                - sum(mpmath.loggamma(a) for a in tilde)
                - mpmath.loggamma(len(row))
                + sum((a - 1) * (mpmath.digamma(a) - psi_total) for a in tilde)
            )
        n = len(LABELS)
        assert abs(enn - float(data_term / n + KL_WEIGHT * kl / n)) <= 1e-13 * abs(enn)

        def expit(x):
            return 1 / (1 + mpmath.exp(-x))

        counts = [[0, 0], [0, 0]]  # [accurate?][certain?]
        for r, u, hit in zip(out.confidence.data, out.uncertainty.data, correct):
            certain = expit((mpmath.mpf(float(r)) - 0.5) * 10) * expit(
                (0.5 - mpmath.mpf(float(u))) * 10
            )
            counts[int(hit)][1] += certain
            counts[int(hit)][0] += 1 - certain
        ratio = (counts[1][0] + counts[0][1]) / (counts[1][1] + counts[0][0] + 1e-8)
        assert abs(avuc - float(mpmath.log(1 + ratio))) <= 1e-13 * abs(avuc)


def test_evidential_avuc_training_loads_no_scipy(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text(
        TRAIN_CONFIG.replace("[model]\n", "[model]\nhead = enn\n").replace(
            "mmce = 0.5", "evidential_kl = 40\navuc = 0.6"
        )
    )
    out = tmp_path / "out"
    body = (
        "from caliblab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['train', '--config', {str(config)!r}, '--out', {str(out)!r}]) == 0\n"
        + LOADED
    )
    assert _fresh(body) == []
    assert (out / "report.json").exists()
