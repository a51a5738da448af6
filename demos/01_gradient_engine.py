"""Tour of the reverse-mode gradient engine.

Builds a few expressions on the tape, checks the analytic gradients against
central finite differences, and trains a tiny two-layer network end to end
with nothing but the engine and the optimizers.
"""

import numpy as np

from caliblab.autodiff import constant, finite_diff_grad, gradients, parameter, softmax
from caliblab.losses import cross_entropy
from caliblab.nn import Adam, init_dense

# ---------------------------------------------------------------------------
# 1. Scalars first: d/dx of x*sigmoid(x) at x=1.5, by tape and by hand.
# ---------------------------------------------------------------------------
x = parameter(np.array(1.5))
y = x * x.sigmoid()
y.backward()
s = 1.0 / (1.0 + np.exp(-1.5))
print("tape gradient   :", float(x.grad))
print("closed form     :", s + 1.5 * s * (1.0 - s))

# ---------------------------------------------------------------------------
# 2. A matrix expression checked against central differences.
# ---------------------------------------------------------------------------
rng = np.random.default_rng(0)
w = parameter(rng.normal(size=(3, 3)))
v = constant(rng.normal(size=(3, 1)))

loss = (w @ v).relu().sum() * 0.5
(grad,) = gradients(loss, [w])
(fd,) = finite_diff_grad(lambda: float(((w @ v).relu().sum() * 0.5).data), [w])
print("max |tape - finite difference| :", float(np.max(np.abs(grad - fd))))

# ---------------------------------------------------------------------------
# 3. Train a small classifier on two Gaussian clouds.
# ---------------------------------------------------------------------------
n = 200
features = np.vstack(
    [
        rng.normal((-1.5, 0.0), 0.7, size=(n // 2, 2)),
        rng.normal((1.5, 0.0), 0.7, size=(n // 2, 2)),
    ]
)
labels = np.repeat([0, 1], n // 2)

layers = [
    init_dense(2, 16, rng, activation="relu"),
    init_dense(16, 2, rng, activation="identity"),
]
params = [p for layer in layers for p in layer.parameters()]
opt = Adam(lr=0.05)

for epoch in range(30):
    logits = constant(features)
    for layer in layers:
        logits = layer(logits)
    loss = cross_entropy(softmax(logits), labels)
    opt.step(params, gradients(loss, params))
    if epoch % 10 == 0 or epoch == 29:
        preds = np.argmax(logits.data, axis=1)
        acc = float(np.mean(preds == labels))
        print(f"epoch {epoch:2d}  loss {float(loss.data):.4f}  accuracy {acc:.3f}")
