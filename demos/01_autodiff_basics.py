"""Tour of the reverse-mode tensor engine.

Builds a tiny computation by hand, pulls gradients off the tape, and checks
one of them against a central finite difference. Everything is float64
numpy under the hood; gradients exist only for tensors that ask for them.
"""

import numpy as np

import dirichlet_pruning.tensor as T
from dirichlet_pruning.tensor import Tensor

rng = np.random.default_rng(0)

# A four-sample batch through one dense layer with a relu, then the mean
# cross-entropy of the two outputs against the labels.
x = Tensor(rng.normal(size=(4, 3)))
labels = np.array([0, 1, 1, 0])
w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
b = Tensor(np.zeros(2), requires_grad=True)

with T.Tape():
    hidden = T.relu(T.matmul(x, w, bias=b))
    loss = T.softmax_cross_entropy(hidden, labels)
T.backward(loss)

print("loss           ", loss.item())
print("dloss/dw\n", w.grad)
print("dloss/db       ", b.grad)

# Check dloss/dw[0,0] numerically: nudge the entry both ways and re-run.
eps = 1e-6


def loss_at(w00):
    wv = w.data.copy()
    wv[0, 0] = w00
    out = T.relu(T.matmul(x, Tensor(wv), bias=b))
    return T.softmax_cross_entropy(out, labels).item()


fd = (loss_at(w.data[0, 0] + eps) - loss_at(w.data[0, 0] - eps)) / (2 * eps)
print(f"finite diff    {fd:.10f}")
print(f"tape gradient  {w.grad[0, 0]:.10f}")
print(f"|difference|   {abs(fd - w.grad[0, 0]):.2e}")

# The same engine drives convolutions. Gradients flow to image and kernel;
# the 18 pooled values are scored as logits of an 18-way class.
image = Tensor(rng.normal(size=(1, 1, 6, 6)), requires_grad=True)
kernel = Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
with T.Tape():
    maps = T.conv2d(image, kernel, padding=1)
    pooled = T.maxpool2d(maps, 2)
    objective = T.softmax_cross_entropy(T.flatten_batch(pooled), np.array([0]))
T.backward(objective)
print("\nconv output map shape ", maps.data.shape)
print("pooled shape          ", pooled.data.shape)
print("kernel grad shape     ", kernel.grad.shape)
print("image grad nonzeros   ", int(np.count_nonzero(image.grad)))

# Classification losses come built in; the gradient is softmax minus onehot.
logits = Tensor(np.array([[2.0, 0.5, -1.0], [0.0, 0.0, 0.0]]), requires_grad=True)
with T.Tape():
    nll = T.softmax_cross_entropy(logits, np.array([0, 2]))
T.backward(nll)
print("\ncross entropy          ", nll.item())
print("dnll/dlogits\n", logits.grad)
