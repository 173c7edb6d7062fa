"""From pretrained model to label-marginal estimates.

Pipeline: draw Gaussian-class source data, pretrain a small dense network,
calibrate its temperature on validation data and measure the soft
confusion matrix there (``pretrain`` does all three), then recover shifted
label marginals from unlabeled batches by solving C s = mean prediction.
The estimates are noisy per batch but unbiased, which is what the online
algorithms rely on.
"""

import numpy as np

from olsofu import (
    Scenario,
    TrainConfig,
    bbse_estimate,
    default_means,
    default_pattern,
    make_rng,
    pretrain,
)
from olsofu.models import accuracy
from olsofu.synthdata import DataSpec, draw_class_inputs

data = DataSpec(
    k=4, d=8, class_means=default_means(4, 8, 2.0),
    class_cov_scale=1.0, n_train=4000, n_val=1000, n_test_pool=4000,
)
sc = Scenario(data=data, shift=default_pattern("constant", 4, 10),
              train_cfg=TrainConfig(epochs=30))

print("Pretraining (CE, SGD momentum 0.9, lr 0.1, weight decay 1e-4)...")
pre = pretrain(sc)
print(f"  held-out accuracy {accuracy(pre.model, pre.pool):.3f}, "
      f"calibrated temperature {pre.model.temperature:.3f}")

conf = pre.confusion  # pretraining measured it, regularized by sc.reg_lambda
print(f"\nSoft confusion matrix (columns sum to 1, sigma_min={conf.sigma_min:.3f}):")
print(np.round(conf.matrix, 3))

q = np.array([0.4, 0.3, 0.2, 0.1])
rng = make_rng(5)

print(f"\nEstimating a shifted marginal q = {q} from batches of 10:")
estimates = []
for _ in range(2000):
    labels = rng.choice(4, size=10, p=q)
    x = draw_class_inputs(data.class_means, data.class_cov_scale, labels, rng)
    estimates.append(bbse_estimate(pre.model, conf, x).s)
estimates = np.array(estimates)

for n in (1, 10, 100, 2000):
    mean = estimates[:n].mean(axis=0)
    print(f"  mean of {n:4d} estimates: {np.round(mean, 3)}  "
          f"(Linf error {np.abs(mean - q).max():.3f})")
stderr = estimates.std(axis=0, ddof=1) / np.sqrt(len(estimates))
print(f"  standard error of the final mean: {np.round(stderr, 4)}")
print("\nSingle-batch estimates can leave the simplex; consumers that need a")
print("distribution use the projected copy:")
while True:
    labels = rng.choice(4, size=10, p=q)
    x = draw_class_inputs(data.class_means, data.class_cov_scale, labels, rng)
    one = bbse_estimate(pre.model, conf, x)
    if one.s.min() < -0.01:
        break
print(f"  raw s      = {np.round(one.s, 3)}")
print(f"  projected  = {np.round(one.clipped, 3)}")
