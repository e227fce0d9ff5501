#!/usr/bin/env python3
# Three ways to deal with the risk peak at N = n, evaluated on identical
# data streams so the comparisons are paired:
#
#   1. ridge regularization (helps),
#   2. appending pure-noise random features, which pushes the model past
#      the interpolation threshold (helps, oddly),
#   3. semi-supervised whitening with unlabeled data (direction depends on
#      the problem; here it hurts slightly at the peak).
#
# N = n = 40 is the paper's nominal threshold.  With the free bias the
# system [X, 1] is square at N + 1 = n, so the peak itself sits at
# N = n - 1 = 39; N = 40 is one feature past it, still near the top.

import numpy as np

import riskcurves as rc
from riskcurves.curves import SEED_AUGMENT, SEED_SPLIT, mix
from riskcurves.data import split_indices

DATA = rc.GaussianSpec(dim=40, informative=10, separation=2.5)
N = 40
REPS = 30
SEED = 4
TEST = 1000


def paired_summary(name, base, other):
    diff = np.asarray(base) - np.asarray(other)
    se = diff.std(ddof=1) / np.sqrt(len(diff))
    verdict = "helps" if diff.mean() > 0 else "hurts"
    print(
        f"  {name:<24} mean risk {np.mean(other):.3f}  "
        f"(change {diff.mean():+.3f} +- {se:.3f}, {verdict})"
    )


risks = {"mnlr": [], "ridge": [], "augmented": [], "pfld": [], "semisup": []}
for rep in range(REPS):
    pool = rc.gen_two_gaussians(DATA, N + TEST, mix(SEED, rep))
    tr, te = split_indices(pool.y, N, mix(SEED, rep, SEED_SPLIT))
    train, test = rc.Dataset(pool.x[tr], pool.y[tr]), rc.Dataset(pool.x[te], pool.y[te])
    unlabeled = rc.gen_two_gaussians(DATA, 400, mix(SEED, rep, 2)).x

    def risk(model, test_set=None):
        ts = test if test_set is None else test_set
        return rc.zero_one_risk(rc.predict(model, ts.x), ts.y)

    risks["mnlr"].append(risk(rc.fit(rc.Mnlr(), train.x, train.y)))
    risks["ridge"].append(risk(rc.fit(rc.Ridge(lam=0.1), train.x, train.y)))
    risks["pfld"].append(risk(rc.fit(rc.Pfld(), train.x, train.y)))
    semisup = rc.fit(rc.SemiSupPfld(unlabeled_count=400), train.x, train.y, x_unlabeled=unlabeled)
    risks["semisup"].append(risk(semisup))

    tr_aug = rc.append_random_features(train, 40, 1.0, mix(SEED, rep, SEED_AUGMENT))
    te_aug = rc.append_random_features(test, 40, 1.0, mix(SEED, rep, SEED_AUGMENT, 1))
    risks["augmented"].append(risk(rc.fit(rc.Mnlr(), tr_aug.x, tr_aug.y), te_aug))

print(f"at the interpolation threshold N = n = {N} ({REPS} paired reps):")
print(f"  {'plain MNLR':<24} mean risk {np.mean(risks['mnlr']):.3f}")
paired_summary("ridge(0.1)", risks["mnlr"], risks["ridge"])
paired_summary("+40 noise features", risks["mnlr"], risks["augmented"])
print(f"  {'plain PFLD':<24} mean risk {np.mean(risks['pfld']):.3f}")
paired_summary("semisup (400 unlabeled)", risks["pfld"], risks["semisup"])
