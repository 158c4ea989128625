"""Single-view reconstruction evaluation: Acc, Comp, CD, Prec, Recall, F1.

Distances are Euclidean nearest-neighbor distances (the L1-CD convention);
precision and recall count points within a distance threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

# NNIndex is not called here; it stays a module attribute because
# perfbench's tracer patches it by name.
from .chamfer import NNIndex, _nn_minima  # noqa: F401
from .cloud import PointCloud


@dataclass(frozen=True)
class MetricsReport:
    acc: float
    comp: float
    cd: float
    prec: float
    recall: float
    f1: float
    threshold: float

    def __post_init__(self):
        if not self.threshold > 0:
            raise ValueError(f"threshold must be positive, got {self.threshold}")
        if self.cd != self.acc + self.comp:
            raise ValueError("cd must equal acc + comp exactly")


def evaluate(pred: PointCloud, gt: PointCloud, threshold: float = 0.1) -> MetricsReport:
    """Evaluate a predicted cloud against ground truth at a distance threshold.

    acc is the mean predicted-to-GT NN distance, comp the mean GT-to-predicted
    NN distance; prec and recall are the fractions within the threshold, f1
    their harmonic mean (0 when both are 0).
    """
    if not threshold > 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    d_pred, d_gt = _nn_minima(pred, gt)
    acc = float(d_pred.mean())
    comp = float(d_gt.mean())
    prec = float((d_pred <= threshold).mean())
    recall = float((d_gt <= threshold).mean())
    f1 = 2.0 * prec * recall / (prec + recall) if prec + recall > 0 else 0.0
    return MetricsReport(acc=acc, comp=comp, cd=acc + comp, prec=prec,
                         recall=recall, f1=f1, threshold=threshold)
