"""Reference computations the benchmark checks hypcloud's outputs against.

Everything here is written apart from the package: plain numpy on the raw
arrays, with the formulas from the paper rather than hypcloud's code paths.
Each `check_*` function returns a list of failure messages; an empty list
means the program's output agreed.
"""

from __future__ import annotations

import numpy as np

# Relative tolerances, set from the accuracy of the formulas compared:
# - the same float expressions summed in another order agree to ~1e-15;
# - hypcloud's Mobius-form ball distance agrees with the arcosh form to
#   ~1e-16 inside the ball but loses digits at the clip margin (1.6e-7 per
#   distance at eps=1e-5 against a 60-digit reference; ~1e-9 on the mean of
#   the recon-boundary clouds), so boundary inputs get the looser bound.
REL_EXACT = 1e-12
REL_BALL_INTERIOR = 1e-12
REL_BALL_BOUNDARY = 1e-7
# Central differences at step FD_STEP on a loss of order 1 carry ~1e-9 of
# rounding error; FD_REL leaves room for that on gradients of order 1e-3.
FD_STEP = 1e-6
FD_REL = 1e-5
FD_ABS = 1e-8
# Coordinates whose hinges sit this close to a kink are not differenced.
KINK_GAP = 1e-3


def _close(name: str, got: float, want: float, rel: float, scale: float | None = None) -> list[str]:
    scale = abs(want) if scale is None else scale
    if not np.isfinite(got) or abs(got - want) > rel * scale:
        return [f"{name}: program {got!r}, reference {want!r} (tolerance {rel:g} of {scale:g})"]
    return []


# --- geometry ---------------------------------------------------------------


def clip_rows(x: np.ndarray, c: float, eps: float) -> np.ndarray:
    """Radially rescale rows with norm >= (1-eps)/sqrt(c) onto that radius."""
    rho = (1.0 - eps) / np.sqrt(c)
    r = np.sqrt((x * x).sum(axis=1))
    scale = np.where(r >= rho, rho / np.where(r > 0, r, 1.0), 1.0)
    return x * scale[:, None]


def _acosh1p(z: np.ndarray) -> np.ndarray:
    """acosh(1 + z) without the cancellation of forming 1 + z."""
    return np.log1p(z + np.sqrt(z * (z + 2.0)))


def _conformal_den(x: np.ndarray, c: float) -> np.ndarray:
    """1 - c|x|^2 as (1 - sqrt(c)|x|)(1 + sqrt(c)|x|)."""
    s = np.sqrt(c) * np.sqrt((x * x).sum(axis=1))
    return (1.0 - s) * (1.0 + s)


def hyperbolic_distances(x: np.ndarray, c: float) -> np.ndarray:
    """Dense arcosh-form ball distances between the rows of x (already clipped)."""
    den = _conformal_den(x, c)
    sq = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1)
    d = _acosh1p(2.0 * c * sq / (den[:, None] * den[None, :])) / np.sqrt(c)
    np.fill_diagonal(d, 0.0)
    return d


def euclidean_distances(x: np.ndarray) -> np.ndarray:
    return np.sqrt(((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=-1))


def hyper_chamfer_ref(x: np.ndarray, y: np.ndarray, c: float, eps: float, chunk: int = 256) -> float:
    """HyperCD with the arcosh form acosh(1 + 2c|x-y|^2 / ((1-c|x|^2)(1-c|y|^2))) / sqrt(c).

    For a fixed x the distance grows with |x-y|^2 / (1-c|y|^2), so each
    nearest neighbour is found on that ratio and only the minimum goes
    through acosh.
    """
    xb, yb = clip_rows(x, c, eps), clip_rows(y, c, eps)
    ax, ay = _conformal_den(xb, c), _conformal_den(yb, c)
    row_min = np.empty(len(xb))
    col_min = np.full(len(yb), np.inf)
    for lo in range(0, len(xb), chunk):
        sq = ((xb[lo:lo + chunk, None, :] - yb[None, :, :]) ** 2).sum(axis=-1)
        row_min[lo:lo + chunk] = (sq / ay[None, :]).min(axis=1)
        np.minimum(col_min, (sq / ax[lo:lo + chunk, None]).min(axis=0), out=col_min)
    d_xy = _acosh1p(2.0 * c * row_min / ax) / np.sqrt(c)
    d_yx = _acosh1p(2.0 * c * col_min / ay) / np.sqrt(c)
    return float(d_xy.mean() + d_yx.mean())


def nn_distances(x: np.ndarray, y: np.ndarray, chunk: int = 256) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force Euclidean nearest-neighbour distances, x to y and y to x."""
    d_xy = np.empty(len(x))
    d_yx = np.full(len(y), np.inf)
    for lo in range(0, len(x), chunk):
        sq = ((x[lo:lo + chunk, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
        d_xy[lo:lo + chunk] = sq.min(axis=1)
        np.minimum(d_yx, sq.min(axis=0), out=d_yx)
    return np.sqrt(d_xy), np.sqrt(d_yx)


def euclidean_ref(pred: np.ndarray, gt: np.ndarray, threshold: float) -> dict[str, float]:
    """Chamfer L1/L2 and Acc/Comp/Prec/Recall/F1 from brute-force NN distances."""
    d_pred, d_gt = nn_distances(pred, gt)
    prec = float(np.count_nonzero(d_pred <= threshold)) / len(d_pred)
    recall = float(np.count_nonzero(d_gt <= threshold)) / len(d_gt)
    return {
        "l1": float(d_pred.mean() + d_gt.mean()),
        "l2": float((d_pred**2).mean() + (d_gt**2).mean()),
        "acc": float(d_pred.mean()),
        "comp": float(d_gt.mean()),
        "prec": prec,
        "recall": recall,
        "f1": 2.0 * prec * recall / (prec + recall) if prec + recall > 0 else 0.0,
    }


def check_recon(pred: np.ndarray, gt: np.ndarray, out: dict[str, float], c: float, eps: float,
                threshold: float, hyper_rel: float) -> list[str]:
    """`out` holds the program's hypercd, l1, l2 and evaluate() fields."""
    fails = _close("hypercd", out["hypercd"], hyper_chamfer_ref(pred, gt, c, eps), hyper_rel)
    ref = euclidean_ref(pred, gt, threshold)
    for key in ("l1", "l2", "acc", "comp"):
        fails += _close(key, out[key], ref[key], REL_EXACT)
    for key in ("prec", "recall", "f1"):
        if out[key] != ref[key]:
            fails.append(f"{key}: program {out[key]!r}, reference {ref[key]!r}")
    return fails


# --- Gromov delta -----------------------------------------------------------


def maxmin_defect(m: np.ndarray, block: int = 64) -> float:
    """max over (i, j) of max_k min(m[i,k], m[k,j]) - m[i,j].

    min and max only compare, so the scan runs on the int32 ranks of the
    entries and maps the winners back to their float64 values: exact, and
    cheaper to move through memory than the floats.
    """
    values, inverse = np.unique(m, return_inverse=True)
    rank = inverse.reshape(m.shape).astype(np.int32)
    n = m.shape[0]
    worst = -np.inf
    tmp = np.empty((block, n), dtype=np.int32)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        acc = np.full((hi - lo, n), -1, dtype=np.int32)
        t = tmp[: hi - lo]
        for k in range(n):
            np.minimum(rank[lo:hi, k, None], rank[k], out=t)
            np.maximum(acc, t, out=acc)
        worst = max(worst, float((values[acc] - m[lo:hi]).max()))
    return worst


def delta_of_matrix(d: np.ndarray) -> tuple[float, float]:
    """(delta, diameter) of a distance matrix at the heaviest base point,
    the base hypcloud's sampling protocol uses."""
    base = int(np.argmax(d.sum(axis=1)))
    m = 0.5 * (d[:, base][:, None] + d[base, :][None, :] - d)
    return max(0.0, maxmin_defect(m)), float(d.max())


def batch_picks(n: int, batch_size: int, n_batches: int, seed: int) -> list[np.ndarray]:
    """The seeded row subsets of the batched protocol (Khrulkov et al. 2020)
    as `hypcloud delta` draws them: one pass over all rows when n fits a
    batch, else n_batches sorted uniform draws without replacement."""
    if n <= batch_size:
        return [np.arange(n)]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(5,)))
    return [np.sort(rng.choice(n, size=batch_size, replace=False)) for _ in range(n_batches)]


def delta_ref(points: np.ndarray, batch_size: int, n_batches: int, seed: int,
              c: float | None = None, eps: float = 0.0) -> dict[str, float]:
    """Averaged delta, diameter and delta_rel; hyperbolic when c is given."""
    deltas, diams, rels = [], [], []
    for pick in batch_picks(len(points), batch_size, n_batches, seed):
        sub = points[pick]
        d = euclidean_distances(sub) if c is None else hyperbolic_distances(clip_rows(sub, c, eps), c)
        delta, diam = delta_of_matrix(d)
        deltas.append(delta)
        diams.append(diam)
        rels.append(2.0 * delta / diam if diam > 0 else 0.0)
    return {"delta": float(np.mean(deltas)), "diameter": float(np.mean(diams)),
            "delta_rel": float(np.mean(rels))}


def check_delta(report, ref: dict[str, float], rel: float = REL_EXACT) -> list[str]:
    """`report` is a hypcloud DeltaReport; deltas compare on the diameter's scale."""
    fails = _close("diameter", report.diameter, ref["diameter"], rel)
    fails += _close("delta", report.delta, ref["delta"], rel, scale=ref["diameter"])
    fails += _close("delta_rel", report.delta_rel, ref["delta_rel"], rel, scale=1.0)
    if not 0.0 <= report.delta <= report.diameter:
        fails.append(f"delta {report.delta!r} outside [0, diameter {report.diameter!r}]")
    return fails


# --- part-whole embedding losses --------------------------------------------


def embed_loss(theta: np.ndarray, head_w: np.ndarray, head_b: float, gamma0: float,
               pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
               triplets: tuple[np.ndarray, np.ndarray, np.ndarray],
               c: float, eps: float, margin: float):
    """Vectorised L_Z and L_T of the paper's objective.

    L_Z = mean max(0, |p|_H - |w|_H + gamma/N) with the adaptive margin
    gamma = gamma0 * sigmoid(head . [theta_p, theta_w]); L_T = mean
    max(0, |t_w - t_p| - |t_w - t_n| + margin) on origin log-map images t.
    Returns (l_z, l_t, hinge arguments of the pairs, of the triplets).
    """
    part, whole, n_points = pairs
    anchor, pos, neg = triplets
    emb = clip_rows(theta, c, eps)
    sc = np.sqrt(c)
    r = np.sqrt((emb * emb).sum(axis=1))
    at = np.arctanh(sc * r)
    hnorm = (2.0 / sc) * at
    act = np.concatenate([theta[part], theta[whole]], axis=1) @ head_w + head_b
    gamma = gamma0 / (1.0 + np.exp(-act))
    z_args = hnorm[part] - hnorm[whole] + gamma / n_points
    tan = emb * np.where(r > 0, at / np.where(r > 0, sc * r, 1.0), 1.0)[:, None]
    d_pos = np.sqrt(((tan[anchor] - tan[pos]) ** 2).sum(axis=1))
    d_neg = np.sqrt(((tan[anchor] - tan[neg]) ** 2).sum(axis=1))
    t_args = d_pos - d_neg + margin
    l_z = float(np.maximum(z_args, 0.0).mean()) if len(part) else 0.0
    l_t = float(np.maximum(t_args, 0.0).mean()) if len(anchor) else 0.0
    return l_z, l_t, z_args, t_args


def check_embed_loss(got_l_z: float, got_l_t: float, theta, head_w, head_b, gamma0,
                     pairs, triplets, c, eps, margin) -> list[str]:
    l_z, l_t, _, _ = embed_loss(theta, head_w, head_b, gamma0, pairs, triplets, c, eps, margin)
    return _close("l_z", got_l_z, l_z, REL_EXACT) + _close("l_t", got_l_t, l_t, REL_EXACT)


def smooth_rows(theta, pairs, triplets, z_args, t_args) -> np.ndarray:
    """Rows of theta every hinge of which lies at least KINK_GAP from its kink."""
    near = np.zeros(len(theta), dtype=bool)
    for rows, args in ((pairs[:2], z_args), (triplets, t_args)):
        bad = np.abs(args) < KINK_GAP
        for idx in rows:
            near[idx[bad]] = True
    return np.nonzero(~near)[0]


def check_embed_gradient(got: dict[tuple[int, int], float], theta, head_w, head_b, gamma0,
                         pairs, triplets, c, eps, margin) -> list[str]:
    """Compare analytic d(L_Z + L_T)/d theta[row, col] against central
    differences of `embed_loss`; `got` maps (row, col) to the program's value."""
    fails = []
    for (row, col), value in got.items():
        plus, minus = theta.copy(), theta.copy()
        plus[row, col] += FD_STEP
        minus[row, col] -= FD_STEP
        f_plus = sum(embed_loss(plus, head_w, head_b, gamma0, pairs, triplets, c, eps, margin)[:2])
        f_minus = sum(embed_loss(minus, head_w, head_b, gamma0, pairs, triplets, c, eps, margin)[:2])
        central = (f_plus - f_minus) / (2.0 * FD_STEP)
        if not abs(value - central) <= FD_REL * abs(central) + FD_ABS:
            fails.append(f"gradient[{row},{col}]: program {value!r}, central difference {central!r}")
    return fails


def check_embed_state(theta: np.ndarray, curve_totals: list[float], c: float, eps: float) -> list[str]:
    fails = []
    rho = (1.0 - eps) / np.sqrt(c)
    worst = float(np.sqrt((theta * theta).sum(axis=1)).max())
    if not worst <= rho:
        fails.append(f"an embedding has norm {worst!r} beyond the clip margin {rho!r}")
    if not curve_totals[-1] < curve_totals[0]:
        fails.append(f"reference loss did not fall: first epoch {curve_totals[0]!r}, "
                     f"last {curve_totals[-1]!r}")
    return fails


def hyperbolic_norms(theta: np.ndarray, c: float, eps: float) -> np.ndarray:
    """Distance from the origin, (2/sqrt(c)) artanh(sqrt(c)|x|), of each clipped row."""
    emb = clip_rows(theta, c, eps)
    return (2.0 / np.sqrt(c)) * np.arctanh(np.sqrt(c) * np.sqrt((emb * emb).sum(axis=1)))


def check_norm_order(got_rate: float, theta: np.ndarray, part: np.ndarray, whole: np.ndarray,
                     c: float, eps: float) -> list[str]:
    """Share of (part, whole) pairs whose part lies strictly nearer the origin."""
    hnorm = hyperbolic_norms(theta, c, eps)
    want = float(np.count_nonzero(hnorm[part] < hnorm[whole])) / len(part)
    if got_rate != want:
        return [f"norm_order_rate: program {got_rate!r}, reference {want!r}"]
    return []
