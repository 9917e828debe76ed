"""The rows whose Gram an origin's fold factors carry, decoy included.

An origin factors only [X + Δ | y] and draws its decoy's column of each
fold factor (``protocol._decoy_column``). The decoy rows that give that
column are d_f = Q_f·[z; s] for fold f's drawn column [z; s], with Q_f
the complete orthogonal factor of the fold's rows of [X + Δ | y]."""

import numpy as np

from maskreg import protocol


def record_decoys(monkeypatch):
    """Record every decoy column an origin draws, keyed by the generator
    it is drawn from; returns that dict, filled as origins encrypt."""
    drawn = {}
    draw = protocol._decoy_column

    def recording(rng, sizes, q):
        drawn[rng] = draw(rng, sizes, q)
        return drawn[rng]

    monkeypatch.setattr(protocol, "_decoy_column", recording)
    return drawn


def explicit_rows(ctx, folds, decoy):
    """[X + Δ | y, (X + Δ)·w, d] of ``ctx``'s rows, block j in fold
    j mod ``folds``, with d the rows of each fold's drawn decoy column
    ``decoy[f]``. Q_f's signs are those that give R_f a non-negative
    diagonal, as ``protocol.r_factor`` does, so Q_fᵀd_f is the drawn z."""
    a = np.column_stack([ctx.x, ctx.y])
    n, q = a.shape
    fold = np.arange(n) // ctx.keys.block_size % folds
    d = np.zeros(n)
    for f, column in enumerate(decoy):
        rows = fold == f
        basis, r = np.linalg.qr(a[rows], mode="complete")
        diag = np.diagonal(r)
        basis[:, :diag.size] *= np.where(diag < 0.0, -1.0, 1.0)
        m = min(basis.shape[1], q + 1)
        d[rows] = basis[:, :m] @ column[:m]
    return np.column_stack([a, ctx.x @ ctx.verify_weights, d])
