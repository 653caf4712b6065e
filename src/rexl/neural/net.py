"""Encoder forward and backward passes on plain numpy arrays.

Every forward helper returns its output together with the cache needed by
the matching backward helper.  Gradients are accumulated into a flat
name -> array dict mirroring the parameter dict.  All math is float64,
and checkpoints store float64 too, so a loaded model computes exactly
what the trained one did.

The encoder is pre-norm without a final normalisation, so a model whose
attention-output and feed-forward weights are all zero reduces to the
identity on the embedded input.  That property is load-bearing: it lets
the relation head run on a restricted token subset while reusing the
original position indices.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from scipy.special import erf

LN_EPS = 1e-5
_NEG_INF = -1e30
_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def layer_norm_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mean) * inv
    return xhat * g + b, (xhat, inv)


def layer_norm_backward(dy: np.ndarray, g: np.ndarray, cache):
    xhat, inv = cache
    axes = tuple(range(dy.ndim - 1))
    dg = (dy * xhat).sum(axis=axes)
    db = dy.sum(axis=axes)
    dxhat = dy * g
    dx = inv * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dg, db


def gelu_forward(x: np.ndarray):
    u = erf(x * _INV_SQRT2)
    return 0.5 * x * (1.0 + u), (x, u)


def gelu_backward(dy: np.ndarray, cache):
    x, u = cache
    local = 0.5 * (1.0 + u) + x * _INV_SQRT2PI * np.exp(-0.5 * x * x)
    return dy * local


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(dy: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    return y * (dy - (dy * y).sum(axis=axis, keepdims=True))


def _linear_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    # x: [..., din], w: [din, dout], dy: [..., dout]
    din, dout = w.shape
    x2 = x.reshape(-1, din)
    dy2 = dy.reshape(-1, dout)
    dw = x2.T @ dy2
    db = dy2.sum(axis=0)
    dx = (dy2 @ w.T).reshape(x.shape)
    return dx, dw, db


def _dropout_mask(shape, rate: float, rng: np.random.Generator) -> np.ndarray:
    keep = (rng.random(shape) >= rate).astype(np.float64)
    return keep / (1.0 - rate)


def encoder_forward(
    params: dict,
    cfg,
    ids: np.ndarray,
    pos_ids: np.ndarray,
    mask: np.ndarray,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
):
    """Run the encoder over a padded batch.

    ids, pos_ids: int arrays [B, L]; mask: [B, L] with 1.0 at real positions.
    Returns (H, attentions, cache) where H is [B, L, d] and attentions holds
    one [B, heads, L, L] array per layer.  Padded key positions receive zero
    attention; padded rows are garbage and must never be read downstream.
    """
    B, L = ids.shape
    d = cfg.d_model
    nh = cfg.n_heads
    dh = cfg.d_head
    use_dropout = train and cfg.dropout > 0.0
    if use_dropout and rng is None:
        raise ValueError("training-mode forward needs an rng for dropout")
    maskf = mask.astype(np.float64)

    x = params["tok_emb"][ids] + params["pos_emb"][pos_ids]
    emb_drop = None
    if use_dropout:
        emb_drop = _dropout_mask(x.shape, cfg.dropout, rng)
        x = x * emb_drop

    key_bias = (1.0 - maskf) * _NEG_INF  # [B, L]
    scale = 1.0 / math.sqrt(dh)
    layer_caches = []
    attentions = []
    for l in range(cfg.n_layers):
        p = f"l{l}."
        pre = x
        y, ln1c = layer_norm_forward(pre, params[p + "ln1_g"], params[p + "ln1_b"])
        q = y @ params[p + "wq"] + params[p + "bq"]
        k = y @ params[p + "wk"] + params[p + "bk"]
        v = y @ params[p + "wv"] + params[p + "bv"]
        qh = q.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        kh = k.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        vh = v.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        scores = qh @ kh.transpose(0, 1, 3, 2) * scale
        scores = scores + key_bias[:, None, None, :]
        attn = softmax(scores, axis=-1)
        z = attn @ vh  # [B, nh, L, dh]
        zm = z.transpose(0, 2, 1, 3).reshape(B, L, d)
        o = zm @ params[p + "wo"] + params[p + "bo"]
        attn_drop = None
        if use_dropout:
            attn_drop = _dropout_mask(o.shape, cfg.dropout, rng)
            o = o * attn_drop
        x = pre + o

        pre2 = x
        y2, ln2c = layer_norm_forward(pre2, params[p + "ln2_g"], params[p + "ln2_b"])
        f1 = y2 @ params[p + "w1"] + params[p + "b1"]
        g, geluc = gelu_forward(f1)
        f2 = g @ params[p + "w2"] + params[p + "b2"]
        ff_drop = None
        if use_dropout:
            ff_drop = _dropout_mask(f2.shape, cfg.dropout, rng)
            f2 = f2 * ff_drop
        x = pre2 + f2

        attentions.append(attn)
        layer_caches.append({
            "ln1c": ln1c, "y": y, "qh": qh, "kh": kh, "vh": vh,
            "attn": attn, "zm": zm, "attn_drop": attn_drop,
            "ln2c": ln2c, "y2": y2, "geluc": geluc, "g": g, "ff_drop": ff_drop,
        })

    cache = {
        "ids": ids, "pos_ids": pos_ids, "emb_drop": emb_drop,
        "layers": layer_caches, "B": B, "L": L,
    }
    return x, attentions, cache


def encoder_backward(params: dict, cfg, cache: dict, dH: np.ndarray):
    """Backpropagate dH through the encoder.

    Returns (grads, dx0) where grads maps parameter names to gradient
    arrays (encoder parameters only) and dx0 is the gradient with respect
    to the embedded input, shape [B, L, d].
    """
    B = cache["B"]
    L = cache["L"]
    d = cfg.d_model
    nh = cfg.n_heads
    dh = cfg.d_head
    scale = 1.0 / math.sqrt(dh)
    grads: dict[str, np.ndarray] = {}
    dx = dH

    for l in reversed(range(cfg.n_layers)):
        p = f"l{l}."
        c = cache["layers"][l]

        # feed-forward block
        df2 = dx if c["ff_drop"] is None else dx * c["ff_drop"]
        dg, dw2, db2 = _linear_backward(df2, c["g"], params[p + "w2"])
        df1 = gelu_backward(dg, c["geluc"])
        dy2, dw1, db1 = _linear_backward(df1, c["y2"], params[p + "w1"])
        dpre2, dg2, dbg2 = layer_norm_backward(dy2, params[p + "ln2_g"], c["ln2c"])
        dx = dx + dpre2
        grads[p + "w2"] = dw2
        grads[p + "b2"] = db2
        grads[p + "w1"] = dw1
        grads[p + "b1"] = db1
        grads[p + "ln2_g"] = dg2
        grads[p + "ln2_b"] = dbg2

        # attention block
        do = dx if c["attn_drop"] is None else dx * c["attn_drop"]
        dzm, dwo, dbo = _linear_backward(do, c["zm"], params[p + "wo"])
        dz = dzm.reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        dattn = dz @ c["vh"].transpose(0, 1, 3, 2)
        dvh = c["attn"].transpose(0, 1, 3, 2) @ dz
        dscores = softmax_backward(dattn, c["attn"], axis=-1) * scale
        dqh = dscores @ c["kh"]
        dkh = dscores.transpose(0, 1, 3, 2) @ c["qh"]
        dq = dqh.transpose(0, 2, 1, 3).reshape(B, L, d)
        dk = dkh.transpose(0, 2, 1, 3).reshape(B, L, d)
        dv = dvh.transpose(0, 2, 1, 3).reshape(B, L, d)
        dy_q, dwq, dbq = _linear_backward(dq, c["y"], params[p + "wq"])
        dy_k, dwk, dbk = _linear_backward(dk, c["y"], params[p + "wk"])
        dy_v, dwv, dbv = _linear_backward(dv, c["y"], params[p + "wv"])
        dy = dy_q + dy_k + dy_v
        dpre, dg1, dbg1 = layer_norm_backward(dy, params[p + "ln1_g"], c["ln1c"])
        dx = dx + dpre
        grads[p + "wo"] = dwo
        grads[p + "bo"] = dbo
        grads[p + "wq"] = dwq
        grads[p + "bq"] = dbq
        grads[p + "wk"] = dwk
        grads[p + "bk"] = dbk
        grads[p + "wv"] = dwv
        grads[p + "bv"] = dbv
        grads[p + "ln1_g"] = dg1
        grads[p + "ln1_b"] = dbg1

    if cache["emb_drop"] is not None:
        dx = dx * cache["emb_drop"]
    dtok = np.zeros_like(params["tok_emb"])
    dpos = np.zeros_like(params["pos_emb"])
    np.add.at(dtok, cache["ids"], dx)
    np.add.at(dpos, cache["pos_ids"], dx)
    grads["tok_emb"] = dtok
    grads["pos_emb"] = dpos
    return grads, dx
