"""Convolution as GEMM over the padded input: banded forward, gather-free ``dW``, one row-band partition.

Convolution is expressed as matrix multiplication.  The forward
(``conv_forward_offset``) assembles the unrolled input one cache-sized row
band at a time into a shared scratch (one strided copy of the k² offset
slices) and runs one GEMM per band straight into the output rows — the same
bands compiled plans pre-bind (:func:`conv_bands`).  ``dW`` unrolls nothing:
over full padded rows the input of kernel offset ``(i, j)`` is, per channel,
one contiguous run of the *padded input* — the only tensor a training step
retains — so the output gradient is laid out at that row pitch and k²
strided-view GEMMs contract it against the runs in place.  ``dX`` is the
banded forward again, over the output gradient with flipped filters and the
pixels that are padding left out.  Nothing ``k²``-sized is ever written.  The
seed's whole-matrix im2col / col2im formulation is the gradient-parity oracle
in ``tests/reference_kernels.py``.

The paper's up-convolution — a 2×2 convolution over the 2× nearest up-sampled
input, edge-padded bottom/right — runs on the same band partition at the
input's resolution (:func:`upconv_bands`): its four output phases are
convolutions of the input itself with folded weights, one GEMM each against a
row range of one gathered band, so the 4× map is never built.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "conv_output_size",
    "pad_input",
    "conv_forward_offset",
    "conv_backward_offset",
]


def conv_output_size(size: int, kernel: int, pad: int) -> int:
    """Output spatial size of a convolution along one dimension."""
    out = size + 2 * pad - kernel + 1
    if out < 1:
        raise ValueError(f"non-positive conv output size for size={size}, kernel={kernel}, pad={pad}")
    return out


#: Shared scratch for the transient matrices: a forward band's unrolled input
#: and staging, or ``dW``'s pitched output gradient.  A fresh ``np.empty`` per
#: conv call costs more in page faults than the copies that fill it; one flat
#: buffer sized to the largest request amortises that across the whole
#: network.  Each engine call carves a view, uses it for exactly one GEMM, and
#: is done with it before any other call can run (the engine is
#: single-threaded per process; forked workers get their own copy), so no two
#: live tensors ever alias the scratch.
_SCRATCH: dict[str, np.ndarray] = {}


def scratch_buffer(shape: tuple[int, ...]) -> np.ndarray:
    """A float32 view of the shared workspace, grown to fit ``shape``.

    Callers must be done with the view before anything else can request
    one — the engine guarantees this by finishing each GEMM before the next
    layer call runs.
    """
    size = math.prod(shape)
    flat = _SCRATCH.get("cols")
    if flat is None or flat.size < size:
        flat = _SCRATCH["cols"] = np.empty(size, dtype=np.float32)
    return flat[:size].reshape(shape)


def release_workspace() -> None:
    """Drop the shared scratch buffers (for tests and memory accounting)."""
    _SCRATCH.clear()


def workspace_nbytes() -> int:
    """Current total size of the shared scratch buffers in bytes."""
    return sum(flat.nbytes for flat in _SCRATCH.values())


def pad_input(x: np.ndarray, pad: int) -> np.ndarray:
    """Zero-pad the spatial axes of an ``(N, C, H, W)`` batch (no-op for pad 0)."""
    if pad <= 0:
        return x
    xp = np.zeros(x.shape[:2] + (x.shape[2] + 2 * pad, x.shape[3] + 2 * pad), dtype=x.dtype)
    xp[:, :, pad:-pad, pad:-pad] = x
    return xp


#: Generation of this package's float arithmetic, written into checkpoint and
#: registry metadata: bumped when a kernel changes its summation order, so
#: weights trained on either side of the change differ in their last bits
#: (2: ``dW`` as k² strided-view GEMMs; 3: the up-convolution as four phase
#: GEMMs at its input's resolution; archives without the key are 1).
NUMERICS = 3

#: Byte budget of one conv band — its cols rows plus its output rows.  Small
#: enough that a band is still in L2 when the bias add and ReLU revisit it.
BAND_BYTES = 256 * 1024


def conv_band_rows(kc: int, f: int, out_h: int, out_w: int) -> int:
    """Output rows per band of a ``(k²C → F)`` convolution: as many as fit ``BAND_BYTES``.

    The one partition every conv GEMM goes through.  BLAS results depend on a
    GEMM's column count in the last bit, so compiled plans and layer forwards
    agree bit for bit only because both split an image into these bands.
    """
    return max(1, min(out_h, BAND_BYTES // (4 * (kc + f) * out_w)))


def conv_bands(xp: np.ndarray, out: np.ndarray, scratch: np.ndarray | None, kernel: int) -> list[tuple]:
    """Per image and row band: ``(cols fill dst, its src, (k²C, rows·W) cols, (F, rows·W) GEMM output, that as rows, destination rows)``.

    ``scratch`` is flat and holds one band: the cols — every band's fill, the
    k² offset slices in one strided copy, lands at the front of it, so bands
    must run one at a time — then ``F·rows·W`` floats of staging.  A pointwise
    convolution's cols are rows of ``xp`` itself (nothing to fill, no cols in
    the scratch).  The GEMM writes the destination rows directly when they
    are one ``(F, rows·W)`` matrix; rows inside a bordered buffer are not
    (``reshape`` would silently copy), so their GEMM lands in the staging and
    the last elementwise pass of :func:`run_conv_bands` writes them.
    """
    n, c = xp.shape[:2]
    f, out_h, out_w = out.shape[1:]
    kc = kernel * kernel * c
    rows = conv_band_rows(kc, f, out_h, out_w)
    pointwise = kernel == 1
    band = (0 if pointwise else kc) * rows * out_w
    direct = out.strides[2] == out_w * out.strides[3]
    if band + (0 if direct else f * rows * out_w) > (0 if scratch is None else scratch.size):
        raise ValueError(f"conv scratch too small for one band of a {out.shape} output with strides {out.strides}")
    if pointwise:
        if xp.strides[2] != xp.shape[3] * xp.strides[3]:
            raise ValueError(f"pointwise conv source {xp.shape} with strides {xp.strides}: its rows are not one matrix")
    else:
        # windows[img, i, j, ch, r, q] = xp[img, ch, i + r, j + q]
        sn, sc, sh, sw = xp.strides
        windows = np.lib.stride_tricks.as_strided(
            xp, (n, kernel, kernel, c, out_h, out_w), (sn, sh, sw, sc, sh, sw), writeable=False
        )
    bands = []
    for r0 in range(0, out_h, rows):
        r1 = min(r0 + rows, out_h)
        if not pointwise:
            cols = scratch[: kc * (r1 - r0) * out_w]
            dst, cols2 = cols.reshape(kernel, kernel, c, r1 - r0, out_w), cols.reshape(kc, -1)
        if not direct:
            staged = scratch[band : band + f * (r1 - r0) * out_w].reshape(f, r1 - r0, out_w)
        for img in range(n):
            dest = out[img, :, r0:r1]
            if direct:
                staged = dest
            if pointwise:
                bands.append((None, None, xp[img, :, r0:r1].reshape(c, -1), staged.reshape(f, -1), staged, dest))
            else:
                bands.append((dst, windows[img, :, :, :, r0:r1], cols2, staged.reshape(f, -1), staged, dest))
    return bands


def run_conv_bands(bands, w_mat: np.ndarray, bias: np.ndarray | None, relu: bool) -> None:
    """Assemble, multiply, add the ``(F, 1)`` bias and rectify one band at a time.

    The last pass writes ``dest`` — the GEMM output itself unless that was staged.
    """
    bias3 = None if bias is None else bias[:, :, None]
    for dst, src, cols2, out2, staged, dest in bands:
        if dst is not None:
            dst[...] = src
        np.matmul(w_mat, cols2, out=out2)
        if relu:
            if bias is not None:
                out2 += bias
            np.maximum(staged, np.float32(0.0), out=dest)
        elif bias is not None:
            np.add(staged, bias3, out=dest)
        elif staged is not dest:
            dest[...] = staged


#: The taps ``(u, v)`` of a 2× up-convolution — tap ``(u, v)`` of output pixel ``(2i+a, 2j+b)`` reads
#: ``x[i+u, j+v]``, clamped at the bottom/right edge — in the order a band gathers them.
UPCONV_TAPS = ((1, 0), (0, 0), (0, 1), (1, 1))

#: The four output phases ``(a, b)`` in pack order, each with the contiguous range ``[t0, t1)`` of
#: :data:`UPCONV_TAPS` it reads: 1 + 2 + 2 + 4 = 9 taps where the up-sampled map's 2×2 conv has 16.
UPCONV_PHASES = (((0, 0), 1, 2), ((0, 1), 1, 3), ((1, 0), 0, 2), ((1, 1), 0, 4))


def upconv_phase_kernels(weight: np.ndarray) -> np.ndarray:
    """The ``(4, F, C, 2, 2)`` kernels of a 2×2 convolution over the edge-padded 2× nearest up-sample, per phase.

    Up-sampled pixel ``2i+a+di`` is input pixel ``min(i + (a+di)//2, h−1)``, so kernel tap ``(di, dj)`` of
    phase ``(a, b)`` lands on input tap ``((a+di)//2, (b+dj)//2)``: phase ``(0, 0)`` is a 1×1 kernel ``ΣW``,
    ``(0, 1)`` and ``(1, 0)`` are 1×2 and 2×1, ``(1, 1)`` is ``W`` itself; taps a phase never reads are zero.
    """
    phases = np.zeros((4,) + weight.shape, dtype=np.float32)
    for p, ((a, b), _, _) in enumerate(UPCONV_PHASES):
        for di in (0, 1):
            for dj in (0, 1):
                phases[p, :, :, (a + di) // 2, (b + dj) // 2] += weight[:, :, di, dj]
    return phases


def upconv_weights(weight: np.ndarray) -> np.ndarray:
    """A ``(F, C, 2, 2)`` up-convolution weight as one ``(F, 9C)`` matrix: the four phase blocks side by side.

    Phase ``(a, b)``'s block holds its kernel at the taps ``UPCONV_TAPS[t0:t1]``, so it multiplies one
    contiguous row range of a band's ``(4C, rows·w)`` cols.
    """
    phases = upconv_phase_kernels(weight)
    return np.concatenate([phases[p, :, :, u, v] for p, (_, t0, t1) in enumerate(UPCONV_PHASES)
                           for u, v in UPCONV_TAPS[t0:t1]], axis=1)


def _clamped(lo: int, hi: int, shift: int, size: int) -> list[tuple[slice, slice]]:
    """``(dst, src)`` slice pairs that read indices ``lo+shift … hi−1+shift`` of an axis clamped to ``size−1``."""
    real = min(hi + shift, size) - lo - shift
    pairs = [(slice(0, real), slice(lo + shift, lo + shift + real))] if real else []
    if real < hi - lo:  # at most one index past the edge: it repeats the last one
        pairs.append((slice(real, hi - lo), slice(size - 1, size)))
    return pairs


def upconv_bands(x: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> list[tuple]:
    """Per image and row band of a 2× up-convolution of ``x``: ``(gather copies, per-phase cols, staging, per-phase destinations)``.

    ``x`` is the ``(N, C, h, w)`` low-resolution input, ``out`` the ``(N, F, 2h, 2w)`` destination (any
    strides, e.g. a channel slice inside a bordered buffer).  Bands are ``conv_band_rows(4C, F, h, w)`` input
    rows.  ``scratch`` holds one band: the ``(4C, rows·w)`` cols — tap ``t`` of :data:`UPCONV_TAPS` in rows
    ``[tC, (t+1)C)``, the last row and column copied twice where a tap reaches past the edge — then ``F·rows·w``
    floats of staging.  Phase ``(a, b)`` multiplies cols rows ``[t0·C, t1·C)`` and its bias pass writes the
    strided view ``out[img, :, 2r0+a:2r1:2, b::2]``.
    """
    n, c, h, w = x.shape
    f = out.shape[1]
    rows = conv_band_rows(4 * c, f, h, w)
    if (4 * c + f) * rows * w > scratch.size:
        raise ValueError(f"up-conv scratch too small for one band of a {out.shape} output")
    bands = []
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        cols = scratch[: 4 * c * (r1 - r0) * w]
        taps, cols2 = cols.reshape(4, c, r1 - r0, w), cols.reshape(4 * c, -1)
        operands = [cols2[t0 * c : t1 * c] for _, t0, t1 in UPCONV_PHASES]
        staged = scratch[4 * c * rows * w : (4 * c * rows + f * (r1 - r0)) * w].reshape(f, r1 - r0, w)
        for img in range(n):
            copies = [(taps[t, :, dr, dc], x[img, :, sr, sc]) for t, (u, v) in enumerate(UPCONV_TAPS)
                      for dr, sr in _clamped(r0, r1, u, h) for dc, sc in _clamped(0, w, v, w)]
            dests = [out[img, :, 2 * r0 + a : 2 * r1 : 2, b::2] for (a, b), _, _ in UPCONV_PHASES]
            bands.append((copies, operands, staged.reshape(f, -1), staged, dests))
    return bands


def run_upconv_bands(bands, w_pack: np.ndarray, bias: np.ndarray) -> None:
    """Gather, then per phase one GEMM against its block of the ``(F, 9C)`` pack and one bias pass into its pixels."""
    c, k0, weights = w_pack.shape[1] // 9, 0, []
    for _, t0, t1 in UPCONV_PHASES:
        weights.append(w_pack[:, k0 : k0 + (t1 - t0) * c])
        k0 += (t1 - t0) * c
    bias3 = bias[:, :, None]
    for copies, operands, staged2, staged, dests in bands:
        for dst, src in copies:
            dst[...] = src
        for w_phase, cols, dest in zip(weights, operands, dests):
            np.matmul(w_phase, cols, out=staged2)
            np.add(staged, bias3, out=dest)


def conv_forward_offset(xp: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """Convolve a pre-padded ``(N, C, Hp, Wp)`` batch, one row band at a time.

    Each band's unrolled input is assembled in ``(k*k*C, rows, out_w)`` layout
    with one slice copy per kernel offset (no transposes) and contracted
    against the ``(offset, channel)``-ordered filter bank by a GEMM that writes
    straight into the band's rows of the ``(N, F, Hp-k+1, Wp-k+1)`` output;
    the unrolled matrix is never cached.
    """
    n, c, hp, wp = xp.shape
    f, _, k, _ = weight.shape
    out = np.empty((n, f, hp - k + 1, wp - k + 1), dtype=np.float32)
    if k == 1:
        # Pointwise convolution: the input already is the unrolled matrix.
        xp, cols = np.ascontiguousarray(xp), None
    else:
        cols = scratch_buffer((k * k * c * conv_band_rows(k * k * c, f, *out.shape[2:]) * out.shape[3],))
    w_mat = weight.transpose(0, 2, 3, 1).reshape(f, -1)
    run_conv_bands(conv_bands(xp, out, cols, k), w_mat, None if bias is None else bias[:, None], relu=False)
    return out


def conv_backward_offset(
    xp: np.ndarray,
    weight: np.ndarray,
    grad_output: np.ndarray,
    need_input_grad: bool = True,
    pad: int = 0,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Backward pass of :func:`conv_forward_offset` from the padded input alone.

    Returns ``(grad_input, grad_weight, grad_bias)``, the first for the input
    without the ``pad`` zero pixels ``xp`` carries on each side — gradients of
    padding nobody reads are not computed.

    ``dW`` gathers nothing.  Read over full padded rows, the input that kernel
    offset ``(i, j)`` multiplies is, in every channel, one contiguous run of
    ``xp``'s plane starting ``i·Wp + j`` elements in; the output gradient is
    copied once into the shared scratch at the same row pitch (``(N, F, oh,
    Wp)``, zeros in the ``k−1`` trailing columns, where a run crosses the
    border), and one batched ``matmul`` of its ``(F, run)`` matrices against
    the ``(N, k, k, run, C)`` strided view of ``xp`` yields the k² ``F×C``
    products per image — every slice a BLAS matrix with leading dimension
    ``Hp·Wp``, nothing unrolled, no output passes.  ``dB`` is a plain sum of
    the pitched gradient.

    ``dX`` is a transposed convolution — :func:`conv_forward_offset` of the
    ``(k−1)``-padded output gradient with flipped, channel-swapped filters.
    With ``need_input_grad=False`` it is skipped entirely and ``None`` is
    returned in its place (first-layer optimisation).
    """
    f, c, k, _ = weight.shape
    n, _, oh, ow = grad_output.shape
    wp, item = xp.shape[3], xp.itemsize
    if xp.strides[2:] != (wp * item, item):
        xp = np.ascontiguousarray(xp)  # runs need whole planes; batch and channel strides are free

    g = scratch_buffer((n, f, oh, wp))
    g[..., :ow] = grad_output
    g[..., ow:] = 0.0
    run = (oh - 1) * wp + ow
    # runs[img, i, j, t, ch] = xp[img, ch].ravel()[i*Wp + j + t]
    runs = np.lib.stride_tricks.as_strided(
        xp, (n, k, k, run, c), (xp.strides[0], wp * item, item, item, xp.strides[1]), writeable=False
    )
    dw = np.matmul(g.reshape(n, 1, 1, f, oh * wp)[..., :run], runs).sum(axis=0).transpose(2, 3, 0, 1)
    db = g.sum(axis=(0, 2, 3))
    if not need_input_grad:
        return None, dw, db

    # dX correlates the (k-1)-padded output gradient with the spatially
    # flipped, channel-swapped filters; the border of xp that is padding is
    # left out of the contraction where the kernel reaches it, cropped beyond.
    w_flip = weight.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]
    skip = min(pad, k - 1)
    dx = conv_forward_offset(pad_input(grad_output, k - 1 - skip), w_flip, None)
    border = pad - skip
    return (dx[:, :, border:-border, border:-border] if border else dx), dw, db
