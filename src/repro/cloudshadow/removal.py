"""Thin-cloud and shadow filtering: veil estimation, then its inversion (paper §III-A, Figure 5).

Thin clouds and cloud shadows act, to first order, as a linear mixture of
the true surface colour with a contaminant colour (white scattered light
for clouds, dark blue ambient skylight for shadows)::

    observed = (1 - alpha) * surface + alpha * contaminant

This is the standard linear mixing model of optical remote sensing, and it
is also exactly how the synthetic data substrate composes its veils, so the
filter genuinely inverts the physics rather than pattern-matching the
generator's output.  The surface colour is unknown, but over polar sea ice
it is well approximated by one of a small set of class reference colours
(the same observation that makes the paper's HSV auto-labeling work).  The
filter therefore

1. hypothesises every (surface class, contaminant) pair for every pixel,
2. solves the per-pixel least-squares opacity ``alpha`` for each hypothesis,
3. keeps the hypothesis with the smallest residual (with a small penalty on
   ``alpha`` so clean pixels are preferred when the evidence is ambiguous),
4. smooths the opacity field (veils are spatially smooth), and
5. inverts the mixing model to recover the surface colour.

The kernel is planar and float32.  The image is split once into three
contiguous float32 ``(H, W)`` planes and the K x 2 hypotheses are visited in a
Python loop, each a fixed sequence of whole-plane ufuncs writing into per-call
scratch (``out=``).  No per-pixel hypothesis array is built: one running best
score per contaminant, with that hypothesis's opacity, is all that outlives
the loop.  The loop runs over bands of rows whose planes fit in cache.  The
passes are bound by memory traffic, and float32 halves it:
with 8-bit pixels and integer calibration colours every difference, product
and sum of the projection is an integer below 2**24, exact in float32 as in
float64.  The floating-point operations and
their order are those of the textbook broadcast formulation, which the tests
keep as the oracle (run in float32) and require ``array_equal`` against.  (That
holds wherever the projection's products are exact -- 8-bit pixels, colours on
a binary grid, the defaults among them; elsewhere the oracle's ``einsum`` fuses
multiply-adds on CPUs that can, and the two differ in the last bit of
``alpha``.)  Against the same oracle run in float64 the class maps of the
auto-labeller agree exactly; a filtered pixel-channel whose value sits on a
rounding boundary can move by 1 DN.

In a deployment on real Sentinel-2 data the reference colours would be
calibrated per region/season exactly as the paper calibrates its HSV
thresholds "through a process of trial and error".
"""

from __future__ import annotations

import numpy as np

from ..data.radiometry import CLOUD_CONTAMINANT_RGB, SHADOW_CONTAMINANT_RGB, prototype_array
from ..imops import channel_planes, gaussian_blur

__all__ = ["CloudShadowFilter"]

#: Pixels per band of the hypothesis loop: its ~13 float32 planes of a 32K-pixel band (1.7 MB) fit a
#: 2 MB L2 cache, a whole 256 x 256 tile's (3.4 MB) do not.  Any band size gives the same bits.
_BAND_PIXELS = 1 << 15


#: The filter's calibration, one setting each, as the paper's thresholds are.  The surfaces every pixel is
#: hypothesised to be, as ``(K, 3)`` reference RGB colours: the thick-ice / thin-ice / open-water prototypes.
SURFACE_PROTOTYPES = prototype_array()
#: Penalty (in RGB distance units) added per unit of opacity when scoring hypotheses; it biases ambiguous
#: pixels toward "clean".
ALPHA_PENALTY = 6.0
#: Upper bound on recoverable opacity; beyond it the veil is treated as opaque (the paper explicitly does not
#: handle thick clouds).
MAX_ALPHA = 0.75
#: Opacities below this are treated as zero.  The least-squares fit has one extra degree of freedom per
#: hypothesis, so it can always absorb a little sensor noise into a tiny spurious opacity; the floor keeps
#: genuinely clean pixels untouched.
MIN_ALPHA = 0.04
#: Gaussian kernel size (odd, >= 3) that smooths the opacity fields: veils are spatially smooth.
SMOOTH_KSIZE = 5
#: Gaussian kernel size (odd, >= 3) that pools hypothesis scores over a neighbourhood before the winner is
#: chosen.  Both the surface classes and the veils are regionally coherent, so pooled evidence resolves pixels
#: where two (surface, contaminant) explanations are nearly collinear in RGB space (e.g. cloud-over-water
#: versus shadow-over-thin-ice).
SCORE_SMOOTH_KSIZE = 11


class CloudShadowFilter:
    """The paper's thin-cloud and shadow filter for RGB sea-ice imagery.

    ``filter_image`` filters one ``(H, W, 3)`` tile or scene, ``filter_planes`` returns the same
    pixels as float32 planes (what the labeler reads) and ``apply_batch`` filters a tile stack.

    The calibration is this module's constants, with the contaminant colours
    :data:`~repro.data.radiometry.CLOUD_CONTAMINANT_RGB` and ``SHADOW_CONTAMINANT_RGB``.  What depends
    on it alone is built once per filter, as float32, and every plane the filter computes is float32.
    """

    def __init__(self) -> None:
        self.surface_prototypes = np.asarray(SURFACE_PROTOTYPES, dtype=np.float32)
        # direction[k, m] = C_m - J_k and its squared norm.
        contaminants = np.array([CLOUD_CONTAMINANT_RGB, SHADOW_CONTAMINANT_RGB], dtype=np.float32)  # (2, 3)
        self._direction = contaminants[None, :, :] - self.surface_prototypes[:, None, :]  # (K, 2, 3)
        self._dir_norm_sq = np.maximum(np.sum(self._direction * self._direction, axis=-1), np.float32(1e-9))  # (K, 2)

    # ------------------------------------------------------------------ #
    # Veil estimation
    # ------------------------------------------------------------------ #
    def _best_hypotheses(self, planes: np.ndarray, best: np.ndarray, best_alpha: np.ndarray, scratch: np.ndarray, below: np.ndarray) -> None:
        """Per contaminant m, the best score over the surfaces k into ``best[m]`` and the opacity of the first
        hypothesis that attains it into ``best_alpha[m]``.  Pixel by pixel, so a band of rows may go alone;
        ``scratch`` is six float32 planes and ``below`` one boolean plane of the band's shape."""
        diff, (alpha, score, tmp) = scratch[:3], scratch[3:]
        for k in range(self.surface_prototypes.shape[0]):
            np.subtract(planes, self.surface_prototypes[k][:, None, None], out=diff)  # I - J_k
            for m in range(2):
                d, a, s = self._direction[k, m], alpha if k else best_alpha[m], score if k else best[m]
                # alpha = <I - J_k, C_m - J_k> / ||C_m - J_k||^2, clipped.
                np.multiply(diff[0], d[0], out=a)
                for c in (1, 2):
                    np.add(a, np.multiply(diff[c], d[c], out=tmp), out=a)
                np.divide(a, self._dir_norm_sq[k, m], out=a)
                np.clip(a, 0.0, MAX_ALPHA, out=a)
                # score = || (I - J_k) - alpha * (C_m - J_k) || + penalty * alpha
                for c in range(3):
                    np.subtract(diff[c], np.multiply(a, d[c], out=tmp), out=tmp)
                    if c == 0:
                        np.square(tmp, out=s)
                    else:
                        np.add(s, np.square(tmp, out=tmp), out=s)
                np.sqrt(s, out=s)
                np.add(s, np.multiply(a, ALPHA_PENALTY, out=tmp), out=s)
                if k:  # strict "<" keeps the first minimum, as argmin over k would
                    np.copyto(best_alpha[m], a, where=np.less(s, best[m], out=below))
                    np.minimum(best[m], s, out=best[m])

    def _estimate(self, planes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(cloud_alpha, shadow_alpha)``: per-pixel veil opacities of an image split into planes (read, not written)."""
        _, h, w = planes.shape
        # Kept per contaminant m: the best score over the surfaces k and the opacity of the first
        # hypothesis that attains it.  The rest is per-call scratch one band of rows deep (see
        # _BAND_PIXELS), so the filter keeps no state between calls.
        best = np.empty((2, h, w), dtype=np.float32)
        best_alpha = np.empty((2, h, w), dtype=np.float32)
        rows = max(1, min(h, _BAND_PIXELS // max(w, 1)))
        scratch = np.empty((6, rows, w), dtype=np.float32)
        below = np.empty((rows, w), dtype=bool)
        for top in range(0, h, rows):
            band, n = slice(top, top + rows), min(rows, h - top)
            self._best_hypotheses(planes[:, band], best[:, band], best_alpha[:, band], scratch[:, :n], below[:n])
        del scratch, below

        # Decide the contaminant type (cloud vs shadow) from spatially pooled
        # evidence: veils are regionally coherent, so the per-pixel best-class
        # score of each contaminant is smoothed before the comparison.  The
        # opacity itself is the per-pixel winner's under that contaminant.
        cloud_score, shadow_score = best
        cloud_score = gaussian_blur(cloud_score, ksize=SCORE_SMOOTH_KSIZE)
        shadow_score = gaussian_blur(shadow_score, ksize=SCORE_SMOOTH_KSIZE)
        is_shadow = shadow_score < cloud_score  # ties go to cloud, as argmin over m would
        cloud_alpha, shadow_alpha = best_alpha
        np.copyto(cloud_alpha, 0.0, where=is_shadow)
        np.copyto(shadow_alpha, 0.0, where=np.logical_not(is_shadow, out=is_shadow))

        cloud_alpha = gaussian_blur(cloud_alpha, ksize=SMOOTH_KSIZE)
        shadow_alpha = gaussian_blur(shadow_alpha, ksize=SMOOTH_KSIZE)

        for veil in (cloud_alpha, shadow_alpha):
            np.clip(veil, 0.0, MAX_ALPHA, out=veil)
            # Suppress the tiny spurious opacities that the extra least-squares
            # degree of freedom extracts from sensor noise on clean pixels.
            np.copyto(veil, 0.0, where=np.less(veil, MIN_ALPHA, out=is_shadow))
        return cloud_alpha, shadow_alpha

    # ------------------------------------------------------------------ #
    # Veil inversion
    # ------------------------------------------------------------------ #
    def filter_planes(self, rgb: np.ndarray) -> np.ndarray:
        """The filtered image as float32 ``(3, H, W)`` planes of exact uint8 values (what the labeler reads)."""
        img = np.asarray(rgb)
        if img.ndim != 3 or img.shape[-1] != 3:
            raise ValueError(f"expected (H, W, 3) RGB image, got shape {img.shape}")
        planes = channel_planes(img)
        cloud_alpha, shadow_alpha = self._estimate(planes)

        # Invert the shadow veil first (it is composited on top of the cloud
        # veil by the atmosphere: the shadowed surface may itself be cloudy).
        # Both veils are within [0, MAX_ALPHA] already.
        keep, tmp = np.empty((2,) + planes.shape[1:], dtype=np.float32)
        for veil, color in ((shadow_alpha, SHADOW_CONTAMINANT_RGB), (cloud_alpha, CLOUD_CONTAMINANT_RGB)):
            np.maximum(np.subtract(1.0, veil, out=keep), 1.0 - MAX_ALPHA, out=keep)
            for c in range(3):
                np.subtract(planes[c], np.multiply(veil, float(color[c]), out=tmp), out=planes[c])
                np.divide(planes[c], keep, out=planes[c])

        return np.clip(np.round(planes, out=planes), 0, 255, out=planes)

    def filter_image(self, rgb: np.ndarray) -> np.ndarray:
        """Filter one ``(H, W, 3)`` image, returning the filtered uint8 image."""
        return np.moveaxis(self.filter_planes(rgb), 0, -1).astype(np.uint8, order="C")

    def apply_batch(self, tiles: np.ndarray) -> np.ndarray:
        """Filter a ``(N, H, W, 3)`` stack of tiles, returning the filtered uint8 stack."""
        stack = np.asarray(tiles)
        if stack.ndim != 4 or stack.shape[-1] != 3:
            raise ValueError(f"expected (N, H, W, 3) tile stack, got shape {stack.shape}")
        if not len(stack):
            return np.empty(stack.shape, dtype=np.uint8)
        return np.stack([self.filter_image(tile) for tile in stack])
