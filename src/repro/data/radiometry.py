"""Synthetic Sentinel-2 radiometry for the three sea-ice surface types.

The real paper uses Level-1C RGB reflectance of the Ross Sea; we cannot
download it, so the generator assigns each class a reference RGB colour
(chosen so that its HSV *value* falls inside the paper's published
auto-labeling range for that class) plus realistic per-pixel texture.

Thin clouds and cloud shadows are modelled with the standard linear mixing
model used in optical remote sensing::

    observed = (1 - alpha) * surface + alpha * contaminant

where the contaminant is white scattering for clouds and dark ambient
skylight for shadows, and ``alpha`` is a smooth spatial field.  The same
model is inverted by :mod:`repro.cloudshadow`, which mirrors how the paper's
OpenCV filter removes thin veils by brightness/contrast restoration.
"""

from __future__ import annotations

import numpy as np

from ..classes import NUM_CLASSES, SeaIceClass

__all__ = [
    "CLASS_RGB_PROTOTYPES",
    "CLASS_TEXTURE_AMPLITUDE",
    "CLOUD_CONTAMINANT_RGB",
    "SHADOW_CONTAMINANT_RGB",
    "prototype_array",
    "render_class_map",
    "mix_contaminant",
]

#: Reference (clean, texture-free) RGB colour of each surface type.  The HSV
#: value of each prototype sits comfortably inside the corresponding paper
#: threshold band: thick ice V>=205, thin ice 31<=V<=204, open water V<=30.
CLASS_RGB_PROTOTYPES: dict[SeaIceClass, tuple[float, float, float]] = {
    SeaIceClass.THICK_ICE: (238.0, 242.0, 248.0),
    SeaIceClass.THIN_ICE: (126.0, 124.0, 120.0),
    SeaIceClass.OPEN_WATER: (2.0, 13.0, 22.0),
}

#: Peak-to-peak amplitude of the per-class surface texture (snow dunes,
#: frost flowers on young ice, waves/sun-glint on water).
CLASS_TEXTURE_AMPLITUDE: dict[SeaIceClass, float] = {
    SeaIceClass.THICK_ICE: 14.0,
    SeaIceClass.THIN_ICE: 18.0,
    SeaIceClass.OPEN_WATER: 4.0,
}

#: Thin clouds scatter white light into the sensor.
CLOUD_CONTAMINANT_RGB: tuple[float, float, float] = (255.0, 255.0, 255.0)

#: Shadowed surfaces are lit only by blue ambient skylight.
SHADOW_CONTAMINANT_RGB: tuple[float, float, float] = (24.0, 38.0, 88.0)

#: Standard deviation (DN) of the additive per-pixel sensor noise of a rendered scene.
PIXEL_NOISE = 2.0


def prototype_array() -> np.ndarray:
    """Return the class prototypes as a ``(NUM_CLASSES, 3)`` float array."""
    out = np.zeros((NUM_CLASSES, 3), dtype=np.float64)
    for cls, rgb in CLASS_RGB_PROTOTYPES.items():
        out[int(cls)] = rgb
    return out


def render_class_map(
    class_map: np.ndarray,
    texture: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Render an integer class map into a clean (cloud-free) RGB scene.

    Parameters
    ----------
    class_map:
        ``(H, W)`` integer map of :class:`~repro.classes.SeaIceClass` ids.
    texture:
        Optional ``(H, W)`` field in ``[0, 1]`` modulating the per-class
        texture (e.g. fractal noise); a flat 0.5 field is used when omitted.
    rng:
        Random generator for the small uncorrelated sensor noise
        (:data:`PIXEL_NOISE` DN).

    Returns
    -------
    numpy.ndarray
        ``(H, W, 3)`` uint8 RGB image.
    """
    cmap = np.asarray(class_map)
    if cmap.ndim != 2:
        raise ValueError(f"expected 2-D class map, got shape {cmap.shape}")
    if cmap.min() < 0 or cmap.max() >= NUM_CLASSES:
        raise ValueError("class map contains unknown class ids")
    rng = rng or np.random.default_rng()

    if texture is None:
        texture = np.full(cmap.shape, 0.5)
    texture = np.asarray(texture, dtype=np.float64)
    if texture.shape != cmap.shape:
        raise ValueError("texture field must match the class map shape")

    prototypes = prototype_array()
    amplitude = np.zeros(NUM_CLASSES)
    for cls, amp in CLASS_TEXTURE_AMPLITUDE.items():
        amplitude[int(cls)] = amp

    base = prototypes[cmap.astype(np.intp)]  # (H, W, 3)
    amp = amplitude[cmap.astype(np.intp)][..., None]
    # Texture is a shared luminance modulation: centred on 0, scaled per class.
    modulation = (texture - 0.5)[..., None] * amp
    noise = rng.normal(0.0, PIXEL_NOISE, size=base.shape)
    rgb = base + modulation + noise
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)


def mix_contaminant(
    rgb: np.ndarray,
    alpha: np.ndarray,
    contaminant: tuple[float, float, float],
) -> np.ndarray:
    """Blend ``rgb`` toward ``contaminant`` with per-pixel opacity ``alpha``.

    ``observed = (1 - alpha) * rgb + alpha * contaminant``; used for both
    thin clouds (white contaminant) and shadows (dark blue contaminant).
    """
    img = np.asarray(rgb, dtype=np.float64)
    a = np.asarray(alpha, dtype=np.float64)
    if a.shape != img.shape[:2]:
        raise ValueError(f"alpha shape {a.shape} does not match image {img.shape[:2]}")
    if (a < 0).any() or (a > 1).any():
        raise ValueError("alpha must lie in [0, 1]")
    c = np.asarray(contaminant, dtype=np.float64).reshape(1, 1, 3)
    out = (1.0 - a[..., None]) * img + a[..., None] * c
    return np.clip(np.round(out), 0, 255).astype(np.uint8)
