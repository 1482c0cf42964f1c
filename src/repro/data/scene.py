"""Full synthetic Sentinel-2 scene synthesis.

A scene is built in three steps, mirroring the physical layering of the real
imagery:

1. an ice-field class map (thick ice / thin ice / open water) derived from a
   fractal noise field thresholded at the requested class fractions — this
   produces large coherent floes, leads and open-water areas with sharp
   boundaries;
2. clean surface radiometry rendered from the class map
   (:mod:`repro.data.radiometry`);
3. smooth thin-cloud and shadow veils blended on top
   (:mod:`repro.data.clouds`).

The generator keeps the exact class map and veil fields, which play the role
of the paper's manual labels and visually assessed cloud coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..classes import SeaIceClass
from .clouds import CloudShadowField, generate_cloud_shadow_pair
from .noise import fractal_noise, spectral_noise
from .radiometry import (
    CLOUD_CONTAMINANT_RGB,
    SHADOW_CONTAMINANT_RGB,
    mix_contaminant,
    render_class_map,
)

__all__ = ["SceneSpec", "Scene", "synthesize_scene", "synthesize_scenes"]

#: Spatial scale of the ice floes: the spectral slope of the field the class map is cut from.
FLOE_BETA = 3.0


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of one synthetic Sentinel-2 scene.

    The defaults correspond to a typical Antarctic Ross Sea summer scene:
    mostly consolidated pack ice with leads of young ice and some open
    water, and a moderate chance of thin-cloud banks.
    """

    height: int = 512
    width: int = 512
    #: Target area fractions of (thick ice, thin ice, open water); they are
    #: normalised if they do not already sum to one.
    class_fractions: tuple[float, float, float] = (0.55, 0.30, 0.15)
    #: Fraction of the scene covered by the thin-cloud bank (0 disables clouds).
    cloud_coverage: float = 0.25
    #: Peak opacity of the thin-cloud veil.
    cloud_max_opacity: float = 0.55
    #: Peak opacity of the shadow veil.
    shadow_max_opacity: float = 0.5
    #: Random seed for full reproducibility of the scene.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.height < 8 or self.width < 8:
            raise ValueError("scene must be at least 8x8 pixels")
        if any(f < 0 for f in self.class_fractions) or sum(self.class_fractions) <= 0:
            raise ValueError("class fractions must be non-negative and not all zero")
        if not 0.0 <= self.cloud_coverage <= 1.0:
            raise ValueError("cloud_coverage must be in [0, 1]")

    @property
    def normalized_fractions(self) -> tuple[float, float, float]:
        total = sum(self.class_fractions)
        return tuple(f / total for f in self.class_fractions)  # type: ignore[return-value]


@dataclass
class Scene:
    """One synthesised scene with every intermediate product kept for scoring."""

    spec: SceneSpec
    rgb: np.ndarray  #: observed RGB image with clouds and shadows, uint8
    clean_rgb: np.ndarray  #: cloud/shadow-free RGB image, uint8
    class_map: np.ndarray  #: ground-truth per-pixel classes, uint8
    veil: CloudShadowField = field(repr=False)  #: cloud/shadow opacity fields

    @property
    def cloud_shadow_fraction(self) -> float:
        """Fraction of pixels affected by clouds or shadows (Table V split key)."""
        return self.veil.affected_fraction

    @property
    def shape(self) -> tuple[int, int]:
        return self.class_map.shape


def _class_map_from_field(field_values: np.ndarray, fractions: tuple[float, float, float]) -> np.ndarray:
    """Turn a continuous field into a class map with the requested area fractions.

    The brightest quantile becomes thick ice, the middle band thin ice and
    the darkest quantile open water, so class regions inherit the field's
    spatial coherence.
    """
    thick_frac, thin_frac, _water_frac = fractions
    hi_cut = np.quantile(field_values, 1.0 - thick_frac)
    lo_cut = np.quantile(field_values, 1.0 - thick_frac - thin_frac)
    class_map = np.full(field_values.shape, int(SeaIceClass.OPEN_WATER), dtype=np.uint8)
    class_map[field_values >= lo_cut] = int(SeaIceClass.THIN_ICE)
    class_map[field_values >= hi_cut] = int(SeaIceClass.THICK_ICE)
    return class_map


def synthesize_scene(spec: SceneSpec) -> Scene:
    """Generate one scene from its spec (deterministic given ``spec.seed``)."""
    rng = np.random.default_rng(spec.seed)
    shape = (spec.height, spec.width)

    floe_field = spectral_noise(shape, beta=FLOE_BETA, rng=rng)
    class_map = _class_map_from_field(floe_field, spec.normalized_fractions)

    texture = fractal_noise(shape, octaves=4, rng=rng)
    clean_rgb = render_class_map(class_map, texture=texture, rng=rng)

    veil = generate_cloud_shadow_pair(
        shape,
        cloud_coverage=spec.cloud_coverage,
        cloud_max_opacity=spec.cloud_max_opacity,
        shadow_max_opacity=spec.shadow_max_opacity,
        rng=rng,
    )
    observed = mix_contaminant(clean_rgb, veil.cloud_alpha, CLOUD_CONTAMINANT_RGB)
    observed = mix_contaminant(observed, veil.shadow_alpha, SHADOW_CONTAMINANT_RGB)

    return Scene(spec=spec, rgb=observed, clean_rgb=clean_rgb, class_map=class_map, veil=veil)


def synthesize_scenes(
    num_scenes: int,
    height: int = 512,
    width: int = 512,
    base_seed: int = 0,
    cloudy_fraction: float = 0.5,
) -> list[Scene]:
    """Generate a varied collection of scenes, as the paper's 66-scene archive.

    ``cloudy_fraction`` of the scenes get substantial cloud banks; the rest
    are essentially cloud-free (mirroring the paper's split of the archive
    into cloudy-shadowy and clear images).  Scene composition (ice vs water
    fractions) is also varied from scene to scene.
    """
    if num_scenes < 1:
        raise ValueError("num_scenes must be >= 1")
    rng = np.random.default_rng(base_seed)
    scenes = []
    for index in range(num_scenes):
        cloudy = rng.uniform() < cloudy_fraction
        thick = float(rng.uniform(0.35, 0.65))
        thin = float(rng.uniform(0.15, min(0.45, 0.95 - thick)))
        water = max(0.05, 1.0 - thick - thin)
        spec = SceneSpec(
            height=height,
            width=width,
            class_fractions=(thick, thin, water),
            cloud_coverage=float(rng.uniform(0.2, 0.5)) if cloudy else float(rng.uniform(0.0, 0.04)),
            cloud_max_opacity=float(rng.uniform(0.45, 0.68)) if cloudy else 0.25,
            shadow_max_opacity=float(rng.uniform(0.4, 0.62)) if cloudy else 0.2,
            seed=base_seed + 1000 + index,
        )
        scenes.append(synthesize_scene(spec))
    return scenes
