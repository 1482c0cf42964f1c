"""Thin-cloud and cloud-shadow filtering (paper §III-A).

:class:`CloudShadowFilter` estimates each pixel's veil opacity under a
linear mixing model and inverts it (:mod:`repro.cloudshadow.removal`).
"""

from .removal import CloudShadowFilter

__all__ = ["CloudShadowFilter"]
