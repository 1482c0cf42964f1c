"""Tables IV, V and Figure 13 — U-Net-Man vs U-Net-Auto classification accuracy.

Paper results (Ross Sea summer archive):

* Table IV — original images: 91.39 % (U-Net-Man) vs 90.18 % (U-Net-Auto);
  thin-cloud/shadow-filtered images: 98.40 % vs 98.97 %.
* Table V — the filtered-vs-original gap widens on the >10 % cloud-cover
  subset (88.74/79.91 % → 98.91/99.28 %) and narrows on the <10 % subset.
* Figure 13 — per-class confusion matrices: ≈98 % diagonals on filtered data;
  on cloudy originals thick ice is confused with thin ice (shadows) and
  thin ice / open water with brighter classes (clouds).

The shared ``accuracy_experiment`` fixture trains both models on a synthetic
archive; the three tests below print and sanity-check each artefact.
"""

from __future__ import annotations

import pytest

from helpers import confusion_matrices
from conftest import print_paper_vs_measured

PAPER_TABLE4 = [
    {"dataset": "Original S2 images", "unet_man_accuracy_pct": 91.39, "unet_auto_accuracy_pct": 90.18},
    {
        "dataset": "S2 images with thin cloud and shadow filtered",
        "unet_man_accuracy_pct": 98.40,
        "unet_auto_accuracy_pct": 98.97,
    },
]

PAPER_TABLE5 = [
    {"dataset": "More than ~10% cloud and shadow cover", "images": "original images", "unet_man_accuracy_pct": 88.74, "unet_auto_accuracy_pct": 79.91},
    {"dataset": "More than ~10% cloud and shadow cover", "images": "filtered images", "unet_man_accuracy_pct": 98.91, "unet_auto_accuracy_pct": 99.28},
    {"dataset": "Less than ~10% cloud and shadow cover", "images": "original images", "unet_man_accuracy_pct": 92.27, "unet_auto_accuracy_pct": 93.60},
    {"dataset": "Less than ~10% cloud and shadow cover", "images": "filtered images", "unet_man_accuracy_pct": 98.23, "unet_auto_accuracy_pct": 98.87},
]


@pytest.mark.benchmark(group="table4")
def test_table4_overall_accuracy(benchmark, accuracy_experiment):
    """Table IV: overall accuracy of both models on original vs filtered validation tiles."""
    rows = benchmark.pedantic(accuracy_experiment.table4_rows, rounds=1, iterations=1)
    print_paper_vs_measured("Table IV: U-Net sea-ice classification accuracy", PAPER_TABLE4, rows)

    original, filtered = rows[0], rows[1]
    # Shape: filtering improves both models; the two models stay close on filtered data.
    assert filtered["unet_man_accuracy_pct"] > original["unet_man_accuracy_pct"]
    assert filtered["unet_auto_accuracy_pct"] > original["unet_auto_accuracy_pct"]
    assert filtered["unet_auto_accuracy_pct"] > 90.0
    assert abs(filtered["unet_auto_accuracy_pct"] - filtered["unet_man_accuracy_pct"]) < 8.0


@pytest.mark.benchmark(group="table5")
def test_table5_cloud_coverage_split(benchmark, accuracy_experiment):
    """Table V: accuracy split by cloud/shadow coverage of the validation tiles."""
    rows = benchmark.pedantic(accuracy_experiment.table5_rows, rounds=1, iterations=1)
    print_paper_vs_measured("Table V: accuracy vs cloud/shadow coverage", PAPER_TABLE5, rows)

    by_key = {(r["dataset"].startswith("More"), r["images"]): r for r in rows}
    cloudy_orig = by_key.get((True, "original images"))
    cloudy_filt = by_key.get((True, "filtered images"))
    clear_orig = by_key.get((False, "original images"))
    if cloudy_orig and cloudy_filt:
        # The filter's benefit is largest on heavily clouded tiles (the paper's ~10-20% jump).
        assert cloudy_filt["unet_auto_accuracy_pct"] > cloudy_orig["unet_auto_accuracy_pct"] + 3.0
    if cloudy_orig and clear_orig:
        assert clear_orig["unet_auto_accuracy_pct"] > cloudy_orig["unet_auto_accuracy_pct"]


@pytest.mark.benchmark(group="fig13")
def test_fig13_confusion_matrices(benchmark, accuracy_experiment):
    """Figure 13: per-class confusion matrices of both models on original and filtered data."""
    matrices = benchmark.pedantic(lambda: confusion_matrices(accuracy_experiment), rounds=1, iterations=1)
    class_names = ["thick_ice", "thin_ice", "open_water"]
    for name, matrix in matrices.items():
        print(f"\n== Figure 13 confusion matrix ({name}), rows = truth, % ==")
        print("            " + "  ".join(f"{c:>10s}" for c in class_names))
        for cls, row in zip(class_names, matrix):
            print(f"  {cls:>10s} " + "  ".join(f"{value:10.2f}" for value in row))

    # Shape: filtered confusion matrices are more diagonal than the original ones.
    for model in ("man", "auto"):
        diag_filtered = matrices[f"{model}_filtered"].diagonal().mean()
        diag_original = matrices[f"{model}_original"].diagonal().mean()
        assert diag_filtered >= diag_original - 1.0
        assert diag_filtered > 85.0
