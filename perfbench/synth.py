"""Seeded synthetic data shaped like the Handwritten digits set.

Handwritten has 2000 samples of 10 classes seen through 5 views with feature
dimensions 76/216/64/240/47. The real files are not shipped with the repo, so
the benchmark draws Gaussian clusters of that shape. The noise is set so the
clustering is good but not perfect (accuracy clearly below 1), and it differs
per view so the adaptive view weights have something to do.
"""

from __future__ import annotations

import numpy as np

HANDWRITTEN_DIMS = (76, 216, 64, 240, 47)
# noise of each view, as a multiple of that view's smallest centroid gap
VIEW_NOISE = (2.2, 2.6, 2.0, 2.8, 2.4)


def handwritten_like(n: int, n_clusters: int, seed: int, noise: float = 1.0):
    """Return (views, labels): views[v] is dims[v] x n, labels are 0..c-1.

    Classes are balanced and shuffled. Each view has its own centroids,
    rescaled so the smallest gap between two of them is 1; the noise per
    coordinate is chosen so its expected norm is noise * VIEW_NOISE[v] times
    that gap.
    The centroids are the same for every seed, like the classes of one real
    dataset, so that the difficulty, and with it the solver's work, does not
    swing from seed to seed; the seed draws the labels and the noise.
    """
    geometry = np.random.default_rng(0)
    rng = np.random.default_rng(seed)
    labels = rng.permutation(np.arange(n) % n_clusters).astype(np.int64)
    views = []
    for m, view_noise in zip(HANDWRITTEN_DIMS, VIEW_NOISE):
        centroids = geometry.normal(size=(n_clusters, m))
        diff = centroids[:, None, :] - centroids[None, :, :]
        gaps = np.linalg.norm(diff, axis=2)[np.triu_indices(n_clusters, 1)]
        centroids /= gaps.min()
        sigma = noise * view_noise / np.sqrt(m)
        points = centroids[labels] + sigma * rng.normal(size=(n, m))
        views.append(np.ascontiguousarray(points.T))
    return views, labels
