"""Quantify the bias and efficiency loss that geo-masking induces in
distance-based binary logit models.

The package simulates populations making a distance-driven binary choice,
perturbs their coordinates with uniform or Gaussian geo-masking (or collapses
them to administrative-cell centroids), refits the model across Monte Carlo
replications, and reports the attenuation of the distance coefficient plus
the analytic Fisher-information efficiency loss.
"""

__version__ = "0.1.0"
