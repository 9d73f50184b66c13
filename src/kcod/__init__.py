"""Out-of-domain intent discovery at desk scale.

A numpy-only pipeline: labeled pre-training that keeps classes loose by
contrasting each sample against only its K nearest same-class neighbors,
then unlabeled clustering that contrasts dropout views while mining hard
negatives and filtering probable same-cluster pairs, plus the metrics to
judge the result. See README.md for the command-line interface; library
users import the submodules (``from kcod.cluster import cluster_train``).
"""

__version__ = "0.1.0"
