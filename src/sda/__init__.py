"""snoRNA-disease association prediction.

Pipeline: similarity-based pair features (functional, semantic, and
interaction-profile kernels, meshed), cluster-balanced negative sampling,
gradient-boosted-tree leaf encodings, and an RBF-kernel SVM trained by
sequential minimal optimization, evaluated with stratified cross-validation.
The ``sda`` command (``sda.cli``) runs it. The package root holds no names:
import from the modules, so that importing one loads only what it needs.
"""
