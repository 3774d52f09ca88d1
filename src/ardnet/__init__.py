"""Architecture search and network compression via sparsity-driven
variance estimation.

Modules:
  nn          layer stacks: forward/backward, energies, im2col
  curvature   recursive weight-Hessian diagonals
  updates     variance-chain algebra, grouping patterns, solver configs
  supergraph  candidate DAGs, gating, pruning
  data        IDX ingestion and synthetic search tasks
  engine      search/compression/retrain loops
  models      reference classifier builders
  exports     architecture record (export, check, rebuild), masks, DOT, CSV
  cli         command-line interface
"""

from .updates import ENTROPY_PRUNE_THRESHOLD, SearchConfig

__version__ = "0.1.0"

__all__ = ["ENTROPY_PRUNE_THRESHOLD", "SearchConfig", "__version__"]
