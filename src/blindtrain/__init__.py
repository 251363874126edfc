"""Verified neural-network training over blinded matrix products.

The coordinator (master) keeps weights and data in plaintext, blinds
every heavy matrix product with per-epoch coefficient/permutation keys,
offloads the blinded operands to untrusted workers, verifies each
returned product with randomized probes, and reuses the operands a
worker already holds to cut the backward pass to one fresh blinded
matrix per layer shard.

Importing the package loads none of its modules: callers import the
ones they use, as ``from blindtrain import master, nn``.
"""

__version__ = "0.1.0"
