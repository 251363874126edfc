"""Verified neural-network training over blinded matrix products.

The coordinator (master) keeps weights and data in plaintext, blinds
every heavy matrix product with per-epoch coefficient/permutation keys,
offloads the blinded operands to untrusted workers, verifies each
returned product with randomized probes, and reuses the operands a
worker already holds to cut the backward pass to one fresh blinded
matrix per layer shard.
"""

from .data import Dataset, gen_blobs, load_csv
from .master import (
    EncryptedExecutor,
    OffloadStats,
    WorkerPool,
    run_inference,
    run_training,
)
from .nn import LocalExecutor, Network, TrainConfig, train
from .obfuscate import (
    IntegrityConfig,
    IntegrityFailure,
    KeySpaceConfig,
    SecretKey,
    brute_force_bound,
    dec,
    dec_only,
    enc_left,
    enc_pair,
    enc_right,
    kgen,
    key_shift,
    min_rounds,
)
from .worker import WorkerMode, WorkerServer, spawn_local_workers

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "gen_blobs",
    "load_csv",
    "EncryptedExecutor",
    "OffloadStats",
    "WorkerPool",
    "run_inference",
    "run_training",
    "LocalExecutor",
    "Network",
    "TrainConfig",
    "train",
    "IntegrityConfig",
    "IntegrityFailure",
    "KeySpaceConfig",
    "SecretKey",
    "brute_force_bound",
    "dec",
    "dec_only",
    "enc_left",
    "enc_pair",
    "enc_right",
    "kgen",
    "key_shift",
    "min_rounds",
    "WorkerMode",
    "WorkerServer",
    "spawn_local_workers",
    "__version__",
]
