"""Train the same classifier twice: all products local, then every
product shipped blinded to loopback workers and verified on return.

The offloading executor slots into the training loop behind the same
interface as the local one, so the two runs visit identical batches and
must land on the same weights.  The stats afterwards show what the
blinding cost: every product offloaded, each weight shard blinded once
per batch, the batch both row-split shards share blinded once for the
two of them, and the backward pass reusing the stored pair instead of
re-shipping operands.
"""
import numpy as np

from blindtrain.data import gen_blobs
from blindtrain.master import WorkerPool, run_training
from blindtrain.nn import LocalExecutor, Network, TrainConfig, accuracy, train
from blindtrain.worker import spawn_local_workers

dataset = gen_blobs(n_per_class=150, n_classes=2, dim=2, separation=9.0, seed=3)
print(f"dataset: {dataset.n_samples} samples, {dataset.n_classes} classes\n")

local_net = Network.from_dims([2, 16, 16, 2])
local_net.init_weights(7)
train(local_net, dataset, TrainConfig(0.05, 32, 10, seed=7), LocalExecutor())
print(f"local training done, accuracy {accuracy(local_net, dataset):.4f}")

remote_net = Network.from_dims([2, 16, 16, 2])
remote_net.init_weights(7)
with spawn_local_workers(2) as addresses:
    with WorkerPool.connect(addresses, n_layers=len(remote_net.linears)) as pool:
        remote_net, stats, report = run_training(
            remote_net, dataset, pool,
            learning_rate=0.05, batch_size=32, epochs=10, seed=7)
print(f"offloaded training done, accuracy {report['accuracy']:.4f}")

worst = max(
    float(np.max(np.abs(a.W - b.W)))
    for a, b in zip(local_net.linears, remote_net.linears)
)
print(f"max weight difference between the two runs: {worst:.3e}\n")

print("offload accounting:")
for key, value in stats.as_dict().items():
    print(f"  {key:-<28} {value}")
print(f"  probe rounds per product     {report['verification_rounds_per_product']}")

batches = len(report["epochs"]) * 10  # 10 batches per epoch at 300/32
print(f"\nblinded matrices per layer per batch: {stats.matrices_encrypted / (3 * batches):.1f} "
      f"(forward: 2 weight shards + 1 batch they share; backward: 2 deltas)")
