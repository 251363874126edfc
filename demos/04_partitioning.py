"""Two ways to split one layer's work across workers.

Row split ("tensor"): each worker gets a horizontal slice of the weight
and the whole batch; partial outputs stack by rows.  Batch split
("data"): each worker gets the whole weight and a slice of the batch;
partial outputs stack by columns.  Either way the shards' keys share the
slots of the operand every shard gets whole (the batch under a row
split, the weight under a batch split), so it is blinded once and every
worker is sent the same bytes; the slot of the dim the split cuts is
each shard's own.  Two workers who pool what they see thus hold the
shared operand under one key.  A layer can also opt out entirely ("master"): its layout has
no shards, and the executor multiplies it at the coordinator.  The
executor reads each layer's policy from the network and cuts an
offloaded layer into one shard per worker, clipped to the dim it cuts.
"""
import numpy as np

from blindtrain.master import EncryptedExecutor, WorkerPool, shard_layout
from blindtrain.nn import Network
from blindtrain.tensor import make_rng
from blindtrain.worker import spawn_local_workers

rng = make_rng(4)

net = Network.from_dims([6, 8, 3, 2], policies=["data", "tensor", "master"])
net.init_weights(4)

N_WORKERS, BATCH = 4, 10


def shard_count(lin):
    """How many shards the executor cuts this layer into for one batch;
    none for a layer kept local."""
    return len(shard_layout(lin.policy, N_WORKERS, lin.out_dim, lin.in_dim, BATCH))


print("partition plan with 4 workers:")
for lin in net.linears:
    print(f"  layer {lin.layer_id} ({lin.out_dim}x{lin.in_dim})  "
          f"policy={lin.policy:<7} shards={shard_count(lin)}")
print("  (the row-split 3-row layer is clipped to 3 shards; the local layer takes none)\n")

x = rng.standard_normal((6, BATCH))
with spawn_local_workers(N_WORKERS) as addresses:
    with WorkerPool.connect(addresses, n_layers=len(net.linears)) as pool:
        ex = EncryptedExecutor(pool, net, rounds=6, seed=4)
        inputs = {}
        cur = x
        for lin in net.linears:
            inputs[lin.layer_id] = cur
            z = ex.multiply_forward(lin.layer_id, lin.W, cur)
            err = np.max(np.abs(z - lin.W @ cur))
            where = f"over {shard_count(lin)} shard(s)" if shard_count(lin) else "locally"
            print(f"layer {lin.layer_id} forward {where}: max error vs local {err:.3e}")
            cur = np.maximum(z, 0.0)

        # the backward products, T1 = delta @ X^T in W's layout and
        # T2 = W^T @ delta in X's: row-split shards stack T1 by rows and
        # sum T2, batch-split shards sum T1 and stack T2 by columns
        print()
        for lin in reversed(net.linears):
            delta = rng.standard_normal((lin.out_dim, BATCH))
            t1, t2 = ex.multiply_backward(lin.layer_id, delta)
            inp = inputs[lin.layer_id]
            err1 = np.max(np.abs(t1 - delta @ inp.T))
            err2 = np.max(np.abs(t2 - lin.W.T @ delta))
            print(f"layer {lin.layer_id} backward: T1 {t1.shape} err {err1:.3e}, "
                  f"T2 {t2.shape} err {err2:.3e}")

print("\noffload counters:", ex.stats.as_dict())
