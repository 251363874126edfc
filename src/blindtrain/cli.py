"""Command line front end.

Subcommands:

    worker             serve blinded products on a TCP port
    train              distributed verified training from a JSON config
    baseline           same training loop, plain local products
    infer              predictions from a saved model
    min-k              probe count for a whole-run error budget
    verify-experiment  empirical detection rates for cheating workers
    mi-eval            privacy comparison table across schemes

Model files are JSON with weights as hex float literals, so save/load
round-trips bitwise.  The run config schema is documented in the README.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import master, nn, privacy
from .data import DataError, Dataset, gen_blobs, load_csv
from .obfuscate import (
    IntegrityConfig,
    IntegrityFailure,
    KeySpaceConfig,
    dec,
    enc_pair,
    kgen,
    min_rounds,
)
from .tensor import make_rng
from .worker import WorkerMode, apply_adversary, run_worker, spawn_local_workers

__all__ = ["main", "RunConfig", "save_model", "load_model"]


class ConfigError(ValueError):
    pass


# -- run configuration ----------------------------------------------------

_CONFIG_DEFAULTS = {
    "policies": None,
    "t": 0.01,
    "keyspace": 255,
    "executor": "offloaded",
    "pipelined": False,
    "naive_backward": False,
    "workers": None,
}


class RunConfig:
    """Validated view of a training config JSON (see README for the
    schema).  A missing key, or a value of the wrong type or out of
    range, raises KeyError, TypeError or ValueError here, and a
    ConfigError naming the file from load().  Validation happens before
    any socket is opened."""

    def __init__(self, raw: dict):
        known = set(_CONFIG_DEFAULTS) | {
            "layer_dims", "learning_rate", "batch_size", "epochs", "seed", "data",
        }
        for key in raw:
            if key not in known:
                raise ConfigError(f"config has unknown key {key!r}")
        self.layer_dims = list(raw["layer_dims"])
        if len(self.layer_dims) < 2 or any(
            not isinstance(d, int) or d < 1 for d in self.layer_dims
        ):
            raise ConfigError("layer_dims must be a list of >= 2 positive integers")
        self.learning_rate = float(raw["learning_rate"])
        self.batch_size = int(raw["batch_size"])
        self.epochs = int(raw["epochs"])
        self.seed = int(raw["seed"])
        merged = dict(_CONFIG_DEFAULTS)
        merged.update({k: raw[k] for k in _CONFIG_DEFAULTS if k in raw})
        self.policies = merged["policies"]
        self.t = float(merged["t"])
        self.keyspace = int(merged["keyspace"])
        # the objects these values go to check their ranges
        nn.Network.from_dims(self.layer_dims, self.policies)
        nn.TrainConfig(self.learning_rate, self.batch_size, self.epochs, self.seed)
        IntegrityConfig(self.t)
        KeySpaceConfig(self.keyspace)
        self.executor = merged["executor"]
        if self.executor not in ("offloaded", "local"):
            raise ConfigError("executor must be 'offloaded' or 'local'")
        self.pipelined = bool(merged["pipelined"])
        self.naive_backward = bool(merged["naive_backward"])
        workers = merged["workers"]
        self.workers = None if workers is None else _parse_addresses(",".join(workers))
        self.data = raw["data"]
        if not isinstance(self.data, dict) or not ("csv" in self.data or "blobs" in self.data):
            raise ConfigError("data must be {'csv': path} or {'blobs': {...}}")
        if "csv" in self.data:
            if not isinstance(self.data["csv"], str):  # a number would open a file descriptor
                raise ConfigError("data's csv must be a path")
        else:
            blob = self.data["blobs"]
            self.blobs = dict(n_per_class=int(blob["n_per_class"]),
                              n_classes=int(blob["n_classes"]), dim=int(blob["dim"]),
                              separation=float(blob["separation"]), seed=int(blob["seed"]))

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        try:
            return cls(raw)
        except KeyError as exc:
            raise ConfigError(f"{path}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:  # a value of the wrong type or range
            raise ConfigError(f"{path}: {exc}") from exc

    def build_network(self) -> nn.Network:
        net = nn.Network.from_dims(self.layer_dims, self.policies)
        net.init_weights(self.seed)
        return net

    def load_dataset(self) -> Dataset:
        """The configured data, checked against layer_dims and batch_size."""
        ds = load_csv(self.data["csv"]) if "csv" in self.data else gen_blobs(**self.blobs)
        dim, classes = self.layer_dims[0], self.layer_dims[-1]
        if ds.features.shape[0] != dim:
            raise ConfigError(f"data has {ds.features.shape[0]} features per sample, "
                              f"but layer_dims starts at {dim}")
        if ds.n_classes > classes:
            raise ConfigError(f"data has label {ds.n_classes - 1}, "
                              f"but layer_dims ends at {classes} classes")
        if ds.n_samples < self.batch_size:
            raise ConfigError(f"batch_size {self.batch_size} exceeds the "
                              f"{ds.n_samples} samples in the data")
        return ds


# -- model persistence -----------------------------------------------------

def _hex_matrix(a: np.ndarray) -> list:
    return [[v.hex() for v in row] for row in a.tolist()]


def _unhex_matrix(rows: list) -> np.ndarray:
    return np.array([[float.fromhex(v) for v in row] for row in rows], dtype=np.float64)


def save_model(net: nn.Network, path: str) -> None:
    layers = []
    for layer in net.layers:
        if isinstance(layer, nn.Linear):
            layers.append({
                "type": "linear",
                "out_dim": layer.out_dim,
                "in_dim": layer.in_dim,
                "policy": layer.policy,
                "weights": _hex_matrix(layer.W),
                "bias": [v.hex() for v in layer.b.tolist()],
            })
        elif isinstance(layer, nn.ReLU):
            layers.append({"type": "relu"})
        else:
            layers.append({"type": "softmax"})
    with open(path, "w") as fh:
        json.dump({"format": "blindtrain-model", "version": 1, "layers": layers},
                  fh, indent=1)
        fh.write("\n")


def load_model(path: str) -> nn.Network:
    """The network saved at path.  A file that is not a well-formed model,
    down to the shape of each weight and bias, is a ConfigError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "blindtrain-model":
        raise ConfigError(f"{path} is not a model file")
    try:
        return nn.Network([_load_layer(spec) for spec in doc["layers"]])
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # a bad value, shape or layer order
        raise ConfigError(f"{path}: {exc}") from exc


def _load_layer(spec: dict):
    kind = spec["type"]
    if kind == "relu":
        return nn.ReLU()
    if kind == "softmax":
        return nn.Softmax()
    if kind != "linear":
        raise ConfigError(f"unknown layer type {kind!r}")
    lin = nn.Linear(spec["out_dim"], spec["in_dim"], spec.get("policy", "tensor"))
    lin.W = _unhex_matrix(spec["weights"])
    lin.b = np.array([float.fromhex(v) for v in spec["bias"]], dtype=np.float64)
    if lin.W.shape != (lin.out_dim, lin.in_dim) or lin.b.shape != (lin.out_dim,):
        raise ConfigError(f"a ({lin.out_dim}, {lin.in_dim}) linear layer has weights "
                          f"of shape {lin.W.shape} and a bias of shape {lin.b.shape}")
    if not (np.isfinite(lin.W).all() and np.isfinite(lin.b).all()):
        raise ConfigError("a linear layer has a non-finite weight or bias")
    return lin


# -- subcommands -----------------------------------------------------------

def _parse_addresses(text: str) -> list[tuple[str, int]]:
    out = []
    for part in text.split(","):
        host, _, port = part.strip().rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(f"bad worker address {part!r}, expected host:port")
        out.append((host, int(port)))
    return out


def cmd_worker(args) -> int:
    host, _, port = args.listen.rpartition(":")
    if not host or not port.isdigit():
        raise ConfigError(f"bad listen address {args.listen!r}, expected host:port")
    mode = WorkerMode(args.mode, args.prob, args.magnitude)
    run_worker(host, int(port), mode, args.seed)
    return 0


def _write_report(report: dict, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    dataset = cfg.load_dataset()
    net = cfg.build_network()

    if args.local_workers:
        with spawn_local_workers(args.local_workers, seed=cfg.seed) as addresses:
            return _train_over(net, dataset, cfg, addresses, args)
    if args.workers:
        return _train_over(net, dataset, cfg, _parse_addresses(args.workers), args)
    if cfg.workers:
        return _train_over(net, dataset, cfg, cfg.workers, args)
    if cfg.executor == "local":
        return _train_local(net, dataset, cfg, args)
    raise ConfigError("offloaded training needs --workers, --local-workers, "
                      "or a workers list in the config")


def _train_over(net, dataset, cfg: RunConfig, addresses, args) -> int:
    with master.WorkerPool.connect(addresses, n_layers=len(net.linears)) as pool:
        net, stats, report = master.run_training(
            net, dataset, pool,
            learning_rate=cfg.learning_rate, batch_size=cfg.batch_size,
            epochs=cfg.epochs, seed=cfg.seed, t=cfg.t, keyspace=cfg.keyspace,
            pipelined=cfg.pipelined, reuse_backward=not cfg.naive_backward,
        )
    if args.out:
        save_model(net, args.out)
    _write_report(report, args.report)
    print(f"final_loss={report['final_loss']:.6f} accuracy={report['accuracy']:.4f} "
          f"encrypted={stats.matrices_encrypted} offloaded={stats.products_offloaded}")
    return 0


def _train_local(net, dataset, cfg: RunConfig, args, label: str = "local") -> int:
    losses: list[dict] = []

    def on_epoch(epoch, loss):
        losses.append({"epoch": epoch, "loss": loss})

    nn.train(net, dataset,
             nn.TrainConfig(cfg.learning_rate, cfg.batch_size, cfg.epochs, cfg.seed),
             nn.LocalExecutor(), on_epoch)
    report = {
        "final_loss": losses[-1]["loss"] if losses else None,
        "accuracy": nn.accuracy(net, dataset),
        "executor": label,
        "epochs": losses,
    }
    if args.out:
        save_model(net, args.out)
    _write_report(report, args.report)
    print(f"final_loss={report['final_loss']:.6f} accuracy={report['accuracy']:.4f}")
    return 0


def cmd_baseline(args) -> int:
    cfg = RunConfig.load(args.config)
    return _train_local(cfg.build_network(), cfg.load_dataset(), cfg, args,
                        label="baseline")


def cmd_infer(args) -> int:
    net = load_model(args.model)
    dataset = load_csv(args.input)
    if dataset.features.shape[0] != net.in_dim:
        raise ConfigError(f"{args.input} has {dataset.features.shape[0]} features per sample, "
                          f"but the model takes {net.in_dim}")
    if args.workers:
        addresses = _parse_addresses(args.workers)
        with master.WorkerPool.connect(addresses, n_layers=len(net.linears)) as pool:
            preds = master.run_inference(net, dataset.features, pool, seed=args.seed)
    elif args.local_workers:
        with spawn_local_workers(args.local_workers, seed=args.seed) as addresses:
            with master.WorkerPool.connect(addresses, n_layers=len(net.linears)) as pool:
                preds = master.run_inference(net, dataset.features, pool, seed=args.seed)
    else:
        preds = nn.predict(net, dataset.features)
    for label in preds:
        print(int(label))
    return 0


def cmd_min_k(args) -> int:
    training_flags = [args.epochs, args.dataset_size, args.batch_size]
    if any(v is not None for v in training_flags):
        if any(v is None for v in training_flags):
            raise ConfigError("training mode needs --epochs, --dataset-size and --batch-size")
        cfg = IntegrityConfig(t=args.t, task="training", n_epochs=args.epochs,
                              dataset_size=args.dataset_size, batch_size=args.batch_size,
                              n_workers=args.N, n_layers=args.L)
    else:
        cfg = IntegrityConfig(t=args.t, task="inference", n_workers=args.N, n_layers=args.L)
    print(min_rounds(cfg))
    return 0


def cmd_verify_experiment(args) -> int:
    ks = [int(v) for v in args.k.split(",")]
    rng = make_rng(args.seed)
    keyspace = KeySpaceConfig()
    mode = WorkerMode(args.mode, 1.0, args.magnitude)
    print("k,trials,detected,rate,bound")
    for k in ks:
        detected = 0
        last_by_shape: dict = {}
        for _ in range(args.trials):
            m, n, p = (int(v) for v in rng.integers(2, 9, size=3))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal((n, p))
            sk = kgen(m, n, p, keyspace, rng)
            a_enc, b_enc = enc_pair(sk, a, b)
            c_enc = apply_adversary(mode, a_enc @ b_enc, rng, last_by_shape)
            try:
                dec(sk, c_enc, a, b, k, rng)
            except IntegrityFailure:
                detected += 1
        rate = detected / args.trials
        print(f"{k},{args.trials},{detected},{rate:.4f},{1.0 - 0.5 ** k:.6f}")
    return 0


def cmd_mi_eval(args) -> int:
    sizes = [int(v) for v in args.keyspace_sizes.split(",")]
    rows = privacy.compare_schemes(sizes, n_patches=args.patches,
                                   n_bins=args.bins, seed=args.seed)
    print("scheme,keyspace,privacy_bits")
    for row in rows:
        print(f"{row['scheme']},{row['keyspace']},{row['privacy_bits']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blindtrain",
        description="verified training over blinded matrix products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("worker", help="serve blinded products")
    p.add_argument("--listen", required=True, metavar="HOST:PORT")
    p.add_argument("--mode", choices=["honest", "tamper", "lazy"], default="honest")
    p.add_argument("--prob", type=float, default=0.0)
    p.add_argument("--magnitude", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("train", help="offloaded verified training")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", help="comma-separated host:port list")
    p.add_argument("--local-workers", type=int, default=0,
                   help="spawn N in-process loopback workers")
    p.add_argument("--out", help="write the trained model JSON here")
    p.add_argument("--report", help="write the run report JSON here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("baseline", help="plain local training, same loop")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.add_argument("--report")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("infer", help="predictions from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True, help="CSV of label,features rows")
    p.add_argument("--workers")
    p.add_argument("--local-workers", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("min-k", help="probe count for an error budget")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--N", type=int, required=True, help="worker count")
    p.add_argument("--L", type=int, required=True, help="linear layer count")
    p.add_argument("--epochs", type=int)
    p.add_argument("--dataset-size", type=int)
    p.add_argument("--batch-size", type=int)
    p.set_defaults(func=cmd_min_k)

    p = sub.add_parser("verify-experiment", help="empirical detection rates")
    p.add_argument("--k", default="1,2,4,10", help="comma-separated probe counts")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--mode", choices=["tamper", "lazy"], default="tamper")
    p.add_argument("--magnitude", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify_experiment)

    p = sub.add_parser("mi-eval", help="privacy comparison table")
    p.add_argument("--keyspace-sizes", default="4,16,64,255")
    p.add_argument("--patches", type=int, default=12)
    p.add_argument("--bins", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mi_eval)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityFailure as exc:
        print(f"integrity failure, aborting: {exc}", file=sys.stderr)
        return 3
    except master.WorkerFault as exc:
        print(f"worker fault: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
