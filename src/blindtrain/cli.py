"""Command line front end.

Subcommands:

    worker             serve blinded products on a TCP port
    train              verified training offloaded to workers, from a JSON config
    baseline           same training loop, plain local products
    infer              predictions from a saved model, offloaded if given workers
    min-k              probe count for a whole-run error budget
    verify-experiment  empirical detection rates for cheating workers
    mi-eval            privacy comparison table across schemes

The run config schema is the table _RUN_CONFIG, listed in the README;
RunConfig checks each value's type against it and converts none.  Model
files are JSON with weights as hex float literals, so save/load
round-trips bitwise, and their layer list is the one _layer_types gives.
"""
from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from typing import get_args, get_origin

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

_REQUIRED = object()  # the default of a key the config must give

# key -> (type, default) of the run config, and of its data's blobs spec.
# An int passes where a float is asked for; a bool never passes as a number.
_RUN_CONFIG = {
    "layer_dims": (list[int], _REQUIRED),
    "learning_rate": (float, _REQUIRED),
    "batch_size": (int, _REQUIRED),
    "epochs": (int, _REQUIRED),
    "seed": (int, _REQUIRED),
    "data": (dict, _REQUIRED),
    "policies": (list[str], None),
    "t": (float, 0.01),
    "keyspace": (int, 255),
    "pipelined": (bool, False),
    "workers": (list[str], None),
}
_BLOBS = {"n_per_class": (int, _REQUIRED), "n_classes": (int, _REQUIRED), "dim": (int, _REQUIRED),
          "separation": (float, _REQUIRED), "seed": (int, _REQUIRED)}
_TYPE_NAMES = {list[int]: "a list of integers", list[str]: "a list of strings", dict: "an object",
               float: "a number", int: "an integer", bool: "true or false"}


def _is_a(value, kind) -> bool:
    if get_origin(kind) is list:
        return isinstance(value, list) and all(_is_a(v, get_args(kind)[0]) for v in value)
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _read(raw, table: dict, where: str) -> dict:
    """raw's values, checked by table and not converted, defaults filled in."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{where} must be an object")
    for key in raw:
        if key not in table:
            raise ConfigError(f"{where} has unknown key {key!r}")
    out = {}
    for key, (kind, default) in table.items():
        value = raw.get(key, default)
        if value is _REQUIRED:
            raise ConfigError(f"{where} is missing key {key!r}")
        if not (_is_a(value, kind) or value is default is None):
            raise ConfigError(f"{where} key {key!r} must be {_TYPE_NAMES[kind]}, got {value!r}")
        out[key] = value
    return out


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


class RunConfig:
    """A training config JSON, one attribute per _RUN_CONFIG key (and
    blobs for generated data).  An unknown or missing key, a value of the
    wrong type or one the object it configures refuses raises ValueError
    here, and a ConfigError naming the file from load(), before any
    socket is opened."""

    def __init__(self, raw: dict):
        vars(self).update(_read(raw, _RUN_CONFIG, "config"))
        # the objects these values go to check their ranges
        nn.Network.from_dims(self.layer_dims, self.policies)
        nn.TrainConfig(self.learning_rate, self.batch_size, self.epochs, self.seed)
        IntegrityConfig(self.t)
        master.EpochKeys(self.seed, KeySpaceConfig(self.keyspace))
        if self.workers is not None:
            self.workers = _parse_addresses(",".join(self.workers))
        if list(self.data) not in (["csv"], ["blobs"]):
            raise ConfigError("data must be {'csv': path} or {'blobs': {...}}")
        if not isinstance(self.data.get("csv", ""), str):  # a number would open a file descriptor
            raise ConfigError("data's csv must be a path")
        self.blobs = _read(self.data["blobs"], _BLOBS, "blobs") if "blobs" in self.data else None

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh, parse_constant=_no_constant)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except ValueError as exc:  # not JSON, not UTF-8, or NaN or Infinity
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        try:
            return cls(raw)
        except ValueError as exc:  # a key, type or range the config may not have
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


def _layer_types(n_linear: int) -> list[str]:
    """A model file's layer types: its linear layers with a relu between
    each pair and a softmax after the last, the only order a network has."""
    return ["linear", "relu"] * (n_linear - 1) + ["linear", "softmax"]


def save_model(net: nn.Network, path: str) -> None:
    layers = [{"type": kind} for kind in _layer_types(len(net.linears))]
    for spec, lin in zip(layers[::2], net.linears):  # the linear layers
        spec.update(out_dim=lin.out_dim, in_dim=lin.in_dim, policy=lin.policy,
                    weights=_hex_matrix(lin.W), bias=[v.hex() for v in lin.b.tolist()])
    with open(path, "w") as fh:
        json.dump({"format": "blindtrain-model", "version": 1, "layers": layers},
                  fh, indent=1)
        fh.write("\n")


def load_model(path: str) -> nn.Network:
    """The network saved at path.  A file that is not a well-formed model,
    down to its layer order and the shape of each weight and bias, is a
    ConfigError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "blindtrain-model":
        raise ConfigError(f"{path} is not a model file")
    try:
        kinds = [spec["type"] for spec in doc["layers"]]
        expected = _layer_types(kinds.count("linear"))  # no linear layer: expect one
        if kinds != expected:
            raise ConfigError(f"layer types {kinds}, expected {expected}")
        return nn.Network([_load_linear(spec) for spec in doc["layers"][::2]])  # the linear layers
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # a bad value, shape or layer order
        raise ConfigError(f"{path}: {exc}") from exc


def _load_linear(spec: dict) -> nn.Linear:
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
        if not host or not port.isdecimal() or int(port) > 65535:
            raise ConfigError(f"bad address {part!r}, expected host:port with a port "
                              f"up to 65535")
        out.append((host, int(port)))
    return out


def _checked(make, *args, **kwargs):
    """make(*args, **kwargs), a value it refuses raised as a ConfigError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _at_least(low: int, listed: bool = False):
    """argparse type: an integer no smaller than low or, listed, a
    comma-separated list of them."""
    def one(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse = (lambda text: [one(v) for v in text.split(",")]) if listed else one
    parse.__name__ = "int list" if listed else "int"  # argparse's "invalid int value"
    return parse


@contextmanager
def _worker_pool(args, n_layers: int, seed: int, configured=None):
    """The pool over --local-workers, else --workers, else the configured
    addresses; None if there are none."""
    with spawn_local_workers(args.local_workers, seed=seed) as spawned:  # none for 0
        addresses = spawned or (_parse_addresses(args.workers) if args.workers else configured)
        if not addresses:
            yield None
            return
        with master.WorkerPool.connect(addresses, n_layers=n_layers) as pool:
            yield pool


def cmd_worker(args) -> int:
    addresses = _parse_addresses(args.listen)
    if len(addresses) != 1:
        raise ConfigError(f"--listen takes one host:port, got {args.listen!r}")
    mode = _checked(WorkerMode, args.mode, args.prob, args.magnitude)
    run_worker(*addresses[0], mode, args.seed)
    return 0


def _finish(net, report: dict, args, counts: str = "") -> int:
    if args.out:
        save_model(net, args.out)
    if args.report:
        with open(args.report, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    loss = report["final_loss"]  # None after 0 epochs
    print(f"final_loss={'none' if loss is None else f'{loss:.6f}'} "
          f"accuracy={report['accuracy']:.4f}{counts}")
    return 0


def cmd_train(args) -> int:
    cfg = RunConfig.load(args.config)
    net, dataset = cfg.build_network(), cfg.load_dataset()
    with _worker_pool(args, len(net.linears), cfg.seed, cfg.workers) as pool:
        if pool is None:
            raise ConfigError("train offloads: give --workers, --local-workers or a workers "
                              "list in the config, or run baseline to train locally")
        net, stats, report = master.run_training(
            net, dataset, pool,
            learning_rate=cfg.learning_rate, batch_size=cfg.batch_size,
            epochs=cfg.epochs, seed=cfg.seed, t=cfg.t, keyspace=cfg.keyspace,
            pipelined=cfg.pipelined,
        )
    return _finish(net, report, args, f" encrypted={stats.matrices_encrypted} "
                                      f"offloaded={stats.products_offloaded}")


def cmd_baseline(args) -> int:
    cfg = RunConfig.load(args.config)
    net, dataset = cfg.build_network(), cfg.load_dataset()
    epoch_log = nn.train(net, dataset,
                         nn.TrainConfig(cfg.learning_rate, cfg.batch_size, cfg.epochs, cfg.seed),
                         nn.LocalExecutor())
    return _finish(net, {
        "final_loss": epoch_log[-1]["loss"] if epoch_log else None,
        "accuracy": nn.accuracy(net, dataset),
        "executor": "baseline",
        "epochs": epoch_log,
    }, args)


def cmd_infer(args) -> int:
    _checked(master.EpochKeys, args.seed, KeySpaceConfig())  # the seed's range, before any worker
    net = load_model(args.model)
    dataset = load_csv(args.input)
    if dataset.features.shape[0] != net.in_dim:
        raise ConfigError(f"{args.input} has {dataset.features.shape[0]} features per sample, "
                          f"but the model takes {net.in_dim}")
    with _worker_pool(args, len(net.linears), args.seed) as pool:
        preds = nn.predict(net, dataset.features) if pool is None else \
            master.run_inference(net, dataset.features, pool, seed=args.seed)
    for label in preds:
        print(int(label))
    return 0


def cmd_min_k(args) -> int:
    training_flags = [args.epochs, args.dataset_size, args.batch_size]
    if any(v is not None for v in training_flags):
        if any(v is None for v in training_flags):
            raise ConfigError("training mode needs --epochs, --dataset-size and --batch-size")
        cfg = _checked(IntegrityConfig, t=args.t, task="training", n_epochs=args.epochs,
                       dataset_size=args.dataset_size, batch_size=args.batch_size,
                       n_workers=args.N, n_layers=args.L)
    else:
        cfg = _checked(IntegrityConfig, t=args.t, task="inference", n_workers=args.N,
                       n_layers=args.L)
    try:
        print(min_rounds(cfg))
    except OverflowError as exc:
        raise ConfigError(f"the run's verification count is too large: {exc}") from exc
    return 0


def cmd_verify_experiment(args) -> int:
    rng = make_rng(args.seed)
    keyspace = KeySpaceConfig()
    mode = WorkerMode(args.mode, 1.0, args.magnitude)
    print("k,trials,detected,rate,bound")
    for k in args.k:
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
    for size in args.keyspace_sizes:
        _checked(KeySpaceConfig, size)
    rows = privacy.compare_schemes(args.keyspace_sizes, n_patches=args.patches,
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
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser("train", help="offloaded verified training")
    p.add_argument("--config", required=True)
    p.add_argument("--workers", help="comma-separated host:port list")
    p.add_argument("--local-workers", type=_at_least(0), default=0,
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
    p.add_argument("--local-workers", type=_at_least(0), default=0)
    p.add_argument("--seed", type=_at_least(0), default=0)
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
    p.add_argument("--k", type=_at_least(0, listed=True), default="1,2,4,10",
                   help="comma-separated probe counts")
    p.add_argument("--trials", type=_at_least(1), default=1000)
    p.add_argument("--mode", choices=["tamper", "lazy"], default="tamper")
    p.add_argument("--magnitude", type=float, default=1.0)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.set_defaults(func=cmd_verify_experiment)

    p = sub.add_parser("mi-eval", help="privacy comparison table")
    p.add_argument("--keyspace-sizes", type=_at_least(2, listed=True), default="4,16,64,255")
    p.add_argument("--patches", type=_at_least(1), default=12)
    p.add_argument("--bins", type=_at_least(1), default=16)
    p.add_argument("--seed", type=_at_least(0), default=0)
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
