import hashlib
import json
import re
import socket
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from blindtrain.cli import ConfigError, RunConfig, load_model, main, save_model
from blindtrain.nn import Network, predict
from blindtrain.tensor import make_rng


def write_config(tmp_path, name="run.json", **overrides):
    cfg = {
        "layer_dims": [2, 6, 2],
        "learning_rate": 0.1,
        "batch_size": 10,
        "epochs": 2,
        "seed": 8,
        "data": {"blobs": {"n_per_class": 15, "n_classes": 2, "dim": 2,
                           "separation": 8.0, "seed": 7}},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# -- config ------------------------------------------------------------------

def test_config_requires_all_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"layer_dims": [2, 2]}))
    with pytest.raises(ConfigError, match="learning_rate"):
        RunConfig.load(str(path))


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, momentum=0.9)
    with pytest.raises(ConfigError, match="momentum"):
        RunConfig.load(path)


def test_config_missing_file_names_path():
    with pytest.raises(ConfigError, match="no/such/file.json"):
        RunConfig.load("no/such/file.json")


def test_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        RunConfig.load(str(path))


def test_config_validates_ranges(tmp_path):
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, learning_rate=0))
    with pytest.raises(ConfigError, match="batch_size must be >= 1 and epochs >= 0"):
        RunConfig.load(write_config(tmp_path, epochs=-1))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, t=1.5))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, keyspace=1))
    with pytest.raises(ConfigError, match="unknown key 'executor'"):
        RunConfig.load(write_config(tmp_path, executor="local"))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, layer_dims=[2]))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, data={"nope": 1}))


def test_config_builds_network_and_dataset(tmp_path):
    cfg = RunConfig.load(write_config(tmp_path))
    net = cfg.build_network()
    assert [lin.out_dim for lin in net.linears] == [6, 2]
    ds = cfg.load_dataset()
    assert ds.features.shape == (2, 30)


# -- model files -------------------------------------------------------------

def test_model_roundtrip_is_bitwise(tmp_path):
    net = Network.from_dims([3, 5, 2], policies=["data", "master"])
    net.init_weights(3)
    path = str(tmp_path / "model.json")
    save_model(net, path)
    again = load_model(path)
    assert len(again.linears) == len(net.linears)
    for a, b in zip(net.linears, again.linears):
        assert a.W.tobytes() == b.W.tobytes()
        assert a.b.tobytes() == b.b.tobytes()
        assert a.policy == b.policy


TWO_LINEAR = "['linear', 'relu', 'linear', 'softmax']"


@pytest.mark.parametrize("breakage,message", [
    (lambda doc: doc["layers"][0].update(policy="diagonal"), "unknown policy 'diagonal'"),
    (None, "is not valid JSON"),  # the file cut short
    (lambda doc: doc["layers"][0].pop("weights"), "missing key 'weights'"),
    (lambda doc: doc["layers"][0]["weights"].pop(),
     "a (3, 2) linear layer has weights of shape (2, 2)"),
    (lambda doc: doc["layers"][0]["weights"][0].__setitem__(0, "nan"), "non-finite weight"),
    (lambda doc: doc.update(layers=[]), "layer types [], expected ['linear', 'softmax']"),
    (lambda doc: doc["layers"].insert(1, {"type": "softmax"}),
     "layer types ['linear', 'softmax', 'relu', 'linear', 'softmax'], expected " + TWO_LINEAR),
    (lambda doc: doc["layers"].pop(1), "layer types ['linear', 'linear', 'softmax'], expected "
     + TWO_LINEAR),
    (lambda doc: doc["layers"].insert(0, {"type": "relu"}),
     "layer types ['relu', 'linear', 'relu', 'linear', 'softmax'], expected " + TWO_LINEAR),
    (lambda doc: doc["layers"].insert(1, {"type": "relu"}),
     "layer types ['linear', 'relu', 'relu', 'linear', 'softmax'], expected " + TWO_LINEAR),
    (lambda doc: doc["layers"].insert(3, {"type": "relu"}),
     "layer types ['linear', 'relu', 'linear', 'relu', 'softmax'], expected " + TWO_LINEAR),
    (lambda doc: doc["layers"][1].update(type="tanh"),
     "layer types ['linear', 'tanh', 'linear', 'softmax'], expected " + TWO_LINEAR),
    (lambda doc: doc.update(layers=[{"type": "softmax"}]),
     "layer types ['softmax'], expected ['linear', 'softmax']"),
    (lambda doc: doc["layers"][1].pop("type"), "missing key 'type'"),
    (lambda doc: doc["layers"][1].update(type="softmax"),
     "layer types ['linear', 'softmax', 'linear', 'softmax'], expected " + TWO_LINEAR),
], ids=["unknown-policy", "not-json", "no-weights", "short-weights", "nan-weight", "no-layers",
        "inner-softmax", "no-relu", "relu-first", "double-relu", "relu-before-softmax",
        "unknown-type", "softmax-only", "no-type", "softmax-between-linears"])
def test_malformed_model_exits_2(tmp_path, capsys, breakage, message):
    net = Network.from_dims([2, 3, 2])
    net.init_weights(1)
    path = tmp_path / "model.json"
    save_model(net, str(path))
    if breakage is None:
        path.write_text(path.read_text()[:-10])
    else:
        doc = json.loads(path.read_text())
        breakage(doc)
        path.write_text(json.dumps(doc))
    csv_path = tmp_path / "query.csv"
    csv_path.write_text("0,1.0,2.0\n1,2.0,1.0\n")
    assert main(["infer", "--model", str(path), "--input", str(csv_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and message in err


def test_saved_model_bytes_are_pinned(tmp_path):
    """The model file format is fixed: a seeded net saves to the same
    bytes on every machine (init_weights draws its numbers without BLAS)."""
    net = Network.from_dims([3, 5, 4, 2], policies=["data", "master", "tensor"])
    net.init_weights(11)
    path = tmp_path / "model.json"
    save_model(net, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "cd39bbfe299865b5660e906945271a515a5416647605c5782615318db4329657"


def test_load_model_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ConfigError, match="not a model file"):
        load_model(str(path))


# -- subcommands through main() ----------------------------------------------

def test_min_k_inference_case(capsys):
    assert main(["min-k", "--t", "0.01", "--N", "1", "--L", "10"]) == 0
    assert capsys.readouterr().out.strip() == "10"


def test_min_k_training_needs_all_three_flags(capsys):
    code = main(["min-k", "--t", "0.01", "--N", "1", "--L", "10", "--epochs", "3"])
    assert code == 2
    assert "dataset-size" in capsys.readouterr().err


def test_min_k_training_case(capsys):
    code = main(["min-k", "--t", "0.01", "--N", "2", "--L", "3",
                 "--epochs", "5", "--dataset-size", "200", "--batch-size", "32"])
    assert code == 0
    k = int(capsys.readouterr().out.strip())
    assert k > 10  # more products at stake than the single-pass case


@pytest.mark.parametrize("argv, k", [
    ("min-k --t 0.01 --N 1000000000000000 --L 3", 59),
    ("min-k --t 0.01 --N 2 --L 3 --epochs 1 --dataset-size 99999999999999999999999 "
     "--batch-size 1", 88),
], ids=["workers", "dataset-size"])
def test_min_k_on_counts_past_1e14_prints_a_k(capsys, argv, k):
    assert main(argv.split()) == 0
    assert capsys.readouterr().out.strip() == str(k)


def test_min_k_on_a_count_beyond_float_range_exits_2(capsys):
    argv = ["min-k", "--t", "0.01", "--N", "2", "--L", "3", "--epochs", "1",
            "--dataset-size", "1" + "0" * 400, "--batch-size", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "too large" in captured.err


def test_verify_experiment_table(capsys):
    code = main(["verify-experiment", "--k", "1,4", "--trials", "120", "--seed", "2"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,trials,detected,rate,bound"
    k1 = lines[1].split(",")
    k4 = lines[2].split(",")
    assert k1[0] == "1" and k4[0] == "4"
    assert abs(float(k1[3]) - 0.5) < 0.15
    assert float(k4[3]) >= 0.85
    assert float(k4[4]) == pytest.approx(1 - 0.5 ** 4, abs=1e-6)


def test_verify_experiment_lazy_mode(capsys):
    code = main(["verify-experiment", "--k", "4", "--trials", "60",
                 "--mode", "lazy", "--seed", "1"])
    assert code == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(row[3]) >= 0.85


def test_mi_eval_csv(capsys):
    code = main(["mi-eval", "--keyspace-sizes", "16", "--patches", "4", "--seed", "0"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "scheme,keyspace,privacy_bits"
    assert len(lines) == 6
    schemes = [line.split(",")[0] for line in lines[1:]]
    assert schemes == ["enc_full", "enc_no_perm", "add_random", "scalar_mult", "identity"]
    assert all(line.split(",")[1] == "16" for line in lines[1:])


def test_baseline_writes_model_and_report(tmp_path, capsys):
    cfg = write_config(tmp_path)
    model = str(tmp_path / "model.json")
    report = str(tmp_path / "report.json")
    assert main(["baseline", "--config", cfg, "--out", model, "--report", report]) == 0
    out = capsys.readouterr().out
    assert "accuracy=" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["executor"] == "baseline"
    assert len(doc["epochs"]) == 2
    assert all(sorted(e) == ["epoch", "loss", "seconds"] for e in doc["epochs"])
    load_model(model)  # parses back


def test_train_with_local_workers_and_infer_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path)
    model = str(tmp_path / "model.json")
    report = str(tmp_path / "report.json")
    assert main(["train", "--config", cfg, "--local-workers", "2",
                 "--out", model, "--report", report]) == 0
    out = capsys.readouterr().out
    assert "encrypted=" in out and "offloaded=" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["stats"]["failures"] == 0
    assert doc["stats"]["matrices_encrypted"] > 0

    # build an input CSV from fresh points; labels are ignored by infer
    rng = make_rng(5)
    points = rng.standard_normal((6, 2)) * 0.5
    points[3:] += [8.0, 0.0]
    csv_path = tmp_path / "query.csv"
    csv_path.write_text("".join(f"0,{x:.6f},{y:.6f}\n" for x, y in points))

    assert main(["infer", "--model", model, "--input", str(csv_path)]) == 0
    local_lines = capsys.readouterr().out.strip().splitlines()
    assert len(local_lines) == 6
    assert set(local_lines) <= {"0", "1"}

    assert main(["infer", "--model", model, "--input", str(csv_path),
                 "--local-workers", "2", "--seed", "3"]) == 0
    offloaded_lines = capsys.readouterr().out.strip().splitlines()
    assert offloaded_lines == local_lines


def test_train_offloaded_without_workers_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "--workers" in err and "baseline" in err


def test_missing_config_exit_code(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
    assert "nope.json" in capsys.readouterr().err


def test_bad_worker_address_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", cfg, "--workers", "nonsense"]) == 2
    assert "host:port" in capsys.readouterr().err


def test_unreachable_worker_is_clean_error(tmp_path, capsys):
    # grab a port with nothing listening on it
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    cfg = write_config(tmp_path)
    assert main(["train", "--config", cfg,
                 "--workers", f"127.0.0.1:{port}"]) == 2
    err = capsys.readouterr().err
    assert f"127.0.0.1:{port}" in err
    assert "unreachable" in err


def dead_address():
    """host:port of a loopback port with nothing listening on it."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return "127.0.0.1:%d" % probe.getsockname()[1]


def _with_blob(**spec):
    blobs = {"n_per_class": 15, "n_classes": 2, "dim": 2, "separation": 8.0, "seed": 7}
    return {"data": {"blobs": dict(blobs, **spec)}}


def test_train_takes_local_workers_then_workers_then_the_configs(tmp_path, capsys):
    from blindtrain.worker import spawn_local_workers

    cfg = write_config(tmp_path, workers=[dead_address()])
    assert main(["train", "--config", cfg, "--local-workers", "1",
                 "--workers", dead_address()]) == 0
    with spawn_local_workers(1) as addresses:
        workers = ",".join(f"{host}:{port}" for host, port in addresses)
        assert main(["train", "--config", cfg, "--workers", workers]) == 0
    assert main(["train", "--config", cfg]) == 2
    assert "unreachable" in capsys.readouterr().err


THREE_BLOBS = {"blobs": {"n_per_class": 15, "n_classes": 3, "dim": 2,
                         "separation": 8.0, "seed": 7}}


@pytest.mark.parametrize("overrides,message", [
    ({"policies": ["tensor", "diagonal"]}, "unknown policy 'diagonal'"),
    ({"policies": ["tensor"]}, "2 linear layers need 2 policies, got 1"),
    ({"layer_dims": [3, 6, 2]}, "data has 2 features per sample, but layer_dims starts at 3"),
    ({"data": THREE_BLOBS}, "data has label 2, but layer_dims ends at 2 classes"),
    ({"batch_size": 31}, "batch_size 31 exceeds the 30 samples"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
    (_with_blob(seed=-7), "seed >= 0"),
    ({"seed": 2**63}, "seed must be in [0, 2**63 - 1], got 9223372036854775808"),
    ({"keyspace": 2**63}, "key space size must be in [2, 2**63 - 1], got 9223372036854775808"),
    ({"naive_backward": True}, "config has unknown key 'naive_backward'"),
], ids=["unknown-policy", "policy-count", "feature-dim", "label-range", "batch-size", "seed",
        "blobs-seed", "seed-beyond-64-bits", "keyspace-beyond-64-bits", "naive-backward"])
def test_bad_run_config_exits_2_before_any_worker_is_contacted(tmp_path, capsys,
                                                              overrides, message):
    cfg = write_config(tmp_path, **overrides)
    assert main(["train", "--config", cfg, "--workers", dead_address()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err  # not "unreachable"


@pytest.mark.parametrize("overrides,message", [
    ({"learning_rate": "fast"}, "config key 'learning_rate' must be a number, got 'fast'"),
    ({"batch_size": None}, "config key 'batch_size' must be an integer, got None"),
    ({"t": "x"}, "config key 't' must be a number, got 'x'"),
    ({"layer_dims": 5}, "config key 'layer_dims' must be a list of integers, got 5"),
    (_with_blob(n_per_class="a"), "blobs key 'n_per_class' must be an integer, got 'a'"),
    (None, "is not valid JSON"),  # not UTF-8
    ({"workers": 5}, "config key 'workers' must be a list of strings, got 5"),
    ({"data": {"csv": 0}}, "data's csv must be a path"),
    ({"pipelined": "no"}, "config key 'pipelined' must be true or false, got 'no'"),
    ({"batch_size": 10.7}, "config key 'batch_size' must be an integer, got 10.7"),
    ({"epochs": True}, "config key 'epochs' must be an integer, got True"),
    ({"seed": 2.9}, "config key 'seed' must be an integer, got 2.9"),
    ({"keyspace": 255.5}, "config key 'keyspace' must be an integer, got 255.5"),
    (_with_blob(n_per_class=15.9), "blobs key 'n_per_class' must be an integer, got 15.9"),
    ({"workers": "127.0.0.1:9000"},
     "config key 'workers' must be a list of strings, got '127.0.0.1:9000'"),
    ({"policies": "tensor"}, "config key 'policies' must be a list of strings, got 'tensor'"),
    ({"layer_dims": [2, True, 2]},
     "config key 'layer_dims' must be a list of integers, got [2, True, 2]"),
    ({"workers": [5]}, "config key 'workers' must be a list of strings, got [5]"),
    ({"learning_rate": float("nan")}, "is not valid JSON: NaN is not a JSON number"),
    (_with_blob(separation=float("inf")), "is not valid JSON: Infinity is not a JSON number"),
], ids=["learning-rate", "batch-size", "t", "layer-dims", "n-per-class", "not-utf8", "workers",
        "csv", "pipelined-string", "batch-size-float", "epochs-bool",
        "seed-float", "keyspace-float", "n-per-class-float", "workers-string",
        "policies-string", "layer-dims-bool", "workers-number", "learning-rate-nan", "separation-infinity"])
def test_run_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, overrides, message):
    cfg = write_config(tmp_path, **(overrides or {}))
    if overrides is None:
        with open(cfg, "ab") as fh:
            fh.write(b" \xff\xfe")
    assert main(["baseline", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and cfg in err


def test_run_config_schema_in_the_readme_is_the_table():
    """README's "Run config" lists name each key as `key` (type[, default
    `value`]); the keys and the defaults are the table's."""
    from blindtrain.cli import _BLOBS, _REQUIRED, _RUN_CONFIG

    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("### Run config (JSON)")[1].split("\n### ")[0]
    lists = {}
    for block in section.split("\n\n"):
        title, _, body = block.partition(":\n")
        lists[title] = dict(re.findall(r"^- `(\w+)` \((?:[^`)]*default `([^`]*)`)?", body, re.M))
    required, optional = lists["Required keys"], lists["Optional keys"]
    assert set(required) | set(optional) == set(_RUN_CONFIG)
    assert set(lists["Blobs keys, all required"]) == set(_BLOBS)
    for table, keys in ((_RUN_CONFIG, required), (_BLOBS, lists["Blobs keys, all required"])):
        assert all(table[key][1] is _REQUIRED and not default for key, default in keys.items())
    assert {key: json.loads(default) for key, default in optional.items()} == \
        {key: _RUN_CONFIG[key][1] for key in optional}


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse refusing an argument
        return exc.code


@pytest.mark.parametrize("argv", [
    "min-k --t 2 --N 2 --L 3",
    "min-k --t 0.01 --N 0 --L 3",
    "min-k --t 0.01 --N 2 --L 3 --epochs 1 --dataset-size 10 --batch-size 0",
    "mi-eval --keyspace-sizes 1",
    "mi-eval --bins 0",
    "verify-experiment --k x",
    "verify-experiment --k 4,-1",
    "verify-experiment --trials 0",
    "worker --listen 127.0.0.1:99999",
    "worker --listen 127.0.0.1:0 --prob 2",
    "worker --listen 127.0.0.1:0,127.0.0.1:0",
    "train --config {config} --local-workers -1",
    "train --config {config} --workers 127.0.0.1:\u00b2",
    "infer --model {model} --input {csv} --local-workers -2",
    "infer --model {model} --input {csv} --local-workers 1 --seed -1",
    "mi-eval --keyspace-sizes 9223372036854775808",
    "infer --model {model} --input {csv} --local-workers 1 --seed 9223372036854775808",
], ids=["min-k-t", "min-k-N", "min-k-batch-size", "mi-eval-keyspace", "mi-eval-bins",
        "verify-k", "verify-k-negative", "verify-trials", "worker-port", "worker-prob",
        "worker-two-listen", "train-local-workers", "train-superscript-port", "infer-local-workers",
        "infer-seed", "mi-eval-keyspace-beyond-64-bits", "infer-seed-beyond-64-bits"])
def test_refused_argument_exits_2_with_an_error_line(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr("blindtrain.cli.run_worker", lambda *a: pytest.fail("worker started"))
    net = Network.from_dims([2, 3, 2])
    net.init_weights(1)
    save_model(net, str(tmp_path / "model.json"))
    (tmp_path / "query.csv").write_text("0,1.0,2.0\n1,2.0,1.0\n")
    argv = argv.format(config=write_config(tmp_path), model=tmp_path / "model.json",
                       csv=tmp_path / "query.csv").split()
    assert _exit_code(argv) == 2
    assert "error: " in capsys.readouterr().err


def test_zero_epochs_reports_no_loss(tmp_path, capsys):
    cfg = write_config(tmp_path, epochs=0)
    assert main(["baseline", "--config", cfg]) == 0
    assert main(["train", "--config", cfg, "--local-workers", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["final_loss=none"] * 2


def test_an_integer_passes_where_a_number_is_asked_for(tmp_path, capsys):
    models = []
    for lr, separation in ((1, 8), (1.0, 8.0)):
        cfg = write_config(tmp_path, learning_rate=lr, **_with_blob(separation=separation))
        models.append(tmp_path / f"model-{lr!r}.json")
        assert main(["baseline", "--config", cfg, "--out", str(models[-1])]) == 0
    assert models[0].read_bytes() == models[1].read_bytes()
    capsys.readouterr()


def test_the_largest_64_bit_keyspace_and_seed_still_train(tmp_path, capsys):
    cfg = write_config(tmp_path, keyspace=2**63 - 1, seed=2**63 - 1)
    assert main(["train", "--config", cfg, "--local-workers", "2"]) == 0
    assert "final_loss=" in capsys.readouterr().out


def test_infer_labels_each_row_by_its_own_features(tmp_path, capsys):
    """A row's label does not depend on the other rows of its file, and
    it is the model's prediction on the row's raw features."""
    cfg = write_config(tmp_path, layer_dims=[2, 16, 16, 2], learning_rate=0.05,
                       batch_size=32, epochs=10, seed=7,
                       **_with_blob(n_per_class=150, separation=9.0, seed=3))  # README's example
    model = str(tmp_path / "model.json")
    assert main(["baseline", "--config", cfg, "--out", model]) == 0
    labels = {}
    for name, text in (("alone", "1,8.3,0.1\n"), ("pair", "0,0.1,0.2\n1,8.3,0.1\n")):
        (tmp_path / f"{name}.csv").write_text(text)
        capsys.readouterr()
        assert main(["infer", "--model", model, "--input", str(tmp_path / f"{name}.csv")]) == 0
        labels[name] = capsys.readouterr().out.split()
    expected = str(int(predict(load_model(model), np.array([[8.3], [0.1]]))[0]))
    assert labels["alone"] == [expected]
    assert labels["pair"][1] == expected


def test_infer_input_of_the_wrong_width_exits_2_before_any_worker_is_contacted(tmp_path,
                                                                             capsys):
    net = Network.from_dims([3, 4, 2])
    net.init_weights(1)
    model = str(tmp_path / "model.json")
    save_model(net, model)
    csv_path = tmp_path / "query.csv"
    csv_path.write_text("0,1.0,2.0\n1,3.0,4.0\n")
    assert main(["infer", "--model", model, "--input", str(csv_path),
                 "--workers", dead_address()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "has 2 features per sample, but the model takes 3" in err


def test_a_nan_feature_exits_2_before_any_worker_is_contacted(tmp_path, capsys):
    """A nan cell is the data's fault: it must not reach a worker, where
    its nan residual would read as an integrity failure (exit 3)."""
    csv_path = tmp_path / "nan.csv"
    csv_path.write_text("".join(f"{i % 2},{i}.0,1.0\n" for i in range(12)) + "1,nan,2.0\n")
    cfg = write_config(tmp_path, data={"csv": str(csv_path)})
    net = Network.from_dims([2, 3, 2])
    net.init_weights(1)
    model = str(tmp_path / "model.json")
    save_model(net, model)
    for argv in (["train", "--config", cfg, "--local-workers", "2"],
                 ["baseline", "--config", cfg],
                 ["infer", "--model", model, "--input", str(csv_path), "--local-workers", "2"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: {csv_path}:13: non-finite cell (nan or inf)\n"


def test_tampering_worker_exits_3(tmp_path, capsys):
    from blindtrain.worker import WorkerMode, spawn_local_workers

    cfg = write_config(tmp_path, pipelined=True)
    with spawn_local_workers(2, WorkerMode("tamper", 1.0, magnitude=1.0), seed=1) as addresses:
        workers = ",".join(f"{host}:{port}" for host, port in addresses)
        assert main(["train", "--config", cfg, "--workers", workers]) == 3
    assert capsys.readouterr().err.startswith("integrity failure, aborting: verification")


def test_worker_dropping_mid_run_exits_4(tmp_path, capsys):
    from blindtrain.protocol import MultBwd
    from blindtrain.worker import WorkerServer, WorkerSession

    class HangUp(WorkerSession):
        def handle(self, msg):
            if isinstance(msg, MultBwd):
                raise ConnectionResetError("worker went away")
            return super().handle(msg)

    server = type("Server", (WorkerServer,), {"session_class": HangUp})().start()
    try:
        host, port = server.address
        cfg = write_config(tmp_path)
        assert main(["train", "--config", cfg, "--workers", f"{host}:{port}"]) == 4
    finally:
        server.stop()
    assert "worker fault: no reply to request" in capsys.readouterr().err


def test_tampering_worker_on_shard_1_is_named_on_exit_3(tmp_path, capsys):
    from blindtrain.worker import WorkerMode, spawn_local_workers

    cfg = write_config(tmp_path)
    with spawn_local_workers(1) as honest, \
            spawn_local_workers(1, WorkerMode("tamper", 1.0, magnitude=1.0)) as tampering:
        (host, port), = tampering
        workers = ",".join(f"{h}:{p}" for h, p in (*honest, *tampering))
        assert main(["train", "--config", cfg, "--workers", workers]) == 3
    err = capsys.readouterr().err
    assert err.startswith("integrity failure, aborting: verification")
    assert err.rstrip().endswith(f"(layer 0, shard 1, forward, worker {host}:{port})")


def test_worker_hanging_up_on_shard_1_is_named_on_exit_4(tmp_path, capsys):
    import struct
    import threading
    from blindtrain.protocol import HEADER, MAGIC, VERSION, MsgType
    from blindtrain.worker import spawn_local_workers

    listener = socket.create_server(("127.0.0.1", 0))

    def ack_setup_then_hang_up():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5)
            for tag in range(2):  # Hello and Config, each acked by an empty RESULT
                *_, length = HEADER.unpack(conn.recv(HEADER.size, socket.MSG_WAITALL))
                if length:
                    conn.recv(length, socket.MSG_WAITALL)
                conn.sendall(HEADER.pack(MAGIC, VERSION, MsgType.RESULT, 9)
                             + struct.pack("<QB", tag, 0))

    peer = threading.Thread(target=ack_setup_then_hang_up, daemon=True)
    peer.start()
    try:
        host, port = listener.getsockname()
        cfg = write_config(tmp_path)
        with spawn_local_workers(1) as honest:
            workers = ",".join(f"{h}:{p}" for h, p in (*honest, (host, port)))
            assert main(["train", "--config", cfg, "--workers", workers]) == 4
        peer.join(timeout=10)
    finally:
        listener.close()
    err = capsys.readouterr().err
    assert err.startswith("worker fault: ")
    assert err.rstrip().endswith(f"(layer 0, shard 1, worker {host}:{port})")


def test_version_one_worker_exits_4(tmp_path, capsys):
    import struct
    import threading
    from blindtrain.protocol import HEADER, MAGIC, MsgType

    listener = socket.create_server(("127.0.0.1", 0))

    def answer_hello_as_version_one():
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5)
            conn.recv(HEADER.size)
            conn.sendall(HEADER.pack(MAGIC, 1, MsgType.RESULT, 9) + struct.pack("<QB", 0, 0))
            try:
                while conn.recv(1):
                    pass
            except ConnectionResetError:  # closed with the RESULT body unread
                pass

    peer = threading.Thread(target=answer_hello_as_version_one, daemon=True)
    peer.start()
    try:
        host, port = listener.getsockname()
        cfg = write_config(tmp_path)
        assert main(["train", "--config", cfg, "--workers", f"{host}:{port}"]) == 4
        peer.join(timeout=10)
        assert not peer.is_alive(), "the coordinator never hung up"
    finally:
        listener.close()
    assert "bad reply to request 0: unsupported version 1" in capsys.readouterr().err


def test_worker_subprocess_serves_over_tcp(tmp_path):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "blindtrain", "worker",
         "--listen", f"127.0.0.1:{port}"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    try:
        line = proc.stdout.readline()
        assert "listening" in line
        from blindtrain.master import WorkerPool
        from blindtrain.protocol import StorePair
        deadline = time.monotonic() + 10
        while True:
            try:
                pool = WorkerPool.connect([("127.0.0.1", port)], n_layers=1)
                break
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.05)
        with pool:
            a = np.ones((2, 3))
            b = np.full((3, 2), 2.0)
            reply = pool.conn(0).call(StorePair(0, 0, a, b), ((2, 2),))
            assert np.max(np.abs(reply.matrices[0] - a @ b)) < 1e-12
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
