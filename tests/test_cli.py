import json
import socket
import subprocess
import sys
import time

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
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, t=1.5))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, keyspace=1))
    with pytest.raises(ConfigError):
        RunConfig.load(write_config(tmp_path, executor="quantum"))
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
    assert [type(l).__name__ for l in again.layers] == \
        [type(l).__name__ for l in net.layers]
    for a, b in zip(net.linears, again.linears):
        assert a.W.tobytes() == b.W.tobytes()
        assert a.b.tobytes() == b.b.tobytes()
        assert a.policy == b.policy


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


def test_train_local_executor_without_workers(tmp_path, capsys):
    cfg = write_config(tmp_path, executor="local")
    assert main(["train", "--config", cfg]) == 0
    assert "final_loss=" in capsys.readouterr().out


def test_train_offloaded_without_workers_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["train", "--config", cfg]) == 2
    assert "--workers" in capsys.readouterr().err


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
        from blindtrain.protocol import StorePair, MultFwd
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
            pool.conn(0).call(StorePair(0, 0, a, b), ())
            reply = pool.conn(0).call(MultFwd(0, 0), ((2, 2),))
            assert np.max(np.abs(reply.matrices[0] - a @ b)) < 1e-12
    finally:
        proc.terminate()
        proc.wait(timeout=10)
