import json
import os

import numpy as np
import pytest

from conftest import toy_corpus, write_raw_checkpoint
from mjae import cli, evalsuite, sampling
from mjae.cli import load_config_file, main, read_dataset
from mjae.molgraph import serialize_molecule
from mjae.network import NetworkConfig
from mjae.sampling import SamplerConfig, generate
from mjae.schedule import NoiseSchedule
from mjae.training import TrainConfig, load_checkpoint, save_checkpoint

NET_FLAGS = ["--latent", "12", "--rounds", "1", "--gcn-layers", "1",
             "--d-time", "8", "--d-contrast", "8"]
NET = NetworkConfig(latent=12, rounds=1, gcn_layers=1, d_time=8, d_contrast=8)


def _write_dataset(path, count=6, malformed=0):
    lines = [serialize_molecule(g) for g in toy_corpus(count=count, seed=13)]
    lines += ["{bad json"] * malformed
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _with_meta(ck, path, edit):
    """Copy of checkpoint ``ck`` at ``path`` whose meta is ``edit(meta)``."""
    params, state, meta = load_checkpoint(ck)
    save_checkpoint(params, state, str(path), meta=edit(meta))
    return str(path)


def _pretrain(tmp_path, seed=0, extra=()):
    data = _write_dataset(tmp_path / "data.jsonl")
    ck = str(tmp_path / "model.ck")
    log = str(tmp_path / "loss.json")
    rc = main(["pretrain", data, "--out", ck, "--epochs", "1",
               "--batch-size", "3", "--loss-log", log, "--seed", str(seed),
               *NET_FLAGS, *extra])
    assert rc == 0
    return ck, log


# -- config file ----------------------------------------------------------

def test_load_config_file(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("# comment\n\ntrain.epochs = 3\nschedule.kind=VE\n")
    cfg = load_config_file(str(p))
    assert cfg == {"train.epochs": "3", "schedule.kind": "VE"}


def test_load_config_file_malformed(tmp_path):
    p = tmp_path / "cfg"
    p.write_text("not a pair\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config_file(str(p))


def test_env_config_malformed_is_usage_error(tmp_path, monkeypatch):
    p = tmp_path / "cfg"
    p.write_text("broken line\n")
    monkeypatch.setenv("MJAE_CONFIG", str(p))
    assert main(["selftest"]) == 2


def test_env_config_supplies_defaults(tmp_path, monkeypatch, capsys):
    p = tmp_path / "cfg"
    p.write_text("seed=7\nschedule.kind=VE\n")
    monkeypatch.setenv("MJAE_CONFIG", str(p))
    from mjae.cli import build_parser, load_config_file
    parser = build_parser(load_config_file(str(p)))
    args = parser.parse_args(["pretrain", "a", "--out", "b"])
    assert args.seed == 7
    assert args.schedule_kind == "VE"


def test_env_config_count_is_checked_like_its_flag(tmp_path, monkeypatch, capsys):
    p = tmp_path / "cfg"
    p.write_text("train.epochs=0\n")
    monkeypatch.setenv("MJAE_CONFIG", str(p))
    with pytest.raises(SystemExit) as e:
        main(["pretrain", "a", "--out", str(tmp_path / "x.ck")])
    assert e.value.code == 2
    assert "--epochs: must be a positive integer, got 0" in capsys.readouterr().err


def test_env_config_bad_value_is_usage_error_naming_its_flag(tmp_path, monkeypatch, capsys):
    p = tmp_path / "cfg"
    p.write_text("train.lr=abc\n")
    monkeypatch.setenv("MJAE_CONFIG", str(p))
    with pytest.raises(SystemExit) as e:
        main(["pretrain", "a", "--out", str(tmp_path / "x.ck")])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert "argument --lr: invalid float value: 'abc'" in err
    assert "Traceback" not in err


def test_env_config_unknown_key_is_usage_error_naming_it(tmp_path, monkeypatch, capsys):
    p = tmp_path / "cfg"
    p.write_text("train.epochs=2\ntrain.epoch=5\n")
    monkeypatch.setenv("MJAE_CONFIG", str(p))
    with pytest.raises(SystemExit) as e:
        main(["pretrain", "a", "--out", str(tmp_path / "x.ck")])
    assert e.value.code == 2
    assert "config key 'train.epoch' is not read by any flag" in capsys.readouterr().err
    assert not (tmp_path / "x.ck").exists()


def test_flag_defaults_are_the_config_defaults():
    parser = cli.build_parser({})
    args = parser.parse_args(["pretrain", "a", "--out", "b"])
    assert cli._train_config(args) == TrainConfig()
    assert cli._net_config(args) == NetworkConfig()
    args = parser.parse_args(["sample", "a", "--out", "b"])
    assert (args.steps, args.lam, args.n_atoms, args.seed, args.t_min) == (
        SamplerConfig.steps, SamplerConfig.lam, SamplerConfig.n_atoms, SamplerConfig.seed,
        SamplerConfig.t_end)


# -- ingest ---------------------------------------------------------------

def test_ingest_diagnostics_and_output(tmp_path, capsys):
    data = _write_dataset(tmp_path / "raw.jsonl", count=10, malformed=2)
    out = str(tmp_path / "clean.jsonl")
    rc = main(["ingest", data, out])
    captured = capsys.readouterr()
    assert rc == 0
    assert "ingested 10 molecules, rejected 2" in captured.out
    assert captured.err.count("rejected: line ") == 2
    assert len(open(out).read().splitlines()) == 10
    manifest = json.load(open(out + ".manifest.json"))
    assert manifest["command"] == "ingest"
    assert data in manifest["input_hashes"]


def test_ingest_rejects_wrong_json_types_by_line(tmp_path, capsys):
    data = _write_dataset(tmp_path / "raw.jsonl", count=3)
    with open(data, "ab") as fh:
        fh.write(b'{"atoms": [1]}\n{"atoms": [{"el": "C", "q": "x"}]}\n{"atoms": "\xff"}\n')
    out = str(tmp_path / "clean.jsonl")
    assert main(["ingest", data, out]) == 0
    captured = capsys.readouterr()
    assert "ingested 3 molecules, rejected 3" in captured.out
    assert "line 4: atom must be an object" in captured.err
    assert "line 5: atom 'q' must be an integer" in captured.err
    assert "line 6: 'utf-8' codec can't decode byte 0xff in position 11" in captured.err
    assert len(open(out).read().splitlines()) == 3


def test_ingest_empty_file(tmp_path, capsys):
    src = tmp_path / "empty.jsonl"
    src.write_text("")
    rc = main(["ingest", str(src), str(tmp_path / "out.jsonl")])
    assert rc == 1
    assert "no valid records" in capsys.readouterr().err


def test_ingest_idempotent(tmp_path):
    data = _write_dataset(tmp_path / "raw.jsonl")
    first = str(tmp_path / "a.jsonl")
    second = str(tmp_path / "b.jsonl")
    assert main(["ingest", data, first]) == 0
    assert main(["ingest", first, second]) == 0
    assert open(first, "rb").read() == open(second, "rb").read()


def test_read_dataset_line_numbers(tmp_path):
    data = _write_dataset(tmp_path / "raw.jsonl", count=3, malformed=1)
    graphs, diags = read_dataset(data)
    assert len(graphs) == 3
    assert diags and diags[0].startswith("line 4:")


# -- pretrain -------------------------------------------------------------

def test_pretrain_writes_checkpoint_and_log(tmp_path):
    ck, log = _pretrain(tmp_path)
    assert os.path.exists(ck)
    hist = json.load(open(log))
    assert len(hist) == 1 and np.isfinite(hist[0]["total"])
    manifest = json.load(open(ck + ".manifest.json"))
    assert manifest["command"] == "pretrain"


def test_pretrain_seed_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    _, log1 = _pretrain(a, seed=7)
    _, log2 = _pretrain(b, seed=7)
    assert open(log1).read() == open(log2).read()


def test_pretrain_lambda2_zero_ablation(tmp_path):
    ck, log = _pretrain(tmp_path, extra=["--lambda2", "0"])
    assert os.path.exists(ck)


def test_pretrain_loss_log_is_the_printed_history(tmp_path, capsys):
    ck, log = _pretrain(tmp_path, extra=["--epochs", "2"])
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("epoch")]
    hist = json.load(open(log))
    assert [h["epoch"] for h in hist] == [0, 1]
    assert [f"{h['total']:.4f}" for h in hist] == [line.split()[3] for line in printed]


def test_pretrain_reports_rejected_lines(tmp_path, capsys):
    data = _write_dataset(tmp_path / "data.jsonl", malformed=1)
    assert main(["pretrain", data, "--out", str(tmp_path / "m.ck"), "--epochs", "1",
                 "--batch-size", "3", *NET_FLAGS]) == 0
    assert "rejected: line 7: " in capsys.readouterr().err


@pytest.mark.parametrize("count, notes", [(7, 1), (6, 0), (8, 0)])
def test_pretrain_notes_a_skipped_final_batch(tmp_path, capsys, count, notes):
    data = _write_dataset(tmp_path / "data.jsonl", count=count)
    assert main(["pretrain", data, "--out", str(tmp_path / "m.ck"), "--epochs", "1",
                 "--batch-size", "3", *NET_FLAGS]) == 0
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("note: ")]
    assert len(lines) == notes
    if notes:
        assert "7 molecules in batches of 3" in lines[0] and "batch of 1" in lines[0]


def test_pretrain_missing_dataset_is_usage_error():
    with pytest.raises(SystemExit) as e:
        main(["pretrain", "--out", "x.ck"])
    assert e.value.code == 2


def test_pretrain_unreadable_dataset_runtime_error(tmp_path):
    rc = main(["pretrain", str(tmp_path / "missing.jsonl"), "--out",
               str(tmp_path / "x.ck"), *NET_FLAGS])
    assert rc == 1


# -- sample / eval / probe ------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("model")
    ck, _ = _pretrain(tmp)
    data = str(tmp / "data.jsonl")
    return ck, data, tmp


def test_sample_deterministic(trained, tmp_path):
    ck, _, _ = trained
    out1, out2 = str(tmp_path / "s1.jsonl"), str(tmp_path / "s2.jsonl")
    flags = ["--count", "2", "--n-atoms", "3", "--steps", "4",
             "--lam", "0", "--seed", "5"]
    assert main(["sample", ck, "--out", out1, *flags]) == 0
    assert main(["sample", ck, "--out", out2, *flags]) == 0
    assert open(out1).read() == open(out2).read()
    graphs, diags = read_dataset(out1)
    assert len(graphs) == 2 and not diags


def test_eval_symmetry_and_metrics(trained, tmp_path):
    ck, data, _ = trained
    report = str(tmp_path / "report.json")
    rc = main(["eval", ck, "--probe-set", data, "--samples", data,
               "--reference", data, "--report", report, "--n-rotations", "3",
               "--max-probes", "2"])
    assert rc == 0
    rep = json.load(open(report))
    assert rep["symmetry"]["rotation_equivariance_3d"] < 1e-4
    assert rep["generation"]["atom_tv"] == 0.0


def test_eval_and_probe_report_rejected_lines(trained, tmp_path, capsys):
    ck, _, _ = trained
    data = _write_dataset(tmp_path / "data.jsonl", count=2, malformed=1)
    assert main(["eval", ck, "--probe-set", data, "--n-rotations", "2",
                 "--max-probes", "1"]) == 0
    assert capsys.readouterr().err == f"rejected: {read_dataset(data)[1][0]}\n"
    assert main(["probe", ck, data, "--probe-seeds", "2"]) == 0
    assert "rejected: line 3: " in capsys.readouterr().err


def test_eval_probe_set_without_valid_records_is_runtime_error(trained, tmp_path, capsys):
    ck, _, _ = trained
    data = _write_dataset(tmp_path / "bad.jsonl", count=0, malformed=2)
    assert main(["eval", ck, "--probe-set", data]) == 1
    err = capsys.readouterr().err
    assert err.count("rejected: line ") == 2
    assert "error: no valid records in probe set" in err


FAR_RECORD = ('{"atoms":[{"el":"O","xyz":[1e154,1e154,1e154]},{"el":"H","xyz":[1,0,0]},'
              '{"el":"H","xyz":[0,1,0]}],"bonds":[[0,1,1],[0,2,1]]}')


def test_ingest_rejects_a_coordinate_beyond_the_bound(tmp_path, capsys):
    data = tmp_path / "far.jsonl"
    data.write_text(FAR_RECORD + "\n")
    assert main(["ingest", str(data), str(tmp_path / "out.jsonl")]) == 1
    err = capsys.readouterr().err
    assert "rejected: line 1: atom 'xyz' component 1e+154 is out of range" in err
    assert "error: no valid records" in err


def test_eval_nonfinite_residual_is_runtime_error_without_report(trained, tmp_path, capsys,
                                                                 monkeypatch):
    """A NaN symmetry residual cannot go into strict JSON, so eval names it,
    exits 1 and writes no report. The NaN is put into the 3D score of each
    group's second view, a rotation."""
    ck, data, _ = trained
    real_forward = evalsuite.forward

    def nan_in_a_rotation(p, c, conds, *rest):
        record = real_forward(p, c, conds, *rest)
        record["score_P"].data[conds[0].n, 0] = np.nan
        return record

    monkeypatch.setattr(evalsuite, "forward", nan_in_a_rotation)
    report = tmp_path / "report.json"
    rc = main(["eval", ck, "--probe-set", data, "--n-rotations", "2", "--max-probes", "1",
               "--report", str(report)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: report holds symmetry.") and "= nan" in err
    assert list(tmp_path.iterdir()) == []


def test_eval_nothing_to_do(trained):
    ck, _, _ = trained
    assert main(["eval", ck]) == 2


@pytest.mark.parametrize("given, missing", [("samples", "reference"),
                                            ("reference", "samples")])
def test_eval_generation_flag_without_its_partner_is_usage_error(trained, capsys,
                                                                 given, missing):
    ck, data, _ = trained
    rc = main(["eval", ck, "--probe-set", data, f"--{given}", data,
               "--n-rotations", "2", "--max-probes", "1"])
    assert rc == 2
    assert f"error: --{given} needs --{missing}" in capsys.readouterr().err


def test_probe_reports_both_mses(trained, tmp_path, capsys):
    ck, data, _ = trained
    report = str(tmp_path / "probe.json")
    rc = main(["probe", ck, data, "--probe-seeds", "2", "--report", report])
    assert rc == 0
    rep = json.load(open(report))
    assert {"pretrained_mse", "random_init_mse"} <= set(rep)
    assert "probe MSE" in capsys.readouterr().out


def test_eval_and_probe_without_report_write_no_file(trained, tmp_path, monkeypatch):
    ck, data, _ = trained
    monkeypatch.chdir(tmp_path)
    assert main(["eval", ck, "--probe-set", data, "--n-rotations", "2",
                 "--max-probes", "1"]) == 0
    assert main(["probe", ck, data, "--probe-seeds", "2"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_eval_and_probe_manifest_sits_next_to_report(trained, tmp_path):
    ck, data, _ = trained
    for command, extra in (("eval", ["--probe-set", data, "--n-rotations", "2",
                                     "--max-probes", "1"]),
                           ("probe", [data, "--probe-seeds", "2"])):
        report = str(tmp_path / f"{command}.json")
        assert main([command, ck, *extra, "--report", report]) == 0
        manifest = json.load(open(report + ".manifest.json"))
        assert manifest["command"] == command
        assert manifest["outputs"] == [report]


def test_checkpoint_config_mismatch_is_runtime_error(trained, tmp_path, capsys):
    ck, _, _ = trained
    bad = _with_meta(ck, tmp_path / "bad.ck",
                     lambda m: m | {"net": m["net"] | {"latent": 20}})
    rc = main(["sample", bad, "--out", str(tmp_path / "x.jsonl"),
               "--count", "1", "--steps", "2"])
    assert rc == 1
    assert "shape mismatch" in capsys.readouterr().err


def test_round_trip_reads_net_and_schedule_from_checkpoint(tmp_path):
    ck, _ = _pretrain(tmp_path, extra=["--schedule-kind", "VE"])
    data = str(tmp_path / "data.jsonl")
    out = str(tmp_path / "s.jsonl")
    assert main(["sample", ck, "--out", out, "--count", "2", "--n-atoms", "3",
                 "--steps", "4", "--seed", "5"]) == 0
    assert main(["eval", ck, "--probe-set", data, "--n-rotations", "2",
                 "--max-probes", "1", "--report", str(tmp_path / "eval.json")]) == 0
    assert main(["probe", ck, data, "--probe-seeds", "2",
                 "--report", str(tmp_path / "probe.json")]) == 0

    params, _, _ = load_checkpoint(ck)
    sampler = SamplerConfig(steps=4, lam=0.0, n_atoms=3, seed=5, t_end=1e-3)

    def direct(kind):
        sched = NoiseSchedule(kind=kind)
        graphs = generate(params, NET, sched, sampler, 2)
        return "".join(serialize_molecule(g) + "\n" for g in graphs).encode()

    written = open(out, "rb").read()
    assert written == direct("VE")
    assert written != direct("VP")  # the schedule matters, so it came from the checkpoint


def test_previous_format_meta_serves_sample_eval_and_probe(trained, tmp_path):
    # checkpoints written before share_encoders and cutoff became constants
    # store them in meta["net"] at the one value the code now fixes
    ck, data, _ = trained
    old = _with_meta(ck, tmp_path / "old.ck",
                     lambda m: m | {"net": m["net"] | {"share_encoders": False,
                                                       "cutoff": 5.0}})
    assert set(load_checkpoint(old)[2]["net"]) >= {"share_encoders", "cutoff"}
    flags = ["--count", "2", "--n-atoms", "3", "--steps", "4", "--seed", "5"]
    new_out, old_out = str(tmp_path / "new.jsonl"), str(tmp_path / "old.jsonl")
    assert main(["sample", ck, "--out", new_out, *flags]) == 0
    assert main(["sample", old, "--out", old_out, *flags]) == 0
    assert open(old_out, "rb").read() == open(new_out, "rb").read()
    assert main(["eval", old, "--probe-set", data, "--n-rotations", "2",
                 "--max-probes", "1"]) == 0
    assert main(["probe", old, data, "--probe-seeds", "2"]) == 0


@pytest.mark.parametrize("argv, message", [
    (["pretrain", "{data}", "--out", "{out}", "--epochs", "0"], "--epochs: must be a positive"),
    (["pretrain", "{data}", "--out", "{out}", "--latent", "0"], "--latent: must be a positive"),
    (["pretrain", "{data}", "--out", "{out}", "--d-time", "7"], "d_time must be even"),
    (["sample", "{ck}", "--out", "{out}", "--n-atoms", "0"], "--n-atoms: must be a positive"),
    (["eval", "{ck}", "--probe-set", "{data}", "--max-probes", "0", "--report", "{out}"],
     "--max-probes: must be a positive"),
    (["probe", "{ck}", "{data}", "--probe-seeds", "0", "--report", "{out}"],
     "--probe-seeds: must be a positive"),
    (["pretrain", "{data}", "--out", "{out}", "--tau0", "0"], "tau0 must be finite and > 0"),
    (["pretrain", "{data}", "--out", "{out}", "--lr", "nan"], "lr must be a finite learning"),
    (["pretrain", "{data}", "--out", "{out}", "--lr", "inf"], "lr must be a finite learning"),
    (["pretrain", "{data}", "--out", "{out}", "--lambda1", "-1"], "lambda1 must be finite"),
    (["pretrain", "{data}", "--out", "{out}", "--t-min", "1.5"], "t_min must be in (0, 1)"),
    (["pretrain", "{data}", "--out", "{out}", "--self-cond-prob", "2"],
     "self_cond_prob must be in [0, 1]"),
    (["pretrain", "{data}", "--out", "{out}", "--beta-max", "inf"], "beta_max must be finite"),
    (["sample", "{ck}", "--out", "{out}", "--t-min", "1.5"], "t_end must be in (0, 1.0)"),
    (["sample", "{ck}", "--out", "{out}", "--t-min", "-0.5"], "t_end must be in (0, 1.0)"),
    (["sample", "{ck}", "--out", "{out}", "--t-min", "1.0"], "t_end must be in (0, 1.0)"),
    (["sample", "{ck}", "--out", "{out}", "--lam", "nan"], "lam must be finite and >= 0"),
    (["sample", "{ck}", "--out", "{out}", "--lam", "inf"], "lam must be finite and >= 0"),
    (["pretrain", "{data}", "--out", "{out}", "--beta-min", "0", "--beta-max", "0"],
     "beta_max must be > 0 for VP"),
])
def test_flags_that_cannot_do_work_are_usage_errors(trained, tmp_path, capsys, argv, message):
    ck, data, _ = trained
    argv = [a.format(ck=ck, data=data, out=str(tmp_path / "out")) for a in argv]
    try:
        rc = main(argv)
    except SystemExit as e:
        rc = e.code
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_sampler_failure_is_a_named_runtime_error(trained, tmp_path, capsys, monkeypatch):
    """A NaN in the score rows of path 2 of a 3-path group exits 1 with an
    error naming that sample, and writes no file."""
    ck, _, _ = trained
    real_forward = sampling.forward

    def poisoned(*args):
        record = real_forward(*args)
        rows = record["score_P"].data
        rows[2 * rows.shape[0] // 3] = np.nan  # the first atom row of path 2
        return record

    monkeypatch.setattr(sampling, "forward", poisoned)
    assert main(["sample", ck, "--out", str(tmp_path / "s.jsonl"), "--steps", "2",
                 "--count", "3"]) == 1
    assert capsys.readouterr().err == "error: non-finite P score of sample 2 at t=1.0000\n"
    assert not os.listdir(tmp_path)


def test_sample_rejects_net_flags(trained, tmp_path):
    ck, _, _ = trained
    with pytest.raises(SystemExit) as e:
        main(["sample", ck, "--out", str(tmp_path / "x.jsonl"), "--latent", "12"])
    assert e.value.code == 2


def test_checkpoint_without_schedule_serves_eval_not_sample(trained, tmp_path, capsys):
    # the meta older checkpoints carry: a net config and no schedule
    ck, data, _ = trained
    old = _with_meta(ck, tmp_path / "old.ck",
                     lambda m: {k: v for k, v in m.items() if k != "schedule"})
    assert main(["probe", old, data, "--probe-seeds", "2",
                 "--report", str(tmp_path / "probe.json")]) == 0
    capsys.readouterr()
    assert main(["sample", old, "--out", str(tmp_path / "x.jsonl"), "--count", "1"]) == 1
    assert "error: checkpoint meta has no 'schedule'" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda m: {k: v for k, v in m.items() if k != "net"}, "no 'net'"),
    (lambda m: m | {"net": {k: v for k, v in m["net"].items() if k != "latent"}},
     "'net' has no 'latent'"),
    (lambda m: m | {"net": m["net"] | {"width": 3}}, "unknown keys ['width']"),
    (lambda m: m | {"net": m["net"] | {"latent": "12"}}, "net.latent is '12'"),
    (lambda m: m | {"schedule": m["schedule"] | {"steps": 1000}},
     "unknown keys ['steps']"),
    (lambda m: m | {"schedule": m["schedule"] | {"kind": None}}, "schedule.kind is None"),
    (lambda m: m | {"schedule": m["schedule"] | {"kind": "XX"}}, "unknown schedule kind"),
    (lambda m: m | {"net": m["net"] | {"share_encoders": True}},
     "net.share_encoders is True"),
    (lambda m: m | {"net": m["net"] | {"cutoff": 4.0}}, "net.cutoff is 4.0"),
])
def test_checkpoint_meta_errors_name_the_key(trained, tmp_path, capsys, edit, message):
    ck, _, _ = trained
    bad = _with_meta(ck, tmp_path / "bad.ck", edit)
    assert main(["sample", bad, "--out", str(tmp_path / "x.jsonl"), "--count", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("header", [
    {"adam_step": 0},
    ["not", "an", "object"],
    {"tensors": [{"name": "param/w", "shape": [1]}], "adam_step": 0},
])
def test_sample_malformed_checkpoint_header_is_runtime_error(tmp_path, capsys, header):
    bad = write_raw_checkpoint(tmp_path / "bad.ck", header)
    assert main(["sample", bad, "--out", str(tmp_path / "x.jsonl")]) == 1
    assert "error: checkpoint" in capsys.readouterr().err


def test_selftest_passes_and_writes_manifest(tmp_path, capsys):
    manifest = str(tmp_path / "selftest.manifest.json")
    assert main(["selftest", "--manifest", manifest]) == 0
    assert "[PASS]" in capsys.readouterr().out
    written = json.load(open(manifest))
    assert written["command"] == "selftest"
    assert written["seed"] is None  # selftest's seeds are fixed
    assert written["peak_rss_mb"] > 0
    assert isinstance(written["minor_faults"], int) and written["minor_faults"] >= 0


@pytest.mark.parametrize("argv", [["selftest", "--seed", "3"],
                                  ["ingest", "in.jsonl", "out.jsonl", "--seed", "3"]])
def test_commands_that_read_no_seed_take_no_seed_flag(argv, tmp_path, monkeypatch, capsys):
    """ingest draws nothing and selftest uses fixed seeds: --seed is a usage error."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_selftest_without_manifest_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["selftest"]) == 0
    assert "[PASS]" in capsys.readouterr().out
    assert os.listdir(tmp_path) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        main(["--version"])
    assert e.value.code == 0
