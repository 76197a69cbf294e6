import json
import math

import pytest

from kinlab.cli import main


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_distance_subcommand(capsys):
    code, out = run(capsys, ["distance", "--s", "0.5",
                             "--z1", "0,0,0", "--z2", "0,0,0.7"])
    assert code == 0
    rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
    assert list(rows) == ["left", "scaling", "euclid"]
    assert float(rows["scaling"]) == pytest.approx(0.7)
    assert float(rows["euclid"]) == pytest.approx(0.7)
    assert 0 < float(rows["left"]) <= 0.7 + 1e-9


def test_kernel_check_subcommand(tmp_path, capsys):
    cfg = tmp_path / "k.json"
    cfg.write_text(json.dumps({"form": "stable", "s": 0.5, "d": 1}))
    code, out = run(capsys, ["kernel-check", "--config", str(cfg)])
    assert code == 0
    lam = float(next(l for l in out.splitlines() if l.startswith("Lambda")).split(",")[2])
    assert lam == pytest.approx(2.0, abs=1e-8)


@pytest.mark.parametrize("form", ["ring", "bank"])
def test_kernel_check_builds_ring_and_bank_kernels(form, tmp_path, capsys):
    from kinlab.harness import kernel_bank
    from kinlab.kernels import RingMeasure, ellipticity_report

    spec, K = {"ring": ({"masses": {"0": 1.0, "-1": 0.5}}, RingMeasure(0.5, 1, {0: 1.0, -1: 0.5})),
               "bank": ({"name": "ring"}, kernel_bank(0.5)["ring"])}[form]
    cfg = tmp_path / "k.json"
    cfg.write_text(json.dumps({"form": form, "s": 0.5, **spec}))
    code, out = run(capsys, ["kernel-check", "--config", str(cfg)])
    assert code == 0
    assert f"Lambda,,{ellipticity_report(K)['Lambda']:.12g}" in out.splitlines()
    if form == "ring":
        assert {"ring_mass,0,1", "ring_mass,-1,0.5"} <= set(out.splitlines())


def test_apply_op_subcommand(tmp_path, capsys):
    cfg = tmp_path / "a.json"
    cfg.write_text(json.dumps({
        "kernel": {"form": "stable", "s": 0.5, "d": 1},
        "field": "cos", "v0": [0.0], "reg": [1.0, 0.5],
    }))
    code, out = run(capsys, ["apply-op", "--config", str(cfg)])
    assert code == 0
    value, bound = (float(p) for p in out.strip().splitlines()[1].split(","))
    assert value == pytest.approx(-math.pi, abs=1e-4)
    assert bound < 1e-3


def test_solve_subcommand(tmp_path, capsys):
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({
        "kernel": {"form": "stable", "s": 0.5, "d": 1},
        "modes": [[0, 1, 0.5, 0.0]],
        "t_grid": [1.0],
    }))
    code, out = run(capsys, ["solve", "--config", str(cfg)])
    assert code == 0
    row = next(l for l in out.splitlines() if l.startswith("1.0,0,1,"))
    assert float(row.split(",")[3]) == pytest.approx(0.5 * math.exp(-math.pi), abs=1e-10)


def test_solve_subcommand_prints_real_indices_off_the_lattice(tmp_path, capsys):
    # at t = 0.25 the x-mode (1, 1) lands at v-index 0.75; the x-independent (0, 2) stays put
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({
        "kernel": {"form": "stable", "s": 0.5, "d": 1},
        "modes": [[1, 1, 0.5, 0.0], [0, 2, 0.25, 0.0]],
        "t_grid": [0.25],
    }))
    code, out = run(capsys, ["solve", "--config", str(cfg)])
    assert code == 0
    rows = {tuple(l.split(",")[1:3]): float(l.split(",")[3]) for l in out.splitlines()[1:]}
    assert set(rows) == {("1", "0.75"), ("-1", "-0.75"), ("0", "2"), ("0", "-2")}
    # psi(u) = pi |u| at s = 1/2: the x-mode decays by exp(-int_0.75^1 pi u du)
    assert rows[("1", "0.75")] == pytest.approx(0.5 * math.exp(-math.pi * (1 - 0.75**2) / 2), rel=1e-13)
    assert rows[("0", "2")] == pytest.approx(0.25 * math.exp(-2 * math.pi * 0.25), rel=1e-13)


def test_solve_subcommand_reads_the_symbol_once_per_modulus(tmp_path, capsys, monkeypatch):
    # five times, and |xi| = 2 of a mode, 1 of the stable kernel's x-mode (psi(1) scales its
    # line integral) and 1 and 3 of the source: three symbol calls in all
    from kinlab import spectral

    calls, symbol = [], spectral.symbol
    monkeypatch.setattr(spectral, "symbol", lambda K, xi: calls.append(xi[0]) or symbol(K, xi))
    cfg = tmp_path / "s.json"
    cfg.write_text(json.dumps({
        "kernel": {"form": "stable", "s": 0.5, "d": 1},
        "modes": [[1, 1, 0.5, 0.0], [0, 2, 0.25, 0.0]],
        "source": [[0, 1, 0.1, 0.0, 0.0], [0, -3, 0.05, 0.02, 1.5]],
        "t_grid": [0.0, 0.25, 0.5, 1.0, 2.0],
    }))
    code, out = run(capsys, ["solve", "--config", str(cfg)])
    assert code == 0
    assert {l.split(",")[0] for l in out.splitlines()[1:]} == {"0.0", "0.25", "0.5", "1.0", "2.0"}
    assert sorted(calls) == [1.0, 2.0, 3.0]


def test_liouville_subcommand_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "s": 0.5, "poly": [[0, 0, 2, 1.0]],
        "kernel": {"form": "truncated", "s": 0.5, "d": 1},
        "xi": [-0.3, 0.2, 0.4],
    }))
    code, out = run(capsys, ["liouville", "--config", str(good)])
    assert code == 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "s": 0.5, "poly": [[1, 0, 1, 1.0]],
        "kernel": {"form": "truncated", "s": 0.5, "d": 1},
        "xi": [-0.3, 0.2, 0.4],
    }))
    code, _ = run(capsys, ["liouville", "--config", str(bad)])
    assert code == 1


@pytest.mark.parametrize("argv, named", [
    (["sweep", "--s", "0.5", "--ladder", "6"], "ladder needs at least two"),
    (["distance", "--s", "1.5", "--z1", "0,0,0", "--z2", "0,0,0.7"], "s must lie in"),
    (["distance", "--s", "0.5", "--z1", "0,0", "--z2", "0,0,0.7"], "point needs"),
], ids=["one-grid-ladder", "s-out-of-range", "short-point"])
def test_rejected_input_exits_2_with_one_line(argv, named, capsys):
    # status 1 means a failed certificate; rejected input is argparse's status 2
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("kinlab: error: ") and named in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("cmd, spec, named", [
    ("kernel-check", {"form": "cone", "s": 0.5}, "unknown kernel form 'cone'"),
    ("apply-op", {"kernel": {"form": "stable", "s": 0.5}, "field": "vsq", "v0": [0.0]},
     "quadratic field needs a compactly supported kernel"),
], ids=["unknown-form", "vsq-on-stable"])
def test_rejected_config_exits_2_with_one_line(cmd, spec, named, tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(spec))
    with pytest.raises(SystemExit) as exit_:
        main([cmd, "--config", str(cfg)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("kinlab: error: ") and named in err
    assert err.count("\n") == 1


def test_sweep_subcommand_writes_report(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code = main(["sweep", "--s", "0.5", "--ladder", "6,12", "--out", str(out_file)])
    assert code in (0, 1)
    text = out_file.read_text()
    assert text.startswith("kernel,s,grid")
    assert "flag,passed,drift" in text


def test_apply_op_rejects_a_v0_of_the_wrong_dimension(tmp_path, capsys):
    cfg = tmp_path / "a.json"
    cfg.write_text(json.dumps({
        "kernel": {"form": "stable", "s": 0.5, "d": 2}, "field": "cos", "v0": [0.3],
    }))
    with pytest.raises(SystemExit) as exit_:
        main(["apply-op", "--config", str(cfg)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("kinlab: error: v0 ") and "[0.3]" in err
