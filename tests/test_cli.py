"""Command-line surface: exit codes, outputs, config handling, determinism."""

import json
import subprocess
import sys

import pytest

from tropical_pants.cli import main
from tropical_pants.serialization import parse_off


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_tables(capsys):
    code, out, _ = run(capsys, "verify-tables")
    assert code == 0
    assert "96/96" in out


def test_subdivide_with_json(capsys, tmp_path):
    path = tmp_path / "sub.json"
    code, out, _ = run(capsys, "subdivide", "--d", "2", "--json", str(path))
    assert code == 0
    assert "8 unimodular cells" in out
    data = json.loads(path.read_text())
    assert data["schema"] == 1
    assert data["cell_count"] == "8"


def test_usage_errors(capsys):
    assert run(capsys, "subdivide", "--d", "0")[0] == 2
    assert run(capsys, "subdivide", "--no-such-flag")[0] == 2
    assert run(capsys, "pants", "--d", "3")[0] == 2  # too small to classify
    assert run(capsys, "invariants", "--d-range", "4..5")[0] == 2


def test_pants_json_and_dot(capsys, tmp_path):
    dot = tmp_path / "graph.dot"
    code, out, _ = run(capsys, "pants", "--d", "5", "--dot", str(dot))
    assert code == 0
    data = json.loads(out)
    assert data["t_o"]["count"] == "5"
    assert data["k3_cover_identity"] == "pass"
    assert dot.read_text().count(" -- ") == 30


def test_identities(capsys, tmp_path):
    path = tmp_path / "certs.json"
    code, out, _ = run(capsys, "identities", "--d", "5", "--json", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["cells"][0]["monomials_verified"] == "56"
    certs = json.loads(path.read_text())
    assert len(certs["certificates"]) == 1


@pytest.mark.parametrize("d", [5, 6])
def test_identities_json_holds_every_inner_cell(capsys, tmp_path, d):
    path = tmp_path / "certs.json"
    code, out, _ = run(capsys, "identities", "--d", str(d), "--json", str(path))
    assert code == 0
    certs = json.loads(path.read_text())["certificates"]
    assert len(certs) == (d - 4) ** 3
    assert [c["cell"] for c in certs] == [c["cell"] for c in json.loads(out)["cells"]]


def test_tropical_mesh(capsys, tmp_path):
    path = tmp_path / "d1.off"
    code, out, _ = run(capsys, "tropical", "--d", "1", "--mesh", str(path))
    assert code == 0
    verts, faces = parse_off(path)
    assert len(faces) == 6
    code, _, _ = run(
        capsys, "tropical", "--d", "1", "--mesh", str(tmp_path / "d1.obj"),
        "--bbox", "0,20,0,20,0,26",
    )
    assert code == 0
    obj = (tmp_path / "d1.obj").read_text()
    assert obj.startswith("v ")
    assert sum(1 for line in obj.splitlines() if line.startswith("f ")) == 6


def test_invariants_range(capsys):
    code, out, _ = run(capsys, "invariants", "--d-range", "5..6")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["entries"][0]["K2"] == "5"
    assert data["entries"][1]["tau"] == "-64"


def test_period_consistency(capsys):
    code, out, _ = run(
        capsys, "period", "--d", "1", "--m", "0,0,0", "--mprime", "0,0,1",
        "--t", "e16", "--res", "8", "--mode", "consistency",
    )
    assert code == 0
    data = json.loads(out)
    assert float(data["relative_error"]) < 1e-6
    assert float(data["target"]) == pytest.approx(39.4784176, rel=1e-6)


def test_period_explicit_window(capsys):
    code, out, _ = run(
        capsys, "period", "--d", "1", "--m", "0,0,0", "--mprime", "0,0,1",
        "--t", "e16", "--res", "8", "--window", "5.5,5.5,12.5:6.5,6.5,13.5",
    )
    assert code == 0
    assert float(json.loads(out)["relative_error"]) < 0.1


def test_amoeba_and_converge_determinism(capsys, tmp_path):
    args = [
        "amoeba", "--d", "1", "--t-list", "e8",
        "--grid", "0:16:3,0:16:3,2,2", "--out", str(tmp_path),
    ]
    assert run(capsys, *args)[0] == 0
    first = {
        p.name: p.read_bytes() for p in tmp_path.iterdir()
    }
    assert run(capsys, *args)[0] == 0
    second = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert first == second
    assert any(name.startswith("amoeba_d1") for name in first)

    cargs = [
        "converge", "--d", "1", "--t-list", "e4,e8",
        "--grid", "0:16:3,0:16:3,2,2", "--out", str(tmp_path),
    ]
    assert run(capsys, *cargs)[0] == 0
    csv1 = (tmp_path / "convergence_d1.csv").read_bytes()
    assert run(capsys, *cargs)[0] == 0
    assert (tmp_path / "convergence_d1.csv").read_bytes() == csv1


def test_run_config_echo(capsys, tmp_path):
    args = [
        "amoeba", "--d", "1", "--t-list", "e4",
        "--grid", "0:8:2,0:8:2,2,2", "--out", str(tmp_path),
    ]
    assert run(capsys, *args)[0] == 0
    cfg = json.loads((tmp_path / "run_config.json").read_text())
    assert cfg["schema"] == 1
    assert cfg["command"] == "amoeba"
    assert cfg["config"]["d"] == 1


def test_config_file_overrides_flags(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 5\n")
    code, out, _ = run(capsys, "--config", str(cfg), "subdivide", "--d", "2")
    assert code == 0
    assert "125 unimodular cells" in out

    jcfg = tmp_path / "run.json"
    jcfg.write_text(json.dumps({"d": 3}))
    code, out, _ = run(capsys, "--config", str(jcfg), "subdivide", "--d", "2")
    assert code == 0
    assert "27 unimodular cells" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense_key = 1\n")
    assert run(capsys, "--config", str(bad), "subdivide", "--d", "2")[0] == 2
    # the removed thread-count setting is now an unknown key
    stale = tmp_path / "threads.cfg"
    stale.write_text("threads = 2\n")
    amoeba = ["amoeba", "--d", "1", "--t-list", "e4", "--grid", "0:8:2,0:8:2,2,2",
              "--out", str(tmp_path)]
    assert run(capsys, "--config", str(stale), *amoeba)[0] == 2
    assert run(capsys, "--config", str(tmp_path / "missing.cfg"), "subdivide", "--d", "2")[0] == 2


@pytest.mark.parametrize("entry", ["fn=x", "command=amoeba", "config=other.cfg"])
def test_config_rejects_parser_entries(capsys, tmp_path, entry):
    # the parser's own namespace entries are not settings a config may set
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(entry + "\n")
    out = tmp_path / "out"
    code, _, err = run(capsys, "--config", str(cfg), "invariants", "--d-range", "5..6")
    assert code == 2
    assert f"unknown config key {entry.partition('=')[0]!r}" in err
    amoeba = ["amoeba", "--d", "1", "--t-list", "e4", "--grid", "0:8:2,0:8:2,2,2",
              "--out", str(out)]
    assert run(capsys, "--config", str(cfg), *amoeba)[0] == 2
    assert not (out / "run_config.json").exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "tropical_pants.cli", "verify-tables"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "96/96" in proc.stdout
