import json

from dpierce.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_solve_roundtrip(tmp_path, capsys):
    inst = tmp_path / "fano.json"
    code, _, _ = run(capsys, "gen", "--kind", "projective", "--dimension", "2",
                     "--field-order", "2", "-o", str(inst))
    assert code == 0
    code, out, _ = run(capsys, "solve", str(inst))
    assert code == 0
    doc = json.loads(out)
    assert doc["nu"] == 1
    assert doc["tau"] == 3
    assert doc["tau_star"] == "7/3"
    assert doc["r"] == 3
    assert len(doc["witness_cover"]) == 3
    assert len(doc["witness_matching"]) == 1


def test_gen_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        code, _, _ = run(capsys, "gen", "--kind", "planted-intervals", "--seed", "9",
                         "--edges", "8", "--d", "2", "--p", "3", "--q", "2",
                         "-o", str(path))
        assert code == 0
    assert a.read_text() == b.read_text()


def test_check_pq_exit_codes(tmp_path, capsys):
    ok = tmp_path / "ok.json"
    ok.write_text('{"type":"d_intervals","d":1,"edges":[[["0","2"]],[["1","3"]]]}')
    code, out, _ = run(capsys, "check-pq", str(ok), "--p", "2", "--q", "2")
    assert code == 0
    assert json.loads(out)["holds"] is True

    bad = tmp_path / "bad.json"
    bad.write_text('{"type":"d_intervals","d":1,"edges":[[["0","1"]],[["2","3"]]]}')
    code, out, _ = run(capsys, "check-pq", str(bad), "--p", "2", "--q", "2")
    assert code == 1
    doc = json.loads(out)
    assert doc["holds"] is False
    assert doc["counterexample"] == [0, 1]


def test_verify_gallai(tmp_path, capsys):
    inst = tmp_path / "ivals.json"
    code, _, _ = run(capsys, "gen", "--kind", "random-intervals", "--seed", "4",
                     "--edges", "9", "--d", "1", "-o", str(inst))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(inst), "--kind", "GALLAI")
    assert code == 0
    doc = json.loads(out)
    assert doc["applicable"] and doc["satisfied"]
    assert doc["tau"] == doc["nu"]


def test_verify_tw(tmp_path, capsys):
    inst = tmp_path / "tw.json"
    code, _, _ = run(capsys, "gen", "--kind", "tw", "--seed", "5", "--width", "2",
                     "--edges", "5", "--d", "2", "--host-size", "6", "-o", str(inst))
    assert code == 0
    code, out, _ = run(capsys, "verify", str(inst), "--kind", "TW_TAU",
                       "--p", "2", "--q", "2")
    doc = json.loads(out)
    if doc["applicable"]:
        assert code == 0 and doc["satisfied"]
    else:
        assert code == 0 and doc["counterexample"] is not None


def test_invalid_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"type":"d_intervals","d":1,"edges":[[["2","1"]]]}')
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "lo 2 exceeds hi 1" in err
    code, _, _ = run(capsys, "solve", str(tmp_path / "missing.json"))
    assert code == 2


def test_sharpness_table_and_json(capsys):
    code, out, err = run(capsys, "sharpness", "--dim", "2", "--primes", "2,3")
    assert code == 0
    rows = json.loads(out)
    assert [r["field_order"] for r in rows] == [2, 3]
    assert rows[0]["tau_star"] == "7/3"
    assert "tau*" in err  # plain-text table on stderr


def test_campaign_cli(tmp_path, capsys):
    config = tmp_path / "camp.json"
    config.write_text(json.dumps({
        "campaigns": [{
            "name": "smoke",
            "kinds": ["DPP_STAR", "ALON"],
            "p": 2, "q": 2,
            "source": {"generator": "planted_intervals", "count": 5, "seed": 1,
                        "n_edges": 6, "d": 2},
        }]
    }))
    code, out, _ = run(capsys, "campaign", "--config", str(config))
    assert code == 0
    doc = json.loads(out)
    assert doc["all_satisfied"] is True
    assert doc["campaigns"][0]["tallies"]["unsatisfied"] == 0
    assert doc["campaigns"][0]["tallies"]["applicable"] == 10


def test_campaign_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text('{"campaigns": [{"kinds": ["NOPE"], "source": {}}]}')
    code, _, err = run(capsys, "campaign", "--config", str(config))
    assert code == 2
    assert "error" in err


def test_unreadable_or_unwritable_path_exits_2(tmp_path, capsys):
    # a directory is neither an instance, a config nor an output file
    inst = tmp_path / "fano.json"
    run(capsys, "gen", "--kind", "projective", "-o", str(inst))
    for argv in (
        ("solve", str(tmp_path)),
        ("campaign", "--config", str(tmp_path)),
        ("gen", "--kind", "projective", "-o", str(tmp_path)),
        ("solve", str(inst), "-o", str(tmp_path)),
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: "), argv
