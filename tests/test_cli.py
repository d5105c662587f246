import json

import pytest

from dpierce import (
    GenConfig,
    PQParameters,
    ProjectiveParams,
    dumps_instance,
    planted_pq_family,
    planted_pq_subforests,
    projective_instance,
    random_d_intervals,
    random_subforests,
    random_tree,
    random_tw_graph,
)
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


_CFG = GenConfig(seed=3, n_edges=7, d=3, coord_denominator=5, host_size=9)
_KNOBS = ("--seed", "3", "--edges", "7", "--d", "3", "--denominator", "5", "--host-size", "9")


@pytest.mark.parametrize(
    "kind, argv, direct",
    [
        ("random-intervals", (), random_d_intervals),
        ("planted-intervals", (), lambda cfg: planted_pq_family(cfg, PQParameters(2, 2))),
        ("planted-intervals", ("--p", "4"), lambda cfg: planted_pq_family(cfg, PQParameters(4, 4))),
        ("random-trees", (), lambda cfg: random_subforests(random_tree(cfg), cfg)),
        ("planted-trees", ("--p", "5", "--q", "3"),
         lambda cfg: planted_pq_subforests(cfg, PQParameters(5, 3))),
        ("projective", (), lambda cfg: projective_instance(ProjectiveParams(2, 2)).realization),
        ("projective", ("--dimension", "3", "--field-order", "3"),
         lambda cfg: projective_instance(ProjectiveParams(3, 3)).realization),
        ("tw", (), lambda cfg: random_tw_graph(cfg, 1)),
        ("tw", ("--width", "2"), lambda cfg: random_tw_graph(cfg, 2)),
    ],
    ids=[
        "random-intervals", "planted-intervals", "planted-intervals-p4", "random-trees",
        "planted-trees-p5-q3", "projective", "projective-k3-q3", "tw", "tw-width2",
    ],
)
def test_gen_writes_the_generators_instance(kind, argv, direct, capsys):
    # gen builds its family through a campaign source; it must write what the
    # generator itself returns, with the GenConfig defaults and with every
    # knob given
    for knobs, cfg in (((), GenConfig(seed=1)), (_KNOBS, _CFG)):
        code, out, _ = run(capsys, "gen", "--kind", kind, *knobs, *argv)
        assert code == 0
        assert out == dumps_instance(direct(cfg))


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--kind", "tw", "--width", "-1"), "gen.width: expected at least 0, got -1"),
        (("--kind", "random-trees", "--edges", "0"), "gen.n_edges: expected at least 1, got 0"),
        (("--kind", "planted-trees", "--p", "7", "--q", "2", "--host-size", "5"),
         "gen.host_size: expected at least 6 for the anchors of p=7, q=2, got 5"),
        # --q 0 no longer falls back to p
        (("--kind", "planted-intervals", "--p", "3", "--q", "0"), "need p >= q >= 2"),
    ],
    ids=["width", "edges", "host-size", "q"],
)
def test_gen_knobs_are_checked_like_a_campaign_source(argv, message, capsys):
    code, out, err = run(capsys, "gen", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message), err


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


def test_verify_reads_k_from_the_file(tmp_path, capsys):
    # the width is the decomposition's: there is no --k to override it
    inst = tmp_path / "tw.json"
    run(capsys, "gen", "--kind", "tw", "--width", "2", "-o", str(inst))
    code, out, _ = run(capsys, "verify", str(inst), "--kind", "TW_TAU", "--p", "6", "--q", "2")
    assert code == 0 and json.loads(out)["k"] == 2
    # no long option is abbreviated, so --k is no prefix of --kind but an unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["verify", str(inst), "--kind", "TW_TAU", "--p", "6", "--q", "2", "--k", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --k 9" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "FILE", "--kin", "DPQ_TAU"], "unrecognized arguments: --kin DPQ_TAU"),
        (["gen", "--kind", "projective", "--se", "3"], "unrecognized arguments: --se 3"),
    ],
    ids=["verify-kin", "gen-se"],
)
def test_long_options_must_be_spelled_out(tmp_path, capsys, argv, message):
    inst = tmp_path / "fam.json"
    run(capsys, "gen", "--kind", "random-intervals", "-o", str(inst))
    with pytest.raises(SystemExit) as exc:
        main([str(inst) if arg == "FILE" else arg for arg in argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "--kin", "projective"], "unrecognized arguments: --kin projective"),
        (["check-pq", "FILE", "--pp", "3", "--q", "2"], "unrecognized arguments: --pp 3"),
        (["check-pq", "FILE", "--p", "3", "--qq", "2"], "unrecognized arguments: --qq 2"),
        (["verify", "FILE", "--kinds", "DPQ_TAU"], "unrecognized arguments: --kinds DPQ_TAU"),
        (["campaign", "--conf", "c.json"], "unrecognized arguments: --conf c.json"),
        (["sharpness", "--dimension", "2", "--primes", "2"],
         "unrecognized arguments: --dimension 2"),
        (["sharpness", "--dim", "2", "--prime", "2"], "unrecognized arguments: --prime 2"),
        # with nothing left over, a missing option is still named as one
        (["check-pq", "FILE"], "the following arguments are required: --p, --q"),
        (["sharpness", "--primes", "2"], "the following arguments are required: --dim"),
    ],
)
def test_a_mistyped_required_option_is_named_unrecognized(tmp_path, capsys, argv, message):
    inst = tmp_path / "fam.json"
    run(capsys, "gen", "--kind", "random-intervals", "-o", str(inst))
    with pytest.raises(SystemExit) as exc:
        main([str(inst) if arg == "FILE" else arg for arg in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert ("required" in message) == ("required" in err)


@pytest.mark.parametrize(
    "kind, pq, got",
    [("planted-trees", ["--p", "3", "--q", "2"], "tree"), ("random-intervals", [], "interval")],
    ids=["trees", "intervals-without-p"],
)
def test_verify_tw_tau_without_a_width_is_inapplicable(tmp_path, capsys, kind, pq, got):
    # only a tw_graph file has a width: TW_TAU is inapplicable on the others,
    # decided before its parameters are read
    inst = tmp_path / "fam.json"
    run(capsys, "gen", "--kind", kind, *pq, "-o", str(inst))
    code, out, err = run(capsys, "verify", str(inst), "--kind", "TW_TAU", *pq)
    doc = json.loads(out)
    assert code == 0 and err == ""
    assert doc["applicable"] is False and doc["satisfied"] is None and doc["k"] is None
    assert doc["reason"] == f"TW_TAU applies to tree-width families, got {got}"


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
