import pytest

import dpierce.campaign as campaign_mod
from dpierce import (
    CampaignConfigError,
    GenConfig,
    dump_instance,
    random_d_intervals,
    run_campaign,
)


def test_empty_config():
    report, code = run_campaign({"campaigns": []})
    assert code == 0
    assert report["campaigns"] == []
    assert report["all_satisfied"] is True


def test_planted_campaign_all_satisfied():
    report, code = run_campaign(
        {
            "campaigns": [
                {
                    "name": "t1",
                    "kinds": ["DPP_STAR", "DPP_TAU", "ALON"],
                    "p": 2,
                    "q": 2,
                    "source": {
                        "generator": "planted_intervals",
                        "count": 6,
                        "seed": 10,
                        "n_edges": 8,
                        "d": 2,
                    },
                }
            ]
        }
    )
    assert code == 0
    camp = report["campaigns"][0]
    assert camp["tallies"] == {
        "applicable": 18,
        "satisfied": 18,
        "unsatisfied": 0,
        "inapplicable": 0,
    }
    assert "DPP_STAR" in camp["max_measured_over_bound"]
    # reports are sorted by (seed, kind)
    seeds = [r["seed"] for r in camp["reports"]]
    assert seeds == sorted(seeds)


def test_zero_instances_exit_zero():
    report, code = run_campaign(
        {
            "campaigns": [
                {
                    "name": "empty",
                    "kinds": ["GALLAI"],
                    "source": {"generator": "random_intervals", "count": 0, "seed": 1},
                }
            ]
        }
    )
    assert code == 0
    assert report["campaigns"][0]["reports"] == []
    assert report["campaigns"][0]["tallies"]["applicable"] == 0


def test_files_source(tmp_path):
    f = random_d_intervals(GenConfig(seed=2, n_edges=7, d=1))
    path = tmp_path / "inst.json"
    dump_instance(f, path)
    report, code = run_campaign(
        {
            "campaigns": [
                {
                    "name": "gallai",
                    "kinds": ["GALLAI"],
                    "source": {"files": [str(path)]},
                }
            ]
        }
    )
    assert code == 0
    assert report["campaigns"][0]["tallies"]["satisfied"] == 1


def test_files_source_keeps_instance_order(tmp_path):
    # each file's reports stay together, in file order, sorted by kind, and
    # say which file they came from
    paths = []
    for name, seed in (("b.json", 3), ("a.json", 4)):
        paths.append(str(tmp_path / name))
        dump_instance(random_d_intervals(GenConfig(seed=seed, n_edges=6, d=1)), paths[-1])
    report, code = run_campaign(
        {"campaigns": [{"kinds": ["GALLAI", "ALON"], "source": {"files": paths}}]}
    )
    assert code == 0
    entries = report["campaigns"][0]["reports"]
    assert [(r["file"], r["kind"]) for r in entries] == [
        (paths[0], "ALON"),
        (paths[0], "GALLAI"),
        (paths[1], "ALON"),
        (paths[1], "GALLAI"),
    ]


def test_tw_campaign():
    report, code = run_campaign(
        {
            "campaigns": [
                {
                    "name": "tw",
                    "kinds": ["TW_TAU"],
                    "p": 2,
                    "q": 2,
                    "source": {
                        "generator": "tw",
                        "count": 5,
                        "seed": 3,
                        "n_edges": 6,
                        "d": 2,
                        "host_size": 6,
                        "width": 2,
                    },
                }
            ]
        }
    )
    assert code == 0
    tallies = report["campaigns"][0]["tallies"]
    assert tallies["unsatisfied"] == 0
    assert tallies["applicable"] + tallies["inapplicable"] == 5


def test_config_errors():
    with pytest.raises(CampaignConfigError):
        run_campaign({"no": "campaigns"})
    with pytest.raises(CampaignConfigError):
        run_campaign({"campaigns": [{"kinds": ["NOPE"], "source": {}}]})
    with pytest.raises(CampaignConfigError):
        run_campaign(
            {"campaigns": [{"kinds": ["ALON"], "source": {"generator": "warp"}}]}
        )
    with pytest.raises(CampaignConfigError):
        run_campaign(
            {
                "campaigns": [
                    {
                        "kinds": ["DPP_STAR"],
                        "p": 2,
                        "source": {"generator": "planted_intervals", "count": "x", "seed": 0},
                    }
                ]
            }
        )
    with pytest.raises(CampaignConfigError):
        run_campaign(
            {
                "campaigns": [
                    {
                        "kinds": ["DPP_STAR"],
                        "q": 2,  # q without p
                        "source": {"generator": "planted_intervals", "count": 1, "seed": 0},
                    }
                ]
            }
        )


@pytest.mark.parametrize("files", ["x.json", None, [1], ["a.json", ["b.json"]]])
def test_files_must_be_a_list_of_strings(files):
    config = {"campaigns": [{"kinds": ["ALON"], "source": {"files": files}}]}
    with pytest.raises(CampaignConfigError, match="source.files"):
        run_campaign(config)


@pytest.mark.parametrize("campaigns", [5, None, {"x": 1}, "pp-bounds"])
def test_campaigns_must_be_a_list(campaigns):
    with pytest.raises(CampaignConfigError, match="^campaigns: expected a list"):
        run_campaign({"campaigns": campaigns})


@pytest.mark.parametrize("kinds", [{"GALLAI": 1}, "ALON", None, ["ALON", 3]])
def test_kinds_must_be_a_list_of_strings(kinds):
    config = {"campaigns": [{"kinds": kinds, "source": {"files": []}}]}
    with pytest.raises(CampaignConfigError, match="kinds: expected a list of strings"):
        run_campaign(config)


def test_negative_count_is_rejected():
    source = {"generator": "random_intervals", "count": -3, "seed": 1}
    with pytest.raises(CampaignConfigError, match="source.count"):
        run_campaign({"campaigns": [{"kinds": ["GALLAI"], "source": source}]})


@pytest.mark.parametrize(
    "source, field",
    [
        ({"generator": "bogus", "count": 0, "seed": 1}, "source.generator"),
        ({"count": 0, "seed": 1}, "source.generator"),
        ({"generator": "planted_intervals", "count": 0, "seed": 1}, "p, q"),
        ({"generator": "planted_subforests", "count": 0, "seed": 1}, "p, q"),
    ],
)
def test_generator_is_checked_even_without_instances(source, field):
    # an empty source runs no instance, so a bad generator or a planted
    # generator without p and q must be caught before any is generated; the
    # message starts with the generator's config path either way
    reason = {"source.generator": "unknown generator", "p, q": "needs p and q"}[field]
    with pytest.raises(CampaignConfigError, match=rf"^campaigns\[0\]\.source\.generator: .*{reason}"):
        run_campaign({"campaigns": [{"kinds": ["ALON"], "source": source}]})


@pytest.mark.parametrize(
    "generator, p",
    [("random_intervals", 3.5), ("planted_intervals", 3.0)],
)
def test_non_int_p_is_a_config_error(generator, p):
    # a float p once ran as if it were valid: a DPQ_TAU pass with "p": 3.5 on
    # random families, and a TypeError traceback inside the planted generator
    source = {"generator": generator, "count": 2, "seed": 1, "n_edges": 6, "d": 2}
    config = {"campaigns": [{"kinds": ["DPQ_TAU"], "p": p, "q": 2, "source": source}]}
    with pytest.raises(CampaignConfigError, match=r"bad p/q: p: expected an int"):
        run_campaign(config)


@pytest.mark.parametrize(
    "source, field",
    [
        ({"generator": "random_intervals", "n_edges": 0}, "n_edges"),
        ({"generator": "random_intervals", "seed": -5}, "seed"),
        ({"generator": "random_subforests", "d": 0}, "d"),
        ({"generator": "tw", "width": -1}, "width"),
        ({"generator": "projective", "dimension": 1, "field_order": 2}, "dimension"),
        ({"generator": "projective", "dimension": 2, "field_order": 4}, "field_order"),
        # (9,2) needs 8 anchor vertices
        ({"generator": "planted_subforests", "host_size": 3, "p": 9, "q": 2}, "host_size"),
    ],
)
def test_out_of_range_source_values_are_config_errors(source, field):
    # these once escaped as a bare ValueError or NotPrime, without the config path
    source = {"count": 1, "seed": 1, **source}
    # p and q belong to the campaign, not to its source
    pq = {key: source.pop(key) for key in ("p", "q") if key in source}
    # the second campaign, so the path must carry its index
    campaigns = [{"kinds": ["ALON"], "source": {"files": []}}, {"kinds": ["ALON"], **pq, "source": source}]
    with pytest.raises(CampaignConfigError, match=rf"^campaigns\[1\]\.source\.{field}: expected"):
        run_campaign({"campaigns": campaigns})


def test_violation_reporting_and_exit_code(monkeypatch):
    # the checked bounds all hold, so force an unsatisfied report to exercise the
    # failure path: exit code 1 and an embedded instance for replay
    real = campaign_mod.verify_bundle

    def sabotage(family, kinds, params=None, seed=0):
        reports = real(family, kinds, params=params, seed=seed)
        out = []
        for r in reports:
            out.append(
                campaign_mod.BoundReport(
                    **{
                        **r.__dict__,
                        "satisfied": False if r.applicable else None,
                    }
                )
            )
        return out

    monkeypatch.setattr(campaign_mod, "verify_bundle", sabotage)
    report, code = run_campaign(
        {
            "campaigns": [
                {
                    "name": "sab",
                    "kinds": ["GALLAI"],
                    "source": {
                        "generator": "random_intervals",
                        "count": 2,
                        "seed": 5,
                        "n_edges": 5,
                        "d": 1,
                    },
                }
            ]
        }
    )
    assert code == 1
    assert report["all_satisfied"] is False
    failing = [r for r in report["campaigns"][0]["reports"] if r["satisfied"] is False]
    assert failing and all("instance" in r for r in failing)
    # the embedded instance is a loadable replay payload
    from dpierce import from_json_dict

    from_json_dict(failing[0]["instance"])


def test_projective_source():
    report, code = run_campaign(
        {
            "campaigns": [
                {
                    "name": "fano",
                    "kinds": ["DPP_STAR", "ALON"],
                    "p": 2,
                    "q": 2,
                    "source": {"generator": "projective", "dimension": 2, "field_order": 2},
                }
            ]
        }
    )
    assert code == 0
    assert report["campaigns"][0]["tallies"]["satisfied"] == 2
