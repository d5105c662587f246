import json
import re
from fractions import Fraction

import pytest

from dpierce import (
    DIntervalFamily,
    GenConfig,
    Graph,
    HostTree,
    InstanceFormatError,
    PQParameters,
    ProjectiveParams,
    SubforestFamily,
    TreeDecomposition,
    TwInstance,
    dumps_instance,
    from_json_dict,
    lift_family,
    loads_instance,
    make_family,
    planted_pq_family,
    planted_pq_subforests,
    projective_instance,
    random_d_intervals,
    random_subforests,
    random_tree,
    random_tw_graph,
    to_json_dict,
)


def test_interval_roundtrip():
    f = random_d_intervals(GenConfig(seed=11, n_edges=6, d=3))
    loaded = loads_instance(dumps_instance(f))
    assert isinstance(loaded, DIntervalFamily)
    assert dumps_instance(loaded) == dumps_instance(f)


def test_subforest_roundtrip():
    host = random_tree(GenConfig(seed=3, host_size=9))
    f = random_subforests(host, GenConfig(seed=4, host_size=9, n_edges=5, d=2))
    loaded = loads_instance(dumps_instance(f))
    assert isinstance(loaded, SubforestFamily)
    assert dumps_instance(loaded) == dumps_instance(f)


def test_tw_roundtrip():
    tw = random_tw_graph(GenConfig(seed=5, host_size=6, n_edges=4, d=2), 2)
    loaded = loads_instance(dumps_instance(tw))
    assert isinstance(loaded, TwInstance)
    assert dumps_instance(loaded) == dumps_instance(tw)


def test_tw_edges_keep_the_order_of_the_file():
    # graph.edges and bag_tree are both read as given, unsorted, so the file
    # writes back byte for byte
    text = (
        '{"bag_tree":[[1,2],[0,1]],"bags":[[2,3],[1,2],[0,1]],"d":1,'
        '"graph":{"edges":[[2,3],[1,2],[0,1]],"n":4},"k":1,'
        '"subgraphs":[[0,1]],"type":"tw_graph"}\n'
    )
    tw = loads_instance(text)
    assert tw.graph.edges == ((2, 3), (1, 2), (0, 1))
    assert dumps_instance(tw) == text


# every generator, each family built at a few seeds; tw at d=3, where the
# components of its subgraphs often stay below d
ROUNDTRIP_CASES = {
    "random_d_intervals": lambda s: random_d_intervals(GenConfig(seed=s, n_edges=6, d=3)),
    "planted_pq_family": lambda s: planted_pq_family(GenConfig(seed=s, n_edges=8, d=2), PQParameters(3, 2)),
    "random_subforests": lambda s: random_subforests(
        random_tree(GenConfig(seed=s, host_size=9)), GenConfig(seed=s, host_size=9, n_edges=5, d=3)
    ),
    "planted_pq_subforests": lambda s: planted_pq_subforests(
        GenConfig(seed=s, n_edges=6, d=2, host_size=9), PQParameters(4, 2)
    ),
    "random_tw_graph": lambda s: random_tw_graph(GenConfig(seed=s, n_edges=6, d=3, host_size=8), 1),
    "projective": lambda s: projective_instance(ProjectiveParams(2, 2 + s % 2)).realization,
}


@pytest.mark.parametrize("build", ROUNDTRIP_CASES.values(), ids=ROUNDTRIP_CASES.keys())
def test_a_family_is_what_its_file_holds(build):
    for seed in range(4):
        family = build(seed)
        assert loads_instance(dumps_instance(family)) == family


def test_rationals_accept_fraction_strings():
    f = loads_instance(
        '{"type":"d_intervals","d":1,"edges":[[["-1/2","3/4"]],[["2","3"]]]}'
    )
    from fractions import Fraction

    assert f.edges[0].parts[0].lo == Fraction(-1, 2)
    assert f.edges[0].parts[0].hi == Fraction(3, 4)


def test_error_paths_are_precise():
    with pytest.raises(InstanceFormatError, match="edges\\[0\\]\\[1\\]\\[0\\]"):
        loads_instance(
            '{"type":"d_intervals","d":2,"edges":[[["0","1"],[4,"5"]]]}'
        )
    with pytest.raises(InstanceFormatError, match="lo 2 exceeds hi 1"):
        loads_instance('{"type":"d_intervals","d":1,"edges":[[["2","1"]]]}')
    with pytest.raises(InstanceFormatError, match="edges\\[0\\]"):
        loads_instance(
            '{"type":"d_intervals","d":1,"edges":[[["0","1"],["2","3"]]]}'
        )  # two parts with d = 1
    with pytest.raises(InstanceFormatError, match="not a rational"):
        loads_instance('{"type":"d_intervals","d":1,"edges":[[["zero","1"]]]}')
    # only "num/den" or a bare integer: no decimal, exponent, underscore, space or plus
    for text in ("0.5", "1e3", "1_000", " 3/4 ", "3/4\n", "+3", "1/-2", "", "1e999999999"):
        doc = json.dumps({"type": "d_intervals", "d": 1, "edges": [[["0", text]]]})
        message = f"edges[0][0][1]: not a rational: {text!r} is not \"num/den\" or an integer"
        with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
            loads_instance(doc)
    with pytest.raises(InstanceFormatError, match="type"):
        loads_instance('{"type":"simplices"}')
    with pytest.raises(InstanceFormatError, match="invalid JSON at line 1"):
        loads_instance("{nope")


def test_tree_errors():
    with pytest.raises(InstanceFormatError, match="tree"):
        loads_instance(
            '{"type":"tree_subgraphs","d":1,"tree":{"n":3,"edges":[[0,1]]},"subgraphs":[[0]]}'
        )
    with pytest.raises(InstanceFormatError, match="subgraphs"):
        loads_instance(
            '{"type":"tree_subgraphs","d":1,"tree":{"n":3,"edges":[[0,1],[1,2]]},"subgraphs":[[0,2]]}'
        )  # 2 components but d=1
    with pytest.raises(InstanceFormatError, match="subgraphs\\[0\\]"):
        loads_instance(
            '{"type":"tree_subgraphs","d":1,"tree":{"n":2,"edges":[[0,1]]},"subgraphs":[[]]}'
        )


@pytest.mark.parametrize(
    "d, subgraphs, message",
    [
        (1, [[0], [0, 2]], r"^subgraphs\[1\]: induces 2 components > d=1$"),
        (1, [[0], [5, 1]], r"^subgraphs\[1\]\[0\]: vertex 5 outside graph 0\.\.2$"),
        (1, [[0], []], r"^subgraphs\[1\]: subgraph must be nonempty$"),
        (0, [[0]], r"^d: must be positive, got 0$"),
    ],
    ids=["too-many-components", "out-of-range", "empty", "d=0"],
)
def test_tree_member_errors_name_their_path(d, subgraphs, message):
    # a tree file's members are read and checked like a tw_graph file's
    doc = {"type": "tree_subgraphs", "d": d, "tree": {"n": 3, "edges": [[0, 1], [1, 2]]}}
    with pytest.raises(InstanceFormatError, match=message):
        from_json_dict(dict(doc, subgraphs=subgraphs))


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (0, [], "graph needs at least one vertex, got n=0"),
        (3, [[0, 5], [1, 2]], "edge (0,5) out of range 0..2"),
        (3, [[1, 1], [1, 2]], "self-loop at vertex 1"),
    ],
    ids=["n=0", "out-of-range", "self-loop"],
)
def test_tree_and_graph_objects_fail_alike(n, edges, message):
    # a tree file's host and a tw file's graph are one {n, edges} object,
    # read by one reader: only the prefix differs
    raw = {"n": n, "edges": edges}
    tree_doc = {"type": "tree_subgraphs", "d": 1, "tree": raw, "subgraphs": [[0]]}
    tw_doc = {
        "type": "tw_graph", "d": 1, "k": 0, "graph": raw,
        "bags": [[0]], "bag_tree": [], "subgraphs": [[0]],
    }
    for key, doc in (("tree", tree_doc), ("graph", tw_doc)):
        with pytest.raises(InstanceFormatError) as exc:
            from_json_dict(doc)
        assert str(exc.value) == f"{key}: {message}"
    with pytest.raises(InstanceFormatError, match=r"^graph\.n: expected an integer$"):
        from_json_dict(dict(tw_doc, graph={"edges": []}))
    with pytest.raises(InstanceFormatError, match=r"^tree\.edges\[0\]: expected a pair"):
        from_json_dict(dict(tree_doc, tree={"n": 2, "edges": [[0]]}))


def test_tw_errors():
    doc = {
        "type": "tw_graph",
        "d": 1,
        "k": 1,
        "graph": {"n": 3, "edges": [[0, 1], [1, 2]]},
        "bags": [[0, 1], [2]],
        "bag_tree": [[0, 1]],
        "subgraphs": [[0]],
    }
    with pytest.raises(InstanceFormatError, match="edge \\(1,2\\)"):
        from_json_dict(doc)
    with pytest.raises(InstanceFormatError, match="^bags: bag 1 is empty$"):
        from_json_dict(dict(doc, bags=[[0, 1, 2], []]))
    doc["bags"] = [[0, 1, 2], [1, 2]]
    with pytest.raises(InstanceFormatError, match="exceeds k"):
        from_json_dict(doc)
    doc["k"] = 2
    out = from_json_dict(doc)
    assert out.d == 1
    doc2 = dict(doc)
    doc2["subgraphs"] = [[0, 99]]
    with pytest.raises(InstanceFormatError, match="subgraphs\\[0\\]\\[1\\]"):
        from_json_dict(doc2)
    # d is read, not computed: it is required, and it bounds the components
    doc3 = dict(doc)
    del doc3["d"]
    with pytest.raises(InstanceFormatError, match="^d: expected an integer"):
        from_json_dict(doc3)
    doc3["d"] = 0
    with pytest.raises(InstanceFormatError, match="^d: must be positive"):
        from_json_dict(doc3)
    doc4 = dict(doc, graph={"n": 3, "edges": [[0, 1]]}, bags=[[0, 1], [2]])
    doc4["subgraphs"] = [[0, 1], [0, 2]]  # {0} and {2}: 2 components
    with pytest.raises(InstanceFormatError, match=r"^subgraphs\[1\]: induces 2 components > d=1"):
        from_json_dict(doc4)
    doc4["d"] = 2
    assert from_json_dict(doc4).d == 2


def test_to_json_dict_rejects_unknown():
    with pytest.raises(TypeError):
        to_json_dict(42)


# d as a caller might hand it to a constructor: ints, small and large, then
# values that are not ints, bool among them
D_VALUES = [1, 2, 3, 10**20, 0, -1, 2.5, 2.0, True, False, "2", None, Fraction(2)]
PATH = ((0, 1), (1, 2))
BAGS = TreeDecomposition(HostTree(2, ((0, 1),)), ({0, 1}, {1, 2}))


def _built_with(d):
    """Builders of a d-interval, a d-tree and a tree-width family, each given `d`."""
    return {
        "make_family": lambda: make_family(d, [[(0, 1)], [(2, 3)]]),
        "DIntervalFamily": lambda: DIntervalFamily(d=d, edges=()),
        "SubforestFamily": lambda: SubforestFamily(host=HostTree(3, PATH), d=d, edges=([0, 1], [2])),
        "TwInstance": lambda: TwInstance(Graph(3, PATH), BAGS, ([0, 1], [2]), d=d),
    }


@pytest.mark.parametrize("d", D_VALUES, ids=repr)
def test_every_family_a_constructor_accepts_round_trips_through_its_file(d):
    # a family is refused where it is built, or its file reads back as it;
    # before d was checked there, d = 2.5 or True was written and then refused
    for name, build in _built_with(d).items():
        try:
            family = build()
        except ValueError as exc:
            assert type(d) is not int or d < 1, (name, exc)
            continue
        assert type(d) is int and d >= 1, name
        assert loads_instance(dumps_instance(family)) == family, name


@pytest.mark.parametrize("d", [2.5, 2.0, True, False, "2", None, Fraction(2)], ids=repr)
def test_a_d_that_is_not_an_int_is_refused_as_its_file_is(d):
    message = f"^d: expected an integer, got {re.escape(repr(d))}$"
    for build in _built_with(d).values():
        with pytest.raises(ValueError, match=message):
            build()
    with pytest.raises(ValueError, match=message):
        lift_family(Graph(3, PATH), BAGS, [[0, 1]], d=d)
    if d is not None and not isinstance(d, Fraction):
        text = json.dumps({"type": "d_intervals", "d": d, "edges": [[["0", "1"]]]})
        with pytest.raises(InstanceFormatError, match="^d: expected an integer$"):
            loads_instance(text)
