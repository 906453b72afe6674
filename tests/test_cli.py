"""CLI: generate → build → query → certify round trips."""

import numpy as np
import pytest

from repro.cli import main
from repro.serialize import load_graph, load_hopset


@pytest.fixture
def graph_file(tmp_path):
    p = tmp_path / "g.npz"
    assert main(["gen", str(p), "--family", "er", "--n", "40", "--seed", "3"]) == 0
    return p


def test_gen_families(tmp_path):
    for fam in ("er", "path", "layered", "powerlaw", "wide"):
        p = tmp_path / f"{fam}.npz"
        assert main(["gen", str(p), "--family", fam, "--n", "24", "--seed", "1"]) == 0
        g = load_graph(p)
        assert g.n >= 2 and g.num_edges > 0


def test_gen_unknown_family(tmp_path):
    assert main(["gen", str(tmp_path / "x.npz"), "--family", "nope"]) == 2


def test_build_and_info(tmp_path, graph_file, capsys):
    from repro.hopsets.multi_scale import build_hopset
    from repro.hopsets.params import HopsetParams

    h = tmp_path / "h.npz"
    assert main(["build", str(graph_file), str(h), "--beta", "6"]) == 0
    assert main(["info", str(h)]) == 0
    out = capsys.readouterr().out
    assert "hopset" in out and "beta=6" in out
    _, report = build_hopset(load_graph(graph_file), HopsetParams(beta=6))
    assert report.replayed_scales
    assert f"{len(report.replayed_scales)} of {len(report.scales)} scales replayed" in out
    assert main(["info", str(graph_file)]) == 0


def test_build_with_paths_and_spt(tmp_path, graph_file):
    h = tmp_path / "h.npz"
    assert main(["build", str(graph_file), str(h), "--beta", "6", "--paths"]) == 0
    hop = load_hopset(h)
    assert all(e.path is not None for e in hop.edges)
    tree = tmp_path / "t.npz"
    assert main(["spt", str(graph_file), str(h), "--source", "0", "--out", str(tree)]) == 0
    with np.load(tree) as data:
        assert data["parent"].shape == (40,)


def test_sssp_writes_distances(tmp_path, graph_file):
    h = tmp_path / "h.npz"
    main(["build", str(graph_file), str(h), "--beta", "8"])
    out = tmp_path / "d.npz"
    assert main(["sssp", str(graph_file), str(h), "--source", "0", "--out", str(out)]) == 0
    with np.load(out) as data:
        assert np.isfinite(data["dist"]).all()
        assert data["dist"][0] == 0.0


def test_certify_pass_and_fail(tmp_path, graph_file):
    h = tmp_path / "h.npz"
    main(["build", str(graph_file), str(h), "--beta", "8"])
    assert main(["certify", str(graph_file), str(h), "--epsilon", "0.25"]) == 0
    # an impossible demand (1 hop, tiny epsilon) must exit nonzero
    assert main(
        ["certify", str(graph_file), str(h), "--beta", "1", "--epsilon", "0.0001"]
    ) == 1


def test_reduced_build(tmp_path):
    g = tmp_path / "wide.npz"
    main(["gen", str(g), "--family", "wide", "--n", "28", "--aspect", "1e5", "--seed", "5"])
    h = tmp_path / "h.npz"
    assert main(["build", str(g), str(h), "--beta", "8", "--reduce"]) == 0
    assert main(["sssp", str(g), str(h), "--source", "0"]) == 0


def test_reduced_paths_build_and_spt(tmp_path):
    g = tmp_path / "wide.npz"
    main(["gen", str(g), "--family", "wide", "--n", "24", "--aspect", "1e4", "--seed", "6"])
    h = tmp_path / "h.npz"
    assert main(["build", str(g), str(h), "--beta", "8", "--reduce", "--paths"]) == 0
    assert main(["spt", str(g), str(h), "--source", "0"]) == 0


@pytest.mark.parametrize("family", ["er", "grid"])
def test_trace_build_two_families(tmp_path, family, capsys):
    """Acceptance: traced build emits a valid Chrome trace with ≥95% span
    coverage and finite Theorem 3.7 watchdog constants on two families."""
    import json

    g = tmp_path / "g.npz"
    assert main(["gen", str(g), "--family", family, "--n", "49", "--seed", "9"]) == 0
    h = tmp_path / "h.npz"
    trace = tmp_path / "trace.json"
    jsonl = tmp_path / "spans.jsonl"
    assert main(
        [
            "trace", "build", str(g), str(h), "--beta", "6",
            "--trace-out", str(trace), "--jsonl", str(jsonl),
        ]
    ) == 0
    # the wrapped build still produced its artifact
    assert load_hopset(h).num_records >= 0
    doc = json.loads(trace.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit", "otherData"}
    x_events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert x_events and all(e["dur"] >= 0 for e in x_events)
    other = doc["otherData"]
    assert other["span_coverage"] >= 0.95
    assert other["total_work"] > 0
    assert other["graph"]["n"] == 49
    watchdogs = {w["name"]: w for w in other["watchdogs"]}
    assert set(watchdogs) == {"thm3.7-depth", "thm3.7-work"}
    for w in watchdogs.values():
        assert w["constant"] > 0 and w["shape"] > 0
    # per-scale attribution is visible on the trace
    assert any(e["name"].startswith("scale") for e in x_events)
    assert "metrics" in other and other["metrics"]["counters"]["cost.work"] > 0
    assert len(jsonl.read_text().splitlines()) >= 2
    out = capsys.readouterr().out
    assert "theorem watchdogs" in out and "span coverage" in out
    assert "scales replayed" in out


def test_trace_sssp_reports_query_watchdogs(tmp_path, graph_file, capsys):
    import json

    h = tmp_path / "h.npz"
    main(["build", str(graph_file), str(h), "--beta", "8"])
    trace = tmp_path / "q.json"
    assert main(
        ["trace", "sssp", str(graph_file), str(h), "--source", "0",
         "--trace-out", str(trace)]
    ) == 0
    doc = json.loads(trace.read_text())
    names = {w["name"] for w in doc["otherData"]["watchdogs"]}
    assert names == {"thm3.8-query-depth", "thm3.8-query-work"}
    assert doc["otherData"]["command"] == "sssp"


def test_edge_list_text_input(tmp_path):
    txt = tmp_path / "g.txt"
    txt.write_text("# comment\n0 1 1.0\n1 2 2.0\n2 3 1.5\n")
    h = tmp_path / "h.npz"
    assert main(["build", str(txt), str(h), "--beta", "4"]) == 0
    assert main(["sssp", str(txt), str(h), "--source", "0"]) == 0


@pytest.fixture
def hopset_file(tmp_path, graph_file):
    h = tmp_path / "h.npz"
    assert main(["build", str(graph_file), str(h), "--beta", "8"]) == 0
    return h


def test_oracle_point_queries(graph_file, hopset_file, capsys):
    rc = main([
        "oracle", str(graph_file), str(hopset_file),
        "--query", "0", "5", "--query", "5", "0", "--query", "3", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "dist(0, 5)" in out and "dist(3, 3) ≈ 0" in out
    # the reverse query answers from the cached forward exploration
    assert "1 cache hits" in out and "explorations" in out


def test_oracle_batch_matches_sssp(tmp_path, graph_file, hopset_file):
    batch = tmp_path / "batch.npz"
    rc = main([
        "oracle", str(graph_file), str(hopset_file),
        "--batch", "0,3", "--out", str(batch),
    ])
    assert rc == 0
    single = tmp_path / "d0.npz"
    assert main([
        "sssp", str(graph_file), str(hopset_file), "--source", "0",
        "--out", str(single),
    ]) == 0
    with np.load(batch) as b, np.load(single) as s:
        assert np.array_equal(b["sources"], [0, 3])
        assert np.array_equal(b["dist"][0], s["dist"])


def test_oracle_interactive_loop(graph_file, hopset_file, capsys, monkeypatch):
    import io

    monkeypatch.setattr(
        "sys.stdin", io.StringIO("query 0 5\nstats\nquery 0 9999\nnonsense\nquit\n")
    )
    assert main(["oracle", str(graph_file), str(hopset_file)]) == 0
    out = capsys.readouterr().out
    assert "dist(0, 5)" in out
    assert "cached_sources" in out          # stats line
    assert "error: vertex 9999" in out      # bad query handled, loop continues
    assert "unrecognized" in out
    assert "oracle stats:" in out


def test_query_commands_accept_backend_flag(tmp_path, graph_file, hopset_file):
    base = tmp_path / "base.npz"
    shd = tmp_path / "shd.npz"
    assert main([
        "sssp", str(graph_file), str(hopset_file), "--source", "0",
        "--backend", "serial", "--out", str(base),
    ]) == 0
    assert main([
        "sssp", str(graph_file), str(hopset_file), "--source", "0",
        "--backend", "sharded:2", "--out", str(shd),
    ]) == 0
    with np.load(base) as b, np.load(shd) as s:
        assert np.array_equal(b["dist"], s["dist"])
        assert np.array_equal(b["parent"], s["parent"])
    assert main([
        "oracle", str(graph_file), str(hopset_file),
        "--query", "0", "1", "--backend", "serial",
    ]) == 0


def test_bad_backend_spec_is_rejected(graph_file, hopset_file):
    from repro.pram.errors import InvalidStepError

    with pytest.raises(InvalidStepError):
        main([
            "sssp", str(graph_file), str(hopset_file), "--source", "0",
            "--backend", "warp-drive",
        ])


def test_oracle_routes_cache_stats_through_metrics(graph_file, hopset_file, capsys):
    rc = main([
        "oracle", str(graph_file), str(hopset_file),
        "--query", "0", "5", "--query", "5", "0", "--query", "0", "7",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    # forward explores (miss), reverse hits the cache, third reuses source 0
    assert "oracle.cache.hit=2" in out
    assert "oracle.cache.miss=1" in out


def test_profile_build_prints_attribution_and_flame(tmp_path, graph_file, capsys):
    h = tmp_path / "h.npz"
    flame = tmp_path / "build.folded"
    rc = main([
        "profile", "build", str(graph_file), str(h), "--beta", "6",
        "--top", "5", "--flame-out", str(flame),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "per-scale (inclusive)" in out
    assert "per-scale phase wall (exclusive)" in out
    assert "hot primitives (top 5" in out
    assert flame.exists() and flame.stat().st_size > 0
    for line in flame.read_text().splitlines():
        frames, value = line.rsplit(" ", 1)
        assert frames.startswith("build") and int(value) > 0


def test_profile_sssp_runs(tmp_path, graph_file, hopset_file, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # default flame path lands in cwd
    rc = main(["profile", "sssp", str(graph_file), str(hopset_file), "--source", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "hot primitives" in out
    assert (tmp_path / "profile_sssp.folded").exists()


def test_trace_sharded_emits_worker_lanes_and_health(tmp_path, graph_file,
                                                    hopset_file, capsys):
    import json

    from repro.pram.backends.base import _SINGLETONS

    trace = tmp_path / "t.json"
    # the default min_arcs guard keeps tiny graphs serial; force engagement
    from repro.pram.backends.sharded import ShardedBackend

    be = ShardedBackend(workers=2, min_arcs=1)
    _SINGLETONS["sharded:2"] = be
    try:
        rc = main([
            "trace", "sssp", str(graph_file), str(hopset_file), "--source", "0",
            "--backend", "sharded:2", "--trace-out", str(trace),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "backend health" in out and "per-worker compute" in out
        doc = json.loads(trace.read_text())
        names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {"parent", "worker 0", "worker 1"}
    finally:
        _SINGLETONS.pop("sharded:2", None)
        be.close()
