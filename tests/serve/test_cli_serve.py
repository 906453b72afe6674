"""CLI: ``repro serve`` probe/warm-boot flows and ``repro store {ls,gc}``."""

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    g = root / "g.npz"
    h = root / "h.npz"
    assert main(["gen", str(g), "--family", "layered", "--n", "30", "--seed", "9"]) == 0
    assert main(["build", str(g), str(h), "--beta", "8"]) == 0
    return g, h


def test_serve_probe_answers_and_prints_stats(artifacts, capsys):
    g, h = artifacts
    assert main(["serve", str(g), str(h), "--probe", "dist 0 5"]) == 0
    out = capsys.readouterr().out
    assert "ok dist 0 5 " in out
    assert "serve stats:" in out
    assert "tier-2 explorations" in out and "matrix passes" in out


def test_serve_probe_mssp_block_loop_matches_matrix(artifacts, capsys):
    """--mssp-block 1 (one source per matrix pass) serves the identical reply."""
    g, h = artifacts
    probes = ["--probe", "dist 0 5", "--probe", "dist 3 7"]
    assert main(["serve", str(g), str(h), *probes]) == 0
    matrix = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("ok ")
    ]
    assert main(["serve", str(g), str(h), *probes,
                 "--mssp-block", "1"]) == 0
    looped = [
        line for line in capsys.readouterr().out.splitlines()
        if line.startswith("ok ")
    ]
    assert matrix == looped


@pytest.mark.parametrize(
    "flag, value, least",
    [
        ("--max-batch", "0", 1), ("--cache-size", "0", 1), ("--pair-cache", "-1", 0),
        ("--mssp-block", "0", 1),
    ],
)
def test_serve_rejects_bad_sizes_as_usage_errors(artifacts, capsys, flag, value, least):
    """A bad size is a usage error (exit 2, one line), not a traceback."""
    g, h = artifacts
    assert main(["serve", str(g), str(h), "--probe", "dist 0 5", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"{flag} must be >= {least}, got {value}"]
    assert "ok dist" not in captured.out


def test_serve_warm_requires_store(artifacts, capsys):
    g, h = artifacts
    assert main(["serve", str(g), "--warm", "--probe", "dist 0 1"]) == 2
    assert "--warm needs --store" in capsys.readouterr().err


def test_serve_without_hopset_or_warm_errors(artifacts, capsys):
    g, _ = artifacts
    assert main(["serve", str(g), "--probe", "dist 0 1"]) == 2
    assert "need a hopset artifact" in capsys.readouterr().err


def test_serve_warm_boot_files_then_hits(artifacts, tmp_path, capsys):
    g, _ = artifacts
    store = tmp_path / "store"
    # cold boot: store miss -> fresh build, filed under the content key
    assert main(["serve", str(g), "--warm", "--store", str(store),
                 "--probe", "dist 0 5"]) == 0
    cold = capsys.readouterr().out
    cold_reply = next(l for l in cold.splitlines() if l.startswith("ok dist"))

    assert main(["store", "ls", str(store)]) == 0
    listing = capsys.readouterr().out
    assert "1 artifacts" in listing and "hopset-" in listing

    # warm boot: the filed artifact serves the bit-identical answer
    assert main(["serve", str(g), "--warm", "--store", str(store),
                 "--probe", "dist 0 5"]) == 0
    warm = capsys.readouterr().out
    warm_reply = next(l for l in warm.splitlines() if l.startswith("ok dist"))
    assert warm_reply == cold_reply

    # gc everything away; the listing goes back to empty
    assert main(["store", "gc", str(store), "--keep-newest", "0"]) == 0
    assert "removed 1 artifacts" in capsys.readouterr().out
    assert main(["store", "ls", str(store)]) == 0
    assert "0 artifacts" in capsys.readouterr().out


def test_store_gc_without_bounds_is_an_error(tmp_path, capsys):
    assert main(["store", "gc", str(tmp_path)]) == 2
    assert "--keep-newest" in capsys.readouterr().err
