"""The experiments command-line entry point."""

import pytest

from repro.experiments.__main__ import main
from repro.workloads import tracecache


def test_list_prints_registry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("fig2", "fig8", "tab4", "fig18", "robust-graphs", "shape"):
        assert name in out


def test_single_experiment_runs_and_renders(capsys):
    assert main(["tab4"]) == 0
    out = capsys.readouterr().out
    assert "Table 4" in out
    assert "astar (4wide)" in out


def test_unknown_experiment_errors():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "results.md"
    assert main(["tab4", "--out", str(path)]) == 0
    text = path.read_text()
    assert text.startswith("# PFM reproduction results")
    assert "Table 4" in text


def test_window_flag_threads_through(capsys):
    assert main(["astar-mpki", "--window", "6000"]) == 0
    out = capsys.readouterr().out
    assert "MPKI" in out


def test_no_experiment_and_no_smoke_errors():
    with pytest.raises(SystemExit):
        main([])


def test_smoke_with_experiment_errors():
    with pytest.raises(SystemExit):
        main(["fig8", "--smoke"])


@pytest.mark.parametrize("argv", [
    ["fig8", "--window", "300"],
    ["all", "--window", "300"],
    ["list"],
    ["trace", "--smoke"],
])
def test_json_with_an_experiment_that_writes_none_errors(tmp_path, argv):
    json_path = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--no-cache", "--json", str(json_path)])
    assert exc.value.code == 2
    assert not json_path.exists()


def test_smoke_runs_parallel_and_writes_json(tmp_path, capsys):
    json_path = tmp_path / "smoke.json"
    assert main([
        "--smoke", "--window", "800", "--jobs", "2", "--no-cache",
        "--json", str(json_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "Sweep" in out and "jobs=2" in out
    payload = json_path.read_text()
    assert '"window": 800' in payload


def test_sweep_json_identical_across_jobs(tmp_path, capsys):
    paths = {}
    for jobs in ("1", "2"):
        paths[jobs] = tmp_path / f"sweep{jobs}.json"
        assert main([
            "sweep", "--window", "800", "--jobs", jobs, "--no-cache",
            "--json", str(paths[jobs]),
        ]) == 0
    capsys.readouterr()
    assert paths["1"].read_bytes() == paths["2"].read_bytes()


def test_jobs_flag_on_figure_experiment(tmp_path, capsys):
    assert main([
        "astar-mpki", "--window", "2000", "--jobs", "2",
        "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    out = capsys.readouterr().out
    assert "MPKI" in out
    # results persisted to the content-addressed store for later runs
    assert list((tmp_path / "cache" / "store").glob("??/*.json"))
    # finished sweeps leave no checkpoint behind
    assert not list(
        (tmp_path / "cache" / "checkpoints").glob("*.jsonl")
    )


def test_list_prints_cli_surface(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for verb in ("sweep", "trace", "cache", "shard-merge"):
        assert f"  {verb}" in out
    assert "workloads:" in out and "backends:" not in out
    assert "serve" not in out and "service" not in out


def test_sharded_sweep_merge_byte_identical_to_single_host(tmp_path, capsys):
    """The distributed-sweep contract, end to end through the CLI: two
    shard invocations into separate stores, merged and rendered, produce
    the same JSON bytes as one unsharded run."""
    unsharded = tmp_path / "unsharded.json"
    assert main([
        "sweep", "--window", "800", "--no-cache", "--json", str(unsharded),
    ]) == 0
    for index in ("1", "2"):
        assert main([
            "sweep", "--window", "800", "--shard", f"{index}/2",
            "--no-cache", "--store", str(tmp_path / f"store-{index}"),
        ]) == 0
    out = capsys.readouterr().out
    assert "shard 1/2: ran" in out and "shard 2/2: ran" in out

    merged = tmp_path / "merged.json"
    assert main([
        "shard-merge", str(tmp_path / "store-1"), str(tmp_path / "store-2"),
        "--store", str(tmp_path / "store-merged"),
        "--window", "800", "--json", str(merged),
    ]) == 0
    out = capsys.readouterr().out
    assert "0 conflict(s) kept ours" in out
    assert "0 simulated" in out  # every grid point was a store hit
    assert unsharded.read_bytes() == merged.read_bytes()


def test_shard_summary_json_and_validation(tmp_path, capsys):
    summary = tmp_path / "shard.json"
    assert main([
        "sweep", "--window", "800", "--shard", "1/1", "--no-cache",
        "--store", str(tmp_path / "store"), "--json", str(summary),
    ]) == 0
    capsys.readouterr()
    import json

    payload = json.loads(summary.read_text())
    assert payload["shard"] == "1/1"
    assert payload["points_selected"] == payload["points_total"]
    assert list((tmp_path / "store").glob("??/*.json"))

    with pytest.raises(SystemExit):  # malformed spec
        main(["sweep", "--shard", "3/2", "--no-cache",
              "--store", str(tmp_path / "s")])
    with pytest.raises(SystemExit):  # shard needs a store
        main(["sweep", "--shard", "1/2", "--no-cache"])
    with pytest.raises(SystemExit):  # only the sweep grid is shardable
        main(["tab4", "--shard", "1/2", "--store", str(tmp_path / "s")])


def test_cache_gc_cli_evicts_to_budget(tmp_path, capsys):
    import os

    cache = tmp_path / "cache"
    for name, mtime in (("old", 1_000), ("new", 2_000)):
        path = cache / "store" / "ab" / (name * 32 + ".json")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"x" * 100)
        os.utime(path, (mtime, mtime))

    with pytest.raises(SystemExit):  # gc requires --max-bytes
        main(["cache", "gc", "--cache-dir", str(cache)])
    assert main(["cache", "gc", "--max-bytes", "100",
                 "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "store: 2 file(s)" in out and "evicted 1 file(s)" in out
    assert "budget 100 B" in out
    survivors = list((cache / "store").glob("??/*.json"))
    assert [p.name for p in survivors] == ["new" * 32 + ".json"]


def test_cache_list_and_clear_cover_the_store(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert main(["astar-mpki", "--window", "2000",
                 "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert main(["cache", "list", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "result store" in out and "entr" in out
    assert "total cache footprint:" in out

    assert main(["cache", "clear", "--store", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "result-store entr" in out
    assert not list((cache / "store").glob("??/*.json"))


def _plant_temp_files(cache):
    """Leftovers of writers killed between their temp write and the
    rename, one per cache section (``repro.cachefile.publish`` names)."""
    paths = [
        cache / "traces" / "astar--kq1w2e3r.tmp",
        cache / "store" / "ab" / "abababab_r4t5y6.tmp",
    ]
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"x" * 4096)
    return paths


def test_cache_maintenance_sees_orphaned_temp_files(tmp_path, capsys):
    cache = tmp_path / "cache"
    paths = _plant_temp_files(cache)
    assert main(["cache", "list", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert ("0 direction column(s), 0 recipe(s) and 1 temp file(s),"
            " 4.0 KiB") in out
    assert "0 result-store entries and 1 temp file(s), 4.0 KiB" in out
    assert "total cache footprint: 8.0 KiB" in out

    assert main(["cache", "gc", "--max-bytes", "0",
                 "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    for section in ("traces", "store"):
        assert f"{section}: 1 file(s), 4.0 KiB -> evicted 1 file(s)" in out
    assert "total 8.0 KiB -> kept 0 B" in out
    assert not any(path.exists() for path in paths)

    paths = _plant_temp_files(cache)
    assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
    assert main(["cache", "clear", "--store", "--cache-dir", str(cache)]) == 0
    out = capsys.readouterr().out
    assert "0 recipe(s) and 1 temp file(s)" in out
    assert "0 result-store entries and 1 temp file(s)" in out
    assert not any(path.exists() for path in paths)


def test_cache_dir_reaches_compiled_traces(tmp_path, capsys):
    """--cache-dir holds the compiled traces as well as the results, in
    the CLI process and in its pool workers."""
    tracecache.reset_memory_cache()
    cache = tmp_path / "c"
    assert main(["astar-mpki", "--window", "2000", "--jobs", "2",
                 "--cache-dir", str(cache)]) == 0
    assert list((cache / "traces").glob("*.trace.pkl"))
    assert not (tmp_path / "repro-cache").exists()
