import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hallq.cli import main
from hallq.ffrep import ClassificationTable, TableCache, classify
from hallq.identities import SweepConfig
from hallq.quiver import DimVector, builtin_quiver


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv("HALLQ_CACHE_DIR", str(d))
    return d


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_a2(cache, capsys):
    code, out, _ = run_cli(capsys, "classify", "--quiver", "a2", "--dim", "1,1", "-p", "2")
    assert code == 0
    data = json.loads(out)
    assert len(data["classes"]) == 2
    assert all(c["orbit_size"] == 1 for c in data["classes"])


def test_classify_zero_dim(cache, capsys):
    code, out, _ = run_cli(capsys, "classify", "--quiver", "a2", "--dim", "0,0", "-p", "2")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 1


def test_classify_quiver_file(cache, capsys, tmp_path):
    qf = tmp_path / "my.quiver"
    qf.write_text("# two vertices\nvertices: a b\narrow: a -> b\n")
    code, out, _ = run_cli(capsys, "classify", "--quiver", str(qf), "--dim", "1,1", "-p", "3")
    assert code == 0
    assert len(json.loads(out)["classes"]) == 2


def test_classify_budget_refusal(cache, capsys):
    code, _, err = run_cli(capsys, "classify", "--quiver", "kronecker", "--dim", "3,3",
                           "-p", "3", "--budget", "100")
    assert code == 2
    assert "refused" in err and "budget" in err


def test_classify_cache_round_trip(cache, capsys):
    code, out1, _ = run_cli(capsys, "classify", "--quiver", "a2", "--dim", "2,1", "-p", "3")
    assert code == 0
    files = list(cache.glob("*.json"))
    assert files, "classification was not cached"
    code, out2, _ = run_cli(capsys, "classify", "--quiver", "a2", "--dim", "2,1", "-p", "3")
    assert out1 == out2


def test_classify_determinism_without_cache(cache, capsys):
    args = ("classify", "--quiver", "kronecker", "--dim", "1,1", "-p", "3", "--no-cache")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_op_mul_matches_known_product(cache, capsys):
    code, out, _ = run_cli(capsys, "op", "mul", "1,0:0", "0,1:0", "--quiver", "a2", "-p", "2")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == [1, 1]
    assert sorted(t["laurent"] for t in data["terms"]) == ["1*v^1", "1*v^1"]


@pytest.mark.parametrize("argv", [
    ("classify", "--quiver", "a2", "--dim", "1,1"),
    ("op", "mul", "1,0:0", "0,1:0", "--quiver", "a2"),
])
@pytest.mark.parametrize("primes", ["3,2", "2,2"])
def test_single_field_commands_refuse_a_prime_list(cache, capsys, argv, primes):
    code, out, err = run_cli(capsys, *argv, "-p", primes)
    assert code == 2
    assert out == ""
    assert f"{argv[0]} takes one prime, got {primes}" in err
    # one prime still works
    code, out, _ = run_cli(capsys, *argv, "-p", primes[0])
    assert code == 0 and json.loads(out)["dim"] == [1, 1]


def test_op_dsub_m0_echoes_input(cache, capsys):
    code, out, _ = run_cli(capsys, "op", "dsub", "1,1:1", "--vertex", "1", "-m", "0",
                           "--quiver", "a2", "-p", "2")
    assert code == 0
    data = json.loads(out)
    assert data["terms"] == [{"class": "1,1:1", "laurent": "1*v^0"}]


def test_op_dsub_example(cache, capsys):
    code, out, _ = run_cli(capsys, "op", "dsub", "1,1:1", "--vertex", "1", "-m", "1",
                           "--quiver", "a2", "-p", "2")
    data = json.loads(out)
    assert data["dim"] == [0, 1]
    assert data["terms"][0]["laurent"] == "1*v^1"


@pytest.mark.parametrize("vertex", ["5", "-1"])
def test_op_dsub_at_a_vertex_outside_the_quiver_exits_2(cache, capsys, vertex):
    code, out, err = run_cli(capsys, "op", "dsub", "2,1:0", "--vertex", vertex,
                             "--quiver", "a2", "-p", "2")
    assert code == 2
    assert out == "" and "out of range" in err


def test_op_res_and_split(cache, capsys):
    code, out, _ = run_cli(capsys, "op", "res", "1,1:1", "--split", "1,0",
                           "--quiver", "a2", "-p", "2")
    data = json.loads(out)
    assert data["dims"] == [[1, 0], [0, 1]]


def test_op_pair_specialized(cache, capsys):
    code, out, _ = run_cli(capsys, "op", "pair", "1,0:0", "1,0:0", "--quiver", "a2",
                           "-p", "3", "--sign", "+")
    data = json.loads(out)
    assert data["pairing"] == {"even": "1/2", "odd": "0"}


def test_op_unknown_class(cache, capsys):
    code, _, err = run_cli(capsys, "op", "mul", "1,0:7", "0,1:0", "--quiver", "a2", "-p", "2")
    assert code == 2
    assert "error" in err


def test_verify_subset_passes(cache, capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "serre_generators",
                           "--quiver", "a2", "-p", "2,3")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    assert any(l["identity"] == "serre_generators" and l["status"] == "pass" for l in lines)
    assert any(l["identity"] == "convention_table" for l in lines)


def test_verify_rejects_unknown_identity(cache, capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nonsense", "--quiver", "a2", "-p", "2")
    assert code == 2
    assert "unknown identity" in err


def test_verify_refuses_an_empty_only(cache, capsys):
    # an empty --only names the family "", not every family
    code, out, err = run_cli(capsys, "verify", "--only", "", "--quiver", "single", "-p", "2",
                             "--skip-slow")
    assert code == 2
    assert out == "" and "unknown identity ids: ['']" in err


def test_verify_budget_refusal_builds_no_default_model(cache, capsys, monkeypatch):
    from hallq import identities
    from hallq.ffrep import DEFAULT_POINT_BUDGET

    monkeypatch.setattr(identities, "_MODEL_POOL", {})
    code, out, err = run_cli(capsys, "verify", "--all", "-p", "2", "--budget", "3")
    assert code == 2
    assert out == "" and "refused" in err and "budget is 3" in err
    assert all(budget != DEFAULT_POINT_BUDGET for _, _, budget in identities._MODEL_POOL)


def test_verify_corrupt_fixture_exits_one(cache, capsys):
    code, out, _ = run_cli(capsys, "verify", "--only", "associativity", "--quiver", "a2",
                           "-p", "2", "--maxdim", "2", "--corrupt-fixture")
    assert code == 1
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    failing = [l for l in lines if l["status"] == "fail"]
    assert failing and failing[0]["witness"]


def test_verify_output_deterministic(cache, capsys):
    args = ("verify", "--only", "associativity", "--quiver", "a2", "-p", "2", "--maxdim", "2")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)

    def strip(text):
        rows = []
        for line in text.splitlines():
            if line.startswith("{"):
                d = json.loads(line)
                d.pop("elapsed", None)
                rows.append(json.dumps(d, sort_keys=True))
            else:
                rows.append(line)
        return rows

    assert strip(out1) == strip(out2)


SWEEP_CONFIG_REFUSALS = {
    "prime_4": ({"primes": (4,)}, "p must be one of"),
    "bogus_family": ({"only": ("bogus",)}, "unknown identity ids"),
    "maxdim_0": ({"maxdim": 0}, "maxdim"),
    "single_maxdim_0": ({"single_maxdim": 0}, "maxdim"),
    "unknown_quiver": ({"quivers": ("nonsense",)}, "unknown builtin quivers"),
}


@pytest.mark.parametrize("kwargs, message", SWEEP_CONFIG_REFUSALS.values(),
                         ids=SWEEP_CONFIG_REFUSALS.keys())
def test_sweep_config_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        SweepConfig(**kwargs)


def test_table_cache_refuses_a_budget_below_one():
    with pytest.raises(ValueError, match="budget"):
        TableCache(builtin_quiver("a2"), 2, 0)


@pytest.mark.parametrize("argv", [
    ("verify", "--only", "serre_generators", "--quiver", "a2", "-p", "4"),
    ("verify", "--only", "serre_generators", "--quiver", "a2", "--maxdim", "0"),
    ("classify", "--quiver", "a2", "--dim", "1,1", "--budget", "0"),
    ("op", "mul", "1,0:0", "0,1:0", "--quiver", "a2", "--budget", "0"),
], ids=["verify_prime_4", "verify_maxdim_0", "classify_budget_0", "op_budget_0"])
def test_invalid_run_exits_two(cache, capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_csv_format(cache, capsys):
    code, out, _ = run_cli(capsys, "classify", "--quiver", "a2", "--dim", "1,1",
                           "-p", "2", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "label,orbit_size,aut_count"
    assert len(lines) == 3


def test_verify_user_quiver_file(cache, capsys, tmp_path):
    qf = tmp_path / "sink.quiver"
    qf.write_text("vertices: x y z\narrow: x -> y\narrow: z -> y\n")
    code, out, _ = run_cli(capsys, "verify", "--only", "green,serre_generators",
                           "--quiver", str(qf), "-p", "2", "--maxdim", "3")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    assert sum(1 for l in lines if l["identity"] == "green") > 0
    assert all(l["status"] != "fail" for l in lines)


def _truncate_representative(d):
    d["classes"][1]["representative"][0].pop()


def _swap_representatives(d):
    a, b = d["classes"][0], d["classes"][1]
    a["representative"], b["representative"] = b["representative"], a["representative"]


def _corrupted(data, corrupt):
    """The JSON after `corrupt`: a function edits it in place, a JSON text
    replaces it whole."""
    if isinstance(corrupt, str):
        return json.loads(corrupt)
    corrupt(data)
    return data


# each corruption turns the JSON of a2 (2,1) at p=3 into a table that no
# classification produces; the cache loader must treat each as a miss
BAD_TABLE_JSON = {
    "truncated_representative": _truncate_representative,
    "p_as_string": lambda d: d.update(p=str(d["p"])),
    "dim_as_strings": lambda d: d.update(dim=[str(x) for x in d["dim"]]),
    "swapped_representatives": _swap_representatives,
    "entry_outside_field": lambda d: d["classes"][0]["representative"][0].__setitem__(0, 7),
    "aut_count": lambda d: d["classes"][0].update(aut_count=1),
    # class ids must be the ones classify derives from the representatives
    "fingerprint": lambda d: d["classes"][0]["id"].update(fingerprint=[9, 9, 9, 9, 9]),
    "id_dim": lambda d: d["classes"][1]["id"].update(dim=[7, 7]),
    "tiebreak": lambda d: d["classes"][0]["id"].update(tiebreak=4),
    "id_not_a_dict": lambda d: d["classes"][0].update(id=5),
    "orbit_size_as_string": lambda d: d["classes"][0].update(
        orbit_size=str(d["classes"][0]["orbit_size"])),
    "aut_count_as_float": lambda d: d["classes"][0].update(
        aut_count=float(d["classes"][0]["aut_count"])),
    # valid JSON of the wrong shape
    "top_level_list": "[]",
    "top_level_null": "null",
    "top_level_string": '"x"',
    "quiver_only_an_int": '{"quiver": 5}',
    "quiver_as_list": lambda d: d.update(quiver=[1]),
    "classes_as_int": lambda d: d.update(classes=5),
    "class_entry_as_string": lambda d: d.update(classes=["x"]),
    "class_of_point_as_int": lambda d: d.update(class_of_point=7),
}


@pytest.mark.parametrize("corrupt", BAD_TABLE_JSON.values(), ids=BAD_TABLE_JSON.keys())
def test_classification_table_from_json_rejects_bad_classes(corrupt):
    data = classify(builtin_quiver("a2"), DimVector((2, 1)), 3).to_json()
    with pytest.raises(ValueError):
        ClassificationTable.from_json(_corrupted(data, corrupt))


def _table_of(quiver, dim, p):
    """Replace the JSON in place by the table of another space."""

    def corrupt(data):
        data.clear()
        data.update(classify(builtin_quiver(quiver), DimVector(dim), p).to_json())

    return corrupt


BAD_CACHE_JSON = {
    "truncated": lambda data: data.update(class_of_point=data["class_of_point"][:-3]),
    "all_zero": lambda data: data.update(class_of_point=[0] * len(data["class_of_point"])),
    **BAD_TABLE_JSON,
    # valid tables, but written for another dimension vector, prime or quiver
    "another_dim": _table_of("a2", (1, 1), 3),
    "another_prime": _table_of("a2", (2, 1), 2),
    "another_quiver": _table_of("kronecker", (2, 1), 3),
    "invalid_json": None,
}


@pytest.mark.parametrize("corrupt", BAD_CACHE_JSON.values(), ids=BAD_CACHE_JSON.keys())
def test_bad_cache_file_is_a_miss_and_is_overwritten(cache, capsys, corrupt):
    args = ("classify", "--quiver", "a2", "--dim", "2,1", "-p", "3")
    code, fresh, _ = run_cli(capsys, *args)
    assert code == 0
    [path] = cache.glob("*.json")
    good = path.read_text()
    if corrupt is None:
        path.write_text(good[: len(good) // 2])
    else:
        path.write_text(json.dumps(_corrupted(json.loads(good), corrupt), sort_keys=True))
    code, again, _ = run_cli(capsys, *args)
    assert code == 0
    assert again == fresh
    assert path.read_text() == good


def test_cache_file_under_the_unversioned_name_is_not_read(cache, capsys, monkeypatch):
    from pathlib import Path

    from hallq.cli import CACHE_SCHEMA

    args = ("classify", "--quiver", "a2", "--dim", "2,1", "-p", "3")
    code, fresh, _ = run_cli(capsys, *args)
    [path] = cache.glob("*.json")
    assert path.name.endswith(f".v{CACHE_SCHEMA}.json")
    # the name files had before the schema version was part of it
    old = path.with_name(path.name.replace(f".v{CACHE_SCHEMA}.json", ".json"))
    old.write_text(path.read_text())
    path.unlink()
    read = []
    original = Path.read_text
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: read.append(self.name)
                        or original(self, *a, **k))
    code, again, _ = run_cli(capsys, *args)
    assert code == 0 and again == fresh
    assert old.name not in read
    assert path.exists()


def test_verify_jobs_capped_at_cpu_count(cache, capsys, monkeypatch):
    import concurrent.futures

    seen = []

    class RecordingExecutor:
        """Records max_workers and runs the jobs in this process, so no pool
        or worker process is started."""

        def __init__(self, max_workers=None):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return map(fn, iterable)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    code, _, _ = run_cli(capsys, "verify", "--only", "serre_generators", "--quiver", "a2",
                         "-p", "2", "--jobs", "1000000")
    assert code == 0
    assert seen == [2]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_jobs_below_one_exits_two(cache, capsys, jobs):
    code, out, err = run_cli(capsys, "verify", "--only", "serre_generators", "--quiver", "a2",
                             "-p", "2", "--jobs", jobs)
    assert code == 2
    assert "jobs" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("verify", "--only", "serre_generators", "--quiver", "a2", "--no-cache"),
    ("verify", "--only", "serre_generators", "--quiver", "a2", "--sign", "+"),
    ("classify", "--quiver", "a2", "--dim", "1,1", "--sign", "+"),
])
def test_flags_a_command_does_not_read_exit_two(cache, capsys, argv):
    # verify builds its models without the table cache, and classify prints
    # no scalars, so neither takes the flag
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    assert stop.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_refuses_a_repeated_prime(cache, capsys):
    # a repeated prime would run every check once per copy
    code, out, err = run_cli(capsys, "verify", "--only", "serre_generators", "--quiver", "a2",
                             "-p", "2,2", "--format", "json")
    assert code == 2
    assert out == "" and "primes must not repeat" in err


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_closed_stdout_exits_three_without_a_traceback(tmp_path, unbuffered):
    """`hallq verify ... | head -c 10`: the reader closes the pipe after the
    first bytes, and the run ends with exit code 3 and a quiet stderr, with
    stdout block buffered or not."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("needs a pipe whose size can be set")
    read_end, write_end = os.pipe()
    # the smallest pipe: the 14 kB of reports outgrow it, so the run is still
    # writing when the reader goes, however it buffers stdout
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
           "HALLQ_CACHE_DIR": str(tmp_path), "PYTHONUNBUFFERED": unbuffered}
    argv = [sys.executable, "-m", "hallq.cli", "verify", "--all", "--quiver", "a2", "-p", "2",
            "--skip-slow", "--format", "json"]
    with subprocess.Popen(argv, stdout=write_end, stderr=subprocess.PIPE, env=env) as proc:
        os.close(write_end)
        assert os.read(read_end, 10)
        os.close(read_end)
        _, err = proc.communicate(timeout=300)
    assert proc.returncode == 3
    assert "Traceback" not in err.decode() and "Error" not in err.decode()
