"""End-to-end CLI behavior: byte-exact JSON, traces, and exit codes."""

import json
import os
import resource
import shutil
import subprocess
import sys
import time
import venv

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from densefw.cli import run
from densefw.graph import VERTEX_CAP
from densefw.peel import SUPERGREEDY_CAP


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestGoldenOutputs:
    def test_density(self, capsys, data_dir):
        code, out, _ = invoke(capsys, ["density", str(data_dir / "three_tier.el")])
        assert code == 0
        assert out == '{"set":[0,1,2,3],"density":"3/2"}\n'

    def test_idealloads(self, capsys, data_dir):
        code, out, _ = invoke(capsys, ["idealloads", str(data_dir / "tri_pendant.el")])
        assert code == 0
        assert out == '{"0":"2/3","1":"2/3","2":"2/3","3":"1"}\n'

    def test_greedypp_single_round(self, capsys, data_dir):
        code, out, _ = invoke(capsys, ["greedypp", "--iters", "1", str(data_dir / "k13.el")])
        assert code == 0
        assert out == '{"best_set":[0,1,2,3],"best_density":"3/4","iterations":1}\n'

    def test_decompose_contraction(self, capsys, data_dir):
        code, out, _ = invoke(capsys, ["decompose", str(data_dir / "three_tier.el")])
        assert code == 0
        assert json.loads(out) == {
            "variant": "supermodular_contraction",
            "blocks": [
                {"elements": [0, 1, 2, 3], "density": "3/2"},
                {"elements": [4, 5, 6], "density": "4/3"},
                {"elements": [7], "density": "1"},
            ],
            "density_vector": {
                "0": "3/2", "1": "3/2", "2": "3/2", "3": "3/2",
                "4": "4/3", "5": "4/3", "6": "4/3", "7": "1",
            },
        }

    def test_decompose_deletion(self, capsys, data_dir):
        code, out, _ = invoke(
            capsys, ["decompose", "--variant", "sub-del", str(data_dir / "tri_pendant.el")])
        assert code == 0
        assert json.loads(out) == {
            "variant": "submodular_deletion",
            "blocks": [
                {"elements": [3], "density": "1"},
                {"elements": [0, 1, 2], "density": "3/2"},
            ],
            "density_vector": {"0": "2/3", "1": "2/3", "2": "2/3", "3": "1"},
        }

    def test_supergreedypp_rank_dual(self, capsys, data_dir):
        code, out, _ = invoke(capsys, [
            "supergreedypp", "--fn", "rank-dual", "--iters", "50",
            "--epsilon", "0.01", str(data_dir / "tri_pendant.el")])
        assert code == 0
        body = json.loads(out)
        assert body["best_set"] == [3]
        assert body["best_density"] == "1"
        assert 1 <= body["iterations"] <= 50

    def test_treepack_triangle(self, capsys, data_dir):
        code, out, _ = invoke(
            capsys, ["treepack", "--iters", "300", str(data_dir / "triangle.el")])
        assert code == 0
        expected = float(format(200 / 300, ".12g"))
        assert json.loads(out) == {
            "loads": {"0": expected, "1": expected, "2": expected},
            "iterations": 300,
        }

    def test_fw_qp_exact(self, capsys, tmp_path):
        path = write_graph(tmp_path, "edge.el", "0 1\n")
        code, out, _ = invoke(capsys, ["fw-qp", "--exact", "--iters", "2", path])
        assert code == 0
        assert out == '{"iterate":{"0":"1/2","1":"1/2"},"objective":0.5,"iterations":2}\n'

    def test_verify_triangle(self, capsys, data_dir):
        code, out, _ = invoke(capsys, ["verify", str(data_dir / "triangle.el")])
        assert code == 0
        body = json.loads(out)
        assert body["ok"] is True
        assert all(c["ok"] for c in body["checks"])
        assert {"name": "curvature_bracket", "ok": True} in body["checks"]


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, capsys, data_dir):
        args = ["greedypp", "--iters", "6", str(data_dir / "three_tier.el")]
        _, first, _ = invoke(capsys, args)
        _, second, _ = invoke(capsys, args)
        assert first == second

        args = ["verify", str(data_dir / "k4.el")]
        _, first, _ = invoke(capsys, args)
        _, second, _ = invoke(capsys, args)
        assert first == second


class TestOutputsToFiles:
    def test_out_flag_writes_file_and_keeps_stdout_empty(self, capsys, data_dir, tmp_path):
        dest = tmp_path / "result.json"
        code, out, _ = invoke(
            capsys, ["density", str(data_dir / "triangle.el"), "--out", str(dest)])
        assert code == 0
        assert out == ""
        assert dest.read_text(encoding="utf-8") == '{"set":[0,1,2],"density":"1"}\n'

    def test_trace_csv_with_reference_column(self, capsys, data_dir, tmp_path):
        dest = tmp_path / "trace.csv"
        code, out, _ = invoke(capsys, [
            "greedypp", "--iters", "3", "--trace", str(dest),
            str(data_dir / "triangle.el")])
        assert code == 0
        lines = dest.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "k,objective,gamma,dist_ref"
        assert len(lines) == 4
        for i, line in enumerate(lines[1:], start=1):
            k, objective, gamma, dist = line.split(",")
            assert int(k) == i
            assert float(objective) > 0
            assert float(gamma) == pytest.approx(1.0 / i)
            assert dist != ""
            assert float(dist) >= 0.0

    def test_treepack_trace_on_big_instance_leaves_dist_blank(self, capsys, tmp_path):
        # 22 edges: too many for the exact reference, trace still written
        rim = [(i, (i + 1) % 11) for i in range(11)]
        spokes = [(i, (i + 2) % 11) for i in range(11)]
        text = "\n".join(f"{u} {v}" for u, v in rim + spokes) + "\n"
        path = write_graph(tmp_path, "big.el", text)
        dest = tmp_path / "trace.csv"
        code, out, _ = invoke(
            capsys, ["treepack", "--iters", "5", "--trace", str(dest), path])
        assert code == 0
        lines = dest.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 6
        assert all(line.endswith(",") for line in lines[1:])


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _, err = invoke(capsys, ["density", "/nonexistent/graph.el"])
        assert code == 2
        assert "error" in err

    def test_malformed_input(self, capsys, tmp_path):
        path = write_graph(tmp_path, "bad.el", "0 1\nfoo bar\n")
        code, _, err = invoke(capsys, ["density", path])
        assert code == 2
        assert "line 2" in err

    def test_undecodable_input(self, capsys, tmp_path):
        """Bytes that are not UTF-8 are malformed input, not an infeasible
        request, although the decoder's error is a ValueError."""
        path = tmp_path / "utf16.el"
        path.write_bytes("0 1\n".encode("utf-16"))
        code, out, err = invoke(capsys, ["density", str(path)])
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: ")

    def test_utf8_bom_is_skipped(self, capsys, tmp_path):
        path = tmp_path / "bom.el"
        path.write_bytes(b"\xef\xbb\xbf0 1\n1 2\n2 0\n")
        plain = write_graph(tmp_path, "plain.el", "0 1\n1 2\n2 0\n")
        result = invoke(capsys, ["density", str(path)])
        assert result == invoke(capsys, ["density", plain])
        assert result[0] == 0

    def test_self_loop(self, capsys, tmp_path):
        path = write_graph(tmp_path, "loop.el", "0 0\n")
        assert invoke(capsys, ["density", path])[0] == 2

    @pytest.mark.parametrize(
        "command",
        ["density", "decompose", "greedypp", "supergreedypp", "treepack", "idealloads", "fw-qp", "verify"],
    )
    def test_huge_vertex_id(self, tmp_path, command):
        """Ids are checked against graph.VERTEX_CAP before any n-sized array
        is built, so a huge id is one error line, not a MemoryError. The
        child runs under a 1 GiB address-space limit, so a regression fails
        here instead of exhausting memory."""
        path = write_graph(tmp_path, "huge.el", "0 300000000\n")
        limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        proc = subprocess.run(
            [sys.executable, "-m", "densefw", command, path],
            capture_output=True, text=True, preexec_fn=limit)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("error: line 1:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "args, code",
        [(["density"], 3), (["decompose"], 3), (["idealloads"], 3), (["supergreedypp"], 3),
         (["treepack"], 3), (["decompose", "--variant", "sub-del"], 0)],
        ids=["density", "decompose", "idealloads", "supergreedypp", "treepack", "decompose-sub-del"],
    )
    def test_near_cap_vertex_id(self, tmp_path, args, code):
        """An id of exactly graph.VERTEX_CAP parses, giving 10^6 + 1
        vertices. The subset walk refuses that ground set before it builds
        any mask, and the connectivity and Super-Greedy++ checks refuse it
        before their work, all under the 1 GiB child limit; sub-del scans
        the one-edge ground set. greedypp, fw-qp and verify run their full
        work on this file, for seconds to a minute, so they are not run."""
        path = write_graph(tmp_path, "nearcap.el", f"0 {VERTEX_CAP}\n")
        limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        proc = subprocess.run(
            [sys.executable, "-m", "densefw", *args, path],
            capture_output=True, text=True, preexec_fn=limit)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code:
            assert proc.stdout == ""
            assert proc.stderr.count("\n") == 1
            assert proc.stderr.startswith("error: ")
        else:
            assert proc.stderr == ""
            assert json.loads(proc.stdout)["blocks"] == [{"elements": [0], "density": "1"}]

    def test_bad_iteration_count(self, capsys, data_dir):
        code, _, err = invoke(
            capsys, ["greedypp", "--iters", "0", str(data_dir / "triangle.el")])
        assert code == 2
        assert "--iters" in err

    @pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
    def test_bad_epsilon(self, capsys, data_dir, epsilon):
        code, _, err = invoke(capsys, [
            "treepack", "--epsilon", epsilon, str(data_dir / "triangle.el")])
        assert code == 2
        assert "--epsilon" in err

    def test_disconnected_infeasible_for_packing(self, capsys, tmp_path):
        path = write_graph(tmp_path, "split.el", "0 1\n2 3\n")
        assert invoke(capsys, ["treepack", path])[0] == 3
        assert invoke(capsys, ["idealloads", path])[0] == 3

    def test_oversized_ground_set(self, capsys, tmp_path):
        text = "\n".join(f"{i} {i + 1}" for i in range(20)) + "\n"
        path = write_graph(tmp_path, "path21.el", text)
        assert invoke(capsys, ["density", path])[0] == 3

    def test_supergreedy_ground_set_cap(self, capsys, tmp_path):
        """A 10-byte file with a huge id has a ground set of 10^6 + 1
        vertices; Super-Greedy++ refuses it before its first oracle call
        instead of running O(n^2) calls per round."""
        path = write_graph(tmp_path, "sparse.el", "0 1000000\n")
        start = time.perf_counter()
        code, out, err = invoke(capsys, ["supergreedypp", "--iters", "1", path])
        assert time.perf_counter() - start < 10
        assert code == 3
        assert out == ""
        assert err == f"error: supermodular peeling limited to {SUPERGREEDY_CAP} elements, got 1000001\n"

    def test_exact_iteration_cap(self, capsys, data_dir):
        """The library caps only the standard schedule; the CLI keeps 20 for both."""
        for schedule in ("avg", "standard"):
            code, out, err = invoke(capsys, [
                "fw-qp", "--exact", "--schedule", schedule, "--iters", "25", str(data_dir / "triangle.el")])
            assert code == 3
            assert (out, err) == ("", "error: exact mode supports at most 20 iterations\n")

    def test_usage_errors(self, capsys, data_dir):
        assert invoke(capsys, ["no-such-command", "x.el"])[0] == 64
        assert invoke(capsys, ["density"])[0] == 64
        assert invoke(capsys, ["density", str(data_dir / "triangle.el"), "--bogus"])[0] == 64
        assert invoke(capsys, [])[0] == 64
        assert invoke(capsys, ["greedypp", "--seed", "1", str(data_dir / "triangle.el")])[0] == 64


_ID = st.integers(0, 8)
_EDGE = st.tuples(_ID, _ID).filter(lambda e: e[0] != e[1]).map("{0[0]} {0[1]}".format)
_NOISE = st.one_of(st.sampled_from(["# comment", "", "0 0", "1 x", "-1 2"]), st.text(max_size=6))


@st.composite
def _fuzz_files(draw) -> bytes:
    """A few random bytes, or at most 8 lines with ids up to 8: edges
    (repeats are parallel edges) and maybe one comment, blank, self-loop or
    junk line, with LF or CRLF line ends and sometimes a UTF-8 BOM."""
    if draw(st.integers(0, 3)) == 3:
        return draw(st.binary(max_size=24))
    lines = draw(st.lists(_EDGE, max_size=7))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_NOISE))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    bom = draw(st.sampled_from([False, False, False, True]))
    return (b"\xef\xbb\xbf" if bom else b"") + text.encode("utf-8")


_EVERY_SUBCOMMAND = (
    ["density"],
    ["decompose"],
    ["decompose", "--variant", "sub-del"],
    ["greedypp", "--iters", "2"],
    ["supergreedypp", "--iters", "2"],
    ["supergreedypp", "--fn", "rank-dual", "--iters", "2"],
    ["treepack", "--iters", "2"],
    ["treepack", "--mode", "fw", "--iters", "2"],
    ["idealloads"],
    ["fw-qp", "--iters", "2"],
    ["fw-qp", "--exact", "--iters", "2"],
    ["verify"],
)


class TestFuzz:
    @pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=lambda a: "_".join(a).replace("--", ""))
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=_fuzz_files())
    def test_any_file_ends_with_a_documented_exit_code(self, capsys, tmp_path, argv, data):
        """Small random files, random bytes, CRLF, BOM, comment-only and
        parallel-edge input: no exception escapes and no traceback prints."""
        path = tmp_path / "fuzz.el"
        path.write_bytes(data)
        code, out, err = invoke(capsys, argv + [str(path)])
        assert code in (0, 1, 2, 3, 64)
        assert not any(line.startswith("Traceback") for line in (out + err).splitlines())
        if code in (2, 3):
            assert out == ""
            assert err.startswith("error: ")
            assert err.count("\n") == 1


class TestEntryPoints:
    def test_module_invocation(self, data_dir):
        proc = subprocess.run(
            [sys.executable, "-m", "densefw", "density", str(data_dir / "triangle.el")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == '{"set":[0,1,2],"density":"1"}\n'

    def test_experiment_script(self, data_dir, tmp_path):
        """scripts/run_experiments.py runs on every bundled edge list."""
        script = data_dir.parent / "scripts" / "run_experiments.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--iters", "5", "--out-dir", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
        assert sorted(summary) == sorted(p.stem for p in data_dir.glob("*.el"))

    def test_public_names_resolve(self):
        import densefw

        assert [name for name in densefw.__all__ if not hasattr(densefw, name)] == []

    def test_cli_import_leaves_numpy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, densefw.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == "False\n"

    def test_console_script(self, data_dir, tmp_path):
        """The `[project.scripts]` entry, once installed, is a working command.

        The test installs a copy of the project into a throwaway venv under
        `tmp_path` and looks for `densefw` only in that venv, so neither the
        checkout nor a stale `densefw` elsewhere on PATH plays a part. The
        install uses setuptools' own `develop` command, which needs neither
        the network nor the `wheel` package (setuptools older than 70.1 has
        no built-in `bdist_wheel`, so a pip editable install would need
        `wheel`). From setuptools 80 on, `develop` hands the install to pip,
        which offline works only with `--no-build-isolation`.
        """
        pytest.importorskip("setuptools")
        root = data_dir.parent
        proj = tmp_path / "proj"
        shutil.copytree(root / "src", proj / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(root / name, proj / name)

        builder = venv.EnvBuilder(system_site_packages=True, with_pip=False)
        builder.create(tmp_path / "env")
        ctx = builder.ensure_directories(tmp_path / "env")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        install = subprocess.run(
            [ctx.env_exe, "-c", "import setuptools; setuptools.setup()",
             "develop", "--no-deps"],
            cwd=proj, env=env, capture_output=True, text=True)
        assert install.returncode == 0, install.stderr

        exe = shutil.which("densefw", path=ctx.bin_path)
        assert exe is not None
        proc = subprocess.run(
            [exe, "idealloads", str(data_dir / "triangle.el")],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == '{"0":"2/3","1":"2/3","2":"2/3"}\n'
