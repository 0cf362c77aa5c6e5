"""tools/common.py, what the four tools share: each tool, run as a script,
refuses a ``slotsurv`` that imports from elsewhere than ``--src``, and a
harness record whose write stops partway leaves the previous file byte
for byte."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("tool", ["bits", "census", "opsplit", "quality"])
def test_a_package_from_outside_src_is_refused(tool, tmp_path):
    """With ``slotsurv`` importable from ``PYTHONPATH`` and ``--src`` an
    empty directory, the tool exits 2 before it runs anything, with the
    refusal on stderr and nothing on stdout."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, os.path.join(TOOLS, f"{tool}.py"),
         "--src", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert "not from" in done.stderr and done.stdout == ""


# each harness record, written once under its tool's arguments
RECORDS = {
    "bits": lambda tool, path, n: tool.record(path, {"checkpoint/a": n},
                                              False),
    "quality": lambda tool, path, n: tool.record(path, f"run{n}",
                                                 {"config": {"n": n}}),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_that_stops_partway_leaves_the_previous_file(
        name, tmp_path, monkeypatch):
    """A record is written as JSON with indent 1, sorted keys and a
    trailing newline.  A ``json.dump`` that writes some bytes and then
    raises leaves the previous file as it was, and no temporary file."""
    tool = _tool(name)
    monkeypatch.setattr(tool.common, "machine_facts", lambda: {"cpu": "x"})
    path = tmp_path / "record.json"
    RECORDS[name](tool, str(path), "1")
    previous = path.read_bytes()
    assert previous.decode("utf-8") == json.dumps(
        json.loads(previous), indent=1, sort_keys=True) + "\n"

    def partial_dump(doc, fh, **kwargs):
        fh.write('{"runs": {')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", partial_dump)
    with pytest.raises(OSError, match="no space left"):
        RECORDS[name](tool, str(path), "2")
    assert path.read_bytes() == previous
    assert os.listdir(tmp_path) == ["record.json"]
