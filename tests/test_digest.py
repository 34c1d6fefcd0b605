"""The committed DIGEST.json holds the SHA-256 of every report and
diagnostic ``scripts/output_digest.py`` covers.  The entries that run no
ensemble are recomputed here; the simulated ones need a full run of the
script, diffed against the file."""

import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_digest.py"
STATIC = ("check/", "classify/", "foodchain/", "diagnostics/")


def test_static_entries_match_the_committed_digest(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))   # the script prepends its paths
    spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    committed = json.loads((ROOT / "DIGEST.json").read_text())
    want = {k: v for k, v in committed.items() if k.startswith(STATIC)}
    got = module.static_digests(tmp_path)
    assert len(want) == 80
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []
