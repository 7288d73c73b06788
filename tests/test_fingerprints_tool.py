"""``tools/fingerprints.py --compare``: lists the keys that moved, exits 1 on any."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

TOOL = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "tools",
    "fingerprints.py",
)


def _compare(tmp_path, before, after):
    paths = []
    for name, manifest in (("a.json", before), ("b.json", after)):
        path = tmp_path / name
        path.write_text(json.dumps(manifest))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, TOOL, "--compare", *paths],
        capture_output=True,
        text=True,
        check=False,
    )


REPLAY = "replay/steady/oef-coop/memo"
MANIFEST = {
    REPLAY: {
        "fingerprint": "ab12", "warm_hits": 3, "cold_solves": 1,
    },
    "fleet/tenant-swarm/serial": {"fingerprint": "cd34"},
}


def test_equal_manifests_move_nothing(tmp_path):
    done = _compare(tmp_path, MANIFEST, dict(MANIFEST))
    assert done.returncode == 0
    assert done.stdout.strip().splitlines() == ["0 moved of 2"]


@pytest.mark.parametrize(
    "edit, key",
    [
        ({"fingerprint": "ab13", "warm_hits": 3, "cold_solves": 1}, REPLAY),
        ({"fingerprint": "ab12", "warm_hits": 2, "cold_solves": 2}, REPLAY),
        (None, "fleet/tenant-swarm/serial"),
    ],
    ids=["fingerprint", "warm-split", "missing"],
)
def test_a_moved_or_missing_key_is_listed_and_fails(tmp_path, edit, key):
    after = dict(MANIFEST)
    if edit is None:
        del after[key]
    else:
        after[key] = edit
    done = _compare(tmp_path, MANIFEST, after)
    assert done.returncode == 1
    lines = done.stdout.strip().splitlines()
    assert lines[0].startswith(f"moved {key}: ")
    assert lines[-1] == "1 moved of 2"
