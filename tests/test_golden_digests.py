"""The command line's outputs on the golden runs are bit for bit those stored
in ``golden_digests.json`` (see ``golden.py``, which also regenerates it).

A host whose fingerprint has no stored digests skips the test with a reason
that names the fingerprint; it never passes unchecked.
"""

import pytest

import golden


def test_outputs_match_the_golden_digests():
    fp = golden.fingerprint()
    stored = next((e["digests"] for e in golden.load() if e["fingerprint"] == fp), None)
    if stored is None:
        pytest.skip(f"no golden digests for fingerprint {fp}; regenerate with `PYTHONPATH=src python tests/golden.py`")
    digests = golden.compute_digests()
    moved = sorted(name for name in stored.keys() | digests.keys() if stored.get(name) != digests.get(name))
    assert not moved, f"outputs differ from the golden digests: {moved}"
