"""Host and commit identity stamped on recorded measurements."""

import re

from repro.obs import ledger


def test_host_fingerprint_and_sha_shapes(tmp_path):
    fp = ledger.host_fingerprint()
    assert re.fullmatch(r"\S+-\d+c-py\d+\.\d+\.\d+\S*", fp), fp
    sha = ledger.git_sha()
    assert sha == "unknown" or re.fullmatch(r"[0-9a-f]{40}", sha), sha
    assert ledger.git_sha(tmp_path) == "unknown"
