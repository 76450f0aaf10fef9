"""The differential corpus: every query's stdout, stderr and exit code are
unchanged from the recorded digests (see ``corpus.py``)."""

import corpus


def test_corpus_digests_unchanged():
    assert corpus.first_difference() is None
