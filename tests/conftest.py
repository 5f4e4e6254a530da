import pytest

from ehrseq import corpus as corpus_mod
from ehrseq.serializer import corpus_texts
from ehrseq.vocab import build_vocabulary


@pytest.fixture(scope="session")
def small_corpus():
    return corpus_mod.generate_corpus(corpus_mod.default_config(seed=11, n_patients=20))


@pytest.fixture(scope="session")
def small_vocab(small_corpus):
    return build_vocabulary(corpus_texts(small_corpus))
