"""Golden answers of the push-based PECJ operator.

Every emitted ``value`` and ``emit_time`` and every scored ``error`` of
:class:`~repro.streaming.StreamingPECJ` is pinned bit for bit (as a digest
of ``float.hex``) for each estimator backend and aggregation.  The ``mlp``
rows run the learning backends' additive-fill path; the ``aema`` and
``svi`` rows run the Eq. 9 blend.  A refactor of the estimation step must
leave every digest unchanged.
"""

import hashlib

import pytest

from repro.joins.arrays import AggKind
from repro.streaming.operators import StreamingPECJ
from repro.streams.datasets import make_dataset
from repro.streams.disorder import UniformDelay
from repro.streams.sources import make_disordered_pair

#: sha256 over the ``float.hex`` of every answer, per (backend, agg).
GOLDEN = {
    ("aema", "COUNT"):
        "03625496277582b33edad733347df49253661879c52b4b5f2a14280153e8f9e2",
    ("aema", "SUM"):
        "63b7d220f15acf4b1cd8f6ff961d5460c24de0f9d879cace1359bbb0012d285a",
    ("aema", "AVG"):
        "647ba8858170f018c65af612e43f9f5f4689c2b3e392c6ff17d49ae1085d4c13",
    ("svi", "COUNT"):
        "a017483094ddc4bdd4202f16713d220f9725c67908fb096eca87e23860d23ea7",
    ("svi", "SUM"):
        "5d5751277833c3289432a9ff9d85781faca464f8a0c26d0da6fc7085b047d64c",
    ("svi", "AVG"):
        "00abe0392645a2dbb093ce5f130aa6f91d0a2d69d7931a8e67e84da9f104d272",
    ("mlp", "COUNT"):
        "888a84d7788e81a2cfac064a9ea4bf41f154c81f5cbe8b6cdabcaa4814267788",
    ("mlp", "SUM"):
        "b5af86143b3cfb58ee97e0d5b0453f8e9545244216a457ae3e42b406279b5301",
    ("mlp", "AVG"):
        "6fe06b915bca66d8226e8579a06e80a304edcab8a76290b29e993d6727513656",
}


def _stream():
    merged, _, _ = make_disordered_pair(
        make_dataset("micro", num_keys=10), UniformDelay(5.0), 600.0, 40.0, 40.0, seed=5
    )
    return merged.in_arrival_order()


def answer_digest(backend: str, agg: AggKind) -> tuple[str, int]:
    """Digest of one run's answers and the number of emissions."""
    op = StreamingPECJ(10.0, 10.0, agg, backend=backend, seed=3)
    emissions = []
    for t in _stream():
        emissions.extend(op.push(t))
    emissions.extend(op.finish())
    parts = [f"{e.value.hex()} {e.emit_time.hex()}" for e in emissions]
    parts += [s.error.hex() for s in op.scored]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest(), len(emissions)


@pytest.mark.parametrize("backend,agg", sorted(GOLDEN))
def test_answers_are_bit_identical_to_golden(backend, agg):
    digest, n = answer_digest(backend, AggKind[agg])
    assert n >= 55
    assert digest == GOLDEN[(backend, agg)]
