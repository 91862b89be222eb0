"""The answer keys of the benchmark's streamed workloads: a sample of the
`curves` pool from every omega(DN) class against its profile digests,
and a sample of the `class-numbers` pool against its class numbers.
The pool files under perfbench/data are read, never written."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import worker  # noqa: E402
import workloads  # noqa: E402

from x0dn.quadorders import class_number  # noqa: E402

# pairs checked per omega(DN) class: a profile at omega = 6 costs about
# fifteen times one at omega = 2
CURVE_SAMPLE = {2: 32, 3: 32, 4: 32, 5: 24, 6: 12}
CLASS_NUMBER_SAMPLE = 128


def _spread(items: list, k: int) -> list:
    """k items at even steps through items, the first and last included."""
    return [items[(len(items) - 1) * i // (k - 1)] for i in range(k)]


@pytest.fixture(scope="module")
def curves_pool():
    return workloads.load_curves_pool()


@pytest.mark.parametrize("w", sorted(CURVE_SAMPLE))
def test_curve_profiles_match_pool(curves_pool, w):
    pairs = sorted((p for p, (pw, _) in curves_pool.items() if pw == w),
                   key=lambda p: (p[0] * p[1], p))
    for d, n in _spread(pairs, CURVE_SAMPLE[w]):
        digest = worker.profile_digest(worker.curve_profile(d, n))
        assert digest == curves_pool[d, n][1], (d, n)


def test_class_numbers_match_pool():
    pool = workloads.load_class_numbers_pool()
    discs = _spread(sorted(pool), CLASS_NUMBER_SAMPLE)
    assert any(d < 0 for d in discs) and any(d > 0 for d in discs)
    for disc in discs:
        assert class_number(disc) == pool[disc], disc
