import random

import pytest
from hypothesis import HealthCheck, settings

from polyls import Direction, ExplicitTable, make_family
from polyls.instances import FAMILIES, random_instance

settings.register_profile(
    "suite", max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
settings.load_profile("suite")


@pytest.fixture
def two_elem():
    """The running 2-element example: f({0}) = f({1}) = 2, f({0, 1}) = 3."""
    return make_family(ExplicitTable((0, 2, 2, 3)))


@pytest.fixture
def d34():
    return Direction((3, 4))


@pytest.fixture
def d_mixed():
    return Direction((1, -1))


def iter_instances(count_per_family, seed, n_max=12, n_min=1, families=FAMILIES):
    """Deterministic spread of random instances, n cycling n_min..n_max."""
    span = n_max - n_min + 1
    for fam in families:
        for i in range(count_per_family):
            yield random_instance(fam, n_min + i % span, seed + i)


def rng_of(seed: int) -> random.Random:
    return random.Random(seed)


def same_sets(a, b) -> bool:
    """Two kernel level sets are equal: both None (every set), or the same
    ascending masks."""
    if a is None or b is None:
        return a is b
    return a.tolist() == b.tolist()
