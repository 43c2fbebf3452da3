"""Determinism tests for seeded RNG derivation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.common import rng as rng_module
from repro.common.rng import LazyRng, derive_rng, derive_seed


def test_same_path_same_seed():
    assert derive_seed(42, "ior", 3) == derive_seed(42, "ior", 3)


def test_different_paths_differ():
    seen = {derive_seed(42, "a"), derive_seed(42, "b"), derive_seed(42, "a", 0)}
    assert len(seen) == 3


def test_different_root_seeds_differ():
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_derive_rng_reproducible_streams():
    a = derive_rng(7, "workload", 1).random(16)
    b = derive_rng(7, "workload", 1).random(16)
    assert (a == b).all()


@given(st.integers(min_value=0, max_value=2**31), st.text(max_size=20))
def test_seed_is_64bit_unsigned(seed, key):
    s = derive_seed(seed, key)
    assert 0 <= s < 2**64


def test_path_separator_is_unambiguous():
    # ("ab", "c") must not collide with ("a", "bc").
    assert derive_seed(0, "ab", "c") != derive_seed(0, "a", "bc")


def test_lazy_rng_draws_the_derive_rng_stream():
    lazy = LazyRng(7, "workload", 1, 3)
    eager = derive_rng(7, "workload", 1, 3)
    assert lazy.uniform(0.7, 1.3) == eager.uniform(0.7, 1.3)
    assert (lazy.permutation(32) == eager.permutation(32)).all()
    assert lazy.integers(0, 3) == eager.integers(0, 3)
    assert (lazy.random(8) == eager.random(8)).all()


def test_lazy_rng_builds_once_on_first_draw(monkeypatch):
    built = []

    def counting(seed, *path):
        built.append((seed, path))
        return derive_rng(seed, *path)

    monkeypatch.setattr(rng_module, "derive_rng", counting)
    lazy = LazyRng(5, "noise", 0, 2)
    assert built == []
    lazy.random()
    lazy.random()
    lazy.integers(0, 9)
    assert built == [(5, ("noise", 0, 2))]
    # Later draws reach the Generator's bound method directly.
    assert lazy.__dict__["random"].__self__ is lazy.__dict__["_generator"]
