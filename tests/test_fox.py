"""Torus-indexed Gottlieb groups and iterated free-loop homotopy."""

import random
import time

import pytest

from conftest import db_of, random_group, synthetic_space
from gottlieb.decompose import DecomposeError, closed_form_bouquet
from gottlieb.formal import FormalSum, GottliebTerm, PiTerm
from gottlieb.fox import fox_gottlieb, iterated_loop_homotopy
from gottlieb.oracle import (
    random_splittable_expr,
    randomized_decompose,
    recursive_bouquet_coefficients,
)
from gottlieb.profiles import GradedGroup, SpaceProfile, evaluate, gottlieb_table_of_map_space
from gottlieb.spaces import Atom, Loop, MapSpace, Sphere, Wedge, parse_space
from gottlieb.splitting import sphere_splitting


def test_fox_examples():
    assert str(fox_gottlieb(1, "Y")) == "G[1](Y)"
    assert str(fox_gottlieb(2, "Y")) == "G[1](Y) + G[2](Y)"
    assert str(fox_gottlieb(3, "Y")) == "G[1](Y) + 2*G[2](Y) + G[3](Y)"
    assert fox_gottlieb(4, Atom("Y")).multiplicity(GottliebTerm("Y", 2)) == 3


def test_fox_validation():
    with pytest.raises(ValueError):
        fox_gottlieb(0, "Y")


def test_fox_refuses_a_boolean_degree():
    with pytest.raises(TypeError, match="degree must be an integer, got True"):
        fox_gottlieb(True, "Y")


def test_fox_equals_torus_mapping_space_in_degree_one():
    # fox runs the engine's walk, so the randomized oracle is the check here.
    for n in range(2, 9):
        assert fox_gottlieb(n, "Y") == randomized_decompose(parse_space(f"map(T{n - 1}, Y)"), 1)


def test_fox_coefficients_match_recursion_oracle():
    for n in range(2, 11):
        poly = recursive_bouquet_coefficients(1, n - 1)
        sum_ = fox_gottlieb(n, "Y")
        for j, count in poly.as_dict().items():
            assert sum_.multiplicity(GottliebTerm("Y", 1 + j)) == count


def test_fox_matches_the_binomial_closed_form_at_large_degree():
    # closed_form_bouquet uses math.comb, an independent route to (1 + t)^N.
    start = time.perf_counter()
    result = fox_gottlieb(2000, "Y")
    assert time.perf_counter() - start < 0.5
    assert result == closed_form_bouquet(1, 1999, 1, "Y")
    pi = iterated_loop_homotopy(3, 2000, "Y")
    assert {t.degree - 3: m for t, m in pi} == {
        t.degree - 1: m for t, m in closed_form_bouquet(1, 2000, 1, "Y")
    }


def test_fox_and_loop_homotopy_share_the_size_budget():
    for call in (lambda: fox_gottlieb(20_000, "Y"),
                 lambda: iterated_loop_homotopy(2, 20_000, "Y"),
                 lambda: fox_gottlieb(10**30, "Y")):
        start = time.perf_counter()
        with pytest.raises(DecomposeError) as err:
            call()
        assert time.perf_counter() - start < 1
        assert "the size budget of" in str(err.value)


def test_loop_homotopy_examples():
    result = iterated_loop_homotopy(2, 2, "Y")
    assert str(result) == "pi[2](Y) + 2*pi[3](Y) + pi[4](Y)"
    assert iterated_loop_homotopy(5, 1, "Y") == FormalSum.from_pairs(
        [(PiTerm("Y", 5), 1), (PiTerm("Y", 6), 1)]
    )


def test_loop_homotopy_rejects_degree_one():
    with pytest.raises(ValueError) as err:
        iterated_loop_homotopy(1, 3, "Y")
    assert "split extension" in str(err.value)
    assert "not computed" in str(err.value)
    with pytest.raises(ValueError):
        iterated_loop_homotopy(2, 0, "Y")
    with pytest.raises(TypeError, match="homotopy degree must be an integer, got 2.5"):
        iterated_loop_homotopy(2.5, 1, "Y")


def test_loop_homotopy_coefficients_match_recursion_oracle():
    for n_iter in range(1, 11):
        poly = recursive_bouquet_coefficients(1, n_iter)
        sum_ = iterated_loop_homotopy(3, n_iter, "Y")
        assert {t.degree - 3: m for t, m in sum_} == poly.as_dict()


def _derived_loop_space(db, name, degrees):
    """Profile of the free loop space over db's 'Y', as a fresh space."""
    table = gottlieb_table_of_map_space(Sphere(1), "Y", degrees, db)
    assert isinstance(table, GradedGroup)
    return SpaceProfile(name, gottlieb=table)


def test_fox_stability_under_looping():
    # The degree-(n-1) value over the free loop space reproduces the
    # degree-n value over the base, whenever the base table is rich enough.
    for seed in range(12):
        rng = random.Random(seed)
        y = synthetic_space("Y", rng, range(1, 11))
        db = db_of(y)
        loop_db = db_of(y, _derived_loop_space(db, "LY", range(1, 10)))
        for n in range(2, 9):
            over_base = evaluate(fox_gottlieb(n, "Y"), db)
            over_loop = evaluate(fox_gottlieb(n - 1, "LY"), loop_db)
            assert over_base == over_loop, (seed, n)


def test_loop_homotopy_commutes_with_single_looping():
    for seed in range(6):
        rng = random.Random(100 + seed)
        pi = {d: random_group(rng) for d in range(1, 12)}
        y = SpaceProfile("Y", homotopy=GradedGroup(pi))
        # Homotopy of the free loop space: pi_d + pi_{d+1}.
        ly = SpaceProfile(
            "LY",
            homotopy=GradedGroup({d: pi[d].direct_sum(pi[d + 1]) for d in range(1, 11)}),
        )
        db = db_of(y, ly)
        for degree in range(2, 7):
            for n_iter in range(1, 5):
                combined = evaluate(iterated_loop_homotopy(degree, n_iter + 1, "Y"), db)
                stepped = evaluate(iterated_loop_homotopy(degree, n_iter, "LY"), db)
                assert combined == stepped, (seed, degree, n_iter)


def _random_chain(sources):
    """map(X1, map(X2, ... map(Xk, Y)))."""
    chain = Atom("Y")
    for source in reversed(sources):
        chain = MapSpace(source, chain)
    return chain


def test_chains_run_the_engine_walk():
    for seed in range(40):
        rng = random.Random(f"chain:{seed}")
        sources = [random_splittable_expr(rng) for _ in range(rng.randint(1, 3))]
        chain = _random_chain(sources)
        degree, iterations = rng.randint(2, 5), rng.randint(1, 4)
        poly = recursive_bouquet_coefficients(1, iterations)
        for source in sources:
            poly = poly * sphere_splitting(source).poly
        pi = iterated_loop_homotopy(degree, iterations, chain)
        assert {t.degree - degree: m for t, m in pi} == poly.as_dict(), seed
        assert all(t.space == "Y" for t, _ in pi)
        for n in range(1, 5):
            expr = Loop(chain, n - 1) if n > 1 else chain
            assert fox_gottlieb(n, chain) == randomized_decompose(expr, 1, rng=rng), (seed, n)


def test_loop_homotopy_names_an_undeclared_source_atom():
    for seed in range(20):
        rng = random.Random(f"blocked:{seed}")
        sources = [random_splittable_expr(rng) for _ in range(rng.randint(1, 3))]
        blocked = Atom("A") if rng.random() < 0.5 else Wedge((sources[0], Atom("A")))
        sources.insert(rng.randint(0, len(sources)), blocked)
        with pytest.raises(ValueError, match="^A does not split: atom has no declared"):
            iterated_loop_homotopy(2, rng.randint(1, 3), _random_chain(sources))


def test_loop_homotopy_names_the_outermost_blocked_level():
    # The sum's canonical order would put A first; the walk meets B first.
    with pytest.raises(ValueError, match="^B does not split: atom has no declared"):
        iterated_loop_homotopy(2, 1, parse_space("map(B, map(A, Y))"))
    with pytest.raises(ValueError, match="^C does not split: atom has no declared"):
        iterated_loop_homotopy(2, 1, parse_space("map(prod(S2, C, A), Y)"))
    for seed in range(20):
        rng = random.Random(f"outermost:{seed}")
        sources = [random_splittable_expr(rng) for _ in range(rng.randint(0, 3))]
        names = rng.sample("ABCD", rng.randint(2, 4))
        for name in names:
            sources.insert(rng.randint(0, len(sources)), Atom(name))
        first = next(s.name for s in sources if isinstance(s, Atom))
        with pytest.raises(ValueError, match=f"^{first} does not split"):
            iterated_loop_homotopy(rng.randint(2, 4), rng.randint(1, 3), _random_chain(sources))


def test_loop_homotopy_walks_the_whole_chain_before_naming_a_blocker():
    # The walk ends first, so its own errors come before "does not split".
    with pytest.raises(ValueError, match="^no decomposition rule for target 'S2'"):
        iterated_loop_homotopy(2, 1, parse_space("map(A, S2)"))
    with pytest.raises(ValueError, match="^answer too large: degree shift 20000 exceeds"):
        iterated_loop_homotopy(2, 1, parse_space("map(A, loop(Y, 19999))"))
    with pytest.raises(ValueError, match=r"^loop\(Y\) does not split: mapping spaces"):
        iterated_loop_homotopy(2, 1, parse_space("map(loop(Y), Y)"))
