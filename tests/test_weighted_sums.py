"""Weighted sums in one merge: evaluation, derived tables and engine sums."""

import random
from pathlib import Path

import gottlieb.abelian as abelian
import gottlieb.evaluation as evaluation
from conftest import db_of, random_group
from gottlieb.abelian import TRIVIAL, AbelianGroup, canonicalize
from gottlieb.decompose import decompose
from gottlieb.formal import FormalSum, GenGottliebTerm, GottliebTerm
from gottlieb.profiles import (
    GradedGroup,
    Incomplete,
    SpaceProfile,
    evaluate,
    gottlieb_table_of_map_space,
    load,
)
from gottlieb.oracle import random_splittable_expr
from gottlieb.spaces import (
    Atom,
    Loop,
    MapSpace,
    Point,
    Product,
    Sphere,
    Susp,
    Wedge,
    parse_space,
)

DEMO = Path(__file__).resolve().parents[1] / "profiles" / "synthetic_demo.json"


def pairwise_fold(parts) -> AbelianGroup:
    """The reference: one direct sum per term, as evaluation used to do it."""
    total = TRIVIAL
    for group, copies in parts:
        total = total.direct_sum(group.scaled(copies))
    return total


def constructed(parts) -> AbelianGroup:
    """The same sum through the public, validating constructor."""
    rank = sum(group.rank * copies for group, copies in parts)
    return AbelianGroup(rank, [(p, k, count * copies)
                               for group, copies in parts for p, k, count in group.torsion])


def random_parts(rng: random.Random, size: int) -> list[tuple[AbelianGroup, int]]:
    groups = [TRIVIAL, canonicalize(rng.randint(1, 5)),
              *(random_group(rng) for _ in range(size))]
    return [(rng.choice(groups), rng.choice((1, rng.randint(1, 50), rng.randint(1, 10**30))))
            for _ in range(size)]


def test_weighted_sum_equals_the_pairwise_fold():
    for seed in range(300):
        rng = random.Random(f"weighted:{seed}")
        parts = random_parts(rng, rng.randint(0, 12))
        total = abelian._weighted_sum(parts)
        assert total == pairwise_fold(parts) == constructed(parts), seed
        assert total.torsion == tuple(sorted(total.torsion))


def test_direct_sum_is_the_weighted_sum_of_unit_weights():
    rng = random.Random("direct")
    for _ in range(50):
        groups = [random_group(rng) for _ in range(rng.randint(1, 6))]
        assert groups[0].direct_sum(*groups[1:]) == abelian._weighted_sum(
            [(g, 1) for g in groups]
        )
    assert abelian.direct_sum() == TRIVIAL == abelian._weighted_sum([])


def _evaluation_case(seed: int):
    """A random table with unknown degrees and a formal sum over it."""
    rng = random.Random(f"evaluate:{seed}")
    entries = {}
    for degree in range(1, 13):
        kind = rng.random()
        if kind < 0.15:
            continue  # unknown: no entry and no bound
        entries[degree] = (TRIVIAL if kind < 0.25 else canonicalize(rng.randint(1, 4))
                           if kind < 0.35 else random_group(rng))
    db = db_of(SpaceProfile("Y", gottlieb=GradedGroup(entries)))
    degrees = rng.sample(range(1, 13), rng.randint(1, 8))
    formal_sum = FormalSum.from_pairs(
        (GottliebTerm("Y", d), rng.choice((1, rng.randint(1, 10**30)))) for d in degrees
    )
    resolved = [(entries[t.degree], m) for t, m in formal_sum if t.degree in entries]
    return db, formal_sum, resolved


def test_evaluate_equals_the_pairwise_fold():
    incomplete = 0
    for seed in range(200):
        db, formal_sum, resolved = _evaluation_case(seed)
        result = evaluate(formal_sum, db)
        if len(resolved) < len(formal_sum):
            incomplete += 1
            assert isinstance(result, Incomplete), seed
            assert result.partial == pairwise_fold(resolved), seed
        else:
            assert result == pairwise_fold(resolved) == constructed(resolved), seed
    assert 20 < incomplete < 180


def test_evaluate_sums_residuals_out_of_the_partial_value():
    db = load(DEMO.read_text(encoding="utf-8"))
    formal_sum = decompose(parse_space("map(A, loop(Y, 2))"), 1, db.atom_shifts())
    assert any(isinstance(term, GenGottliebTerm) for term, _ in formal_sum)
    result = evaluate(formal_sum, db)
    assert isinstance(result, Incomplete)
    gottlieb = db.space("Y").gottlieb
    assert result.partial == pairwise_fold(
        [(gottlieb.lookup(t.degree), m) for t, m in formal_sum if isinstance(t, GottliebTerm)]
    )


def test_derived_table_equals_the_pairwise_fold():
    db = load(DEMO.read_text(encoding="utf-8"))
    gottlieb = db.space("Y").gottlieb
    for source in ("S2", "T3", "T4", "wedge(S1, S3, S3)"):
        poly = decompose(parse_space(f"map({source}, Y)"), 1, db.atom_shifts())
        table = gottlieb_table_of_map_space(parse_space(source), "Y", range(1, 11), db)
        assert set(table.entries) == set(range(1, gottlieb.zero_above + 1))
        for degree, value in table.entries.items():
            parts = [(gottlieb.lookup(degree - 1 + t.degree), m) for t, m in poly]
            assert value == pairwise_fold(parts), (source, degree)


def count_merges(monkeypatch) -> list[str]:
    """Record every merge of torsion lists: the sort-merge and the weighted sum."""
    calls: list[str] = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(abelian, "_merged", counting(abelian._merged))
    summed = counting(abelian._weighted_sum)
    monkeypatch.setattr(abelian, "_weighted_sum", summed)
    monkeypatch.setattr(evaluation, "_weighted_sum", summed)
    return calls


def test_a_formal_sum_is_evaluated_in_one_merge(monkeypatch):
    db = load(DEMO.read_text(encoding="utf-8"))
    formal_sum = decompose(parse_space("loop(Y, 8)"), 1, db.atom_shifts())
    assert len(formal_sum) == 9
    calls = count_merges(monkeypatch)
    assert isinstance(evaluate(formal_sum, db), AbelianGroup)
    assert calls == ["_weighted_sum"]


def test_a_derived_table_merges_once_per_resolved_degree(monkeypatch):
    db = load(DEMO.read_text(encoding="utf-8"))
    calls = count_merges(monkeypatch)
    table = gottlieb_table_of_map_space(parse_space("T4"), "Y", range(1, 11), db)
    assert len(table.entries) == 8
    assert calls == ["_weighted_sum"] * 8


def random_chain(rng: random.Random):
    """A chain of mapping spaces, loops and products over Y or a point.

    Sources are splittable trees, the atom B (which splits), or the
    blocked atoms A and C, alone, suspended or in a wedge.
    """
    def source():
        kind = rng.random()
        if kind < 0.5:
            return random_splittable_expr(rng, max_depth=2)
        blocked = Atom(rng.choice("ABC"))
        if kind < 0.8:
            return blocked
        if kind < 0.9:
            return Susp(blocked, rng.randint(1, 2))
        return Wedge((blocked, Sphere(rng.randint(1, 3))))

    chain = Atom("Y") if rng.random() < 0.9 else Point()
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if kind < 0.2:
            chain = Loop(chain, rng.randint(1, 3))
        elif kind < 0.4:
            chain = MapSpace(Product(tuple(source() for _ in range(rng.randint(2, 3)))), chain)
        else:
            chain = MapSpace(source(), chain)
    return chain


def test_engine_sums_equal_their_checked_construction():
    residuals = 0
    for seed in range(400):
        rng = random.Random(f"engine-sum:{seed}")
        result = decompose(random_chain(rng), rng.randint(1, 3), {"B": (1, 2)})
        residuals += any(isinstance(t, GenGottliebTerm) for t, _ in result)
        assert result == FormalSum.from_pairs(reversed(result.terms)), seed
        assert all(type(pair) is tuple and pair[1] >= 1 for pair in result.terms), seed
    assert 100 < residuals < 300


def test_engine_sums_with_and_without_residuals():
    cases = {
        "loop(Y, 8)": False,
        "map(prod(T2, S3), Y)": False,
        "map(B, map(A, loop(Y, 2)))": True,
        "map(prod(A, S2, C), Y)": True,
        "map(susp(A, 2), map(wedge(S1, C), map(S2, Y)))": True,
    }
    for text, residual in cases.items():
        result = decompose(parse_space(text), 2)
        assert any(isinstance(t, GenGottliebTerm) for t, _ in result) is residual, text
        assert result.terms == FormalSum.from_pairs(reversed(result.terms)).terms, text
