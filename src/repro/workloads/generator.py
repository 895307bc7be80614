"""Random databases and queries for property-based testing and ablations.

The hypothesis test-suite uses these generators to check, on hundreds of
random (database, query) pairs, that

* every transformation preserves the result computed by the naive evaluator,
* the phase-structured engine agrees with the naive evaluator under every
  combination of strategies, and
* the Lemma 1 empty-relation handling is exercised (empty relations are drawn
  with elevated probability).

The generated schema is a small two/three-relation universe rather than the
Figure 1 schema, so that key collisions and empty relations are frequent.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.calculus import builder as q
from repro.calculus.ast import Formula, Selection
from repro.relational.database import Database
from repro.types.scalar import INTEGER, Subrange

__all__ = ["GeneratorConfig", "random_database", "random_selection", "random_workload"]

_SMALL = Subrange(0, 9, "small")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the random workload generator."""

    max_elements: int = 8
    empty_probability: float = 0.15
    max_quantifiers: int = 2
    max_conjuncts: int = 2
    comparison_operators: tuple[str, ...] = ("=", "<>", "<", "<=", ">", ">=")


#: The relations of the generated universe: name -> (fields, key).
_UNIVERSE = {
    "r": ([("a", _SMALL), ("b", _SMALL), ("k", INTEGER)], ["k"]),
    "s": ([("a", _SMALL), ("c", _SMALL), ("k", INTEGER)], ["k"]),
    "t": ([("b", _SMALL), ("c", _SMALL), ("k", INTEGER)], ["k"]),
}


def random_database(rng: random.Random, config: GeneratorConfig | None = None) -> Database:
    """A random small database over the three-relation universe."""
    config = config or GeneratorConfig()
    database = Database("generated")
    for name, (fields, key) in _UNIVERSE.items():
        relation = database.create_relation(name, fields, key=key)
        if rng.random() < config.empty_probability:
            continue
        count = rng.randint(1, config.max_elements)
        for index in range(count):
            relation.insert(
                {
                    field_name: rng.randint(0, 9) if field_name != "k" else index
                    for field_name, _ in fields
                }
            )
    return database


def _random_comparison(
    rng: random.Random,
    config: GeneratorConfig,
    variables: dict[str, str],
) -> Formula:
    """A random monadic or dyadic join term over the given variable scope."""
    var_names = list(variables)
    op = rng.choice(config.comparison_operators)
    left_var = rng.choice(var_names)
    left_field = rng.choice(_fields_of(variables[left_var]))
    if len(var_names) > 1 and rng.random() < 0.6:
        right_var = rng.choice([v for v in var_names if v != left_var])
        right_field = rng.choice(_fields_of(variables[right_var]))
        return q.comp((left_var, left_field), op, (right_var, right_field))
    return q.comp((left_var, left_field), op, rng.randint(0, 9))


def _fields_of(relation_name: str) -> list[str]:
    return [field_name for field_name, _ in _UNIVERSE[relation_name][0] if field_name != "k"]


def _random_formula(
    rng: random.Random,
    config: GeneratorConfig,
    variables: dict[str, str],
    depth: int,
    quantifiers_left: int,
) -> Formula:
    """A random selection-expression formula over ``variables``."""
    roll = rng.random()
    if depth <= 0 or roll < 0.45:
        return _random_comparison(rng, config, variables)
    if roll < 0.6 and quantifiers_left > 0:
        kind = q.some if rng.random() < 0.5 else q.all_
        var = f"q{quantifiers_left}"
        relation = rng.choice(list(_UNIVERSE))
        inner_vars = dict(variables)
        inner_vars[var] = relation
        body = _random_formula(rng, config, inner_vars, depth - 1, quantifiers_left - 1)
        return kind(var, relation, body)
    connective = q.and_ if rng.random() < 0.5 else q.or_
    children = [
        _random_formula(rng, config, variables, depth - 1, quantifiers_left)
        for _ in range(rng.randint(2, config.max_conjuncts + 1))
    ]
    if rng.random() < 0.2:
        children[0] = q.not_(children[0])
    return connective(*children)


def random_selection(rng: random.Random, config: GeneratorConfig | None = None) -> Selection:
    """A random selection with one or two free variables."""
    config = config or GeneratorConfig()
    free_count = rng.randint(1, 2)
    relations = list(_UNIVERSE)
    bindings = []
    variables: dict[str, str] = {}
    for index in range(free_count):
        var = f"f{index}"
        relation = rng.choice(relations)
        variables[var] = relation
        bindings.append((var, relation))
    columns = []
    for var, relation in variables.items():
        columns.append((var, rng.choice(_fields_of(relation))))
    formula = _random_formula(
        rng, config, variables, depth=3, quantifiers_left=config.max_quantifiers
    )
    return q.selection(columns=columns, each=bindings, where=formula)


def random_workload(
    seed: int, config: GeneratorConfig | None = None
) -> tuple[Database, Selection]:
    """A reproducible random (database, query) pair."""
    rng = random.Random(seed)
    return random_database(rng, config), random_selection(rng, config)
