"""Property-based tests: the engine always agrees with the naive evaluator.

These are the library's strongest correctness guarantees.  For randomly
generated databases (empty relations drawn with elevated probability, so the
Lemma 1 edge cases are exercised) and randomly generated first-order queries,
every strategy configuration of the phase-structured engine must return
exactly the relation computed by direct interpretation of the calculus.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QueryEngine, StrategyOptions, connect
from repro.calculus.ast import (
    And,
    BoolConst,
    Comparison,
    Const,
    Formula,
    Not,
    Or,
    Param,
    Quantified,
    RangeExpr,
    Selection,
    VariableBinding,
)
from repro.calculus.typecheck import TypeChecker
from repro.engine.naive import evaluate_selection_naive
from repro.errors import PascalRError
from repro.service import bind_selection
from repro.transform.normalform import to_standard_form
from repro.transform.range_extension import extend_ranges
from repro.types.scalar import EnumValue, Enumeration, Subrange
from repro.workloads.generator import random_workload

CONFIGS = [
    StrategyOptions.all_strategies(),
    StrategyOptions.none(),
    StrategyOptions.only(parallel_collection=True, one_step_nested=True),
    StrategyOptions.only(extended_ranges=True),
    StrategyOptions.only(collection_phase_quantifiers=True),
    StrategyOptions(separate_existential_conjunctions=True),
    StrategyOptions(general_range_extensions=True),
]

PROPERTY_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def workload(seed: int):
    """A resolved random (database, selection) pair, or None when ill-typed."""
    database, selection = random_workload(seed)
    try:
        resolved = TypeChecker.for_database(database).resolve(selection)
    except PascalRError:
        return None
    return database, resolved


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_full_optimizer_matches_naive_evaluation(seed):
    pair = workload(seed)
    if pair is None:
        return
    database, resolved = pair
    expected = evaluate_selection_naive(resolved, database)
    engine = QueryEngine(database)
    assert engine.run(resolved).relation == expected


@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=50_000),
    config=st.integers(min_value=0, max_value=len(CONFIGS) - 1),
)
def test_every_strategy_configuration_matches_naive_evaluation(seed, config):
    pair = workload(seed)
    if pair is None:
        return
    database, resolved = pair
    expected = evaluate_selection_naive(resolved, database)
    engine = QueryEngine(database)
    assert engine.run(resolved, options=CONFIGS[config]).relation == expected


#: Strategy 1 plus the combination optimizers: the configuration under which
#: the combination phase sees multi-structure conjunctions (S3/S4 would
#: dissolve them during collection).
KERNEL = StrategyOptions.only(
    parallel_collection=True,
    join_order="histogram",
    semijoin_reduction=True,
    plan="streamed",
)


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_streamed_and_literal_plans_match_naive_evaluation(seed):
    """The two plan policies of the one pipeline over reference ids — the
    streamed plan and the literal Section 3.3 procedure — and direct
    interpretation agree, on the free-variable reference tuples (the
    combination phase's own output, decoded back from ids) as well as on the
    constructed result."""
    pair = workload(seed)
    if pair is None:
        return
    database, resolved = pair
    expected = evaluate_selection_naive(resolved, database)
    engine = QueryEngine(database)
    streamed = engine.run(resolved, options=KERNEL)
    literal = engine.run(resolved, options=KERNEL.with_(plan="literal"))
    assert streamed.relation == expected
    assert literal.relation == expected
    if streamed.combination is not None and not streamed.used_strategy3_fallback:
        assert not streamed.combination.plan.literal and literal.combination.plan.literal
        assert {r.values for r in streamed.combination.tuples} == {
            r.values for r in literal.combination.tuples
        }


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_standard_form_preserves_semantics(seed):
    """Prenex + DNF conversion does not change the naive evaluation result
    (when all range relations are non-empty, per the paper's assumption)."""
    pair = workload(seed)
    if pair is None:
        return
    database, resolved = pair
    if any(relation.is_empty() for relation in database.relations()):
        return
    standardized = to_standard_form(resolved).to_selection()
    assert evaluate_selection_naive(standardized, database) == evaluate_selection_naive(
        resolved, database
    )


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_range_extension_preserves_semantics_on_nonempty_extensions(seed):
    """Strategy 3 preserves the naive result whenever the extended ranges are
    non-empty (the paper's applicability assumption)."""
    pair = workload(seed)
    if pair is None:
        return
    database, resolved = pair
    if any(relation.is_empty() for relation in database.relations()):
        return
    form = to_standard_form(resolved)
    extension = extend_ranges(form)
    if not extension.changed:
        return
    from repro.engine.naive import range_elements

    extended = extension.standard_form
    ranges = [(binding.var, binding.range) for binding in extended.selection.bindings] + [
        (spec.var, spec.range) for spec in extended.prefix
    ]
    for var, range_expr in ranges:
        if range_expr.restriction is not None and not any(
            True for _ in range_elements(database, range_expr, var)
        ):
            return  # empty extension: the engine falls back, the rewrite alone need not hold
    rewritten = extended.to_selection()
    assert evaluate_selection_naive(rewritten, database) == evaluate_selection_naive(
        resolved, database
    )


# --------------------------------------------------- prepared-query properties


def _parameterize(selection: Selection):
    """Replace every constant operand with a named parameter.

    Returns the parameterized selection and the original values — the
    bindings under which the parameterized query must behave exactly like
    the original.
    """
    values: dict[str, object] = {}

    def sub_operand(operand):
        if isinstance(operand, Const):
            name = f"p{len(values)}"
            values[name] = operand.value
            return Param(name)
        return operand

    def sub_formula(formula: Formula) -> Formula:
        if isinstance(formula, BoolConst):
            return formula
        if isinstance(formula, Comparison):
            return Comparison(sub_operand(formula.left), formula.op, sub_operand(formula.right))
        if isinstance(formula, Not):
            return Not(sub_formula(formula.child))
        if isinstance(formula, And):
            return And(*(sub_formula(o) for o in formula.operands))
        if isinstance(formula, Or):
            return Or(*(sub_formula(o) for o in formula.operands))
        if isinstance(formula, Quantified):
            return Quantified(
                formula.kind, formula.var, sub_range(formula.range), sub_formula(formula.body)
            )
        raise AssertionError(f"unexpected node {formula!r}")

    def sub_range(range_expr: RangeExpr) -> RangeExpr:
        if range_expr.restriction is None:
            return range_expr
        return RangeExpr(range_expr.relation, sub_formula(range_expr.restriction))

    bindings = tuple(
        VariableBinding(b.var, sub_range(b.range)) for b in selection.bindings
    )
    return Selection(selection.columns, bindings, sub_formula(selection.formula)), values


def _perturb(prepared, base_values: dict, delta: int) -> dict:
    """A variant binding set: shift each value within its resolved type."""
    if delta == 0:
        return dict(base_values)
    variant = {}
    for name, value in base_values.items():
        parameter = prepared.parameters.get(name)
        scalar = parameter.type if parameter is not None else None
        if isinstance(scalar, Subrange):
            span = scalar.high - scalar.low + 1
            variant[name] = scalar.low + (int(value) - scalar.low + delta) % span
        elif isinstance(scalar, Enumeration) and isinstance(value, EnumValue):
            labels = scalar.labels
            position = (value.ordinal + delta) % len(labels)
            variant[name] = labels[position]
        else:
            variant[name] = value
    return variant


@PROPERTY_SETTINGS
@given(
    seed=st.integers(min_value=0, max_value=50_000),
    delta=st.integers(min_value=0, max_value=5),
)
def test_prepared_parameterized_query_matches_fresh_evaluation(seed, delta):
    """Prepare once, execute with several generated bindings: each run must
    equal naive evaluation of a freshly bound copy of the query — catching
    stale-plan and binding-leak bugs in the service layer."""
    pair = workload(seed)
    if pair is None:
        return
    database, resolved = pair
    parameterized, base_values = _parameterize(resolved)
    if not base_values:
        return
    service = connect(database).service
    try:
        prepared = service.prepare(parameterized)
    except PascalRError:
        return  # e.g. the rewrite produced a parameter-only comparison
    for values in (base_values, _perturb(prepared, base_values, delta), base_values):
        coerced = {
            name: (prepared.parameters[name].type.coerce(value)
                   if prepared.parameters[name].type is not None else value)
            for name, value in values.items()
        }
        expected = evaluate_selection_naive(
            bind_selection(prepared.selection, coerced), database
        )
        result = prepared.execute(values)
        assert result.relation == expected, (seed, values)


@PROPERTY_SETTINGS
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_prepared_base_binding_reproduces_the_original_query(seed):
    """Binding the original constants back must reproduce the unparameterized
    query's naive result exactly (plan reuse does not change semantics)."""
    pair = workload(seed)
    if pair is None:
        return
    database, resolved = pair
    parameterized, base_values = _parameterize(resolved)
    if not base_values:
        return
    expected = evaluate_selection_naive(resolved, database)
    service = connect(database).service
    try:
        prepared = service.prepare(parameterized)
    except PascalRError:
        return
    for _ in range(2):  # the second run exercises the collection memo
        assert prepared.execute(base_values).relation == expected, seed


@pytest.mark.parametrize("base_seed", [0, 1000, 2000, 3000])
def test_deterministic_replay_of_random_workloads(base_seed):
    """The generator is deterministic, so regression seeds stay meaningful."""
    first = random_workload(base_seed)
    second = random_workload(base_seed)
    assert first[1] == second[1]
    assert first[0].cardinalities() == second[0].cardinalities()


def test_dense_seed_sweep_all_strategies():
    """A deterministic sweep (no hypothesis shrinking) over 150 seeds."""
    rng = random.Random(7)
    seeds = [rng.randint(0, 100_000) for _ in range(150)]
    for seed in seeds:
        pair = workload(seed)
        if pair is None:
            continue
        database, resolved = pair
        expected = evaluate_selection_naive(resolved, database)
        engine = QueryEngine(database)
        for options in (CONFIGS[0], CONFIGS[1]):
            assert engine.run(resolved, options=options).relation == expected, seed
