import math
import operator
import re

import numpy as np
import pytest

from expr_corpus import CORPUS, KN_SOURCE, VDW_SOURCE
from gtdkit import fundeq, geometry, jets
from gtdkit.errors import DomainError, ParseError
from gtdkit.fundeq import (
    BinOp,
    Call,
    Name,
    Neg,
    Num,
    builtin,
    eval_jet,
    evaluate,
    intensive_variables,
    load_system_file,
    parse,
    potential_value,
    stability_residual_vdw,
    to_source,
)


# -- parsing ---------------------------------------------------------------------


def test_negative_zero_prints_with_its_sign():
    assert to_source(Num(-0.0)) == "-0"
    value = eval_jet(parse(to_source(Num(-0.0))), {})
    assert value == 0.0 and math.copysign(1.0, value) == -1.0
    assert to_source(BinOp("^", Name("x"), Num(-0.0))) == "x^(-0)"


def test_parse_division_node():
    tree = parse("a/V")
    assert tree == BinOp("/", Name("a"), Name("V"))


def test_parse_vdw_tree():
    tree = parse(VDW_SOURCE)
    assert isinstance(tree, BinOp) and tree.op == "-"
    power = tree.left
    assert isinstance(power, BinOp) and power.op == "^"
    assert power.right == BinOp("/", Num(2.0), Num(3.0))
    assert tree.right == BinOp("/", Name("a"), Name("V"))


def test_parse_error_position():
    with pytest.raises(ParseError, match="position 4"):
        parse("S + * V")


def test_unknown_function():
    with pytest.raises(ParseError, match="unknown function"):
        parse("tan(S)")


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse("(S + V")


def test_power_right_associative():
    assert eval_jet(parse("2^3^2"), {}) == 512.0
    assert eval_jet(parse("(2^3)^2"), {}) == 64.0


def test_unary_minus_below_power():
    # precedence ^ > unary -: -S^2 is -(S^2)
    assert eval_jet(parse("-S^2"), {"S": 3.0}) == -9.0
    assert eval_jet(parse("(-S)^2"), {"S": 3.0}) == 9.0
    assert eval_jet(parse("-S*V"), {"S": 3.0, "V": 5.0}) == -15.0


def test_left_associativity():
    assert eval_jet(parse("10 - 4 - 3"), {}) == 3.0
    assert eval_jet(parse("24/4/2"), {}) == 3.0


@pytest.mark.parametrize("source", CORPUS)
def test_round_trip(source):
    tree = parse(source)
    assert parse(to_source(tree)) == tree


# -- evaluation -------------------------------------------------------------------


def test_evaluate_vdw_limit_constant():
    spec = builtin("vdw", a=0.0, b=0.0)
    jet = evaluate(spec, (0.0, 1.0))
    assert jet.value == pytest.approx(1.0, rel=1e-14)


def test_evaluate_kerr_newman_unit_mass():
    spec = builtin("kerr_newman")
    jet = evaluate(spec, (math.pi, 0.0, 1.0))
    assert jet.value == pytest.approx(1.0, rel=1e-14)


def test_evaluate_outside_domain():
    spec = builtin("vdw")  # b = 0.1
    with pytest.raises(DomainError):
        evaluate(spec, (0.0, 0.1))


# an overflow or a NaN inside the tape is a value or a failed point, and never
# a numpy warning, which the tests turn into errors


def test_huge_point_overflows_to_a_zero_det_g_without_a_warning():
    f = geometry.HessianMetricField(builtin("reissner_nordstrom"))
    assert geometry.metric_determinant(f, (1e300, 1.0)) == 0.0


def test_infinite_point_fails_det_g_without_a_warning():
    f = geometry.HessianMetricField(builtin("reissner_nordstrom"))
    with pytest.raises(DomainError, match=r"point \(inf, 1.0\) makes reissner_nordstrom .* not a number"):
        geometry.metric_determinant(f, (math.inf, 1.0))


def test_infinite_point_fails_the_potential_without_a_warning():
    with pytest.raises(DomainError, match=r"point \(inf, inf\) makes reissner_nordstrom .* not a number"):
        potential_value(builtin("reissner_nordstrom"), (math.inf, math.inf))


def _python_eval(tree, env):
    """Python's own float arithmetic on the printed expression: an oracle independent of jets.

    Python's `**` is right-associative and binds tighter than unary minus, as `^` does.
    """
    functions = {"exp": math.exp, "ln": math.log, "sqrt": math.sqrt, "sin": math.sin}
    namespace = {**functions, "cos": math.cos, "pi": math.pi, **env}
    return eval(to_source(tree).replace("^", "**"), {"__builtins__": {}}, namespace)


def test_order_zero_matches_plain_eval():
    env = {"S": 0.8, "V": 1.7, "J": 0.4, "Q": 0.9, "k": 1.0, "a": 1.0, "b": 0.1, "theta": 0.6}
    for source in (VDW_SOURCE, KN_SOURCE, "sin(theta)^2", "exp(S/k)/(V-b)"):
        tree = parse(source)
        names = fundeq.compile_exprs([tree], ()).names
        jet_env = {n: jets.seed_variable(i, env[n], len(names), 0) for i, n in enumerate(names)}
        via_jet = fundeq.eval_jet(tree, jet_env)
        via_jet = via_jet.value if isinstance(via_jet, jets.Jet) else via_jet
        plain = _python_eval(tree, env)
        assert via_jet == pytest.approx(plain, rel=1e-14)


def _outcome(call):
    try:
        return call()
    except DomainError as exc:
        return f"DomainError: {exc}"


@pytest.mark.parametrize(
    "template", ["exp({})", "ln({})", "sqrt({})", "sin({})", "cos({})", "{}^3", "{}^(-1)", "{}^(1/3)"]
)
@pytest.mark.parametrize("x", [1000.0, 0.5, 0.0, -8.0])
def test_constant_follows_variable_rules(template, x):
    # a constant operand gives what the same operation gives over a variable at that value;
    # exp(1000) overflows on purpose
    with np.errstate(over="ignore", invalid="ignore"):
        over_constant = _outcome(lambda: eval_jet(parse(template.format(f"({x!r})")), {}))
        seeded = {"x": jets.seed_variable(0, x, 1, 0)}
        over_variable = _outcome(lambda: eval_jet(parse(template.format("x")), seeded).value)
    assert over_constant == over_variable


def test_domain_predicate_runs_once_per_batch():
    calls = []

    def positive_entropy(env):
        calls.append(env["S"])
        return env["S"] > 0.0

    spec = fundeq.SystemSpec("counted", ("S",), parse("ln(S)"), domain=positive_entropy)
    points = np.linspace(-1.0, 2.0, 128)[:, None]
    jet = evaluate(spec, points, order=2)
    assert len(calls) == 1
    assert jet.failed.tolist() == (points[:, 0] <= 0.0).tolist()


def test_unresolved_identifier():
    with pytest.raises(DomainError, match="unresolved"):
        eval_jet(parse("S + missing"), {"S": 1.0})


# -- the tape ---------------------------------------------------------------------

_TAPE_VARIABLES = ("S", "V", "J", "Q", "theta")
_TAPE_PARAMETERS = {"a": 1.0, "b": 0.1, "c": 0.7, "d": -1.3, "e": 2.2, "f": 0.4, "k": 1.0}


def _tape_jets(sources, points):
    tape = fundeq.compile_exprs([parse(s) for s in sources], _TAPE_VARIABLES)
    with np.errstate(all="ignore"):
        return fundeq.evaluate_exprs(tape, _TAPE_PARAMETERS, points, 2)


@pytest.mark.parametrize("first", CORPUS)
def test_tape_sharing_is_invisible(first):
    # a list compiled together gives each expression the bits it gets alone, save
    # that a point failed by one expression is failed in every result
    rng = np.random.default_rng(3)
    batch = rng.uniform([0.5, 0.5, -1.0, -1.0, 0.1], [2.0, 2.0, 1.0, 1.0, 1.0], (16, 5))
    for second in CORPUS:
        alone = [_outcome(lambda s=s: _tape_jets([s], batch[0])) for s in (first, second)]
        together = _outcome(lambda: _tape_jets([first, second], batch[0]))
        if any(isinstance(out, str) for out in alone):
            assert isinstance(together, str), second
        else:
            assert [j.coeffs.tobytes() for j in together] == [j[0].coeffs.tobytes() for j in alone]
        alone = _tape_jets([first], batch) + _tape_jets([second], batch)
        failed = alone[0].failed | alone[1].failed
        expected = [np.where(failed, np.nan, jet.coeffs).tobytes() for jet in alone]
        assert [j.coeffs.tobytes() for j in _tape_jets([first, second], batch)] == expected, second


# (S, V, J, Q, theta) with b = 0.1: points that fail (V <= b, S <= 0), overflow
# (S = 1000 in exp(S/k)), or sit at a signed zero
_WALK_POINTS = np.array(
    [
        (0.8, 1.7, 0.4, 0.9, 0.6),
        (1.5, 0.3, -0.7, -0.2, 2.0),
        (2.0, 0.1, 0.0, 0.0, -0.0),
        (0.5, 0.05, 1.0, -0.0, 0.0),
        (0.0, 1.0, 0.3, 0.5, 1.0),
        (-0.0, 2.0, 0.3, 0.5, -1.0),
        (-0.5, 1.0, -1.0, 1.0, 3.0),
        (1000.0, 3.0, 2.0, 1.5, 5e-324),
    ]
)


def _walk(node, env):
    """The tree evaluated by `Jet`'s operators over jets and by float arithmetic over numbers.

    A function or power of a number is the value of the jet function on its
    order-0 constant jet, and an exponent over the variables is exp(b ln a).
    """
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        return env[node.ident] if node.ident in env else fundeq.CONSTANTS[node.ident]
    if isinstance(node, Neg):
        return -_walk(node.operand, env)
    if isinstance(node, Call):
        return _on_jet(getattr(jets, node.func), _walk(node.arg, env))
    x, y = _walk(node.left, env), _walk(node.right, env)
    if node.op == "/" and not isinstance(y, jets.Jet) and y == 0.0:
        raise DomainError("division by zero")
    if node.op == "^":
        if isinstance(y, jets.Jet):
            return jets.exp(y * _on_jet(jets.ln, x))
        return _on_jet(lambda base: jets.power(base, y), x)
    return {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}[
        node.op
    ](x, y)


def _on_jet(function, x):
    return function(x) if isinstance(x, jets.Jet) else function(jets.constant(x, 1, 0)).value


def _walk_env(points, order):
    env = dict(_TAPE_PARAMETERS)
    for i, name in enumerate(_TAPE_VARIABLES):
        env[name] = jets.seed_variable(i, points[..., i], len(_TAPE_VARIABLES), order)
    return env


def _bits(value):
    if isinstance(value, jets.Jet):
        return value.nvars, value.order, value.coeffs.shape, value.coeffs.tobytes()
    return np.float64(value).tobytes()


@pytest.mark.parametrize("source", CORPUS)
def test_plan_matches_a_walk_with_jet_operators(source):
    # the tape's number and array steps give the bits, signed zeros and NaN
    # columns of Jet's operators, at one point and in a batch, and one failed
    # point raises the same DomainError
    tree = parse(source)
    with np.errstate(all="ignore"):
        for order in range(4):
            for points in (_WALK_POINTS, *_WALK_POINTS):
                env = _walk_env(points, order)
                via_plan = _outcome(lambda: _bits(fundeq.eval_jet(tree, env)))
                assert via_plan == _outcome(lambda: _bits(_walk(tree, env))), (order, points)


@pytest.mark.parametrize("source", CORPUS)
def test_order_zero_is_the_constant_term_at_every_order(source):
    # each order-0 kernel is the constant term of its series, bit for bit, as
    # sin(a0 + 0.0) is at theta = -0.0; a column with a NaN at a higher order
    # (as x^0 of a column whose derivatives failed) is left out
    tree = parse(source)
    with np.errstate(all="ignore"):
        value = fundeq.eval_jet(tree, _walk_env(_WALK_POINTS, 0))
        for order in range(1, 4):
            walked = _walk(tree, _walk_env(_WALK_POINTS, order))
            if not isinstance(walked, jets.Jet):
                assert _bits(walked) == _bits(value)
                continue
            kept = ~walked.failed
            assert walked.value[kept].tobytes() == value.value[kept].tobytes(), order


@pytest.mark.parametrize("source", CORPUS)
def test_freed_tape_values_change_no_bits(source):
    # run_tape lets an array step's value go after its last read: with a second
    # output that shares steps with the first, every corpus expression keeps
    # the bits, signed zeros, NaN columns and errors of a run that keeps every
    # value, at orders 0-3, at one point and in a batch
    tape = fundeq.compile_exprs([parse(source), parse(KN_SOURCE)], _TAPE_VARIABLES)
    keeping = tape._replace(drops=((),) * len(tape.steps))  # every value kept to the end
    with np.errstate(all="ignore"):
        for order in range(4):
            for points in (_WALK_POINTS, *_WALK_POINTS):
                freed, kept = (
                    _outcome(lambda t=t: [_bits(j) for j in fundeq.evaluate_exprs(t, _TAPE_PARAMETERS, points, order)])
                    for t in (tape, keeping)
                )
                assert freed == kept, (order, points)


@pytest.mark.parametrize("source", CORPUS)
def test_tape_lets_go_only_array_values_no_later_step_reads(source):
    tape = fundeq.compile_exprs([parse(source), parse(KN_SOURCE)], _TAPE_VARIABLES)
    dropped = {step: i for i, drops in enumerate(tape.drops) for step in drops}
    assert len(dropped) == sum(map(len, tape.drops))  # each value goes once
    assert not dropped.keys() & set(tape.outputs)
    assert all(tape.arrays[step] for step in dropped)
    for i, (_, _, x, y) in enumerate(tape.steps):
        assert all(dropped.get(read, i) >= i for read in {x, y} - {None})
    env = {**_TAPE_PARAMETERS, **_walk_env(_WALK_POINTS[0], 2)}
    env.update((name, env[name].coeffs) for name in _TAPE_VARIABLES)
    with np.errstate(all="ignore"):
        values = _outcome(lambda: fundeq.run_tape(tape, env, len(_TAPE_VARIABLES), 2))
    if not isinstance(values, str):
        assert [i for i, value in enumerate(values) if value is None] == sorted(dropped)
        assert all(values[step] is not None for step in tape.outputs)


def test_a_wide_tape_keeps_few_arrays_alive():
    # KN's order-3 tape holds 16 array values, 3 of them the seeded variables,
    # which it takes out of the environment; letting each go after its last
    # read leaves only the output at the end
    tape = builtin("kerr_newman").tape
    assert sum(tape.arrays) == 16
    env = {name: jets.seed_coeffs(i, 1.0 + i, 3, 3) for i, name in enumerate(tape.variables)}
    values = fundeq.run_tape(tape, env, 3, 3)
    (output,) = tape.outputs
    assert [i for i, value in enumerate(values) if isinstance(value, np.ndarray)] == [output]
    assert env == {}


def test_tape_keeps_signed_zeros():
    tape = fundeq.compile_exprs([Num(0.0), Num(-0.0), Num(0.0)], ("x",))
    assert tape.outputs[0] == tape.outputs[2] != tape.outputs[1]
    values = fundeq.evaluate_exprs(tape, {}, (1.0,), 0)
    assert [math.copysign(1.0, jet.value) for jet in values] == [1.0, -1.0, 1.0]


def test_tape_shares_equal_subtrees():
    tape = fundeq.compile_exprs([parse(VDW_SOURCE), parse("exp(S/k)/(V-b) + a/V")], ("S", "V"))
    ops = [op for op, _, _, _ in tape.steps]
    # S/k and 2/3 divide by numbers; the array denominators V - b and V are
    # one reciprocal each, multiplied into both expressions
    assert ops.count("exp") == 1 and ops.count("/") == 2 and ops.count("1/") == 2
    keys = _tape_shape(tape).steps
    assert len(keys) == len(set(keys))


def _tape_shape(tape):
    """The tape with each step's function left out: a name or number by its value, an op by its operands."""
    keys = tuple((op, f.args) if x is None else (op, x, y) for op, f, x, y in tape.steps)
    return tape._replace(steps=keys)


def _free_names(node) -> set[str]:
    """The names a tree reads but the constants, by a recursive walk of its own."""
    if isinstance(node, Num):
        return set()
    if isinstance(node, Name):
        return set() if node.ident in fundeq.CONSTANTS else {node.ident}
    if isinstance(node, Neg):
        return _free_names(node.operand)
    if isinstance(node, Call):
        return _free_names(node.arg)
    return _free_names(node.left) | _free_names(node.right)


_NAMED_LISTS = {
    **{f"corpus {source}": [parse(source)] for source in CORPUS},
    **{f"builtin {name}": [builtin(name).potential] for name in fundeq.BUILTIN_NAMES},
    **{
        f"closed form {name}": [c for row in geometry.closed_form_metric(name).components for c in row]
        for name in geometry.CLOSED_FORM_NAMES
    },
}


@pytest.mark.parametrize("label", sorted(_NAMED_LISTS))
def test_tape_names_are_the_names_a_walk_finds(label):
    # compiling walks the trees once, and that walk records the names the
    # name checks read: every identifier but `pi`, sorted
    exprs = _NAMED_LISTS[label]
    expected = tuple(sorted(set().union(*map(_free_names, exprs))))
    for variables in ((), expected):
        assert fundeq.compile_exprs(exprs, variables).names == expected


@pytest.mark.parametrize("name", ["reissner_nordstrom", "kerr_newman", "vdw"])
def test_tape_runs_at_every_order_as_compiled(monkeypatch, name):
    # one step list serves every order: evaluating compiles nothing, leaves the
    # tape as it was and gives the bits of a tape compiled afresh
    spec = builtin(name)
    tape = spec.tape
    fresh = fundeq.compile_exprs([spec.potential], spec.variables)
    points = np.array([(3.0, 0.5, 0.8), (5.0, 1.0, 0.3)])[:, : spec.dim]
    compiled = []
    monkeypatch.setattr(fundeq, "compile_exprs", lambda *args: compiled.append(args))
    for point in (points[0], points):
        for order in range(5):
            jet = evaluate(spec, point, order)
            (alone,) = fundeq.evaluate_exprs(
                fresh, spec.parameters, point, order, spec.domain, fundeq.domain_label(spec)
            )
            assert (jet.order, jet.coeffs.tobytes()) == (order, alone.coeffs.tobytes())
    assert compiled == []
    # every field of the tape is a tuple: nothing is cached in it
    assert spec.tape is tape and all(isinstance(field, tuple) for field in tape)


@pytest.mark.parametrize("name, order", [("kerr_newman", 3), ("reissner_nordstrom", 2)])
def test_plan_shares_one_reciprocal_per_denominator(monkeypatch, name, order):
    # the potential divides by S twice, as pi*J^2/S and pi*Q^2/S: one reciprocal
    spec = builtin(name)
    calls, reciprocal = [0], jets.reciprocal_coeffs

    def counted(*args):
        calls[0] += 1
        return reciprocal(*args)

    monkeypatch.setattr(jets, "reciprocal_coeffs", counted)
    points = np.array([(3.0, 0.5, 0.8), (5.0, 1.0, 0.3)])[:, : spec.dim]
    evaluate(spec, points, order)
    assert calls[0] == 1


# -- intensive variables ------------------------------------------------------------


def test_intensive_rn_extremal_temperature():
    spec = builtin("reissner_nordstrom")
    t, _phi = intensive_variables(spec, (math.pi, 1.0))
    assert abs(t) <= 1e-14


def test_intensive_product_potential():
    spec = fundeq.SystemSpec(name="product", variables=("E1", "E2"), potential=parse("E1*E2"))
    assert list(intensive_variables(spec, (2.0, 3.0))) == [3.0, 2.0]


def test_intensive_ideal_gas():
    spec = builtin("vdw", a=0.0, b=0.0)
    t, iv = intensive_variables(spec, (0.0, 1.0))
    assert t == pytest.approx(2 / 3, rel=1e-14)
    assert iv == pytest.approx(-2 / 3, rel=1e-14)


def test_intensive_equals_order_one_jet():
    spec = builtin("kerr_newman")
    point = (3.0, 0.5, 0.8)
    jet = evaluate(spec, point, order=1)
    grad = [jets.extract_partial(jet, tuple(1 if i == a else 0 for i in range(3))) for a in range(3)]
    assert list(intensive_variables(spec, point)) == grad


# -- builtins ------------------------------------------------------------------------


def test_builtin_vdw_two_variables():
    spec = builtin("vdw", a=1.0, b=0.1)
    assert spec.variables == ("S", "V")
    assert spec.parameters["a"] == 1.0


def test_builtin_kerr_variables():
    spec = builtin("kerr")
    assert spec.variables == ("S", "J")
    assert spec.parameters["Q"] == 0.0


def test_builtin_unknown():
    with pytest.raises(ValueError, match="unknown built-in"):
        builtin("bogus")


_VDW = "(exp(S/k)/(V-b))^(2/3) - a/V"
_KN = "sqrt(pi*J^2/S + (S/(4*pi))*(1 + pi*Q^2/S)^2)"
_CATALOGUE = {
    "ideal_gas": fundeq.SystemSpec(
        "ideal_gas", ("S", "V"), parse(_VDW), {"a": 0.0, "b": 0.0, "k": 1.0},
        None, None, fundeq._above_covolume, "V > b",
    ),
    "kerr": fundeq.SystemSpec(
        "kerr", ("S", "J"), parse(_KN), {"Q": 0.0},
        (1.0, 1.0), 0.5, fundeq._positive_entropy, "S > 0",
    ),
    "kerr_newman": fundeq.SystemSpec(
        "kerr_newman", ("S", "J", "Q"), parse(_KN), {},
        (1.0, 1.0, 0.5), 0.5, fundeq._positive_entropy, "S > 0",
    ),
    "reissner_nordstrom": fundeq.SystemSpec(
        "reissner_nordstrom", ("S", "Q"), parse(_KN), {"J": 0.0},
        (1.0, 0.5), 0.5, fundeq._positive_entropy, "S > 0",
    ),
    "vdw": fundeq.SystemSpec(
        "vdw", ("S", "V"), parse(_VDW), {"a": 1.0, "b": 0.1, "k": 1.0},
        None, None, fundeq._above_covolume, "V > b",
    ),
}


@pytest.mark.parametrize("name", sorted(_CATALOGUE))
def test_builtin_builds_the_catalogued_system(name):
    spec, expected = builtin(name), _CATALOGUE[name]
    assert fundeq.BUILTIN_NAMES == tuple(sorted(_CATALOGUE))
    assert spec == expected and repr(spec) == repr(expected)
    assert _tape_shape(spec.tape) == _tape_shape(expected.tape)


def test_spec_keeps_its_own_parameters():
    # the caller's dict is copied: changing it later moves no spec
    given = {"a": 1.0, "b": 0.1, "k": 1.0}
    spec = fundeq.SystemSpec("v", ("S", "V"), parse(_VDW), given)
    before = potential_value(spec, (1.0, 2.0))
    given["a"] = 5.0
    assert spec.parameters == {"a": 1.0, "b": 0.1, "k": 1.0}
    assert potential_value(spec, (1.0, 2.0)) == before


def test_builtin_parameters_are_not_shared():
    # each built-in spec holds its own dict, not the catalogue's
    builtin("vdw").parameters["a"] = 5.0
    assert builtin("vdw").parameters == {"a": 1.0, "b": 0.1, "k": 1.0}


@pytest.mark.parametrize("name, params", [("vdw", {"a": 2.0}), ("kerr_newman", {})])
def test_builtin_compiles_its_potential_once(monkeypatch, name, params):
    # an override keeps the tape: it depends on no parameter value
    calls, compile_exprs = [], fundeq.compile_exprs

    def counting_compile(exprs, variables):
        calls.append(exprs)
        return compile_exprs(exprs, variables)

    monkeypatch.setattr(fundeq, "compile_exprs", counting_compile)
    spec = builtin(name, **params)
    assert len(calls) == 1
    assert spec.parameters == {**builtin(name).parameters, **params}


def test_overridden_parameter_is_the_one_evaluated():
    spec = builtin("vdw", a=2.0)
    assert builtin("vdw").parameters["a"] == 1.0
    expected = potential_value(builtin("vdw"), (1.0, 2.0)) - (2.0 - 1.0) / 2.0
    assert potential_value(spec, (1.0, 2.0)) == pytest.approx(expected, rel=1e-14)
    assert spec.with_parameters(a=1.0).tape is spec.tape


def test_with_parameters_rejects_unknown():
    with pytest.raises(ValueError, match="unknown parameters"):
        builtin("vdw").with_parameters(zeta=2.0)


def test_vdw_domain_follows_b_override():
    spec = builtin("vdw", b=0.5)
    with pytest.raises(DomainError):
        evaluate(spec, (0.0, 0.4), order=0)
    evaluate(spec, (0.0, 0.6), order=0)


def test_vdw_domain_follows_with_parameters():
    # the domain predicate reads b from the parameters, not from the catalogue
    spec = builtin("vdw").with_parameters(b=0.5)
    with pytest.raises(DomainError, match="outside domain") as info:
        evaluate(spec, (1.0, 0.3))
    assert "V > b" in str(info.value) and "b = 0.5" in str(info.value)
    batch = evaluate(spec, np.array([[1.0, 0.3], [1.0, 0.6]]))
    assert batch.failed.tolist() == [True, False]


def test_kerr_newman_weighted_scaling():
    spec = builtin("kerr_newman")
    rng = np.random.default_rng(3)
    for _ in range(10):
        s, j, q = rng.uniform(1, 8), rng.uniform(0.1, 1.5), rng.uniform(0.3, 1.5)
        m = potential_value(spec, (s, j, q))
        for lam in (0.5, 2.0, 10.0):
            scaled = potential_value(spec, (lam * s, lam * j, math.sqrt(lam) * q))
            assert scaled == pytest.approx(math.sqrt(lam) * m, rel=1e-12)


# -- stability residual ---------------------------------------------------------------


def test_stability_residual_ideal_gas_positive():
    spec = builtin("vdw", a=0.0, b=0.0)
    for s, v in [(0.0, 1.0), (1.0, 2.0), (0.5, 0.3)]:
        assert stability_residual_vdw(spec, (s, v)) > 0.0


def test_stability_residual_constructed_zero():
    # a=1, b=0: residual = P V^3 - V; choosing S so that P = 1/V^2 makes it vanish
    spec = builtin("vdw", a=1.0, b=0.0)
    v = 1.0
    s = 1.5 * math.log(3.0 * v ** (-1 / 3))
    assert abs(stability_residual_vdw(spec, (s, v))) <= 1e-12


def test_stability_residual_rejects_other_systems():
    with pytest.raises(ValueError, match="vdW family"):
        stability_residual_vdw(builtin("kerr"), (1.0, 1.0))


# -- system definition files ------------------------------------------------------------


SYSTEM_FILE = """
[system]
name = toy_gas
variables = S, V
potential = (exp(S/k)/(V-b))^(2/3) - a/V
weights = 1, 1
beta = 2

[parameters]
a = 1.0
b = 0.1
k = 1.0
"""


def test_load_system_file(tmp_path):
    path = tmp_path / "toy.ini"
    path.write_text(SYSTEM_FILE)
    spec = load_system_file(path)
    assert spec.name == "toy_gas"
    assert spec.variables == ("S", "V")
    assert spec.beta == 2.0
    ref = builtin("vdw", a=1.0, b=0.1)
    point = (0.7, 1.3)
    assert potential_value(spec, point) == pytest.approx(potential_value(ref, point), rel=1e-15)


def test_load_system_file_missing_key(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[system]\nname = x\n")
    with pytest.raises(ParseError, match="missing"):
        load_system_file(path)


def test_spec_rejects_reserved_names():
    with pytest.raises(ValueError, match="reserved"):
        fundeq.SystemSpec(name="bad", variables=("pi",), potential=parse("pi"))


def test_spec_rejects_undeclared_identifiers():
    with pytest.raises(ValueError, match="undeclared"):
        fundeq.SystemSpec(name="bad", variables=("S",), potential=parse("S + missing"))


# names no expression can read: a typo here would leave a variable that no
# potential reaches, so it is an input error and not a degenerate metric
_UNREADABLE_NAMES = ["V-b", "2y", "S V", "x.y", "_x", ""]


@pytest.mark.parametrize("bad", _UNREADABLE_NAMES)
@pytest.mark.parametrize("declared_as", ["variable", "parameter"])
def test_spec_rejects_a_name_the_grammar_cannot_read(bad, declared_as):
    variables, parameters = (("S", bad), {}) if declared_as == "variable" else (("S",), {bad: 1.0})
    with pytest.raises(ValueError, match=re.escape(f"identifiers of the grammar: [{bad!r}]")):
        fundeq.SystemSpec("bad", variables, parse("S^2"), parameters)


def test_name_rule_comes_between_the_reserved_and_undeclared_checks():
    with pytest.raises(ValueError, match=re.escape("reserved identifiers cannot be declared: ['pi']")):
        fundeq.SystemSpec("bad", ("pi", "2y"), parse("pi"))
    with pytest.raises(ValueError, match=re.escape("identifiers of the grammar: ['2y']")):
        fundeq.SystemSpec("bad", ("S", "2y"), parse("S + missing"))
