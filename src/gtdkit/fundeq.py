"""Thermodynamic systems: fundamental equations and the expression language.

A system is a potential Phi(E^1..E^n) over named extensive variables plus a
parameter map. Potentials come from a small expression grammar and are
evaluated over jets, so every derivative the geometry needs is exact. An
expression list is compiled once, over its variables, into a `Tape`: a
postorder list of its distinct steps, so a subtree that several expressions
share, or that one repeats, runs once per evaluation, and the names the trees
read, which `check_names` checks. Each step is a number (it touches no
variable) or an array step, and `run_tape` runs the one step list at every
nvars and order: a number step is float arithmetic, and a function or power
of a number runs the jet kernel at order 0, so it obeys the same domain and
overflow rules as over a variable; an array step runs a kernel of `jets` on
plain coefficient arrays, holding only the coefficients over the variables
it reads, and at order 0 that is numpy on the values. `evaluate_exprs` is
the one place expressions become jets, at one point or over a batch: it
seeds coefficient arrays, runs the tape and wraps only the distinct outputs,
every coefficient in place, in `Jet`s. `evaluate` runs a system's potential
tape, and `eval_jet` one expression over jets and numbers.

Expression grammar (also the format used in system definition files)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' factor)?          -- '^' right-associative
    base   := number | ident | func '(' expr ')' | '(' expr ')' | '-' factor
    func   := 'exp' | 'ln' | 'sqrt' | 'sin' | 'cos'

Precedence is ^ > unary minus > * / > + -, so ``-S^2`` means ``-(S^2)``.
The identifier ``pi`` is a reserved constant.
"""

from __future__ import annotations

import functools
import math
import re
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence, Union

import numpy as np

from . import jets
from .errors import DomainError, ParseError
from .jets import Jet

if TYPE_CHECKING:
    import configparser

FUNCTIONS = tuple(jets.FUNCTION_KERNELS)  # the functions of the grammar
CONSTANTS = {"pi": math.pi}


# -- abstract syntax tree ------------------------------------------------------
#
# A node is a named tuple: it compares and hashes as the tuple of its fields.


class Num(NamedTuple):
    value: float


class Name(NamedTuple):
    ident: str


class Neg(NamedTuple):
    operand: "Expr"


class BinOp(NamedTuple):
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


class Call(NamedTuple):
    func: str
    arg: "Expr"


Expr = Union[Num, Name, Neg, BinOp, Call]


# -- parser --------------------------------------------------------------------

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    rf"|(?P<ident>{_IDENT_RE.pattern})"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            at = len(source) - len(stripped)
            raise ParseError(f"unexpected character {stripped[0]!r}", at)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, text, at = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}, found {text or 'end of input'!r}", at)
        self.next()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", at)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                node = BinOp(text, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.next()
                node = BinOp(text, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        node = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.next()
            return BinOp("^", node, self.factor())
        return node

    def base(self) -> Expr:
        kind, text, at = self.next()
        if kind == "num":
            return Num(float(text))
        if kind == "ident":
            nk, nt, _ = self.peek()
            if nk == "op" and nt == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", at)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            return Name(text)
        if kind == "op" and text == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "op" and text == "-":
            # unary minus binds below '^': -S^2 is -(S^2)
            return Neg(self.factor())
        raise ParseError(f"unexpected {text or 'end of input'!r}", at)


@functools.lru_cache(maxsize=256)
def parse(source: str) -> Expr:
    """Parse an expression string into an AST.

    Trees are frozen, so a source parsed again shares its first tree.
    """
    return _Parser(source).parse()


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg) or (isinstance(node, Num) and math.copysign(1.0, node.value) < 0):
        return _PREC["neg"]
    return 9


def to_source(node: Expr) -> str:
    """Print an AST with minimal parentheses; parse(to_source(parse(s))) == parse(s)."""
    if isinstance(node, Num):
        if math.copysign(1.0, node.value) < 0:  # -0.0 too
            return f"-{_wrap(Num(-node.value), _PREC['neg'], True)}"
        v = node.value
        return repr(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Call):
        return f"{node.func}({to_source(node.arg)})"
    if isinstance(node, Neg):
        return f"-{_wrap(node.operand, _PREC['neg'], True)}"
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        if node.op == "^":
            # right-associative: parenthesize left at equal precedence
            return f"{_wrap(node.left, p, True)}^{_wrap(node.right, p, False)}"
        left = _wrap(node.left, p, False)
        right = _wrap(node.right, p, node.op in "-/")
        return f"{left} {node.op} {right}" if p == 1 else f"{left}{node.op}{right}"
    raise TypeError(f"not an Expr node: {node!r}")


def _wrap(node: Expr, parent_prec: int, strict: bool) -> str:
    p = _prec(node)
    text = to_source(node)
    if p < parent_prec or (strict and p == parent_prec):
        return f"({text})"
    return text


# -- evaluation ------------------------------------------------------------------

Scalar = Union[float, Jet]


class Tape(NamedTuple):
    """An expression list compiled once over its variables into the steps that run.

    Step i is (op, f, x, y): a name or a number ("name" or "num", x is None),
    computed as f(env), or an operation on steps x and y, computed as
    f(value x, value y, nvars, order), where a unary op ("neg" or a function)
    has y = x. Every step is a number or an array step, and `arrays[i]` tells
    them apart. A step that touches no variable is a number: a float,
    computed by plain float arithmetic, while a function or power of a number
    is the value of its jet kernel on the order-0 constant, so `sqrt(0)` is a
    DomainError as it is over a variable, and `exp(1000)` is inf. Every other
    step is an array step: the coefficient array of its jet, computed by the
    kernels of `jets` as `Jet`'s operators compute it, at whatever nvars and
    order the tape runs. Equal subtrees are one step, and a division by an
    array y is a product with a ("1/", y) step, one reciprocal per distinct y
    at its first use. Steps come in the order a left-to-right walk of the
    trees first meets them, so the first operation to fail is the one a tree
    walk fails on, and `outputs` holds each expression's step. `drops[i]` are
    the array steps, outputs left out, that no step after step i reads, so
    `run_tape` lets their values go once step i has run. `names` are the
    identifiers the trees read, sorted, constants left out.

    `supports[i]` is a bitmask of the variables array step i reads (0 for a
    number step): a variable's is itself, x op y's the union of its
    operands', and a function's its argument's. A jet over those variables
    alone is zero at every multi-index of degree in another variable, so the
    step's value holds only its stored slots (`jets.support_slots`), and its
    kernel forms only the products of stored slots. Compiled for arbitrary
    jets (`seeded` false, as `eval_jet` does), each variable reads every
    variable, support -1, and every array step is dense. A tape pickles and
    copies as its expressions, variables and `seeded`, compiled again.
    """

    exprs: tuple[Expr, ...]
    variables: tuple[str, ...]
    steps: tuple[tuple[str, Callable, int | None, int | None], ...]
    arrays: tuple[bool, ...]
    outputs: tuple[int, ...]
    names: tuple[str, ...]
    drops: tuple[tuple[int, ...], ...]
    supports: tuple[int, ...]

    def __reduce__(self):
        # only a tape compiled for arbitrary jets has a step of support -1
        return compile_exprs, (self.exprs, self.variables, -1 not in self.supports)


def compile_exprs(exprs: Sequence[Expr], variables: Sequence[str], seeded: bool = True) -> Tape:
    """The tape of `exprs` over `variables`. Constants are not folded: they fail when it runs.

    `seeded`: each variable is bound to its seed, the jet of the coordinate
    function, which varies with that variable alone; else to any jet.
    """
    exprs, variables = tuple(exprs), tuple(variables)
    index: dict[tuple, int] = {}  # the key of each distinct step -> its place, in order
    supports: list[int] = []
    bits = {name: 1 << i if seeded else -1 for i, name in enumerate(variables)}

    def visit(node: Expr) -> int:
        if isinstance(node, Num):
            # 0.0 == -0.0 and they hash alike: the sign keeps them apart
            key, support = ("num", node.value, math.copysign(1.0, node.value)), 0
        elif isinstance(node, Name):
            key, support = ("name", node.ident, None), bits.get(node.ident, 0)
        elif isinstance(node, (Neg, Call)):
            x = visit(node.operand if isinstance(node, Neg) else node.arg)
            key, support = ("neg" if isinstance(node, Neg) else node.func, x, x), supports[x]
        else:
            x, y = visit(node.left), visit(node.right)
            key, support = (node.op, x, y), supports[x] | supports[y]
            if node.op == "/" and supports[y]:
                # x / y is x * (1/y), with 1/y computed at its first use and shared after
                key = ("*", x, index.setdefault(("1/", y, y), len(supports)))
                if key[2] == len(supports):
                    supports.append(supports[y])
        place = index.setdefault(key, len(supports))
        if place == len(supports):
            supports.append(support)
        return place

    outputs = tuple(visit(e) for e in exprs)
    arrays = [bool(support) for support in supports]
    names = tuple(sorted(x for op, x, _ in index if op == "name" and x not in CONSTANTS))
    steps = []
    last_read: dict[int, int] = {}  # each step read by another -> the last step to read it
    for i, ((op, x, y), array) in enumerate(zip(index, arrays)):
        if op == "num" or op == "name":
            args = (x, supports[i]) if array else (x,)
            read = _number if op == "num" else _take if array else _lookup
            f, x, y = functools.partial(read, *args), None, None
        elif not array:
            f = _NUMBER_OPS[op]
        else:
            kind = op if op == "1/" else (op, arrays[x], arrays[y])
            # a step that reads one support, or one array, keeps it
            one = supports[x] == supports[y] or not (supports[x] and supports[y])
            if one and kind in _ARRAY_OPS:
                f = _ARRAY_OPS[kind]
            else:
                f = _support_step(kind, supports[x], supports[y])
        if x is not None:
            last_read[x] = last_read[y] = i
        steps.append((op, f, x, y))
    drops: list[tuple[int, ...]] = [()] * len(steps)
    for step, i in last_read.items():
        if arrays[step] and step not in outputs:
            drops[i] += (step,)
    return Tape(
        exprs, variables, tuple(steps), tuple(arrays), outputs, names, tuple(drops), tuple(supports)
    )


def _number(value: float, env: Mapping, nvars: int, order: int) -> float:
    return value


def _lookup(name: str, env: Mapping, nvars: int, order: int):
    if name in env:
        return env[name]
    if name in CONSTANTS:
        return CONSTANTS[name]
    raise DomainError(f"unresolved identifier {name!r}")


def _take(name: str, support: int, env: dict, nvars: int, order: int):
    """A variable's stored coefficients, its array taken out of `env`: the tape holds it alone.

    A seed stores its order + 1 powers, as `evaluate_exprs` binds it; an
    array of every coefficient is cut to the stored ones.
    """
    if name in env:
        value = env.pop(name)
        return value if len(value) == order + 1 else jets.stored_coeffs(value, support, nvars, order)
    raise DomainError(f"unresolved identifier {name!r}")


def _on_number(kernel: Callable[..., np.ndarray], x: float, *args) -> float:
    """kernel on the order-0 constant x, one point: a domain error raises."""
    return float(kernel(np.array([x], dtype=float), *args, 1, 0)[0])


def _divisor(y: float) -> float:
    if y == 0.0:
        raise DomainError("division by zero")
    return y


# Number steps, f(x, y, nvars, order) on floats; a unary op's y is x. In a^b
# the rule follows the expression, never the point or the jet order: an
# exponent over the variables is exp(b ln a), which needs a > 0.
_NUMBER_OPS: dict[str, Callable] = {
    "neg": lambda x, _, n, k: -x,
    "+": lambda x, y, n, k: x + y,
    "-": lambda x, y, n, k: x - y,
    "*": lambda x, y, n, k: x * y,
    "/": lambda x, y, n, k: x / _divisor(y),
    "^": lambda x, y, n, k: _on_number(jets.power_coeffs, x, y),
    **{
        func: lambda x, _, n, k, kernel=kernel: _on_number(kernel, x)
        for func, kernel in jets.FUNCTION_KERNELS.items()
    },
}

# Array steps by (op, left is an array, right is an array) that read one
# support and keep it: a and b are stored coefficients, c a number.
_ARRAY_OPS: dict[tuple[str, bool, bool], Callable] = {
    ("neg", True, True): lambda a, _, n, k: -a,
    ("+", True, True): lambda a, b, n, k: a + b,
    ("-", True, True): lambda a, b, n, k: a - b,
    ("+", True, False): lambda a, c, n, k: jets.offset_coeffs(a, float(c)),
    ("+", False, True): lambda c, b, n, k: jets.offset_coeffs(b, float(c)),
    ("-", True, False): lambda a, c, n, k: jets.offset_coeffs(a, -float(c)),
    ("-", False, True): lambda c, b, n, k: jets.offset_coeffs(b, float(c), negate=True),
    ("*", True, False): lambda a, c, n, k: a * float(c),
    ("*", False, True): lambda c, b, n, k: b * float(c),
    ("/", True, False): lambda a, c, n, k: a / float(_divisor(c)),
}

# The array steps whose kernels read supports, sums over two supports among
# them, and the reciprocal "1/": each entry makes the step's f(a, b, n, k)
# from its operands' supports s (see `_support_step`).
_SUPPORT_OPS: dict[tuple[str, bool, bool] | str, Callable] = {
    "1/": lambda s: lambda a, _, n, k: jets.reciprocal_coeffs(a, n, k, s[0]),
    ("+", True, True): lambda s: lambda a, b, n, k: jets.add_coeffs(a, b, n, k, s),
    ("-", True, True): lambda s: lambda a, b, n, k: jets.add_coeffs(a, b, n, k, s, subtract=True),
    ("*", True, True): lambda s: lambda a, b, n, k: jets.mul_coeffs(a, b, n, k, s),
    ("^", True, True): lambda s: lambda a, b, n, k: jets.exp_coeffs(
        jets.mul_coeffs(b, jets.ln_coeffs(a, n, k, s[0]), n, k, s[::-1]), n, k, s[0] | s[1]
    ),
    ("^", True, False): lambda s: lambda a, c, n, k: jets.power_coeffs(a, c, n, k, s[0]),
    ("^", False, True): lambda s: lambda c, b, n, k: jets.exp_coeffs(
        b * _on_number(jets.ln_coeffs, c), n, k, s[1]
    ),
    **{
        (func, True, True): lambda s, kernel=kernel: lambda a, _, n, k: kernel(a, n, k, s[0])
        for func, kernel in jets.FUNCTION_KERNELS.items()
    },
}


@functools.lru_cache(maxsize=None)
def _support_step(kind, a_support: int, b_support: int) -> Callable:
    """The function of an array step of `kind` over those supports, made once for every tape."""
    return _SUPPORT_OPS[kind]((a_support, b_support))


def run_tape(
    tape: Tape, env: Mapping[str, Union[float, np.ndarray]], nvars: int, order: int
) -> list:
    """The values of `tape`'s steps over an environment of numbers and coefficient arrays.

    Each variable of the tape is bound to the coefficient array of its jet
    of (nvars, order), or to the stored slots of that array (see `Tape`),
    each other name to a number. A number step's value is a float, an array
    step's the stored slots of its jet's coefficients. Steps run in order,
    so the first to fail raises. Every output and number step keeps its
    value; any other array step's value is None, let go after the last step
    that reads it (`Tape.drops`), so its memory serves the steps after it. A
    variable's step takes its array out of `env`, which then holds it no longer.
    """
    values: list = []
    for (_, f, x, y), drops in zip(tape.steps, tape.drops):
        values.append(f(env, nvars, order) if x is None else f(values[x], values[y], nvars, order))
        for step in drops:
            values[step] = None
    return values


def eval_jet(node: Expr, env: Mapping[str, Scalar]) -> Scalar:
    """One expression over an environment of jets and numbers, through its tape (see `Tape`).

    A float where the expression touches no jet, else a jet like those of the
    environment, which must all have one shape.
    """
    variables = tuple(name for name, value in env.items() if isinstance(value, Jet))
    shapes = {(env[name].nvars, env[name].order, env[name].coeffs.shape) for name in variables}
    if len(shapes) > 1:
        raise ValueError(f"jet shape mismatch: {sorted(shapes)}")
    nvars, order, _ = shapes.pop() if shapes else (1, 0, None)
    tape = compile_exprs([node], variables, seeded=False)
    values = run_tape(tape, {**env, **{name: env[name].coeffs for name in variables}}, nvars, order)
    (step,) = tape.outputs
    return Jet(nvars, order, values[step]) if tape.arrays[step] else values[step]


# -- system specifications -------------------------------------------------------

Point = Sequence[float]
# A domain predicate sees every parameter as a float and every variable as a
# float for one point or an array of coordinates for a batch. It returns True,
# or one bool per point, where a point is admissible: a comparison like V > b.
DomainPredicate = Callable[[Mapping[str, Union[float, np.ndarray]]], Union[bool, np.ndarray]]


class SystemSpec:
    """A thermodynamic system: named variables, parameters, and a potential.

    `weights`/`beta` are the quasi-homogeneity data Phi(l^w_a E^a) = l^beta Phi,
    when the system has them. `domain` narrows the admissible points beyond
    what expression evaluation itself enforces. `tape` is the compiled
    potential. A spec is immutable: it keeps its own copy of `parameters`, so
    changing the caller's dict later moves no spec. Two specs are equal when
    every field but the tape is.
    """

    __slots__ = (
        "name", "variables", "potential", "parameters", "weights", "beta", "domain", "domain_text",
        "tape",
    )

    def __init__(
        self,
        name: str,
        variables: tuple[str, ...],
        potential: Expr,
        parameters: dict[str, float] | None = None,
        weights: tuple[float, ...] | None = None,
        beta: float | None = None,
        domain: DomainPredicate | None = None,
        domain_text: str = "",
    ):
        parameters = dict(parameters or {})  # the spec's own copy
        tape = compile_exprs([potential], variables)
        check_names([*variables, *parameters], tape.names, "potential references")
        if weights is not None and len(weights) != len(variables):
            raise ValueError("one weight per variable required")
        fields = (name, variables, potential, parameters, weights, beta, domain, domain_text, tape)
        for slot, value in zip(self.__slots__, fields):
            object.__setattr__(self, slot, value)

    def __setstate__(self, state: tuple[None, dict]) -> None:
        """Set the slots from the state `copy.copy` and pickle take of a slotted object."""
        for slot, value in state[1].items():
            object.__setattr__(self, slot, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        """Every field but the tape, which equality and repr leave out."""
        return tuple(getattr(self, slot) for slot in self.__slots__[:-1])

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._key()))
        return f"{type(self).__qualname__}({fields})"

    @property
    def dim(self) -> int:
        return len(self.variables)

    def with_parameters(self, **overrides: float) -> "SystemSpec":
        return override_parameters(self, overrides)


def check_names(declared: Sequence[str], names: Sequence[str], subject: str) -> None:
    """`declared` are distinct identifiers, none reserved, and a tape's `names` hold no other."""
    if len(set(declared)) != len(declared):
        raise ValueError("variable and parameter names must be distinct")
    bad = (set(FUNCTIONS) | set(CONSTANTS)).intersection(declared)
    if bad:
        raise ValueError(f"reserved identifiers cannot be declared: {sorted(bad)}")
    bad = [name for name in declared if not _IDENT_RE.fullmatch(name)]
    if bad:
        raise ValueError(f"declared names must be identifiers of the grammar: {sorted(bad)}")
    unknown = set(names) - set(declared)
    if unknown:
        raise ValueError(f"{subject} undeclared identifiers: {sorted(unknown)}")


def override_parameters(source, overrides: Mapping):
    """A copy of a system or direct metric with `overrides` applied; each must name a parameter.

    An override adds no name, so the copy keeps the checked names and the
    compiled tape: nothing is checked or compiled again.
    """
    import copy  # only overrides need it

    unknown = set(overrides) - set(source.parameters)
    if unknown:
        raise ValueError(f"unknown parameters for {source.name!r}: {sorted(unknown)}")
    copied = copy.copy(source)
    object.__setattr__(copied, "parameters", {**source.parameters, **overrides})
    return copied


def evaluate_exprs(
    tape: Tape,
    parameters: Mapping[str, float],
    point: Point | np.ndarray,
    order: int,
    domain: DomainPredicate | None = None,
    label: str = "",
) -> list[Jet]:
    """Jets of the expressions compiled into `tape`, around one point or a (B, n) batch.

    Each variable of the tape, compiled `seeded`, is seeded, and the tape runs
    once: a subexpression shared by several expressions is evaluated once, and equal
    expressions return the same jet. The expressions see the parameters and the variables, and
    so does the domain predicate, once per call: as floats for one point, and
    for a batch with one array of coordinates per variable. A point fails
    where it is outside the domain, where an operation leaves its domain, or
    where any result holds a NaN. One failed point raises DomainError naming
    `label` and the point; in a batch each failed point is a column of NaN in
    every result (see `Jet.failed`), and a DomainError from a constant
    subexpression fails every point. A batch runs the same operations as one
    point, so each point's result is that of its single-point call.
    """
    points = np.asarray(point, dtype=float)
    variables = tape.variables
    nvars = len(variables)
    if points.ndim not in (1, 2) or points.shape[-1] != nvars:
        raise ValueError(
            f"expected {nvars} coordinates or a (B, {nvars}) batch, got shape {points.shape}"
        )
    env = dict(parameters)
    inside = True
    if domain is not None:
        env.update(zip(variables, points.T))
        inside = domain(env)
    batched = points.ndim == 2
    if batched:
        outside = np.zeros(len(points), dtype=bool)
        outside |= np.logical_not(inside)  # one bool, or one per point
        coords = np.where(outside[:, None], np.nan, points)
    elif inside:
        outside, coords = False, points
    else:
        raise _point_error(points, f"outside domain of {label}", parameters)
    for i, name in enumerate(variables):
        # a seed's stored slots hold its powers alone: a jet of one variable
        env[name] = jets.seed_coeffs(0, coords[..., i], 1, order)
    try:
        # an overflow or a NaN is a value, and a NaN a failed point: no warning
        with np.errstate(all="ignore"):
            values = run_tape(tape, env, nvars, order)
    except DomainError as exc:
        if not batched:
            raise _point_error(points, f"fails in {label}", parameters, f": {exc}") from None
        return [jets.constant(np.full(len(points), np.nan), nvars, order)] * len(tape.outputs)
    out = {}  # the coefficients of each distinct output
    for step in tape.outputs:
        value = values[step]
        if tape.arrays[step]:
            value = jets.dense_coeffs(value, tape.supports[step], nvars, order)
        else:
            value = jets.constant_coeffs(np.full(coords.shape[:-1], float(value)), nvars, order)
        out[step] = value
    failed = outside
    for coeffs in out.values():
        # the max of a column is NaN exactly where the column holds a NaN
        failed = failed | np.isnan(coeffs.max(axis=0))
    if failed.any():
        if not batched:
            raise _point_error(points, f"makes {label} not a number", parameters)
        out = {step: np.where(failed, np.nan, coeffs) for step, coeffs in out.items()}
    out = {step: Jet(nvars, order, coeffs) for step, coeffs in out.items()}
    return [out[step] for step in tape.outputs]


def _point_error(point: np.ndarray, reason: str, parameters: Mapping[str, float], detail: str = ""):
    message = f"point {tuple(point.tolist())} {reason}"
    if parameters:
        message += " with " + ", ".join(f"{k} = {v}" for k, v in parameters.items())
    return DomainError(message + detail)


def evaluate(spec: SystemSpec, point: Point, order: int = jets.DEFAULT_ORDER) -> Jet:
    """Jet of the potential around `point`, each variable seeded.

    `point` is one point of n coordinates or a (B, n) array of B points. One
    point outside the domain, or whose jet holds a NaN, raises DomainError; in
    a batch such points come back as columns of NaN (see `Jet.failed`).
    """
    label = domain_label(spec)
    (jet,) = evaluate_exprs(spec.tape, spec.parameters, point, order, spec.domain, label)
    return jet


def domain_label(source) -> str:
    """The name of a system or direct metric in messages, with its domain if it states one."""
    return source.name + (f" (requires {source.domain_text})" if source.domain_text else "")


def potential_value(spec: SystemSpec, point: Point) -> float:
    return evaluate(spec, point, order=0).value


def intensive_variables(spec: SystemSpec, point: Point) -> np.ndarray:
    """Conjugate intensives I_a = dPhi/dE^a as raw gradients.

    No sign conventions are applied here; for the van der Waals family the
    pressure is -I_V (see `stability_residual_vdw`).
    """
    return evaluate(spec, point, order=1).gradient


def hessian(spec: SystemSpec, point: Point) -> np.ndarray:
    """Second-derivative matrix of the potential at a point, (n, n), or (B, n, n) for a batch."""
    hess = jets.partials(evaluate(spec, point, order=2), 2)
    return hess[0] if np.ndim(point) == 1 else hess


VDW_FAMILY = ("vdw", "ideal_gas")


def stability_residual_vdw(spec: SystemSpec, point: Point) -> float:
    """P V^3 - a V + 2 a b with P = -dPhi/dV.

    Zero exactly where the Hessian determinant of the van der Waals potential
    vanishes: det Hess = (4u/9k^2) (P V^3 - a V + 2 a b) / (V^3 (V - b)) with
    u = Phi + a/V > 0, so this is the stability limit the determinant scans
    are checked against.
    """
    if spec.name not in VDW_FAMILY:
        raise ValueError(f"stability residual is defined for the vdW family, not {spec.name!r}")
    a = spec.parameters["a"]
    b = spec.parameters["b"]
    v = float(point[1])
    pressure = -intensive_variables(spec, point)[1]
    return pressure * v**3 - a * v + 2.0 * a * b


# -- built-in systems -------------------------------------------------------------
#
# Each built-in is a row of `SystemSpec` arguments, all but the name.


def _above_covolume(env: Mapping[str, float]) -> bool:
    return env["V"] > env["b"]


def _positive_entropy(env: Mapping[str, float]) -> bool:
    return env["S"] > 0.0


_VDW = dict(  # the fields the vdW pair share
    variables=("S", "V"),
    potential=parse("(exp(S/k)/(V-b))^(2/3) - a/V"),
    domain=_above_covolume,
    domain_text="V > b",
)
_KN = dict(  # the fields Kerr-Newman shares with its limits, Reissner-Nordstrom and Kerr
    potential=parse("sqrt(pi*J^2/S + (S/(4*pi))*(1 + pi*Q^2/S)^2)"),
    beta=0.5,
    domain=_positive_entropy,
    domain_text="S > 0",
)
_BUILTINS: dict[str, dict] = {
    "ideal_gas": dict(_VDW, parameters={"a": 0.0, "b": 0.0, "k": 1.0}),
    "kerr": dict(_KN, variables=("S", "J"), parameters={"Q": 0.0}, weights=(1.0, 1.0)),
    "kerr_newman": dict(_KN, variables=("S", "J", "Q"), weights=(1.0, 1.0, 0.5)),
    "reissner_nordstrom": dict(_KN, variables=("S", "Q"), parameters={"J": 0.0}, weights=(1.0, 0.5)),
    "vdw": dict(_VDW, parameters={"a": 1.0, "b": 0.1, "k": 1.0}),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str, **parameters: float) -> SystemSpec:
    """The built-in system `name`, built from its row of arguments, with `parameters` overridden."""
    try:
        row = _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown built-in system {name!r}; choose from {BUILTIN_NAMES}") from None
    spec = SystemSpec(name, **row)
    return spec.with_parameters(**parameters) if parameters else spec


# -- system definition files -------------------------------------------------------


def _read_sections(path: str | Path) -> configparser.ConfigParser:
    """The sections of a definition file; a file that cannot be read or parsed is a ParseError."""
    import configparser  # only definition files need it

    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {str(path)!r}: {exc}") from None
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
    cp.optionxform = str  # identifiers are case-sensitive
    try:
        cp.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ParseError(f"{path}: {exc}") from None
    return cp


def _split_list(text: str) -> list[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def finite_number(text: str, what: str) -> float:
    """`text` as a finite float, the number rule of flags and files; a ParseError names `what`."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"{what}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise ParseError(f"{what}: {text!r} is not a finite number")
    return value


def _read_section(path: str | Path, name: str, keys: Sequence[str], sections=None):
    """Section `name` of a definition file, which must hold `keys`, and its [parameters].

    `sections` are the file's `_read_sections` when the caller has read them.
    """
    cp = _read_sections(path) if sections is None else sections
    if not cp.has_section(name):
        raise ParseError(f"{path}: missing [{name}] section")
    sec = cp[name]
    for key in keys:
        if key not in sec:
            raise ParseError(f"{path}: [{name}] is missing {key!r}")
    params = cp.items("parameters") if cp.has_section("parameters") else []
    return sec, {k: finite_number(v, f"{path}: [parameters] {k}") for k, v in params}


def load_system_file(path: str | Path, sections=None) -> SystemSpec:
    """Load a SystemSpec from a sectioned key-value file, or from its parsed `sections`.

    Expected layout, here Reissner-Nordstrom, with an optional [parameters]
    section of `name = value` lines::

        [system]
        name = my_rn
        variables = S, Q
        potential = sqrt(S/(4*pi))*(1 + pi*Q^2/S)
        weights = 1, 0.5      ; optional
        beta = 0.5            ; optional
    """
    sec, params = _read_section(path, "system", ("name", "variables", "potential"), sections)
    weights = None
    if "weights" in sec:
        what = f"{path}: [system] weights"
        weights = tuple(finite_number(w, what) for w in _split_list(sec["weights"]))
    beta = finite_number(sec["beta"], f"{path}: [system] beta") if "beta" in sec else None
    return SystemSpec(
        name=sec["name"].strip(),
        variables=tuple(_split_list(sec["variables"])),
        potential=parse(sec["potential"]),
        parameters=params,
        weights=weights,
        beta=beta,
    )
