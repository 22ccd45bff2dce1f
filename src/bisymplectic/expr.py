"""Exact symbolic expression trees over rational constants.

Everything downstream (structure-constant tensors, Poisson brackets, trace
invariants, flow fields) is built from the small expression language defined
here.  The design goals, in order:

* exactness: rational arithmetic never leaves ``fractions.Fraction`` unless an
  ``exp`` node or a float assignment forces a float;
* transparency: no canonical simplification.  Trees compare by evaluation, not
  by normal form.  The only rewriting anywhere is associative flattening of
  nested sums/products at construction time and the pruning of literal zero
  and one factors created by the chain rule inside :func:`diff`;
* determinism: randomized identity testing (:func:`equiv_zero`) derives every
  per-trial RNG from the caller's master seed and the trial index, so a report
  is reproducible byte for byte.

Grammar accepted by :func:`parse_expr` (whitespace insignificant)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := atom ['^' integer]
    atom    := integer | symbol | 'exp' '(' expr ')' | '(' expr ')' | '-' atom
    symbol  := [A-Za-z][A-Za-z0-9_]*        (except the reserved word 'exp')

``p/q`` therefore parses as a :class:`Quotient` of two integer constants, and
``-x^2`` parses as ``(-x)^2`` (the unary minus binds inside the power base, as
the grammar reads).  :func:`render` always emits text that reparses to a
structurally identical tree.

Evaluation guards every division and every negative power: if a denominator
or a negative-power base lands within ``den_guard`` of zero the point is
reported as singular (:class:`SingularPointError`) rather than letting a
blow-up masquerade as a residual.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "ExprError",
    "ParseError",
    "UnknownSymbolError",
    "SingularPointError",
    "InconclusiveError",
    "Symbol",
    "Expression",
    "Rat",
    "Sym",
    "Sum",
    "Product",
    "Quotient",
    "IntPower",
    "Exp",
    "Neg",
    "as_expr",
    "exp",
    "sum_of",
    "product_of",
    "parse_expr",
    "render",
    "evaluate",
    "evaluate_with_scale",
    "diff",
    "subst",
    "free_symbols",
    "compile_exprs",
    "COMPILE_CACHE_SIZE",
    "SampleDomain",
    "PARAMETER_POOL",
    "sample_point",
    "sample_row",
    "sample_rows",
    "POINT_CACHE_SIZE",
    "sample_parameters",
    "trial_rng",
    "ZeroTestReport",
    "equiv_zero",
    "DEN_GUARD",
    "ABS_TOL",
    "REL_TOL",
    "TRIALS",
]

DEN_GUARD = 1e-8
ABS_TOL = 1e-9
REL_TOL = 1e-9
TRIALS = 20


class ExprError(Exception):
    """Base error for the expression layer."""


class ParseError(ExprError):
    """Raised when input text violates the grammar."""


class UnknownSymbolError(ParseError):
    """Raised when the parser meets a name absent from the symbol context."""


class SingularPointError(ExprError):
    """Raised when evaluation hits a denominator within den_guard of zero."""


class InconclusiveError(ExprError):
    """Raised when every sampled trial of an identity test was singular."""


@dataclass(frozen=True)
class Symbol:
    """A named indeterminate; kind separates phase coordinates from parameters."""

    name: str
    kind: str = "coordinate"

    def __post_init__(self) -> None:
        if self.kind not in ("coordinate", "parameter"):
            raise ValueError(f"unknown symbol kind {self.kind!r}")


Number = int | float | Fraction
Assignment = Mapping[str, Number]


class Expression:
    """Immutable expression node.  Subclasses define the actual operators."""

    __slots__ = ("_dcache",)

    def _key(self):  # structural identity, implemented per subclass
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expression):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return render(self)

    # Operator sugar used by callers building trees programmatically.
    def __add__(self, other) -> "Expression":
        return sum_of([self, as_expr(other)])

    def __radd__(self, other) -> "Expression":
        return sum_of([as_expr(other), self])

    def __sub__(self, other) -> "Expression":
        return sum_of([self, Neg(as_expr(other))])

    def __rsub__(self, other) -> "Expression":
        return sum_of([as_expr(other), Neg(self)])

    def __mul__(self, other) -> "Expression":
        return product_of([self, as_expr(other)])

    def __rmul__(self, other) -> "Expression":
        return product_of([as_expr(other), self])

    def __truediv__(self, other) -> "Expression":
        return Quotient(self, as_expr(other))

    def __rtruediv__(self, other) -> "Expression":
        return Quotient(as_expr(other), self)

    def __pow__(self, n: int) -> "Expression":
        return IntPower(self, n)

    def __neg__(self) -> "Expression":
        return Neg(self)


class Rat(Expression):
    """Exact rational constant."""

    __slots__ = ("value",)

    def __init__(self, value: Number):
        self.value = value if isinstance(value, Fraction) else Fraction(value)

    def _key(self):
        return ("rat", self.value)


class Sym(Expression):
    """Reference to a symbol."""

    __slots__ = ("symbol",)

    def __init__(self, symbol: Symbol):
        self.symbol = symbol

    def _key(self):
        return ("sym", self.symbol.name)


class Sum(Expression):
    __slots__ = ("terms",)

    def __init__(self, *terms: Expression):
        if len(terms) < 2:
            raise ValueError("Sum needs at least two terms")
        self.terms = tuple(terms)

    def _key(self):
        return ("sum", tuple(t._key() for t in self.terms))


class Product(Expression):
    __slots__ = ("factors",)

    def __init__(self, *factors: Expression):
        if len(factors) < 2:
            raise ValueError("Product needs at least two factors")
        self.factors = tuple(factors)

    def _key(self):
        return ("prod", tuple(f._key() for f in self.factors))


class Quotient(Expression):
    __slots__ = ("num", "den")

    def __init__(self, num: Expression, den: Expression):
        self.num = num
        self.den = den

    def _key(self):
        return ("quot", self.num._key(), self.den._key())


class IntPower(Expression):
    """Integer power; negative exponents are guarded at evaluation time."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expression, exponent: int):
        if not isinstance(exponent, int) or isinstance(exponent, bool):
            raise ValueError("IntPower exponent must be an int")
        self.base = base
        self.exponent = exponent

    def _key(self):
        return ("pow", self.base._key(), self.exponent)


class Exp(Expression):
    __slots__ = ("arg",)

    def __init__(self, arg: Expression):
        self.arg = arg

    def _key(self):
        return ("exp", self.arg._key())


class Neg(Expression):
    __slots__ = ("arg",)

    def __init__(self, arg: Expression):
        self.arg = arg

    def _key(self):
        return ("neg", self.arg._key())


ZERO = Rat(0)
ONE = Rat(1)


def as_expr(value) -> Expression:
    """Coerce ints/Fractions (and pass Expressions through)."""
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, Fraction)):
        return Rat(value)
    raise TypeError(f"cannot treat {value!r} as an expression")


def exp(arg) -> Expression:
    return Exp(as_expr(arg))


def _is_zero(e: Expression) -> bool:
    return isinstance(e, Rat) and e.value == 0


def _is_one(e: Expression) -> bool:
    return isinstance(e, Rat) and e.value == 1


def sum_of(terms: Iterable) -> Expression:
    """n-ary sum with associative flattening (child sums are spliced in order).

    Drops nothing: a literal zero term stays a term.  Zero-length input is the
    constant 0, a single term passes through unchanged.
    """
    flat: list[Expression] = []
    for t in terms:
        t = as_expr(t)
        if isinstance(t, Sum):
            flat.extend(t.terms)
        else:
            flat.append(t)
    if not flat:
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Sum(*flat)


def product_of(factors: Iterable) -> Expression:
    """n-ary product with associative flattening; no reordering, no merging."""
    flat: list[Expression] = []
    for f in factors:
        f = as_expr(f)
        if isinstance(f, Product):
            flat.extend(f.factors)
        else:
            flat.append(f)
    if not flat:
        return ONE
    if len(flat) == 1:
        return flat[0]
    return Product(*flat)


# --------------------------------------------------------------------------
# parsing and rendering
# --------------------------------------------------------------------------

_TOKEN_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, object]]:
    tokens: list[tuple[str, object]] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOKEN_OPS:
            tokens.append((c, c))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j])))
            i = j
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j]))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r} at position {i}")
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, object]], symbols: Mapping[str, Symbol]):
        self.tokens = tokens
        self.pos = 0
        self.symbols = symbols

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def take(self, kind: str | None = None) -> tuple[str, object]:
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r} at token {self.pos}")
        self.pos += 1
        return tok

    def parse(self) -> Expression:
        e = self.expr()
        if self.peek() != "end":
            raise ParseError(f"trailing input starting at token {self.pos}")
        return e

    def expr(self) -> Expression:
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            t = self.term()
            terms.append(t if op == "+" else Neg(t))
        return terms[0] if len(terms) == 1 else Sum(*terms)

    def term(self) -> Expression:
        left = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            right = self.factor()
            if op == "*":
                left = Product(left, right) if not isinstance(left, Product) else Product(*left.factors, right)
            else:
                left = Quotient(left, right)
        return left

    def factor(self) -> Expression:
        a = self.atom()
        if self.peek() == "^":
            self.take()
            sign = 1
            if self.peek() == "-":
                self.take()
                sign = -1
            n = self.take("int")[1]
            return IntPower(a, sign * n)
        return a

    def atom(self) -> Expression:
        kind = self.peek()
        if kind == "int":
            return Rat(self.take()[1])
        if kind == "-":
            self.take()
            return Neg(self.atom())
        if kind == "(":
            self.take()
            e = self.expr()
            self.take(")")
            return e
        if kind == "name":
            name = self.take()[1]
            if name == "exp":
                self.take("(")
                e = self.expr()
                self.take(")")
                return Exp(e)
            sym = self.symbols.get(name)
            if sym is None:
                raise UnknownSymbolError(f"unknown symbol {name!r}")
            return Sym(sym)
        raise ParseError(f"unexpected token {kind!r} at token {self.pos}")


def parse_expr(text: str, symbols: Mapping[str, Symbol]) -> Expression:
    """Parse text against the module grammar. Names must exist in ``symbols``."""
    return _Parser(_tokenize(text), symbols).parse()


# Precedence levels for rendering.
_LVL_SUM, _LVL_TERM, _LVL_FACTOR, _LVL_ATOM = 0, 1, 2, 3


def _render(e: Expression, level: int) -> str:
    if isinstance(e, Rat):
        v = e.value
        if v.denominator == 1:
            text = str(v.numerator)
            needs = _LVL_ATOM if v >= 0 else _LVL_SUM
        else:
            text = f"{v.numerator}/{v.denominator}"
            needs = _LVL_TERM if v >= 0 else _LVL_SUM
        return f"({text})" if level > needs else text
    if isinstance(e, Sym):
        return e.symbol.name
    if isinstance(e, Exp):
        return f"exp({_render(e.arg, _LVL_SUM)})"
    if isinstance(e, Neg):
        inner = _render(e.arg, _LVL_ATOM)
        text = f"-{inner}"
        return f"({text})" if level > _LVL_SUM else text
    if isinstance(e, Sum):
        first = e.terms[0]
        if isinstance(first, Neg):
            parts = [f"-{_render(first.arg, _LVL_ATOM)}"]
        else:
            parts = [_render(first, _LVL_TERM)]
        for t in e.terms[1:]:
            if isinstance(t, Neg):
                parts.append(f" - {_render(t.arg, _LVL_TERM)}")
            else:
                parts.append(f" + {_render(t, _LVL_TERM)}")
        text = "".join(parts)
        return f"({text})" if level > _LVL_SUM else text
    if isinstance(e, Product):
        text = " * ".join(_render(f, _LVL_FACTOR) for f in e.factors)
        return f"({text})" if level > _LVL_TERM else text
    if isinstance(e, Quotient):
        num = _render(e.num, _LVL_FACTOR)
        den = _render(e.den, _LVL_ATOM)
        text = f"{num} / {den}"
        return f"({text})" if level > _LVL_TERM else text
    if isinstance(e, IntPower):
        # only names, exp(...) and nonnegative integers are safe bare bases
        if isinstance(e.base, (Sym, Exp)) or (
            isinstance(e.base, Rat) and e.base.value.denominator == 1 and e.base.value >= 0
        ):
            base = _render(e.base, _LVL_ATOM)
        else:
            base = f"({_render(e.base, _LVL_SUM)})"
        text = f"{base}^{e.exponent}"
        return f"({text})" if level > _LVL_FACTOR else text
    raise TypeError(f"cannot render {type(e).__name__}")


def render(e: Expression) -> str:
    """Emit grammar-conformant text; reparsing yields a structurally equal tree."""
    return _render(e, _LVL_SUM)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------


class _EvalState:
    __slots__ = ("scale",)

    def __init__(self) -> None:
        self.scale = 0.0

    def note(self, v: Number) -> None:
        a = abs(v if isinstance(v, float) else float(v))
        if a > self.scale:
            self.scale = a


def _eval(e: Expression, env: Assignment, guard: float, memo: dict, state: _EvalState) -> Number:
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(e, Rat):
        v: Number = e.value
    elif isinstance(e, Sym):
        name = e.symbol.name
        if name not in env:
            raise ExprError(f"no value assigned to symbol {name!r}")
        v = env[name]
        if isinstance(v, int):
            v = Fraction(v)
    elif isinstance(e, Sum):
        v = _eval(e.terms[0], env, guard, memo, state)
        for t in e.terms[1:]:
            v = v + _eval(t, env, guard, memo, state)
    elif isinstance(e, Product):
        v = _eval(e.factors[0], env, guard, memo, state)
        for f in e.factors[1:]:
            v = v * _eval(f, env, guard, memo, state)
    elif isinstance(e, Quotient):
        den = _eval(e.den, env, guard, memo, state)
        if abs(float(den)) < guard:
            raise SingularPointError(f"denominator {float(den)!r} within {guard} of zero")
        v = _eval(e.num, env, guard, memo, state) / den
    elif isinstance(e, IntPower):
        base = _eval(e.base, env, guard, memo, state)
        if e.exponent < 0 and abs(float(base)) < guard:
            raise SingularPointError(f"negative-power base {float(base)!r} within {guard} of zero")
        v = base ** e.exponent
        if isinstance(base, Fraction) and not isinstance(v, Fraction):
            v = Fraction(v)
    elif isinstance(e, Exp):
        v = math.exp(float(_eval(e.arg, env, guard, memo, state)))
    elif isinstance(e, Neg):
        v = -_eval(e.arg, env, guard, memo, state)
    else:
        raise TypeError(f"cannot evaluate {type(e).__name__}")
    state.note(v)
    memo[key] = v
    return v


def evaluate(e: Expression, env: Assignment, den_guard: float = DEN_GUARD) -> Number:
    """Evaluate at an assignment.

    The result is an exact Fraction whenever the tree is exp-free and the
    assignment is rational; an Exp node or a float assignment makes the value
    (and everything it touches) a float.
    """
    return _eval(e, env, den_guard, {}, _EvalState())


def evaluate_with_scale(e: Expression, env: Assignment, den_guard: float = DEN_GUARD) -> tuple[Number, float]:
    """Evaluate and also report the largest intermediate magnitude seen."""
    state = _EvalState()
    v = _eval(e, env, den_guard, {}, state)
    return v, state.scale


# --------------------------------------------------------------------------
# differentiation and substitution
# --------------------------------------------------------------------------


def diff(e: Expression, sym: Symbol) -> Expression:
    """Partial derivative.

    The chain rule prunes terms and factors that are literal 0 or 1 as it
    builds the result; no other rewriting happens, so everything else stays
    in the shape the rules produce.  Results are cached on the node.
    """
    cache = getattr(e, "_dcache", None)
    if cache is None:
        cache = {}
        object.__setattr__(e, "_dcache", cache)
    hit = cache.get(sym.name)
    if hit is not None:
        return hit
    d = _diff(e, sym)
    cache[sym.name] = d
    return d


def _diff(e: Expression, sym: Symbol) -> Expression:
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.symbol.name == sym.name else ZERO
    if isinstance(e, Sum):
        parts = [diff(t, sym) for t in e.terms]
        live = [p for p in parts if not _is_zero(p)]
        return sum_of(live)
    if isinstance(e, Product):
        terms = []
        for i, f in enumerate(e.factors):
            df = diff(f, sym)
            if _is_zero(df):
                continue
            rest = [g for j, g in enumerate(e.factors) if j != i]
            if _is_one(df):
                terms.append(product_of(rest))
            else:
                terms.append(product_of(rest + [df]))
        return sum_of(terms)
    if isinstance(e, Quotient):
        du = diff(e.num, sym)
        dv = diff(e.den, sym)
        if _is_zero(dv):
            if _is_zero(du):
                return ZERO
            return Quotient(du, e.den)
        top_terms = []
        if not _is_zero(du):
            top_terms.append(product_of([du, e.den]))
        top_terms.append(Neg(product_of([e.num, dv])))
        return Quotient(sum_of(top_terms), IntPower(e.den, 2))
    if isinstance(e, IntPower):
        db = diff(e.base, sym)
        if _is_zero(db):
            return ZERO
        n = e.exponent
        if n == 0:
            return ZERO
        lead: list[Expression] = [Rat(n)]
        if n - 1 == 1:
            lead.append(e.base)
        elif n - 1 != 0:
            lead.append(IntPower(e.base, n - 1))
        if not _is_one(db):
            lead.append(db)
        return product_of(lead)
    if isinstance(e, Exp):
        da = diff(e.arg, sym)
        if _is_zero(da):
            return ZERO
        if _is_one(da):
            return e
        return product_of([e, da])
    if isinstance(e, Neg):
        da = diff(e.arg, sym)
        if _is_zero(da):
            return ZERO
        return Neg(da)
    raise TypeError(f"cannot differentiate {type(e).__name__}")


def subst(e: Expression, mapping: Mapping[str, Expression], _memo: dict | None = None) -> Expression:
    """Replace symbols by expressions (by name), rebuilding the tree."""
    memo: dict = {} if _memo is None else _memo
    key = id(e)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if isinstance(e, Rat):
        out: Expression = e
    elif isinstance(e, Sym):
        out = mapping.get(e.symbol.name, e)
    elif isinstance(e, Sum):
        out = Sum(*(subst(t, mapping, memo) for t in e.terms))
    elif isinstance(e, Product):
        out = Product(*(subst(f, mapping, memo) for f in e.factors))
    elif isinstance(e, Quotient):
        out = Quotient(subst(e.num, mapping, memo), subst(e.den, mapping, memo))
    elif isinstance(e, IntPower):
        out = IntPower(subst(e.base, mapping, memo), e.exponent)
    elif isinstance(e, Exp):
        out = Exp(subst(e.arg, mapping, memo))
    elif isinstance(e, Neg):
        out = Neg(subst(e.arg, mapping, memo))
    else:
        raise TypeError(f"cannot substitute into {type(e).__name__}")
    memo[key] = out
    return out


def free_symbols(e: Expression) -> set[Symbol]:
    out: set[Symbol] = set()
    seen: set[int] = set()

    def walk(node: Expression) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        if isinstance(node, Sym):
            out.add(node.symbol)
        elif isinstance(node, Sum):
            for t in node.terms:
                walk(t)
        elif isinstance(node, Product):
            for f in node.factors:
                walk(f)
        elif isinstance(node, Quotient):
            walk(node.num)
            walk(node.den)
        elif isinstance(node, IntPower):
            walk(node.base)
        elif isinstance(node, (Exp, Neg)):
            walk(node.arg)

    walk(e)
    return out


# --------------------------------------------------------------------------
# compilation (float fast path of equiv_zero, the rank and exchange checks)
# --------------------------------------------------------------------------


def compile_exprs(
    exprs: Sequence[Expression],
    arg_names: Sequence[str],
    den_guard: float = DEN_GUARD,
) -> Callable[[Sequence[float]], tuple[list[float], float]]:
    """Compile expressions into one float-valued Python function.

    Shared subtrees are emitted once (the trees are walked by identity), so a
    family of residual entries that reuse the same derivatives costs a single
    evaluation per point.  Division and negative-power guards are emitted
    inline and raise :class:`SingularPointError` exactly like the interpreted
    path.  The returned callable maps a value sequence (ordered like
    ``arg_names``) to ``(values, scale)`` where scale is
    ``max(0.0, |t0|, |t1|, ...)`` over the temporaries ``t0, t1, ...``, one
    per emitted node: the largest intermediate magnitude, and never ``-0.0``
    or NaN.  Calls that generate the same source get the same function back
    (see :func:`_exec_source`).
    """
    lines, results, temps = _emit_lines(exprs, arg_names, den_guard)
    body = ["def _fn(_v):"]
    body.extend(f"    {line}" for line in lines)
    body.append(f"    _s = _m(0.0, {', '.join(f'abs({t})' for t in temps)})" if temps else "    _s = 0.0")
    body.append(f"    return [{', '.join(results)}], _s")
    return _exec_source("\n".join(body), den_guard)


def _emit_lines(
    exprs: Sequence[Expression],
    arg_names: Sequence[str],
    den_guard: float,
    arg: str = "_v[{}]",
) -> tuple[list[str], list[str], list[str]]:
    """Straight-line Python statements evaluating ``exprs``, the local names
    holding their values, and every temporary's name in order of assignment.
    Argument ``i`` is read as ``arg.format(i)``; temporaries are named
    ``t0, t1, ...``."""
    index = {name: i for i, name in enumerate(arg_names)}
    lines: list[str] = []
    names: dict[int, str] = {}

    def emit(node: Expression) -> str:
        key = id(node)
        if key in names:
            return names[key]
        if isinstance(node, Rat):
            text = repr(float(node.value))
        elif isinstance(node, Sym):
            name = node.symbol.name
            if name not in index:
                raise ExprError(f"no value assigned to symbol {name!r}")
            text = arg.format(index[name])
        elif isinstance(node, Sum):
            text = " + ".join(emit(t) for t in node.terms)
        elif isinstance(node, Product):
            text = " * ".join(emit(f) for f in node.factors)
        elif isinstance(node, Quotient):
            num = emit(node.num)
            den = emit(node.den)
            lines.append(f"if -{den_guard!r} < {den} < {den_guard!r}: _sing({den})")
            text = f"{num} / {den}"
        elif isinstance(node, IntPower):
            base = emit(node.base)
            if node.exponent < 0:
                lines.append(f"if -{den_guard!r} < {base} < {den_guard!r}: _sing({base})")
            text = f"{base} ** {node.exponent}"
        elif isinstance(node, Exp):
            text = f"_exp({emit(node.arg)})"
        elif isinstance(node, Neg):
            text = f"-{emit(node.arg)}"
        else:
            raise TypeError(f"cannot compile {type(node).__name__}")
        var = f"t{len(names)}"
        lines.append(f"{var} = {text}")
        names[key] = var
        return var

    results = [emit(e) for e in exprs]  # fills `lines`
    return lines, results, list(names.values())


# Generated sources repeat at short distance (the same residual list checked
# again, the same field at another step size); the largest are ~23 KB.
COMPILE_CACHE_SIZE = 32


@functools.lru_cache(maxsize=COMPILE_CACHE_SIZE)
def _exec_source(src: str, den_guard: float) -> Callable:
    """Execute generated source and return the ``_fn`` it defines.

    The function depends on nothing but ``src`` and ``den_guard`` (which
    only its singular-point message reads), so equal keys share one
    function.  Its globals are ``_exp``, ``_m`` (max), ``_fin`` (isfinite),
    ``_cs`` (copysign), ``_sing`` and ``SingularPointError``.
    """

    def _sing(value: float):
        raise SingularPointError(f"denominator {value!r} within {den_guard} of zero")

    scope: dict = {"_exp": math.exp, "_m": max, "_fin": math.isfinite, "_cs": math.copysign,
                   "_sing": _sing, "SingularPointError": SingularPointError}
    exec(compile(src, "<bisymplectic-compiled>", "exec"), scope)
    # popped, not read: the function's globals are ``scope``, so leaving it
    # there is a reference cycle that only the cyclic collector could free
    return scope.pop("_fn")


# --------------------------------------------------------------------------
# randomized identity testing
# --------------------------------------------------------------------------

# Parameter samples are drawn from this pool, never zero.
PARAMETER_POOL: tuple[Fraction, ...] = (
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(3),
    Fraction(-3),
)


@dataclass(frozen=True)
class SampleDomain:
    """What to sample: coordinates uniformly from rationals in [lo, hi],
    parameters from the fixed nonzero pool, plus optional pinned values."""

    coords: tuple[Symbol, ...]
    params: tuple[Symbol, ...] = ()
    lo: Fraction = Fraction(1, 5)
    hi: Fraction = Fraction(3, 2)
    fixed: tuple[tuple[str, Fraction], ...] = ()

    def names(self) -> list[str]:
        return [s.name for s in self.coords] + [s.name for s in self.params] + [k for k, _ in self.fixed]


def trial_rng(seed: int, trial: int) -> random.Random:
    """Deterministic per-trial RNG derived from the master seed and index."""
    return random.Random((seed & 0xFFFFFFFF) * 1_000_003 + trial)


def _rand_fraction(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    q = rng.randint(5, 48)
    p_lo = -(-lo.numerator * q // lo.denominator)  # ceil(lo * q)
    p_hi = hi.numerator * q // hi.denominator  # floor(hi * q)
    return Fraction(rng.randint(p_lo, p_hi), q)


def sample_point(domain: SampleDomain, rng: random.Random) -> dict[str, Fraction]:
    env: dict[str, Fraction] = {}
    for s in domain.coords:
        env[s.name] = _rand_fraction(rng, domain.lo, domain.hi)
    for s in domain.params:
        env[s.name] = rng.choice(PARAMETER_POOL)
    for k, v in domain.fixed:
        env[k] = v
    return env


# A verification run asks for a few dozen distinct point tables: 28 for
# `bisym verify --all`, 22 for the identity benchmark's checks.
POINT_CACHE_SIZE = 64


def sample_row(domain: SampleDomain, seed: int, trial: int) -> tuple[float, ...]:
    """The point ``sample_point(domain, trial_rng(seed, trial))`` as floats
    ordered like ``domain.names()``."""
    env = sample_point(domain, trial_rng(seed, trial))
    return tuple(float(env[n]) for n in domain.names())


@functools.lru_cache(maxsize=POINT_CACHE_SIZE)
def sample_rows(domain: SampleDomain, seed: int, trials: int) -> tuple[tuple[float, ...], ...]:
    """The rows of trials ``0 .. trials-1`` (:func:`sample_row`) as one table.

    Equal keys share one immutable table.  Only floats are kept; a caller
    that needs a trial's exact point draws it again with :func:`sample_point`.
    """
    return tuple(sample_row(domain, seed, trial) for trial in range(trials))


def sample_parameters(params: Sequence[Symbol], count: int, seed: int) -> list[dict[str, Fraction]]:
    """Deterministic list of parameter assignments from the nonzero pool."""
    out = []
    for i in range(count):
        rng = trial_rng(seed, i)
        out.append({s.name: rng.choice(PARAMETER_POOL) for s in params})
    return out


@dataclass
class ZeroTestReport:
    """Outcome of a randomized is-this-identically-zero test."""

    zero: bool
    max_residual: float
    witness: dict[str, Fraction] | None
    witness_index: int | None
    trials: int
    singular_trials: int

    def __bool__(self) -> bool:
        return self.zero


def equiv_zero(
    exprs: Expression | Sequence[Expression],
    domain: SampleDomain,
    seed: int = 0,
    trials: int = TRIALS,
    abs_tol: float = ABS_TOL,
    rel_tol: float = REL_TOL,
    den_guard: float = DEN_GUARD,
) -> ZeroTestReport:
    """Test whether expressions vanish identically on the sampling domain.

    Every trial takes a fresh assignment (coordinates and parameters alike)
    from the point table of :func:`sample_rows` and accepts residuals up to
    ``abs_tol + rel_tol * scale`` where scale is the largest intermediate
    magnitude of that trial's evaluation.  Singular points are skipped; if
    every trial is singular the test is inconclusive and raises instead of
    answering.  The witness is the exact point of the trial with the largest
    failing residual, drawn again from its seed.
    """
    items = [exprs] if isinstance(exprs, Expression) else list(exprs)
    if not items:
        return ZeroTestReport(True, 0.0, None, None, 0, 0)
    fn = compile_exprs(items, domain.names(), den_guard=den_guard)
    worst = 0.0
    worst_fail = -1.0
    witness_trial = 0
    witness_index: int | None = None
    zero = True
    singular = 0
    for trial, row in enumerate(sample_rows(domain, seed, trials)):
        try:
            values, scale = fn(row)
        except (SingularPointError, OverflowError, ZeroDivisionError):
            singular += 1
            continue
        tol = abs_tol + rel_tol * scale
        for i, v in enumerate(values):
            r = abs(v)
            if r > worst:
                worst = r
            if r > tol:
                zero = False
                if r > worst_fail:
                    worst_fail = r
                    witness_trial = trial
                    witness_index = i
    if singular == trials:
        raise InconclusiveError(f"all {trials} sampled points were singular")
    witness = None if zero else sample_point(domain, trial_rng(seed, witness_trial))
    return ZeroTestReport(zero, worst, witness, witness_index, trials, singular)
