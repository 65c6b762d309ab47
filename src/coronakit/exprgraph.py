"""Expression graphs, and the term trees that a search works on.

A candidate equation is a sum of terms with fitted coefficients.  Its file
format is a directed acyclic graph rooted at an n-ary additive node, whose
edge features parameterize local operations:

  * edge into a ``pow`` node   -> exponent of that power
  * edge into a ``log`` node   -> logarithm base (10 or e)
  * other edge leaving ``add`` -> multiplicative coefficient of the child
  * any other edge             -> fixed to 1 (no redundant scale freedom)

Root-level coefficients are the only continuously fitted parameters; all
inner features (exponents, bases, inner signs) are discrete and evolved.

Everything else works on terms as immutable trees (see ``TermFragment``):
the search, evaluation, rendering, ``parse`` and ``compile_scalar``.  A
graph is converted to trees once where it comes in, and built from trees
only where one goes out: a report's ``"graph"`` and ``parse``'s result.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError, UnboundVariableError

ADD = "add"
MUL = "mul"
POW = "pow"
LOG = "log"
VAR = "var"
CONST = "const"

NODE_KINDS = (ADD, MUL, POW, LOG, VAR, CONST)

#: admissible logarithm bases
LOG_BASES = (10.0, math.e)

#: |denominator| below this raises a reciprocal to non-finite instead of inf
DENOM_GUARD = 1e-12

#: discrete exponent alphabet: integers in [-3, 3] without 0
DEFAULT_ALPHABET = (-3, -2, -1, 1, 2, 3)

# template kinds
POLY_TERM = "poly"
RATIONAL_TERM = "rational"
LOG_TERM = "log"
CONST_TERM = "const"
TEMPLATE_KINDS = (POLY_TERM, RATIONAL_TERM, LOG_TERM, CONST_TERM)


@dataclass(frozen=True, slots=True)
class Node:
    id: int
    kind: str
    name: str | None = None


@dataclass(frozen=True, slots=True)
class Edge:
    parent: int
    child: int
    feature: float = 1.0


class ExprGraph:
    """Immutable-by-convention expression graph.

    Mutating operations live elsewhere and always return new graphs;
    evaluation and rendering are pure, so graphs are safe to share.
    """

    __slots__ = ("nodes", "edges", "root", "_by_id", "_children")

    def __init__(self, nodes, edges, root):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.root = root
        self._by_id = {n.id: n for n in self.nodes}
        self._children = {}
        for e in self.edges:
            self._children.setdefault(e.parent, []).append(e)

    def node(self, nid: int) -> Node:
        return self._by_id[nid]

    def children(self, nid: int) -> list[Edge]:
        return self._children.get(nid, [])

    @property
    def term_edges(self) -> list[Edge]:
        return self.children(self.root)

    @property
    def term_count(self) -> int:
        return len(self.children(self.root))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def variables(self) -> set[str]:
        return {n.name for n in self.nodes if n.kind == VAR}

    def to_dict(self) -> dict:
        nodes = []
        for n in self.nodes:
            item = {"id": n.id, "kind": n.kind}
            if n.name is not None:
                item["name"] = n.name
            nodes.append(item)
        edges = [{"from": e.parent, "to": e.child, "feature": e.feature}
                 for e in self.edges]
        return {"nodes": nodes, "edges": edges, "root": self.root}

    @classmethod
    def from_dict(cls, payload: dict) -> "ExprGraph":
        nodes = [Node(item["id"], item["kind"], item.get("name"))
                 for item in payload["nodes"]]
        edges = [Edge(item["from"], item["to"], float(item["feature"]))
                 for item in payload["edges"]]
        return cls(nodes, edges, payload["root"])


def graph_to_json(graph: ExprGraph) -> str:
    return json.dumps(graph.to_dict(), sort_keys=True)


def graph_from_json(text: str) -> ExprGraph:
    return ExprGraph.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# terms as trees
# ---------------------------------------------------------------------------
#
# A term is a tree of nested tuples tagged by node kind:
#
#     (VAR, name)    (CONST,)
#     (POW, exponent, operand)    (LOG, base, operand)
#     (MUL, (factor, ...))
#     (ADD, ((coefficient, summand), ...))
#
# Each feature sits where the graph gives it meaning.  The edge into a pow
# or log node carries that node's exponent or base, and an edge out of an
# add node its summand's coefficient, except that a pow or log summand has
# no coefficient of its own: its entry holds 1.0.  Every other edge carries
# 1, which ``validate`` enforces, so no tree holds it.  Children keep the
# graph's edge order.


class TermFragment:
    """One root term: an immutable tree, as described above.

    Terms compare and hash as their trees, so two equal terms evaluate to
    bit-identical values and assemble into identical graphs.  A term keeps
    its hash, and computes its node count, its mutable sites and what
    ``render`` shows of it once, on first use.
    """

    __slots__ = ("tree", "_hash", "_size", "_parts", "_sites")

    def __init__(self, tree: tuple, size: int | None = None):
        self.tree = tree
        self._hash = hash(tree)
        self._size = size
        self._parts = None
        self._sites = None

    @property
    def node_count(self) -> int:
        """The number of nodes of this term's graph."""
        if self._size is None:
            self._size = _node_count(self.tree)
        return self._size

    @property
    def render_parts(self) -> tuple:
        """What ``render`` shows of this term apart from its coefficient."""
        if self._parts is None:
            self._parts = _term_parts(self.tree)
        return self._parts

    def sites(self) -> tuple[tuple[tuple, str, float], ...]:
        """The inner features an edge mutation may change, as ``(path, kind,
        feature)`` in the order the term's graph writes their edges:
        exponents (kind POW), log bases (LOG) and inner-sum coefficients
        (ADD).  ``path`` is what ``with_feature`` takes."""
        if self._sites is None:
            self._sites = tuple(_sites(self.tree, ()))
        return self._sites

    def with_feature(self, path: tuple, feature: float) -> "TermFragment":
        """This term with the feature at ``path`` (from ``sites``) replaced:
        the same structure, so the same node count."""
        return TermFragment(_with_feature(self.tree, path, float(feature)),
                            self.node_count)

    def __eq__(self, other):
        return isinstance(other, TermFragment) and self.tree == other.tree

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"TermFragment({self.tree!r})"


def _children(tree) -> tuple:
    """The subtrees directly under ``tree``, in edge order."""
    kind = tree[0]
    if kind == POW or kind == LOG:
        return (tree[2],)
    if kind == MUL:
        return tree[1]
    if kind == ADD:
        return tuple(summand for _, summand in tree[1])
    return ()


def _node_count(tree) -> int:
    kind = tree[0]
    if kind == POW or kind == LOG:
        return 1 + _node_count(tree[2])
    count = 1
    if kind == MUL:
        for factor in tree[1]:
            count += _node_count(factor)
    elif kind == ADD:
        for _, summand in tree[1]:
            count += _node_count(summand)
    return count


def _sites(tree, path):
    """(path, kind, feature) of each mutable feature under ``tree``, in the
    order GraphBuilder writes the edges that carry them: an edge into a pow
    or log node, and an edge out of an add node into any other kind."""
    kind = tree[0]
    if kind == POW or kind == LOG:
        here = (path, kind, tree[1])
        if kind == POW and tree[2][0] == ADD:  # the sum is written first
            yield from _sites(tree[2], path + (0,))
            yield here
        else:
            yield here
            yield from _sites(tree[2], path + (0,))
    elif kind == MUL:
        for i, factor in enumerate(tree[1]):
            yield from _sites(factor, path + (i,))
    elif kind == ADD:
        for i, (coef, summand) in enumerate(tree[1]):
            yield from _sites(summand, path + (i,))
            if summand[0] != POW and summand[0] != LOG:
                yield path + (i,), ADD, coef


def _with_feature(tree, path, feature) -> tuple:
    """``tree`` with the feature at ``path`` replaced.  A path leads child by
    child to a pow or log node, or ends at an add's summand of another
    kind, whose coefficient it names.  Untouched subtrees are shared."""
    kind = tree[0]
    if not path:
        return (kind, feature, tree[2])
    i, rest = path[0], path[1:]
    if kind == POW or kind == LOG:
        return (kind, tree[1], _with_feature(tree[2], rest, feature))
    children = list(tree[1])
    if kind == MUL:
        children[i] = _with_feature(children[i], rest, feature)
    else:
        coef, summand = children[i]
        if rest or summand[0] == POW or summand[0] == LOG:
            children[i] = (coef, _with_feature(summand, rest, feature))
        else:
            children[i] = (feature, summand)
    return (kind, tuple(children))


class GraphBuilder:
    """Incremental construction of expression graphs with fresh node ids."""

    def __init__(self):
        self._nodes: list[Node] = []
        self._edges: list[Edge] = []
        self._next = 0

    def node(self, kind: str, name: str | None = None) -> int:
        nid = self._next
        self._next += 1
        self._nodes.append(Node(nid, kind, name))
        return nid

    def edge(self, parent: int, child: int, feature: float = 1.0) -> None:
        self._edges.append(Edge(parent, child, float(feature)))

    def attach(self, term: TermFragment, parent: int, feature: float) -> int:
        """Write ``term`` under ``parent``, the edge into its head carrying
        ``feature``; returns the head's id."""
        return self._write(term.tree, parent, feature)

    def _write(self, tree, parent, feature) -> int:
        """Write ``tree`` and the edge into it from ``parent`` (None: no
        edge), in the build order every graph of terms is written in:

          * nodes in pre-order, except that a pow over an add comes after
            that sum's nodes;
          * an edge into a pow or log node right after that node, carrying
            the node's own exponent or base;
          * every other edge right after its child's subtree.
        """
        kind = tree[0]
        if kind == POW and tree[2][0] == ADD:
            inner = self._write(tree[2], None, 1.0)
            nid = self.node(POW)
            self.edge(parent, nid, tree[1])
            self.edge(nid, inner, 1.0)
            return nid
        nid = self.node(kind, tree[1] if kind == VAR else None)
        if kind == POW or kind == LOG:
            self.edge(parent, nid, tree[1])
            self._write(tree[2], nid, 1.0)
            return nid
        if kind == MUL:
            for factor in tree[1]:
                self._write(factor, nid, 1.0)
        elif kind == ADD:
            for coef, summand in tree[1]:
                self._write(summand, nid, coef)
        if parent is not None:
            self.edge(parent, nid, feature)
        return nid

    def build(self, root: int) -> ExprGraph:
        return ExprGraph(self._nodes, self._edges, root)


def _tree(graph: ExprGraph, edge: Edge) -> tuple:
    """The tree under ``edge``, whose feature a pow or log child takes."""
    node = graph.node(edge.child)
    kind = node.kind
    if kind == VAR:
        return (VAR, node.name)
    if kind == CONST:
        return (CONST,)
    children = graph.children(node.id)
    if kind == POW or kind == LOG:
        return (kind, edge.feature, _tree(graph, children[0]))
    if kind == MUL:
        return (MUL, tuple(_tree(graph, e) for e in children))
    if kind == ADD:
        return (ADD, _entries(graph, children))
    raise ValueError(f"unknown node kind {kind!r}")


def _entries(graph: ExprGraph, edges) -> tuple:
    """(coefficient, summand) of each of ``edges`` out of an add node."""
    return tuple((1.0 if graph.node(e.child).kind in (POW, LOG) else e.feature,
                  _tree(graph, e)) for e in edges)


def _root(graph: ExprGraph) -> tuple:
    """The graph as one tree: a sum of its root terms."""
    return (ADD, _entries(graph, graph.term_edges))


def extract_term(graph: ExprGraph, index: int) -> tuple[TermFragment, float]:
    """Root term ``index`` as a term plus its coefficient."""
    ((coef, tree),) = _entries(graph, [graph.term_edges[index]])
    return TermFragment(tree), coef


def graph_terms(graph: ExprGraph) -> list[tuple[TermFragment, float]]:
    return [(TermFragment(tree), coef)
            for coef, tree in _entries(graph, graph.term_edges)]


def from_terms(terms: list[tuple[TermFragment, float]]) -> ExprGraph:
    """Assemble a graph from (term, coefficient) pairs."""
    builder = GraphBuilder()
    root = builder.node(ADD)
    for term, coef in terms:
        builder.attach(term, root, coef)
    return builder.build(root)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _safe_log(arg):
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(arg)
    return np.where(arg > 0, out, np.nan)


def _safe_pow(base, exponent):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.power(base, exponent)
    if exponent < 0:
        out = np.where(np.abs(base) < DENOM_GUARD, np.nan, out)
    return out


def _value(tree, env: dict, powers: dict):
    """Values of ``tree`` over an environment of arrays (or 0-d scalars).

    ``powers`` maps ``(variable name, exponent)`` to ``_safe_pow(env[name],
    exponent)``: wherever a pow sits directly over a variable this reads
    that column, or computes and stores it.  A sum adds its scaled summands
    to 0.0 in order, and a product multiplies its factors into 1.0.
    """
    kind = tree[0]
    if kind == VAR:
        try:
            return env[tree[1]]
        except KeyError:
            raise UnboundVariableError(tree[1]) from None
    if kind == CONST:
        return np.float64(1.0)
    if kind == ADD:
        value = np.float64(0.0)
        for coef, summand in tree[1]:
            value = value + coef * _value(summand, env, powers)
        return value
    if kind == MUL:
        value = np.float64(1.0)
        for factor in tree[1]:
            value = value * _value(factor, env, powers)
        return value
    operand = tree[2]
    if kind == LOG:
        return _safe_log(_value(operand, env, powers)) / np.log(tree[1])
    if operand[0] != VAR:
        return _safe_pow(_value(operand, env, powers), tree[1])
    key = (operand[1], tree[1])
    column = powers.get(key)
    if column is None:
        column = powers[key] = _safe_pow(_value(operand, env, powers), tree[1])
    return column


def evaluate(graph: ExprGraph, assignment: dict) -> float:
    """Evaluate the graph at a single point.

    Raises UnboundVariableError for missing variables and NonFiniteError
    for any non-finite intermediate (log of a non-positive argument,
    0 to a negative power, near-zero reciprocal denominators).
    """
    env = {name: np.float64(value) for name, value in assignment.items()}
    result = float(_value(_root(graph), env, {}))
    if not math.isfinite(result):
        raise NonFiniteError(f"graph evaluated to {result!r} at {assignment!r}")
    return result


def compile_scalar(graph: ExprGraph, names, on_domain_error):
    """Compile the graph into a tree of closures over math.

    The result takes one float per entry of ``names``, in that order, and
    performs evaluate's operations one by one, without numpy or a walk of
    the graph.  Wherever evaluate would meet a NaN (a (near-)zero
    denominator, a non-positive log argument, an undefined power) or give
    a non-finite result, it calls ``on_domain_error`` with a message naming
    the rendered operand; that callback must raise.
    """
    root = _compile(_root(graph), names, on_domain_error)

    def scalar(*values):
        value = root(values)
        if not math.isfinite(value):
            at = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
            on_domain_error(f"evaluates to {value!r} at {at}")
        return value
    return scalar


def _compile(tree, names, on_domain_error):
    """A closure that computes ``tree`` from a tuple of floats, one per
    entry of ``names``."""
    kind = tree[0]
    if kind == VAR:
        if tree[1] not in names:
            raise UnboundVariableError(tree[1])
        index = names.index(tree[1])
        return lambda args: args[index]
    if kind == CONST:
        return lambda args: 1.0
    if kind == ADD:
        terms = [(coef, _compile(summand, names, on_domain_error))
                 for coef, summand in tree[1]]

        def add(args):
            total = 0.0
            for coef, term in terms:
                total += coef * term(args)
            return total
        return add
    if kind == MUL:
        parts = [_compile(factor, names, on_domain_error) for factor in tree[1]]
        if len(parts) == 1:  # 1.0 * x is x
            return parts[0]

        def mul(args):
            product = 1.0
            for part in parts:
                product *= part(args)
            return product
        return mul
    inner = _compile(tree[2], names, on_domain_error)
    if kind == LOG:
        name = "log10" if _is_log_base_10(tree[1]) else "ln"
        what = _render_operand(tree[2], bare=True)
        scale = math.log(tree[1])

        def log(args):
            x = inner(args)
            if not x > 0:
                on_domain_error(f"{name} argument {what} = {x!r} "
                                "is not positive")
            return math.log(x) / scale
        return log
    exponent = tree[1]
    if exponent == 1.0:  # pow(x, 1) is x
        return inner
    operand = _render_operand(tree[2])

    def power(args):
        x = inner(args)
        if exponent < 0 and abs(x) < DENOM_GUARD:
            on_domain_error(f"denominator {operand} = {x!r} is (near) zero")
        try:
            return math.pow(x, exponent)
        except OverflowError:  # an infinity, as in evaluate
            return math.copysign(math.inf, x) if exponent % 2 == 1 \
                else math.inf
        except ValueError:
            on_domain_error(f"{operand}^{_fmt_exp(exponent)} is undefined "
                            f"at {operand} = {x!r}")
    return power


def _column_env(data) -> dict:
    columns = getattr(data, "columns", data)
    return {name: np.asarray(col, dtype=float) for name, col in columns.items()}


def _row_count(env: dict) -> int:
    for col in env.values():
        return int(np.asarray(col).shape[0])
    return 1


def evaluate_batch(graph: ExprGraph, data) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the graph over every row of ``data``.

    ``data`` is a Dataset or a mapping of column name to array.  Returns
    ``(values, finite)``; rows that hit a non-finite intermediate carry
    NaN in ``values`` and False in ``finite``.
    """
    env = _column_env(data)
    n = _row_count(env)
    values = np.asarray(_value(_root(graph), env, {}), dtype=float)
    if values.ndim == 0:
        values = np.full(n, float(values))
    finite = np.isfinite(values)
    values = np.where(finite, values, np.nan)
    return values, finite


def _term_column(tree, env: dict, powers: dict):
    """Values of a root term, formed as the root of a one-term graph with
    coefficient 1 forms them: ``0.0 + 1.0 * term``."""
    return np.float64(0.0) + 1.0 * _value(tree, env, powers)


def term_values(graph: ExprGraph, data) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix of per-term values with outer coefficients forced to 1.

    Column j holds the value of root child j, formed as the root of a
    one-term graph would form it: ``0.0 + 1.0 * child``.  Returns
    ``(matrix, row_ok)`` where ``row_ok`` flags rows on which every term
    is finite.
    """
    env, powers = _column_env(data), {}
    matrix = np.empty((_row_count(env), graph.term_count))
    for j, (_, tree) in enumerate(_entries(graph, graph.term_edges)):
        matrix[:, j] = _term_column(tree, env, powers)
    row_ok = np.all(np.isfinite(matrix), axis=1)
    return matrix, row_ok


def fragment_values(fragments, data, powers: dict | None = None) -> np.ndarray:
    """Values of each TermFragment, one row per fragment, formed exactly as
    ``term_values`` forms the column of the same term in an assembled graph.

    ``powers`` is a cache of variable powers kept by the caller across
    calls, keyed by ``(variable name, exponent)``: each entry is that
    power of the variable's column in ``data``, guarded as every power is,
    so a dict may be passed again only with the same data.  It gains one
    entry per distinct pair that the fragments raise a variable to.
    """
    env = _column_env(data)
    powers = {} if powers is None else powers
    out = np.empty((len(fragments), _row_count(env)))
    for i, fragment in enumerate(fragments):
        out[i] = _term_column(fragment.tree, env, powers)
    return out


def coefficients(graph: ExprGraph) -> list[float]:
    return [e.feature for e in graph.term_edges]


def with_coefficients(graph: ExprGraph, coefs) -> ExprGraph:
    """New graph with the root-edge coefficients replaced."""
    terms = graph.term_edges
    if len(coefs) != len(terms):
        raise ValueError("coefficient count does not match term count")
    table = {id(e): float(c) for e, c in zip(terms, coefs)}
    edges = [Edge(e.parent, e.child, table.get(id(e), e.feature))
             for e in graph.edges]
    return ExprGraph(graph.nodes, edges, graph.root)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    message: str


def validate(graph: ExprGraph, max_terms: int | None = None) -> list[Violation]:
    """Structural checks; returns violations, never raises."""
    out: list[Violation] = []
    ids = {n.id for n in graph.nodes}
    if len(ids) != len(graph.nodes):
        out.append(Violation("structure", "duplicate node ids"))
        return out
    for e in graph.edges:
        if e.parent not in ids or e.child not in ids:
            out.append(Violation("structure", f"edge {e} references unknown node"))
            return out
    if graph.root not in ids:
        out.append(Violation("structure", "root id not among nodes"))
        return out

    # cycle detection over the full edge set
    WHITE, GREY, BLACK = 0, 1, 2
    color = {nid: WHITE for nid in ids}
    for start in ids:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(graph.children(start)))]
        color[start] = GREY
        while stack:
            nid, it = stack[-1]
            advanced = False
            for e in it:
                if color[e.child] == GREY:
                    out.append(Violation("cycle", f"cycle through node {e.child}"))
                    return out
                if color[e.child] == WHITE:
                    color[e.child] = GREY
                    stack.append((e.child, iter(graph.children(e.child))))
                    advanced = True
                    break
            if not advanced:
                color[nid] = BLACK
                stack.pop()

    # every evaluator expands the graph into trees, so a shared node would
    # be expanded once per path to it
    for nid, count in sorted(Counter(e.child for e in graph.edges).items()):
        if count > 1:
            out.append(Violation(
                "shared-node", f"node {nid} has {count} incoming edges; "
                "a node may have one parent edge"))

    # reachability from the root
    seen = {graph.root}
    frontier = [graph.root]
    while frontier:
        nid = frontier.pop()
        for e in graph.children(nid):
            if e.child not in seen:
                seen.add(e.child)
                frontier.append(e.child)
    for nid in sorted(ids - seen):
        out.append(Violation("unreachable", f"node {nid} unreachable from root"))

    # arity
    for n in graph.nodes:
        deg = len(graph.children(n.id))
        if n.kind in (ADD, MUL) and deg < 1:
            out.append(Violation("arity", f"{n.kind} node {n.id} has no children"))
        elif n.kind in (POW, LOG) and deg != 1:
            out.append(Violation("arity", f"{n.kind} node {n.id} has {deg} children"))
        elif n.kind in (VAR, CONST) and deg != 0:
            out.append(Violation("arity", f"leaf node {n.id} has children"))
        elif n.kind not in NODE_KINDS:
            out.append(Violation("structure", f"unknown node kind {n.kind!r}"))
        if n.kind == VAR and not (isinstance(n.name, str) and n.name):
            out.append(Violation("structure", f"var node {n.id} has no name"))

    root_node = graph.node(graph.root)
    if root_node.kind != ADD:
        out.append(Violation("root-kind", f"root is {root_node.kind}, expected add"))
    else:
        if max_terms is not None and graph.term_count > max_terms:
            out.append(Violation(
                "term-count",
                f"{graph.term_count} terms exceed max_terms={max_terms}"))
        for e in graph.term_edges:
            if graph.node(e.child).kind in (POW, LOG):
                out.append(Violation(
                    "root-kind",
                    f"root child {e.child} is {graph.node(e.child).kind}; "
                    "terms must carry a coefficient edge"))

    # edge feature discipline
    for e in graph.edges:
        child = graph.node(e.child)
        parent = graph.node(e.parent)
        if not math.isfinite(e.feature):
            out.append(Violation(
                "edge-feature",
                f"edge {e.parent}->{e.child} feature {e.feature} is not finite"))
        elif child.kind == LOG:
            if not any(abs(e.feature - b) < 1e-9 for b in LOG_BASES):
                out.append(Violation(
                    "edge-feature", f"log base {e.feature} not in (10, e)"))
        elif child.kind == POW:
            pass  # exponent: any real feature is admissible
        elif parent.kind != ADD and e.feature != 1.0:
            out.append(Violation(
                "edge-feature",
                f"edge {e.parent}->{e.child} feature {e.feature} must be 1"))
    return out




# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_coef(value: float) -> str:
    return format(float(value), "#.6g")


def _fmt_exp(value: float) -> str:
    return format(float(value), "g")


def _is_log_base_10(base: float) -> bool:
    return abs(base - 10.0) < 1e-9


def _render_factor(tree) -> str:
    """Render one multiplicative factor."""
    kind = tree[0]
    if kind == POW:
        base = _render_operand(tree[2])
        if tree[1] == 1.0:
            return base
        return f"{base}^{_fmt_exp(tree[1])}"
    if kind == LOG:
        fn = "log10" if _is_log_base_10(tree[1]) else "ln"
        return f"{fn}({_render_operand(tree[2], bare=True)})"
    return _render_operand(tree)


def _render_operand(tree, bare: bool = False) -> str:
    """Render an operand; ``bare`` drops the parentheses around a product."""
    kind = tree[0]
    if kind == POW or kind == LOG:
        return _render_factor(tree)
    if kind == VAR:
        return tree[1]
    if kind == CONST:
        return "1"
    if kind == MUL:
        body = _render_mul(tree)
        return body if bare else f"({body})"
    if kind == ADD:
        return f"({_render_add(tree)})"
    raise ValueError(f"unrenderable node kind {kind}")


def _render_mul(tree) -> str:
    return "*".join(sorted(_render_factor(factor) for factor in tree[1]))


def _render_add(tree) -> str:
    parts = []
    for coef, summand in tree[1]:
        kind = summand[0]
        if kind == POW or kind == LOG:
            parts.append(_render_factor(summand))
        elif kind == CONST:
            parts.append(_fmt_exp(coef))
        else:
            body = _render_operand(summand, bare=True)
            if coef == 1.0:
                parts.append(body)
            elif coef == -1.0:
                parts.append(f"-{body}")
            else:
                parts.append(f"{_fmt_exp(coef)}*{body}")
    return " + ".join(sorted(parts))


def _term_body(tree) -> str:
    kind = tree[0]
    if kind == CONST:
        return ""
    if kind == MUL:
        return _render_mul(tree)
    return _render_operand(tree, bare=True)


def _term_profile(tree):
    """(kind rank, variable names, exponents) used as the canonical sort key."""
    if tree[0] == CONST:
        return 0, (), ()
    names: list[str] = []
    exponents: list[float] = []
    has_log = False
    has_rational = False
    stack = [tree]
    while stack:
        node = stack.pop()
        kind = node[0]
        if kind == VAR:
            names.append(node[1])
        elif kind == POW:
            exponents.append(node[1])
            if node[1] < 0:
                has_rational = True
        elif kind == LOG:
            has_log = True
        elif kind == ADD:
            has_rational = True
        stack.extend(_children(node))
    if has_rational:
        rank = 3
    elif has_log:
        rank = 2
    else:
        rank = 1
    return rank, tuple(sorted(names)), tuple(sorted(exponents))


def _term_parts(tree) -> tuple:
    """(kind rank, variable names, exponents, body) of a root term:
    everything render shows of it apart from its coefficient."""
    return (*_term_profile(tree), _term_body(tree))


def _render_sum(terms) -> str:
    """Join (render parts, coefficient) pairs in canonical term order."""
    entries = []
    for (rank, names, exps, body), coef in terms:
        text = _fmt_coef(coef) if not body else f"{_fmt_coef(coef)}*{body}"
        entries.append(((rank, names, exps, body, coef), text))
    entries.sort(key=lambda item: item[0])
    return " + ".join(text for _, text in entries)


def render(graph: ExprGraph) -> str:
    """Canonical infix form: deterministic term order, 6-significant-digit
    coefficients, identical strings for structurally equal graphs."""
    return _render_sum((_term_parts(tree), coef)
                       for coef, tree in _entries(graph, graph.term_edges))


def render_terms(terms) -> str:
    """``render(from_terms(terms))`` for (term, coefficient) pairs, without
    assembling the graph."""
    return _render_sum((term.render_parts, coef) for term, coef in terms)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_NUMBER = r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_PLUS = r"\s*\+\s*"


class _Parser:
    """Recursive descent over the grammar that ``render`` emits:

        sum     := part (' + ' part)*
        part    := number | number '*' product           (root terms)
                 | ['-' | number '*'] product            (inner sums too)
        product := factor ('*' factor)*
        factor  := name ['^' number] | '(' sum ')' ['^' number]
                 | ('log10' | 'ln') '(' product ')' ['^' number]

    It builds the trees that ``sample_template`` builds: a product is a mul,
    a name a pow over a var, a parenthesised sum a pow over an add, and a
    bare number a const under its coefficient.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def take(self, pattern: str, expected: str | None = None) -> str | None:
        """Consume ``pattern`` (a regex) at the current position; without
        a match, return None or, if ``expected`` is given, fail."""
        match = re.compile(pattern).match(self.text, self.pos)
        if match is not None:
            self.pos = match.end()
            return match.group()
        if expected is not None:
            found = self.text[self.pos:self.pos + 10] or "end of text"
            raise ValueError(f"expected {expected} at position {self.pos} "
                             f"of {self.text!r}, found {found!r}")
        return None

    def sum(self, root: bool) -> tuple:
        """The (coefficient, summand) entries of a sum."""
        entries = []
        while True:
            number = self.take(_NUMBER, "a number" if root else None)
            if number is None:
                sign = -1.0 if self.take("-") else 1.0
                entries.append((sign, self.product()))
            elif self.take(r"\*"):
                entries.append((float(number), self.product()))
            else:
                entries.append((float(number), (CONST,)))
            if self.take(_PLUS) is None:
                return tuple(entries)

    def product(self) -> tuple:
        factors = [self.factor()]
        while self.take(r"\*"):
            factors.append(self.factor())
        return (MUL, tuple(factors))

    def exponent(self) -> float:
        return float(self.take(_NUMBER, "a number")) if self.take(r"\^") else 1.0

    def factor(self) -> tuple:
        log = self.take(r"(log10|ln)\(")
        if log:
            operand = self.product()
            self.take(r"\)", "')'")
            node = (LOG, 10.0 if log == "log10(" else math.e, operand)
            if not self.take(r"\^"):
                return node
            return (POW, float(self.take(_NUMBER, "a number")), node)
        name = self.take(r"[A-Za-z_]\w*")
        if name is not None:
            return (POW, self.exponent(), (VAR, name))
        self.take(r"\(", "a name, '(', 'log10(' or 'ln('")
        add = (ADD, self.sum(root=False))
        self.take(r"\)", "')'")
        return (POW, self.exponent(), add)


def parse(text: str) -> ExprGraph:
    """The graph of a sum of terms written as ``render`` writes it.

    Raises ValueError naming the position of the first character that the
    grammar does not accept.
    """
    parser = _Parser(text)
    entries = parser.sum(root=True)
    parser.take(r"\Z", "' + ' or the end of the text")
    return from_terms([(TermFragment(tree), coef) for coef, tree in entries])


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

def _positive(alphabet) -> list[int]:
    return [a for a in alphabet if a > 0]


def _pow_var(name: str, exponent) -> tuple:
    return (POW, float(exponent), (VAR, name))


def _drawn_powers(variables, picks, exponents, rng) -> tuple:
    """A power of each picked variable, in pick order, with an exponent
    drawn from ``exponents`` for each."""
    n = len(exponents)
    return tuple([(POW, float(exponents[rng.integers(n)]), (VAR, variables[i]))
                  for i in picks])


def sample_template(kind: str, variables, rng, alphabet=DEFAULT_ALPHABET) -> TermFragment:
    """Draw one term of the requested archetype.

    The term always validates once attached under an additive root;
    exponents come from ``alphabet`` and log bases from (10, e).
    """
    variables = list(variables)
    if not variables:
        raise ValueError("sample_template needs at least one variable")
    n_vars = len(variables)

    if kind == CONST_TERM:
        return TermFragment((CONST,))

    if kind == POLY_TERM:
        k = rng.integers(1, min(3, n_vars) + 1)
        picks = rng.choice(n_vars, size=k, replace=False)
        return TermFragment((MUL, _drawn_powers(variables, picks,
                                                list(alphabet), rng)))

    if kind == LOG_TERM:
        base = LOG_BASES[rng.integers(2)]
        k = rng.integers(1, min(2, n_vars) + 1)
        picks = rng.choice(n_vars, size=k, replace=False)
        product = (MUL, _drawn_powers(variables, picks, _positive(alphabet),
                                      rng))
        return TermFragment((MUL, ((LOG, base, product),)))

    if kind == RATIONAL_TERM:
        pos = _positive(alphabet)
        # numerator: 0..2 positive power factors
        n_num = rng.integers(0, 3)
        factors = []
        if n_num:
            picks = rng.choice(n_vars, size=min(n_num, n_vars), replace=False)
            factors.extend(_drawn_powers(variables, picks, pos, rng))
        # denominator: 1..2 unit-coefficient power-product summands,
        # optionally plus a +-1 constant
        denom = []
        for s in range(rng.integers(1, 3)):
            k = rng.integers(1, min(2, n_vars) + 1)
            picks = rng.choice(n_vars, size=k, replace=False)
            summand = (MUL, _drawn_powers(variables, picks, pos, rng))
            sign = 1.0 if s == 0 or rng.random() < 0.75 else -1.0
            denom.append((sign, summand))
        if rng.random() < 0.3:
            denom.append((1.0 if rng.random() < 0.5 else -1.0, (CONST,)))
        factors.append((POW, -1.0, (ADD, tuple(denom))))
        # optional extra reciprocal factor multiplying the denominator
        if rng.random() < 0.25:
            factors.append(_pow_var(variables[rng.integers(n_vars)], -1.0))
        return TermFragment((MUL, tuple(factors)))

    raise ValueError(f"unknown template kind {kind!r}")
