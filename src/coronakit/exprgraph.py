"""Attributed expression DAGs: representation, evaluation, rendering, templates.

A candidate equation is a directed acyclic graph rooted at an n-ary additive
node.  Edge features parameterize local operations:

  * edge into a ``pow`` node   -> exponent of that power
  * edge into a ``log`` node   -> logarithm base (10 or e)
  * other edge leaving ``add`` -> multiplicative coefficient of the child
  * any other edge             -> fixed to 1 (no redundant scale freedom)

Root-level coefficients are the only continuously fitted parameters; all
inner features (exponents, bases, inner signs) are discrete and evolved.
"""

from __future__ import annotations

import json
import math
import re
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


# Slotted, since every term of every candidate in a population carries
# its own nodes and edges.
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

    def attach(self, fragment: "TermFragment") -> int:
        """Graft a fragment into this builder, remapping its local ids."""
        remap = {}
        for n in fragment.nodes:
            remap[n.id] = self.node(n.kind, n.name)
        for e in fragment.edges:
            self.edge(remap[e.parent], remap[e.child], e.feature)
        return remap[fragment.head]

    def build(self, root: int) -> ExprGraph:
        return ExprGraph(self._nodes, self._edges, root)

    def fragment(self, head: int) -> "TermFragment":
        return TermFragment(self._nodes, self._edges, head)


# Template draws and edge mutations share one Node or Edge object per
# distinct value, together with its text in a fragment's key.  Their
# features come from the finite template grammar (an exponent alphabet,
# the log bases, signs), so the tables hold that grammar's atoms and do not
# grow with a run.  Graphs read from text or JSON carry fitted coefficients
# and build fresh objects.
_NODE_ATOMS: dict[tuple, tuple[Node, str]] = {}
_EDGE_ATOMS: dict[tuple, tuple[Edge, str]] = {}

#: a table is emptied when it reaches this size, which only a process
#: that draws over very many vocabularies or alphabets does
ATOM_TABLE_LIMIT = 4096


def _node_atom(nid: int, kind: str, name: str | None) -> tuple[Node, str]:
    """The shared node (nid, kind, name) and its key text."""
    key = (nid, kind, name)
    atom = _NODE_ATOMS.get(key)
    if atom is None:
        if len(_NODE_ATOMS) >= ATOM_TABLE_LIMIT:
            _NODE_ATOMS.clear()
        atom = _NODE_ATOMS[key] = (Node(nid, kind, name), f"{kind}:{name!r}")
    return atom


def _edge_atom(parent: int, child: int, feature: float) -> tuple[Edge, str]:
    """The shared edge (parent, child, feature) and its key text, which
    writes the node ids as positions.  A zero feature gets a fresh edge,
    since 0.0 and -0.0 are one dict key."""
    key = (parent, child, feature)
    atom = _EDGE_ATOMS.get(key)
    if atom is None:
        atom = (Edge(parent, child, feature), f"{parent}>{child}:{feature!r}")
        if feature != 0.0:
            if len(_EDGE_ATOMS) >= ATOM_TABLE_LIMIT:
                _EDGE_ATOMS.clear()
            _EDGE_ATOMS[key] = atom
    return atom


class _AtomBuilder(GraphBuilder):
    """A GraphBuilder over the shared atoms, for template draws.  Node ids
    are build positions, so the fragment's key is joined from the atoms'
    texts without formatting anything."""

    def __init__(self):
        super().__init__()
        self._node_texts: list[str] = []
        self._edge_texts: list[str] = []

    def node(self, kind: str, name: str | None = None) -> int:
        nid = self._next
        self._next += 1
        node, text = _node_atom(nid, kind, name)
        self._nodes.append(node)
        self._node_texts.append(text)
        return nid

    def edge(self, parent: int, child: int, feature: float = 1.0) -> None:
        edge, text = _edge_atom(parent, child, float(feature))
        self._edges.append(edge)
        self._edge_texts.append(text)

    def fragment(self, head: int) -> "TermFragment":
        return TermFragment(self._nodes, self._edges, head,
                            (*self._node_texts, *self._edge_texts, str(head)))


class TermFragment:
    """One root term: its nodes and edges in build order plus its head node.

    Immutable by convention and hashable.  Terms compare by ``key``, their
    structure with node ids replaced by build positions, so two equal terms
    evaluate to bit-identical values and assemble into identical graphs.
    ``texts``, when given, are the key's parts as the ``texts`` property
    writes them.
    """

    __slots__ = ("nodes", "edges", "head", "_texts", "_key", "_parts")

    def __init__(self, nodes, edges, head: int, texts=None):
        self.nodes = tuple(nodes)
        self.edges = tuple(edges)
        self.head = head
        self._texts = texts
        self._key = None
        self._parts = None

    @property
    def texts(self) -> tuple[str, ...]:
        """The key's parts: one per node, one per edge, then the head's
        position.  Names and features are written as Python literals, so
        the text is unambiguous."""
        if self._texts is None:
            pos = {n.id: i for i, n in enumerate(self.nodes)}
            self._texts = (
                *[f"{n.kind}:{n.name!r}" for n in self.nodes],
                *[f"{pos[e.parent]}>{pos[e.child]}:{e.feature!r}"
                  for e in self.edges],
                str(pos[self.head]))
        return self._texts

    @property
    def key(self) -> str:
        """Compact structural key, computed on first use."""
        if self._key is None:
            self._key = " ".join(self.texts)
        return self._key

    def with_edge_feature(self, target: Edge, feature: float) -> "TermFragment":
        """This term with its edge ``target`` (found by identity) carrying
        ``feature``.  The new edge is a shared atom, so ``feature`` should
        be a value of the template grammar, and the new key reuses every
        other part of this one."""
        i = next(i for i, e in enumerate(self.edges) if e is target)
        edge, _ = _edge_atom(target.parent, target.child, float(feature))
        texts = self.texts
        at = len(self.nodes) + i
        text = f"{texts[at].partition(':')[0]}:{edge.feature!r}"
        return TermFragment(self.nodes,
                            self.edges[:i] + (edge,) + self.edges[i + 1:],
                            self.head, texts[:at] + (text,) + texts[at + 1:])

    @property
    def render_parts(self) -> tuple:
        """What ``render`` shows of this term apart from its coefficient,
        computed on first use."""
        if self._parts is None:
            graph = ExprGraph(self.nodes, self.edges, None)
            self._parts = _term_parts(graph, Edge(None, self.head))
        return self._parts

    def __eq__(self, other):
        return isinstance(other, TermFragment) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"TermFragment(nodes={self.nodes!r}, edges={self.edges!r}, head={self.head})"


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


class _Walk:
    """One evaluation of a graph over an environment of arrays (or 0-d
    scalars), with its own cache of node values.

    ``powers``, when given, maps ``(variable name, exponent)`` to
    ``_safe_pow(env[name], exponent)``: wherever a pow node sits directly
    over a var node the walk reads that column, or computes and stores it.
    The walk holds no closures and no reference to itself, so it and every
    intermediate array it made are freed as soon as the caller drops it.
    """

    __slots__ = ("graph", "env", "powers", "cache")

    def __init__(self, graph: ExprGraph, env: dict, powers: dict | None = None):
        self.graph = graph
        self.env = env
        self.powers = powers
        self.cache: dict[int, object] = {}

    def node_value(self, nid):
        if nid in self.cache:
            return self.cache[nid]
        graph = self.graph
        node = graph.node(nid)
        kind = node.kind
        if kind == VAR:
            try:
                value = self.env[node.name]
            except KeyError:
                raise UnboundVariableError(node.name) from None
        elif kind == CONST:
            value = np.float64(1.0)
        elif kind == ADD:
            value = np.float64(0.0)
            for e in graph.children(nid):
                value = value + self.edge_value(e, ADD)
        elif kind == MUL:
            value = np.float64(1.0)
            for e in graph.children(nid):
                value = value * self.edge_value(e, MUL)
        else:
            # pow/log values depend on the incoming edge; a valid graph
            # never asks for them directly
            raise ValueError(f"cannot evaluate bare {kind} node {nid}")
        self.cache[nid] = value
        return value

    def edge_value(self, edge, parent_kind):
        graph = self.graph
        kind = graph.node(edge.child).kind
        if kind == POW or kind == LOG:
            sole = graph.children(edge.child)[0]  # the single operand
            if kind == LOG:
                return (_safe_log(self.edge_value(sole, LOG))
                        / np.log(edge.feature))
            operand = graph.node(sole.child)
            if self.powers is None or operand.kind != VAR:
                return _safe_pow(self.edge_value(sole, POW), edge.feature)
            key = (operand.name, edge.feature)
            column = self.powers.get(key)
            if column is None:
                column = _safe_pow(self.node_value(sole.child), edge.feature)
                self.powers[key] = column
            return column
        value = self.node_value(edge.child)
        if parent_kind == ADD:
            value = edge.feature * value
        return value


def _eval_root(graph: ExprGraph, env: dict) -> np.ndarray:
    """Evaluate the graph over an environment of arrays (or 0-d scalars)."""
    return _Walk(graph, env).node_value(graph.root)


def _term_column(graph: ExprGraph, head: int, env: dict,
                 powers: dict | None = None):
    """Values of the term under ``head``, formed as the root of a one-term
    graph with coefficient 1 forms them: ``0.0 + 1.0 * term``."""
    value = _Walk(graph, env, powers).edge_value(Edge(None, head, 1.0), ADD)
    return np.float64(0.0) + value


def evaluate(graph: ExprGraph, assignment: dict) -> float:
    """Evaluate the graph at a single point.

    Raises UnboundVariableError for missing variables and NonFiniteError
    for any non-finite intermediate (log of a non-positive argument,
    0 to a negative power, near-zero reciprocal denominators).
    """
    env = {name: np.float64(value) for name, value in assignment.items()}
    result = float(_eval_root(graph, env))
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
    def node_fn(nid):
        node = graph.node(nid)
        if node.kind == VAR:
            if node.name not in names:
                raise UnboundVariableError(node.name)
            index = names.index(node.name)
            return lambda args: args[index]
        if node.kind == CONST:
            return lambda args: 1.0
        if node.kind == ADD:
            terms = [edge_fn(e, ADD) for e in graph.children(nid)]

            def add(args):
                total = 0.0
                for coef, term in terms:
                    total += coef * term(args)
                return total
            return add
        parts = [edge_fn(e, MUL)[1] for e in graph.children(nid)]
        if len(parts) == 1:  # 1.0 * x is x
            return parts[0]

        def mul(args):
            product = 1.0
            for part in parts:
                product *= part(args)
            return product
        return mul

    def edge_fn(edge, parent_kind):
        """(scale, closure) of an edge; its value is scale * closure(args)."""
        kind = graph.node(edge.child).kind
        if kind not in (POW, LOG):
            scale = edge.feature if parent_kind == ADD else 1.0
            return scale, node_fn(edge.child)
        inner_edge = graph.children(edge.child)[0]
        inner = edge_fn(inner_edge, kind)[1]
        if kind == LOG:
            name = "log10" if _is_log_base_10(edge.feature) else "ln"
            what = _render_operand(graph, inner_edge, bare=True)
            scale = math.log(edge.feature)

            def log(args):
                x = inner(args)
                if not x > 0:
                    on_domain_error(f"{name} argument {what} = {x!r} "
                                    "is not positive")
                return math.log(x) / scale
            return 1.0, log
        exponent = edge.feature
        if exponent == 1.0:  # pow(x, 1) is x
            return 1.0, inner
        operand = _render_operand(graph, inner_edge)

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
        return 1.0, power

    root = node_fn(graph.root)

    def scalar(*values):
        value = root(values)
        if not math.isfinite(value):
            at = ", ".join(f"{n}={v!r}" for n, v in zip(names, values))
            on_domain_error(f"evaluates to {value!r} at {at}")
        return value
    return scalar


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
    values = np.asarray(_eval_root(graph, env), dtype=float)
    if values.ndim == 0:
        values = np.full(n, float(values))
    finite = np.isfinite(values)
    values = np.where(finite, values, np.nan)
    return values, finite


def term_values(graph: ExprGraph, data) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix of per-term values with outer coefficients forced to 1.

    Column j holds the value of root child j, formed as the root of a
    one-term graph would form it: ``0.0 + 1.0 * child``.  Each term is
    walked with its own cache, so the work is linear in the graph size and
    no term's intermediates outlive its column.  Returns ``(matrix,
    row_ok)`` where ``row_ok`` flags rows on which every term is finite.
    """
    env = _column_env(data)
    matrix = np.empty((_row_count(env), graph.term_count))
    for j, e in enumerate(graph.term_edges):
        matrix[:, j] = _term_column(graph, e.child, env)
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
    out = np.empty((len(fragments), _row_count(env)))
    for i, fragment in enumerate(fragments):
        view = ExprGraph(fragment.nodes, fragment.edges, fragment.head)
        out[i] = _term_column(view, fragment.head, env, powers)
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


def _render_factor(graph: ExprGraph, edge: Edge) -> str:
    """Render one multiplicative factor (an edge out of a mul/pow/log node)."""
    child = graph.node(edge.child)
    if child.kind == POW:
        inner = graph.children(edge.child)[0]
        base = _render_operand(graph, inner)
        if edge.feature == 1.0:
            return base
        return f"{base}^{_fmt_exp(edge.feature)}"
    if child.kind == LOG:
        inner = graph.children(edge.child)[0]
        fn = "log10" if _is_log_base_10(edge.feature) else "ln"
        return f"{fn}({_render_operand(graph, inner, bare=True)})"
    return _render_operand(graph, edge)


def _render_operand(graph: ExprGraph, edge: Edge, bare: bool = False) -> str:
    """Render the operand under ``edge``; ``bare`` drops the parentheses
    around a product."""
    child = graph.node(edge.child)
    if child.kind == POW or child.kind == LOG:
        return _render_factor(graph, edge)
    if child.kind == VAR:
        return child.name
    if child.kind == CONST:
        return "1"
    if child.kind == MUL:
        body = _render_mul(graph, edge.child)
        return body if bare else f"({body})"
    if child.kind == ADD:
        return f"({_render_add(graph, edge.child)})"
    raise ValueError(f"unrenderable node kind {child.kind}")


def _render_mul(graph: ExprGraph, nid: int) -> str:
    factors = sorted(_render_factor(graph, e) for e in graph.children(nid))
    return "*".join(factors)


def _render_add(graph: ExprGraph, nid: int) -> str:
    parts = []
    for e in graph.children(nid):
        child = graph.node(e.child)
        if child.kind in (POW, LOG):
            parts.append(_render_factor(graph, e))
        elif child.kind == CONST:
            parts.append(_fmt_exp(e.feature))
        else:
            body = _render_operand(graph, e, bare=True)
            if e.feature == 1.0:
                parts.append(body)
            elif e.feature == -1.0:
                parts.append(f"-{body}")
            else:
                parts.append(f"{_fmt_exp(e.feature)}*{body}")
    return " + ".join(sorted(parts))


def _term_body(graph: ExprGraph, edge: Edge) -> str:
    child = graph.node(edge.child)
    if child.kind == CONST:
        return ""
    if child.kind == MUL:
        return _render_mul(graph, edge.child)
    return _render_operand(graph, edge, bare=True)


def _term_profile(graph: ExprGraph, edge: Edge):
    """(kind rank, variable names, exponents) used as the canonical sort key."""
    child = graph.node(edge.child)
    if child.kind == CONST:
        return 0, (), ()
    names: list[str] = []
    exponents: list[float] = []
    has_log = False
    has_rational = False
    stack = [edge]
    while stack:
        e = stack.pop()
        node = graph.node(e.child)
        if node.kind == VAR:
            names.append(node.name)
        elif node.kind == POW:
            exponents.append(e.feature)
            if e.feature < 0:
                has_rational = True
        elif node.kind == LOG:
            has_log = True
        elif node.kind == ADD and e.child != graph.root:
            has_rational = True
        stack.extend(graph.children(e.child))
    if has_rational:
        rank = 3
    elif has_log:
        rank = 2
    else:
        rank = 1
    return rank, tuple(sorted(names)), tuple(sorted(exponents))


def _term_parts(graph: ExprGraph, edge: Edge) -> tuple:
    """(kind rank, variable names, exponents, body) of the root term under
    ``edge``: everything render shows of it apart from its coefficient."""
    return (*_term_profile(graph, edge), _term_body(graph, edge))


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
    return _render_sum((_term_parts(graph, e), e.feature)
                       for e in graph.term_edges)


def render_terms(terms) -> str:
    """``render(from_terms(terms))`` for (fragment, coefficient) pairs,
    without assembling the graph.  Holds for every term ``validate``
    accepts under a root: one whose head is not a pow or log node."""
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

    It builds the nodes that ``sample_template`` builds: a product is a mul
    node, a name a pow node over a var node, a parenthesised sum a pow node
    over an add node, and a bare number a const node under its coefficient.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.builder = GraphBuilder()

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

    def sum(self, add: int, root: bool) -> None:
        b = self.builder
        while True:
            number = self.take(_NUMBER, "a number" if root else None)
            if number is None:
                sign = -1.0 if self.take("-") else 1.0
                b.edge(add, self.product(), sign)
            elif self.take(r"\*"):
                b.edge(add, self.product(), float(number))
            else:
                b.edge(add, b.node(CONST), float(number))
            if self.take(_PLUS) is None:
                return

    def product(self) -> int:
        mul = self.builder.node(MUL)
        while True:
            node, feature = self.factor()
            self.builder.edge(mul, node, feature)
            if not self.take(r"\*"):
                return mul

    def exponent(self) -> float | None:
        return float(self.take(_NUMBER, "a number")) if self.take(r"\^") else None

    def factor(self) -> tuple[int, float]:
        """One factor as (node, feature of the edge into it)."""
        b = self.builder
        log = self.take(r"(log10|ln)\(")
        if log:
            node = b.node(LOG)
            b.edge(node, self.product(), 1.0)
            self.take(r"\)", "')'")
            base = 10.0 if log == "log10(" else math.e
            exponent = self.exponent()
            if exponent is None:
                return node, base
            power = b.node(POW)
            b.edge(power, node, base)
            return power, exponent
        name = self.take(r"[A-Za-z_]\w*")
        if name is None:
            self.take(r"\(", "a name, '(', 'log10(' or 'ln('")
        power = b.node(POW)
        if name is not None:
            b.edge(power, b.node(VAR, name), 1.0)
        else:
            add = b.node(ADD)
            self.sum(add, root=False)
            self.take(r"\)", "')'")
            b.edge(power, add, 1.0)
        exponent = self.exponent()
        return power, 1.0 if exponent is None else exponent


def parse(text: str) -> ExprGraph:
    """The graph of a sum of terms written as ``render`` writes it.

    Raises ValueError naming the position of the first character that the
    grammar does not accept.
    """
    parser = _Parser(text)
    root = parser.builder.node(ADD)
    parser.sum(root, root=True)
    parser.take(r"\Z", "' + ' or the end of the text")
    return parser.builder.build(root)


# ---------------------------------------------------------------------------
# root terms as standalone fragments
# ---------------------------------------------------------------------------

def extract_term(graph: ExprGraph, index: int) -> tuple[TermFragment, float]:
    """Copy root term ``index`` out as a standalone fragment plus its coefficient."""
    edge = graph.term_edges[index]
    keep = set()
    frontier = [edge.child]
    while frontier:
        nid = frontier.pop()
        if nid in keep:
            continue
        keep.add(nid)
        frontier.extend(e.child for e in graph.children(nid))
    nodes = [n for n in graph.nodes if n.id in keep]
    edges = [e for e in graph.edges if e.parent in keep and e.child in keep]
    return TermFragment(nodes, edges, edge.child), edge.feature


def from_terms(terms: list[tuple[TermFragment, float]]) -> ExprGraph:
    """Assemble a graph from (fragment, coefficient) term pairs."""
    builder = GraphBuilder()
    root = builder.node(ADD)
    for fragment, coef in terms:
        head = builder.attach(fragment)
        builder.edge(root, head, coef)
    return builder.build(root)


def graph_terms(graph: ExprGraph) -> list[tuple[TermFragment, float]]:
    return [extract_term(graph, i) for i in range(graph.term_count)]


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------

def _positive(alphabet) -> list[int]:
    return [a for a in alphabet if a > 0]


def _pow_var(b: GraphBuilder, parent: int, name: str, exponent: float) -> None:
    p = b.node(POW)
    v = b.node(VAR, name)
    b.edge(parent, p, exponent)
    b.edge(p, v, 1.0)


def _power_product(b: GraphBuilder, names, exponents) -> int:
    head = b.node(MUL)
    for name, exp in zip(names, exponents):
        _pow_var(b, head, name, exp)
    return head


def sample_template(kind: str, variables, rng, alphabet=DEFAULT_ALPHABET) -> TermFragment:
    """Draw one term subgraph of the requested archetype.

    The produced fragment always validates once attached under an additive
    root; exponents come from ``alphabet`` and log bases from (10, e).
    """
    variables = list(variables)
    if not variables:
        raise ValueError("sample_template needs at least one variable")
    alphabet = list(alphabet)
    b = _AtomBuilder()

    if kind == CONST_TERM:
        return b.fragment(b.node(CONST))

    if kind == POLY_TERM:
        k = int(rng.integers(1, min(3, len(variables)) + 1))
        picks = rng.choice(len(variables), size=k, replace=False)
        names = [variables[i] for i in picks]
        exps = [alphabet[int(rng.integers(len(alphabet)))] for _ in names]
        return b.fragment(_power_product(b, names, exps))

    if kind == LOG_TERM:
        base = LOG_BASES[int(rng.integers(2))]
        k = int(rng.integers(1, min(2, len(variables)) + 1))
        picks = rng.choice(len(variables), size=k, replace=False)
        pos = _positive(alphabet)
        names = [variables[i] for i in picks]
        exps = [pos[int(rng.integers(len(pos)))] for _ in names]
        head = b.node(MUL)
        log_node = b.node(LOG)
        b.edge(head, log_node, base)
        arg = _power_product(b, names, exps)
        b.edge(log_node, arg, 1.0)
        return b.fragment(head)

    if kind == RATIONAL_TERM:
        pos = _positive(alphabet)
        head = b.node(MUL)
        # numerator: 0..2 positive power factors
        n_num = int(rng.integers(0, 3))
        if n_num:
            picks = rng.choice(len(variables), size=min(n_num, len(variables)),
                               replace=False)
            for i in picks:
                _pow_var(b, head, variables[i],
                         pos[int(rng.integers(len(pos)))])
        # denominator: 1..2 unit-coefficient power-product summands,
        # optionally plus a +-1 constant
        denom = b.node(ADD)
        n_sum = int(rng.integers(1, 3))
        for s in range(n_sum):
            k = int(rng.integers(1, min(2, len(variables)) + 1))
            picks = rng.choice(len(variables), size=k, replace=False)
            names = [variables[i] for i in picks]
            exps = [pos[int(rng.integers(len(pos)))] for _ in names]
            summand = _power_product(b, names, exps)
            sign = 1.0 if s == 0 or rng.random() < 0.75 else -1.0
            b.edge(denom, summand, sign)
        if rng.random() < 0.3:
            c = b.node(CONST)
            b.edge(denom, c, 1.0 if rng.random() < 0.5 else -1.0)
        recip = b.node(POW)
        b.edge(head, recip, -1.0)
        b.edge(recip, denom, 1.0)
        # optional extra reciprocal factor multiplying the denominator
        if rng.random() < 0.25:
            i = int(rng.integers(len(variables)))
            _pow_var(b, head, variables[i], -1.0)
        return b.fragment(head)

    raise ValueError(f"unknown template kind {kind!r}")
