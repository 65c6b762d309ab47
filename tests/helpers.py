"""Term-building shorthand shared by the test modules."""

from coronakit import exprgraph
from coronakit.exprgraph import CONST, LOG, MUL, POW, VAR, TermFragment


def _powers(factors):
    return tuple((POW, float(exp), (VAR, name)) for name, exp in factors)


def power_fragment(*factors):
    """Mul over Pow(Var) children; factors are (name, exponent) pairs."""
    return TermFragment((MUL, _powers(factors)))


def log_fragment(base, *factors):
    """Mul wrapping a single log of a power product."""
    return TermFragment((MUL, ((LOG, float(base), (MUL, _powers(factors))),)))


def const_fragment():
    return TermFragment((CONST,))


def graph_of(*terms):
    """Assemble a root-add graph from (coefficient, fragment) pairs."""
    return exprgraph.from_terms([(frag, coef) for coef, frag in terms])
