"""Evolving fuzzy neural network with one-pass online learning.

The network has five layers: crisp inputs, input membership functions,
rule nodes, output membership functions, and a crisp output. All
structure lives in the rule layer, which starts empty and grows while
the training stream is consumed. Each rule node pairs a fuzzy input
centroid ``w1`` with a fuzzy output centroid ``w2``; geometrically it is
an input hyper-sphere of radius ``1 - sthr`` around ``w1`` paired with
an output hyper-sphere of radius ``errthr`` around ``w2``.

Learning is strictly one pass. For each example the input is fuzzified,
rule activations are computed from the normalized fuzzy difference, and
the example is either absorbed by the activated nodes (their centroids
drift toward it) or a fresh node is created that memorizes it exactly.
A square matrix ``w3`` of temporal links between consecutive winners can
bias activation toward temporally correlated prototypes; it is inert at
the default ``lr3 = 0``, and its storage is created only on first use.

The rule layer is held as the connection matrices of Kasabov (2001):
row k of ``w1`` (nodes x input degrees) and ``w2`` (nodes x output
degrees) are node k's centroids, beside per-node ``age``, ``a1av`` and
``absorbed`` vectors and the ``w3`` square, all grown together by
capacity doubling. ``nodes[k]`` is a live view of row k.

``w1`` is stored degree-major (Fortran order): the values of one input
degree over all nodes are contiguous, so the fuzzy difference from an
input to every node is a few passes of length "all nodes", one per
degree. The per-node sums over degrees are taken by ``_degree_sum`` in
exactly the order numpy's pairwise sum adds a contiguous row, so every
activation is bit-identical to the row-major ``w1.sum(axis=1)`` form,
whatever the memory layout of its operands.

Because every rule node is a pair of fuzzy centroids, the whole model
can be read out as (and rebuilt from) a list of linguistic rules.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import snapshot
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateError,
    DisabledError,
    EmptyModelError,
    ParseError,
    ShapeError,
)
from .fuzzy import (
    FuzzyVector,
    MembershipPartition,
    as_degrees,
    defuzzify,
    fuzzify,
    fuzzify_rows,
    fuzzify_vector,
    fuzzy_difference,
    mf_labels,
    radbas,
    satlin,
)

M_MODES = ("winner_take_all", "all_above_threshold")
ACTIVATIONS = ("satlin", "radbas")


@dataclass
class PruningConfig:
    """Crisp thresholds for the OLD / LOW / dense-neighborhood pruning rule."""

    old_age: int = 1000
    low_activation: float = 0.05
    density_radius: float = 0.1

    def __post_init__(self):
        if self.old_age < 0:
            raise ConfigError("pruning old_age must be >= 0")
        if not 0.0 <= self.low_activation <= 1.0:
            raise ConfigError("pruning low_activation must be in [0, 1]")
        if self.density_radius <= 0.0:
            raise ConfigError("pruning density_radius must be positive")


@dataclass
class AggregationConfig:
    """Distance thresholds under which two rule nodes merge into one."""

    thr1: float = 0.1
    thr2: float = 0.1

    def __post_init__(self):
        if self.thr1 < 0.0 or self.thr2 < 0.0:
            raise ConfigError("aggregation thresholds must be >= 0")


@dataclass
class EfunnConfig:
    """Learning parameters of the evolving network.

    sthr is the sensitivity threshold (minimum activation for a node to
    absorb an example), errthr the maximum fuzzy output error before a
    new node is created, lr1/lr2/lr3 the learning rates of the input
    centroids, output centroids, and temporal links. ss and tc weight
    the spatial and temporal terms of the activation. Pruning and
    aggregation stay off unless their config blocks are supplied.
    """

    sthr: float = 0.99
    errthr: float = 0.001
    lr1: float = 0.05
    lr2: float = 0.05
    lr3: float = 0.0
    ss: float = 1.0
    tc: float = 0.0
    max_nodes: int = 100000
    m_mode: str = "all_above_threshold"
    activation: str = "satlin"
    pruning: Optional[PruningConfig] = None
    aggregation: Optional[AggregationConfig] = None

    def __post_init__(self):
        if not 0.0 < self.sthr < 1.0:
            raise ConfigError(f"sthr must be in (0, 1), got {self.sthr}")
        if self.errthr <= 0.0:
            raise ConfigError(f"errthr must be positive, got {self.errthr}")
        for name in ("lr1", "lr2", "lr3", "ss", "tc"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0")
        if self.max_nodes < 1:
            raise ConfigError(f"max_nodes must be >= 1, got {self.max_nodes}")
        if self.m_mode not in M_MODES:
            raise ConfigError(f"unknown m_mode {self.m_mode!r}")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


# temporaries of batched scoring, pruning and row moves stay within this
_BATCH_BYTES = 2 * 1024 * 1024


def _row_field(array: str, doc: str) -> property:
    def get(node):
        return getattr(node._model, array)[node._rows]

    def put(node, value):
        getattr(node._model, array)[node._rows] = value

    return property(get, put, doc=doc)


class RuleNode:
    """Live view of one rule-layer row, or of several given an index array.

    Reading an attribute reads the model's arrays and assigning writes
    them, so ``node.w1 += d`` updates the model in place.
    """

    __slots__ = ("_model", "_rows")

    def __init__(self, model, rows):
        self._model = model
        self._rows = rows

    w1 = _row_field("_w1", "fuzzy input centroid")
    w2 = _row_field("_w2", "fuzzy output centroid")
    age = _row_field("_age", "examples seen since creation")
    a1av = _row_field(
        "_a1av", "running mean activation; creation counts as one 1.0")
    examples_absorbed = _row_field(
        "_absorbed", "examples that shaped the centroids")


@dataclass
class LearnOutcome:
    created_node: bool
    winner_index: int
    output_error: float
    nodes_total: int


@dataclass
class LinguisticRule:
    """Readable IF/THEN form of one rule node.

    Antecedent and consequent labels come from the argmax membership
    degree per variable; the raw centroid vectors ride along so a rule
    list can rebuild an identical model.
    """

    input_variables: tuple
    antecedents: tuple
    output_variable: str
    consequent: str
    w1: Optional[np.ndarray] = None
    w2: Optional[np.ndarray] = None

    def text(self) -> str:
        clauses = " AND ".join(
            f"{v} is {a}" for v, a in zip(self.input_variables, self.antecedents)
        )
        return f"IF {clauses} THEN {self.output_variable} is {self.consequent}"


def update_node(node: RuleNode, ex, te, a1, lr1: float, lr2: float) -> RuleNode:
    """Drift the centroids of the viewed node(s) toward an absorbed example.

    The input centroid moves a fraction lr1 toward the example; the
    output centroid moves against the node-local signed output error,
    scaled by both lr2 and the node's activation (a column of
    activations when the view covers several rows).
    """
    ex = as_degrees(ex)
    te = as_degrees(te)
    node.w1 += lr1 * (ex - node.w1)
    node.w2 += lr2 * (te - satlin(node.w2)) * a1
    node.examples_absorbed += 1
    return node


# per-node snapshot fields in file order: (key, model array, parser)
_NODE_FIELDS = (
    ("age", "_age", int), ("a1av", "_a1av", float),
    ("absorbed", "_absorbed", int),
    ("w1", "_w1", snapshot.parse_array), ("w2", "_w2", snapshot.parse_array),
)


class EfunnModel:
    """Five-layer evolving fuzzy network over fixed membership partitions.

    learn_one mutates the model and must be externally serialized;
    predict is pure. The temporal layer makes learning order-dependent
    by design, so training streams should be presented in time order.
    """

    def __init__(self, config: EfunnConfig, input_partitions, output_partition,
                 counter=None):
        if not isinstance(config, EfunnConfig):
            raise ConfigError("config must be an EfunnConfig")
        if not input_partitions:
            raise ConfigError("at least one input partition is required")
        for p in list(input_partitions) + [output_partition]:
            if not isinstance(p, MembershipPartition):
                raise ConfigError("partitions must be MembershipPartition instances")
        self.config = config
        self.input_partitions = tuple(input_partitions)
        self.output_partition = output_partition
        self.examples_seen = 0
        self.counter = counter
        self._last_winner: Optional[int] = None
        self._last_act = 0.0
        # the rule layer: rows [:_n] are live, later rows spare capacity;
        # w3 outside its live [:_n, :_n] block is kept all zero, and is
        # None until the w3 property is first read
        self._n = 0
        self._w1 = np.zeros((0, self.input_width), order="F")
        self._w2 = np.zeros((0, output_partition.size))
        self._age = np.zeros(0, dtype=np.int64)
        self._a1av = np.zeros(0)
        self._absorbed = np.zeros(0, dtype=np.int64)
        self._w3 = None
        self._reserve(4)

    # -- basic accessors -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def nodes(self) -> list:
        """Live views of the rule nodes in creation order (see RuleNode)."""
        return [RuleNode(self, k) for k in range(self._n)]

    @property
    def w1(self) -> np.ndarray:
        return self._w1[: self._n]

    @property
    def w2(self) -> np.ndarray:
        return self._w2[: self._n]

    @property
    def w3(self) -> np.ndarray:
        """Temporal links among the live nodes; creates their storage."""
        if self._w3 is None:
            cap = self._age.size
            self._w3 = np.zeros((cap, cap))
        n = self._n
        return self._w3[:n, :n]

    @property
    def last_winner(self) -> Optional[int]:
        return self._last_winner

    @property
    def input_width(self) -> int:
        return sum(p.size for p in self.input_partitions)

    def fuzzify_input(self, x) -> np.ndarray:
        """Concatenated membership degrees of a crisp input vector."""
        return fuzzify_vector(x, self.input_partitions).degrees

    # -- structural operations -------------------------------------------

    def _reserve(self, rows: int) -> None:
        """Grow every rule-layer array to hold ``rows`` nodes, at least
        doubling the capacity when it has to grow."""
        cap = self._age.size
        if rows <= cap:
            return
        cap = max(rows, 2 * cap)
        n = self._n
        for _, name, _ in _NODE_FIELDS:
            old = getattr(self, name)
            new = np.zeros((cap,) + old.shape[1:], dtype=old.dtype,
                           order="F" if name == "_w1" else "C")
            new[:n] = old[:n]
            setattr(self, name, new)
        if self._w3 is not None:
            w3 = np.zeros((cap, cap))
            w3[:n, :n] = self.w3
            self._w3 = w3

    def _chunk_rows(self) -> int:
        """Rows of a (rows x nodes x width) temporary within _BATCH_BYTES."""
        return max(1, _BATCH_BYTES // (8 * max(1, self.w1.size)))

    def create_rule_node(self, ex, te) -> int:
        """Append a node memorizing (ex, te) exactly; grows w3 by one."""
        ex = as_degrees(ex)
        te = as_degrees(te)
        if ex.size != self.input_width:
            raise ShapeError(
                f"input centroid has {ex.size} degrees, partitions define "
                f"{self.input_width}"
            )
        if te.size != self.output_partition.size:
            raise ShapeError(
                f"output centroid has {te.size} degrees, partition defines "
                f"{self.output_partition.size}"
            )
        if self._n >= self.config.max_nodes:
            raise CapacityError(
                f"node budget exhausted at max_nodes={self.config.max_nodes}"
            )
        k = self._n
        self._reserve(k + 1)
        self._w1[k] = ex
        self._w2[k] = te
        self._age[k] = 0
        self._a1av[k] = 1.0
        self._absorbed[k] = 1
        self._n = k + 1
        return k

    def _distances(self, ex: np.ndarray) -> np.ndarray:
        """Normalized fuzzy difference from each row of ``ex`` (one
        fuzzified input per row) to every node's input centroid.

        Equal bit for bit to the row-major ``|w1 - ex|.sum(axis=2) /
        (w1.sum(axis=1) + ex.sum(axis=1))`` of C-ordered operands, for
        ``ex`` in any memory layout.
        """
        w1t = self.w1.T  # degrees x nodes, each row contiguous
        diff = w1t[:, None, :] - ex.T[:, :, None]  # degrees x inputs x nodes
        np.abs(diff, out=diff)
        ex_sums = np.ascontiguousarray(ex).sum(axis=1)
        return _degree_sum(diff) / (_degree_sum(w1t) + ex_sums[:, None])

    def _activations(self, ex: np.ndarray) -> np.ndarray:
        """A1 of every rule node (columns) for each row of ``ex``."""
        if not self._n:
            raise EmptyModelError("model has no rule nodes")
        dist = self._distances(ex)
        cfg = self.config
        if self.counter is not None:
            self.counter.add(4 * self.w1.size * len(ex))
        temporal = 0.0
        if cfg.tc != 0.0 and self._last_winner is not None:
            temporal = cfg.tc * self.w3[self._last_winner, :]
        if cfg.activation == "satlin":
            return satlin(1.0 - cfg.ss * dist + temporal)
        return radbas(cfg.ss * dist - temporal)

    def rule_activation(self, ex) -> np.ndarray:
        """A1 activation of every rule node for a fuzzified input."""
        return self._activations(as_degrees(ex)[None, :])[0]

    def _select(self, a1: np.ndarray) -> np.ndarray:
        """Indices of the m nodes that propagate, per m_mode."""
        if self.config.m_mode == "winner_take_all":
            return np.array([int(np.argmax(a1))])
        sel = np.flatnonzero(a1 > self.config.sthr)
        if sel.size == 0:
            sel = np.array([int(np.argmax(a1))])
        return sel

    def _propagate(self, a1: np.ndarray, sel: np.ndarray) -> np.ndarray:
        """Fuzzy output A2: activation-weighted blend of selected w2."""
        w2 = self._w2[sel]
        weights = a1[sel]
        total = weights.sum()
        if total <= 0.0:
            return satlin(w2.mean(axis=0))
        if self.counter is not None:
            self.counter.add(2 * w2.size)
        return satlin(weights @ w2 / total)

    # -- learning ---------------------------------------------------------

    def learn_one(self, x, y: float) -> LearnOutcome:
        """Feed one (input, target) example through the evolving procedure.

        The example is fuzzified, node statistics are refreshed, and the
        example is either absorbed (all sufficiently activated nodes are
        updated) or memorized in a new node. At the node budget the
        nearest node is updated instead of failing the stream.
        """
        x = self._check_input(x)
        if np.any(x < -0.5) or np.any(x > 1.5) or not -0.5 <= y <= 1.5:
            raise DataError(
                "input outside [-0.5, 1.5]: examples must be normalized first"
            )
        cfg = self.config
        ex = self.fuzzify_input(x)
        te = fuzzify(y, self.output_partition)
        if self.counter is not None:
            self.counter.add_transcendental(ex.size + te.size)
        self.examples_seen += 1

        if not self._n:
            idx = self.create_rule_node(ex, te)
            self._last_winner, self._last_act = idx, 1.0
            return LearnOutcome(True, idx, 0.0, 1)

        a1 = self.rule_activation(ex)
        n = self._n
        age = self._age[:n]
        self._a1av[:n] = (self._a1av[:n] * (age + 1) + a1) / (age + 2)
        age += 1
        if self.counter is not None:
            self.counter.add(4 * n)

        prev_winner, prev_act = self._last_winner, self._last_act
        winner = int(np.argmax(a1))
        err = 0.0
        if a1[winner] < cfg.sthr:
            winner, created = self._create_or_absorb(ex, te, a1)
        else:
            sel = self._select(a1)
            a2 = self._propagate(a1, sel)
            err = fuzzy_difference(a2, te)
            if err > cfg.errthr:
                winner, created = self._create_or_absorb(ex, te, a1)
            else:
                update_node(RuleNode(self, sel), ex, te, a1[sel, None],
                            cfg.lr1, cfg.lr2)
                if self.counter is not None:
                    self.counter.add_mac(2 * (ex.size + te.size) * sel.size)
                created = False

        winner_act = 1.0 if created else float(a1[winner])
        if cfg.lr3 > 0.0 and prev_winner is not None:
            self.update_temporal(prev_winner, winner, prev_act, winner_act)
        self._last_winner, self._last_act = winner, winner_act
        return LearnOutcome(created, winner, float(err), self._n)

    def _create_or_absorb(self, ex, te, a1):
        """Create a node, or at the budget update the nearest one."""
        if self._n < self.config.max_nodes:
            return self.create_rule_node(ex, te), True
        k = int(np.argmax(a1))
        update_node(RuleNode(self, k), ex, te, float(a1[k]),
                    self.config.lr1, self.config.lr2)
        return k, False

    def update_temporal(self, prev: int, curr: int, prev_activation: float = 1.0,
                        curr_activation: float = 1.0) -> None:
        """Strengthen the link from the previous winner to the current one."""
        n = self._n
        if not (0 <= prev < n and 0 <= curr < n):
            raise IndexError(
                f"temporal link ({prev}, {curr}) outside live nodes 0..{n - 1}"
            )
        self.w3[prev, curr] += self.config.lr3 * prev_activation * curr_activation

    # -- inference --------------------------------------------------------

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size != len(self.input_partitions):
            raise ShapeError(
                f"expected {len(self.input_partitions)} inputs, got shape {x.shape}"
            )
        return x

    def _output(self, a1: np.ndarray) -> float:
        a2 = self._propagate(a1, self._select(a1))
        return defuzzify(a2, self.output_partition)

    def predict(self, x) -> float:
        """Crisp demand estimate for a normalized input; pure."""
        if not self._n:
            raise EmptyModelError("cannot predict with no rule nodes")
        x = self._check_input(x)
        return self._output(self.rule_activation(self.fuzzify_input(x)))

    def predict_batch(self, xs) -> np.ndarray:
        """``predict`` of every row of ``xs``, equal to it bit for bit.

        Activations are computed for a chunk of rows at a time, so the
        temporaries stay within a fixed memory budget at any node count.
        """
        if not self._n:
            raise EmptyModelError("cannot predict with no rule nodes")
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != len(self.input_partitions):
            raise ShapeError(f"expected rows of {len(self.input_partitions)} "
                             f"inputs, got shape {xs.shape}")
        out = np.empty(len(xs))
        step = self._chunk_rows()
        for start in range(0, len(xs), step):
            ex = fuzzify_rows(xs[start : start + step], self.input_partitions)
            for k, row in enumerate(self._activations(ex), start):
                out[k] = self._output(row)
        return out

    # -- structure maintenance --------------------------------------------

    def prune(self) -> int:
        """Remove old, rarely activated nodes that have a close neighbor."""
        cfg = self.config.pruning
        if cfg is None:
            raise DisabledError("pruning is not configured on this model")
        n = self._n
        if n < 2:
            return 0
        candidates = np.flatnonzero((self._age[:n] > cfg.old_age)
                                    & (self._a1av[:n] < cfg.low_activation))
        doomed = []
        step = self._chunk_rows()
        for start in range(0, candidates.size, step):
            rows = candidates[start : start + step]
            dist = self._distances(self.w1[rows])
            dist[np.arange(rows.size), rows] = np.inf
            doomed.extend(rows[dist.min(axis=1) <= cfg.density_radius])
        if doomed:
            self._remove_nodes(doomed)
        return len(doomed)

    def aggregate(self) -> int:
        """Greedily merge node pairs whose centroids sit within thresholds.

        In index order, each surviving node absorbs every later node
        within thr1 (input centroids) and thr2 (output centroids) of its
        current centroids, scanning all later nodes at once; merged
        nodes are removed together at the end.
        """
        cfg = self.config.aggregation
        if cfg is None:
            raise DisabledError("aggregation is not configured on this model")
        n = self._n
        w1, w2 = self.w1, self.w2
        w3 = None if self._w3 is None else self.w3
        age, a1av, absorbed = self._age, self._a1av, self._absorbed
        live = np.ones(n, dtype=bool)
        for i in range(n):
            start = i + 1
            while live[i] and start < n:
                d1, bad1 = _differences(w1[i], w1[start:])
                d2, bad2 = _differences(w2[i], w2[start:])
                # an undefined difference stops the scan where it is reached
                hit = live[start:] & (bad1 | ((d1 <= cfg.thr1)
                                              & (bad2 | (d2 <= cfg.thr2))))
                if not hit.any():
                    break
                j = start + int(np.argmax(hit))
                if bad1[j - start] or bad2[j - start]:
                    raise DegenerateError(
                        "fuzzy difference of two all-zero vectors is undefined")
                w1[i] = (w1[i] + w1[j]) / 2.0
                w2[i] = (w2[i] + w2[j]) / 2.0
                age[i] = max(age[i], age[j])
                a1av[i] = (a1av[i] + a1av[j]) / 2.0
                absorbed[i] += absorbed[j]
                if w3 is not None:
                    w3[i, :] += w3[j, :]
                    w3[:, i] += w3[:, j]
                live[j] = False
                start = j + 1
        merged = np.flatnonzero(~live)
        if merged.size:
            self._remove_nodes(merged)
        return int(merged.size)

    def _remove_nodes(self, indices) -> None:
        """Drop nodes and their w3 rows/columns; remap the last winner."""
        n = self._n
        doomed = np.unique(indices)
        keep = np.setdiff1d(np.arange(n), doomed)
        k = keep.size
        for _, name, _ in _NODE_FIELDS:
            array = getattr(self, name)
            array[:k] = array[keep]
        # w3 moves a chunk of rows, then of columns, at a time: nothing
        # kept moves past where it was, and each chunk is read whole
        # before it is written
        w3 = self._w3
        if w3 is not None:
            step = max(1, _BATCH_BYTES // (8 * w3.shape[0]))
            for start in range(0, k, step):
                part = keep[start : start + step]
                w3[start : start + part.size, :n] = w3[part, :n]
            for start in range(0, k, step):
                part = keep[start : start + step]
                w3[:k, start : start + part.size] = w3[:k, part]
            w3[k:n, :n] = 0.0
            w3[:k, k:n] = 0.0
        self._n = k
        if self._last_winner is not None:
            shift = int(np.searchsorted(doomed, self._last_winner))
            if shift < doomed.size and doomed[shift] == self._last_winner:
                self._last_winner = None
                self._last_act = 0.0
            else:
                self._last_winner -= shift

    # -- linguistic rules --------------------------------------------------

    def extract_rules(self) -> list:
        """One IF/THEN rule per node, labeled by argmax membership degree."""
        rules = []
        in_names = tuple(p.variable_name for p in self.input_partitions)
        out_name = self.output_partition.variable_name
        out_labels = mf_labels(self.output_partition.size)
        segments = tuple(p.size for p in self.input_partitions)
        for w1, w2 in zip(self.w1, self.w2):
            fv = FuzzyVector(w1, segments)
            antecedents = []
            for i, p in enumerate(self.input_partitions):
                labels = mf_labels(p.size)
                antecedents.append(labels[int(np.argmax(fv.segment(i)))])
            consequent = out_labels[int(np.argmax(w2))]
            rules.append(
                LinguisticRule(
                    input_variables=in_names,
                    antecedents=tuple(antecedents),
                    output_variable=out_name,
                    consequent=consequent,
                    w1=w1.copy(),
                    w2=w2.copy(),
                )
            )
        return rules

    def insert_rule(self, rule: LinguisticRule) -> int:
        """Add a node from a rule; label-only rules become one-hot centroids."""
        if rule.w1 is not None and rule.w2 is not None:
            return self.create_rule_node(rule.w1, rule.w2)
        if len(rule.antecedents) != len(self.input_partitions):
            raise ShapeError(
                f"rule has {len(rule.antecedents)} antecedents for "
                f"{len(self.input_partitions)} input variables"
            )
        segments = []
        for label, p in zip(rule.antecedents, self.input_partitions):
            segments.append(_one_hot(label, p))
        w2 = _one_hot(rule.consequent, self.output_partition)
        return self.create_rule_node(np.concatenate(segments), w2)

    # -- serialization -----------------------------------------------------

    def _fields(self) -> dict:
        """Snapshot fields in file order."""
        cfg = self.config
        fields = snapshot.config_fields("config", cfg)
        for block in ("pruning", "aggregation"):
            if getattr(cfg, block) is not None:
                fields.update(snapshot.config_fields(f"config.{block}",
                                                     getattr(cfg, block)))
        fields["inputs"] = len(self.input_partitions)
        for i, p in enumerate(self.input_partitions):
            fields.update(_partition_fields(f"partition.in.{i}", p))
        fields.update(_partition_fields("partition.out", self.output_partition))
        n = fields["nodes"] = self._n
        for k in range(n):
            fields.update({f"node.{k}.{key}": getattr(self, array)[k]
                           for key, array, _ in _NODE_FIELDS})
        # without w3 storage every link is zero: all rows share one zero row
        w3 = self.w3 if self._w3 is not None else [np.zeros(n)] * n
        fields.update({f"w3.{r}": row for r, row in enumerate(w3)})
        fields["examples_seen"] = self.examples_seen
        lw = self._last_winner
        fields["last_winner"] = "none" if lw is None else lw
        fields["last_winner_activation"] = self._last_act
        return fields

    def to_text(self, extra: Optional[dict] = None) -> str:
        return snapshot.dump("efunn", self._fields(), extra)

    @classmethod
    def from_text(cls, text: str):
        """Rebuild (model, extra) from snapshot text."""
        return cls._from_fields(*snapshot.load(text, "efunn"))

    @classmethod
    def _from_fields(cls, body: dict, extra: dict):
        need = snapshot.need
        kwargs = snapshot.config_kwargs(EfunnConfig, body, "config")
        for block, block_cls in (("pruning", PruningConfig),
                                 ("aggregation", AggregationConfig)):
            prefix = f"config.{block}"
            if any(key.startswith(prefix + ".") for key in body):
                kwargs[block] = block_cls(
                    **snapshot.config_kwargs(block_cls, body, prefix))
        n_in = need(body, "inputs", int)
        inputs = [_partition_from(body, f"partition.in.{i}") for i in range(n_in)]
        output = _partition_from(body, "partition.out")
        model = cls(EfunnConfig(**kwargs), inputs, output)

        def put(name, index, key, parse, shape):
            value = need(body, key, parse)
            if np.shape(value) != shape:
                raise ParseError(f"snapshot key {key!r} holds {np.size(value)} "
                                 f"values, expected {int(np.prod(shape))}")
            try:
                # the new arrays hold +0.0, so only nonzero values are
                # written: w3 storage is created only for a nonzero link
                if np.asarray(value, dtype=float).view(np.uint64).any():
                    getattr(model, name)[index] = value
            except OverflowError:
                raise ParseError(f"snapshot key {key!r} is out of range: "
                                 f"{body[key]!r}") from None

        rows = {}  # w3 rows repeat (all zeros at lr3 = 0): parse each once

        def parse_row(text):
            if text not in rows:
                rows[text] = snapshot.parse_array(text)
            return rows[text]

        n_nodes = need(body, "nodes", int)
        model._reserve(n_nodes)
        model._n = max(0, n_nodes)
        for k in range(n_nodes):
            for key, name, parse in _NODE_FIELDS:
                put(name, k, f"node.{k}.{key}", parse,
                    getattr(model, name).shape[1:])
        for r in range(n_nodes):
            put("w3", r, f"w3.{r}", parse_row, (n_nodes,))
        model.examples_seen = need(body, "examples_seen", int)
        model._last_winner = need(
            body, "last_winner", lambda v: None if v == "none" else int(v))
        model._last_act = need(body, "last_winner_activation", float)
        return model, extra

    def save(self, path, extra: Optional[dict] = None) -> None:
        snapshot.write(path, "efunn", self._fields(), extra)

    @classmethod
    def load(cls, path):
        return snapshot.read(path, "efunn", cls._from_fields)


def _degree_sum(a: np.ndarray) -> np.ndarray:
    """Sum over axis 0 in the order numpy's pairwise sum adds a contiguous
    row, so ``_degree_sum(a.T)`` equals a C-ordered ``a.sum(axis=1)`` bit
    for bit, whatever the layout of ``a``.

    That order: below 8 terms one after another; up to 128 terms eight
    running sums over blocks of 8, combined by a fixed tree, then the
    remainder one at a time; above 128 the two halves (the first a
    multiple of 8 long) summed apart and added; finally the reduction's
    start value +0.0 is added. Each step is one pass over whole slices.
    """
    return _pairwise(a) + 0.0


def _pairwise(a: np.ndarray) -> np.ndarray:
    n = len(a)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _pairwise(a[:half]) + _pairwise(a[half:])
    if n < 8:
        total, tail = a[0].copy(), 1
    else:
        tail = n - n % 8
        r = a[:8] + a[8:16] if tail > 8 else a[:8].copy()
        for i in range(16, tail, 8):
            r += a[i : i + 8]
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        total = r[0] + r[1]
    for i in range(tail, n):
        total += a[i]
    return total


def _differences(v: np.ndarray, rows: np.ndarray):
    """fuzzy_difference(v, row) for each row, and where it is undefined."""
    den = _degree_sum(v) + _degree_sum(rows.T)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _degree_sum(np.abs(v - rows).T) / den, den <= 0.0


def _one_hot(label: str, partition: MembershipPartition) -> np.ndarray:
    labels = mf_labels(partition.size)
    if label not in labels:
        raise ConfigError(
            f"unknown label {label!r} for {partition.variable_name!r}; "
            f"expected one of {labels}"
        )
    out = np.zeros(partition.size)
    out[labels.index(label)] = 1.0
    return out


def _partition_fields(prefix: str, p: MembershipPartition) -> dict:
    return {f"{prefix}.name": p.variable_name, f"{prefix}.kind": p.kind,
            f"{prefix}.centers": p.centers, f"{prefix}.widths": p.widths}


def _partition_from(body: dict, prefix: str) -> MembershipPartition:
    need = snapshot.need
    return MembershipPartition(
        variable_name=need(body, f"{prefix}.name"),
        kind=need(body, f"{prefix}.kind"),
        centers=need(body, f"{prefix}.centers", snapshot.parse_array),
        widths=need(body, f"{prefix}.widths", snapshot.parse_array),
    )
