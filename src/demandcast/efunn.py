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
the default ``lr3 = 0``.

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
    DisabledError,
    EmptyModelError,
    ShapeError,
)
from .fuzzy import (
    FuzzyVector,
    MembershipPartition,
    as_degrees,
    defuzzify,
    fuzzify,
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


@dataclass
class RuleNode:
    """One rule-layer prototype: fuzzy input/output centroids plus stats.

    age counts examples seen since creation; a1av is the running mean
    activation (creation counts as one observation of 1.0);
    examples_absorbed counts how many examples shaped the centroids.
    """

    w1: np.ndarray
    w2: np.ndarray
    age: int = 0
    a1av: float = 1.0
    examples_absorbed: int = 1


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


def update_node(node: RuleNode, ex, te, a1: float, lr1: float, lr2: float) -> RuleNode:
    """Drift one node's centroids toward an absorbed example.

    The input centroid moves a fraction lr1 toward the example; the
    output centroid moves against the node-local signed output error,
    scaled by both lr2 and the node's activation.
    """
    ex = as_degrees(ex)
    te = as_degrees(te)
    node.w1 += lr1 * (ex - node.w1)
    local_out = satlin(node.w2)
    node.w2 += lr2 * (te - local_out) * a1
    node.examples_absorbed += 1
    return node


# per-node snapshot fields in file order: (key, RuleNode attribute, parser)
_NODE_FIELDS = (
    ("age", "age", int), ("a1av", "a1av", float),
    ("absorbed", "examples_absorbed", int),
    ("w1", "w1", snapshot.parse_array), ("w2", "w2", snapshot.parse_array),
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
        self.nodes: list = []
        self.examples_seen = 0
        self.counter = counter
        self._last_winner: Optional[int] = None
        self._last_act = 0.0
        # temporal links kept in a capacity-doubled buffer; the public
        # w3 property exposes the live square view
        self._w3cap = 4
        self._w3buf = np.zeros((self._w3cap, self._w3cap))

    # -- basic accessors -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def w3(self) -> np.ndarray:
        n = len(self.nodes)
        return self._w3buf[:n, :n]

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
        if len(self.nodes) >= self.config.max_nodes:
            raise CapacityError(
                f"node budget exhausted at max_nodes={self.config.max_nodes}"
            )
        self.nodes.append(RuleNode(w1=ex.copy(), w2=te.copy()))
        n = len(self.nodes)
        if n > self._w3cap:
            newcap = self._w3cap * 2
            buf = np.zeros((newcap, newcap))
            buf[: self._w3cap, : self._w3cap] = self._w3buf
            self._w3buf = buf
            self._w3cap = newcap
        else:
            self._w3buf[n - 1, :n] = 0.0
            self._w3buf[:n, n - 1] = 0.0
        return n - 1

    def rule_activation(self, ex) -> np.ndarray:
        """A1 activation of every rule node for a fuzzified input."""
        if not self.nodes:
            raise EmptyModelError("model has no rule nodes")
        ex = as_degrees(ex)
        w1 = np.stack([node.w1 for node in self.nodes])
        dist = np.abs(w1 - ex).sum(axis=1) / (w1.sum(axis=1) + ex.sum())
        cfg = self.config
        if self.counter is not None:
            self.counter.add(4 * w1.size)
        temporal = 0.0
        if cfg.tc != 0.0 and self._last_winner is not None:
            temporal = cfg.tc * self.w3[self._last_winner, :]
        if cfg.activation == "satlin":
            return satlin(1.0 - cfg.ss * dist + temporal)
        return radbas(cfg.ss * dist - temporal)

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
        w2 = np.stack([self.nodes[k].w2 for k in sel])
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
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size != len(self.input_partitions):
            raise ShapeError(
                f"expected {len(self.input_partitions)} inputs, got shape {x.shape}"
            )
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

        if not self.nodes:
            idx = self.create_rule_node(ex, te)
            self._last_winner, self._last_act = idx, 1.0
            return LearnOutcome(True, idx, 0.0, 1)

        a1 = self.rule_activation(ex)
        for node, a in zip(self.nodes, a1):
            node.a1av = (node.a1av * (node.age + 1) + float(a)) / (node.age + 2)
            node.age += 1
        if self.counter is not None:
            self.counter.add(4 * len(self.nodes))

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
                for k in sel:
                    update_node(self.nodes[k], ex, te, float(a1[k]), cfg.lr1, cfg.lr2)
                if self.counter is not None:
                    self.counter.add_mac(2 * (ex.size + te.size) * sel.size)
                created = False

        winner_act = 1.0 if created else float(a1[winner])
        if cfg.lr3 > 0.0 and prev_winner is not None:
            self.update_temporal(prev_winner, winner, prev_act, winner_act)
        self._last_winner, self._last_act = winner, winner_act
        return LearnOutcome(created, winner, float(err), len(self.nodes))

    def _create_or_absorb(self, ex, te, a1):
        """Create a node, or at the budget update the nearest one."""
        if len(self.nodes) < self.config.max_nodes:
            return self.create_rule_node(ex, te), True
        k = int(np.argmax(a1))
        update_node(self.nodes[k], ex, te, float(a1[k]),
                    self.config.lr1, self.config.lr2)
        return k, False

    def update_temporal(self, prev: int, curr: int, prev_activation: float = 1.0,
                        curr_activation: float = 1.0) -> None:
        """Strengthen the link from the previous winner to the current one."""
        n = len(self.nodes)
        if not (0 <= prev < n and 0 <= curr < n):
            raise IndexError(
                f"temporal link ({prev}, {curr}) outside live nodes 0..{n - 1}"
            )
        self._w3buf[prev, curr] += self.config.lr3 * prev_activation * curr_activation

    # -- inference --------------------------------------------------------

    def predict(self, x) -> float:
        """Crisp demand estimate for a normalized input; pure."""
        if not self.nodes:
            raise EmptyModelError("cannot predict with no rule nodes")
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size != len(self.input_partitions):
            raise ShapeError(
                f"expected {len(self.input_partitions)} inputs, got shape {x.shape}"
            )
        ex = self.fuzzify_input(x)
        a1 = self.rule_activation(ex)
        sel = self._select(a1)
        a2 = self._propagate(a1, sel)
        return defuzzify(a2, self.output_partition)

    # -- structure maintenance --------------------------------------------

    def prune(self) -> int:
        """Remove old, rarely activated nodes that have a close neighbor."""
        cfg = self.config.pruning
        if cfg is None:
            raise DisabledError("pruning is not configured on this model")
        n = len(self.nodes)
        if n < 2:
            return 0
        w1 = np.stack([node.w1 for node in self.nodes])
        sums = w1.sum(axis=1)
        # pairwise normalized fuzzy distance between input centroids
        dist = np.abs(w1[:, None, :] - w1[None, :, :]).sum(axis=2)
        dist = dist / (sums[:, None] + sums[None, :])
        np.fill_diagonal(dist, np.inf)
        doomed = [
            i
            for i, node in enumerate(self.nodes)
            if node.age > cfg.old_age
            and node.a1av < cfg.low_activation
            and dist[i].min() <= cfg.density_radius
        ]
        if doomed:
            self._remove_nodes(doomed)
        return len(doomed)

    def aggregate(self) -> int:
        """Greedily merge node pairs whose centroids sit within thresholds."""
        cfg = self.config.aggregation
        if cfg is None:
            raise DisabledError("aggregation is not configured on this model")
        merged = 0
        i = 0
        while i < len(self.nodes):
            j = i + 1
            while j < len(self.nodes):
                a, b = self.nodes[i], self.nodes[j]
                if (
                    fuzzy_difference(a.w1, b.w1) <= cfg.thr1
                    and fuzzy_difference(a.w2, b.w2) <= cfg.thr2
                ):
                    a.w1 = (a.w1 + b.w1) / 2.0
                    a.w2 = (a.w2 + b.w2) / 2.0
                    a.age = max(a.age, b.age)
                    a.a1av = (a.a1av + b.a1av) / 2.0
                    a.examples_absorbed += b.examples_absorbed
                    w3 = self.w3
                    w3[i, :] += w3[j, :]
                    w3[:, i] += w3[:, j]
                    self._remove_nodes([j])
                    merged += 1
                else:
                    j += 1
            i += 1
        return merged

    def _remove_nodes(self, indices) -> None:
        """Drop nodes and their w3 rows/columns; remap the last winner."""
        doomed = sorted(set(indices))
        keep = [i for i in range(len(self.nodes)) if i not in doomed]
        w3 = self.w3[np.ix_(keep, keep)].copy()
        self.nodes = [self.nodes[i] for i in keep]
        n = len(self.nodes)
        self._w3cap = max(4, 2 * n)
        self._w3buf = np.zeros((self._w3cap, self._w3cap))
        self._w3buf[:n, :n] = w3
        if self._last_winner is not None:
            if self._last_winner in doomed:
                self._last_winner = None
                self._last_act = 0.0
            else:
                self._last_winner -= sum(1 for d in doomed if d < self._last_winner)

    # -- linguistic rules --------------------------------------------------

    def extract_rules(self) -> list:
        """One IF/THEN rule per node, labeled by argmax membership degree."""
        rules = []
        in_names = tuple(p.variable_name for p in self.input_partitions)
        out_name = self.output_partition.variable_name
        out_labels = mf_labels(self.output_partition.size)
        for node in self.nodes:
            fv = FuzzyVector(node.w1, tuple(p.size for p in self.input_partitions))
            antecedents = []
            for i, p in enumerate(self.input_partitions):
                labels = mf_labels(p.size)
                antecedents.append(labels[int(np.argmax(fv.segment(i)))])
            consequent = out_labels[int(np.argmax(node.w2))]
            rules.append(
                LinguisticRule(
                    input_variables=in_names,
                    antecedents=tuple(antecedents),
                    output_variable=out_name,
                    consequent=consequent,
                    w1=node.w1.copy(),
                    w2=node.w2.copy(),
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

    def to_text(self, extra: Optional[dict] = None) -> str:
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
        fields["nodes"] = len(self.nodes)
        for k, node in enumerate(self.nodes):
            fields.update({f"node.{k}.{key}": getattr(node, attr)
                           for key, attr, _ in _NODE_FIELDS})
        fields.update({f"w3.{r}": row for r, row in enumerate(self.w3)})
        fields["examples_seen"] = self.examples_seen
        lw = self._last_winner
        fields["last_winner"] = "none" if lw is None else lw
        fields["last_winner_activation"] = self._last_act
        return snapshot.dump("efunn", fields, extra)

    @classmethod
    def from_text(cls, text: str):
        """Rebuild (model, extra) from snapshot text."""
        body, extra = snapshot.load(text, "efunn")
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
        n_nodes = need(body, "nodes", int)
        for k in range(n_nodes):
            model.nodes.append(RuleNode(**{
                attr: need(body, f"node.{k}.{key}", parse)
                for key, attr, parse in _NODE_FIELDS}))
        cap = max(4, n_nodes)
        model._w3cap = cap
        model._w3buf = np.zeros((cap, cap))
        for r in range(n_nodes):
            model._w3buf[r, :n_nodes] = need(body, f"w3.{r}", snapshot.parse_array)
        model.examples_seen = need(body, "examples_seen", int)
        model._last_winner = need(
            body, "last_winner", lambda v: None if v == "none" else int(v))
        model._last_act = need(body, "last_winner_activation", float)
        return model, extra

    def save(self, path, extra: Optional[dict] = None) -> None:
        snapshot.write(path, self.to_text(extra))

    @classmethod
    def load(cls, path):
        return cls.from_text(snapshot.read(path))


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
