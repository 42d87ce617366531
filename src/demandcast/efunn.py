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
A node's activation is ``satlin(1 - dist)`` of the normalized fuzzy
difference ``dist``, and the nodes above ``sthr`` (or else the most
activated one) propagate; Kasabov's other modes and activations are
left out, as the paper compares one configuration. So is his optional
third layer of temporal links between consecutive winners: a forecast
here scores rows independently, in day blocks, so no row has a
previous winner to link from.

The rule layer is held as the connection matrices of Kasabov (2001):
row k of ``w1`` (nodes x input degrees) and ``w2`` (nodes x output
degrees) are node k's centroids, grown together by capacity doubling.

``w1`` is stored degree-major (Fortran order): the values of one input
degree over all nodes are contiguous, so the fuzzy difference from an
input to every node is a few passes of length "all nodes", one per
degree. ``_pairwise`` adds those passes in exactly the order numpy's
pairwise sum adds a contiguous row, forming each block of 8 degrees'
``|w1 - ex|`` in reused scratch just before adding it, and divides by
per-node degree sums kept beside ``w1``. Every write to ``w1`` refreshes
them, so every activation is bit-identical to the row-major
``|w1 - ex|.sum(axis=1) / (w1.sum(axis=1) + ex.sum())`` form, whatever
the memory layout of its operands.

Most nodes lie far outside an input's radius, and ``_candidates``
shows it cheaply: ``|w1 - ex|`` over the first block of 8 degrees is
at most the distance's numerator, so a node whose block alone exceeds
``1 - sthr`` of the denominator cannot fire. Only the others get exact
distances, bit for bit the full kernel's. The full kernel still scores
rows that no node fires for (the most activated node of all then
propagates), learning at the node budget (which updates the nearest
node), and chunks where the bound leaves too many nodes to pay off.

Because every rule node is a pair of fuzzy centroids, the whole model
can be read out as (and rebuilt from) a list of linguistic rules.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import snapshot
from .config import check_finite
from .errors import (
    CapacityError,
    ConfigError,
    DataError,
    DegenerateError,
    EmptyModelError,
    ParseError,
    ShapeError,
)
from .flops import DISCARD
from .fuzzy import (
    MembershipPartition,
    defuzzify,
    fuzzify,
    fuzzify_rows,
    fuzzify_vector,
    fuzzy_difference,
    mf_labels,
    satlin,
)


@dataclass
class EfunnConfig:
    """Learning parameters of the evolving network.

    sthr is the sensitivity threshold (minimum activation for a node to
    absorb an example), errthr the maximum fuzzy output error before a
    new node is created, lr1/lr2 the learning rates of the input and
    output centroids.
    """

    sthr: float = 0.99
    errthr: float = 0.001
    lr1: float = 0.05
    lr2: float = 0.05
    max_nodes: int = 100000

    def __post_init__(self):
        check_finite(self)
        if not 0.0 < self.sthr < 1.0:
            raise ConfigError(f"sthr must be in (0, 1), got {self.sthr}")
        if self.errthr <= 0.0:
            raise ConfigError(f"errthr must be positive, got {self.errthr}")
        for name in ("lr1", "lr2"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0")
        if self.max_nodes < 1:
            raise ConfigError(f"max_nodes must be >= 1, got {self.max_nodes}")


# distance scratch of batched scoring stays within this
_BATCH_BYTES = 2 * 1024 * 1024
# scratch values per (input row, node) pair: two blocks of 8 degrees
_SCRATCH = 16
# the candidate bound reads the kernel's first block of degrees
_HEAD = 8
# widening of the bound's radius, relative and absolute
_SLACK = 1e-9
# degrees the candidates may gather per (input row, node) pair; beyond
# that the full kernel costs less
_GATHER = 3


@dataclass
class LearnOutcome:
    created_node: bool
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
    w1: np.ndarray
    w2: np.ndarray

    def text(self) -> str:
        clauses = " AND ".join(
            f"{v} is {a}" for v, a in zip(self.input_variables, self.antecedents)
        )
        return f"IF {clauses} THEN {self.output_variable} is {self.consequent}"


# node arrays in snapshot order: (field key, model array, parser)
_NODE_FIELDS = (
    ("nodes.w1", "_w1", snapshot.parse_finite),
    ("nodes.w2", "_w2", snapshot.parse_finite),
)
# every array of the rule layer: the snapshot's, and the sum of each w1
# row, kept beside w1 for the distance kernel
_ARRAYS = tuple(name for _, name, _ in _NODE_FIELDS) + ("_w1sum",)


class EfunnModel:
    """Five-layer evolving fuzzy network over fixed membership partitions.

    learn_one mutates the model and must be externally serialized;
    predict leaves the learned state unchanged and works in scratch of
    its own, but must not run while learn_one does. One-pass learning
    depends on the order of the examples, so training streams should be
    presented in time order.
    """

    def __init__(self, config: EfunnConfig, input_partitions, output_partition):
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
        # the rule layer: rows [:_n] are live, later rows spare capacity;
        # the distance kernel's scratch for one input row grows with it
        self._n = 0
        self._w1 = np.zeros((0, self.input_width), order="F")
        self._w1sum = np.zeros(0)
        self._w2 = np.zeros((0, output_partition.size))
        self._scratch = np.zeros(0)
        self._reserve(4)

    # -- basic accessors -------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self._n

    @property
    def w1(self) -> np.ndarray:
        """Input centroids, read-only: ``_put_w1`` writes them."""
        w1 = self._w1[: self._n]
        w1.flags.writeable = False
        return w1

    @property
    def w2(self) -> np.ndarray:
        return self._w2[: self._n]

    @property
    def input_width(self) -> int:
        return sum(p.size for p in self.input_partitions)

    def fuzzify_input(self, x) -> np.ndarray:
        """Concatenated membership degrees of a crisp input vector."""
        return fuzzify_vector(x, self.input_partitions)

    # -- structural operations -------------------------------------------

    def _reserve(self, rows: int) -> None:
        """Grow every rule-layer array to hold ``rows`` nodes, at least
        doubling the capacity when it has to grow."""
        cap = len(self._w2)
        if rows <= cap:
            return
        cap = max(rows, 2 * cap)
        n = self._n
        for name in _ARRAYS:
            old = getattr(self, name)
            new = np.zeros((cap,) + old.shape[1:], dtype=old.dtype,
                           order="F" if name == "_w1" else "C")
            new[:n] = old[:n]
            setattr(self, name, new)
        self._scratch = np.empty(_SCRATCH * cap)

    def _chunk_rows(self) -> int:
        """Input rows whose distance scratch fits in _BATCH_BYTES."""
        return max(1, _BATCH_BYTES // (8 * _SCRATCH * max(1, self._n)))

    def _put_w1(self, rows, value) -> None:
        """Write input centroids and refresh their degree sums, summing
        each centroid as a C-ordered row."""
        self._w1[rows] = value
        self._w1sum[rows] = np.ascontiguousarray(self._w1[rows]).sum(axis=-1)

    def create_rule_node(self, ex, te) -> int:
        """Append a node memorizing (ex, te) exactly."""
        ex = np.asarray(ex, dtype=float)
        te = np.asarray(te, dtype=float)
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
        self._put_w1(k, ex)
        self._w2[k] = te
        self._n = k + 1
        return k

    def _gaps(self, ex: np.ndarray, i: int, j: int, out: np.ndarray):
        """|w1 - ex| of input degrees i..j-1, in ``out`` (degrees x rows of
        ``ex`` x nodes)."""
        n = self._n
        out = out[: j - i]
        np.subtract(self._w1[:n, i:j].T[:, None, :], ex.T[i:j, :, None], out)
        return np.abs(out, out)

    def _denominators(self, ex: np.ndarray, out: np.ndarray) -> np.ndarray:
        """w1.sum(axis=1) + ex.sum(axis=1) for each row of ``ex`` and node,
        in ``out``."""
        return np.add(self._w1sum[: self._n],
                      np.ascontiguousarray(ex).sum(axis=1)[:, None], out)

    def _distances(self, ex: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """Normalized fuzzy difference from each row of ``ex`` (one
        fuzzified input per row) to every node's input centroid.

        Equal bit for bit to the row-major ``|w1 - ex|.sum(axis=2) /
        (w1.sum(axis=1) + ex.sum(axis=1))`` of C-ordered operands, for
        ``ex`` in any memory layout, capped at 1 as ``fuzzy_difference``
        is. ``scratch`` holds at least ``_SCRATCH * len(ex) * n_nodes``
        floats, and the distances are returned in it.
        """
        size = 8 * len(ex) * self._n
        acc = scratch[:size].reshape(8, len(ex), self._n)
        buf = scratch[size : 2 * size].reshape(acc.shape)
        # sums of |w1 - ex| hold no -0.0, so adding the reduction's start
        # value +0.0 would change no bit
        total = _pairwise(lambda i, j, out: self._gaps(ex, i, j, out),
                          0, self._w1.shape[1], acc, buf)
        dist = np.divide(total, self._denominators(ex, acc[0]), acc[0])
        return np.minimum(dist, 1.0, out=dist)

    def _activations(self, ex: np.ndarray, scratch: np.ndarray,
                     counter=DISCARD) -> np.ndarray:
        """A1 of every rule node (columns) for each row of ``ex``, in
        ``scratch``."""
        if not self._n:
            raise EmptyModelError("model has no rule nodes")
        dist = self._distances(ex, scratch)
        counter.add(4 * len(ex) * self._n * self._w1.shape[1])
        return satlin(np.subtract(1.0, dist, dist), dist)

    def _candidates(self, ex: np.ndarray, scratch: np.ndarray,
                    counter=DISCARD):
        """(rows, nodes, a1): each pair of a row of ``ex`` and a node whose
        activation can reach sthr, in row-major order, with that exact
        activation; None when so many pairs are left that the full
        kernel costs less.

        |w1 - ex| summed over the first _HEAD degrees is at most the whole
        sum, so a node whose partial sum exceeds (1 - sthr) of its
        denominator lies outside its radius, and its activation below
        sthr. The radius is widened by _SLACK, relative and absolute, far
        more than the few ulp by which rounding the sums, the quotient
        and ``1 - dist`` can move a node. The activations kept equal those
        of ``_activations`` bit for bit: each pair's ``|w1 - ex|`` is
        summed as a C-ordered row, the form ``_distances`` matches.
        ``scratch`` is as ``_distances`` takes it.
        """
        rows, n, width = len(ex), self._n, self._w1.shape[1]
        head = min(_HEAD, width)
        counter.add(4 * rows * n * head)
        pairs = rows * n
        gaps = scratch[: head * pairs].reshape(head, rows, n)
        bound, den, limit = scratch[8 * pairs : 11 * pairs].reshape(3, rows, n)
        np.add.reduce(self._gaps(ex, 0, head, gaps), axis=0, out=bound)
        radius = (1.0 - self.config.sthr + _SLACK) * (1.0 + _SLACK)
        np.multiply(self._denominators(ex, den), radius, limit)
        far = np.greater(bound, limit)  # nan decides nothing, so is kept
        kept = np.flatnonzero(np.logical_not(far, far))
        if kept.size * width > _GATHER * pairs:
            return None
        counter.add(4 * kept.size * width)
        row, node = np.divmod(kept, n)
        diff = self._w1[node]  # C-ordered: a node's degrees adjoin
        diff -= ex[row]
        total = np.abs(diff, diff).sum(axis=1)
        dist = np.minimum(total / den.ravel()[kept], 1.0)
        return row, node, satlin(1.0 - dist)

    def _select(self, a1: np.ndarray) -> np.ndarray:
        """Nodes that propagate: those above sthr, else the most activated."""
        sel = np.flatnonzero(a1 > self.config.sthr)
        if sel.size == 0:
            sel = np.array([int(np.argmax(a1))])
        return sel

    def _propagate(self, weights: np.ndarray, sel: np.ndarray,
                   counter=DISCARD) -> np.ndarray:
        """Fuzzy output A2: blend of the selected nodes' w2, weighted by
        their activations ``weights``."""
        w2 = self._w2[sel]
        total = weights.sum()
        if total <= 0.0:
            return satlin(w2.mean(axis=0))
        counter.add(2 * w2.size)
        return satlin(weights @ w2 / total)

    # -- learning ---------------------------------------------------------

    def learn_one(self, x, y: float, counter=DISCARD) -> LearnOutcome:
        """Feed one (input, target) example through the evolving procedure.

        The example is fuzzified and then either absorbed (all
        sufficiently activated nodes are updated) or memorized in a new
        node. At the node budget the nearest node is updated instead of
        failing the stream. The step's flops go to ``counter``.
        """
        x = self._check_input(x)
        # NaN fails every comparison, so check what must hold
        if not (((x >= -0.5) & (x <= 1.5)).all() and -0.5 <= y <= 1.5):
            raise DataError(
                "input outside [-0.5, 1.5]: examples must be normalized first"
            )
        cfg = self.config
        ex = self.fuzzify_input(x)
        te = fuzzify(y, self.output_partition)
        counter.add_transcendental(ex.size + te.size)
        self.examples_seen += 1

        n = self._n
        if not n:
            self.create_rule_node(ex, te)
            return LearnOutcome(True, 0.0, 1)
        # at the budget the nearest node may be needed, so all are scored
        found = (self._candidates(ex[None, :], self._scratch, counter)
                 if n < cfg.max_nodes else None)
        if found is None:
            nodes = np.arange(n)
            a1 = self._activations(ex[None, :], self._scratch, counter)[0]
        else:
            _, nodes, a1 = found

        err = 0.0
        if not a1.size or a1.max() < cfg.sthr:
            created = self._create_or_absorb(ex, te, a1, counter)
        else:
            # no other node reaches sthr, so the most activated is here
            s = self._select(a1)
            a2 = self._propagate(a1[s], nodes[s], counter)
            err = fuzzy_difference(a2, te)
            if err > cfg.errthr:
                created = self._create_or_absorb(ex, te, a1, counter)
            else:
                self._absorb(nodes[s], ex, te, a1[s, None], counter)
                created = False
        return LearnOutcome(created, float(err), self._n)

    def _create_or_absorb(self, ex, te, a1, counter) -> bool:
        """Create a node (True), or at the budget update the nearest one;
        ``a1`` then holds every node's activation."""
        if self._n < self.config.max_nodes:
            self.create_rule_node(ex, te)
            return True
        k = int(np.argmax(a1))
        self._absorb(k, ex, te, float(a1[k]), counter)
        return False

    def _absorb(self, rows, ex, te, a1, counter=DISCARD) -> None:
        """Drift the centroids of ``rows`` toward an absorbed example.

        The input centroid moves a fraction lr1 toward the example; the
        output centroid moves against the node-local signed output error,
        scaled by both lr2 and the activation ``a1`` (a column of
        activations for an index array of rows). The update's flops go
        to ``counter``.
        """
        w1, w2 = self._w1[rows], self._w2[rows]
        self._put_w1(rows, w1 + self.config.lr1 * (ex - w1))
        self._w2[rows] = w2 + self.config.lr2 * (te - satlin(w2)) * a1
        counter.add_mac(2 * (ex.size + te.size) * np.size(rows))

    # -- inference --------------------------------------------------------

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 1 or x.size != len(self.input_partitions):
            raise ShapeError(
                f"expected {len(self.input_partitions)} inputs, got shape {x.shape}"
            )
        return x

    def predict(self, xs) -> np.ndarray:
        """Crisp demand estimates for the normalized input rows ``xs``;
        changes no learned state. Each row's estimate is independent of
        the others, so a batch equals its rows predicted one at a time,
        bit for bit.

        Activations are computed for a chunk of rows at a time in scratch
        allocated once: as many rows as fit in ``_BATCH_BYTES`` (2 MiB),
        and at least one, whose scratch takes 128 bytes per node. Besides
        the output, memory thus stays within max(2 MiB, 128 bytes per
        node) of scratch and half as much again for a chunk's other
        temporaries, at any number of rows: the candidates' exact
        distances gather at most _GATHER degrees a (row, node) pair.
        A row that no candidate fires for is scored by the full kernel,
        which finds its most activated node.
        """
        if not self._n:
            raise EmptyModelError("cannot predict with no rule nodes")
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != len(self.input_partitions):
            raise ShapeError(f"expected rows of {len(self.input_partitions)} "
                             f"inputs, got shape {xs.shape}")
        out = np.empty(len(xs))
        step = self._chunk_rows()
        scratch = np.empty(_SCRATCH * min(step, len(xs)) * self._n)
        sthr, part = self.config.sthr, self.output_partition
        for start in range(0, len(xs), step):
            ex = fuzzify_rows(xs[start : start + step], self.input_partitions)
            fired = np.zeros(len(ex), dtype=bool)
            found = self._candidates(ex, scratch)
            if found is not None:
                row, node, a1 = found
                cuts = np.searchsorted(row, np.arange(len(ex) + 1))
                for r, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
                    s = np.flatnonzero(a1[lo:hi] > sthr)
                    if s.size:
                        out[start + r] = defuzzify(self._propagate(
                            a1[lo:hi][s], node[lo:hi][s]), part)
                        fired[r] = True
            rest = np.flatnonzero(~fired)
            if rest.size:
                for r, a1 in zip(rest, self._activations(ex[rest], scratch)):
                    s = self._select(a1)
                    out[start + r] = defuzzify(self._propagate(a1[s], s), part)
        return out

    # -- structure maintenance --------------------------------------------

    def aggregate(self, thr1: float, thr2: float) -> int:
        """Greedily merge node pairs whose centroids sit within thresholds.

        In index order, each surviving node absorbs every later node
        within thr1 (input centroids) and thr2 (output centroids) of its
        current centroids, scanning all later nodes at once; merged
        nodes are removed together at the end.
        """
        if not (thr1 >= 0.0 and thr2 >= 0.0):  # refuses nan too
            raise ConfigError("aggregation thresholds must be >= 0")
        n = self._n
        w1, w2 = self._w1, self.w2
        live = np.ones(n, dtype=bool)
        for i in range(n):
            start = i + 1
            while live[i] and start < n:
                d1, bad1 = _differences(w1[i], w1[start:n])
                d2, bad2 = _differences(w2[i], w2[start:])
                # an undefined difference stops the scan where it is reached
                hit = live[start:] & (bad1 | ((d1 <= thr1)
                                              & (bad2 | (d2 <= thr2))))
                if not hit.any():
                    break
                j = start + int(np.argmax(hit))
                if bad1[j - start] or bad2[j - start]:
                    raise DegenerateError(
                        "fuzzy difference of two all-zero vectors is undefined")
                self._put_w1(i, (w1[i] + w1[j]) / 2.0)
                w2[i] = (w2[i] + w2[j]) / 2.0
                live[j] = False
                start = j + 1
        merged = np.flatnonzero(~live)
        if merged.size:
            self._remove_nodes(merged)
        return int(merged.size)

    def _remove_nodes(self, indices) -> None:
        """Drop nodes, moving the kept rows down in order."""
        keep = np.setdiff1d(np.arange(self._n), indices)
        k = keep.size
        for name in _ARRAYS:
            array = getattr(self, name)
            array[:k] = array[keep]
        self._n = k

    # -- linguistic rules --------------------------------------------------

    def extract_rules(self) -> list:
        """One IF/THEN rule per node, labeled by argmax membership degree."""
        w1, w2 = np.array(self.w1), np.array(self.w2)
        labels, start = [], 0
        for p in self.input_partitions:  # one argmax per partition
            names = mf_labels(p.size)
            labels.append([names[k] for k in
                           np.argmax(w1[:, start : start + p.size], axis=1)])
            start += p.size
        out_labels = mf_labels(self.output_partition.size)
        in_names = tuple(p.variable_name for p in self.input_partitions)
        return [LinguisticRule(input_variables=in_names,
                               antecedents=antecedents,
                               output_variable=self.output_partition.variable_name,
                               consequent=out_labels[k], w1=a, w2=b)
                for antecedents, k, a, b in zip(zip(*labels),
                                                np.argmax(w2, axis=1), w1, w2)]

    def insert_rule(self, rule: LinguisticRule) -> int:
        """Add a node with the centroids of an extracted rule."""
        return self.create_rule_node(rule.w1, rule.w2)

    # -- serialization -----------------------------------------------------

    def _fields(self) -> dict:
        """Snapshot fields in file order."""
        fields = snapshot.config_fields("config", self.config)
        fields["inputs"] = len(self.input_partitions)
        for i, p in enumerate(self.input_partitions):
            fields.update(_partition_fields(f"partition.in.{i}", p))
        fields.update(_partition_fields("partition.out", self.output_partition))
        n = fields["nodes"] = self._n
        for key, name, _ in _NODE_FIELDS:
            fields[key] = getattr(self, name)[:n]
        fields["examples_seen"] = self.examples_seen
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
        # older v3 files name the one rule learn_one and predict implement
        for key, implemented in (("config.m_mode", "all_above_threshold"),
                                 ("config.activation", "satlin")):
            if body.get(key, implemented) != implemented:
                raise ParseError(f"snapshot {key} {body[key]!r} is not "
                                 f"implemented; expected {implemented!r}")
        # nor are their nodes.a1av, nodes.age and nodes.absorbed lines read:
        # a mean activation, examples since creation and examples absorbed,
        # which no rule uses
        n_in = need(body, "inputs", int)
        inputs = [_partition_from(body, f"partition.in.{i}") for i in range(n_in)]
        output = _partition_from(body, "partition.out")
        model = cls(EfunnConfig(**kwargs), inputs, output)
        n = need(body, "nodes", int)
        if n < 0:
            raise ParseError(f"snapshot holds {n} nodes")
        # every array is read and its size checked before n sizes any
        arrays = [need(body, key, parse, n * getattr(model, name)[:1].size)
                  for key, name, parse in _NODE_FIELDS]
        model._reserve(n)
        for (_, name, _), values in zip(_NODE_FIELDS, arrays):
            array = getattr(model, name)[:n]
            array[:] = values.reshape(array.shape)
        model._n = n
        model._put_w1(slice(0, n), model._w1[:n])
        model.examples_seen = need(body, "examples_seen", int)
        return model, extra

    def save(self, path, extra: Optional[dict] = None) -> None:
        snapshot.write(path, "efunn", self._fields(), extra)

    @classmethod
    def load(cls, path):
        return snapshot.read(path, "efunn", cls._from_fields)


def _pairwise(term, lo: int, hi: int, acc: np.ndarray, buf: np.ndarray):
    """Sum of the terms lo..hi-1 in numpy's pairwise order, before the
    reduction's start value +0.0 is added.

    That order: below 8 terms one after another; up to 128 terms eight
    running sums over blocks of 8, combined by a fixed tree, then the
    remainder one at a time; above 128 the two halves (the first a
    multiple of 8 long) summed apart and added. Each step is one pass
    over whole slices.

    ``term(i, j, out)`` gives terms i..j-1 stacked on axis 0, computed
    into ``out`` or taken from elsewhere; ``acc`` and ``buf`` are scratch
    for 8 terms each. The sum is returned in ``buf`` (a new array above
    128 terms).
    """
    n = hi - lo
    if n > 128:
        half = n // 2 - n // 2 % 8
        first = _pairwise(term, lo, lo + half, acc, buf).copy()
        return first + _pairwise(term, lo + half, hi, acc, buf)
    total = buf[:1]
    if n < 8:
        np.copyto(total, term(lo, lo + 1, acc))
        tail = lo + 1
    else:
        tail = hi - n % 8
        r = acc[:8]
        if tail - lo > 8:
            np.add(term(lo, lo + 8, acc), term(lo + 8, lo + 16, buf), r)
        else:
            np.copyto(r, term(lo, lo + 8, acc))
        for i in range(lo + 16, tail, 8):
            np.add(r, term(i, i + 8, buf), r)
        np.add(r[0::2], r[1::2], buf[:4])
        np.add(buf[0:4:2], buf[1:4:2], acc[:2])
        np.add(acc[:1], acc[1:2], total)
    for i in range(tail, hi):
        np.add(total, term(i, i + 1, acc), total)
    return total[0]


def _differences(v: np.ndarray, rows: np.ndarray):
    """fuzzy_difference(v, row) for each row, and where it is undefined."""
    rows = np.ascontiguousarray(rows)  # so each row sums in numpy's row order
    den = v.sum() + rows.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        d = np.abs(v - rows).sum(axis=1) / den
        np.minimum(d, 1.0, out=d)
    return d, den <= 0.0


def _partition_fields(prefix: str, p: MembershipPartition) -> dict:
    return {f"{prefix}.name": p.variable_name, f"{prefix}.kind": "gaussian",
            f"{prefix}.centers": p.centers, f"{prefix}.widths": p.widths}


def _partition_from(body: dict, prefix: str) -> MembershipPartition:
    need = snapshot.need
    # fuzzify_rows implements Gaussian MFs only
    kind = need(body, f"{prefix}.kind")
    if kind != "gaussian":
        raise ParseError(f"snapshot {prefix}.kind {kind!r} is not "
                         "implemented; expected 'gaussian'")
    return MembershipPartition(
        variable_name=need(body, f"{prefix}.name"),
        centers=need(body, f"{prefix}.centers", snapshot.parse_finite),
        widths=need(body, f"{prefix}.widths", snapshot.parse_finite),
    )
