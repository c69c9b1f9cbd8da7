"""The hardware OS run-length predictor (paper Section III.A, Fig. 2).

Organisation (the paper's preferred design point):

- a **200-entry fully-associative table** (CAM on the 64-bit AState)
  storing, per entry, the run length observed the last time that AState
  was seen plus a **2-bit saturating confidence counter** — about 2 KB of
  state;
- the confidence counter is incremented when a prediction lands within
  ±5 % of the actual run length and decremented otherwise;
- when the confidence is 0 (or the AState misses in the table) the
  predictor emits a **global** prediction instead: the average run length
  of the last three observed invocations regardless of AState — "OS
  invocation lengths tend to be clustered and a global prediction can be
  better than a low-confidence local prediction";
- an alternative **1,500-entry tag-less direct-mapped** organisation
  (~3.3 KB) indexes with the low AState bits and performs similarly.

The binary off-load decision distils the discrete prediction: off-load
iff the predicted length exceeds the threshold N.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Deque, List, NamedTuple, Optional, Tuple

from repro.core.astate import astate_hash, direct_mapped_index
from repro.cpu.registers import ArchitectedState
from repro.errors import PredictorError
from repro.sim.stats import PredictorStats

#: Organisation selector values.
FULLY_ASSOCIATIVE = "cam"
DIRECT_MAPPED = "direct"

#: Paper design points.
CAM_ENTRIES = 200
DIRECT_MAPPED_ENTRIES = 1500

#: ±5 % is the paper's "close prediction" band and confidence criterion.
CLOSE_TOLERANCE = 0.05

_CONFIDENCE_MAX = 3  # 2-bit saturating counter


class _Entry:
    """One predictor table entry: last observed length + confidence."""

    __slots__ = ("length", "confidence")

    def __init__(self, length: int, confidence: int = 1) -> None:
        self.length = length
        self.confidence = confidence


class PredictorSnapshot(NamedTuple):
    """What a :class:`RunLengthPredictor` has learned, frozen.

    ``entries`` holds one ``(slot, length, confidence)`` triple per
    valid table entry: the slot is the AState for the CAM, in LRU order
    (least recent first), and the table index for the direct-mapped
    organisation.  ``recent`` is the global-history window, oldest
    first.  ``shape`` is the :attr:`RunLengthPredictor.shape` it was
    taken from.
    """

    shape: Tuple[Any, ...]
    entries: Tuple[Tuple[int, int, int], ...]
    recent: Tuple[int, ...]


def is_close(predicted: int, actual: int, tolerance: float = CLOSE_TOLERANCE) -> bool:
    """True when ``predicted`` is within ``±tolerance`` of ``actual``."""
    return abs(predicted - actual) <= tolerance * actual


class RunLengthPredictor:
    """AState-indexed last-value predictor with confidence and fallback.

    Parameters
    ----------
    entries:
        Table capacity (200 for the CAM, 1,500 for the direct-mapped
        organisation in the paper).
    organisation:
        ``"cam"`` — fully associative with LRU replacement on the full
        64-bit AState; ``"direct"`` — tag-less direct-mapped on the low
        AState bits (aliasing AStates share an entry, as in hardware).
    global_history:
        Window of the global fallback average (3 in the paper).
    use_confidence:
        Disabling the confidence mechanism (always trust the local entry)
        is exposed for the predictor ablation benchmark.
    use_global_fallback:
        Disabling the fallback makes a table miss predict 0; also for the
        ablation.
    stats:
        Optional shared :class:`PredictorStats`; accuracy accounting is
        performed in :meth:`observe`.
    """

    def __init__(
        self,
        entries: int = CAM_ENTRIES,
        organisation: str = FULLY_ASSOCIATIVE,
        global_history: int = 3,
        use_confidence: bool = True,
        use_global_fallback: bool = True,
        stats: Optional[PredictorStats] = None,
    ) -> None:
        if entries <= 0:
            raise PredictorError("predictor table needs at least one entry")
        if organisation not in (FULLY_ASSOCIATIVE, DIRECT_MAPPED):
            raise PredictorError(f"unknown organisation {organisation!r}")
        if global_history <= 0:
            raise PredictorError("global history window must be positive")
        self.entries = entries
        self.organisation = organisation
        self.use_confidence = use_confidence
        self.use_global_fallback = use_global_fallback
        self.stats = stats if stats is not None else PredictorStats()
        self._recent: Deque[int] = deque(maxlen=global_history)
        if organisation == FULLY_ASSOCIATIVE:
            self._cam: "OrderedDict[int, _Entry]" = OrderedDict()
            self._ram: List[Optional[_Entry]] = []
        else:
            self._cam = OrderedDict()
            self._ram = [None] * entries

    # ------------------------------------------------------------------
    # lookup / update
    # ------------------------------------------------------------------

    def _find(self, astate: int, touch: bool) -> Optional[_Entry]:
        if self.organisation == FULLY_ASSOCIATIVE:
            entry = self._cam.get(astate)
            if entry is not None and touch:
                self._cam.move_to_end(astate)
            return entry
        return self._ram[direct_mapped_index(astate, self.entries)]

    def _global_prediction(self) -> int:
        if not self._recent:
            return 0
        return int(round(sum(self._recent) / len(self._recent)))

    def predict(self, state: ArchitectedState) -> int:
        """Predict the run length of the invocation starting with ``state``."""
        return self.predict_hash(astate_hash(state))

    def predict_hash(self, astate: int) -> int:
        """Predict from a pre-computed AState hash value."""
        self.stats.predictions += 1
        entry = self._find(astate, touch=True)
        if entry is not None and (not self.use_confidence or entry.confidence > 0):
            return entry.length
        if self.use_global_fallback:
            self.stats.global_fallbacks += 1
            return self._global_prediction()
        return entry.length if entry is not None else 0

    def observe(self, state: ArchitectedState, predicted: int, actual: int) -> None:
        """Train on a completed invocation and record accuracy.

        ``predicted`` must be the value :meth:`predict` returned for this
        invocation (the emitted prediction, possibly the global fallback);
        the confidence update compares the *local entry's* stored value
        against the actual, per the paper's mechanism.
        """
        self.observe_hash(astate_hash(state), predicted, actual)

    def observe_hash(self, astate: int, predicted: int, actual: int) -> None:
        if actual <= 0:
            raise PredictorError("actual run length must be positive")
        if predicted == actual:
            self.stats.exact += 1
        elif is_close(predicted, actual):
            self.stats.close += 1

        entry = self._find(astate, touch=False)
        if entry is None:
            self._insert(astate, actual)
        else:
            if is_close(entry.length, actual):
                if entry.confidence < _CONFIDENCE_MAX:
                    entry.confidence += 1
            else:
                if entry.confidence > 0:
                    entry.confidence -= 1
            entry.length = actual
        self._recent.append(actual)

    def _insert(self, astate: int, length: int) -> None:
        if self.organisation == FULLY_ASSOCIATIVE:
            if len(self._cam) >= self.entries:
                self._cam.popitem(last=False)  # evict LRU
            self._cam[astate] = _Entry(length)
        else:
            self._ram[direct_mapped_index(astate, self.entries)] = _Entry(length)

    # ------------------------------------------------------------------
    # learned state
    # ------------------------------------------------------------------

    @property
    def shape(self) -> Tuple[Any, ...]:
        """What decides how this predictor learns from a stream.

        Two predictors of equal shape learn the same table and history
        from the same invocations, so a :meth:`snapshot` of one may be
        loaded into the other.
        """
        return (
            type(self), self.entries, self.organisation, self._recent.maxlen,
            self.use_confidence, self.use_global_fallback,
        )

    @property
    def trained(self) -> bool:
        """True once the predictor observed (or loaded) any history."""
        # Every observe appends to the window, and only observe and
        # load fill the table.
        return bool(self._recent)

    def snapshot(self) -> PredictorSnapshot:
        """The table, its replacement order and the global history."""
        if self.organisation == FULLY_ASSOCIATIVE:
            slots = self._cam.items()
        else:
            slots = (
                (index, entry) for index, entry in enumerate(self._ram)
                if entry is not None
            )
        return PredictorSnapshot(
            self.shape,
            tuple(
                (slot, entry.length, entry.confidence) for slot, entry in slots
            ),
            tuple(self._recent),
        )

    def load(self, snapshot: PredictorSnapshot) -> None:
        """Replace the learned state with fresh entries built from ``snapshot``.

        ``stats`` is left alone: a load trains nothing, so it counts
        nothing.
        """
        if snapshot.shape != self.shape:
            raise PredictorError(
                "snapshot was taken from a differently shaped predictor"
            )
        if self.organisation == FULLY_ASSOCIATIVE:
            self._cam = OrderedDict(
                (astate, _Entry(length, confidence))
                for astate, length, confidence in snapshot.entries
            )
        else:
            ram: List[Optional[_Entry]] = [None] * self.entries
            for index, length, confidence in snapshot.entries:
                ram[index] = _Entry(length, confidence)
            self._ram = ram
        self._recent = deque(snapshot.recent, maxlen=self._recent.maxlen)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def confidence_for(self, state: ArchitectedState) -> int:
        """Current confidence of the entry covering ``state``; -1 on miss.

        Read-only (no LRU touch): the observability layer records the
        confidence that backed a decision without perturbing replacement.
        """
        return self.confidence_for_hash(astate_hash(state))

    def confidence_for_hash(self, astate: int) -> int:
        entry = self._find(astate, touch=False)
        return entry.confidence if entry is not None else -1

    @property
    def occupancy(self) -> int:
        """Number of valid entries currently in the table."""
        if self.organisation == FULLY_ASSOCIATIVE:
            return len(self._cam)
        return sum(1 for e in self._ram if e is not None)

    def storage_bits(self) -> int:
        """Approximate storage cost of this organisation in bits.

        CAM entries hold the 64-bit AState tag, a run-length field, and
        the 2-bit confidence; the direct-mapped organisation is tag-less.
        The paper quotes ~2 KB for the 200-entry CAM and ~3.3 KB for the
        1,500-entry RAM, which these formulas approximate with a 16-bit
        run-length field.
        """
        length_bits = 16
        confidence_bits = 2
        if self.organisation == FULLY_ASSOCIATIVE:
            return self.entries * (64 + length_bits + confidence_bits)
        return self.entries * (length_bits + confidence_bits)


class OracleRunLengthPredictor:
    """Perfect predictor used as an upper bound in ablation benchmarks.

    ``predict`` cannot know the future, so callers supply the actual
    length through :meth:`prime` before asking; the simulator engine does
    this only for the oracle policy.
    """

    def __init__(self, stats: Optional[PredictorStats] = None) -> None:
        self.stats = stats if stats is not None else PredictorStats()
        self._next: int = 0

    def prime(self, actual: int) -> None:
        self._next = actual

    def predict(self, state: ArchitectedState) -> int:
        self.stats.predictions += 1
        return self._next

    def observe(self, state: ArchitectedState, predicted: int, actual: int) -> None:
        if predicted == actual:
            self.stats.exact += 1
        elif is_close(predicted, actual):
            self.stats.close += 1
