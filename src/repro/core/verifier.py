"""The trusted verifier ``V``.

The verifier is a lightweight wrapper around the on-premise data store.  It
collects VERIFY messages from executors and, once it has ``f_E + 1``
*matching* results for a sequence number, validates that sequence number in
strict order (the ``k_max`` / ``π`` machinery of Figure 3, Lines 21–35):

* the read versions reported by the executors must still match the store
  (concurrency-control check) — stale transactions are aborted;
* writes of valid transactions are applied to the store;
* RESPONSE messages go to the submitting clients and to the shim.

The verifier also drives recovery from request-suppression attacks
(Figure 4): clients that time out retransmit to the verifier, which answers
with a cached RESPONSE, an ERROR (missing request / stuck ``k_max``), or a
REPLACE (byzantine primary), and later ACKs the shim once the problem is
resolved.  Flooding is mitigated by ignoring VERIFY messages for already
matched sequence numbers (Section V-C).

For conflicting transactions with unknown read-write sets (Section VI-B) the
verifier runs abort detection: a timer per sequence number that, on expiry,
either blames the primary (fewer than ``2f_E + 1`` VERIFY messages received)
or aborts the transaction (enough executors answered but their results do
not match because of the conflict).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.consensus.quorums import QuorumTracker
from repro.core.messages import (
    AbortMsg,
    AckMsg,
    ClientRequestMsg,
    ErrorMsg,
    ReplaceMsg,
    ResponseMsg,
    VerifyMsg,
)
from repro.crypto.costs import CryptoCostModel
from repro.crypto.signatures import SignatureService
from repro.perf import PERF
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import SimProcess
from repro.sim.stats import LatencyRecorder, ThroughputRecorder
from repro.storage.kvstore import VersionedKVStore


class _SeqState:
    """Per-sequence-number bookkeeping at the verifier."""

    def __init__(self) -> None:
        self.distinct_executors: Set[str] = set()
        self.matched: Optional[VerifyMsg] = None
        self.abort_tagged = False
        self.representative: Optional[VerifyMsg] = None
        self.timer = None


class Verifier(SimProcess):
    """The trusted verifier plus its concurrency-control logic."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        region: str,
        cores: int,
        store: VersionedKVStore,
        signer: SignatureService,
        costs: CryptoCostModel,
        shim_node_names: List[str],
        match_quorum: int,
        executor_faults: int,
        expected_executors: int,
        quorum_timeout: float = 2.0,
        throughput: Optional[ThroughputRecorder] = None,
        obs=None,
        verify_processing_cost: float = 30e-6,
        write_cost_per_key: float = 5e-6,
    ) -> None:
        super().__init__(sim, name, region, cores=cores)
        self._network = network
        self._store = store
        self._signer = signer
        self._costs = costs
        self._shim_nodes = list(shim_node_names)
        self._match_quorum = max(1, match_quorum)
        self._executor_faults = executor_faults
        self._expected_executors = expected_executors
        self._quorum_timeout = quorum_timeout
        self._throughput = throughput or ThroughputRecorder()
        self._obs = obs
        self._verify_processing_cost = verify_processing_cost
        self._write_cost_per_key = write_cost_per_key

        self._kmax = 1
        # Live version map for incremental concurrency control: key ->
        # current store version, seeded lazily per key and bumped on every
        # commit this verifier applies.  The verifier is the store's only
        # writer after construction; ``_live_mutations`` tracks the store's
        # mutation counter so a foreign write (preload, test harness poking
        # the store directly) is detected and invalidates the map wholesale.
        self._live_versions: Dict[str, int] = {}
        self._live_mutations = -1
        self._votes: QuorumTracker = QuorumTracker(self._match_quorum)
        self._seq_state: Dict[int, _SeqState] = {}
        self._pi: Dict[int, _SeqState] = {}
        self._validated: Set[int] = set()
        self._responses_sent: Dict[str, List] = {}
        self._request_to_seq: Dict[str, int] = {}
        self._pending_errors: Dict[Tuple[str, object], bool] = {}

        self._committed_txns = 0
        self._aborted_txns = 0
        self._ignored_verify = 0
        self._replace_sent = 0
        self._errors_sent = 0
        self._acks_sent = 0
        network.register(name, region, self.on_message)

    # ------------------------------------------------------------------ metrics

    @property
    def kmax(self) -> int:
        return self._kmax

    @property
    def committed_txns(self) -> int:
        return self._committed_txns

    @property
    def aborted_txns(self) -> int:
        return self._aborted_txns

    @property
    def ignored_verify_messages(self) -> int:
        return self._ignored_verify

    @property
    def replace_messages_sent(self) -> int:
        return self._replace_sent

    @property
    def error_messages_sent(self) -> int:
        return self._errors_sent

    @property
    def ack_messages_sent(self) -> int:
        return self._acks_sent

    @property
    def throughput_recorder(self) -> ThroughputRecorder:
        return self._throughput

    @property
    def validated_sequence_numbers(self) -> Set[int]:
        return set(self._validated)

    # ------------------------------------------------------------------ dispatch

    def on_message(self, message, sender: str) -> None:
        if isinstance(message, VerifyMsg):
            cost = self._costs.ds_verify + self._verify_processing_cost
            self.process(cost, self._handle_verify, message, sender)
        elif isinstance(message, ClientRequestMsg):
            self.process(self._costs.ds_verify, self._handle_client_request, message, sender)

    # ------------------------------------------------------------------ VERIFY path

    def _handle_verify(self, message: VerifyMsg, sender: str) -> None:
        if message.executor != sender or message.signature is None:
            return
        # The canonical form ignores the signature, so the digest memoised at
        # signing time is reused here — no re-serialisation of the batch.
        # The verification *outcome* is memoised per message instance as
        # well (like commit certificates already do): duplicate deliveries
        # and verify-flooding attacks re-send the same object, and validity
        # is a pure function of the deployment's shared key store.
        valid = message.__dict__.get("_sig_valid")
        if valid is None:
            valid = self._signer.verify(message, message.signature)
            object.__setattr__(message, "_sig_valid", valid)
        else:
            PERF.verify_signature_cache_hits += 1
        if not valid:
            return
        seq = message.seq
        if seq in self._validated:
            self._ignored_verify += 1
            return
        state = self._seq_state.setdefault(seq, _SeqState())
        if state.matched is not None or state.abort_tagged:
            # Flooding mitigation: once matched, further VERIFYs are ignored.
            self._ignored_verify += 1
            return
        if sender in state.distinct_executors:
            self._ignored_verify += 1
            return
        state.distinct_executors.add(sender)
        if state.representative is None:
            state.representative = message
            if self._obs is not None:
                self._obs.begin_span("verify", seq, self.now, self.name)
            # Map this batch's requests once per sequence number; further
            # VERIFYs for the same seq carry the same (shared) batch.
            request_to_seq = self._request_to_seq
            for txn in message.batch.transactions:
                request_to_seq.setdefault(txn.request_id, seq)
        if state.timer is None:
            state.timer = self.set_timer(self._quorum_timeout, self._on_quorum_timeout, seq)
        if self._votes.add(message.match_key, sender):
            state.matched = message
            if state.timer is not None:
                state.timer.cancel()
                state.timer = None
            self._trace("verifier.matched", seq=seq, executors=len(state.distinct_executors))
            self._try_validate()

    def _try_validate(self) -> None:
        """Validate requests strictly in sequence order (Lines 24–27)."""
        while True:
            state = self._seq_state.get(self._kmax)
            if state is None:
                return
            if state.abort_tagged:
                self._abort_sequence(self._kmax, state)
                continue
            if state.matched is None:
                return
            self._validate_sequence(self._kmax, state.matched)

    def _validate_sequence(self, seq: int, message: VerifyMsg) -> None:
        committed_ids: List[str] = []
        aborted_ids: List[str] = []
        write_keys = 0
        # The unit of concurrency control is the whole batch: every transaction
        # is validated against the storage state *before* this sequence number
        # is applied (executors executed the batch against that same state), so
        # transactions inside one batch never abort each other.
        #
        # Incremental validation: instead of snapshotting the batch's key
        # versions from the store per sequence number, the check probes the
        # live version map — seeded once per key, bumped alongside every
        # write this verifier applies — so the per-batch cost is O(touched
        # keys) dict probes, all in C set comparisons.
        store = self._store
        result = message.result
        live = self._live_versions
        if store.mutation_count != self._live_mutations:
            # The store changed outside this verifier's own commits: drop
            # the map and reseed lazily from the store's current state.
            live.clear()
            self._live_mutations = store.mutation_count
        pending_writes: List[Dict[str, str]] = []
        observed_token = result.__dict__.get("_observed_token", -1)
        if (
            observed_token >= 0
            and store.keys_changed_since(observed_token, message.batch.keys) == 0
        ):
            # Freshness fast path: an *honestly produced* result (only those
            # carry the token hint — byzantine corruption builds new result
            # objects without it) observed a store state whose batch keys
            # provably have not changed since, so every reported read
            # version matches by construction and the whole batch commits
            # without a probe.
            for txn_result in result.txn_results:
                pending_writes.append(txn_result.writes)
                committed_ids.append(txn_result.txn_id)
                write_keys += len(txn_result.writes)
        else:
            # Seed only the batch keys the map has never seen; keys already
            # written or validated before cost a C membership test each.
            missing = [key for key in message.batch.sorted_keys if key not in live]
            if missing:
                live.update(store.current_versions(missing))
            live_items = live.items()
            batch_keys = message.batch.keys
            for txn_result in result.txn_results:
                read_versions = txn_result.read_versions
                # dict-view comparisons run set-wise in C: every reported
                # (key, version) pair must match the live map, and the
                # reported keys must lie inside the batch's key set — a
                # fabricated version for a key outside the batch fails the
                # second check and aborts, exactly as it fell outside the
                # old per-batch snapshot.
                if (
                    read_versions.items() <= live_items
                    and read_versions.keys() <= batch_keys
                ):
                    pending_writes.append(txn_result.writes)
                    committed_ids.append(txn_result.txn_id)
                    write_keys += len(txn_result.writes)
                else:
                    aborted_ids.append(txn_result.txn_id)
        # Mirror the store's version bumps for every *seeded* key: a key
        # written by several transactions bumps once per write, matching
        # apply_write_sets exactly; keys the map never seeded (fast-path
        # batches, fabricated byzantine writes) simply stay unseeded.
        for writes in pending_writes:
            for key in writes:
                version = live.get(key)
                if version is not None:
                    live[key] = version + 1
        store.apply_write_sets(pending_writes)
        self._live_mutations = store.mutation_count
        self._committed_txns += len(committed_ids)
        self._aborted_txns += len(aborted_ids)
        self._throughput.record_commit(self.now, len(committed_ids))
        if aborted_ids:
            self._throughput.record_abort(self.now, len(aborted_ids))
        self._trace(
            "verifier.validated",
            seq=seq,
            committed=len(committed_ids),
            aborted=len(aborted_ids),
        )

        # Reply per client request; the grouping is memoised on the batch.
        # With no aborts (the common case) every grouped transaction
        # committed, so the groups are the outcome verbatim.
        if aborted_ids:
            committed_set = set(committed_ids)
            aborted_set = set(aborted_ids)
            outcomes = [
                (
                    origin,
                    request_id,
                    tuple(t for t in txn_ids if t in committed_set),
                    tuple(t for t in txn_ids if t in aborted_set),
                )
                for (origin, request_id), txn_ids in message.batch.request_groups
            ]
        else:
            outcomes = [
                (origin, request_id, txn_ids, ())
                for (origin, request_id), txn_ids in message.batch.request_groups
            ]
        for origin, request_id, committed, aborted in outcomes:
            response = ResponseMsg(
                request_id=request_id,
                seq=seq,
                digest=message.digest,
                committed_txn_ids=committed,
                aborted_txn_ids=aborted,
            )
            self._responses_sent.setdefault(request_id, []).append((origin, response))
            if origin:
                self._network.send(self.name, origin, response, response.size_bytes)
            self._resolve_pending(("request", request_id))

        # Notify the shim that this sequence number is verified (the paper sends
        # the RESPONSE to the primary; we notify every shim node so conflict
        # planners and a future new primary stay in sync).
        notice = ResponseMsg(request_id="", seq=seq, digest=message.digest)
        for node in self._shim_nodes:
            self._network.send(self.name, node, notice, notice.size_bytes)

        self._finish_sequence(seq)

    def _abort_sequence(self, seq: int, state: _SeqState) -> None:
        """Abort every transaction of an un-matchable sequence number."""
        message = state.representative
        aborted = 0
        if message is not None:
            per_request: Dict[Tuple[str, str], List[str]] = {}
            for txn in message.batch.transactions:
                per_request.setdefault((txn.origin, txn.request_id), []).append(txn.txn_id)
            for (origin, request_id), txn_ids in per_request.items():
                abort = AbortMsg(request_id=request_id, seq=seq, txn_ids=tuple(txn_ids))
                self._responses_sent.setdefault(request_id, []).append((origin, abort))
                if origin:
                    self._network.send(self.name, origin, abort, abort.size_bytes)
                aborted += len(txn_ids)
                self._resolve_pending(("request", request_id))
        self._aborted_txns += aborted
        if aborted:
            self._throughput.record_abort(self.now, aborted)
        self._trace("verifier.aborted_sequence", seq=seq, txns=aborted)
        self._finish_sequence(seq)

    def _finish_sequence(self, seq: int) -> None:
        if self._obs is not None:
            self._obs.end_span("verify", seq, self.now)
            self._obs.begin_span("commit", seq, self.now, self.name)
        self._validated.add(seq)
        state = self._seq_state.get(seq)
        if state is not None and state.timer is not None:
            state.timer.cancel()
            state.timer = None
        self._resolve_pending(("seq", seq))
        self._kmax = seq + 1

    # ------------------------------------------------------------------ abort detection

    def _on_quorum_timeout(self, seq: int) -> None:
        """Verifier abort detection for conflicting transactions (Section VI-B)."""
        state = self._seq_state.get(seq)
        if state is None or state.matched is not None or seq in self._validated:
            return
        state.timer = None
        received = len(state.distinct_executors)
        if received < 2 * self._executor_faults + 1:
            # Too few executors even reported: conservatively blame the primary.
            # The timer is re-armed only when a new VERIFY arrives for this
            # sequence number (fresh evidence), not unconditionally, so a run
            # always terminates once the network drains.
            self._broadcast_replace(ReplaceMsg(seq=seq, reason="missing-verify-quorum"))
            self._trace("verifier.blame_primary", seq=seq, received=received)
        else:
            # Enough executors answered but their results conflict: abort.
            state.abort_tagged = True
            self._trace("verifier.abort_tagged", seq=seq, received=received)
            self._try_validate()

    # ------------------------------------------------------------------ client retransmissions

    def _handle_client_request(self, request: ClientRequestMsg, sender: str) -> None:
        """Verifier action on receiving a client request (Figure 4, Lines 6–14)."""
        request_id = request.request_id
        cached = self._responses_sent.get(request_id)
        if cached:
            for origin, response in cached:
                target = origin or sender
                self._network.send(self.name, target, response, response.size_bytes)
            return
        seq = self._request_to_seq.get(request_id)
        if seq is None:
            # Never saw any VERIFY for this request: tell the shim it is missing.
            self._errors_sent += 1
            self._pending_errors[("request", request_id)] = True
            error = ErrorMsg(request=request)
            for node in self._shim_nodes:
                self._network.send(self.name, node, error, error.size_bytes)
            self._trace("verifier.error_missing_request", request_id=request_id)
            return
        state = self._seq_state.get(seq)
        if state is not None and (state.matched is not None or state.abort_tagged):
            # The request is matched but stuck behind k_max: report the gap.
            self._errors_sent += 1
            self._pending_errors[("seq", self._kmax)] = True
            error = ErrorMsg(missing_seq=self._kmax)
            for node in self._shim_nodes:
                self._network.send(self.name, node, error, error.size_bytes)
            self._trace("verifier.error_kmax", kmax=self._kmax, request_id=request_id)
        else:
            # We saw VERIFY messages but no f_E+1 matching quorum: blame the primary.
            self._broadcast_replace(ReplaceMsg(request_id=request_id, seq=seq))
            self._trace("verifier.replace_for_request", request_id=request_id, seq=seq)

    def _broadcast_replace(self, message: ReplaceMsg) -> None:
        self._replace_sent += 1
        for node in self._shim_nodes:
            self._network.send(self.name, node, message, message.size_bytes)

    def _resolve_pending(self, key: Tuple[str, object]) -> None:
        if not self._pending_errors.pop(key, None):
            return
        kind, value = key
        ack = AckMsg(
            missing_seq=value if kind == "seq" else None,
            request_id=value if kind == "request" else None,
        )
        self._acks_sent += 1
        for node in self._shim_nodes:
            self._network.send(self.name, node, ack, ack.size_bytes)

    def _trace(self, category: str, **details) -> None:
        if self._obs is not None:
            self._obs.record(self.now, category, self.name, **details)
