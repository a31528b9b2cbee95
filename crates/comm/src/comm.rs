//! MPI-style communicators, generic over the transport backend.
//!
//! Every rank of a simulated cluster holds a [`Communicator`] handle per
//! process group (world, grid row, grid column, fiber, ...). Collectives
//! are **bulk-synchronous**: all members must call the same collectives in
//! the same order, exactly as the paper's NCCL-backed implementation
//! requires. Payloads move through a `CommLink` — `Arc` pointer copies
//! on the shared-memory backend, framed bytes over Unix sockets on the
//! multi-process backend (see [`crate::transport`]) — while all *costs*
//! are charged through the α–β model of [`crate::cost::CostModel`] onto
//! each rank's [`crate::timeline::Timeline`].
//!
//! Every collective is one body: it deposits its payload at issue and
//! hands a finish closure to a [`PendingOp`], whose
//! [`PendingOp::wait`] collects every member's deposit, runs the
//! closure and settles its cost. The blocking forms are that op waited
//! at once. Wire precision (DESIGN.md §14) is a deposit codec chosen
//! once per collective: it encodes a dense `Mat` exactly or as a
//! [`PackedMat`] at deposit and widens it back on receipt, so no
//! collective has a separate packed body.
//!
//! Collective time semantics (BSP): on completion every participant's
//! clock becomes `max(entry clocks) + modeled collective cost` — less
//! any part of the cost hidden behind compute charged between issue and
//! wait — and the bandwidth-term word count is recorded under the
//! caller-supplied category ([`Cat::DenseComm`] or [`Cat::SparseComm`]).
//! Entry clocks, fingerprint verification, and deterministic
//! member-order reductions all live here, above the transport trait,
//! which is why results are bit-identical across backends.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::cost::{Cat, CommWords, CostModel};
use crate::diag::Diagnostics;
use crate::frame::{FrameError, PackedMat, Precision, Reader, Wire};
use crate::timeline::Meter;
use crate::transport::{CollectError, CommInner, CommLink, RxPayload, TxDeposit, TxPayload};
use cagnet_check::fingerprint::{self, CollectiveKind, Fingerprint, Shape};
use cagnet_check::waitgraph::{deadlock_report, HistoryEntry, SlotId, WaitSlot};
use cagnet_check::CheckMode;
use cagnet_dense::Mat;
use cagnet_sparse::partition::block_range;

/// How a collective's payloads cross the wire (DESIGN.md §14). Chosen
/// once per collective by [`Communicator::codec`] from what every
/// member knows alike, so all members encode and decode the same way.
#[derive(Clone, Copy)]
enum Codec {
    /// Payloads travel as themselves: an `Arc` hand-off in shared
    /// memory, their exact bytes over sockets.
    Exact,
    /// Each `Mat` is rounded once by its sender into a [`PackedMat`]
    /// and widened back to `f64` on receipt.
    Packed(Precision),
}

impl Codec {
    /// Payload dtype recorded in CheckMode fingerprints.
    fn dtype<T>(self) -> &'static str {
        match self {
            Codec::Exact => std::any::type_name::<T>(),
            Codec::Packed(p) => p.packed_dtype(),
        }
    }

    /// Metering category of a collective requested under `cat`: packed
    /// traffic is metered under its precision's own category.
    fn cat(self, cat: Cat) -> Cat {
        match self {
            Codec::Exact => cat,
            Codec::Packed(p) => p.dense_cat(),
        }
    }

    /// One member's deposit for `data`, plus the words it occupies on
    /// the wire.
    fn encode<T: Any + Send + Sync + CommWords + Wire>(self, data: Arc<T>) -> (TxPayload, u64) {
        match self {
            Codec::Exact => {
                let words = data.comm_words();
                (TxPayload::of(data), words)
            }
            Codec::Packed(p) => {
                let packed = Arc::new(PackedMat::pack(&arc_as_mat(data), p));
                let words = packed.comm_words();
                (TxPayload::of(packed), words)
            }
        }
    }

    /// A received deposit back as `T`, plus the words that crossed the
    /// wire.
    fn decode<T: Any + Send + Sync + CommWords + Wire>(self, item: &RxPayload) -> (Arc<T>, u64) {
        match self {
            Codec::Exact => {
                let data = item.extract::<T>();
                let words = data.comm_words();
                (data, words)
            }
            Codec::Packed(_) => {
                let packed = item.extract::<PackedMat>();
                (arc_from_mat(Arc::new(packed.widen())), packed.comm_words())
            }
        }
    }

    /// A `Mat` block as it rides inside a larger deposit.
    fn encode_mat(self, m: Arc<Mat>) -> WireMat {
        match self {
            Codec::Exact => WireMat::Exact(m),
            Codec::Packed(p) => WireMat::Packed(PackedMat::pack(&m, p)),
        }
    }
}

/// `Arc<T> -> Arc<Mat>` once [`Communicator::codec`] has proven
/// `T == Mat` by `TypeId`.
fn arc_as_mat<T: Any + Send + Sync>(data: Arc<T>) -> Arc<Mat> {
    let any: Arc<dyn Any + Send + Sync> = data;
    match any.downcast::<Mat>() {
        Ok(m) => m,
        Err(_) => unreachable!("packed codec proved T == Mat by TypeId"),
    }
}

/// The inverse coercion of [`arc_as_mat`].
fn arc_from_mat<T: Any + Send + Sync>(mat: Arc<Mat>) -> Arc<T> {
    let any: Arc<dyn Any + Send + Sync> = mat;
    match any.downcast::<T>() {
        Ok(t) => t,
        Err(_) => unreachable!("packed codec proved T == Mat by TypeId"),
    }
}

/// A `Mat` encoded by a [`Codec`].
enum WireMat {
    Exact(Arc<Mat>),
    Packed(PackedMat),
}

impl WireMat {
    fn shape(&self) -> (usize, usize) {
        match self {
            WireMat::Exact(m) => m.shape(),
            WireMat::Packed(p) => p.shape(),
        }
    }

    /// Wire words one row occupies. Rows are framed individually, so a
    /// packed row rounds up to whole words.
    fn row_words(&self) -> u64 {
        match self {
            WireMat::Exact(m) => m.cols() as u64,
            WireMat::Packed(p) => {
                (p.shape().1 * p.precision().bytes_per_value()).div_ceil(8) as u64
            }
        }
    }

    /// The listed rows as `f64`, in order; only those rows are
    /// converted.
    fn rows(&self, rows: &[usize]) -> Mat {
        match self {
            WireMat::Exact(m) => m.select_rows(rows),
            WireMat::Packed(p) => p.widen_rows(rows),
        }
    }
}

/// One participant's deposit in a [`Communicator::gather_rows`]
/// rendezvous: the row indices it requests from the root, plus — at the
/// root only — the shared block in the collective's codec.
struct GatherRowsDeposit {
    needed: Vec<usize>,
    data: Option<WireMat>,
}

impl Wire for GatherRowsDeposit {
    // Tags 0 and 1 match the `Option<Arc<Mat>>` encoding, so an exact
    // deposit is byte-identical to its plain fields; tag 2 marks a
    // packed block.
    fn put(&self, out: &mut Vec<u8>) {
        self.needed.put(out);
        match &self.data {
            None => out.push(0),
            Some(WireMat::Exact(m)) => {
                out.push(1);
                m.put(out);
            }
            Some(WireMat::Packed(p)) => {
                out.push(2);
                p.put(out);
            }
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        let needed = Vec::take(r)?;
        let data = match u8::take(r)? {
            0 => None,
            1 => Some(WireMat::Exact(Arc::take(r)?)),
            2 => Some(WireMat::Packed(PackedMat::take(r)?)),
            _ => return Err(FrameError::Malformed("gather_rows block tag out of range")),
        };
        Ok(GatherRowsDeposit { needed, data })
    }
}

/// Result of a [`Communicator::gather_rows`] /
/// [`Communicator::igather_rows`].
///
/// Receivers hold the **compact** form: a `k × f` matrix whose row `i`
/// is row `needed[i]` of the root's block (`rows() == Some(needed)`), so
/// receiver-side memory is `O(k·f)`, never `O(n·f)`. The root — and
/// every rank at `P = 1` — gets its own full block back without a copy
/// (`rows() == None`).
#[derive(Clone)]
pub struct GatheredRows {
    mat: Arc<Mat>,
    rows: Option<Arc<Vec<usize>>>,
}

impl GatheredRows {
    /// Wrap a rank-resident full block with the identity row map — the
    /// same payload the root of a [`Communicator::gather_rows`] receives.
    /// Cached-mode serve epochs use this to compact the rank's own fresh
    /// block through the exact code path of a root-side gather result.
    pub fn full(mat: Arc<Mat>) -> Self {
        GatheredRows { mat, rows: None }
    }

    /// The gathered payload: compact `k × f` at receivers, the root's
    /// full block at the root and at `P = 1`.
    pub fn mat(&self) -> &Arc<Mat> {
        &self.mat
    }

    /// Row indices of the root block that [`GatheredRows::mat`]'s rows
    /// correspond to, in order; `None` means the identity map (the full
    /// block).
    pub fn rows(&self) -> Option<&[usize]> {
        self.rows.as_deref().map(Vec::as_slice)
    }

    /// The compact `needed.len() × f` operand for an SpMM against a
    /// column-compacted sparse panel ([`cagnet_sparse::Csr::compact_cols`]).
    /// Receivers already hold it (no copy); the root and `P = 1` extract
    /// their needed rows locally — unmetered local work on a block the
    /// rank already owns, like any slice of its own data. `needed` must
    /// be the same list passed to the collective.
    pub fn compact(&self, needed: &[usize]) -> Arc<Mat> {
        match &self.rows {
            Some(rows) => {
                debug_assert_eq!(
                    rows.as_slice(),
                    needed,
                    "gather_rows: compact() called with a different needed set"
                );
                self.mat.clone()
            }
            None => Arc::new(self.mat.select_rows(needed)),
        }
    }
}

/// Global registry: creates communicator state on first touch so that
/// `split` needs no out-of-band coordination.
pub struct Registry {
    comms: Mutex<HashMap<(u64, u64, u64), Arc<CommInner>>>,
    next_id: AtomicU64,
    /// How long a rank waits at a collective before declaring the program
    /// deadlocked (collective order mismatch across ranks).
    pub timeout: Duration,
    /// Whether collective fingerprint verification is enabled.
    pub(crate) check: CheckMode,
    /// Wire precision every rank's communicators start with.
    pub(crate) precision: Precision,
    /// Run-wide rank states, histories, first-panic record, abort flag.
    pub(crate) diag: Diagnostics,
}

impl Registry {
    /// New registry; `timeout` bounds collective waits. Verification is
    /// off; see [`Registry::with_check`].
    pub fn new(timeout: Duration) -> Self {
        Registry {
            comms: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            timeout,
            check: CheckMode::Off,
            precision: Precision::F64,
            diag: Diagnostics::default(),
        }
    }

    /// Enable or disable collective fingerprint verification.
    pub fn with_check(mut self, check: CheckMode) -> Self {
        self.check = check;
        self
    }

    /// Select the wire precision of dense collectives (DESIGN.md §14).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    pub(crate) fn fresh_world(&self, size: usize) -> Arc<CommInner> {
        Arc::new(CommInner::new(
            self.next_id.fetch_add(1, Ordering::Relaxed),
            size,
        ))
    }

    pub(crate) fn get_or_create(&self, key: (u64, u64, u64), size: usize) -> Arc<CommInner> {
        // The table stays consistent across a poisoning panic (plain
        // entry/insert), so recover the guard rather than cascading.
        let mut comms = self.comms.lock().unwrap_or_else(PoisonError::into_inner);
        comms
            .entry(key)
            .or_insert_with(|| {
                Arc::new(CommInner::new(
                    self.next_id.fetch_add(1, Ordering::Relaxed),
                    size,
                ))
            })
            .clone()
    }
}

/// A per-thread handle to one process group.
///
/// Cloning is cheap; the handle is deliberately `!Send` (it carries the
/// rank-local meter) — create communicators inside the rank closure.
pub struct Communicator {
    link: Arc<dyn CommLink>,
    registry: Arc<Registry>,
    /// World ranks of the members, ascending.
    members: Arc<Vec<usize>>,
    my_idx: usize,
    meter: Rc<RefCell<Meter>>,
    seq: Cell<u64>,
    /// Wire precision of dense-matrix collectives on this handle.
    /// Per-handle and mutable so fault-injection tests can desynchronize
    /// one rank; normal runs inherit the registry-wide setting.
    precision: Cell<Precision>,
}

impl Communicator {
    pub(crate) fn new_world(
        registry: Arc<Registry>,
        link: Arc<dyn CommLink>,
        size: usize,
        rank: usize,
        meter: Rc<RefCell<Meter>>,
    ) -> Self {
        let precision = Cell::new(registry.precision);
        Communicator {
            link,
            registry,
            members: Arc::new((0..size).collect()),
            my_idx: rank,
            meter,
            seq: Cell::new(0),
            precision,
        }
    }

    /// Number of member ranks.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// This rank's index within the communicator (0-based, dense).
    pub fn my_idx(&self) -> usize {
        self.my_idx
    }

    /// World ranks of all members.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The cost model used for charging.
    pub fn model(&self) -> Arc<CostModel> {
        self.meter.borrow().model.clone()
    }

    /// Wire precision of this handle's dense collectives.
    pub fn precision(&self) -> Precision {
        self.precision.get()
    }

    /// Override the wire precision on this handle. Every member of the
    /// communicator must make the same change before the next dense
    /// collective — under `CheckMode` a mismatched pair is caught by the
    /// fingerprint dtype cross-check (the override exists for exactly
    /// that fault-injection test, and for trainers that want a lower
    /// precision on one sub-communicator only).
    pub fn set_precision(&self, precision: Precision) {
        self.precision.set(precision);
    }

    /// The codec of a collective carrying `T` metered under `cat`:
    /// packing engages exactly when the handle's precision is narrow,
    /// the payload is a [`Mat`], the traffic is dense-matrix
    /// communication ([`Cat::DenseComm`] — weights and control payloads
    /// under other categories stay exact), and the group actually
    /// crosses the wire (`size > 1`). Decidable on every rank without
    /// payload inspection, so all members pick the same codec.
    fn codec<T: Any>(&self, cat: Cat) -> Codec {
        let p = self.precision.get();
        if p != Precision::F64
            && cat == Cat::DenseComm
            && self.size() > 1
            && std::any::TypeId::of::<T>() == std::any::TypeId::of::<Mat>()
        {
            Codec::Packed(p)
        } else {
            Codec::Exact
        }
    }

    fn next_seq(&self) -> u64 {
        let s = self.seq.get();
        self.seq.set(s + 1);
        s
    }

    /// This rank's world rank.
    fn world_rank(&self) -> usize {
        self.members[self.my_idx]
    }

    /// Build this collective's fingerprint when verification is on.
    /// `root`/`partner` are member indices and are translated to world
    /// ranks so diagnostics stay meaningful across sub-communicators.
    fn fingerprint(
        &self,
        kind: CollectiveKind,
        root: Option<usize>,
        partner: Option<usize>,
        dtype: &'static str,
        shape: Shape,
    ) -> Option<Fingerprint> {
        self.registry.check.is_on().then(|| Fingerprint {
            kind,
            root: root.map(|i| self.members[i]),
            partner: partner.map(|i| self.members[i]),
            dtype,
            shape,
        })
    }

    /// Abort this rank because the transport reported a failure. Each
    /// [`CollectError`] variant maps onto the exact panic the
    /// shared-memory backend has always raised — abort cascades name the
    /// rank/collective that failed first, rendezvous timeouts carry the
    /// wait-for-graph deadlock report — so failures read identically on
    /// both backends.
    fn link_failure(&self, kind: CollectiveKind, seq: u64, err: CollectError) -> ! {
        let slot_id = SlotId {
            comm: self.link.id(),
            seq,
        };
        let my_world = self.world_rank();
        match err {
            CollectError::Abort(why) => {
                panic!("rank {my_world} aborting {kind} at {slot_id}: {why}")
            }
            CollectError::Timeout { arrived } => {
                let diag = &self.registry.diag;
                let report = deadlock_report(&diag.snapshot(), &diag.histories());
                panic!(
                    "collective deadlock: comm {} seq {seq}: only {arrived}/{} ranks \
                     arrived within {:?} — ranks are calling collectives in different \
                     orders\n{report}",
                    self.link.id(),
                    self.size(),
                    self.registry.timeout
                );
            }
            CollectError::Transport(detail) => {
                // Prefer the recorded first failure (names the rank and
                // collective that panicked first) over the raw transport
                // detail, matching the old poisoned-mutex path.
                let why = self.registry.diag.first_panic_render().unwrap_or(detail);
                panic!("rank {my_world} aborting {kind} at {slot_id}: {why}")
            }
        }
    }

    /// Issue one collective — the one path by which every collective
    /// deposits and waits: deposit `payload` (with this rank's fingerprint when checking)
    /// and return the op whose [`PendingOp::wait`] runs `finish` over
    /// all members' deposits and settles the cost and words it returns
    /// under `cat`. `cat` is `None` only for [`Communicator::split`],
    /// which charges nothing. Fingerprints ride along with the deposit,
    /// so checked mode adds no synchronization and no modeled cost.
    ///
    /// A single-rank group has no rendezvous: no sequence number or
    /// history entry is consumed, and `finish` runs on the rank's own
    /// deposit at once.
    fn issue<'c, T>(
        &'c self,
        kind: CollectiveKind,
        cat: Option<Cat>,
        fp: Option<Fingerprint>,
        payload: TxPayload,
        finish: Finisher<'c, T>,
    ) -> PendingOp<'c, T> {
        if self.size() == 1 {
            let entry = self.meter.borrow().timeline.clock();
            let (out, cost, words) = finish(self, vec![RxPayload::Local(payload.local)]);
            if let Some(cat) = cat {
                self.settle_pending(entry, cat, cost, words);
            }
            return PendingOp::ready(self, kind, out);
        }
        let seq = self.issue_raw(kind, fp, payload);
        PendingOp::in_flight(self, kind, cat, seq, finish)
    }

    /// Issue half of a collective: record the entry in this rank's
    /// history, deposit its payload and return the op's sequence number
    /// — without registering a wait or blocking. The deposit always
    /// precedes the wait registration: the socket hub serves a `WAIT`
    /// only for a rendezvous the waiter has deposited into, and a rank
    /// whose deposit is in flight stays `Running`, which the deadlock
    /// watchdog treats as progress.
    fn issue_raw(&self, kind: CollectiveKind, fp: Option<Fingerprint>, payload: TxPayload) -> u64 {
        let entry = self.meter.borrow().timeline.clock();
        let seq = self.next_seq();
        self.registry.diag.record_history(
            self.world_rank(),
            HistoryEntry {
                slot: SlotId {
                    comm: self.link.id(),
                    seq,
                },
                kind,
                clock: entry,
            },
        );
        let dep = TxDeposit { entry, fp, payload };
        if let Err(e) = self
            .link
            .deposit(kind, seq, self.my_idx, &self.members, dep)
        {
            self.link_failure(kind, seq, e);
        }
        seq
    }

    /// Wait half of a collective: register the wait (for deadlock
    /// diagnostics), block until every member's deposit for `seq` is
    /// present, and consume the rendezvous: returns all payloads in
    /// member order plus the max entry clock, and verifies fingerprints
    /// when checking is on.
    ///
    /// Fingerprint verification runs here — above the transport — so
    /// CheckMode gives the identical guarantee whether the fingerprints
    /// arrived through shared memory or piggybacked on socket frames.
    fn complete_raw(&self, kind: CollectiveKind, seq: u64) -> (Vec<RxPayload>, f64) {
        let size = self.size();
        let slot_id = SlotId {
            comm: self.link.id(),
            seq,
        };
        let diag = &self.registry.diag;
        let _wait = diag.enter_wait(
            self.world_rank(),
            WaitSlot {
                slot: slot_id,
                kind,
                members: self.members.as_ref().clone(),
            },
        );
        let deposits = match self.link.collect(
            kind,
            seq,
            self.my_idx,
            &self.members,
            &|| diag.abort_message(),
            self.registry.timeout,
        ) {
            Ok(d) => d,
            Err(e) => self.link_failure(kind, seq, e),
        };
        debug_assert_eq!(
            deposits.len(),
            size,
            "collect returned a partial rendezvous"
        );
        let mut out = Vec::with_capacity(size);
        let mut fps = Vec::with_capacity(size);
        let mut tmax = f64::NEG_INFINITY;
        for (idx, d) in deposits.into_iter().enumerate() {
            tmax = tmax.max(d.entry);
            if let Some(f) = d.fp {
                fps.push((self.members[idx], f));
            }
            out.push(d.payload);
        }
        if fps.len() == size {
            if let Err(mismatch) = fingerprint::verify(&fps) {
                panic!(
                    "collective check failed at {slot_id}:\n{}",
                    mismatch.message
                );
            }
        }
        (out, tmax)
    }

    fn downcast<T: Any + Send + Sync + Wire>(p: RxPayload) -> Arc<T> {
        p.extract()
    }

    /// Settle a completed collective: its α–β `cost` occupies the
    /// network lane from `ready` (the group's max entry clock), so only
    /// the remainder not hidden behind compute advances the clock and an
    /// op waited at once charges exactly `cost`; plus the traffic
    /// bookkeeping, identical with overlap on and off.
    fn settle_pending(&self, ready: f64, cat: Cat, cost: f64, words: u64) {
        let mut m = self.meter.borrow_mut();
        m.timeline.settle_pending(ready, cat, cost);
        if words > 0 || cost > 0.0 {
            m.timeline.record_traffic(cat, words);
        }
    }

    /// Barrier across the group.
    pub fn barrier(&self) {
        let fp = self.fingerprint(CollectiveKind::Barrier, None, None, "()", Shape::Words(0));
        self.issue(
            CollectiveKind::Barrier,
            Some(Cat::Misc),
            fp,
            TxPayload::unit(),
            Box::new(|comm, _| ((), comm.model().barrier_time(comm.size()), 0)),
        )
        .wait()
    }

    /// Broadcast from member `root_idx`. The root passes `Some(data)`;
    /// everyone receives the root's payload.
    ///
    /// Charged `α + β·w` (pipelined) or `α·lg p + β·w` per the model.
    pub fn bcast<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        root_idx: usize,
        data: Option<T>,
        cat: Cat,
    ) -> Arc<T> {
        self.bcast_shared(root_idx, data.map(Arc::new), cat)
    }

    /// Broadcast an already-shared payload: like [`Communicator::bcast`],
    /// but the root hands over an `Arc` instead of an owned value, so a
    /// block a trainer keeps resident (its own `H` slice) rides into the
    /// rendezvous without being copied. Fingerprinting and charging are
    /// identical to `bcast`: it is [`Communicator::ibcast_shared`] waited
    /// at once.
    pub fn bcast_shared<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        root_idx: usize,
        data: Option<Arc<T>>,
        cat: Cat,
    ) -> Arc<T> {
        self.ibcast_shared(root_idx, data, cat).wait()
    }

    /// Sparsity-aware row broadcast: member `root_idx` holds a dense row
    /// block, and every other member receives **only** the rows named in
    /// its `needed` list (sorted, distinct row indices into the root's
    /// block), as a compact `k × f` [`GatheredRows`] in request order —
    /// receiver-side memory is `O(k·f)`. An SpMM of a column-compacted
    /// sparse panel against the compact result is bit-identical to the
    /// full-block product, because the compaction is a monotone
    /// renumbering. The root gets its own block back without a copy.
    ///
    /// `expect` is each receiver's declaration of the root block's
    /// dimensions, cross-checked against the root's deposit both at
    /// runtime and — under `CheckMode` — through the collective
    /// fingerprint (`Shape::Dims`), so a root broadcasting a
    /// wrong-shaped panel mid-SUMMA is caught and attributed instead of
    /// silently mis-slicing. Pass `None` only when the receiver
    /// genuinely cannot know the dims (fingerprints then use the
    /// `Shape::Unknown` wildcard).
    ///
    /// Cost accounting (see DESIGN.md §9): every transferred word is
    /// recorded at exactly one rank. A receiver requesting `k` rows of
    /// width `f` pays `2α + β·k·(f+1)` and records `k·(f+1)` words (`k·f`
    /// row data plus `k` request-index words). The root pays the serving
    /// time `α·(P−1) + β·Σ_r k_r·(f+1)` and records no words. Compare a
    /// dense [`Communicator::bcast`], where all `P` ranks record the full
    /// `w` — on low-degree graphs `k ≪ rows` and this wins by a large
    /// factor; on near-complete graphs the `+1` index words and the
    /// serialized serving term make dense mode cheaper.
    pub fn gather_rows(
        &self,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> GatheredRows {
        self.igather_rows(root_idx, data, needed, expect, cat)
            .wait()
    }

    /// Fingerprint shape for `gather_rows`/`igather_rows`: the root
    /// declares its block's dims; receivers declare the dims they expect
    /// (their request sizes legitimately differ, so `needed.len()` never
    /// enters the cross-checked shape).
    fn gather_rows_shape(data: &Option<Arc<Mat>>, expect: Option<(usize, usize)>) -> Shape {
        match (data, expect) {
            (Some(d), _) => Shape::Dims(d.rows(), d.cols()),
            (None, Some((r, c))) => Shape::Dims(r, c),
            (None, None) => Shape::Unknown,
        }
    }

    /// Completion of `gather_rows`/`igather_rows`: pick the root block
    /// out of the deposits, validate the request and the expected dims,
    /// decode only the requested rows, and compute (cost, words) per the
    /// α–β formulas of DESIGN.md §9. `root_block` is the root's own
    /// exact block (`None` at receivers): root-resident data never
    /// crosses the wire, so it is never rounded.
    fn gather_rows_finish(
        &self,
        root_idx: usize,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        root_block: Option<Arc<Mat>>,
        items: Vec<RxPayload>,
    ) -> (GatheredRows, f64, u64) {
        let deposits: Vec<Arc<GatherRowsDeposit>> = items
            .into_iter()
            .map(Self::downcast::<GatherRowsDeposit>)
            .collect();
        let Some(block) = deposits[root_idx].data.as_ref() else {
            panic!("gather_rows: payload missing at declared root — collective misuse")
        };
        let (brows, bcols) = block.shape();
        if let Some((er, ec)) = expect {
            assert_eq!(
                (brows, bcols),
                (er, ec),
                "gather_rows: root block shape differs from the receiver-declared dims"
            );
        }
        let p = self.size();
        let m = self.model();
        // Wire words per requested row: the row itself plus one index word.
        let row_words = block.row_words() + 1;
        if let Some(mat) = root_block {
            let served: u64 = deposits
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != root_idx)
                .map(|(_, d)| d.needed.len() as u64 * row_words)
                .sum();
            let cost = m.alpha * (p - 1) as f64 + m.beta * served as f64;
            return (GatheredRows::full(mat), cost, 0);
        }
        if let Some(&last) = needed.last() {
            assert!(
                last < brows,
                "gather_rows: requested row {last} out of range for {brows}-row block"
            );
        }
        let w = needed.len() as u64 * row_words;
        // Compact: only the k requested rows are decoded and stored —
        // receiver work and allocation are O(k·f) by construction.
        let out = GatheredRows {
            mat: Arc::new(block.rows(needed)),
            rows: Some(Arc::new(needed.to_vec())),
        };
        (out, 2.0 * m.alpha + m.beta * w as f64, w)
    }

    /// Nonblocking [`Communicator::bcast`]: the rendezvous deposit
    /// happens now (so CheckMode fingerprints, sequence alignment, and
    /// determinism are unchanged) and the payload plus α–β charge arrive
    /// at [`PendingOp::wait`]. Fingerprinted as `bcast`: the blocking form
    /// is this op waited at once, so the two spellings are one collective.
    pub fn ibcast<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        root_idx: usize,
        data: Option<T>,
        cat: Cat,
    ) -> PendingOp<'_, Arc<T>> {
        self.ibcast_shared(root_idx, data.map(Arc::new), cat)
    }

    /// Nonblocking [`Communicator::bcast_shared`]: issue now, receive at
    /// [`PendingOp::wait`]. The one body behind every broadcast
    /// spelling; the cost lands on the network lane, so compute charged
    /// between issue and wait hides it (see DESIGN.md §10), and an
    /// immediate wait charges exactly like a blocking collective.
    ///
    /// Under a packed codec the root rounds its matrix once at issue
    /// and **every** rank — the root included — widens the packed
    /// payload at `wait()`, so all members hold bit-identical replicas.
    pub fn ibcast_shared<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        root_idx: usize,
        data: Option<Arc<T>>,
        cat: Cat,
    ) -> PendingOp<'_, Arc<T>> {
        assert!(root_idx < self.size(), "bcast root out of range");
        assert_eq!(
            data.is_some(),
            root_idx == self.my_idx,
            "bcast: exactly the root must supply data"
        );
        if self.size() == 1 {
            let Some(d) = data else {
                unreachable!("single-rank bcast root missing its own data")
            };
            return PendingOp::ready(self, CollectiveKind::Bcast, d);
        }
        let codec = self.codec::<T>(cat);
        // The root declares the payload's wire size; everyone else
        // cannot know it yet and declares a wildcard shape.
        let (payload, shape) = match data {
            Some(d) => {
                let (payload, words) = codec.encode(d);
                (payload, Shape::Words(words))
            }
            None => (TxPayload::unit(), Shape::Unknown),
        };
        let fp = self.fingerprint(
            CollectiveKind::Bcast,
            Some(root_idx),
            None,
            codec.dtype::<T>(),
            shape,
        );
        self.issue(
            CollectiveKind::Bcast,
            Some(codec.cat(cat)),
            fp,
            payload,
            Box::new(move |comm, items| {
                let (out, words) = codec.decode::<T>(&items[root_idx]);
                let cost = comm.model().bcast_time(comm.size(), words);
                (out, cost, words)
            }),
        )
    }

    /// Nonblocking [`Communicator::gather_rows`]: receivers' row requests
    /// and the root's block deposit at issue; compact-row extraction,
    /// dim validation, cost, and word accounting (DESIGN.md §9) happen
    /// at [`PendingOp::wait`]. The blocking form is this op waited at
    /// once.
    pub fn igather_rows(
        &self,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> PendingOp<'_, GatheredRows> {
        self.igather_rows_kind(
            CollectiveKind::GatherRows,
            root_idx,
            data,
            needed,
            expect,
            cat,
        )
    }

    /// Cached-mode refresh epoch variant of
    /// [`Communicator::igather_rows`]: identical exchange, costs, and
    /// words, but fingerprinted as `gather_rows_refresh` so — under
    /// CheckMode — a rank serving its stale cache while a peer refreshes
    /// is reported as a kind mismatch instead of hanging or silently
    /// diverging (DESIGN.md §13).
    pub fn igather_rows_refresh(
        &self,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> PendingOp<'_, GatheredRows> {
        self.igather_rows_kind(
            CollectiveKind::GatherRowsRefresh,
            root_idx,
            data,
            needed,
            expect,
            cat,
        )
    }

    fn igather_rows_kind(
        &self,
        kind: CollectiveKind,
        root_idx: usize,
        data: Option<Arc<Mat>>,
        needed: &[usize],
        expect: Option<(usize, usize)>,
        cat: Cat,
    ) -> PendingOp<'_, GatheredRows> {
        assert!(root_idx < self.size(), "gather_rows root out of range");
        assert_eq!(
            data.is_some(),
            root_idx == self.my_idx,
            "gather_rows: exactly the root must supply data"
        );
        for w in needed.windows(2) {
            assert!(
                w[0] < w[1],
                "gather_rows: needed rows must be sorted and distinct"
            );
        }
        if self.size() == 1 {
            let Some(block) = data else {
                unreachable!("single-rank gather_rows root missing its own data")
            };
            return PendingOp::ready(self, kind, GatheredRows::full(block));
        }
        let codec = self.codec::<Mat>(cat);
        let shape = Self::gather_rows_shape(&data, expect);
        let fp = self.fingerprint(kind, Some(root_idx), None, codec.dtype::<Mat>(), shape);
        let root_block = data.clone();
        let deposit = GatherRowsDeposit {
            needed: needed.to_vec(),
            data: data.map(|m| codec.encode_mat(m)),
        };
        let needed = needed.to_vec();
        self.issue(
            kind,
            Some(codec.cat(cat)),
            fp,
            TxPayload::of(Arc::new(deposit)),
            Box::new(move |comm, items| {
                comm.gather_rows_finish(root_idx, &needed, expect, root_block, items)
            }),
        )
    }

    /// Meter a cache-served stage operand: record the words the skipped
    /// gather would have moved (plus one message) under [`Cat::CacheHit`].
    /// Purely bookkeeping — no rendezvous, no clock movement, and no
    /// effect on `comm_words()`, so the dense-word collapse of cached
    /// training stays honest (DESIGN.md §13).
    pub fn cache_hit(&self, words: u64) {
        self.meter
            .borrow_mut()
            .timeline
            .record_traffic(Cat::CacheHit, words);
    }

    /// Nonblocking [`Communicator::allreduce_mat`]: deposit now, sum (in
    /// member order, deterministic) and charge at [`PendingOp::wait`].
    /// The blocking form is this op waited at once.
    pub fn iallreduce_mat(&self, m: &Mat, cat: Cat) -> PendingOp<'_, Mat> {
        if self.size() == 1 {
            return PendingOp::ready(self, CollectiveKind::AllreduceMat, m.clone());
        }
        let codec = self.codec::<Mat>(cat);
        let fp = self.fingerprint(
            CollectiveKind::AllreduceMat,
            None,
            None,
            codec.dtype::<Mat>(),
            Shape::Dims(m.rows(), m.cols()),
        );
        let (payload, w) = codec.encode(Arc::new(m.clone()));
        self.issue(
            CollectiveKind::AllreduceMat,
            Some(codec.cat(cat)),
            fp,
            payload,
            Box::new(move |comm, items| {
                let mut acc: Option<Mat> = None;
                for item in &items {
                    let (part, _) = codec.decode::<Mat>(item);
                    match &mut acc {
                        None => acc = Some(Arc::unwrap_or_clone(part)),
                        Some(a) => cagnet_dense::ops::add_assign(a, &part),
                    }
                }
                let Some(out) = acc else {
                    unreachable!("iallreduce over an empty communicator")
                };
                let p = comm.size();
                let cost = comm.model().allreduce_time(p, w);
                let words = 2 * w * (p as u64 - 1) / p as u64;
                (out, cost, words)
            }),
        )
    }

    /// All-gather: every member contributes `data`; returns all
    /// contributions in member order.
    pub fn allgather<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        data: T,
        cat: Cat,
    ) -> Vec<Arc<T>> {
        self.allgather_shared(Arc::new(data), cat)
    }

    /// All-gather of an already-shared payload: like
    /// [`Communicator::allgather`], but each member hands over an `Arc`
    /// instead of an owned value, so a block a trainer keeps resident
    /// (its activation slice, its output row block) rides into the
    /// rendezvous without being copied. Fingerprinting and charging are
    /// identical to `allgather`.
    ///
    /// Under a packed codec every member widens **all** contributions —
    /// its own included — so the gathered vector is replicated
    /// bit-identically across ranks.
    pub fn allgather_shared<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        data: Arc<T>,
        cat: Cat,
    ) -> Vec<Arc<T>> {
        let codec = self.codec::<T>(cat);
        // Contribution sizes are legitimately rank-dependent: wildcard.
        let fp = self.fingerprint(
            CollectiveKind::Allgather,
            None,
            None,
            codec.dtype::<T>(),
            Shape::Unknown,
        );
        let (payload, _) = codec.encode(data);
        self.issue(
            CollectiveKind::Allgather,
            Some(codec.cat(cat)),
            fp,
            payload,
            Box::new(move |comm, items| {
                let mut total = 0;
                let out: Vec<Arc<T>> = items
                    .iter()
                    .map(|item| {
                        let (part, words) = codec.decode::<T>(item);
                        total += words;
                        part
                    })
                    .collect();
                let p = comm.size();
                let cost = comm.model().allgather_time(p, total);
                let words = if p > 1 {
                    total * (p as u64 - 1) / p as u64
                } else {
                    0
                };
                (out, cost, words)
            }),
        )
        .wait()
    }

    /// All-reduce (sum) of equally-shaped matrices; every rank returns the
    /// same sum, accumulated in member order (deterministic).
    ///
    /// Under a narrow wire precision (and `cat == DenseComm`), each
    /// contribution is rounded once by its sender and widened back to
    /// `f64` by every receiver; the sum itself is always accumulated in
    /// `f64` member order, so all ranks still return identical bits.
    pub fn allreduce_mat(&self, m: &Mat, cat: Cat) -> Mat {
        self.iallreduce_mat(m, cat).wait()
    }

    /// All-reduce (sum) of scalars.
    pub fn allreduce_scalar(&self, x: f64, cat: Cat) -> f64 {
        let fp = self.fingerprint(
            CollectiveKind::AllreduceScalar,
            None,
            None,
            "f64",
            Shape::Words(1),
        );
        self.issue(
            CollectiveKind::AllreduceScalar,
            Some(cat),
            fp,
            TxPayload::of(Arc::new(x)),
            Box::new(|comm, items| {
                let sum: f64 = items.into_iter().map(|p| *Self::downcast::<f64>(p)).sum();
                let p = comm.size();
                let cost = comm.model().allreduce_time(p, 1);
                (sum, cost, if p > 1 { 2 } else { 0 })
            }),
        )
        .wait()
    }

    /// Reduce-scatter over block rows: every member contributes an equally
    /// shaped `n x f` matrix; member `i` receives row block `i` (balanced
    /// block distribution) of the elementwise sum.
    ///
    /// This is the primitive of the 1D backward pass (§IV-A.3): the
    /// low-rank outer products `A_i G_i` are reduce-scattered into block
    /// rows. Under a packed codec every rank widens all parts and sums
    /// its own block rows in `f64` member order, so a later all-gather
    /// of the blocks reassembles a replica-consistent matrix.
    pub fn reduce_scatter_rows(&self, m: &Mat, cat: Cat) -> Mat {
        let codec = self.codec::<Mat>(cat);
        let fp = self.fingerprint(
            CollectiveKind::ReduceScatterRows,
            None,
            None,
            codec.dtype::<Mat>(),
            Shape::Dims(m.rows(), m.cols()),
        );
        let shape = m.shape();
        let (payload, w) = codec.encode(Arc::new(m.clone()));
        self.issue(
            CollectiveKind::ReduceScatterRows,
            Some(codec.cat(cat)),
            fp,
            payload,
            Box::new(move |comm, items| {
                let p = comm.size();
                let (r0, r1) = block_range(shape.0, p, comm.my_idx);
                let mut out = Mat::zeros(r1 - r0, shape.1);
                for item in &items {
                    let (part, _) = codec.decode::<Mat>(item);
                    assert_eq!(part.shape(), shape, "reduce_scatter shape mismatch");
                    for (oi, gi) in (r0..r1).enumerate() {
                        let dst = out.row_mut(oi);
                        for (d, s) in dst.iter_mut().zip(part.row(gi)) {
                            *d += s;
                        }
                    }
                }
                let cost = comm.model().reduce_scatter_time(p, w);
                let words = if p > 1 {
                    w * (p as u64 - 1) / p as u64
                } else {
                    0
                };
                (out, cost, words)
            }),
        )
        .wait()
    }

    /// All-to-all personalized exchange: `parts[j]` is sent to member `j`;
    /// returns what each member sent to me, in member order. `parts` must
    /// have exactly `size` entries.
    pub fn alltoall<T: Any + Send + Sync + CommWords + Clone + Wire>(
        &self,
        parts: Vec<T>,
        cat: Cat,
    ) -> Vec<T> {
        assert_eq!(
            parts.len(),
            self.size(),
            "alltoall needs one part per member"
        );
        let fp = self.fingerprint(
            CollectiveKind::Alltoall,
            None,
            None,
            std::any::type_name::<T>(),
            Shape::Count(parts.len()),
        );
        self.issue(
            CollectiveKind::Alltoall,
            Some(cat),
            fp,
            TxPayload::of(Arc::new(parts)),
            Box::new(|comm, items| {
                let me = comm.my_idx;
                let all: Vec<Arc<Vec<T>>> =
                    items.into_iter().map(Self::downcast::<Vec<T>>).collect();
                let out: Vec<T> = all.iter().map(|v| v[me].clone()).collect();
                let p = comm.size();
                let recv_words: u64 = out
                    .iter()
                    .enumerate()
                    .filter(|(src, _)| *src != me)
                    .map(|(_, x)| x.comm_words())
                    .sum();
                let cost = if p > 1 {
                    comm.model().alpha * (p - 1) as f64 + comm.model().beta * recv_words as f64
                } else {
                    0.0
                };
                (out, cost, recv_words)
            }),
        )
        .wait()
    }

    /// Gather: every member contributes; only `root_idx` receives the
    /// full vector (others get `None`). Charged like an all-gather's
    /// bandwidth at the root, `α + β·w` at leaves.
    pub fn gather<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        root_idx: usize,
        data: T,
        cat: Cat,
    ) -> Option<Vec<Arc<T>>> {
        assert!(root_idx < self.size(), "gather root out of range");
        let fp = self.fingerprint(
            CollectiveKind::Gather,
            Some(root_idx),
            None,
            std::any::type_name::<T>(),
            Shape::Unknown,
        );
        self.issue(
            CollectiveKind::Gather,
            Some(cat),
            fp,
            TxPayload::of(Arc::new(data)),
            Box::new(move |comm, items| {
                let out: Vec<Arc<T>> = items.into_iter().map(Self::downcast::<T>).collect();
                let p = comm.size();
                let total: u64 = out.iter().map(|x| x.comm_words()).sum();
                let mine = out[comm.my_idx].comm_words();
                let is_root = comm.my_idx == root_idx;
                let (cost, words) = if p <= 1 {
                    (0.0, 0)
                } else if is_root {
                    (comm.model().allgather_time(p, total), total - mine)
                } else {
                    (comm.model().p2p_time(mine), mine)
                };
                (is_root.then_some(out), cost, words)
            }),
        )
        .wait()
    }

    /// Scatter: `root_idx` supplies one part per member (`Some(parts)` of
    /// length `size`); every member receives its part.
    pub fn scatter<T: Any + Send + Sync + CommWords + Clone + Wire>(
        &self,
        root_idx: usize,
        parts: Option<Vec<T>>,
        cat: Cat,
    ) -> T {
        assert!(root_idx < self.size(), "scatter root out of range");
        assert_eq!(
            parts.is_some(),
            root_idx == self.my_idx,
            "scatter: exactly the root must supply parts"
        );
        if let Some(p) = &parts {
            assert_eq!(p.len(), self.size(), "scatter needs one part per member");
        }
        let shape = match &parts {
            Some(p) => Shape::Count(p.len()),
            None => Shape::Unknown,
        };
        let fp = self.fingerprint(
            CollectiveKind::Scatter,
            Some(root_idx),
            None,
            std::any::type_name::<T>(),
            shape,
        );
        let payload = match parts {
            Some(p) => TxPayload::of(Arc::new(p)),
            None => TxPayload::unit(),
        };
        self.issue(
            CollectiveKind::Scatter,
            Some(cat),
            fp,
            payload,
            Box::new(move |comm, items| {
                let all = Self::downcast::<Vec<T>>(items[root_idx].clone());
                let mine = all[comm.my_idx].clone();
                let p = comm.size();
                let (cost, words) = if p <= 1 {
                    (0.0, 0)
                } else if comm.my_idx == root_idx {
                    // `allgather_time` takes *total* words and applies the
                    // (p−1)/p bandwidth discount itself, so the root charges
                    // the full vector (its own part included, mirroring
                    // `gather`) and records only the words actually sent
                    // to the leaves.
                    let total: u64 = all.iter().map(|x| x.comm_words()).sum();
                    let sent = total - all[root_idx].comm_words();
                    (comm.model().allgather_time(p, total), sent)
                } else {
                    let w = mine.comm_words();
                    (comm.model().p2p_time(w), w)
                };
                (mine, cost, words)
            }),
        )
        .wait()
    }

    /// Paired point-to-point exchange: send `outgoing` to `partner_idx`
    /// and receive its message. Both partners must call this at the same
    /// collective step; the rest of the group passes `None` as partner
    /// and participates only in the rendezvous (zero payload, zero
    /// charge).
    ///
    /// This is the bulk-synchronous send/recv used e.g. for pairwise
    /// block swaps in a distributed transpose (§IV-A.7).
    pub fn sendrecv<T: Any + Send + Sync + CommWords + Wire>(
        &self,
        partner_idx: Option<usize>,
        outgoing: Option<T>,
        cat: Cat,
    ) -> Option<Arc<T>> {
        assert_eq!(
            partner_idx.is_some(),
            outgoing.is_some(),
            "sendrecv: payload must accompany a partner"
        );
        if let Some(p) = partner_idx {
            assert!(p < self.size(), "sendrecv partner out of range");
        }
        let fp = self.fingerprint(
            CollectiveKind::Sendrecv,
            None,
            partner_idx,
            std::any::type_name::<T>(),
            Shape::Unknown,
        );
        let payload = match outgoing {
            Some(d) => TxPayload::of(Arc::new(d)),
            None => TxPayload::unit(),
        };
        self.issue(
            CollectiveKind::Sendrecv,
            Some(cat),
            fp,
            payload,
            Box::new(move |comm, items| match partner_idx {
                Some(partner) => {
                    let msg = Self::downcast::<T>(items[partner].clone());
                    let words = msg.comm_words();
                    (Some(msg), comm.model().p2p_time(words), words)
                }
                None => (None, 0.0, 0),
            }),
        )
        .wait()
    }

    /// Split into sub-communicators by color (MPI `comm_split` without the
    /// key argument: member order within a color follows parent order).
    /// A setup-time exchange of colors: it charges nothing.
    pub fn split(&self, color: u64) -> Communicator {
        // Same at every member before the exchange.
        let seq_for_key = self.seq.get();
        // Colors are legitimately rank-dependent: wildcard shape.
        let fp = self.fingerprint(CollectiveKind::Split, None, None, "u64", Shape::Unknown);
        let colors = self
            .issue(
                CollectiveKind::Split,
                None,
                fp,
                TxPayload::of(Arc::new(color)),
                Box::new(|_, items| {
                    let colors: Vec<u64> = items
                        .into_iter()
                        .map(|p| *Self::downcast::<u64>(p))
                        .collect();
                    (colors, 0.0, 0)
                }),
            )
            .wait();
        let group: Vec<usize> = (0..self.size())
            .filter(|&i| colors[i] == color)
            .map(|i| self.members[i])
            .collect();
        let Some(my_pos) = group.iter().position(|&w| w == self.members[self.my_idx]) else {
            unreachable!("split: own color missing from own group")
        };
        let link = self.link.derive(seq_for_key, color, group.len());
        Communicator {
            link,
            registry: self.registry.clone(),
            members: Arc::new(group),
            my_idx: my_pos,
            meter: self.meter.clone(),
            seq: Cell::new(0),
            // Sub-communicators inherit the parent handle's *current*
            // precision, so a grid built after set_precision stays
            // consistent across all of its row/column groups.
            precision: Cell::new(self.precision.get()),
        }
    }
}

/// Maps the full set of rendezvous deposits to this rank's result plus
/// the op's α–β cost and recordable words.
type Finisher<'c, T> = Box<dyn FnOnce(&Communicator, Vec<RxPayload>) -> (T, f64, u64) + 'c>;

enum PendingState<'c, T> {
    /// Single-rank group: the result was available at issue, and any
    /// charge was settled there.
    Ready(T),
    /// Rendezvous in flight: deposit made, completion pending; the
    /// result is charged under `cat` (`None`: uncharged).
    InFlight {
        seq: u64,
        cat: Option<Cat>,
        finish: Finisher<'c, T>,
    },
}

/// A collective in flight. Every collective is issued as one: the
/// nonblocking forms [`Communicator::ibcast`],
/// [`Communicator::ibcast_shared`], [`Communicator::igather_rows`],
/// [`Communicator::igather_rows_refresh`] and
/// [`Communicator::iallreduce_mat`] return it, and every blocking
/// collective waits on its own op at once.
///
/// The rendezvous deposit happened at issue time — peers can already
/// consume it, and CheckMode fingerprints ride along with it — so
/// issuing is free and never blocks. [`PendingOp::wait`] blocks for the
/// group, returns the payload, and settles the α–β cost on the network
/// lane: compute charged between issue and wait covers the cost, and
/// only the uncovered remainder advances the clock (metered split:
/// [`Cat::Overlapped`] vs. the op's category; see DESIGN.md §10).
///
/// Every issued op **must** be waited on every control-flow path:
/// dropping a `PendingOp` without `wait()` panics with a diagnostic,
/// because the unconsumed rendezvous slot and the uncharged cost would
/// silently corrupt the run.
#[must_use = "a nonblocking collective must be wait()ed"]
pub struct PendingOp<'c, T> {
    comm: &'c Communicator,
    kind: CollectiveKind,
    state: Option<PendingState<'c, T>>,
}

impl<'c, T> PendingOp<'c, T> {
    fn ready(comm: &'c Communicator, kind: CollectiveKind, value: T) -> Self {
        PendingOp {
            comm,
            kind,
            state: Some(PendingState::Ready(value)),
        }
    }

    fn in_flight(
        comm: &'c Communicator,
        kind: CollectiveKind,
        cat: Option<Cat>,
        seq: u64,
        finish: Finisher<'c, T>,
    ) -> Self {
        PendingOp {
            comm,
            kind,
            state: Some(PendingState::InFlight { seq, cat, finish }),
        }
    }

    /// Which collective this handle belongs to (diagnostic label).
    pub fn kind(&self) -> CollectiveKind {
        self.kind
    }

    /// Complete the op: block until every member's deposit is present,
    /// verify fingerprints (when checking), settle the uncovered
    /// remainder of the α–β cost, and return the payload.
    pub fn wait(mut self) -> T {
        let Some(state) = self.state.take() else {
            unreachable!("PendingOp waited twice")
        };
        match state {
            PendingState::Ready(v) => v,
            PendingState::InFlight { seq, cat, finish } => {
                let (items, ready) = self.comm.complete_raw(self.kind, seq);
                let (out, cost, words) = finish(self.comm, items);
                if let Some(cat) = cat {
                    self.comm.settle_pending(ready, cat, cost, words);
                }
                out
            }
        }
    }
}

impl<T> Drop for PendingOp<'_, T> {
    fn drop(&mut self) {
        let Some(state) = &self.state else { return };
        if std::thread::panicking() {
            return;
        }
        let at = match state {
            PendingState::Ready(_) => String::from("single-rank"),
            PendingState::InFlight { seq, .. } => format!("seq {seq}"),
        };
        panic!(
            "rank {} dropped a pending {} on comm {} ({at}) without wait(): every \
             nonblocking collective must be completed on all control-flow paths",
            self.comm.world_rank(),
            self.kind,
            self.comm.link.id()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;

    #[test]
    fn bcast_delivers_root_payload() {
        let results = Cluster::new(4).run(|ctx| {
            let data = if ctx.world.my_idx() == 2 {
                Some(vec![1.0, 2.0, 3.0])
            } else {
                None
            };
            let got = ctx.world.bcast(2, data, Cat::DenseComm);
            got.as_ref().clone()
        });
        for (r, _) in results {
            assert_eq!(r, vec![1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn allgather_orders_by_member() {
        let results = Cluster::new(3).run(|ctx| {
            let got = ctx.world.allgather(vec![ctx.rank as f64], Cat::DenseComm);
            got.iter().map(|v| v[0]).collect::<Vec<f64>>()
        });
        for (r, _) in results {
            assert_eq!(r, vec![0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn allreduce_mat_sums() {
        let results = Cluster::new(4).run(|ctx| {
            let m = Mat::filled(2, 2, (ctx.rank + 1) as f64);
            ctx.world.allreduce_mat(&m, Cat::DenseComm)
        });
        for (r, _) in results {
            assert!(r.approx_eq(&Mat::filled(2, 2, 10.0), 1e-12));
        }
    }

    #[test]
    fn allreduce_scalar_sums() {
        let results =
            Cluster::new(5).run(|ctx| ctx.world.allreduce_scalar(ctx.rank as f64, Cat::DenseComm));
        for (r, _) in results {
            assert_eq!(r, 10.0);
        }
    }

    #[test]
    fn reduce_scatter_rows_gives_block_of_sum() {
        let results = Cluster::new(2).run(|ctx| {
            // Both ranks contribute a 4x1 matrix of their rank+1.
            let m = Mat::filled(4, 1, (ctx.rank + 1) as f64);
            ctx.world.reduce_scatter_rows(&m, Cat::DenseComm)
        });
        // Sum is all-3s; rank 0 gets rows 0..2, rank 1 rows 2..4.
        for (r, _) in &results {
            assert_eq!(r.shape(), (2, 1));
            assert!(r.approx_eq(&Mat::filled(2, 1, 3.0), 1e-12));
        }
    }

    #[test]
    fn alltoall_routes_parts() {
        let results = Cluster::new(3).run(|ctx| {
            let parts: Vec<f64> = (0..3).map(|j| (ctx.rank * 10 + j) as f64).collect();
            ctx.world.alltoall(parts, Cat::DenseComm)
        });
        for (rank, (r, _)) in results.iter().enumerate() {
            // From src j I receive j*10 + my_rank.
            let expect: Vec<f64> = (0..3).map(|j| (j * 10 + rank) as f64).collect();
            assert_eq!(*r, expect);
        }
    }

    #[test]
    fn split_forms_correct_groups() {
        let results = Cluster::new(6).run(|ctx| {
            let color = (ctx.rank % 2) as u64;
            let sub = ctx.world.split(color);
            // Members of my subgroup, via allgather on the subgroup.
            let got = sub.allgather(vec![ctx.rank as f64], Cat::DenseComm);
            (
                sub.size(),
                sub.my_idx(),
                got.iter().map(|v| v[0] as usize).collect::<Vec<_>>(),
            )
        });
        for (rank, ((size, idx, members), _)) in results.iter().enumerate() {
            assert_eq!(*size, 3);
            let expect: Vec<usize> = (0..6).filter(|r| r % 2 == rank % 2).collect();
            assert_eq!(*members, expect);
            assert_eq!(expect[*idx], rank);
        }
    }

    #[test]
    fn gather_collects_at_root_only() {
        let results = Cluster::new(4).run(|ctx| {
            let got = ctx.world.gather(1, vec![ctx.rank as f64], Cat::DenseComm);
            got.map(|v| v.iter().map(|x| x[0]).collect::<Vec<f64>>())
        });
        for (rank, (r, _)) in results.iter().enumerate() {
            if rank == 1 {
                assert_eq!(r.as_deref(), Some(&[0.0, 1.0, 2.0, 3.0][..]));
            } else {
                assert!(r.is_none());
            }
        }
    }

    #[test]
    fn scatter_distributes_parts() {
        let results = Cluster::new(3).run(|ctx| {
            let parts = (ctx.rank == 2).then(|| vec![10.0f64, 20.0, 30.0]);
            ctx.world.scatter(2, parts, Cat::DenseComm)
        });
        assert_eq!(results[0].0, 10.0);
        assert_eq!(results[1].0, 20.0);
        assert_eq!(results[2].0, 30.0);
    }

    #[test]
    fn sendrecv_pairs_exchange() {
        let results = Cluster::new(4).run(|ctx| {
            // 0<->1 swap; 2 and 3 sit out.
            let partner = match ctx.rank {
                0 => Some(1),
                1 => Some(0),
                _ => None,
            };
            let payload = partner.map(|_| vec![ctx.rank as f64 * 100.0]);
            ctx.world
                .sendrecv(partner, payload, Cat::DenseComm)
                .map(|m| m[0])
        });
        assert_eq!(results[0].0, Some(100.0));
        assert_eq!(results[1].0, Some(0.0));
        assert_eq!(results[2].0, None);
        assert_eq!(results[3].0, None);
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let results = Cluster::new(4).run(|ctx| {
            let gathered = ctx
                .world
                .gather(0, vec![(ctx.rank + 1) as f64], Cat::DenseComm);
            let parts = gathered.map(|g| g.iter().map(|v| v.as_ref().clone()).collect::<Vec<_>>());
            let back = ctx.world.scatter(0, parts, Cat::DenseComm);
            back[0]
        });
        for (rank, (r, _)) in results.iter().enumerate() {
            assert_eq!(*r, (rank + 1) as f64);
        }
    }

    #[test]
    fn bsp_clock_takes_group_max() {
        let results = Cluster::new(2).run(|ctx| {
            // Rank 1 does more local work before the barrier.
            if ctx.rank == 1 {
                ctx.charge(Cat::Misc, 5.0);
            }
            ctx.world.barrier();
            ctx.clock()
        });
        let barrier_cost = CostModel::summit_like().barrier_time(2);
        for (clock, _) in results {
            assert!((clock - (5.0 + barrier_cost)).abs() < 1e-12);
        }
    }

    #[test]
    fn traffic_words_match_formulas() {
        let results = Cluster::new(4).run(|ctx| {
            let data = if ctx.rank == 0 {
                Some(Mat::zeros(10, 10))
            } else {
                None
            };
            ctx.world.bcast(0, data, Cat::DenseComm);
            ctx.report()
        });
        for (rep, _) in results {
            assert_eq!(rep.words(Cat::DenseComm), 100);
            assert_eq!(rep.messages(Cat::DenseComm), 1);
        }
    }

    #[test]
    fn single_rank_runs_without_cost() {
        let results = Cluster::new(1).run(|ctx| {
            ctx.world.barrier();
            let m = ctx
                .world
                .allreduce_mat(&Mat::filled(2, 2, 3.0), Cat::DenseComm);
            (m, ctx.clock())
        });
        let ((m, clock), rep) = &results[0];
        assert!(m.approx_eq(&Mat::filled(2, 2, 3.0), 0.0));
        assert_eq!(*clock, 0.0);
        assert_eq!(rep.comm_words(), 0);
    }

    #[test]
    fn bcast_shared_skips_root_copy() {
        let results = Cluster::new(3).run(|ctx| {
            let mine = Arc::new(Mat::filled(4, 2, ctx.rank as f64));
            let payload = (ctx.rank == 1).then(|| mine.clone());
            let got = ctx.world.bcast_shared(1, payload, Cat::DenseComm);
            (Arc::ptr_eq(&got, &mine), got.as_ref().clone())
        });
        for (rank, ((same_alloc, m), _)) in results.iter().enumerate() {
            // The root's own allocation travels; no clone anywhere.
            assert_eq!(*same_alloc, rank == 1);
            assert!(m.approx_eq(&Mat::filled(4, 2, 1.0), 0.0));
        }
    }

    #[test]
    fn bcast_shared_charges_like_bcast() {
        let run = |shared: bool| {
            Cluster::new(4).run(move |ctx| {
                if shared {
                    let payload = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(10, 10)));
                    ctx.world.bcast_shared(0, payload, Cat::DenseComm);
                } else {
                    let payload = (ctx.rank == 0).then(|| Mat::zeros(10, 10));
                    ctx.world.bcast(0, payload, Cat::DenseComm);
                }
                ctx.report()
            })
        };
        for ((a, _), (b, _)) in run(true).iter().zip(run(false).iter()) {
            assert_eq!(a.clock, b.clock);
            assert_eq!(a.words(Cat::DenseComm), b.words(Cat::DenseComm));
            assert_eq!(a.messages(Cat::DenseComm), b.messages(Cat::DenseComm));
        }
    }

    #[test]
    fn allgather_shared_skips_contributor_copies() {
        let results = Cluster::new(3).run(|ctx| {
            let mine = Arc::new(Mat::filled(2, 2, ctx.rank as f64));
            let got = ctx.world.allgather_shared(mine.clone(), Cat::DenseComm);
            (
                Arc::ptr_eq(&got[ctx.rank], &mine),
                got.iter().map(|m| m[(0, 0)]).collect::<Vec<f64>>(),
            )
        });
        for ((same_alloc, vals), _) in results {
            // Every rank's own allocation travels; no clone anywhere.
            assert!(same_alloc);
            assert_eq!(vals, vec![0.0, 1.0, 2.0]);
        }
    }

    #[test]
    fn allgather_shared_charges_like_allgather() {
        let run = |shared: bool| {
            Cluster::new(4).run(move |ctx| {
                if shared {
                    let m = Arc::new(Mat::zeros(5, 3));
                    ctx.world.allgather_shared(m, Cat::DenseComm);
                } else {
                    ctx.world.allgather(Mat::zeros(5, 3), Cat::DenseComm);
                }
                ctx.report()
            })
        };
        for ((a, _), (b, _)) in run(true).iter().zip(run(false).iter()) {
            assert_eq!(a.clock, b.clock);
            assert_eq!(a.words(Cat::DenseComm), b.words(Cat::DenseComm));
            assert_eq!(a.messages(Cat::DenseComm), b.messages(Cat::DenseComm));
        }
    }

    #[test]
    fn gather_rows_delivers_compact_requested_rows() {
        let results = Cluster::new(3).run(|ctx| {
            let block = Arc::new(Mat::from_fn(6, 2, |i, j| (10 * i + j) as f64));
            let payload = (ctx.rank == 1).then(|| block.clone());
            let needed: Vec<usize> = vec![ctx.rank, ctx.rank + 3];
            let got = ctx
                .world
                .gather_rows(1, payload, &needed, Some((6, 2)), Cat::DenseComm);
            (
                Arc::ptr_eq(got.mat(), &block),
                got.rows().map(|r| r.to_vec()),
                got.mat().as_ref().clone(),
            )
        });
        for (rank, ((same_alloc, rows, m), _)) in results.iter().enumerate() {
            if rank == 1 {
                // Root keeps its own allocation, fully populated.
                assert!(*same_alloc);
                assert!(rows.is_none());
                assert!(m.approx_eq(&Mat::from_fn(6, 2, |i, j| (10 * i + j) as f64), 0.0));
            } else {
                // Receivers hold exactly the requested rows, in order.
                assert!(!*same_alloc);
                assert_eq!(m.shape(), (2, 2));
                assert_eq!(rows.as_deref(), Some(&[rank, rank + 3][..]));
                for (pos, src) in [rank, rank + 3].into_iter().enumerate() {
                    for j in 0..2 {
                        assert_eq!(m[(pos, j)], (10 * src + j) as f64, "rank {rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn gather_rows_receiver_allocation_is_compact() {
        // Regression (receiver memory = O(k·f), not O(n·f)): against a
        // 512-row block, a 3-row request must come back as a 3-row
        // matrix, and compact() must be the identity on it.
        let results = Cluster::new(2).run(|ctx| {
            let block = Arc::new(Mat::from_fn(512, 4, |i, j| (i * 4 + j) as f64));
            let payload = (ctx.rank == 0).then(|| block.clone());
            let needed: Vec<usize> = vec![7, 100, 511];
            let got = ctx
                .world
                .gather_rows(0, payload, &needed, Some((512, 4)), Cat::DenseComm);
            let compact = got.compact(&needed);
            (
                got.mat().shape(),
                Arc::ptr_eq(&compact, got.mat()),
                compact.as_ref().clone(),
            )
        });
        let ((shape, identity, compact), _) = &results[1];
        assert_eq!(*shape, (3, 4), "receiver must not allocate the full block");
        assert!(*identity, "compact() on a compact result must not copy");
        for (pos, src) in [7usize, 100, 511].into_iter().enumerate() {
            for j in 0..4 {
                assert_eq!(compact[(pos, j)], (src * 4 + j) as f64);
            }
        }
        // The root's compact() extracts the same operand from its block.
        let ((root_shape, _, root_compact), _) = &results[0];
        assert_eq!(*root_shape, (512, 4));
        assert!(root_compact.approx_eq(compact, 0.0));
    }

    #[test]
    #[should_panic(expected = "receiver-declared dims")]
    fn gather_rows_rejects_wrong_expected_dims() {
        // CheckMode off: this pins the runtime assert, which guards even
        // unchecked runs (the fingerprint path has its own test in
        // crates/comm/tests/check_faults.rs).
        Cluster::new(2).with_check(CheckMode::Off).run(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(4, 3)));
            // Receiver declares the wrong row count; caught even with
            // CheckMode off.
            let expect = Some(if ctx.rank == 0 { (4, 3) } else { (5, 3) });
            ctx.world
                .gather_rows(0, payload, &[1], expect, Cat::DenseComm);
        });
    }

    #[test]
    fn gather_rows_words_counted_once_at_receivers() {
        // 8x4 block; rank r != 0 requests r+1 rows: words = k·(cols+1).
        let results = Cluster::new(3).run(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(8, 4)));
            let needed: Vec<usize> = (0..=ctx.rank).collect();
            ctx.world
                .gather_rows(0, payload, &needed, Some((8, 4)), Cat::DenseComm);
            ctx.report()
        });
        assert_eq!(results[0].0.words(Cat::DenseComm), 0); // root serves, records nothing
        assert_eq!(results[1].0.words(Cat::DenseComm), 2 * 5);
        assert_eq!(results[2].0.words(Cat::DenseComm), 3 * 5);
        for (rep, _) in &results {
            assert_eq!(rep.messages(Cat::DenseComm), 1);
        }
    }

    #[test]
    fn gather_rows_cost_matches_alpha_beta_formulas() {
        let model = CostModel::summit_like();
        let (alpha, beta) = (model.alpha, model.beta);
        let results = Cluster::new(4).with_model(model).run(|ctx| {
            let payload = (ctx.rank == 2).then(|| Arc::new(Mat::zeros(10, 5)));
            let needed: Vec<usize> = (0..2 * ctx.rank + 1).collect();
            ctx.world
                .gather_rows(2, payload, &needed, Some((10, 5)), Cat::DenseComm);
            ctx.clock()
        });
        // Served rows from ranks 0, 1, 3: 1 + 3 + 7 = 11, each 6 words.
        let root_cost = alpha * 3.0 + beta * (11.0 * 6.0);
        for (rank, (clock, _)) in results.iter().enumerate() {
            let expect = if rank == 2 {
                root_cost
            } else {
                alpha * 2.0 + beta * ((2 * rank + 1) as f64 * 6.0)
            };
            assert!(
                (clock - expect).abs() < 1e-15,
                "rank {rank}: clock {clock} vs {expect}"
            );
        }
    }

    #[test]
    fn gather_rows_single_rank_is_free() {
        let results = Cluster::new(1).run(|ctx| {
            let block = Arc::new(Mat::filled(3, 3, 7.0));
            let got = ctx.world.gather_rows(
                0,
                Some(block.clone()),
                &[0, 2],
                Some((3, 3)),
                Cat::DenseComm,
            );
            (Arc::ptr_eq(got.mat(), &block), ctx.clock(), ctx.report())
        });
        let ((same, clock, rep), _) = &results[0];
        assert!(same);
        assert_eq!(*clock, 0.0);
        assert_eq!(rep.comm_words(), 0);
    }

    #[test]
    fn gather_rows_verifies_under_check_mode() {
        use cagnet_check::CheckMode;
        let results = Cluster::new(3).with_check(CheckMode::On).run(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(Mat::filled(4, 2, 1.0)));
            let got = ctx
                .world
                .gather_rows(0, payload, &[ctx.rank], Some((4, 2)), Cat::DenseComm);
            got.compact(&[ctx.rank])[(0, 0)]
        });
        for (v, _) in results {
            assert_eq!(v, 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "sorted and distinct")]
    fn gather_rows_rejects_unsorted_request() {
        Cluster::new(1).run(|ctx| {
            let block = Arc::new(Mat::zeros(4, 1));
            ctx.world
                .gather_rows(0, Some(block), &[2, 1], None, Cat::DenseComm);
        });
    }

    #[test]
    fn scatter_root_charges_full_allgather_volume() {
        // Audit pin: the root passes *total* words (its own part included)
        // to allgather_time; the (p−1)/p discount is applied exactly once.
        let model = CostModel::summit_like();
        let expect = model.allgather_time(4, 4 * 6);
        let results = Cluster::new(4).with_model(model).run(|ctx| {
            let parts = (ctx.rank == 0).then(|| vec![vec![0.0f64; 6]; 4]);
            ctx.world.scatter(0, parts, Cat::DenseComm);
            (ctx.clock(), ctx.report())
        });
        let ((root_clock, root_rep), _) = &results[0];
        assert!((root_clock - expect).abs() < 1e-15);
        // Root records only the 3 parts actually sent.
        assert_eq!(root_rep.words(Cat::DenseComm), 3 * 6);
    }

    #[test]
    fn ibcast_hides_cost_behind_compute() {
        let results = Cluster::new(2).run(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(100, 100)));
            let op = ctx.world.ibcast_shared(0, payload, Cat::DenseComm);
            ctx.charge(Cat::Spmm, 1.0); // far larger than the bcast cost
            let got = op.wait();
            (got.as_ref().clone(), ctx.report())
        });
        let cost = CostModel::summit_like().bcast_time(2, 100 * 100);
        for (rank, ((m, rep), _)) in results.iter().enumerate() {
            assert_eq!(m.shape(), (100, 100), "rank {rank}");
            // Fully hidden: no clock movement beyond compute, full cost
            // metered as Overlapped, words recorded as in blocking mode.
            assert!((rep.seconds(Cat::Overlapped) - cost).abs() < 1e-15);
            assert_eq!(rep.seconds(Cat::DenseComm), 0.0);
            assert!((rep.clock - 1.0).abs() < 1e-12);
            assert_eq!(rep.words(Cat::DenseComm), 100 * 100);
            assert_eq!(rep.messages(Cat::DenseComm), 1);
        }
    }

    #[test]
    fn immediate_wait_charges_like_blocking() {
        // With no compute between issue and wait, the nonblocking forms
        // must charge exactly like their blocking counterparts.
        let run = |nonblocking: bool| {
            Cluster::new(4).run(move |ctx| {
                let payload = (ctx.rank == 1).then(|| Arc::new(Mat::zeros(10, 10)));
                if nonblocking {
                    let _ = ctx.world.ibcast_shared(1, payload, Cat::DenseComm).wait();
                    let m = Mat::filled(3, 3, ctx.rank as f64);
                    let _ = ctx.world.iallreduce_mat(&m, Cat::DenseComm).wait();
                } else {
                    ctx.world.bcast_shared(1, payload, Cat::DenseComm);
                    let m = Mat::filled(3, 3, ctx.rank as f64);
                    ctx.world.allreduce_mat(&m, Cat::DenseComm);
                }
                ctx.report()
            })
        };
        for ((a, _), (b, _)) in run(true).iter().zip(run(false).iter()) {
            assert_eq!(a.clock, b.clock);
            assert_eq!(a.seconds(Cat::DenseComm), b.seconds(Cat::DenseComm));
            assert_eq!(a.seconds(Cat::Overlapped), 0.0);
            assert_eq!(a.words(Cat::DenseComm), b.words(Cat::DenseComm));
            assert_eq!(a.messages(Cat::DenseComm), b.messages(Cat::DenseComm));
        }
    }

    #[test]
    fn iallreduce_mat_sums_in_member_order() {
        let results = Cluster::new(4).run(|ctx| {
            let m = Mat::filled(2, 2, (ctx.rank + 1) as f64);
            let op = ctx.world.iallreduce_mat(&m, Cat::DenseComm);
            ctx.charge(Cat::Gemm, 1.0);
            (op.wait(), ctx.report())
        });
        for ((sum, rep), _) in results {
            assert!(sum.approx_eq(&Mat::filled(2, 2, 10.0), 1e-12));
            assert!(rep.seconds(Cat::Overlapped) > 0.0);
        }
    }

    #[test]
    fn igather_rows_matches_blocking_form() {
        let run = |nonblocking: bool| {
            Cluster::new(3).run(move |ctx| {
                let block = Arc::new(Mat::from_fn(6, 2, |i, j| (10 * i + j) as f64));
                let payload = (ctx.rank == 1).then(|| block.clone());
                let needed: Vec<usize> = vec![ctx.rank, ctx.rank + 3];
                let got = if nonblocking {
                    ctx.world
                        .igather_rows(1, payload, &needed, Some((6, 2)), Cat::DenseComm)
                        .wait()
                } else {
                    ctx.world
                        .gather_rows(1, payload, &needed, Some((6, 2)), Cat::DenseComm)
                };
                (got.compact(&needed).as_ref().clone(), ctx.report())
            })
        };
        for ((a, ra), (b, rb)) in run(true)
            .into_iter()
            .map(|(r, _)| r)
            .zip(run(false).into_iter().map(|(r, _)| r))
        {
            assert!(a.approx_eq(&b, 0.0));
            assert_eq!(ra.clock, rb.clock);
            assert_eq!(ra.words(Cat::DenseComm), rb.words(Cat::DenseComm));
        }
    }

    #[test]
    fn multiple_pending_ops_share_the_network_lane() {
        // Two ops in flight at once: the modeled NIC serializes their
        // costs, both hide behind a long compute charge.
        let results = Cluster::new(2).run(|ctx| {
            let p0 = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(50, 50)));
            let op0 = ctx.world.ibcast_shared(0, p0, Cat::DenseComm);
            let p1 = (ctx.rank == 1).then(|| Arc::new(Mat::zeros(50, 50)));
            let op1 = ctx.world.ibcast_shared(1, p1, Cat::DenseComm);
            ctx.charge(Cat::Spmm, 1.0);
            let a = op0.wait();
            let b = op1.wait();
            (a.shape(), b.shape(), ctx.report())
        });
        let cost = CostModel::summit_like().bcast_time(2, 2500);
        for ((sa, sb, rep), _) in results {
            assert_eq!(sa, (50, 50));
            assert_eq!(sb, (50, 50));
            assert!((rep.seconds(Cat::Overlapped) - 2.0 * cost).abs() < 1e-12);
            assert!((rep.clock - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn single_rank_pending_ops_are_free() {
        let results = Cluster::new(1).run(|ctx| {
            let block = Arc::new(Mat::filled(3, 3, 7.0));
            let a = ctx
                .world
                .ibcast_shared(0, Some(block.clone()), Cat::DenseComm)
                .wait();
            let b = ctx
                .world
                .igather_rows(
                    0,
                    Some(block.clone()),
                    &[0, 2],
                    Some((3, 3)),
                    Cat::DenseComm,
                )
                .wait();
            let c = ctx
                .world
                .iallreduce_mat(&Mat::filled(2, 2, 3.0), Cat::DenseComm)
                .wait();
            (
                Arc::ptr_eq(&a, &block),
                Arc::ptr_eq(b.mat(), &block),
                c,
                ctx.clock(),
            )
        });
        let ((a_same, b_same, c, clock), rep) = &results[0];
        assert!(*a_same && *b_same);
        assert!(c.approx_eq(&Mat::filled(2, 2, 3.0), 0.0));
        assert_eq!(*clock, 0.0);
        assert_eq!(rep.comm_words(), 0);
    }

    #[test]
    fn ibcast_verifies_under_check_mode() {
        use cagnet_check::CheckMode;
        let results = Cluster::new(3).with_check(CheckMode::On).run(|ctx| {
            let payload = (ctx.rank == 0).then(|| Arc::new(Mat::filled(4, 2, 1.0)));
            let op = ctx.world.ibcast_shared(0, payload, Cat::DenseComm);
            ctx.charge(Cat::Spmm, 1e-3);
            op.wait()[(0, 0)]
        });
        for (v, _) in results {
            assert_eq!(v, 1.0);
        }
    }

    #[test]
    fn dropped_pending_op_aborts_with_diagnostic() {
        let cluster = Cluster::new(2).with_timeout(Duration::from_secs(5));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.run(|ctx| {
                let payload = (ctx.rank == 0).then(|| Arc::new(Mat::zeros(2, 2)));
                let op = ctx.world.ibcast_shared(0, payload, Cat::DenseComm);
                drop(op);
            })
        }));
        let err = result.expect_err("dropping a pending op must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("without wait()"),
            "diagnostic should name the dropped pending op, got: {msg}"
        );
    }

    #[test]
    fn deadlock_detection_panics() {
        let cluster = Cluster::new(2).with_timeout(Duration::from_millis(100));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cluster.run(|ctx| {
                if ctx.rank == 0 {
                    ctx.world.barrier(); // rank 1 never joins
                }
            })
        }));
        assert!(result.is_err(), "mismatched collectives must panic");
    }
}
