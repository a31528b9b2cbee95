//! Distributed GCN training algorithms — the paper's §IV.
//!
//! Every algorithm runs the same epoch — forward, masked-NLL loss,
//! backward, replicated weight update — so there is one trainer,
//! [`DistTrainer`], whose shell (module `shell`) owns the training state,
//! the setters, the forward layer loop and the global loss and accuracy
//! reductions. Each algorithm is a *layout* of that shell: a module
//! holding only its data distribution and stage compute, and exporting
//! its trainer as an alias (`OneDimTrainer = DistTrainer<OneDimLayout>`,
//! ...) with its own `setup`:
//!
//! * [`onedim`] — 1D block-row (Algorithm 1): `A` by block columns, `H`/`G`
//!   by block rows, `W` replicated. Forward is a block-row SpMM over `P`
//!   broadcasts; backward is a large 1D outer product reduce-scattered into
//!   block rows plus a small `f x f` all-reduce.
//! * [`onedim_row`] — the §IV-A.7 mirror: `A` by block rows, swapping the
//!   outer-product and block-row roles of forward and backward at equal
//!   total communication.
//! * [`one5d`] — 1.5D replicated block-row (§IV-B): interpolates between
//!   1D and 2D with a replication factor `c`, trading `c`-fold replication
//!   of `A` for a `c`-fold reduction of the dense broadcast volume.
//! * [`twodim`] — 2D SUMMA (Algorithm 2): everything on a `√P x √P` grid;
//!   SUMMA SpMM stages plus "partial SUMMA" against the replicated `W`,
//!   with a row all-gather for the non-elementwise `log_softmax`.
//! * [`threedim`] — Split-3D-SpMM (§IV-D): a `∛P`-sided mesh; independent
//!   2D SUMMAs per layer followed by fiber reduce-scatters. The paper
//!   analyzes but does not implement this algorithm; here it is
//!   implemented and verified.
//!
//! Every stage fetch runs through one `StageFetcher` pipeline
//! (DESIGN.md §10). The three row layouts share the end of each backward
//! layer, and the two grid layouts the partial-W SUMMA and the
//! row-gathered output layer, all defined here. All five produce the
//! same weights and embeddings as the serial reference up to
//! floating-point accumulation order, for any process count that fits
//! their geometry.

pub mod one5d;
pub mod onedim;
pub mod onedim_row;
mod shell;
pub mod threedim;
pub mod transpose;
pub mod twodim;

pub use shell::DistTrainer;
pub(crate) use shell::{Layout, TrainState};

use cagnet_comm::comm::Communicator;
use cagnet_comm::{Cat, Ctx, GatheredRows, PendingOp};
use cagnet_dense::activation::{log_softmax_rows, softmax_rows};
use cagnet_dense::{matmul_acc_with, matmul_nt_with, matmul_tn_with, Mat};
use cagnet_sparse::partition::block_range;
use cagnet_sparse::Csr;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::fmt;
use std::sync::Arc;

/// How the distributed trainers move dense feature/gradient blocks
/// between ranks.
///
/// The broadcast stages of these algorithms send an *entire* dense block
/// every stage, but a receiver multiplying a sparse panel only reads the
/// rows matching that panel's nonzero columns. `SparsityAware` switches
/// the stages to [`gather_rows`], which moves only the requested rows
/// (plus their indices) — bit-identical training at a fraction of the
/// metered `Cat::DenseComm` words on sparse graphs. All five trainers
/// honor it: the row-distributed family (1D, 1D-row, 1.5D) on their
/// block broadcasts, and the grid family (2D, 3D) on the dense-panel
/// side of every SUMMA stage. See DESIGN.md §9 for the cost accounting,
/// the per-stage needed-row derivation, and when `Dense` still wins.
///
/// `Cached` layers DistGNN-style halo caching (arXiv:2104.06700) on top
/// of the sparsity-aware exchange: each rank keeps an epoch-stamped cache
/// of the compact row blocks it fetched, refreshes them every `refresh`
/// training epochs through the nonblocking prefetch lane, and on the
/// epochs in between skips the collective entirely, serving the (stale)
/// cached rows. Remote rows are then up to `refresh − 1` epochs stale;
/// the rank's own block is always fresh. Training results are **not**
/// bit-identical to exact training for `refresh > 1` — see DESIGN.md §13
/// for the staleness semantics and the convergence harness
/// (`cached_bench`). `refresh: 1` refreshes every epoch and is
/// bit-identical to `SparsityAware`. Evaluation forward passes never
/// read or write the cache.
///
/// [`gather_rows`]: cagnet_comm::comm::Communicator::gather_rows
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommMode {
    /// Broadcast full dense blocks every stage (the paper's baseline).
    #[default]
    Dense,
    /// Exchange only the rows each receiver's sparse block references.
    SparsityAware,
    /// Sparsity-aware exchange with rank-local halo caching: gather
    /// fresh rows every `refresh` training epochs, serve the cache on
    /// the epochs in between. `refresh` must be ≥ 1.
    Cached {
        /// Refresh period in training epochs (1 = refresh every epoch,
        /// bit-identical to [`CommMode::SparsityAware`]).
        refresh: usize,
    },
}

impl CommMode {
    /// The cached tier's refresh period, if this is [`CommMode::Cached`].
    pub fn cached_refresh(self) -> Option<usize> {
        match self {
            CommMode::Cached { refresh } => Some(refresh),
            _ => None,
        }
    }

    /// Whether stage operands move as compact needed-row sets (the
    /// sparsity-aware and cached tiers) rather than full-block
    /// broadcasts. Trainers use this to decide when to build and
    /// multiply against column-compacted sparse panels.
    pub(crate) fn sparse_exchange(self) -> bool {
        !matches!(self, CommMode::Dense)
    }
}

/// Why a distributed trainer cannot be constructed on this cluster
/// geometry and problem. Returned by the trainers' `try_setup`
/// constructors; the panicking `setup` wrappers render it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetupError {
    /// The block distribution would leave ranks without vertices.
    TooManyRanks {
        /// World size `P`.
        ranks: usize,
        /// Vertex count `n`.
        vertices: usize,
    },
    /// The rank count does not fit the algorithm's process geometry
    /// (square grid, cubic mesh, replication factor dividing `P`, ...).
    Geometry(String),
    /// A trainer-specific configuration parameter is invalid.
    Config(String),
}

impl fmt::Display for SetupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Keep the historic "more ranks than vertices" wording —
            // callers and tests match on it.
            SetupError::TooManyRanks { ranks, vertices } => {
                write!(f, "more ranks than vertices (P={ranks}, n={vertices})")
            }
            SetupError::Geometry(msg) | SetupError::Config(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for SetupError {}

/// A collective issued now (overlap on) or where it is waited (overlap
/// off) — see [`StageFetcher::defer`]. Waiting issues the collective
/// first if it was deferred, so with overlap off every collective runs
/// at exactly the point a blocking call would, and its immediate wait
/// charges exactly what the blocking call does.
#[must_use = "a deferred collective must be wait()ed"]
pub(crate) struct Deferred<'a, T>(Box<dyn FnOnce() -> T + 'a>);

impl<T> Deferred<'_, T> {
    /// Complete the collective and return its result.
    pub(crate) fn wait(self) -> T {
        (self.0)()
    }
}

/// Run a stage loop of `stages` stages through the issue-ahead pipeline
/// (DESIGN.md §10): stage `s + 1`'s operands are requested before stage
/// `s` computes, so with overlap on their collectives are in flight
/// behind its compute. `issue` returns the stage's [`Deferred`]
/// operands; `compute` waits them and does the stage's local work.
/// Every rank requests and waits in the same order, so results are
/// bit-identical with overlap on and off.
pub(crate) fn run_stages<T>(
    stages: usize,
    mut issue: impl FnMut(usize) -> T,
    mut compute: impl FnMut(usize, T),
) {
    let mut ahead = (stages > 0).then(|| issue(0));
    for s in 0..stages {
        let next = (s + 1 < stages).then(|| issue(s + 1));
        if let Some(current) = std::mem::replace(&mut ahead, next) {
            compute(s, current);
        }
    }
}

/// A stage fetch in flight. The dense broadcast and the sparsity-aware
/// row gather resolve to different payloads (a full shared block vs a
/// compact [`GatheredRows`]); waiting collapses either to the dense
/// operand the stage SpMM multiplies.
enum Fetch<'c> {
    /// Pending full-block broadcast (`CommMode::Dense`).
    Dense(PendingOp<'c, Arc<Mat>>),
    /// Pending row gather (`CommMode::SparsityAware`, cached-mode
    /// refresh epochs, and evaluation passes).
    Sparse(PendingOp<'c, GatheredRows>),
    /// Stage operand already resident: a cached compact block served
    /// without any collective (`CommMode::Cached` serve epochs), or a
    /// fresh locally-extracted compact of the rank's own block.
    Cached(Arc<Mat>),
}

impl Fetch<'_> {
    /// Block until the stage operand is available. In sparse mode the
    /// result holds exactly the `needed` rows in request order — pair it
    /// with the column-compacted sparse panel
    /// ([`cagnet_sparse::Csr::compact_cols`]) so accumulation order, and
    /// therefore every bit of the result, matches the dense path.
    fn wait(self, needed: &[usize]) -> Arc<Mat> {
        match self {
            Fetch::Dense(op) => op.wait(),
            Fetch::Sparse(op) => op.wait().compact(needed),
            Fetch::Cached(mat) => mat,
        }
    }
}

/// The stage-fetch pipeline every distributed trainer runs its stage
/// loops through. Each stage of the paper's algorithms fetches a remote
/// block of a dense operand (`H`, `G`, or a SUMMA `D` panel) from its
/// owner, and the rank multiplies it into a partial sum; only that
/// multiply differs between trainers. The fetcher owns everything else:
///
/// * the [`CommMode`] — a dense `ibcast_shared`, a sparsity-aware
///   `igather_rows` of the receiver's needed rows, or the cached tier's
///   refresh gather (`igather_rows_refresh`) / cache serve with its
///   [`Cat::CacheHit`] metering (DESIGN.md §9, §13);
/// * the overlap flag — with overlap on a collective is issued when it is
///   requested, with overlap off where it is waited (see [`Deferred`]);
/// * the training/refresh state and the rank-local halo cache, which it
///   fills on refresh epochs itself.
#[derive(Debug)]
pub(crate) struct StageFetcher {
    mode: CommMode,
    overlap: bool,
    /// Inside [`StageFetcher::begin_epoch`] .. [`StageFetcher::end_epoch`]:
    /// a training pass (dropout on; the cached tier reads and writes the
    /// cache). Evaluation forwards always gather fresh.
    training: bool,
    cache: RefCell<HaloCache>,
}

impl Default for StageFetcher {
    fn default() -> Self {
        StageFetcher {
            mode: CommMode::Dense,
            overlap: true,
            training: false,
            cache: RefCell::default(),
        }
    }
}

impl StageFetcher {
    /// Select the comm tier; always drops the halo cache, so a mode
    /// change (or a re-set after mutating state) can never serve stale
    /// blocks.
    pub(crate) fn set_mode(&mut self, mode: CommMode) {
        self.cache.get_mut().invalidate();
        self.mode = mode;
    }

    /// Enable or disable issue-ahead overlap.
    pub(crate) fn set_overlap(&mut self, overlap: bool) {
        self.overlap = overlap;
    }

    /// Whether stage operands move as compact needed-row sets (see
    /// [`CommMode::sparse_exchange`]): trainers then multiply against
    /// column-compacted sparse panels.
    pub(crate) fn sparse_exchange(&self) -> bool {
        self.mode.sparse_exchange()
    }

    /// Whether a training epoch is in progress.
    pub(crate) fn training(&self) -> bool {
        self.training
    }

    /// Start training epoch `epoch` (1-based); in cached mode, decide
    /// once for its whole forward+backward pass whether it refreshes.
    pub(crate) fn begin_epoch(&mut self, epoch: u64) {
        self.training = true;
        let cache = self.cache.get_mut();
        cache.next_slot = 0;
        if let Some(refresh) = self.mode.cached_refresh() {
            cache.begin_epoch(refresh, epoch as usize);
        }
    }

    /// End the training epoch started by [`StageFetcher::begin_epoch`].
    pub(crate) fn end_epoch(&mut self) {
        self.training = false;
    }

    /// Request a nonblocking collective: with overlap on it is issued
    /// now and completes at [`Deferred::wait`]; with overlap off it is
    /// issued at the wait itself, where a blocking call would sit.
    pub(crate) fn defer<'a, T: 'a>(
        &self,
        issue: impl FnOnce() -> PendingOp<'a, T> + 'a,
    ) -> Deferred<'a, T> {
        self.deferred(issue, PendingOp::wait)
    }

    /// `issue` now and `finish` at the wait (overlap on), or both at the
    /// wait (overlap off).
    fn deferred<'a, P: 'a, T>(
        &self,
        issue: impl FnOnce() -> P + 'a,
        finish: impl FnOnce(P) -> T + 'a,
    ) -> Deferred<'a, T> {
        if self.overlap {
            let pending = issue();
            Deferred(Box::new(move || finish(pending)))
        } else {
            Deferred(Box::new(move || finish(issue())))
        }
    }

    /// Request one stage's operand: member `root` of `comm` owns the
    /// block (`block` is `Some` exactly there), whose root-side
    /// dimensions every rank knows as `dims` (fingerprinted under
    /// CheckMode); the rank reads rows `needed` of it. Waiting yields the
    /// full block in dense mode and the compact `needed` rows otherwise.
    pub(crate) fn fetch<'a>(
        &'a self,
        comm: &'a Communicator,
        root: usize,
        block: Option<Arc<Mat>>,
        needed: &'a [usize],
        dims: (usize, usize),
    ) -> Deferred<'a, Arc<Mat>> {
        // Slots are numbered in request order, which is identical on
        // every training epoch.
        let slot = self.cache.borrow_mut().take_slot();
        let remote = block.is_none();
        self.deferred(
            move || self.issue(comm, root, block, needed, dims, slot),
            move |fetch| {
                let out = fetch.wait(needed);
                // The root's own block is always served fresh, never
                // cached.
                if remote && self.cache_refreshing() == Some(true) {
                    self.cache.borrow_mut().store(slot, out.clone());
                }
                out
            },
        )
    }

    /// Issue one stage fetch per the comm tier.
    fn issue<'c>(
        &self,
        comm: &'c Communicator,
        root: usize,
        block: Option<Arc<Mat>>,
        needed: &[usize],
        dims: (usize, usize),
        slot: usize,
    ) -> Fetch<'c> {
        match self.mode {
            CommMode::Dense => Fetch::Dense(comm.ibcast_shared(root, block, Cat::DenseComm)),
            CommMode::SparsityAware => {
                Fetch::Sparse(comm.igather_rows(root, block, needed, Some(dims), Cat::DenseComm))
            }
            CommMode::Cached { .. } => {
                if self.cached_serving() {
                    Fetch::Cached(self.serve_cached(comm, block, needed, dims, slot))
                } else if self.training {
                    Fetch::Sparse(comm.igather_rows_refresh(
                        root,
                        block,
                        needed,
                        Some(dims),
                        Cat::DenseComm,
                    ))
                } else {
                    Fetch::Sparse(comm.igather_rows(
                        root,
                        block,
                        needed,
                        Some(dims),
                        Cat::DenseComm,
                    ))
                }
            }
        }
    }

    /// In a training pass of the cached tier, whether it refreshes the
    /// halo cache (`Some(true)`) or serves it (`Some(false)`); `None`
    /// otherwise — evaluation passes always gather fresh.
    fn cache_refreshing(&self) -> Option<bool> {
        let cached = self.mode.cached_refresh().is_some() && self.training;
        cached.then(|| self.cache.borrow().refreshing())
    }

    /// Whether this pass serves stage operands from the halo cache.
    fn cached_serving(&self) -> bool {
        self.cache_refreshing() == Some(false)
    }

    /// Serve a stage operand without any collective: the root compacts
    /// its own block fresh (zero words, like the root of the skipped
    /// gather); every other rank reads the cache, metering the words the
    /// skipped gather would have moved under [`Cat::CacheHit`].
    fn serve_cached(
        &self,
        comm: &Communicator,
        block: Option<Arc<Mat>>,
        needed: &[usize],
        dims: (usize, usize),
        slot: usize,
    ) -> Arc<Mat> {
        match block {
            Some(own) => GatheredRows::full(own).compact(needed),
            None => {
                comm.cache_hit(needed.len() as u64 * (dims.1 as u64 + 1));
                self.cache.borrow().get(slot)
            }
        }
    }
}

/// Rank-local cache of the compact stage operands a trainer fetched on
/// its last refresh epoch (`CommMode::Cached`, DESIGN.md §13). One slot
/// per stage fetch of a training pass, numbered in request order. The
/// refresh-vs-serve decision is taken **once per training epoch**
/// ([`HaloCache::begin_epoch`]) and replicated across ranks (epoch
/// counters and refresh periods are identical everywhere), so on serve
/// epochs no rank issues the collective and the BSP sequence stays
/// aligned; on refresh epochs every rank gathers through the
/// `*_refresh`-fingerprinted collectives.
#[derive(Debug, Default)]
struct HaloCache {
    slots: Vec<Option<Arc<Mat>>>,
    /// Slot of the next stage fetch in the current pass.
    next_slot: usize,
    /// Whether the current training epoch refreshes (gathers fresh rows)
    /// instead of serving the cache.
    refresh_now: bool,
    /// A refresh epoch has completed since construction/invalidation.
    valid: bool,
}

impl HaloCache {
    /// Decide once, at the top of training epoch `epoch` (1-based), and
    /// for the whole forward+backward pass, whether this epoch refreshes.
    /// Refresh is due when the cache has never been filled (or was
    /// invalidated) or when the periodic schedule hits: epochs `1`,
    /// `1 + refresh`, `1 + 2·refresh`, ...
    fn begin_epoch(&mut self, refresh: usize, epoch: usize) {
        assert!(refresh >= 1, "CommMode::Cached refresh must be >= 1");
        self.refresh_now = !self.valid || (epoch.max(1) - 1).is_multiple_of(refresh);
        // The pass ahead repopulates every slot it will later serve, and
        // while `refresh_now` holds no slot is read — so the cache can be
        // declared valid immediately.
        if self.refresh_now {
            self.valid = true;
        }
    }

    /// Whether the current epoch gathers fresh rows (true) or serves the
    /// cache (false). Stable for the whole pass.
    fn refreshing(&self) -> bool {
        self.refresh_now
    }

    /// Drop every cached block and force the next training epoch to
    /// refresh — required whenever the precomputed needed-row sets or the
    /// adjacency may have changed (re-setup, `set_comm_mode`).
    fn invalidate(&mut self) {
        self.slots.clear();
        self.valid = false;
        self.refresh_now = false;
    }

    /// Number the next stage fetch of this pass.
    fn take_slot(&mut self) -> usize {
        self.next_slot += 1;
        self.next_slot - 1
    }

    /// Store the compact block fetched for `slot` on a refresh epoch.
    fn store(&mut self, slot: usize, block: Arc<Mat>) {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, None);
        }
        self.slots[slot] = Some(block);
    }

    /// Serve the cached compact block for `slot`.
    fn get(&self, slot: usize) -> Arc<Mat> {
        match self.slots.get(slot) {
            Some(Some(b)) => b.clone(),
            _ => panic!(
                "halo cache: serve of slot {slot} before any refresh epoch populated it \
                 (cache invalidation or refresh scheduling bug)"
            ),
        }
    }
}

/// The newest stored activation `H^L` — the trainer's output block.
/// Trainers seed `hs` with the feature block at construction, so this
/// cannot fail after `setup`; the message covers direct misuse. Generic
/// over the storage: plain `Mat` stacks and the `Arc<Mat>` stacks the
/// distributed trainers keep (so their own block rides into collectives
/// without a copy) both work.
pub(crate) fn output_block<M: Borrow<Mat>>(hs: &[M]) -> &Mat {
    match hs.last() {
        Some(h) => h.borrow(),
        None => panic!("no stored activations: run setup/forward first"),
    }
}

/// [`output_block`] for the `Arc<Mat>` stacks: the shared handle itself,
/// so the output block enters `allgather_shared` without a deep copy.
pub(crate) fn output_block_shared(hs: &[Arc<Mat>]) -> Arc<Mat> {
    match hs.last() {
        Some(h) => h.clone(),
        None => panic!("no stored activations: run setup/forward first"),
    }
}

/// Column-compacted copies of a row-distributed layout's stage panels
/// (columns renumbered to each stage's `needed` order) for multiplying
/// compact gathered operands.
fn compacted(blocks: &[Csr], needed: &[Vec<usize>]) -> Vec<Csr> {
    blocks
        .iter()
        .zip(needed)
        .map(|(a, nd)| a.compact_cols(nd))
        .collect()
}

/// The end of one backward layer in the row-distributed layouts (1D,
/// 1D-row, 1.5D), given my block row `ag` of `A G^l`: the small outer
/// product `Y = (H^{l-1})ᵀ (A G)` all-reduced over the world (§IV-A.4),
/// the replicated weight update, and for `l > 0` the next gradient
/// `G^{l-1} = (A G) (W^l)ᵀ ⊙ σ'(Z^{l-1})`, which it returns. With overlap
/// on, the `f x f` all-reduce is in flight while that gradient GEMM
/// computes; the update only needs `Y` afterwards.
fn row_backward_step(s: &mut TrainState, ctx: &Ctx, l: usize, ag: &Mat) -> Option<Mat> {
    let (f_in, f_out) = s.weights[l].shape();
    ctx.charge_gemm(f_in, ag.rows(), f_out);
    let y_partial = matmul_tn_with(ctx.parallel(), &s.hs[l], ag);
    let y_op = s
        .stages
        .defer(|| ctx.world.iallreduce_mat(&y_partial, Cat::DenseComm));
    let next = (l > 0).then(|| {
        ctx.charge_gemm(ag.rows(), f_out, f_in);
        let mut g = matmul_nt_with(ctx.parallel(), ag, &s.weights[l]);
        s.activation_grad(ctx, l, &mut g);
        g
    });
    s.step(ctx, l, &y_op.wait());
    next
}

/// All-gather `block` along a grid layout's process `row` and join the
/// pieces side by side into full-width rows.
fn hstack_row(row: &Communicator, block: Arc<Mat>) -> Mat {
    let parts = row.allgather_shared(block, Cat::DenseComm);
    Mat::hstack(&parts.iter().map(|p| (**p).clone()).collect::<Vec<_>>())
}

/// Partial SUMMA against the replicated `W` on a grid layout's process
/// `row`, where this rank is member `j` (§IV-C.1, §IV-D.1):
/// `out += Σ_s T_s · W[in-block s, out-block j]`, member `s` owning
/// `T_s`. These stages stay dense broadcasts in every [`CommMode`]: the
/// stage GEMM reads *all* rows of the broadcast `T` block, so a row
/// gather would request every row and only add the per-row index words.
fn partial_summa_w(
    stages: &StageFetcher,
    ctx: &Ctx,
    row: &Communicator,
    j: usize,
    t_mine: &Arc<Mat>,
    w: &Mat,
) -> Mat {
    let parts = row.size();
    let (f_in, f_out) = w.shape();
    let (oc0, oc1) = block_range(f_out, parts, j);
    let mut out = Mat::zeros(t_mine.rows(), oc1 - oc0);
    // Arc payloads: my own T block is never deep-copied into the
    // collective.
    run_stages(
        parts,
        |s| {
            stages.defer(move || {
                row.ibcast_shared(s, (j == s).then(|| t_mine.clone()), Cat::DenseComm)
            })
        },
        |s, t_hat| {
            let t_hat = t_hat.wait();
            let (ic0, ic1) = block_range(f_in, parts, s);
            debug_assert_eq!(ic1 - ic0, t_hat.cols(), "stage width mismatch");
            if ic1 == ic0 || oc1 == oc0 {
                return;
            }
            ctx.charge_gemm(t_hat.rows(), ic1 - ic0, oc1 - oc0);
            let w_slice = w.block(ic0, ic1, oc0, oc1);
            matmul_acc_with(ctx.parallel(), &t_hat, &w_slice, &mut out);
        },
    );
    out
}

/// The output layer of a grid layout (2D, 3D), whose dense blocks split
/// the feature columns: `log_softmax` is not elementwise, so each
/// process row all-gathers its `Z^L` blocks into full-width rows first
/// (§IV-C.2, §IV-D.2).
struct RowOutput {
    /// Full-width output log-probabilities of my rows (valid after
    /// forward; identical across a process row), shared so
    /// `gather_embeddings` moves it without a copy.
    h: Arc<Mat>,
    /// Full-width output softmax of my rows (for `G^L`).
    p: Mat,
}

impl Default for RowOutput {
    fn default() -> Self {
        RowOutput {
            h: Arc::new(Mat::zeros(0, 0)),
            p: Mat::zeros(0, 0),
        }
    }
}

impl RowOutput {
    /// Compute the full-width output rows from my `Z^L` block, as member
    /// `j` of the process `row`, and return my column block of `H^L`.
    fn forward(&mut self, ctx: &Ctx, row: &Communicator, j: usize, z: &Arc<Mat>) -> Mat {
        let z_row = hstack_row(row, z.clone());
        ctx.charge_elementwise(2 * z_row.len());
        self.h = Arc::new(log_softmax_rows(&z_row));
        self.p = softmax_rows(&z_row);
        let (oc0, oc1) = block_range(z_row.cols(), row.size(), j);
        self.h.block(0, z_row.rows(), oc0, oc1)
    }

    /// My columns `cols` of the output gradient
    /// `G^L = (softmax − onehot) / train_count` on masked rows, my first
    /// row being global vertex `r0`.
    fn gradient(&self, s: &TrainState, r0: usize, cols: (usize, usize)) -> Mat {
        let rows = self.p.rows();
        let scale = 1.0 / s.train_count as f64;
        let mut g = Mat::zeros(rows, cols.1 - cols.0);
        for r in 0..rows {
            let gv = r0 + r;
            if !s.mask[gv] {
                continue;
            }
            let out = g.row_mut(r);
            for (cl, c) in (cols.0..cols.1).enumerate() {
                let mut v = self.p[(r, c)] * scale;
                if c == s.labels[gv] {
                    v -= scale;
                }
                out[cl] = v;
            }
        }
        g
    }

    /// Stored words.
    fn words(&self) -> usize {
        self.h.len() + self.p.len()
    }
}

/// All-gather the column blocks of a grid layout's reduced weight
/// gradient `y_j` along the process `row` into the replicated
/// `f_in x f_out` gradient.
fn replicate_y(row: &Communicator, y_j: Mat) -> Mat {
    let y_parts = row.allgather(y_j, Cat::DenseComm);
    Mat::vstack(&y_parts.iter().map(|p| (**p).clone()).collect::<Vec<_>>())
}

/// Per-rank storage footprint, in 8-byte words — the quantity behind the
/// paper's memory arguments: 2D "consumes optimal memory" (§I), 1.5D pays
/// `c`-fold replication (§IV-B), the 1D backward materializes `O(nf)`
/// low-rank intermediates (§IV-A.3), and 3D replicates intermediates by
/// `∛P` (§IV-D).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StorageReport {
    /// Sparse adjacency blocks held by this rank (2 words per stored
    /// nonzero + row pointers), counting replicas.
    pub adjacency: usize,
    /// Persistent dense state after a forward pass: feature block plus
    /// stored activations `H^l` and pre-activations `Z^l` for backprop.
    pub dense_state: usize,
    /// Largest transient buffer the algorithm materializes during an
    /// epoch (outer-product contributions, SUMMA partial sums,
    /// all-gathered row slabs).
    pub intermediate: usize,
}

impl StorageReport {
    /// Total words.
    pub fn total(&self) -> usize {
        self.adjacency + self.dense_state + self.intermediate
    }
}

/// Storage words of a CSR block: values + column indices + row pointers.
pub(crate) fn csr_words(a: &Csr) -> usize {
    2 * a.nnz() + a.rows() + 1
}

/// Total elements across a stack of dense matrices.
pub(crate) fn mats_words<M: Borrow<Mat>>(ms: &[M]) -> usize {
    ms.iter().map(|m| m.borrow().len()).sum()
}

/// All-gather per-rank `(correct, total)` accuracy counts and return the
/// global accuracy fraction. Shared by every distributed trainer.
pub(crate) fn global_accuracy(ctx: &Ctx, correct: usize, total: usize) -> f64 {
    let c = ctx.world.allreduce_scalar(correct as f64, Cat::DenseComm);
    let t = ctx.world.allreduce_scalar(total as f64, Cat::DenseComm);
    if t == 0.0 {
        0.0
    } else {
        c / t
    }
}

/// Assemble row blocks gathered in rank order into a full matrix.
pub(crate) fn assemble_row_blocks(blocks: &[std::sync::Arc<Mat>]) -> Mat {
    let parts: Vec<Mat> = blocks.iter().map(|b| (**b).clone()).collect();
    Mat::vstack(&parts)
}
