//! Wall-clock benchmark of cagnet-rs training.
//!
//! The benchmark drives the public trainer API exactly as
//! [`train_distributed`](cagnet_core::trainer::train_distributed) does —
//! [`Cluster::run_wire`] → `*Trainer::setup` → the same setters → `epoch`
//! — and times each layer from the outside with [`Instant`] spans around
//! calls into that layer's public functions. Nothing inside the program is
//! instrumented.
//!
//! One *child run* is one process that makes exactly one `run_wire` call
//! ([`child_run`]). Socket workers re-execute the benchmark binary and
//! replay every earlier socket run of the process, so keeping one run per
//! process keeps that replay empty; the orchestrator in `main.rs` repeats
//! child runs and aggregates them.

use std::sync::Arc;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use cagnet_comm::frame::{FrameError, Reader};
use cagnet_comm::{Cat, CheckMode, Cluster, CostModel, Ctx, Precision, TimelineReport};
use cagnet_comm::{TransportKind, Wire};
use cagnet_core::dist::onedim::OneDimTrainer;
use cagnet_core::dist::twodim::TwoDimTrainer;
use cagnet_core::trainer::{Algorithm, TrainConfig};
use cagnet_core::{CommMode, GcnConfig, Problem, SerialTrainer};
use cagnet_dense::{init::uniform, matmul_nt_with, matmul_tn_with, matmul_with, Mat};
use cagnet_parallel::ParallelCtx;
use cagnet_sparse::datasets::{self, DatasetSpec};
use cagnet_sparse::partition::{block_range, block_ranges};
use cagnet_sparse::spmm::spmm_with;

/// Seed of the features and labels drawn by [`Problem::from_dataset`] —
/// the value the `runner` binary uses, so a benchmark run at graph seed
/// `0xBE7C` trains the runner's `--dataset amazon|protein` problem.
pub const PROBLEM_SEED: u64 = 11;

/// Tolerance on the first two epochs' losses against [`SerialTrainer`]
/// (the §V-A check of `tests/parallel_matches_serial.rs`).
pub const SERIAL_TOLERANCE: f64 = 1e-8;

/// Calls per replayed collective in a traced run; the per-call median is
/// reported.
const COLLECTIVE_REPS: usize = 3;

/// Repetitions of each kernel replay in a traced run; the median is
/// reported.
const KERNEL_REPS: usize = 5;

/// One benchmark workload: a problem shape plus a full trainer and
/// cluster configuration. Every knob the environment could otherwise pick
/// (transport, check mode, wire precision, thread budget) is fixed here.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Dataset stand-in.
    pub dataset: DatasetSpec,
    /// `datasets::generate` scale-down divisor (the `bench_dataset` shape).
    pub scale_down: usize,
    /// `datasets::generate` degree cap (the `bench_dataset` shape).
    pub max_degree: usize,
    /// Distributed algorithm.
    pub algo: Algorithm,
    /// Rank count.
    pub ranks: usize,
    /// Intra-rank kernel threads.
    pub threads_per_rank: usize,
    /// Transport backend.
    pub transport: TransportKind,
    /// Communication tier.
    pub comm_mode: CommMode,
    /// Nonblocking comm/compute overlap.
    pub overlap: bool,
    /// Wire precision of dense collectives.
    pub precision: Precision,
    /// Epochs per child run; the first is the excluded warm-up.
    pub epochs: usize,
}

/// The benchmark's workloads. All use at most two ranks or threads, the
/// core count of the host the benchmark was defined on.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "amazon-1d-socket-sparse",
        dataset: datasets::AMAZON,
        scale_down: 288,
        max_degree: 25,
        algo: Algorithm::OneD,
        ranks: 2,
        threads_per_rank: 1,
        transport: TransportKind::Socket,
        comm_mode: CommMode::SparsityAware,
        overlap: true,
        precision: Precision::F64,
        epochs: 6,
    },
    Workload {
        name: "protein-2d-shared-dense",
        dataset: datasets::PROTEIN,
        scale_down: 267,
        max_degree: 48,
        algo: Algorithm::TwoDRect { pr: 2, pc: 1 },
        ranks: 2,
        threads_per_rank: 1,
        transport: TransportKind::Shared,
        comm_mode: CommMode::Dense,
        overlap: true,
        precision: Precision::F64,
        epochs: 6,
    },
    Workload {
        name: "protein-serial-2t",
        dataset: datasets::PROTEIN,
        scale_down: 267,
        max_degree: 48,
        algo: Algorithm::OneD,
        ranks: 1,
        threads_per_rank: 2,
        transport: TransportKind::Shared,
        comm_mode: CommMode::Dense,
        overlap: true,
        precision: Precision::F64,
        epochs: 5,
    },
];

impl Workload {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The training problem for graph seed `seed`: the R-MAT stand-in
    /// from `datasets::generate` plus [`PROBLEM_SEED`] features and
    /// labels, and the paper's 3-layer GCN for it.
    pub fn problem(&self, seed: u64) -> (Problem, GcnConfig) {
        let ds = datasets::generate(&self.dataset, self.scale_down, self.max_degree, seed);
        let problem = Problem::from_dataset(&ds, PROBLEM_SEED);
        let gcn = cagnet_bench::bench_gcn(&ds);
        (problem, gcn)
    }

    /// The cost model every modeled metric is priced under.
    pub fn model(&self) -> CostModel {
        CostModel::summit_like()
    }

    /// The run options [`train_distributed`](cagnet_core::trainer::train_distributed)
    /// would need to train this workload for `epochs` epochs.
    pub fn train_config(&self, epochs: usize) -> TrainConfig {
        TrainConfig {
            epochs,
            threads_per_rank: self.threads_per_rank,
            comm_mode: self.comm_mode,
            overlap: self.overlap,
            transport: Some(self.transport),
            precision: self.precision,
            ..TrainConfig::default()
        }
    }

    /// The cluster `train_distributed` builds for [`Self::train_config`],
    /// with collective checking pinned off instead of read from the
    /// environment.
    pub fn cluster(&self) -> Cluster {
        Cluster::new(self.ranks)
            .with_model(self.model())
            .with_threads_per_rank(self.threads_per_rank)
            .with_precision(self.precision)
            .with_transport(self.transport)
            .with_check(CheckMode::Off)
    }

    /// Rows of `Â` a rank owns: the block-row height of the 1D layout or
    /// of the 2D grid's process rows (every workload keeps whole rows per
    /// rank, so GEMM replays use the full layer widths).
    fn local_rows(&self, n: usize, rank: usize) -> (usize, usize) {
        let groups = self.algo.row_groups(self.ranks);
        let group = match self.algo {
            Algorithm::TwoDRect { pc, .. } => rank / pc,
            _ => rank,
        };
        block_range(n, groups, group)
    }
}

/// Wall-clock seconds since the Unix epoch, in nanoseconds. Ranks of a
/// socket run live in different processes, so cross-rank instants are
/// compared on this shared clock.
pub fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Trainer dispatch.
// ---------------------------------------------------------------------

/// The trainers the workloads use.
pub enum AnyTrainer {
    /// 1D block row.
    OneD(Box<OneDimTrainer>),
    /// 2D SUMMA on a rectangular grid.
    TwoD(Box<TwoDimTrainer>),
}

macro_rules! each {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            AnyTrainer::OneD($t) => $body,
            AnyTrainer::TwoD($t) => $body,
        }
    };
}

impl AnyTrainer {
    /// `*Trainer::setup` followed by the setters, in the order and with
    /// the values `train_distributed` applies for `tc`.
    pub fn setup(
        ctx: &Ctx,
        problem: &Problem,
        gcn: &GcnConfig,
        algo: Algorithm,
        tc: &TrainConfig,
    ) -> AnyTrainer {
        let mut tr = match algo {
            Algorithm::OneD => AnyTrainer::OneD(Box::new(OneDimTrainer::setup(ctx, problem, gcn))),
            Algorithm::TwoDRect { pr, pc } => AnyTrainer::TwoD(Box::new(
                TwoDimTrainer::setup_rect(ctx, problem, gcn, tc.twod, pr, pc),
            )),
            other => panic!("no benchmark workload uses {}", other.name()),
        };
        each!(&mut tr, t => {
            t.set_optimizer(tc.optimizer);
            t.set_hidden_activation(tc.activation);
            t.set_dropout(tc.dropout);
            t.set_comm_mode(tc.comm_mode);
            t.set_overlap(tc.overlap);
        });
        tr
    }

    /// One training epoch; returns the pre-update loss.
    pub fn epoch(&mut self, ctx: &Ctx) -> f64 {
        each!(self, t => t.epoch(ctx))
    }

    /// Forward pass; returns the loss.
    pub fn forward(&mut self, ctx: &Ctx) -> f64 {
        each!(self, t => t.forward(ctx))
    }

    /// Backward pass and weight update.
    pub fn backward(&mut self, ctx: &Ctx) {
        each!(self, t => t.backward(ctx))
    }

    /// Replicated weights.
    pub fn weights(&self) -> Vec<Mat> {
        each!(self, t => t.weights().to_vec())
    }
}

// ---------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------

/// Sentinel parent of a root span.
pub const NO_PARENT: u64 = u64::MAX;

/// One timed call into a layer, recorded by the benchmark around a public
/// function.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.forward`.
    pub name: String,
    /// Start, Unix nanoseconds.
    pub start_ns: u64,
    /// End, Unix nanoseconds.
    pub end_ns: u64,
    /// Index of the enclosing span in the same rank's list, or
    /// [`NO_PARENT`].
    pub parent: u64,
    /// Rank that recorded it.
    pub rank: u64,
    /// Epoch (0-based), or [`NO_PARENT`] outside the epoch loop.
    pub epoch: u64,
    /// Child-run id.
    pub run: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

impl Wire for Span {
    fn put(&self, out: &mut Vec<u8>) {
        self.name.put(out);
        for v in [
            self.start_ns,
            self.end_ns,
            self.parent,
            self.rank,
            self.epoch,
            self.run,
        ] {
            v.put(out);
        }
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(Span {
            name: String::take(r)?,
            start_ns: u64::take(r)?,
            end_ns: u64::take(r)?,
            parent: u64::take(r)?,
            rank: u64::take(r)?,
            epoch: u64::take(r)?,
            run: u64::take(r)?,
        })
    }
}

/// In-memory span recorder of one rank. Spans are shipped back to the
/// launcher with the rank's result and written once at the end.
struct Tracer {
    base: Instant,
    base_ns: u64,
    rank: u64,
    run: u64,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(rank: usize, run: u64) -> Self {
        Tracer {
            base: Instant::now(),
            base_ns: unix_ns(),
            rank: rank as u64,
            run,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base_ns + self.base.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    fn open(&mut self, name: &str, parent: Option<usize>, epoch: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: parent.map_or(NO_PARENT, |p| p as u64),
            rank: self.rank,
            epoch: epoch.map_or(NO_PARENT, |e| e as u64),
            run: self.run,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in seconds.
    fn close(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].seconds()
    }

    /// Record `f` as one span.
    fn span<R>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(name, parent, None);
        let out = f();
        (out, self.close(id))
    }
}

// ---------------------------------------------------------------------
// Per-rank results.
// ---------------------------------------------------------------------

/// What one rank of a child run ships back through `run_wire`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RankRun {
    /// Pre-update loss of every epoch.
    pub losses: Vec<f64>,
    /// Final replicated weights.
    pub weights: Vec<Mat>,
    /// Timeline snapshot right after the last epoch.
    pub report: TimelineReport,
    /// Seconds this rank's process spent in `datasets::generate` +
    /// `Problem::from_dataset` before `run_wire`.
    pub generate_s: f64,
    /// Seconds in `setup` plus the setters.
    pub setup_s: f64,
    /// When setup finished (and, traced, the post-setup barrier was
    /// passed), Unix nanoseconds.
    pub setup_end_ns: u64,
    /// Wall seconds of each epoch (forward + backward).
    pub epoch_s: Vec<f64>,
    /// Traced only: when the rank left the first barrier of the closure.
    pub launch_end_ns: u64,
    /// Traced only: per-epoch forward seconds.
    pub forward_s: Vec<f64>,
    /// Traced only: per-epoch backward seconds.
    pub backward_s: Vec<f64>,
    /// Traced only: per-epoch seconds in the barrier after the epoch.
    pub wait_s: Vec<f64>,
    /// Traced only: per-call seconds of the replayed `gather_rows`.
    pub gather_rows_s: Vec<f64>,
    /// Traced only: per-call seconds of the replayed `allreduce_mat`.
    pub allreduce_mat_s: Vec<f64>,
    /// Traced only: per-call seconds of the replayed `bcast_shared`.
    pub bcast_s: Vec<f64>,
    /// Traced only, rank 0: kernel replay results.
    pub kernels: Vec<KernelReplay>,
    /// Traced only: every span this rank recorded.
    pub spans: Vec<Span>,
}

/// One kernel replay measurement: median seconds of the whole set of
/// calls and the flops it performs.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct KernelReplay {
    /// 0 = GEMM, 1 = SpMM.
    pub kind: u64,
    /// Whether the replay ran on `ctx.parallel()` (else serial).
    pub parallel: bool,
    /// Median seconds of one replay.
    pub seconds: f64,
    /// Floating-point operations of one replay.
    pub flops: f64,
}

/// [`KernelReplay::kind`] of the GEMM replay.
pub const KERNEL_GEMM: u64 = 0;
/// [`KernelReplay::kind`] of the SpMM replay.
pub const KERNEL_SPMM: u64 = 1;

impl Wire for KernelReplay {
    fn put(&self, out: &mut Vec<u8>) {
        self.kind.put(out);
        self.parallel.put(out);
        self.seconds.put(out);
        self.flops.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(KernelReplay {
            kind: u64::take(r)?,
            parallel: bool::take(r)?,
            seconds: f64::take(r)?,
            flops: f64::take(r)?,
        })
    }
}

impl Wire for RankRun {
    fn put(&self, out: &mut Vec<u8>) {
        self.losses.put(out);
        self.weights.put(out);
        self.report.put(out);
        self.generate_s.put(out);
        self.setup_s.put(out);
        self.setup_end_ns.put(out);
        self.epoch_s.put(out);
        self.launch_end_ns.put(out);
        self.forward_s.put(out);
        self.backward_s.put(out);
        self.wait_s.put(out);
        self.gather_rows_s.put(out);
        self.allreduce_mat_s.put(out);
        self.bcast_s.put(out);
        self.kernels.put(out);
        self.spans.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(RankRun {
            losses: Wire::take(r)?,
            weights: Wire::take(r)?,
            report: Wire::take(r)?,
            generate_s: Wire::take(r)?,
            setup_s: Wire::take(r)?,
            setup_end_ns: Wire::take(r)?,
            epoch_s: Wire::take(r)?,
            launch_end_ns: Wire::take(r)?,
            forward_s: Wire::take(r)?,
            backward_s: Wire::take(r)?,
            wait_s: Wire::take(r)?,
            gather_rows_s: Wire::take(r)?,
            allreduce_mat_s: Wire::take(r)?,
            bcast_s: Wire::take(r)?,
            kernels: Wire::take(r)?,
            spans: Wire::take(r)?,
        })
    }
}

/// Everything one child run reports to the orchestrator.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChildRun {
    /// Whether the run was traced.
    pub traced: bool,
    /// `run_wire` was called at this instant, Unix nanoseconds.
    pub launch_ns: u64,
    /// Peak resident set of the launcher process (`VmHWM`), KiB.
    pub peak_rss_kb: u64,
    /// Per-rank results, indexed by rank.
    pub ranks: Vec<RankRun>,
}

impl Wire for ChildRun {
    fn put(&self, out: &mut Vec<u8>) {
        self.traced.put(out);
        self.launch_ns.put(out);
        self.peak_rss_kb.put(out);
        self.ranks.put(out);
    }
    fn take(r: &mut Reader<'_>) -> Result<Self, FrameError> {
        Ok(ChildRun {
            traced: Wire::take(r)?,
            launch_ns: Wire::take(r)?,
            peak_rss_kb: Wire::take(r)?,
            ranks: Wire::take(r)?,
        })
    }
}

// ---------------------------------------------------------------------
// The child run.
// ---------------------------------------------------------------------

/// Make one child run: generate the input, call `run_wire` once, and
/// return every rank's result. On the socket transport the worker
/// processes re-execute the calling binary, repeat everything up to
/// `run_wire` and never return from it — so nothing before that call may
/// have effects a worker should not repeat.
pub fn child_run(w: &Workload, seed: u64, traced: bool, run: u64) -> ChildRun {
    let t = Instant::now();
    let (problem, gcn) = w.problem(seed);
    let generate_s = t.elapsed().as_secs_f64();
    let launch_ns = unix_ns();
    let ranks = drive(w, &problem, &gcn, w.epochs, traced, run, generate_s);
    ChildRun {
        traced,
        launch_ns,
        peak_rss_kb: peak_rss_kb(),
        ranks,
    }
}

/// Train `problem` under workload `w`'s configuration for `epochs`
/// epochs through one `run_wire` call and return every rank's result.
/// `generate_s` is the calling process's input-generation time; each
/// socket worker passes its own, so every rank reports its process's.
pub fn drive(
    w: &Workload,
    problem: &Problem,
    gcn: &GcnConfig,
    epochs: usize,
    traced: bool,
    run: u64,
    generate_s: f64,
) -> Vec<RankRun> {
    let tc = w.train_config(epochs);
    w.cluster()
        .run_wire(|ctx| {
            let mut out = if traced {
                traced_rank(ctx, w, problem, gcn, &tc, run)
            } else {
                untraced_rank(ctx, w, problem, gcn, &tc)
            };
            out.generate_s = generate_s;
            out
        })
        .into_iter()
        .map(|(r, _)| r)
        .collect()
}

/// The measured loop with tracing off: setup, then `epochs` calls to
/// `epoch`, each timed on its own. No barrier is added, so the timeline —
/// and every modeled and metered number — is exactly `train_distributed`'s.
fn untraced_rank(
    ctx: &Ctx,
    w: &Workload,
    problem: &Problem,
    gcn: &GcnConfig,
    tc: &TrainConfig,
) -> RankRun {
    let t = Instant::now();
    let mut tr = AnyTrainer::setup(ctx, problem, gcn, w.algo, tc);
    let setup_s = t.elapsed().as_secs_f64();
    let setup_end_ns = unix_ns();
    let mut losses = Vec::with_capacity(tc.epochs);
    let mut epoch_s = Vec::with_capacity(tc.epochs);
    for _ in 0..tc.epochs {
        let t = Instant::now();
        losses.push(tr.epoch(ctx));
        epoch_s.push(t.elapsed().as_secs_f64());
    }
    RankRun {
        losses,
        weights: tr.weights(),
        report: ctx.report(),
        setup_s,
        setup_end_ns,
        epoch_s,
        ..RankRun::default()
    }
}

/// The traced loop: spans around every layer call, world barriers to
/// separate launch, setup and each epoch's load-imbalance wait, then
/// replays of the collectives and kernels the epochs used.
///
/// Epochs call `forward` and `backward` separately so each gets a span.
/// That equals `epoch` for every workload here: they train without
/// dropout and outside the cached tier, the only state `epoch` adds.
fn traced_rank(
    ctx: &Ctx,
    w: &Workload,
    problem: &Problem,
    gcn: &GcnConfig,
    tc: &TrainConfig,
    run: u64,
) -> RankRun {
    let mut tr = Tracer::new(ctx.rank, run);
    tr.span("comm.launch_barrier", None, || ctx.world.barrier());
    let launch_end_ns = tr.now_ns();
    let ((mut trainer, setup_s), _) = tr.span("core.setup+barrier", None, || {
        let t = Instant::now();
        let trainer = AnyTrainer::setup(ctx, problem, gcn, w.algo, tc);
        let setup_s = t.elapsed().as_secs_f64();
        ctx.world.barrier();
        (trainer, setup_s)
    });
    let setup_end_ns = tr.now_ns();
    let mut out = RankRun {
        launch_end_ns,
        setup_s,
        setup_end_ns,
        ..RankRun::default()
    };
    for e in 0..tc.epochs {
        let ep = tr.open("core.epoch", None, Some(e));
        let f = tr.open("core.forward", Some(ep), Some(e));
        out.losses.push(trainer.forward(ctx));
        out.forward_s.push(tr.close(f));
        let b = tr.open("core.backward", Some(ep), Some(e));
        trainer.backward(ctx);
        out.backward_s.push(tr.close(b));
        out.epoch_s.push(tr.close(ep));
        let wt = tr.open("core.wait", None, Some(e));
        ctx.world.barrier();
        out.wait_s.push(tr.close(wt));
    }
    out.report = ctx.report();
    out.weights = trainer.weights();
    let grad = out.weights[0].clone();
    replay_collectives(ctx, problem, &grad, &mut tr, &mut out);
    ctx.world.barrier();
    if ctx.rank == 0 {
        out.kernels = replay_kernels(ctx, w, problem, gcn, &out.weights, &mut tr);
    }
    ctx.world.barrier();
    out.spans = tr.spans;
    out
}

/// Replay the public collectives with this workload's payloads, timing
/// each call: `gather_rows` of this rank's feature block to the rows each
/// peer's `Aᵀ` block reads (the 1D sparsity-aware stage exchange),
/// `allreduce_mat` of a payload shaped like the first-layer weight
/// gradient (the trained first-layer weights), and `bcast_shared` of rank
/// 0's feature block.
fn replay_collectives(
    ctx: &Ctx,
    problem: &Problem,
    grad: &Mat,
    tr: &mut Tracer,
    out: &mut RankRun,
) {
    let n = problem.vertices();
    let p = ctx.size;
    let f = problem.features.cols();
    let (r0, r1) = block_range(n, p, ctx.rank);
    let mine = Arc::new(problem.features.block(r0, r1, 0, f));
    let at_row = problem.adj_t.block(r0, r1, 0, n);
    let stages: Vec<(usize, usize, Vec<usize>)> = block_ranges(n, p)
        .into_iter()
        .map(|(c0, c1)| (c0, c1, at_row.block(0, r1 - r0, c0, c1).needed_cols()))
        .collect();
    let group = tr.open("comm.replay", None, None);
    for _ in 0..COLLECTIVE_REPS {
        for (j, (c0, c1, needed)) in stages.iter().enumerate() {
            let payload = (j == ctx.rank).then(|| mine.clone());
            let (_, s) = tr.span("comm.gather_rows", Some(group), || {
                ctx.world
                    .gather_rows(j, payload, needed, Some((c1 - c0, f)), Cat::DenseComm)
            });
            out.gather_rows_s.push(s);
        }
        let (_, s) = tr.span("comm.allreduce_mat", Some(group), || {
            ctx.world.allreduce_mat(grad, Cat::DenseComm)
        });
        out.allreduce_mat_s.push(s);
        let payload = (ctx.rank == 0).then(|| mine.clone());
        let (_, s) = tr.span("comm.bcast", Some(group), || {
            ctx.world.bcast_shared(0, payload, Cat::DenseComm)
        });
        out.bcast_s.push(s);
    }
    tr.close(group);
}

/// Replay one epoch's GEMM shapes and rank 0's SpMMs on `ctx.parallel()`
/// and on a serial context.
///
/// GEMMs: per layer `l`, the forward `H·W` (`m×f_l · f_l×f_{l+1}`), the
/// weight gradient `Hᵀ·G` (`matmul_tn`) and, below the top layer, the
/// gradient `G·Wᵀ` (`matmul_nt`), at the rank's local row count `m`.
/// SpMMs: rank 0's row block of `Â` times an `n × f` operand at each
/// forward width `f_l` and backward width `f_{l+1}`.
fn replay_kernels(
    ctx: &Ctx,
    w: &Workload,
    problem: &Problem,
    gcn: &GcnConfig,
    weights: &[Mat],
    tr: &mut Tracer,
) -> Vec<KernelReplay> {
    let n = problem.vertices();
    let (r0, r1) = w.local_rows(n, ctx.rank);
    let m = r1 - r0;
    let layers = gcn.layers();
    let dims = &gcn.dims;
    let hs: Vec<Mat> = (0..layers)
        .map(|l| uniform(m, dims[l], -1.0, 1.0, 0x6E77 + l as u64))
        .collect();
    let gs: Vec<Mat> = (0..layers)
        .map(|l| uniform(m, dims[l + 1], -1.0, 1.0, 0x6E78 + l as u64))
        .collect();
    let gemm_flops: f64 = (0..layers)
        .map(|l| {
            let mkn = (m * dims[l] * dims[l + 1]) as f64;
            2.0 * mkn * if l > 0 { 3.0 } else { 2.0 }
        })
        .sum();
    let gemm = |pc: ParallelCtx| {
        for l in 0..layers {
            std::hint::black_box(matmul_with(pc, &hs[l], &weights[l]));
            std::hint::black_box(matmul_tn_with(pc, &hs[l], &gs[l]));
            if l > 0 {
                std::hint::black_box(matmul_nt_with(pc, &gs[l], &weights[l]));
            }
        }
    };
    let a_block = problem.adj.block(r0, r1, 0, n);
    let widths: Vec<usize> = (0..layers).flat_map(|l| [dims[l], dims[l + 1]]).collect();
    let operands: Vec<Mat> = widths
        .iter()
        .enumerate()
        .map(|(i, &f)| uniform(n, f, -1.0, 1.0, 0x5B33 + i as u64))
        .collect();
    let spmm_flops = 2.0 * a_block.nnz() as f64 * widths.iter().sum::<usize>() as f64;
    let spmm = |pc: ParallelCtx| {
        for b in &operands {
            std::hint::black_box(spmm_with(pc, &a_block, b));
        }
    };
    let mut out = Vec::new();
    let mut contexts = vec![(true, ctx.parallel())];
    if ctx.parallel().threads() > 1 {
        contexts.push((false, ParallelCtx::serial()));
    }
    for (parallel, pc) in contexts {
        for (kind, name, flops) in [
            (KERNEL_GEMM, "dense.gemm", gemm_flops),
            (KERNEL_SPMM, "sparse.spmm", spmm_flops),
        ] {
            let mut times: Vec<f64> = (0..KERNEL_REPS)
                .map(|_| {
                    tr.span(name, None, || match kind {
                        KERNEL_GEMM => gemm(pc),
                        _ => spmm(pc),
                    })
                    .1
                })
                .collect();
            out.push(KernelReplay {
                kind,
                parallel,
                seconds: median(&mut times),
                flops,
            });
        }
    }
    out
}

/// Peak resident set of this process (`VmHWM` in `/proc/self/status`),
/// KiB; 0 where the file does not exist.
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Output checks.
// ---------------------------------------------------------------------

/// Whether two value sequences are equal bit for bit.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter()
        .map(|x| x.to_bits())
        .eq(b.iter().map(|x| x.to_bits()))
}

/// Check one child run: every rank ran every epoch, and losses and
/// replicated weights are bit-identical on all ranks.
pub fn check_ranks(run: &ChildRun, ranks: usize, epochs: usize) -> Result<(), String> {
    if run.ranks.len() != ranks {
        return Err(format!(
            "{} rank results, expected {ranks}",
            run.ranks.len()
        ));
    }
    let r0 = &run.ranks[0];
    if r0.losses.len() != epochs || r0.epoch_s.len() != epochs {
        return Err(format!(
            "rank 0 ran {} epochs, expected {epochs}",
            r0.losses.len()
        ));
    }
    if r0.losses.iter().any(|l| !l.is_finite()) {
        return Err(format!("non-finite loss on rank 0: {:?}", r0.losses));
    }
    for (rank, r) in run.ranks.iter().enumerate().skip(1) {
        if !same_bits(&r.losses, &r0.losses) {
            return Err(format!("rank {rank} losses differ from rank 0"));
        }
        if r.weights.len() != r0.weights.len()
            || r.weights
                .iter()
                .zip(&r0.weights)
                .any(|(a, b)| a.shape() != b.shape() || !same_bits(a.as_slice(), b.as_slice()))
        {
            return Err(format!("rank {rank} weights differ from rank 0"));
        }
    }
    Ok(())
}

/// Check the first two epochs' losses against [`SerialTrainer`] on the
/// same problem, within [`SERIAL_TOLERANCE`].
pub fn check_serial(w: &Workload, seed: u64, losses: &[f64]) -> Result<(), String> {
    let (problem, gcn) = w.problem(seed);
    let mut serial = SerialTrainer::new(&problem, gcn);
    let reference = serial.train(2);
    for (e, (got, want)) in losses.iter().zip(&reference).enumerate() {
        if (got - want).abs() > SERIAL_TOLERANCE {
            return Err(format!(
                "epoch {e} loss {got} differs from the serial trainer's {want} by more than \
                 {SERIAL_TOLERANCE:e}"
            ));
        }
    }
    if losses.len() < reference.len() {
        return Err("fewer than two epochs to compare with the serial trainer".into());
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------

/// Median (mean of the middle two for an even count); sorts `xs`.
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => xs[n / 2],
        _ => 0.5 * (xs[n / 2 - 1] + xs[n / 2]),
    }
}

/// The highest percentile with at least `beyond` samples above it:
/// returns `(percentile, value)`. With `beyond` or fewer samples it is
/// the minimum.
pub fn tail(xs: &mut [f64], beyond: usize) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        return (0.0, f64::NAN);
    }
    let k = n.saturating_sub(beyond + 1);
    (100.0 * (k + 1) as f64 / n as f64, xs[k])
}

/// Metered words per rank per epoch, the way `runner` reports them: dense
/// (all wire precisions) plus sparse, from the mean over ranks.
pub fn comm_words_per_epoch(reports: &[TimelineReport], epochs: usize) -> f64 {
    let mean = TimelineReport::mean_over(reports);
    let e = epochs as f64;
    let dense = (mean.words(Cat::DenseComm)
        + mean.words(Cat::DenseComm32)
        + mean.words(Cat::DenseComm16)) as f64;
    dense / e + mean.words(Cat::SparseComm) as f64 / e
}

/// Modeled BSP seconds per epoch: max clock over ranks divided by epochs
/// (`DistTrainResult::epoch_seconds`).
pub fn model_epoch_s(reports: &[TimelineReport], epochs: usize) -> f64 {
    let max_clock = reports.iter().map(|r| r.clock).fold(0.0f64, f64::max);
    max_clock / epochs.max(1) as f64
}

// ---------------------------------------------------------------------
// Hex transport of child results.
// ---------------------------------------------------------------------

/// Hex-encode a child result for its single stdout line.
pub fn to_hex(run: &ChildRun) -> String {
    cagnet_comm::frame::encode(run)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Decode [`to_hex`] output.
pub fn from_hex(s: &str) -> Result<ChildRun, String> {
    let s = s.trim();
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".into());
    }
    let bytes = (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| e.to_string()))
        .collect::<Result<Vec<u8>, String>>()?;
    cagnet_comm::frame::decode(&bytes).map_err(|e| format!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        let mut xs: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(median(&mut xs), 15.5);
        // 10 samples (21..=30) lie beyond the 20th value.
        assert_eq!(tail(&mut xs, 10), (100.0 * 20.0 / 30.0, 20.0));
    }

    #[test]
    fn child_run_round_trips_through_hex() {
        let run = ChildRun {
            traced: true,
            launch_ns: 7,
            peak_rss_kb: 9,
            ranks: vec![RankRun {
                losses: vec![1.5, -0.0],
                weights: vec![Mat::from_fn(2, 3, |i, j| (i * 3 + j) as f64)],
                epoch_s: vec![0.25],
                kernels: vec![KernelReplay {
                    kind: KERNEL_SPMM,
                    parallel: true,
                    seconds: 0.5,
                    flops: 1e9,
                }],
                spans: vec![Span {
                    name: "core.forward".into(),
                    start_ns: 1,
                    end_ns: 2,
                    parent: NO_PARENT,
                    rank: 0,
                    epoch: 3,
                    run: 4,
                }],
                ..RankRun::default()
            }],
        };
        assert_eq!(from_hex(&to_hex(&run)).unwrap(), run);
    }
}
