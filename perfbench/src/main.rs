//! Benchmark entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of untraced child runs;
//! `--trace 1` alternates untraced and traced child runs and prints the
//! per-layer metrics plus the tracing overhead. `--workload all` measures
//! every workload, untraced then traced, and prefixes each metric with its
//! workload. The last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Each child run is a separate process (`--child`) that makes exactly one
//! `run_wire` call; see `child_run` in the library.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use cagnet_comm::{Cat, TimelineReport};
use cagnet_perfbench::{
    check_ranks, check_serial, child_run, comm_words_per_epoch, from_hex, median, model_epoch_s,
    same_bits, tail, to_hex, ChildRun, Span, Workload, KERNEL_GEMM, KERNEL_SPMM, NO_PARENT,
    WORKLOADS,
};

/// Child runs per invocation at least, so `setup_s` is a median.
const MIN_CHILDREN: usize = 3;
/// A child run that takes longer than this is killed and counted failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(100);
/// Timed epochs that must lie beyond the reported tail percentile.
const TAIL_BEYOND: usize = 10;
/// Prefix of the one stdout line a child writes.
const CHILD_TAG: &str = "perfbench-child ";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(parse_seed(&value()?)?),
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got '{v}'"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            "--child" => {
                let v = value()?;
                child = Some(v.parse().map_err(|_| format!("bad --child run id '{v}'"))?);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0xBE7C),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        child,
    })
}

/// Decimal, or hexadecimal with a `0x` prefix.
fn parse_seed(s: &str) -> Result<u64, String> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|_| format!("bad --seed '{s}'"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" && args.child.is_none() {
        return run_all(&args);
    }
    let Some(w) = Workload::by_name(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload '{}' (one of: all, {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    if let Some(run) = args.child {
        // Socket workers re-execute this exact command line and never
        // return from `run_wire`; only the launcher reaches the print.
        let out = child_run(&w, args.seed, args.trace, run);
        println!("{CHILD_TAG}{}", to_hex(&out));
        return ExitCode::SUCCESS;
    }
    match orchestrate(&w, args.seed, args.seconds, args.trace) {
        Some(o) => {
            let metrics = metrics_json("", &o.metrics);
            println!(
                "{}",
                result_json(o.correct, o.attempted, o.failed, &metrics)
            );
            ExitCode::SUCCESS
        }
        None => ExitCode::FAILURE,
    }
}

// ---------------------------------------------------------------------
// Child processes.
// ---------------------------------------------------------------------

/// Directory next to the executable for run artifacts: the hub sockets
/// of socket runs and trace files. It lies in the build directory, inside
/// the checkout.
fn artifact_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("perfbench-run");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Run one child process and decode its result. The child runs with its
/// working directory and `TMPDIR` set to `dir`, so the hub socket path
/// stays short and inside the checkout.
fn spawn_child(
    dir: &Path,
    w: &Workload,
    seed: u64,
    traced: bool,
    run: u64,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--child", &run.to_string()])
        .current_dir(dir)
        .env("TMPDIR", ".")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    let mut stdout = child.stdout.take().ok_or("child stdout")?;
    let mut stderr = child.stderr.take().ok_or("child stderr")?;
    let out_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let err_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stderr.read_to_string(&mut s);
        s
    });
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("child run {run} timed out after {CHILD_TIMEOUT:?}"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            Err(e) => break Err(format!("wait for child: {e}")),
        }
    };
    let out = out_reader.join().unwrap_or_default();
    let err = err_reader.join().unwrap_or_default();
    let status = status?;
    if !status.success() {
        let last = err
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("");
        return Err(format!("child run {run} exited with {status}: {last}"));
    }
    let line = out
        .lines()
        .find_map(|l| l.strip_prefix(CHILD_TAG))
        .ok_or(format!("child run {run} printed no result"))?;
    from_hex(line)
}

// ---------------------------------------------------------------------
// Orchestration.
// ---------------------------------------------------------------------

/// One named metric value.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: note.into(),
    }
}

/// What one invocation measured, for the result line.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

/// Measure workload `w` and print its report; `None` when no child run
/// produced a result at all.
fn orchestrate(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    let dir = match artifact_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return None;
        }
    };
    println!("host: {}", host_json());
    println!(
        "workload {}: {} on P={} ({} thread(s)/rank), {:?} transport, {:?}, overlap {}, \
         wire {}, seed {:#x}, {} epochs per child run, traced {}",
        w.name,
        w.algo.name(),
        w.ranks,
        w.threads_per_rank,
        w.transport,
        w.comm_mode,
        if w.overlap { "on" } else { "off" },
        w.precision.name(),
        seed,
        w.epochs,
        trace
    );

    // Measure: child runs until the next one would overrun --seconds.
    let start = Instant::now();
    let mut runs: Vec<Result<ChildRun, String>> = Vec::new();
    loop {
        let n = runs.len();
        let elapsed = start.elapsed().as_secs_f64();
        if n >= MIN_CHILDREN && elapsed + elapsed / n as f64 > seconds {
            break;
        }
        // A traced invocation alternates untraced and traced child runs,
        // so the tracing overhead compares runs made side by side.
        let traced = trace && n % 2 == 1;
        runs.push(spawn_child(&dir, w, seed, traced, n as u64));
    }
    let measured_s = start.elapsed().as_secs_f64();

    // Check every run's outputs, outside the timed region. Runs are
    // deterministic: each must train exactly like the first, traced or
    // not, and report the same timeline as the first run of its mode.
    let attempted = runs.len();
    let mut failures: Vec<String> = Vec::new();
    let mut decoded: Vec<ChildRun> = Vec::new();
    for (i, r) in runs.into_iter().enumerate() {
        match r {
            Ok(run) => decoded.push(run),
            Err(e) => failures.push(format!("run {i}: {e}")),
        }
    }
    let serial = decoded
        .first()
        .map(|first| check_serial(w, seed, &first.ranks[0].losses));
    let mut passing: Vec<&ChildRun> = Vec::new();
    for (i, run) in decoded.iter().enumerate() {
        let verdict = check_ranks(run, w.ranks, w.epochs).and_then(|()| {
            serial.clone().unwrap_or(Ok(()))?;
            let first = &decoded[0];
            if !same_bits(&run.ranks[0].losses, &first.ranks[0].losses) {
                return Err("losses differ from the first child run".into());
            }
            match decoded.iter().find(|r| r.traced == run.traced) {
                Some(f)
                    if f.ranks
                        .iter()
                        .map(|r| r.report)
                        .ne(run.ranks.iter().map(|r| r.report)) =>
                {
                    Err("timeline reports differ from the first child run of its mode".into())
                }
                _ => Ok(()),
            }
        });
        match verdict {
            Ok(()) => passing.push(run),
            Err(e) => failures.push(format!("run {i}: {e}")),
        }
    }
    for (i, run) in decoded.iter().enumerate() {
        let mut e: Vec<f64> = run.ranks[0].epoch_s.iter().skip(1).copied().collect();
        let (lo, hi) = e
            .iter()
            .fold((f64::MAX, 0.0f64), |(a, b), x| (a.min(*x), b.max(*x)));
        println!(
            "child run {i}{}: timed epochs median {:.4} s, min {lo:.4} s, max {hi:.4} s",
            if run.traced { " (traced)" } else { "" },
            median(&mut e)
        );
    }
    for f in &failures {
        println!("FAILED {f}");
    }
    let failed = failures.len();
    println!(
        "child runs: {attempted} attempted, {failed} failed (runs_failed = {:.3}), \
         {measured_s:.1} s measured",
        failed as f64 / attempted.max(1) as f64
    );

    // Metrics come from the passing runs; when a mode has none, from every
    // run that reported, with the result marked incorrect.
    let pick = |traced: bool| -> Vec<&ChildRun> {
        let pass: Vec<&ChildRun> = passing
            .iter()
            .copied()
            .filter(|r| r.traced == traced)
            .collect();
        if pass.is_empty() {
            decoded.iter().filter(|r| r.traced == traced).collect()
        } else {
            pass
        }
    };
    let (untraced, traced) = (pick(false), pick(true));
    if untraced.is_empty() || (trace && traced.is_empty()) {
        eprintln!("perfbench: no child run produced a result");
        return None;
    }
    let metrics = if trace {
        match write_trace(&dir, w, seed, &traced) {
            Ok(path) => println!("trace written to {}", path.display()),
            Err(e) => println!("trace not written: {e}"),
        }
        per_layer_metrics(w, &untraced, &traced)
    } else {
        end_to_end_metrics(w, &untraced)
    };
    for m in &metrics {
        println!(
            "{:<24} {:>16} {:<6} {}",
            m.name,
            fmt_num(m.value),
            m.unit,
            m.note
        );
    }
    Some(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Rank 0's timed epochs (warm-up excluded) of every run.
fn timed_epochs(runs: &[&ChildRun]) -> Vec<f64> {
    runs.iter()
        .flat_map(|r| r.ranks[0].epoch_s.iter().skip(1).copied())
        .collect()
}

fn end_to_end_metrics(w: &Workload, runs: &[&ChildRun]) -> Vec<Metric> {
    let mut epochs = timed_epochs(runs);
    let samples = epochs.len();
    let p50 = median(&mut epochs);
    let (pct, tail_v) = tail(&mut epochs, TAIL_BEYOND);
    let mut setups: Vec<f64> = runs
        .iter()
        .map(|r| {
            let end = r.ranks.iter().map(|x| x.setup_end_ns).max().unwrap_or(0);
            end.saturating_sub(r.launch_ns) as f64 * 1e-9
        })
        .collect();
    let mut rss: Vec<f64> = runs.iter().map(|r| r.peak_rss_kb as f64 / 1024.0).collect();
    let first = runs[0];
    let reports: Vec<TimelineReport> = first.ranks.iter().map(|r| r.report).collect();
    let model = model_epoch_s(&reports, w.epochs);
    let words = comm_words_per_epoch(&reports, w.epochs);
    let loss = *first.ranks[0].losses.last().unwrap_or(&f64::NAN);
    let n_runs = runs.len();
    // Printed, not reported: an end-to-end metric must never be 0, and
    // this one is on the single-rank workload (see comm.words_per_epoch).
    println!(
        "comm_words_per_epoch     {words} words (mean over ranks, {} epochs incl. warm-up)",
        w.epochs
    );
    vec![
        metric(
            "epoch_s.p50",
            p50,
            "s",
            format!(
                "median of {samples} timed epochs ({:.3} epochs/s)",
                1.0 / p50
            ),
        ),
        metric(
            "epoch_s.tail",
            tail_v,
            "s",
            format!("p{pct:.1} of {samples} timed epochs, {TAIL_BEYOND} beyond it"),
        ),
        metric(
            "setup_s",
            median(&mut setups),
            "s",
            format!("median of {n_runs} run_wire launches to every rank set up"),
        ),
        metric(
            "model_epoch_s",
            model,
            "s",
            format!(
                "modeled BSP epoch, CostModel::summit_like, {} epochs",
                w.epochs
            ),
        ),
        metric(
            "loss_final",
            loss,
            "nat",
            format!("loss of epoch {}", w.epochs),
        ),
        metric(
            "peak_rss_mb",
            median(&mut rss),
            "MB",
            format!("median VmHWM of the launcher over {n_runs} runs"),
        ),
    ]
}

fn per_layer_metrics(w: &Workload, untraced: &[&ChildRun], traced: &[&ChildRun]) -> Vec<Metric> {
    let e = w.epochs as f64;
    // Per-epoch values: max over ranks for each timed epoch, then the
    // median over every epoch of every traced run.
    let per_epoch_max = |field: fn(&cagnet_perfbench::RankRun) -> &Vec<f64>| {
        let mut xs: Vec<f64> = traced
            .iter()
            .flat_map(|r| {
                (1..w.epochs)
                    .map(move |i| r.ranks.iter().map(|x| field(x)[i]).fold(0.0f64, f64::max))
            })
            .collect();
        median(&mut xs)
    };
    let per_call = |field: fn(&cagnet_perfbench::RankRun) -> &Vec<f64>| {
        let mut xs: Vec<f64> = traced
            .iter()
            .flat_map(|r| field(&r.ranks[0]).iter().copied())
            .collect();
        median(&mut xs)
    };
    let over_runs = |f: &dyn Fn(&ChildRun) -> f64| {
        let mut xs: Vec<f64> = traced.iter().map(|r| f(r)).collect();
        median(&mut xs)
    };
    let kernel = |kind: u64, parallel: bool| {
        let mut secs = Vec::new();
        let mut flops = 0.0;
        for r in traced {
            for k in &r.ranks[0].kernels {
                if k.kind == kind && k.parallel == parallel {
                    secs.push(k.seconds);
                    flops = k.flops;
                }
            }
        }
        (median(&mut secs), flops)
    };

    let reports: Vec<TimelineReport> = traced[0].ranks.iter().map(|r| r.report).collect();
    let mean = TimelineReport::mean_over(&reports);
    let words = |c: Cat| mean.words(c) as f64 / e;
    let secs = |c: Cat| mean.seconds(c) / e;
    let comm_cats = [
        Cat::DenseComm,
        Cat::DenseComm32,
        Cat::DenseComm16,
        Cat::SparseComm,
    ];
    let messages: f64 = comm_cats
        .iter()
        .map(|c| mean.messages(*c) as f64)
        .sum::<f64>()
        / e;

    let mut traced_epochs = timed_epochs(traced);
    let mut plain_epochs = timed_epochs(untraced);
    let traced_p50 = median(&mut traced_epochs);
    let plain_p50 = median(&mut plain_epochs);
    let (gemm_s, gemm_flops) = kernel(KERNEL_GEMM, true);
    let (spmm_s, spmm_flops) = kernel(KERNEL_SPMM, true);
    let speedup = if w.threads_per_rank > 1 {
        let (gs, _) = kernel(KERNEL_GEMM, false);
        let (ss, _) = kernel(KERNEL_SPMM, false);
        (gs + ss) / (gemm_s + spmm_s)
    } else {
        // ctx.parallel() is the serial context: the same replay.
        1.0
    };
    let model = model_epoch_s(&reports, w.epochs);
    println!(
        "tracing overhead: traced epoch_s.p50 {} s vs untraced {} s ({:+.2}%), {} traced and {} \
         untraced runs",
        fmt_num(traced_p50),
        fmt_num(plain_p50),
        100.0 * (traced_p50 / plain_p50 - 1.0),
        traced.len(),
        untraced.len()
    );
    vec![
        metric(
            "comm.words_per_epoch",
            comm_words_per_epoch(&reports, w.epochs),
            "words",
            "comm_words_per_epoch: dense + sparse, mean over ranks",
        ),
        metric(
            "core.setup_s",
            over_runs(&|r| r.ranks.iter().map(|x| x.setup_s).fold(0.0, f64::max)),
            "s",
            "Trainer::setup + setters, max over ranks",
        ),
        metric(
            "core.forward_s",
            per_epoch_max(|r| &r.forward_s),
            "s",
            "per epoch, max over ranks",
        ),
        metric(
            "core.backward_s",
            per_epoch_max(|r| &r.backward_s),
            "s",
            "per epoch, max over ranks",
        ),
        metric(
            "core.wait_s",
            per_epoch_max(|r| &r.wait_s),
            "s",
            "barrier after epoch, max over ranks",
        ),
        metric(
            "comm.launch_s",
            over_runs(&|r| r.ranks[0].launch_end_ns.saturating_sub(r.launch_ns) as f64 * 1e-9),
            "s",
            "run_wire until rank 0 leaves the first barrier",
        ),
        metric(
            "comm.gather_rows_s",
            per_call(|r| &r.gather_rows_s),
            "s",
            "median per call, replay",
        ),
        metric(
            "comm.allreduce_mat_s",
            per_call(|r| &r.allreduce_mat_s),
            "s",
            "median per call, replay",
        ),
        metric(
            "comm.bcast_s",
            per_call(|r| &r.bcast_s),
            "s",
            "median per call, replay",
        ),
        metric(
            "comm.dense_words",
            words(Cat::DenseComm) + words(Cat::DenseComm32) + words(Cat::DenseComm16),
            "words",
            "per epoch, mean over ranks",
        ),
        metric(
            "comm.sparse_words",
            words(Cat::SparseComm),
            "words",
            "per epoch, mean over ranks",
        ),
        metric(
            "comm.messages",
            messages,
            "count",
            "per epoch, mean over ranks, comm categories",
        ),
        metric(
            "comm.cache_words",
            words(Cat::CacheHit),
            "words",
            "per epoch, mean over ranks",
        ),
        metric(
            "dense.gemm_s",
            gemm_s,
            "s",
            "one epoch's GEMM shapes, ctx.parallel()",
        ),
        metric(
            "dense.gemm_gflops",
            gemm_flops / gemm_s * 1e-9,
            "GFLOP/s",
            "",
        ),
        metric(
            "sparse.spmm_s",
            spmm_s,
            "s",
            "rank 0's row block of A at the layer widths",
        ),
        metric(
            "sparse.spmm_gflops",
            spmm_flops / spmm_s * 1e-9,
            "GFLOP/s",
            "",
        ),
        metric(
            "sparse.generate_s",
            over_runs(&|r| r.ranks.iter().map(|x| x.generate_s).fold(0.0, f64::max)),
            "s",
            "datasets::generate + Problem::from_dataset, max over ranks",
        ),
        metric(
            "parallel.speedup",
            speedup,
            "x",
            "serial replay / ctx.parallel() replay",
        ),
        metric(
            "model.spmm_s",
            secs(Cat::Spmm),
            "s",
            "per epoch, mean over ranks",
        ),
        metric(
            "model.gemm_s",
            secs(Cat::Gemm),
            "s",
            "per epoch, mean over ranks",
        ),
        metric(
            "model.dcomm_s",
            secs(Cat::DenseComm) + secs(Cat::DenseComm32) + secs(Cat::DenseComm16),
            "s",
            "per epoch, mean over ranks",
        ),
        metric(
            "model.scomm_s",
            secs(Cat::SparseComm),
            "s",
            "per epoch, mean over ranks",
        ),
        metric(
            "model.idle_s",
            secs(Cat::Idle),
            "s",
            "per epoch, mean over ranks",
        ),
        metric(
            "model.overlapped_s",
            secs(Cat::Overlapped),
            "s",
            "per epoch, mean over ranks",
        ),
        metric(
            "model.measured_ratio",
            traced_p50 / model,
            "x",
            "traced epoch_s.p50 / modeled epoch (base: modeled)",
        ),
        metric("trace.epoch_s.p50", traced_p50, "s", "traced runs"),
        metric(
            "trace.overhead",
            traced_p50 / plain_p50,
            "x",
            "traced / untraced epoch_s.p50 (base: untraced)",
        ),
    ]
}

// ---------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------

/// A number with all its digits; JSON has no NaN, so a missing value
/// prints as `null`.
fn fmt_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `"<prefix><name>": {"value": …, "unit": …}` entries of the result line.
fn metrics_json(prefix: &str, metrics: &[Metric]) -> Vec<String> {
    metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&format!("{prefix}{}", m.name)),
                fmt_num(m.value),
                json_str(m.unit)
            )
        })
        .collect()
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[String]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": \
         {{{}}}}}",
        metrics.join(", ")
    )
}

/// `nproc`, CPU model, rustc version and git commit of the checkout.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
        .arg("--version")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(&git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into()))
    )
}

/// The commit `.git/HEAD` of the working directory names, read directly
/// so no repository above the checkout is consulted.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}

/// Write every traced span as a Chrome/Perfetto trace (one process per
/// child run, one thread per rank) plus the host descriptor.
fn write_trace(
    dir: &Path,
    w: &Workload,
    seed: u64,
    traced: &[&ChildRun],
) -> Result<PathBuf, String> {
    let spans: Vec<&Span> = traced
        .iter()
        .flat_map(|r| r.ranks.iter().flat_map(|x| x.spans.iter()))
        .collect();
    let t0 = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            let mut args = BTreeMap::new();
            if s.epoch != NO_PARENT {
                args.insert("epoch", s.epoch.to_string());
            }
            if s.parent != NO_PARENT {
                args.insert("parent", s.parent.to_string());
            }
            let args: Vec<String> = args.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!(
                "{{\"name\": {}, \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {}, \
                 \"tid\": {}, \"args\": {{{}}}}}",
                json_str(&s.name),
                (s.start_ns - t0) as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run,
                s.rank,
                args.join(", ")
            )
        })
        .collect();
    let path = dir.join(format!("trace-{}-seed{seed}.json", w.name));
    let json = format!(
        "{{\"host\": {}, \"workload\": {}, \"seed\": {seed}, \"traceEvents\": [\n{}\n]}}\n",
        host_json(),
        json_str(w.name),
        events.join(",\n")
    );
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// `--workload all`: every workload untraced, then traced, with metric
/// names prefixed by the workload. The orchestrator itself never calls
/// `run_wire` (its child processes do), so one process can measure them
/// all.
fn run_all(args: &Args) -> ExitCode {
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            match orchestrate(w, args.seed, args.seconds, trace) {
                Some(o) => {
                    correct &= o.correct;
                    attempted += o.attempted;
                    failed += o.failed;
                    metrics.extend(metrics_json(&format!("{}/", w.name), &o.metrics));
                }
                None => return ExitCode::FAILURE,
            }
        }
    }
    println!("{}", result_json(correct, attempted, failed, &metrics));
    ExitCode::SUCCESS
}
