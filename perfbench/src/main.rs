//! perfbench — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the public `lio-core` API through one workload (see
//! `workload.rs` and `NOTES.md`) and prints, as the last line of
//! standard output, `{"correct", "attempted", "failed", "metrics"}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A line before it describes the host. The exit code is 0
//! only when every op read back the right bytes and the final file
//! matches the reference; 1 means a check failed (the result line is
//! still printed), 2 bad arguments or a refused environment, 3 a run
//! that could not be set up.

mod host;
mod reference;
mod replay;
mod run;
mod stats;
mod timed;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use run::{run_pass, PassConfig, PassResult, SetupSample};
use stats::{batched_mbps, batched_quantile, mean, median};
use timed::{Kind, Recorder, Span};
use workload::{Access, Workload, NPROCS, OP_BYTES};

/// Set-up-only cycles per run (each measured pass's own set-up is one
/// more sample). Each costs a millisecond or two.
const SETUP_CYCLES: usize = 60;
/// Measured passes per end-to-end run, each after its share of the
/// set-up cycles, so that set-up is sampled across the whole run and
/// not in one burst at its start.
const SEGMENTS: usize = 4;
/// Ops per batch for the latency percentiles and the throughput (see
/// `stats::batched_quantile`): p90 of 100 ops has ten samples above it.
const BATCH: usize = 100;
/// Time each replay measures for.
const REPLAY_BUDGET: Duration = Duration::from_millis(150);
/// Where spans and the `os` backend's files go, relative to the checkout.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => {
                seed = Some(
                    val.parse::<u64>()
                        .map_err(|e| format!("--seed {val}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = val
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {val}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {val}: must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (known: {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let refused = host::refused(args.trace);
    if !refused.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set: it would override the workload's hints",
            refused.join(", ")
        );
        return ExitCode::from(2);
    }
    let out_dir = PathBuf::from(OUT_DIR);
    let os_dir = host::os_dir(&out_dir);
    if let Err(e) = std::fs::create_dir_all(&os_dir) {
        eprintln!("perfbench: cannot create {}: {e}", os_dir.display());
        return ExitCode::from(3);
    }
    println!(
        "{{\"context\":{}}}",
        host::context_json(w.name, args.seed, args.trace, &os_dir)
    );

    let outcome = if args.trace {
        traced_run(&w, &args, &os_dir, &out_dir)
    } else {
        end_to_end_run(&w, &args, &os_dir)
    };
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    };
    if let Some(bad) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        return ExitCode::from(3);
    }
    let correct = out.failed == 0;
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Set-up samples from `cycles` set-up-only passes.
fn setup_cycles(
    w: &Workload,
    seed: u64,
    os_dir: &Path,
    cycles: usize,
) -> Result<Vec<SetupSample>, String> {
    (0..cycles)
        .map(|_| {
            let cfg = PassConfig {
                setup_only: true,
                ..PassConfig::new(seed, 0.0, os_dir.to_path_buf())
            };
            run_pass(w, &cfg).map(|p| p.setup)
        })
        .collect()
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

/// Failed rank-ops, plus one if the final file differs from the reference.
fn failures(p: &PassResult) -> u64 {
    p.failed + u64::from(!p.image_ok)
}

fn log_pass(label: &str, p: &PassResult) {
    let (w, r) = (p.op_ns(true), p.op_ns(false));
    eprintln!(
        "perfbench: {label}: {} write ops (p50 {:.4} ms), {} read ops (p50 {:.4} ms), {}/{} rank-ops failed, image {}",
        w.len(),
        median(&ms(&w)),
        r.len(),
        median(&ms(&r)),
        p.failed,
        p.attempted,
        if p.image_ok { "ok" } else { "MISMATCH" }
    );
}

fn end_to_end_run(w: &Workload, args: &Args, os_dir: &Path) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let (mut wr, mut rd) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0, 0);
    for seg in 0..SEGMENTS as u64 {
        // each segment draws its own inputs from the run's seed
        let seed = args
            .seed
            .wrapping_add(seg.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        setups.extend(setup_cycles(w, seed, os_dir, SETUP_CYCLES / SEGMENTS)?);
        let seconds = args.seconds / SEGMENTS as f64;
        let pass = run_pass(w, &PassConfig::new(seed, seconds, os_dir.to_path_buf()))?;
        log_pass("untraced", &pass);
        setups.push(pass.setup);
        wr.extend(pass.op_ns(true));
        rd.extend(pass.op_ns(false));
        attempted += pass.attempted;
        failed += failures(&pass);
    }
    let (wms, rms) = (ms(&wr), ms(&rd));
    let op_bytes = NPROCS as u64 * OP_BYTES;
    let setup_s: Vec<f64> = setups.iter().map(|s| s.total_ns as f64 / 1e9).collect();
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            m("write_p50_ms", batched_quantile(&wms, BATCH, 0.5), "ms"),
            m("write_p90_ms", batched_quantile(&wms, BATCH, 0.9), "ms"),
            m("read_p50_ms", batched_quantile(&rms, BATCH, 0.5), "ms"),
            m("read_p90_ms", batched_quantile(&rms, BATCH, 0.9), "ms"),
            m("write_MBps", batched_mbps(&wr, op_bytes, BATCH), "MB/s"),
            m("read_MBps", batched_mbps(&rd, op_bytes, BATCH), "MB/s"),
            m("setup_s", median(&setup_s), "s"),
            m("peak_rss_MB", peak_rss_mb(), "MB"),
            m(
                "ops_ok_frac",
                1.0 - failed as f64 / attempted as f64,
                "frac",
            ),
        ],
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Storage traffic of one op kind: calls, bytes and busy time summed
/// over every storage span of those ops.
#[derive(Default)]
struct Traffic {
    calls: u64,
    bytes: u64,
    busy_ns: u64,
}

/// An op's self time: its interval (first rank start to last rank end)
/// minus the part of it storage spans cover.
fn self_ns(op_spans: &[Span], storage: &mut [(u64, u64)]) -> u64 {
    let start = op_spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let end = op_spans.iter().map(Span::end_ns).max().unwrap_or(0);
    storage.sort_unstable();
    let (mut covered, mut reach) = (0u64, start);
    for &(s, e) in storage.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start).saturating_sub(covered)
}

fn traced_run(w: &Workload, args: &Args, os_dir: &Path, out_dir: &Path) -> Result<Outcome, String> {
    let setups = setup_cycles(w, args.seed, os_dir, SETUP_CYCLES)?;
    let half = args.seconds / 2.0;
    let plain = run_pass(w, &PassConfig::new(args.seed, half, os_dir.to_path_buf()))?;
    log_pass("untraced", &plain);
    let rec = Recorder::new();
    let traced = run_pass(
        w,
        &PassConfig {
            rec: Some(std::sync::Arc::clone(&rec)),
            ..PassConfig::new(args.seed, half, os_dir.to_path_buf())
        },
    )?;
    lio_obs::set_enabled(false);
    log_pass("traced", &traced);

    let spans = rec.take();
    let spans_path = out_dir.join(format!("spans-{}.json", w.name));
    timed::write_spans(&spans_path, w.name, args.seed, &spans)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    eprintln!(
        "perfbench: {} spans -> {}",
        spans.len(),
        spans_path.display()
    );

    // ---- per-op aggregates of the traced pass -----------------------
    let ops = &traced.ops;
    let n = ops.len() as f64;
    let n_w = ops.iter().filter(|o| o.write).count() as f64;
    let n_r = n - n_w;
    let user_bytes = (NPROCS as u64 * OP_BYTES) as f64;
    let mut op_spans: Vec<Vec<Span>> = vec![Vec::new(); ops.len()];
    let mut storage: Vec<Vec<(u64, u64)>> = vec![Vec::new(); ops.len()];
    let (mut pfs_w, mut pfs_r) = (Traffic::default(), Traffic::default());
    for s in &spans {
        let i = (s.op - 1) as usize;
        let Some(op) = ops.get(i) else {
            return Err(format!(
                "span of op {} outside the {} measured ops",
                s.op,
                ops.len()
            ));
        };
        match s.kind {
            Kind::OpWrite | Kind::OpRead => op_spans[i].push(*s),
            Kind::PfsRead | Kind::PfsWrite => {
                storage[i].push((s.start_ns, s.end_ns()));
                let t = if op.write { &mut pfs_w } else { &mut pfs_r };
                t.calls += 1;
                t.bytes += s.bytes;
                t.busy_ns += s.dur_ns;
            }
        }
    }
    let selfs: Vec<(bool, f64)> = (0..ops.len())
        .map(|i| (ops[i].write, self_ns(&op_spans[i], &mut storage[i]) as f64))
        .collect();
    let self_mean = |write: bool| {
        mean(
            &selfs
                .iter()
                .filter(|s| s.0 == write)
                .map(|s| s.1)
                .collect::<Vec<_>>(),
        )
    };

    let (before, after) = traced
        .obs
        .as_ref()
        .ok_or("traced pass took no lio-obs snapshot")?;
    let counter = |name: &str| after.counter(name).saturating_sub(before.counter(name)) as f64;
    let hist_sum = |name: &str| {
        let s = |snap: &lio_obs::Snapshot| snap.histogram(name).map_or(0, |h| h.sum);
        s(after).saturating_sub(s(before)) as f64
    };
    let rank_ops_w = n_w * NPROCS as f64;
    let rank_ops_r = n_r * NPROCS as f64;
    let phase = |dir: &str, part: &str, rank_ops: f64| {
        counter(&format!("core.coll.{dir}.{part}_ns")) / rank_ops
    };
    let unattributed = |dir: &str, span_hist: &str| {
        let p = |part: &str| counter(&format!("core.coll.{dir}.{part}_ns"));
        1.0 - (p("exchange") + p("io") + p("pack") - p("overlap")) / hist_sum(span_hist)
    };
    let (w_hist, r_hist) = match w.access {
        Access::Collective => ("core.write_at_all.ns", "core.read_at_all.ns"),
        Access::Independent => ("core.write_at.ns", "core.read_at.ns"),
    };

    let msgs = mean(&ops.iter().map(|o| o.msgs as f64).collect::<Vec<_>>());
    let bytes = mean(&ops.iter().map(|o| o.bytes as f64).collect::<Vec<_>>());
    let mpi_replay_ns = replay::mpi_replay(msgs, bytes, REPLAY_BUDGET);
    let dt = replay::dt_replay(w, args.seed, REPLAY_BUDGET);

    let p50 = |p: &PassResult, write: bool| batched_quantile(&ms(&p.op_ns(write)), BATCH, 0.5);
    let overhead =
        (p50(&traced, true) / p50(&plain, true) + p50(&traced, false) / p50(&plain, false)) / 2.0
            - 1.0;
    let setup_med = |f: fn(&SetupSample) -> u64| {
        median(&setups.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };

    let metrics = vec![
        // lio-datatype
        m("dt.pack_ns_per_op", dt.pack_ns, "ns"),
        m("dt.unpack_ns_per_op", dt.unpack_ns, "ns"),
        m(
            "dt.runs_per_op",
            (counter("dt.pack.blocks") + counter("dt.unpack.blocks")) / n,
            "count",
        ),
        m("dt.nav_ns", dt.nav_ns, "ns"),
        m("dt.view_bytes", dt.view_bytes as f64, "bytes"),
        m("dt.view_codec_ns", dt.view_codec_ns, "ns"),
        // lio-mpi
        m("mpi.msgs_per_op", msgs, "count"),
        m("mpi.bytes_per_op", bytes, "bytes"),
        m("mpi.bytes_per_user_byte", bytes / user_bytes, "ratio"),
        m("mpi.replay_ns_per_op", mpi_replay_ns, "ns"),
        // lio-pfs
        m("pfs.write.calls_per_op", pfs_w.calls as f64 / n_w, "count"),
        m("pfs.write.bytes_per_op", pfs_w.bytes as f64 / n_w, "bytes"),
        m("pfs.write.busy_ns_per_op", pfs_w.busy_ns as f64 / n_w, "ns"),
        m("pfs.read.calls_per_op", pfs_r.calls as f64 / n_r, "count"),
        m("pfs.read.bytes_per_op", pfs_r.bytes as f64 / n_r, "bytes"),
        m("pfs.read.busy_ns_per_op", pfs_r.busy_ns as f64 / n_r, "ns"),
        m(
            "pfs.bytes_per_user_byte",
            (pfs_w.bytes + pfs_r.bytes) as f64 / (n * user_bytes),
            "ratio",
        ),
        m(
            "pfs.os.sqe_per_op",
            counter("pfs.os.sqe.submitted") / n,
            "count",
        ),
        m(
            "pfs.os.queue_full_waits_per_op",
            counter("pfs.os.queue_full_waits") / n,
            "count",
        ),
        // lio-core
        m("core.open_ns", setup_med(|s| s.open_ns), "ns"),
        m("core.set_view_ns", setup_med(|s| s.set_view_ns), "ns"),
        m("core.write.self_ns", self_mean(true), "ns"),
        m("core.read.self_ns", self_mean(false), "ns"),
        m(
            "core.write.exchange_ns",
            phase("write", "exchange", rank_ops_w),
            "ns",
        ),
        m("core.write.io_ns", phase("write", "io", rank_ops_w), "ns"),
        m(
            "core.write.pack_ns",
            phase("write", "pack", rank_ops_w),
            "ns",
        ),
        m(
            "core.write.overlap_ns",
            phase("write", "overlap", rank_ops_w),
            "ns",
        ),
        m(
            "core.read.exchange_ns",
            phase("read", "exchange", rank_ops_r),
            "ns",
        ),
        m("core.read.io_ns", phase("read", "io", rank_ops_r), "ns"),
        m("core.read.pack_ns", phase("read", "pack", rank_ops_r), "ns"),
        m(
            "core.read.overlap_ns",
            phase("read", "overlap", rank_ops_r),
            "ns",
        ),
        m(
            "core.write.unattributed_frac",
            unattributed("write", w_hist),
            "frac",
        ),
        m(
            "core.read.unattributed_frac",
            unattributed("read", r_hist),
            "frac",
        ),
        m(
            "core.windows_per_op",
            counter("core.coll.windows") / n,
            "count",
        ),
        // lio-obs
        m("obs.overhead_frac", overhead, "frac"),
    ];
    Ok(Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: failures(&plain) + failures(&traced),
        metrics,
    })
}
