//! `perfbench`: one seeded, closed-loop run of a Mojave workload.
//!
//! ```text
//! perfbench --workload <stencil|halo_served|migrate> --seed <n> --seconds <s>
//!           --trace <0|1> [--mcc <path>] [--tiny]
//! ```
//!
//! The run sets the workload up several times (reporting the median as
//! `setup_s`), then repeats verified units of work back to back — each
//! starts when the previous one has finished — until `--seconds` have
//! elapsed.  Every unit's output is checked; a unit that fails or
//! produces a wrong answer counts in `failed`.  The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — every end-to-end metric with `--trace 0`, every per-layer
//! metric with `--trace 1`.  A human-readable summary goes to standard
//! error.

#![forbid(unsafe_code)]

mod grid;
mod migrate;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("ckpt_pause_ms", "ms"),
    ("ckpt_stored_bytes", "B"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`.  A
/// layer that a workload does not exercise, or cannot observe from the
/// benchmark's side, reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("lang.compile_ms", "ms"),
    ("core.exec_s", "s"),
    ("core.steps", "count"),
    ("core.steps_per_s", "1/s"),
    ("core.ckpt_pause_ms", "ms"),
    ("core.ckpt_encode_ms", "ms"),
    ("core.pack_full_ms", "ms"),
    ("core.pack_delta_ms", "ms"),
    ("core.from_image_ms", "ms"),
    ("core.recompile_ms", "ms"),
    ("cluster.send_us", "us"),
    ("cluster.recv_wait_us", "us"),
    ("cluster.ext_other_us", "us"),
    ("cluster.store_put_ms", "ms"),
    ("cluster.store_load_ms", "ms"),
    ("heap.minor_gcs", "count"),
    ("heap.major_gcs", "count"),
    ("heap.cow_clones", "count"),
    ("heap.shared_payload_bytes", "B"),
    ("heap.spec_enter_us", "us"),
    ("heap.spec_commit_us", "us"),
    ("heap.spec_rollback_us", "us"),
    ("heap.mutate_us", "us"),
    ("wire.to_bytes_ms", "ms"),
    ("wire.heap_decode_ms", "ms"),
    ("wire.full_image_bytes", "B"),
    ("wire.delta_image_bytes", "B"),
    ("codec.stored_over_raw", "ratio"),
    ("runtime.pipeline_encode_ms", "ms"),
    ("runtime.pipeline_pause_ms", "ms"),
    ("runtime.queue_depth_max", "count"),
    ("transport.frames", "count"),
    ("transport.bytes", "B"),
    ("transport.frames_per_step", "count"),
    ("transport.rpc_us", "us"),
    ("transport.reconnects", "count"),
    ("mcc.spawn_ms", "ms"),
    ("grid.rollbacks", "count"),
    ("grid.checkpoints", "count"),
    ("grid.delta_checkpoints", "count"),
    ("grid.messages", "count"),
    ("migrate.ckpt_full_ms_p50", "ms"),
    ("migrate.ckpt_delta_ms_p50", "ms"),
    ("migrate.ckpt_delta_ms_p90", "ms"),
    ("migrate.resume_ms_p50", "ms"),
    ("migrate.spec_round_ms_p50", "ms"),
    ("migrate.spec_round_ms_p90", "ms"),
    ("attrib.exec_frac", "ratio"),
    ("attrib.msg_frac", "ratio"),
    ("attrib.ckpt_frac", "ratio"),
    ("attrib.unattributed_frac", "ratio"),
    ("obs.trace_overhead", "ratio"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (grid runs, or migrate checkpoints, speculation
    /// rounds and resumes).
    pub attempted: u64,
    /// Operations that failed or produced a wrong answer.
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines for standard error (sample counts, quartiles).
    pub notes: Vec<String>,
}

impl Outcome {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Count one attempted operation; an error counts as failed and is
    /// echoed to standard error.
    fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(message) => {
                self.failed += 1;
                eprintln!("perfbench: operation failed: {message}");
                None
            }
        }
    }

    fn fail(&mut self, message: String) {
        self.record(Err::<(), _>(message));
    }

    /// Record the interleaved set-ups' result (see [`closed_loop`]).
    fn set_up(&mut self, setup: Result<(f64, f64), String>) {
        match setup {
            Ok((setup_s, compile_ms)) => {
                self.set("setup_s", setup_s);
                self.set("lang.compile_ms", compile_ms);
            }
            Err(message) => self.fail(format!("set-up: {message}")),
        }
    }
}

/// The parsed command line.
#[derive(Debug)]
pub struct Args {
    workload: String,
    /// Seed for the workload's generated inputs.
    pub seed: u64,
    /// How long the closed loop measures.
    pub seconds: Duration,
    /// Run the per-layer (traced) measurement instead of the end-to-end one.
    pub trace: bool,
    /// Tiny sizes, for the benchmark's own smoke test.
    pub tiny: bool,
    /// The `mcc` binary that `halo_served` spawns as node processes.
    pub mcc: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <stencil|halo_served|migrate> --seed <n> \
                     --seconds <s> --trace <0|1> [--mcc <path>] [--tiny]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: Duration::from_secs(10),
        trace: false,
        tiny: false,
        mcc: None,
    };
    while let Some(flag) = argv.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--mcc" => args.mcc = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Share of the elapsed time a run spends on interleaved set-ups.
const SETUP_SHARE: f64 = 0.03;

/// The closed loop: call `unit` back to back until `--seconds` have
/// elapsed, passing whether this unit is traced.  With `--trace 1`
/// traced and untraced units alternate, so the tracing overhead compares
/// like with like; every run attempts at least one unit of each kind.
///
/// Set-ups are interleaved with the units — five before the first unit,
/// then after each unit as many as keep set-up at `SETUP_SHARE` of the
/// elapsed time — so `setup_s` samples the same stretch of machine time
/// as the units do.  Returns the median wall time of one set-up (s) and
/// the median compile time (ms) the set-ups report.
pub fn closed_loop(
    args: &Args,
    mut setup: impl FnMut() -> Result<f64, String>,
    mut unit: impl FnMut(bool),
) -> Result<(f64, f64), String> {
    let mut setups = Vec::new();
    let mut compiles = Vec::new();
    let mut spent = Duration::ZERO;
    let mut set_up = |spent: &mut Duration| -> Result<(), String> {
        let t = std::time::Instant::now();
        compiles.push(setup()?);
        let elapsed = t.elapsed();
        *spent += elapsed;
        setups.push(elapsed.as_secs_f64());
        Ok(())
    };
    for _ in 0..5 {
        set_up(&mut spent)?;
    }
    let start = std::time::Instant::now();
    let (mut plain, mut traced) = (0u64, 0u64);
    while start.elapsed() < args.seconds || plain == 0 || (args.trace && traced == 0) {
        let trace_this = args.trace && traced < plain;
        unit(trace_this);
        if trace_this {
            traced += 1;
        } else {
            plain += 1;
        }
        while spent.as_secs_f64() < SETUP_SHARE * start.elapsed().as_secs_f64() {
            set_up(&mut spent)?;
        }
    }
    Ok((stats::median(&setups), stats::median(&compiles)))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match args.workload.as_str() {
        "stencil" => grid::stencil(&args),
        "halo_served" => match &args.mcc {
            Some(mcc) => grid::halo_served(&args, mcc),
            None => {
                eprintln!("perfbench: halo_served needs --mcc <path to the mcc binary>");
                return ExitCode::from(2);
            }
        },
        "migrate" => migrate::migrate(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.trace {
        outcome.set("peak_rss_mib", peak_rss_mib());
    }
    for note in &outcome.notes {
        eprintln!("{note}");
    }

    let names = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = outcome.attempted > 0 && outcome.failed == 0;
    let mut fields = Vec::with_capacity(names.len());
    for (name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                eprintln!("perfbench: metric {name} is not finite ({v})");
                correct = false;
                0.0
            }
            // Per-layer metrics of a layer the workload does not reach
            // read 0; an end-to-end metric must always be measured.
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        eprintln!("  {name:<28} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
