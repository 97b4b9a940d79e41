//! The repository benchmark: three workloads through the public entry
//! points (`Deployment::run`, `ServeFleet` / `ServeClient`,
//! `ParamPublisher`), end-to-end metrics with tracing off, and a separate
//! traced run for the per-layer breakdown.
//!
//! ```text
//! perfbench --workload <impala-2m|dqn-replay|serve-swap> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Standard output holds the host, every metric with its quartiles and
//! sample counts, and the checks; its last line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Any failed correctness
//! check makes the exit code 1.

pub mod catalog;
pub mod host;
pub mod json;
pub mod layers;
pub mod serve;
pub mod stats;
pub mod train;

use std::collections::BTreeMap;

use json::Json;
use stats::Dist;

/// Seed held out from tuning, for confirming later claims on fresh inputs.
pub const HELD_OUT_SEED: u64 = 9_001;

/// One correctness check and its outcome.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// End-to-end metrics of one run as median and quartiles over its repeats,
/// with the operation counts behind `attempted` / `failed`.
#[derive(Default)]
pub struct Measured {
    pub values: BTreeMap<String, Dist>,
    pub attempted: u64,
    pub failed: u64,
}

impl Measured {
    pub fn put(&mut self, name: &str, d: Dist) {
        self.values.insert(name.to_string(), d);
    }
}

/// Per-layer metrics of a traced run: value and, where it is a
/// distribution, the number of samples behind it.
#[derive(Default)]
pub struct Layers {
    pub values: BTreeMap<String, (f64, Option<u64>)>,
}

impl Layers {
    pub fn put(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), (value, None));
    }

    pub fn put_n(&mut self, name: &str, value: f64, count: u64) {
        self.values.insert(name.to_string(), (value, Some(count)));
    }

    /// The quantiles `qs` of a telemetry histogram as `{prefix}_{suffix}`,
    /// scaled by `scale`; zeros when it recorded nothing.
    pub fn hist(
        &mut self,
        prefix: &str,
        h: &xt_telemetry::Histogram,
        qs: &[(&str, f64)],
        scale: f64,
    ) {
        for &(suffix, q) in qs {
            let v = if h.count() > 0 {
                h.quantile(q) as f64 * scale
            } else {
                0.0
            };
            self.put_n(&format!("{prefix}_{suffix}"), v, h.count());
        }
    }
}

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = argv.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} takes a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    seconds = Some(
                        value()?
                            .parse::<f64>()
                            .map_err(|e| format!("--seconds: {e}"))?,
                    )
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !catalog::WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], not {seconds}"));
        }
        Ok(Args {
            workload,
            seed: seed.unwrap_or(1),
            seconds,
            trace,
        })
    }
}

/// Everything one invocation produced.
pub struct Outcome {
    pub measured: Measured,
    pub layers: Layers,
    pub checks: Vec<Check>,
    /// Free-form lines printed before the result (per-repeat and per-rung
    /// detail).
    pub notes: Vec<String>,
}

/// Runs the workload `args` names.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome {
        measured: Measured::default(),
        layers: Layers::default(),
        checks: Vec::new(),
        notes: Vec::new(),
    };
    match args.workload.as_str() {
        "impala-2m" => train::run(train::Workload::Impala, args, &mut out)?,
        "dqn-replay" => train::run(train::Workload::Dqn, args, &mut out)?,
        "serve-swap" => serve::run(args, &mut out)?,
        other => return Err(format!("unknown workload {other}")),
    }
    out.measured
        .put("peak_rss_mb", Dist::of(&[stats::peak_rss_mib()]));
    out.checks.push(Check::new(
        "operations attempted",
        out.measured.attempted > 0,
        format!("{} attempted", out.measured.attempted),
    ));
    Ok(out)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj().with("value", value).with("unit", unit)
}

/// The result line: every end-to-end metric untraced, every per-layer one
/// traced.
pub fn result_line(args: &Args, out: &Outcome) -> Json {
    let mut metrics = Vec::new();
    if args.trace {
        for &(name, unit) in catalog::PER_LAYER {
            let v = out.layers.values.get(name).map_or(0.0, |&(v, _)| v);
            metrics.push((name.to_string(), metric(v, unit)));
        }
    } else {
        for &(name, unit) in catalog::END_TO_END {
            let v = out.measured.values.get(name).map_or(f64::NAN, |d| d.median);
            metrics.push((name.to_string(), metric(v, unit)));
        }
    }
    Json::obj()
        .with("correct", out.checks.iter().all(|c| c.ok))
        .with("attempted", out.measured.attempted)
        .with("failed", out.measured.failed)
        .with("metrics", Json::Obj(metrics))
}
