//! `tac-benchmark`: the yardstick for the TAC stack, measured strictly
//! from outside through the library's public functions.
//!
//! ```text
//! tac-benchmark run       [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! tac-benchmark selfcheck [--workload NAME] [--seed N] [--seconds S] [--smoke]
//! ```
//!
//! `run` generates each workload's input, times compress → decompress →
//! ROI reps with tracing off, makes one traced pass for the per-layer
//! metrics, checks every output, prints every metric by name and ends
//! with one JSON line. `--trace 0` or `--trace 1` keeps only that pass.
//! See `README.md` beside this package for the tables.

#![forbid(unsafe_code)]

mod host;
mod json;
mod layers;
mod measure;
mod metrics;
mod stats;
mod trace;
mod workloads;

use json::Json;
use layers::Layers;
use measure::{Budget, EndToEnd, Tally};
use metrics::{Value, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use tac_amr::AmrDataset;
use tac_codec::{CodecElement, TacDtype};
use trace::Tracer;
use workloads::{convert, Workload, WORKLOADS};

const DEFAULT_SEED: u64 = 14;
/// Seconds of timed reps per workload; `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 8.0;
/// Timed reps a workload gets however long they take.
const MIN_REPS: usize = 5;
/// `--smoke` reps.
const SMOKE_REPS: usize = 2;
/// Times the input is generated when `setup_s` is reported (as the
/// median); the traced pass alone generates once. Generation is the
/// longest step of a run (4-8 s at 256^3) and repeats within 3%.
const SETUP_REPS: usize = 2;

const USAGE: &str = "usage: tac-benchmark <run|selfcheck> [--workload NAME] [--seed N] \
                     [--seconds S] [--trace 0|1] [--smoke]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Command {
    Run,
    Selfcheck,
}

struct Options {
    command: Command,
    /// One workload, or all of them.
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    /// `Some(false)`: untraced pass only; `Some(true)`: traced pass
    /// only; `None`: both.
    trace: Option<bool>,
    smoke: bool,
}

impl Options {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
        let command = match args.next().as_deref() {
            Some("run") => Command::Run,
            Some("selfcheck") => Command::Selfcheck,
            Some(other) => return Err(format!("unknown command `{other}`")),
            None => return Err("no command".into()),
        };
        let mut opts = Options {
            command,
            workload: None,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: None,
            smoke: false,
        };
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                opts.smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => {
                    opts.workload = Some(workloads::by_name(&value).ok_or_else(|| {
                        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload `{value}` (have: {})", names.join(", "))
                    })?)
                }
                "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    opts.seconds = value.parse().ok().filter(|s| *s >= 0.0).ok_or_else(bad)?
                }
                "--trace" if command == Command::Run => {
                    opts.trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown option `{flag}`")),
            }
        }
        Ok(opts)
    }

    fn selected(&self) -> Vec<&'static Workload> {
        match self.workload {
            Some(w) => vec![w],
            None => WORKLOADS.iter().collect(),
        }
    }

    fn budget(&self) -> Budget {
        if self.smoke {
            Budget {
                seconds: 0.0,
                min_reps: SMOKE_REPS,
            }
        } else {
            Budget {
                seconds: self.seconds,
                min_reps: MIN_REPS,
            }
        }
    }
}

/// Everything measured on one workload.
struct Report {
    workload: &'static Workload,
    /// Seconds each input generation took.
    setup_s: Vec<f64>,
    input: String,
    end_to_end: Option<EndToEnd>,
    layers: Option<Layers>,
}

impl Report {
    fn tally(&self) -> Tally {
        let mut tally = Tally::default();
        if let Some(e) = &self.end_to_end {
            tally.add(e.tally);
        }
        if let Some(l) = &self.layers {
            tally.add(l.tally);
        }
        tally
    }

    /// The six end-to-end metrics, in `END_TO_END` order. Timings are the
    /// fastest rep; `None` before the untraced pass finished a rep.
    fn end_to_end_values(&self) -> Option<[f64; 6]> {
        let e = self.end_to_end.as_ref()?;
        let [compress, decompress, roi] = e.timings()?;
        let bytes = e.input_bytes as f64;
        Some([
            bytes / compress.min / 1e6,
            bytes / decompress.min / 1e6,
            roi.min * 1e3,
            bytes / e.container_bytes as f64,
            e.psnr_db,
            stats::median(&self.setup_s),
        ])
    }

    fn noisy(&self) -> bool {
        let timings = self.end_to_end.as_ref().and_then(|e| e.timings());
        timings.is_some_and(|t| t.iter().any(|s| s.noisy()))
    }

    /// Every metric this report holds, in table order.
    fn metrics(&self) -> Vec<Value> {
        let mut out = Vec::new();
        if let Some(values) = self.end_to_end_values() {
            out.extend(END_TO_END.iter().zip(values).map(|(m, value)| Value {
                name: m.name,
                unit: m.unit,
                better: m.better,
                value,
            }));
        }
        if let Some(layers) = &self.layers {
            for m in &PER_LAYER {
                if let Some(&(_, value)) = layers.values.iter().find(|(name, _)| *name == m.name) {
                    out.push(Value {
                        name: m.name,
                        unit: m.unit,
                        better: m.better,
                        value,
                    });
                }
            }
        }
        out
    }

    fn print(&self) {
        println!("== {} — {}", self.workload.name, self.input);
        println!("   {}", self.workload.why);
        let timings = self.end_to_end.as_ref().and_then(|e| e.timings());
        for Value {
            name,
            unit,
            better,
            value,
        } in self.metrics()
        {
            let reps = timings.and_then(|[c, d, r]| match name {
                "compress_mb_s" => Some(c),
                "decompress_mb_s" => Some(d),
                "roi_decode_ms" => Some(r),
                _ => None,
            });
            print!(
                "  {name:<36} {value:>14.4} {unit:<9} ({} is better)",
                better.label()
            );
            match reps {
                Some(s) => println!(
                    "  fastest of {} reps: {:.2} ms, median {:.2}, p75 {:.2}, max {:.2}, spread {:.3}",
                    s.n,
                    s.min * 1e3,
                    s.median * 1e3,
                    s.p75 * 1e3,
                    s.max * 1e3,
                    s.spread
                ),
                None => println!(),
            }
        }
        if let Some(l) = &self.layers {
            println!(
                "  (host.memcpy_mb_s copies {:.1} MB)",
                l.memcpy_bytes as f64 / 1e6
            );
        }
        let tally = self.tally();
        println!(
            "  ops_attempted {} ops_failed {}{}",
            tally.attempted,
            tally.failed,
            if self.noisy() {
                "  NOISY: a median sits more than 25% above its fastest rep"
            } else {
                ""
            }
        );
    }

    fn to_json(&self) -> Json {
        let tally = self.tally();
        let mut fields = vec![
            ("workload", Json::str(self.workload.name)),
            ("input", Json::str(&self.input)),
            ("ops_attempted", Json::Num(tally.attempted as f64)),
            ("ops_failed", Json::Num(tally.failed as f64)),
            ("noisy", Json::Bool(self.noisy())),
            (
                "metrics",
                metrics_json(self.metrics().into_iter().map(|m| (m.name.to_string(), m))),
            ),
        ];
        if let Some([c, d, r]) = self.end_to_end.as_ref().and_then(|e| e.timings()) {
            fields.push((
                "timed_seconds",
                Json::obj([
                    ("compress", c.to_json()),
                    ("decompress", d.to_json()),
                    ("roi", r.to_json()),
                ]),
            ));
        }
        if let Some(l) = &self.layers {
            fields.push(("memcpy_bytes", Json::Num(l.memcpy_bytes as f64)));
        }
        Json::obj(fields)
    }
}

fn metrics_json(metrics: impl Iterator<Item = (String, Value)>) -> Json {
    Json::Obj(
        metrics
            .map(|(key, m)| {
                (
                    key,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// Generates the workload's input (as often as `setup_s` needs) and runs
/// the passes asked for.
fn run_workload(
    w: &'static Workload,
    opts: &Options,
    trace: Option<bool>,
    tracer: &mut Tracer,
) -> Report {
    match w.dtype {
        TacDtype::F64 => run_typed(w, opts, trace, tracer, || w.generate(opts.seed, opts.smoke)),
        TacDtype::F32 => run_typed(w, opts, trace, tracer, || {
            convert::<f64, f32>(&w.generate(opts.seed, opts.smoke))
        }),
    }
}

fn run_typed<T: CodecElement>(
    w: &'static Workload,
    opts: &Options,
    trace: Option<bool>,
    tracer: &mut Tracer,
    generate: impl Fn() -> AmrDataset<T>,
) -> Report {
    let setup_reps = if trace == Some(true) { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut made = None;
    for _ in 0..setup_reps {
        drop(made.take());
        let started = Instant::now();
        made = Some(generate());
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let ds = made.expect("setup_reps > 0");
    let cfg = w.config(ds.finest_dim());
    let input = format!(
        "{} {:?} at {}^3, {} levels, {} values, {:.2} MB {}; {} · {} · {} worker(s)",
        w.entry,
        workloads::FIELD,
        ds.finest_dim(),
        ds.num_levels(),
        ds.total_present(),
        workloads::present_bytes(&ds) as f64 / 1e6,
        w.dtype,
        w.method.label(),
        w.codec,
        w.workers
    );
    let end_to_end =
        (trace != Some(true)).then(|| measure::end_to_end(w, &ds, &cfg, opts.budget()));
    let layers = (trace != Some(false))
        .then(|| layers::traced(w, &ds, &cfg, stats::median(&setup_s), tracer));
    Report {
        workload: w,
        setup_s,
        input,
        end_to_end,
        layers,
    }
}

fn write_out(name: &str, content: &Json) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, format!("{content}\n")))
    {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
}

/// The `run` command. True when every operation succeeded.
fn run(opts: &Options) -> bool {
    let mut tracer = Tracer::new();
    let reports: Vec<Report> = opts
        .selected()
        .into_iter()
        .map(|w| {
            let report = run_workload(w, opts, opts.trace, &mut tracer);
            report.print();
            report
        })
        .collect();

    let mut tally = Tally::default();
    reports.iter().for_each(|r| tally.add(r.tally()));
    // A pass that broke off midway reports no metrics and a failed
    // operation, so this also means every metric is there.
    let correct = tally.failed == 0;

    if !opts.smoke {
        if opts.trace != Some(false) {
            write_out("trace.json", &tracer.chrome_trace());
        }
        write_out(
            "results.json",
            &Json::obj([
                ("seed", Json::Num(opts.seed as f64)),
                (
                    "workload",
                    Json::str(opts.workload.map_or("all", |w| w.name)),
                ),
                ("seconds", Json::Num(opts.seconds)),
                ("host", host::describe()),
                (
                    "results",
                    Json::Arr(reports.iter().map(Report::to_json).collect()),
                ),
            ]),
        );
    }

    // One workload reports under the bare metric names; several prefix
    // each name with the workload's.
    let single = reports.len() == 1;
    let metrics = reports.iter().flat_map(|r| {
        r.metrics().into_iter().map(move |m| {
            let key = if single {
                m.name.to_string()
            } else {
                format!("{}/{}", r.workload.name, m.name)
            };
            (key, m)
        })
    });
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(tally.attempted as f64)),
            ("failed", Json::Num(tally.failed as f64)),
            ("metrics", metrics_json(metrics)),
        ])
    );
    correct
}

/// The `selfcheck` command: the untraced pass twice in one process, the
/// second time in reverse workload order. True when both sets agree
/// within each metric's bound (exactly, for the metrics the seed fixes),
/// nothing was noisy and nothing failed.
fn selfcheck(opts: &Options) -> bool {
    let mut tracer = Tracer::new();
    let forward = opts.selected();
    let first: Vec<Report> = forward
        .iter()
        .map(|w| run_workload(w, opts, Some(false), &mut tracer))
        .collect();
    let mut second: Vec<Report> = forward
        .iter()
        .rev()
        .map(|w| run_workload(w, opts, Some(false), &mut tracer))
        .collect();
    second.reverse();

    let mut ok = true;
    for (a, b) in first.iter().zip(&second) {
        println!("== {}", a.workload.name);
        for r in [a, b] {
            if r.tally().failed > 0 || r.noisy() {
                println!(
                    "  FAILED: {} ops failed, noisy: {}",
                    r.tally().failed,
                    r.noisy()
                );
                ok = false;
            }
        }
        let (Some(va), Some(vb)) = (a.end_to_end_values(), b.end_to_end_values()) else {
            println!("  FAILED: no metrics");
            ok = false;
            continue;
        };
        for ((m, x), y) in END_TO_END.iter().zip(va).zip(vb) {
            let gap = (x - y).abs() / x.abs();
            let allowed = if m.exact { 0.0 } else { m.bound };
            let within = gap <= allowed;
            ok &= within;
            println!(
                "  {:<20} {x:>14.4} vs {y:>14.4} {:<5} gap {:>8.4}%, allowed {:>6.2}%  {}",
                m.name,
                m.unit,
                gap * 100.0,
                allowed * 100.0,
                if within { "ok" } else { "FAILED" }
            );
        }
    }
    println!("selfcheck {}", if ok { "passed" } else { "FAILED" });
    ok
}

fn main() -> ExitCode {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(why) => {
            eprintln!("tac-benchmark: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match opts.command {
        Command::Run => run(&opts),
        Command::Selfcheck => selfcheck(&opts),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn options_take_the_driver_flags() {
        let o = parse(&[
            "run",
            "--workload",
            "t4_tac_sz",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload.unwrap().name, "t4_tac_sz");
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.smoke),
            (7, 2.5, Some(true), false)
        );
        let o = parse(&["selfcheck", "--smoke"]).unwrap();
        assert_eq!(
            (o.command, o.seed, o.trace, o.smoke),
            (Command::Selfcheck, DEFAULT_SEED, None, true)
        );
        assert_eq!(o.selected().len(), WORKLOADS.len());

        for bad in [
            &["bench"][..],
            &["run", "--workload", "nope"],
            &["run", "--seed"],
            &["run", "--seed", "x"],
            &["run", "--seconds", "-1"],
            &["run", "--trace", "2"],
            &["selfcheck", "--trace", "0"],
            &["run", "--fast"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// The whole command on toy grids: every workload, both passes,
    /// every metric present under its name, no operation failed.
    #[test]
    fn smoke_run_reports_every_metric() {
        let opts = parse(&["run", "--smoke"]).unwrap();
        let mut tracer = Tracer::new();
        for w in opts.selected() {
            let report = run_workload(w, &opts, None, &mut tracer);
            assert_eq!(report.tally().failed, 0, "{}", w.name);
            assert_eq!(
                report.end_to_end.as_ref().unwrap().compress_s.len(),
                SMOKE_REPS
            );
            let names: Vec<_> = report.metrics().iter().map(|m| m.name).collect();
            let want: Vec<_> = END_TO_END
                .iter()
                .map(|m| m.name)
                .chain(PER_LAYER.iter().map(|m| m.name))
                .collect();
            assert_eq!(names, want, "{}", w.name);
            let values = report.end_to_end_values().unwrap();
            assert!(
                values.iter().all(|v| v.is_finite() && *v > 0.0),
                "{}: {values:?}",
                w.name
            );
            assert!(report
                .to_json()
                .to_string()
                .contains("\"timed_seconds\": {\"compress\": {\"n\": 2"));
        }
        // One root span per workload, every other span under one.
        let roots = tracer.spans().iter().filter(|s| s.parent.is_none()).count();
        assert_eq!(roots, WORKLOADS.len());
        assert!(tracer.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
