//! The repository's benchmark: four workloads across the whole stack,
//! host and modeled end-to-end metrics, and a traced per-layer pass.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds T] [--trace 0|1|DIR] [--json FILE]
//! ```
//!
//! Without `--workload` every workload runs in its own child process, one
//! at a time. Each prints its metrics by name, unit and clock, checks
//! every output against the CPU oracle, and ends with a one-line JSON
//! result. Exit codes follow `locassm_bench::cli`: 2 for bad usage, 1
//! for a runtime error or an incorrect result. See README.md.
//!
//! `BENCHMARK.json`'s command is invoked as `<command> --workload W
//! --seed N --seconds T --trace 0|1`, with `T` its `run_seconds`; that is
//! why `--seconds` and the `0` form of `--trace` exist.

mod json;
mod replica;
mod report;
mod spans;
mod suite;

use locassm_bench::cli::{require_arg, require_ok, EXIT_FAILURE, EXIT_USAGE};
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};

/// Default dataset seed. Seed 12 is held out for checking claims.
const DEFAULT_SEED: u64 = 11;
/// Default measuring time per workload (`run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 20.0;
/// Where `--trace 1` writes `<workload>/{trace,layers}.json`.
const DEFAULT_TRACE_DIR: &str = "bench-trace";

const USAGE: &str = "usage: benchmark [--workload W] [--seed S] [--seconds T] \
                     [--trace 0|1|DIR] [--json FILE]";

struct Args {
    workload: Option<&'static suite::Workload>,
    seed: u64,
    seconds: f64,
    /// Directory for trace files; `None` runs untraced.
    trace: Option<PathBuf>,
    json: Option<PathBuf>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Args {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        json: None,
    };
    while let Some(flag) = it.next() {
        let mut value = |usage: &str| require_arg(it.next(), usage);
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload <name>");
                let w = suite::find(&name);
                if w.is_none() {
                    let names: Vec<&str> = suite::WORKLOADS.iter().map(|w| w.name).collect();
                    eprintln!(
                        "error: unknown workload {name:?}; expected one of {}",
                        names.join(", ")
                    );
                    exit(EXIT_USAGE);
                }
                a.workload = w;
            }
            "--seed" => a.seed = require_arg(value("--seed <u64>").parse().ok(), "--seed <u64>"),
            "--seconds" => {
                let s: Option<f64> = value("--seconds <s>").parse().ok();
                a.seconds = require_arg(
                    s.filter(|s| s.is_finite() && *s >= 0.0),
                    "--seconds <non-negative s>",
                );
            }
            "--trace" => {
                a.trace = match value("--trace <0|1|DIR>").as_str() {
                    "0" => None,
                    "1" => Some(PathBuf::from(DEFAULT_TRACE_DIR)),
                    dir => Some(PathBuf::from(dir)),
                }
            }
            "--json" => a.json = Some(PathBuf::from(value("--json <file>"))),
            "-h" | "--help" => {
                println!("{USAGE}");
                exit(0);
            }
            other => {
                eprintln!("error: unknown argument {other:?}\n{USAGE}");
                exit(EXIT_USAGE);
            }
        }
    }
    a
}

/// Fix glibc's heap policy. By default glibc adapts its mmap and trim
/// thresholds as blocks are freed, so whether large blocks (warp timelines,
/// result vectors) are reused from the heap or mapped, returned and faulted
/// in again depends on allocation history: identical k=77 runs measured
/// 203 or 298 MiB peak RSS at 760 or 865 contigs/s. Serving blocks below
/// 32 MiB (glibc's mmap ceiling) from the heap and never trimming it gives
/// every run the steady state a long-running process reaches; peak RSS is
/// then the heap's high-water mark.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_policy() {
    use std::ffi::c_int;
    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    for (param, value) in [(M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, c_int::MAX)] {
        // SAFETY: `mallopt` only changes a glibc tuning parameter; it takes
        // no pointers and runs before this process starts any other thread.
        if unsafe { mallopt(param, value) } == 0 {
            eprintln!("warning: mallopt({param}) failed; host metrics may vary between runs");
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_policy() {}

fn main() {
    pin_malloc_policy();
    let args = parse_args(std::env::args().skip(1));
    let ok = match args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    };
    exit(if ok { 0 } else { EXIT_FAILURE });
}

/// Run one workload in this process; returns whether it was correct.
fn run_one(w: &suite::Workload, args: &Args) -> bool {
    let opts = suite::RunOpts {
        scale: w.scale,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace.is_some(),
    };
    let out = require_ok(suite::run(w, &opts), &format!("workload {}", w.name));
    if let (Some(dir), Some(tr)) = (&args.trace, &out.tracer) {
        write_trace(&dir.join(w.name), &out.report, tr);
    }
    if let Some(path) = &args.json {
        write(path, &(out.report.detail_json() + "\n"));
    }
    print!("{}", out.report.table());
    println!("{}", out.report.result_line(args.trace.is_some()));
    out.report.correct()
}

fn write(path: &Path, text: &str) {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        require_ok(std::fs::create_dir_all(dir), &format!("create {}", dir.display()));
    }
    require_ok(std::fs::write(path, text), &format!("write {}", path.display()));
}

/// `trace.json` (Chrome format) and `layers.json` (self time per layer
/// plus the per-layer metrics).
fn write_trace(dir: &Path, r: &report::Report, tr: &spans::Tracer) {
    write(&dir.join("trace.json"), &tr.chrome_json());
    let layers: Vec<String> = tr
        .layer_times()
        .iter()
        .map(|(name, l)| {
            format!(
                "{}: {{\"self_s\": {}, \"spans\": {}}}",
                report::json_str(name),
                report::json_num(l.self_s),
                l.spans
            )
        })
        .collect();
    let text = format!(
        "{{\"workload\": {}, \"seed\": {}, \"clock\": \"host\",\n \"layers\": {{{}}},\n \"metrics\": {}}}\n",
        report::json_str(&r.workload),
        r.seed,
        layers.join(", "),
        report::metrics_json(&r.per_layer)
    );
    write(&dir.join("layers.json"), &text);
}

/// Run every workload in its own child process, one at a time, relaying
/// its output; the last line combines the children's results, with each
/// metric named `<workload>.<metric>`.
fn run_all(args: &Args) -> bool {
    let exe = require_ok(std::env::current_exe(), "locate the benchmark executable");
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics: Vec<(String, f64, String)> = Vec::new();
    let mut details = Vec::new();
    for w in &suite::WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            w.name,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ]);
        if let Some(dir) = &args.trace {
            cmd.arg("--trace").arg(dir);
        }
        let part = args.json.as_ref().map(|p| PathBuf::from(format!("{}.{}", p.display(), w.name)));
        if let Some(p) = &part {
            cmd.arg("--json").arg(p);
        }
        let out = require_ok(
            cmd.stdin(Stdio::null()).stderr(Stdio::inherit()).output(),
            &format!("run workload {}", w.name),
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        let Ok(result) = json::parse(last) else {
            eprintln!(
                "error: workload {} exited with {} and printed no result",
                w.name, out.status
            );
            correct = false;
            continue;
        };
        correct &= out.status.success()
            && result.get("correct").and_then(json::Json::as_bool) == Some(true);
        attempted += result.get("attempted").and_then(json::Json::as_f64).unwrap_or(0.0) as u64;
        failed += result.get("failed").and_then(json::Json::as_f64).unwrap_or(0.0) as u64;
        if let Some(json::Json::Obj(members)) = result.get("metrics") {
            for (name, m) in members {
                let value = m.get("value").and_then(json::Json::as_f64).unwrap_or(0.0);
                let unit = m.get("unit").and_then(json::Json::as_str).unwrap_or("");
                metrics.push((format!("{}.{name}", w.name), value, unit.to_string()));
            }
        }
        if let Some(Ok(text)) = part.as_ref().map(std::fs::read_to_string) {
            details.push(text.trim().to_string());
        }
        if let Some(p) = &part {
            let _ = std::fs::remove_file(p);
        }
    }
    if let Some(path) = &args.json {
        write(path, &format!("{{\"workloads\": [\n{}\n]}}\n", details.join(",\n")));
    }
    let named: Vec<(&str, f64, &str)> =
        metrics.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str())).collect();
    println!("{}", report::result_line(correct, attempted, failed, &named));
    correct
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;
    use report::Clock;

    /// `(name, unit)` of every metric in one section of BENCHMARK.json.
    fn declared(section: &str) -> Vec<(String, String)> {
        let spec =
            json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Some(Json::Arr(items)) = spec.get(section) else { panic!("no {section} list") };
        items
            .iter()
            .map(|m| {
                let s =
                    |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    /// Smoke run of all four workloads at a tiny scale with one timed pass:
    /// every declared metric is emitted with its unit, modeled metrics
    /// repeat exactly, the traced replica is bit-exact (a difference would
    /// make the report incorrect), and seeds 11 and 12 give different
    /// datasets.
    #[test]
    fn every_workload_emits_every_declared_metric() {
        let _serial = locassm_bench::alloc_count::measurement_lock();
        let (e2e, layers) = (declared("end_to_end"), declared("per_layer"));
        let opts = suite::RunOpts { scale: 0.005, seed: 11, seconds: 0.0, trace: true };
        for w in &suite::WORKLOADS {
            let a = suite::run(w, &opts).expect("run").report;
            let b = suite::run(w, &opts).expect("rerun").report;
            assert!(a.correct(), "{}: {:?} failed={}", w.name, a.errors, a.failed);
            assert_eq!(a.passes, 1, "{}: one timed pass at --seconds 0", w.name);
            for (list, emitted) in [(&e2e, &a.end_to_end), (&layers, &a.per_layer)] {
                for (name, unit) in list {
                    let m = emitted.iter().find(|m| &m.name == name);
                    assert_eq!(m.map(|m| m.unit), Some(unit.as_str()), "{}: metric {name}", w.name);
                }
            }
            for m in a.end_to_end.iter().chain(&a.per_layer).filter(|m| m.clock == Clock::Modeled) {
                let again = b.metric(&m.name).expect("same metric set");
                assert_eq!(
                    m.value.to_bits(),
                    again.value.to_bits(),
                    "{}: {} must repeat",
                    w.name,
                    m.name
                );
            }
        }
        let w = suite::find("paper-k21-a100").expect("workload");
        let untraced = |seed| suite::RunOpts { seed, trace: false, ..opts };
        let s11 = suite::run(w, &untraced(11)).expect("seed 11").report;
        let s12 = suite::run(w, &untraced(12)).expect("seed 12").report;
        assert_ne!(
            s11.metric("modeled_s").map(|m| m.value),
            s12.metric("modeled_s").map(|m| m.value),
            "seeds 11 and 12 must give different datasets"
        );
    }

    #[test]
    fn arguments_parse() {
        let args = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a = args(&[
            "--workload",
            "service-k21-a100",
            "--seed",
            "12",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]);
        assert_eq!(a.workload.map(|w| w.name), Some("service-k21-a100"));
        assert_eq!((a.seed, a.seconds), (12, 3.0));
        assert_eq!(a.trace, Some(PathBuf::from(DEFAULT_TRACE_DIR)));
        assert_eq!(args(&["--trace", "0"]).trace, None);
        assert_eq!(args(&["--trace", "out"]).trace, Some(PathBuf::from("out")));
    }
}
