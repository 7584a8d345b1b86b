//! `verify` — the reproduction's counterpart of the artifact's
//! `test_script.sh`: run the kernel on every simulated device and check
//! the results for correctness against the reference implementation.
//!
//! ```text
//! verify [--scale S] [--seed N] [--k K]
//! ```
//!
//! Exit code 0 and a PASS line per device on success; a diff summary and
//! exit code 1 on any mismatch.

use gpu_specs::DeviceId;
use locassm_bench::cli::{parse_k, parse_scale, require_arg, SCALE_USAGE};
use locassm_core::{assemble_all, AssemblyConfig};
use locassm_kernels::{run_local_assembly, GpuConfig};
use workloads::paper_dataset;

fn main() {
    let mut scale = 0.01;
    let mut seed = 7u64;
    let mut ks = vec![21usize, 33, 55, 77];
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = require_arg(it.next().and_then(|v| parse_scale(&v)), SCALE_USAGE),
            "--seed" => seed = require_arg(it.next().and_then(|v| v.parse().ok()), "--seed <n>"),
            "--k" => {
                ks = vec![require_arg(it.next().and_then(|v| parse_k(&v)), "--k <21|33|55|77>")]
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    let mut failures = 0usize;
    for &k in &ks {
        let ds = paper_dataset(k, scale, seed);
        let reference = assemble_all(&ds.jobs, &AssemblyConfig::new(k), true);
        for dev in DeviceId::ALL {
            let cfg = GpuConfig::for_device(dev);
            let run = run_local_assembly(&ds, &cfg);
            if run.extensions == reference {
                println!(
                    "PASS  k={k:<2} {dev:<6} ({}) — {} contigs, extensions identical to reference",
                    dev.spec().model,
                    ds.jobs.len()
                );
            } else {
                failures += 1;
                let diffs = run
                    .extensions
                    .iter()
                    .zip(&reference)
                    .filter(|(a, b)| a != b)
                    .count();
                println!("FAIL  k={k:<2} {dev:<6} — {diffs} contigs differ from reference");
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} device/dataset combinations FAILED");
        std::process::exit(1);
    }
    println!("all device/dataset combinations verified");
}
