//! `make-data` — write the four synthetic datasets to disk in the text
//! `.dat` format (the reproduction's counterpart of the artifact's
//! `locassm_data/` folder).
//!
//! ```text
//! make-data [--scale S] [--seed N] [--out DIR]
//! ```

use locassm_bench::cli::{parse_scale, require_arg, require_ok, SCALE_USAGE};
use locassm_core::io::write_dataset;
use std::fs;
use std::path::PathBuf;
use workloads::{paper_dataset, DatasetStats};

fn main() {
    let mut scale = 0.01;
    let mut seed = 20240913u64;
    let mut out = PathBuf::from("data");
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => scale = require_arg(it.next().and_then(|v| parse_scale(&v)), SCALE_USAGE),
            "--seed" => seed = require_arg(it.next().and_then(|v| v.parse().ok()), "--seed <n>"),
            "--out" => out = PathBuf::from(require_arg(it.next(), "--out <dir>")),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }

    require_ok(fs::create_dir_all(&out), &format!("create output directory {}", out.display()));
    for k in [21usize, 33, 55, 77] {
        let ds = paper_dataset(k, scale, seed);
        let stats = DatasetStats::compute(&ds);
        let path = out.join(format!("localassm_extend_{k}.dat"));
        require_ok(
            fs::write(&path, write_dataset(&ds)),
            &format!("write dataset {}", path.display()),
        );
        println!(
            "{}: {} contigs, {} reads, {} insertions",
            path.display(),
            stats.total_contigs,
            stats.total_reads,
            stats.total_hash_insertions
        );
    }
}
