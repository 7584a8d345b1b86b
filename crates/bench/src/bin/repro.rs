//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--scale S] [--seed N] [--serial] <artifact>...
//! artifact ∈ {table1, table2, table3, table4, table5, table6, table7,
//!             fig5, fig6, fig7, fig8, fig9, ablation, all}
//! ```
//!
//! `--scale` shrinks the datasets (contig/read counts) for quick runs; the
//! official numbers in EXPERIMENTS.md use the default scale 1.0, which
//! reproduces Table II's counts exactly.

use gpu_specs::DeviceId;
use locassm_bench::cli::{require_arg, require_ok};
use locassm_core::io::Dataset;
use locassm_kernels::{run_local_assembly, GpuConfig, KernelProfile};
use perfmodel::plot::{BarChart, LogLogScatter, Series};
use perfmodel::table::{bytes_eng, f, pct, Table};
use perfmodel::{
    algorithm_efficiency, performance_portability, Csv, RooflinePoint, SpeedupPoint,
    TheoreticalModel,
};
use std::collections::BTreeMap;
use workloads::{paper_dataset, DatasetStats, ExtensionStats};

const KS: [usize; 4] = [21, 33, 55, 77];

struct Args {
    scale: f64,
    seed: u64,
    parallel: bool,
    csv_dir: Option<std::path::PathBuf>,
    trace: Option<std::path::PathBuf>,
    sanitize: bool,
    sched: bool,
    sched_trace: Option<std::path::PathBuf>,
    artifacts: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 1.0,
        seed: 20240913,
        parallel: true,
        csv_dir: None,
        trace: None,
        sanitize: false,
        sched: false,
        sched_trace: None,
        artifacts: vec![],
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = require_arg(
                    it.next().and_then(|v| v.parse().ok()),
                    "--scale <positive float>",
                );
            }
            "--seed" => {
                args.seed =
                    require_arg(it.next().and_then(|v| v.parse().ok()), "--seed <integer>");
            }
            "--serial" => args.parallel = false,
            "--sanitize" => args.sanitize = true,
            "--sched" => args.sched = true,
            "--sched-trace" => {
                args.sched = true;
                args.sched_trace = Some(std::path::PathBuf::from(require_arg(
                    it.next(),
                    "--sched-trace <path.json>",
                )));
            }
            "--csv" => {
                args.csv_dir =
                    Some(std::path::PathBuf::from(require_arg(it.next(), "--csv <dir>")));
            }
            "--trace" => {
                args.trace = Some(std::path::PathBuf::from(require_arg(
                    it.next(),
                    "--trace <path.json>",
                )));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--scale S] [--seed N] [--serial] [--csv DIR] \
                     [--trace PATH.json] [--sanitize] [--sched] [--sched-trace PATH.json] \
                     <table1..table7|fig5..fig9|ablation|whatif|divergence|scaling|adept|packed|all>..."
                );
                std::process::exit(0);
            }
            other => args.artifacts.push(other.to_string()),
        }
    }
    if args.artifacts.is_empty() && args.trace.is_none() && !args.sanitize && !args.sched {
        args.artifacts.push("all".to_string());
    }
    const KNOWN: [&str; 16] = [
        "table1", "table2", "table3", "table4", "table5", "table6", "table7", "fig5", "fig6",
        "fig7", "fig8", "fig9", "ablation", "whatif", "divergence", "scaling",
    ];
    for a in &args.artifacts {
        let known = KNOWN.contains(&a.as_str())
            || matches!(a.as_str(), "adept" | "packed" | "all");
        if !known {
            eprintln!("unknown artifact `{a}` (see --help)");
            std::process::exit(2);
        }
    }
    args
}

/// All simulated runs for the main study: (k, device) → profile, plus the
/// A100 extensions for the dataset statistics.
struct Matrix {
    profiles: BTreeMap<(usize, &'static str), KernelProfile>,
    dataset_stats: BTreeMap<usize, DatasetStats>,
    ext_stats: BTreeMap<usize, ExtensionStats>,
}

fn device_key(d: DeviceId) -> &'static str {
    d.spec().short_name
}

fn device_of(key: &str) -> DeviceId {
    match key {
        "NVIDIA" => DeviceId::A100,
        "AMD" => DeviceId::Mi250x,
        "INTEL" => DeviceId::Max1550,
        other => panic!("unknown device key {other}"),
    }
}

fn build_matrix(args: &Args) -> Matrix {
    let mut profiles = BTreeMap::new();
    let mut dataset_stats = BTreeMap::new();
    let mut ext_stats = BTreeMap::new();
    for k in KS {
        eprintln!("[repro] generating dataset k={k} (scale {})…", args.scale);
        let ds: Dataset = paper_dataset(k, args.scale, args.seed);
        dataset_stats.insert(k, DatasetStats::compute(&ds));
        for dev in DeviceId::ALL {
            eprintln!("[repro]   simulating {} ({})…", dev, dev.spec().model);
            let mut cfg = GpuConfig::for_device(dev);
            cfg.parallel = args.parallel;
            let run = run_local_assembly(&ds, &cfg);
            if dev == DeviceId::A100 {
                ext_stats.insert(k, ExtensionStats::compute(&run.extensions));
            }
            profiles.insert((k, device_key(dev)), run.profile);
        }
    }
    Matrix { profiles, dataset_stats, ext_stats }
}

fn table1() {
    let mut t = Table::new("Table I — HPC architectures, compilers and languages")
        .header(["HPC System", "Accelerator", "Programming Model", "Compiler"]);
    for dev in DeviceId::ALL {
        let s = dev.spec();
        t.row([s.system, s.name, &s.model.to_string(), s.compiler]);
    }
    println!("{}", t.render());
}

fn table2(m: &Matrix) {
    let mut t = Table::new("Table II — dataset characteristics (synthetic, targeting the paper)")
        .header([
            "k-mer size",
            "total contigs",
            "total reads",
            "avg read length",
            "total hash insertions",
            "avg extn length",
            "total extns",
        ]);
    for k in KS {
        let d = &m.dataset_stats[&k];
        let e = &m.ext_stats[&k];
        t.row([
            k.to_string(),
            d.total_contigs.to_string(),
            d.total_reads.to_string(),
            f(d.avg_read_length, 1),
            d.total_hash_insertions.to_string(),
            f(e.avg_extension_length, 1),
            e.total_extensions.to_string(),
        ]);
    }
    println!("{}", t.render());
    println!("(paper: 14195/74159/155/10011465/48.2/684100, 4394/20421/159/2593467/88.2/387283,");
    println!(" 3319/13160/166/1473920/161.0/534206, 2544/7838/175/775962/227.0/577496)\n");
}

fn table3() {
    let mut t = Table::new("Table III — architectural features (per used die/tile)")
        .header(["Board", "Compute Units", "L1 / CU", "L2", "Memory", "Warp"]);
    for dev in DeviceId::ALL {
        let s = dev.spec();
        t.row([
            s.name.to_string(),
            s.compute_units.to_string(),
            bytes_eng(s.l1_bytes_per_cu),
            bytes_eng(s.l2_bytes),
            bytes_eng(s.mem_bytes),
            s.warp_width.to_string(),
        ]);
    }
    println!("{}", t.render());
}

fn fig5(m: &Matrix) {
    let mut chart = BarChart::new("Fig. 5 — kernel execution time (simulated)", "s");
    for k in KS {
        for dev in DeviceId::ALL {
            let p = &m.profiles[&(k, device_key(dev))];
            chart.bar(format!("k={k:<2} {}", device_key(dev)), p.seconds());
        }
    }
    println!("{}", chart.render());
}

fn fig6(m: &Matrix) {
    for dev in DeviceId::ALL {
        let spec = dev.spec();
        let mut plot = LogLogScatter::new(
            format!(
                "Fig. 6 — instruction roofline, {} (machine balance {:.2}, peak {:.0} GINTOPS, {:.0} GB/s)",
                device_key(dev),
                spec.machine_balance(),
                spec.peak_intops_per_sec / 1e9,
                spec.hbm_bytes_per_sec / 1e9
            ),
            "II [INTOPs/byte]",
            "performance [INTOP/s]",
        );
        let mut t = Table::new("").header(["k", "II", "GINTOP/s", "% roofline", "bound"]);
        let mut pts = Vec::new();
        for k in KS {
            let p = &m.profiles[&(k, device_key(dev))];
            let rp = RooflinePoint::new(p.intops(), p.hbm_bytes(), p.seconds());
            pts.push((rp.ii, rp.intops_per_sec));
            t.row([
                k.to_string(),
                f(rp.ii, 3),
                f(rp.intops_per_sec / 1e9, 2),
                pct(rp.fraction_of_roofline(spec)),
                format!("{:?}", rp.bound(spec)),
            ]);
        }
        plot.series(Series { label: "k=21..77".into(), marker: 'o', points: pts });
        println!("{}", plot.render());
        println!("{}", t.render());
    }
}

fn correlation(m: &Matrix, other: DeviceId, fig: &str) {
    let okey = device_key(other);
    let mut perf = LogLogScatter::new(
        format!("{fig}a — A100 vs {okey} GINTOPs/s"),
        format!("{okey} GINTOPs/s"),
        "A100 GINTOPs/s",
    );
    perf.diagonal = true;
    let mut bytes = LogLogScatter::new(
        format!("{fig}b — A100 vs {okey} GBytes"),
        format!("{okey} GBytes"),
        "A100 GBytes",
    );
    bytes.diagonal = true;
    let mut t = Table::new(format!("{fig} — correlation data")).header([
        "k".to_string(),
        format!("{okey} GINTOPs/s"),
        "A100 GINTOPs/s".to_string(),
        format!("{okey} GB"),
        "A100 GB".to_string(),
    ]);
    let mut perf_pts = Vec::new();
    let mut byte_pts = Vec::new();
    for k in KS {
        let a = &m.profiles[&(k, "NVIDIA")];
        let o = &m.profiles[&(k, okey)];
        perf_pts.push((o.gintops_per_sec(), a.gintops_per_sec()));
        byte_pts.push((o.hbm_bytes() as f64 / 1e9, a.hbm_bytes() as f64 / 1e9));
        t.row([
            k.to_string(),
            f(o.gintops_per_sec(), 2),
            f(a.gintops_per_sec(), 2),
            f(o.hbm_bytes() as f64 / 1e9, 3),
            f(a.hbm_bytes() as f64 / 1e9, 3),
        ]);
    }
    perf.series(Series { label: "k=21..77".into(), marker: 'o', points: perf_pts });
    bytes.series(Series { label: "k=21..77".into(), marker: 'o', points: byte_pts });
    println!("{}", perf.render());
    println!("{}", bytes.render());
    println!("{}", t.render());
}

/// Per-(k, device) architectural efficiencies.
fn arch_effs(m: &Matrix) -> BTreeMap<(usize, &'static str), f64> {
    m.profiles
        .iter()
        .map(|((k, dev), p)| {
            let spec = device_of(dev).spec();
            let rp = RooflinePoint::new(p.intops(), p.hbm_bytes(), p.seconds());
            ((*k, *dev), rp.fraction_of_roofline(spec).min(1.0))
        })
        .collect()
}

fn alg_effs(m: &Matrix) -> BTreeMap<(usize, &'static str), f64> {
    m.profiles
        .iter()
        .map(|((k, dev), p)| ((*k, *dev), algorithm_efficiency(p.intop_intensity(), *k)))
        .collect()
}

fn eff_table(title: &str, effs: &BTreeMap<(usize, &'static str), f64>) {
    let mut t = Table::new(title).header([
        "dataset k-mer size",
        "NVIDIA A100",
        "AMD MI250X",
        "Intel Max 1550",
        "P",
    ]);
    let mut all_p = Vec::new();
    for k in KS {
        let row: Vec<f64> = ["NVIDIA", "AMD", "INTEL"].iter().map(|d| effs[&(k, *d)]).collect();
        let p = performance_portability(&row);
        all_p.push(p);
        t.row([k.to_string(), pct(row[0]), pct(row[1]), pct(row[2]), pct(p)]);
    }
    println!("{}", t.render());
    let avg = all_p.iter().sum::<f64>() / all_p.len() as f64;
    println!("Average P = {}\n", pct(avg));
}

fn table5() {
    let mut t = Table::new("Table V — integer operations in the hash function")
        .header(["Dataset (k-mer size)", "21", "33", "55", "77"]);
    let b = locassm_core::MurmurOpBreakdown::for_len;
    for (name, func) in [
        ("Initialization", Box::new(move |k| b(k).initialization) as Box<dyn Fn(usize) -> u64>),
        ("Mix Loop (+ loop ctl)", Box::new(move |k| b(k).mix_loop + b(k).tail)),
        ("Cleanup", Box::new(move |k| b(k).cleanup)),
        ("INTOP1", Box::new(locassm_core::murmur_intops)),
    ] {
        let mut cells = vec![name.to_string()];
        for k in KS {
            cells.push(func(k).to_string());
        }
        t.row(cells);
    }
    println!("{}", t.render());
    println!("(paper totals: 215, 305, 457, 635 — reproduced exactly)\n");
}

fn table6() {
    let mut t = Table::new("Table VI — theoretical II calculations").header([
        "k-mer size",
        "INTOPs per loop cycle",
        "Bytes per loop cycle",
        "INTOP Intensity (II)",
    ]);
    for k in KS {
        let model = TheoreticalModel::for_k(k);
        t.row([
            k.to_string(),
            model.intops_per_cycle().to_string(),
            model.bytes_per_cycle().to_string(),
            f(model.ii(), 3),
        ]);
    }
    println!("{}", t.render());
}

fn fig9(m: &Matrix) {
    let arch = arch_effs(m);
    let alg = alg_effs(m);
    let mut plot = LogLogScatter::new(
        "Fig. 9 — potential speed-up plot (x: % theoretical II, y: % roofline)",
        "% theoretical II",
        "% roofline",
    );
    let mut t = Table::new("Fig. 9 — data").header([
        "device/k",
        "alg eff",
        "arch eff",
        "speedup via AI",
        "speedup via perf",
    ]);
    for (marker, dev) in [('N', "NVIDIA"), ('A', "AMD"), ('I', "INTEL")] {
        let mut pts = Vec::new();
        for k in KS {
            let sp = SpeedupPoint::new(alg[&(k, dev)].min(1.0), arch[&(k, dev)].min(1.0));
            pts.push((sp.algorithm_eff * 100.0, sp.architectural_eff * 100.0));
            t.row([
                format!("{dev} k={k}"),
                pct(sp.algorithm_eff),
                pct(sp.architectural_eff),
                format!("{:.1}x", sp.speedup_from_ai()),
                format!("{:.1}x", sp.speedup_from_performance()),
            ]);
        }
        plot.series(Series { label: dev.to_string(), marker, points: pts });
    }
    println!("{}", plot.render());
    println!("{}", t.render());
}

fn ablation(args: &Args) {
    let ds = paper_dataset(33, (0.1_f64).min(args.scale), args.seed);
    println!("## Ablation (k=33 dataset, {} contigs)\n", ds.jobs.len());

    // (a) Sub-group width sweep on the Max 1550 (§III-C: 16 chosen).
    let mut t = Table::new("Ablation A — sub-group width sweep (Max 1550, SYCL dialect)")
        .header(["width", "INTOPs", "HBM bytes", "lane util", "time (s)"]);
    for width in [8u32, 16, 32, 64] {
        let mut cfg = GpuConfig::for_device(DeviceId::Max1550);
        cfg.width = width;
        cfg.parallel = args.parallel;
        let p = run_local_assembly(&ds, &cfg).profile;
        t.row([
            width.to_string(),
            p.intops().to_string(),
            bytes_eng(p.hbm_bytes()),
            pct(p.total.lane_utilization()),
            f(p.seconds(), 6),
        ]);
    }
    println!("{}", t.render());

    // (b) Dialect cross-product on the A100 model.
    let mut t = Table::new("Ablation B — insertion dialect on the A100 model")
        .header(["dialect", "warp instr", "collectives+syncs", "time (s)"]);
    for dialect in
        [locassm_kernels::Dialect::Cuda, locassm_kernels::Dialect::Hip, locassm_kernels::Dialect::Sycl]
    {
        let mut cfg = GpuConfig::for_device(DeviceId::A100);
        cfg.dialect = dialect;
        cfg.parallel = args.parallel;
        let p = run_local_assembly(&ds, &cfg).profile;
        t.row([
            dialect.to_string(),
            p.total.warp_instructions.to_string(),
            (p.total.collective_instructions + p.total.sync_instructions).to_string(),
            f(p.seconds(), 6),
        ]);
    }
    println!("{}", t.render());

    // (c) Binning policy (Fig. 3's motivation: balanced batches).
    let mut t = Table::new("Ablation C — contig binning policy (A100 model)")
        .header(["policy", "batches", "max warp instr", "time (s)"]);
    for (name, policy) in [
        ("power-of-two", locassm_core::BinningPolicy::PowerOfTwo),
        ("fixed-256", locassm_core::BinningPolicy::FixedSize(256)),
        ("single", locassm_core::BinningPolicy::Single),
    ] {
        let mut cfg = GpuConfig::for_device(DeviceId::A100);
        cfg.binning = policy;
        cfg.parallel = args.parallel;
        let p = run_local_assembly(&ds, &cfg).profile;
        t.row([
            name.to_string(),
            p.batches.len().to_string(),
            p.total.max_warp_instructions.to_string(),
            f(p.seconds(), 6),
        ]);
    }
    println!("{}", t.render());
}

fn packed() {
    // §V-E's proposed locality optimization, quantified analytically:
    // 2-bit packed, inline hash-table keys (core::packed) vs the byte-
    // string keys the kernel ships with.
    let mut t = Table::new(
        "Packed k-mers: theoretical INTOP intensity (Table VI, revisited)",
    )
    .header([
        "k",
        "bytes/cycle (baseline)",
        "bytes/cycle (packed)",
        "II (baseline)",
        "II (packed)",
        "II gain",
    ]);
    for k in KS {
        let base = TheoreticalModel::for_k(k);
        let pk = TheoreticalModel::for_k_packed(k);
        t.row([
            k.to_string(),
            base.bytes_per_cycle().to_string(),
            pk.bytes_per_cycle().to_string(),
            f(base.ii(), 3),
            f(pk.ii(), 3),
            format!("{:.2}x", TheoreticalModel::packing_gain(k)),
        ]);
    }
    println!("{}", t.render());
    println!("(2-bit packing raises the algorithm's intensity ceiling 2.0-3.3x; on the");
    println!(" memory-bound devices of Fig. 6 that translates directly into the same");
    println!(" factor of attainable performance — the paper's 'more localized data");
    println!(" structure' headroom, made concrete)\n");
}

fn adept_compare(args: &Args) {
    // The paper's §I contrast, on one roofline: the DP alignment kernel
    // (ADEPT [5], [15]) vs the de Bruijn local assembly kernel, same
    // simulated devices, same counters.
    use adept::{run_alignment_batch, Pair, Scoring};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut dna = |len: usize| -> Vec<u8> {
        (0..len).map(|_| locassm_core::dna::BASES[rng.random_range(0..4)]).collect()
    };
    // ADEPT-like workload: read-length queries against contig fragments.
    let pairs: Vec<Pair> = (0..((2000.0 * args.scale).max(64.0) as usize))
        .map(|_| Pair { query: dna(150), reference: dna(300) })
        .collect();
    let ds = paper_dataset(33, (0.05_f64).min(args.scale), args.seed);

    println!(
        "## Companion kernel comparison: Smith-Waterman (ADEPT-style) vs local assembly\n"
    );
    let mut t = Table::new("Same devices, same counters, two bioinformatics kernels").header([
        "device",
        "kernel",
        "II",
        "GINTOP/s",
        "% roofline",
        "lane util",
    ]);
    for dev in DeviceId::ALL {
        let spec = dev.spec();
        let sw = run_alignment_batch(&pairs, spec, &Scoring::default(), args.parallel);
        let sw_rp = RooflinePoint::new(sw.counters.intops(), sw.counters.mem.hbm_bytes(), sw.time.seconds);
        t.row([
            dev.to_string(),
            "SW align".to_string(),
            f(sw_rp.ii, 2),
            f(sw_rp.intops_per_sec / 1e9, 1),
            pct(sw_rp.fraction_of_roofline(spec).min(1.0)),
            pct(sw.counters.lane_utilization()),
        ]);
        let mut cfg = GpuConfig::for_device(dev);
        cfg.parallel = args.parallel;
        let la = run_local_assembly(&ds, &cfg).profile;
        let la_rp = RooflinePoint::new(la.intops(), la.hbm_bytes(), la.seconds());
        t.row([
            dev.to_string(),
            "local asm".to_string(),
            f(la_rp.ii, 2),
            f(la_rp.intops_per_sec / 1e9, 1),
            pct(la_rp.fraction_of_roofline(spec).min(1.0)),
            pct(la.total.lane_utilization()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(the DP kernel keeps lanes busy and achieves a higher roofline fraction; the\n          hash-table kernel pays predication and scattered-access penalties — §I's contrast)\n"
    );
}

fn divergence(args: &Args) {
    // The thread-predication profile behind §V-B: integer instructions
    // bucketed by active-lane quartile, per device and phase.
    let ds = paper_dataset(33, (0.1_f64).min(args.scale), args.seed);
    println!("## Divergence profile (k=33 dataset, {} contigs)\n", ds.jobs.len());
    let mut t = Table::new("Integer instructions by active-lane quartile").header([
        "device",
        "phase",
        "0-25%",
        "25-50%",
        "50-75%",
        "75-100%",
        "lane util",
    ]);
    for dev in DeviceId::ALL {
        let mut cfg = GpuConfig::for_device(dev);
        cfg.parallel = args.parallel;
        let p = run_local_assembly(&ds, &cfg).profile;
        for (name, agg) in [("construct", &p.phases.construct), ("walk", &p.phases.walk)] {
            let q = agg.divergence_profile();
            t.row([
                dev.to_string(),
                name.to_string(),
                pct(q[0]),
                pct(q[1]),
                pct(q[2]),
                pct(q[3]),
                pct(agg.lane_utilization()),
            ]);
        }
    }
    println!("{}", t.render());
    println!(
        "(the mer-walk is single-lane: its instructions sit entirely in the 0-25% quartile —\n          the predication cost the paper attributes the large-k behaviour to)\n"
    );
}

fn scaling(args: &Args) {
    // Multi-device distribution (the MetaHipMer per-node offload context):
    // rank sweep with per-policy makespan and imbalance.
    use locassm_kernels::{run_multi_gpu, Partition};
    let ds = paper_dataset(21, (0.05_f64).min(args.scale), args.seed);
    println!("## Multi-GPU scaling (k=21 dataset, {} contigs)\n", ds.jobs.len());
    let mut t = Table::new("Distributed local assembly across simulated A100 ranks").header([
        "ranks",
        "policy",
        "makespan (s)",
        "imbalance",
        "speedup",
    ]);
    let mut cfg = GpuConfig::for_device(DeviceId::A100);
    cfg.parallel = args.parallel;
    let single = run_local_assembly(&ds, &cfg).profile.seconds();
    for ranks in [1usize, 2, 4, 8] {
        for (name, policy) in [
            ("round-robin", Partition::RoundRobin),
            ("blocked", Partition::Blocked),
            ("work-balanced", Partition::WorkBalanced),
        ] {
            let r = run_multi_gpu(&ds, &cfg, ranks, policy);
            t.row([
                ranks.to_string(),
                name.to_string(),
                f(r.makespan_seconds(), 6),
                f(r.imbalance(), 3),
                format!("{:.2}x", single / r.makespan_seconds()),
            ]);
        }
    }
    println!("{}", t.render());
}

fn whatif(args: &Args) {
    // The paper's §V-E projection, executable: sweep the L2 size of each
    // device model and watch HBM traffic / estimated time respond. Run at
    // full occupancy (single batch) so the shared-L2 pressure matches
    // production batch sizes.
    let ds = paper_dataset(21, (0.1_f64).min(args.scale), args.seed);
    println!("## What-if: L2 capacity sweep (k=21 dataset, {} contigs)\n", ds.jobs.len());
    let mut t = Table::new("HBM traffic and time vs L2 capacity")
        .header(["device", "L2", "HBM bytes", "II", "time (s)"]);
    for dev in DeviceId::ALL {
        for mult in [0.25f64, 1.0, 4.0, 16.0] {
            let mut spec = dev.spec().clone();
            spec.l2_bytes = ((spec.l2_bytes as f64 * mult) as u64).max(1 << 20);
            let mut cfg = GpuConfig::for_device(dev).with_spec(spec.clone());
            cfg.binning = locassm_core::BinningPolicy::Single;
            cfg.parallel = args.parallel;
            let p = run_local_assembly(&ds, &cfg).profile;
            t.row([
                if mult == 1.0 { format!("{} (stock)", dev) } else { dev.to_string() },
                bytes_eng(spec.l2_bytes),
                bytes_eng(p.hbm_bytes()),
                f(p.intop_intensity(), 2),
                f(p.seconds(), 6),
            ]);
        }
    }
    println!("{}", t.render());
}

/// A traced run of the k=21 dataset on the A100 model: writes a Chrome
/// `trace_event` JSON timeline (load in chrome://tracing or Perfetto) and
/// a flat per-span CSV next to it, and prints the per-phase profile the
/// traces imply. See EXPERIMENTS.md § "Tracing a run".
fn trace_run(args: &Args, path: &std::path::Path) {
    // Per-warp traces are large; cap the dataset so the JSON stays
    // viewer-friendly (a few MB, not GB).
    let scale = args.scale.min(0.01);
    if scale < args.scale {
        eprintln!(
            "[repro] tracing caps the dataset at scale {scale} \
             (full-scale timelines would be GB-sized)"
        );
    }
    let ds = paper_dataset(21, scale, args.seed);
    eprintln!("[repro] traced run: k=21, {} contigs, A100 model…", ds.jobs.len());
    let mut cfg = GpuConfig::for_device(DeviceId::A100);
    cfg.parallel = args.parallel;
    cfg.trace = true;
    let run = run_local_assembly(&ds, &cfg);

    let json = perfmodel::chrome_trace(&run.traces);
    require_ok(
        std::fs::write(path, &json),
        &format!("write trace JSON {}", path.display()),
    );
    let csv_path = path.with_extension("phases.csv");
    require_ok(
        std::fs::write(&csv_path, perfmodel::phase_csv(&run.traces).render()),
        &format!("write phase CSV {}", csv_path.display()),
    );
    eprintln!(
        "[repro] {} warp traces -> {} (per-span CSV: {})",
        run.traces.len(),
        path.display(),
        csv_path.display()
    );

    let tp = locassm_kernels::TraceProfile::from_traces(&run.traces);
    let mut t = Table::new("Per-phase profile derived from the warp traces")
        .header(["phase", "spans", "warp instr", "INTOPs", "II", "lane util"]);
    for p in &tp.phases {
        t.row([
            p.name.clone(),
            p.spans.to_string(),
            p.warp_instructions.to_string(),
            p.intops.to_string(),
            f(p.intop_intensity(), 2),
            pct(p.lane_utilization()),
        ]);
    }
    println!("{}", t.render());
}

/// `--sanitize`: run the paper's kernels under the warp sanitizer — every
/// dialect on every dataset with all checks on (the `sanitizer_clean`
/// matrix) — then seed a deliberate lane race into a bare warp and show
/// the detector catching it. See EXPERIMENTS.md § "Sanitizing a run".
fn sanitize_run(args: &Args) {
    use simt::{LaneVec, Mask, SanitizerConfig, Warp};

    // (a) The clean matrix: three dialects × four datasets, all checks on.
    // The paper's kernels are race-free by construction (ordered by
    // __match_any_sync/__syncwarp, __all-lockstep, or sub-group barriers),
    // so every cell must report zero findings.
    let scale = args.scale.min(0.01);
    let mut t = Table::new("Warp sanitizer — three dialects x four datasets (all checks on)")
        .header(["k", "device", "dialect", "findings", "lints", "clean"]);
    for k in KS {
        let ds = paper_dataset(k, scale, args.seed);
        for dev in DeviceId::ALL {
            let mut cfg = GpuConfig::for_device(dev);
            cfg.parallel = args.parallel;
            cfg.sanitize = SanitizerConfig::all();
            let run = run_local_assembly(&ds, &cfg);
            t.row([
                k.to_string(),
                device_key(dev).to_string(),
                cfg.dialect.to_string(),
                run.san.findings.len().to_string(),
                run.san.lints.len().to_string(),
                if run.san.is_clean() { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    println!("{}", t.render());

    // (b) Seeded defects on a bare warp: the three hazard classes the
    // simt-level checks exist for, each provoked deliberately.
    let mut t = Table::new("Seeded defects — what each check reports")
        .header(["seeded defect", "check", "hits"]);
    let mut demo = |name: &str, body: &dyn Fn(&mut Warp)| {
        let mut warp = Warp::new(32, memhier::HierarchyConfig::tiny());
        warp.enable_sanitizer(SanitizerConfig::all());
        body(&mut warp);
        let report = warp.take_san_report().expect("sanitizer was enabled");
        for f in &report.findings {
            t.row([name.to_string(), f.kind.check().to_string(), "1".to_string()]);
        }
        if report.findings.is_empty() {
            t.row([name.to_string(), "(none)".to_string(), "0".to_string()]);
        }
    };
    demo("two lanes store the same word, no sync", &|w| {
        let a = w.mem.alloc(4);
        let vals = LaneVec::from_fn(32, |l| l);
        w.store_u32(Mask(0b11), &LaneVec::splat(a), &vals);
    });
    demo("syncwarp under a divergent mask", &|w| {
        w.iop(Mask(0b11), 1);
        w.syncwarp(Mask(0b1111));
    });
    demo("shuffle reads an inactive source lane", &|w| {
        let vals = LaneVec::from_fn(32, |l| l);
        let _ = w.shfl_u32(Mask(0b11), &vals, 5);
    });
    println!("{}", t.render());
    println!(
        "(the clean matrix above is the tier-1 `sanitizer_clean` gate; the seeded\n \
         defects are the regression suite's detection fixtures — see tests/sanitizer.rs)\n"
    );
}

/// `--sched`: run every dialect in scheduled-execution mode and print the
/// analytic-vs-replayed timing comparison with the replay's occupancy and
/// latency-hiding counters. With `--sched-trace PATH.json`, also write the
/// A100 run's SM issue-port timeline as Chrome `trace_event` JSON (plus a
/// flat CSV next to it). See EXPERIMENTS.md § "Scheduled execution &
/// occupancy" and docs/TIMING.md for what each column means.
fn sched_run(args: &Args) {
    use locassm_bench::modeled::{sched, slug, Rows};

    // Timelines pack each memory touch into ~1 byte (the k=77, scale-0.5
    // MI250X benchmark workload records 21.4 M events in 21.6 MB and
    // peaks near 14 MiB RSS), but replay time still grows with the event
    // count and `--sched-trace` keeps a 48-byte slice per issue segment,
    // so the dataset stays capped for a quick default invocation.
    let scale = args.scale.min(0.02);
    if scale < args.scale {
        eprintln!(
            "[repro] scheduled mode caps the dataset at scale {scale} \
             (timelines cost ~1 B per memory touch, SM-track slices 48 B \
             per issue segment; the replay's host time grows with both)"
        );
    }
    let mut rows = Rows::default();
    sched(&mut rows, scale, args.seed);
    println!(
        "## Scheduled execution — k={}, {} contigs (modeled, deterministic)\n",
        rows.get("sched.k"),
        rows.get("sched.contigs")
    );
    let mut t = Table::new("Analytic vs scheduled modeled time, with replay counters").header([
        "device",
        "analytic (s)",
        "scheduled (s)",
        "ratio",
        "SMs",
        "residency",
        "occupancy",
        "hidden",
    ]);
    for device in DeviceId::ALL {
        let get = |field: &str| rows.get(&format!("sched.{}.{field}", slug(device)));
        t.row([
            format!("{device} ({})", locassm_kernels::Dialect::native_for(device)),
            f(get("analytic_s"), 6),
            f(get("scheduled_s"), 6),
            format!("{:.2}x", get("ratio")),
            get("sms_used").to_string(),
            get("residency").to_string(),
            pct(get("occupancy")),
            pct(get("latency_hidden_fraction")),
        ]);
    }
    println!("{}", t.render());
    println!(
        "(ratio < 1: the replay hid more memory latency behind other warps than the\n \
         analytic queueing term assumed; `hidden` is the stall time overlapped away)\n"
    );

    if let Some(path) = &args.sched_trace {
        let ds = paper_dataset(21, scale, args.seed);
        let mut cfg = GpuConfig::for_device(DeviceId::A100);
        cfg.parallel = args.parallel;
        cfg.exec = simt::ExecMode::Scheduled;
        cfg.sched_tracks = true;
        let run = run_local_assembly(&ds, &cfg);
        require_ok(
            std::fs::write(path, perfmodel::sched_trace(&run.sched_tracks)),
            &format!("write SM-lane trace {}", path.display()),
        );
        let csv_path = path.with_extension("slices.csv");
        require_ok(
            std::fs::write(&csv_path, perfmodel::sched_csv(&run.sched_tracks).render()),
            &format!("write SM-slice CSV {}", csv_path.display()),
        );
        eprintln!(
            "[repro] {} SM slices -> {} (per-slice CSV: {})",
            run.sched_tracks.len(),
            path.display(),
            csv_path.display()
        );
    }
}

/// Dump the underlying per-run data as CSV files for external plotting.
fn write_csvs(dir: &std::path::Path, m: &Matrix) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;

    let mut runs = Csv::new([
        "k",
        "device",
        "dialect",
        "warp_width",
        "intops",
        "hbm_bytes",
        "intop_intensity",
        "gintops_per_sec",
        "seconds",
        "pct_roofline",
        "lane_utilization",
    ]);
    for ((k, dev), p) in &m.profiles {
        let spec = device_of(dev).spec();
        let rp = RooflinePoint::new(p.intops(), p.hbm_bytes(), p.seconds());
        runs.row([
            k.to_string(),
            dev.to_string(),
            p.dialect.to_string(),
            spec.warp_width.to_string(),
            p.intops().to_string(),
            p.hbm_bytes().to_string(),
            perfmodel::export::num(rp.ii),
            perfmodel::export::num(rp.intops_per_sec / 1e9),
            perfmodel::export::num(p.seconds()),
            perfmodel::export::num(rp.fraction_of_roofline(spec)),
            perfmodel::export::num(p.total.lane_utilization()),
        ]);
    }
    std::fs::write(dir.join("runs.csv"), runs.render())?;

    let mut datasets = Csv::new([
        "k",
        "contigs",
        "reads",
        "avg_read_len",
        "insertions",
        "avg_extn_len",
        "total_extns",
    ]);
    for (k, d) in &m.dataset_stats {
        let e = &m.ext_stats[k];
        datasets.row([
            k.to_string(),
            d.total_contigs.to_string(),
            d.total_reads.to_string(),
            perfmodel::export::num(d.avg_read_length),
            d.total_hash_insertions.to_string(),
            perfmodel::export::num(e.avg_extension_length),
            e.total_extensions.to_string(),
        ]);
    }
    std::fs::write(dir.join("datasets.csv"), datasets.render())?;

    let mut phases = Csv::new(["k", "device", "phase", "warp_instructions", "hbm_bytes"]);
    for ((k, dev), p) in &m.profiles {
        for (name, agg) in [("construct", &p.phases.construct), ("walk", &p.phases.walk)] {
            phases.row([
                k.to_string(),
                dev.to_string(),
                name.to_string(),
                agg.warp_instructions.to_string(),
                agg.mem.hbm_bytes().to_string(),
            ]);
        }
    }
    std::fs::write(dir.join("phases.csv"), phases.render())?;
    Ok(())
}

fn main() {
    let args = parse_args();
    let wants = |name: &str| args.artifacts.iter().any(|a| a == name || a == "all");

    let needs_matrix = ["table2", "table4", "table7", "fig5", "fig6", "fig7", "fig8", "fig9"]
        .iter()
        .any(|a| wants(a));
    let matrix = needs_matrix.then(|| build_matrix(&args));
    if let (Some(dir), Some(m)) = (&args.csv_dir, &matrix) {
        require_ok(write_csvs(dir, m), &format!("write CSV files to {}", dir.display()));
        eprintln!("[repro] CSV data written to {}", dir.display());
    }

    println!("# locassm repro — scale {}, seed {}\n", args.scale, args.seed);
    if let Some(path) = args.trace.clone() {
        trace_run(&args, &path);
    }
    if args.sanitize {
        sanitize_run(&args);
    }
    if args.sched {
        sched_run(&args);
    }
    if wants("table1") {
        table1();
    }
    if wants("table2") {
        table2(matrix.as_ref().unwrap());
    }
    if wants("table3") {
        table3();
    }
    if wants("fig5") {
        fig5(matrix.as_ref().unwrap());
    }
    if wants("fig6") {
        fig6(matrix.as_ref().unwrap());
    }
    if wants("fig7") {
        correlation(matrix.as_ref().unwrap(), DeviceId::Mi250x, "Fig. 7");
    }
    if wants("fig8") {
        correlation(matrix.as_ref().unwrap(), DeviceId::Max1550, "Fig. 8");
    }
    if wants("table4") {
        eff_table(
            "Table IV — architectural efficiency (fraction of the INTOP roofline)",
            &arch_effs(matrix.as_ref().unwrap()),
        );
    }
    if wants("table5") {
        table5();
    }
    if wants("table6") {
        table6();
    }
    if wants("table7") {
        eff_table(
            "Table VII — algorithm efficiency (fraction of theoretical II)",
            &alg_effs(matrix.as_ref().unwrap()),
        );
    }
    if wants("fig9") {
        fig9(matrix.as_ref().unwrap());
    }
    if wants("ablation") {
        ablation(&args);
    }
    if wants("whatif") {
        whatif(&args);
    }
    if wants("divergence") {
        divergence(&args);
    }
    if wants("scaling") {
        scaling(&args);
    }
    if wants("adept") {
        adept_compare(&args);
    }
    if wants("packed") {
        packed();
    }
}
