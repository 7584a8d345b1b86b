//! Device parameter sets (paper Tables I and III).

use serde::{Deserialize, Serialize};
use std::fmt;

/// GPU vendor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    /// NVIDIA (A100).
    Nvidia,
    /// AMD (MI250X).
    Amd,
    /// Intel (Data Center GPU Max 1550).
    Intel,
}

/// Programming model the kernel dialect is written in (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProgrammingModel {
    /// NVIDIA CUDA.
    Cuda,
    /// AMD HIP.
    Hip,
    /// Intel oneAPI SYCL / DPC++.
    Sycl,
}

impl fmt::Display for ProgrammingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ProgrammingModel::Cuda => "CUDA",
            ProgrammingModel::Hip => "HIP",
            ProgrammingModel::Sycl => "SYCL",
        };
        f.write_str(s)
    }
}

/// The three devices evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceId {
    /// NVIDIA A100-40GB (Perlmutter).
    A100,
    /// AMD MI250X, single graphics compute die (Frontier).
    Mi250x,
    /// Intel Data Center GPU Max 1550, single tile (Sunspot).
    Max1550,
}

impl DeviceId {
    /// All devices in paper order (NVIDIA, AMD, Intel).
    pub const ALL: [DeviceId; 3] = [DeviceId::A100, DeviceId::Mi250x, DeviceId::Max1550];

    /// The static [`DeviceSpec`] for this device.
    pub fn spec(self) -> &'static DeviceSpec {
        match self {
            DeviceId::A100 => &A100,
            DeviceId::Mi250x => &MI250X,
            DeviceId::Max1550 => &MAX1550,
        }
    }
}

impl fmt::Display for DeviceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().short_name)
    }
}

/// Architectural parameters of one device (the slice of it the study uses:
/// one GCD of the MI250X, one tile of the Max 1550).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Which device this spec describes.
    pub id: DeviceId,
    /// Hardware vendor.
    pub vendor: Vendor,
    /// The programming model the kernel dialect for this device uses.
    pub model: ProgrammingModel,
    /// Marketing name.
    pub name: &'static str,
    /// Short label used in tables/plots.
    pub short_name: &'static str,
    /// HPC system the paper profiled on.
    pub system: &'static str,
    /// Compiler toolchain (paper Table I).
    pub compiler: &'static str,
    /// Warp / wavefront / sub-group width the kernel runs with.
    pub warp_width: u32,
    /// Compute units (SMs / CUs / Xe-cores) on the used die.
    pub compute_units: u32,
    /// L1 capacity per compute unit, bytes.
    pub l1_bytes_per_cu: u64,
    /// L2 capacity of the used die/tile, bytes.
    pub l2_bytes: u64,
    /// Device memory, bytes.
    pub mem_bytes: u64,
    /// Peak HBM bandwidth, bytes/second (the roofline's memory ceiling).
    pub hbm_bytes_per_sec: f64,
    /// Peak integer throughput, INTOPs/second (warp-level, the roofline's
    /// compute ceiling — the paper's "Peak INTOPS" in Fig. 6).
    pub peak_intops_per_sec: f64,
    /// Warps resident per compute unit at this kernel's occupancy.
    pub resident_warps_per_cu: u32,
    /// Average HBM access latency, seconds (used by the latency term of
    /// the timing model and the scheduled-execution replay).
    pub hbm_latency_sec: f64,
    /// Load-to-use latency of an L1 hit, seconds (calibration estimate;
    /// used only by the scheduled-execution replay — see `docs/TIMING.md`).
    pub l1_latency_sec: f64,
    /// Load-to-use latency of an L2 hit, seconds (calibration estimate;
    /// used only by the scheduled-execution replay).
    pub l2_latency_sec: f64,
    /// Fraction of peak issue rate this kernel class sustains (calibration
    /// constant; see `timing`).
    pub sustained_issue_frac: f64,
    /// Fraction of peak bandwidth sustainable with scattered 32 B sectors.
    pub sustained_bw_frac: f64,
    /// Memory-level parallelism per warp (outstanding transactions).
    pub mlp_per_warp: f64,
    /// Whether the L2 uses sectored fills (NVIDIA/Intel) or whole-line
    /// fills (AMD CDNA) — see `memhier::CacheConfig::sectored`.
    pub l2_sectored: bool,
}

impl DeviceSpec {
    /// Machine balance: peak INTOPs/s over peak bytes/s (INTOP per byte).
    /// The ridge point of the instruction roofline (Fig. 6: 0.23 / 0.23 / 0.09).
    pub fn machine_balance(&self) -> f64 {
        self.peak_intops_per_sec / self.hbm_bytes_per_sec
    }
}

/// NVIDIA A100 (Perlmutter, CUDA 12.0). Peaks from paper Fig. 6a.
pub static A100: DeviceSpec = DeviceSpec {
    id: DeviceId::A100,
    vendor: Vendor::Nvidia,
    model: ProgrammingModel::Cuda,
    name: "NVIDIA A100-40GB",
    short_name: "NVIDIA",
    system: "Perlmutter (NERSC)",
    compiler: "CUDA 12.0",
    warp_width: 32,
    compute_units: 108,
    l1_bytes_per_cu: 192 * 1024,
    l2_bytes: 40 * 1024 * 1024,
    mem_bytes: 40 * 1024 * 1024 * 1024,
    hbm_bytes_per_sec: 1555.0e9,
    peak_intops_per_sec: 358.0e9,
    resident_warps_per_cu: 8,
    hbm_latency_sec: 480e-9,
    l1_latency_sec: 20e-9,
    l2_latency_sec: 140e-9,
    sustained_issue_frac: 0.16,
    sustained_bw_frac: 0.65,
    mlp_per_warp: 3.0,
    l2_sectored: true,
};

/// AMD MI250X, one GCD (Frontier, ROCm 5.3.0). Peaks from paper Fig. 6b;
/// L2 is 8 MB per die (Fig. 6 caption).
pub static MI250X: DeviceSpec = DeviceSpec {
    id: DeviceId::Mi250x,
    vendor: Vendor::Amd,
    model: ProgrammingModel::Hip,
    name: "AMD MI250X (1 GCD)",
    short_name: "AMD",
    system: "Frontier (OLCF)",
    compiler: "ROCm 5.3.0",
    warp_width: 64,
    compute_units: 110,
    l1_bytes_per_cu: 16 * 1024,
    l2_bytes: 8 * 1024 * 1024,
    mem_bytes: 64 * 1024 * 1024 * 1024,
    hbm_bytes_per_sec: 1600.0e9,
    peak_intops_per_sec: 374.0e9,
    resident_warps_per_cu: 8,
    hbm_latency_sec: 600e-9,
    l1_latency_sec: 30e-9,
    l2_latency_sec: 170e-9,
    // Divergence-heavy integer kernels sustain a lower fraction of peak
    // issue on the 64-wide CDNA2 wavefront (calibration; EXPERIMENTS.md).
    sustained_issue_frac: 0.13,
    sustained_bw_frac: 0.60,
    mlp_per_warp: 3.0,
    l2_sectored: false,
};

/// Intel Data Center GPU Max 1550, one tile (Sunspot, DPC++ 2023).
/// Peaks from paper Fig. 6c; L2 is 204 MB per tile (Fig. 6 caption),
/// L1 is 512 KB per Xe-core (Table III's 64 MB over 128 cores).
pub static MAX1550: DeviceSpec = DeviceSpec {
    id: DeviceId::Max1550,
    vendor: Vendor::Intel,
    model: ProgrammingModel::Sycl,
    name: "Intel Max 1550 (1 tile)",
    short_name: "INTEL",
    system: "Sunspot (ALCF)",
    compiler: "Intel DPC++ 2023",
    warp_width: 16,
    compute_units: 64,
    l1_bytes_per_cu: 512 * 1024,
    l2_bytes: 204 * 1024 * 1024,
    mem_bytes: 64 * 1024 * 1024 * 1024,
    hbm_bytes_per_sec: 1176.21e9,
    peak_intops_per_sec: 105.0e9,
    resident_warps_per_cu: 8,
    hbm_latency_sec: 550e-9,
    l1_latency_sec: 25e-9,
    l2_latency_sec: 160e-9,
    sustained_issue_frac: 0.16,
    sustained_bw_frac: 0.60,
    mlp_per_warp: 3.0,
    l2_sectored: true,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_balance_matches_paper_fig6() {
        // Fig. 6 annotates machine balance 0.23, 0.23, 0.09.
        assert!((A100.machine_balance() - 0.23).abs() < 0.01);
        assert!((MI250X.machine_balance() - 0.23).abs() < 0.01);
        assert!((MAX1550.machine_balance() - 0.09).abs() < 0.01);
    }

    #[test]
    fn warp_widths_match_paper() {
        assert_eq!(A100.warp_width, 32);
        assert_eq!(MI250X.warp_width, 64);
        assert_eq!(MAX1550.warp_width, 16);
    }

    #[test]
    fn cache_ordering_matches_table3() {
        // L2: Intel ≫ NVIDIA ≫ AMD (per used die/tile).
        assert!(MAX1550.l2_bytes > A100.l2_bytes);
        assert!(A100.l2_bytes > MI250X.l2_bytes);
        // L1 per CU: Intel > NVIDIA > AMD.
        assert!(MAX1550.l1_bytes_per_cu > A100.l1_bytes_per_cu);
        assert!(A100.l1_bytes_per_cu > MI250X.l1_bytes_per_cu);
    }

    #[test]
    fn spec_lookup_is_consistent() {
        for id in DeviceId::ALL {
            assert_eq!(id.spec().id, id);
        }
        assert_eq!(DeviceId::A100.spec().model, ProgrammingModel::Cuda);
        assert_eq!(DeviceId::Mi250x.spec().model, ProgrammingModel::Hip);
        assert_eq!(DeviceId::Max1550.spec().model, ProgrammingModel::Sycl);
    }

    #[test]
    fn issue_rate_positive() {
        for id in DeviceId::ALL {
            let s = id.spec();
            assert!(s.sustained_issue_frac > 0.0 && s.sustained_issue_frac <= 1.0);
        }
    }
}
