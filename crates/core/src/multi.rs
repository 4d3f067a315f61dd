//! Multi-unit execution: Table IX projects 432 Uni-STC units (4 per SM x
//! 108 SMs). This module replays a kernel over `n_units` parallel units
//! using the warp-level static load balancing of [`crate::schedule`]: each
//! unit owns one warp quota of stored blocks, and the kernel finishes when
//! the slowest unit does (the makespan).
//!
//! Per-block cycles come from the kernel's own task stream
//! ([`KernelSpec::tasks`]), so a one-unit replay bills exactly the cycles
//! of the serial driver run.

use simkit::driver::{Kernel, KernelSpec};
use simkit::TileEngine;
use sparse::BbcMatrix;

use crate::schedule::{balance_warps, warp_loads};

/// Result of a multi-unit replay.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiUnitReport {
    /// Cycles per unit (warp), in warp order.
    pub unit_cycles: Vec<u64>,
    /// Makespan: the slowest unit's cycles.
    pub makespan: u64,
    /// Single-unit (serial) cycles for the same work.
    pub serial_cycles: u64,
}

impl MultiUnitReport {
    /// Parallel speedup over one unit.
    ///
    /// Returns 1.0 when no work was performed.
    pub fn speedup(&self) -> f64 {
        if self.makespan == 0 {
            1.0
        } else {
            self.serial_cycles as f64 / self.makespan as f64
        }
    }

    /// Parallel efficiency in `(0, 1]`: speedup over unit count.
    ///
    /// Returns 1.0 when no units ran.
    pub fn efficiency(&self) -> f64 {
        if self.unit_cycles.is_empty() {
            1.0
        } else {
            self.speedup() / self.unit_cycles.len() as f64
        }
    }
}

/// Replays SpMV (dense `x`) or SpMM (`n_cols` dense columns; ignored for
/// SpMV) over `n_units` parallel units with the static warp balancing of
/// Section V-A.
///
/// # Panics
///
/// Panics if `n_units == 0` or `kernel` is not SpMV / SpMM (SpMSpV skips
/// blocks and block pairs of SpGEMM need a different partitioning axis).
pub fn parallel_kernel(
    engine: &dyn TileEngine,
    a: &BbcMatrix,
    kernel: Kernel,
    n_cols: usize,
    n_units: usize,
) -> MultiUnitReport {
    assert!(
        matches!(kernel, Kernel::SpMV | Kernel::SpMM),
        "parallel replay supports SpMV and SpMM"
    );
    let spec = match kernel {
        Kernel::SpMV => KernelSpec::SpMV { a },
        _ => KernelSpec::SpMM { a, n_cols },
    };
    // Both streams issue the same number of tasks for every stored block,
    // in stored-block order.
    let tasks = spec.tasks();
    let per_block = tasks.len().checked_div(a.block_count()).unwrap_or(0);
    let block_cycles = |bi: usize| -> u64 {
        tasks[bi * per_block..(bi + 1) * per_block]
            .iter()
            .filter(|t| !t.is_trivial())
            .map(|t| engine.execute(t).cycles)
            .sum()
    };
    let ranges = balance_warps(a, n_units);
    let mut unit_cycles = vec![0u64; warp_loads(&ranges).len().max(1)];
    for range in &ranges {
        for bi in range.start..range.end {
            unit_cycles[range.warp] += block_cycles(bi);
        }
    }
    MultiUnitReport {
        makespan: unit_cycles.iter().copied().max().unwrap_or(0),
        serial_cycles: unit_cycles.iter().sum(),
        unit_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UniStc;
    use sparse::{CooMatrix, CsrMatrix};

    fn bbc(n: usize, entries: impl IntoIterator<Item = (usize, usize)>) -> BbcMatrix {
        let mut coo = CooMatrix::new(n, n);
        for (r, c) in entries {
            coo.push(r, c, 1.0);
        }
        BbcMatrix::from_csr(&CsrMatrix::try_from(coo).unwrap())
    }

    #[test]
    fn makespan_bounded_by_serial_and_ideal() {
        let a = bbc(256, (0..256).map(|i| (i, (i * 11) % 256)));
        let uni = UniStc::default();
        for n_units in [1usize, 2, 4, 8] {
            let rep = parallel_kernel(&uni, &a, Kernel::SpMV, 1, n_units);
            assert!(rep.makespan <= rep.serial_cycles);
            assert!(rep.makespan * n_units as u64 >= rep.serial_cycles);
            assert!(rep.speedup() >= 1.0);
            assert!(rep.efficiency() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn one_unit_equals_serial() {
        let a = bbc(128, (0..128).map(|i| (i, i)));
        let rep = parallel_kernel(&UniStc::default(), &a, Kernel::SpMV, 1, 1);
        assert_eq!(rep.makespan, rep.serial_cycles);
        assert!((rep.speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn balanced_work_scales_nearly_linearly() {
        // 32 identical diagonal blocks across 8 units.
        let a = bbc(512, (0..512).map(|i| (i, i)));
        let rep = parallel_kernel(&UniStc::default(), &a, Kernel::SpMV, 1, 8);
        assert!(rep.efficiency() > 0.9, "efficiency {}", rep.efficiency());
    }

    #[test]
    fn spmm_replay_works() {
        let a = bbc(64, (0..64).map(|i| (i, (i * 3) % 64)));
        let rep = parallel_kernel(&UniStc::default(), &a, Kernel::SpMM, 64, 4);
        assert!(rep.makespan > 0);
        assert!(rep.speedup() > 1.0);
    }

    #[test]
    #[should_panic(expected = "SpMV and SpMM")]
    fn spgemm_rejected() {
        let a = bbc(16, [(0, 0)]);
        parallel_kernel(&UniStc::default(), &a, Kernel::SpGEMM, 1, 2);
    }
}
