//! Dynamic DPG activation (Section IV-C, "Datapath").
//!
//! "Uni-STC employs a dynamic DPG activation mechanism to optimize energy
//! efficiency. By calculating the prefix sums of intermediate products at
//! the Tile queue head, the TMS determines the number of DPGs required to
//! saturate the SDPU. The control logic then power-gates any redundant
//! DPGs and their associated datapaths."
//!
//! [`dpgs_required`] is that look-ahead decision; the pipeline's measured
//! per-cycle activation (see [`crate::pipeline`]) realises it, and
//! [`gating_savings`] quantifies the gated-vs-always-on energy ratio the
//! paper bounds at 2.83x.

use crate::UniStcConfig;

/// Number of DPGs the TMS activates for the tasks at the Tile-queue head:
/// the prefix-sum of their per-cycle product supply is compared against
/// the SDPU's lane capacity, and activation stops at saturation.
///
/// `head_products` yields the remaining intermediate products of the T3
/// tasks at the queue head, in queue order (at most one task per DPG).
pub fn dpgs_required(cfg: &UniStcConfig, head_products: impl IntoIterator<Item = u32>) -> usize {
    let lanes = cfg.lanes() as u64;
    let emit = cfg.dpg_emit_lanes() as u64;
    let mut head = head_products.into_iter();
    let Some(first) = head.next() else { return 0 };
    let mut supply = 0u64;
    let mut active = 0usize;
    for p in std::iter::once(first).chain(head).take(cfg.n_dpg) {
        if p == 0 {
            continue;
        }
        if supply >= lanes {
            break;
        }
        supply += (p as u64).min(emit);
        active += 1;
    }
    active.max(1)
}

/// Ratio of always-on to gated datapath energy for a run with
/// `active_dpg_cycles` total active DPG-cycles over `cycles` cycles and
/// `n_dpg` DPGs: the paper reports savings "of up to 2.83x".
///
/// Returns 1.0 for an empty run.
pub fn gating_savings(n_dpg: usize, cycles: u64, active_dpg_cycles: u64) -> f64 {
    if cycles == 0 || active_dpg_cycles == 0 {
        return 1.0;
    }
    (n_dpg as u64 * cycles) as f64 / active_dpg_cycles as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::execute_t1;
    use simkit::{Block16, T1Task};

    #[test]
    fn dense_supply_needs_two_dpgs() {
        // Two DPGs at 32 lanes each saturate the 64-lane SDPU.
        let cfg = UniStcConfig::default();
        let head = [64u32; 8];
        assert_eq!(dpgs_required(&cfg, head), 2);
    }

    #[test]
    fn sparse_supply_activates_many_dpgs() {
        let cfg = UniStcConfig::default();
        let head = [4u32; 8];
        assert_eq!(dpgs_required(&cfg, head), 8);
    }

    #[test]
    fn empty_tasks_are_skipped() {
        let cfg = UniStcConfig::default();
        assert_eq!(dpgs_required(&cfg, [0, 0, 64, 64, 0]), 2);
        assert_eq!(dpgs_required(&cfg, []), 0);
    }

    #[test]
    fn lookahead_matches_measured_activation_on_dense() {
        // The pipeline's measured average activation on a dense task must
        // agree with the look-ahead decision (2 DPGs).
        let cfg = UniStcConfig::default();
        let t = T1Task::mm(Block16::dense(), Block16::dense());
        let r = execute_t1(&cfg, &t);
        let measured = r.events.unit_cycles as f64 / r.cycles as f64;
        let planned = dpgs_required(&cfg, [64; 8]) as f64;
        assert!((measured - planned).abs() < 0.6, "measured {measured} planned {planned}");
    }

    #[test]
    fn gating_savings_bounded_by_dpg_count() {
        let cfg = UniStcConfig::default();
        // A sparse diagonal task keeps few DPGs busy.
        let diag = Block16::from_fn(|r, c| r == c);
        let r = execute_t1(&cfg, &T1Task::mm(diag, diag));
        let s = gating_savings(8, r.cycles, r.events.unit_cycles);
        assert!((1.0..=8.0).contains(&s), "savings {s}");
        // Dense tasks gate 6 of 8 DPGs: savings ~ 4x (paper bound: up to
        // 2.83x network-energy savings from the gated datapaths).
        let rd = execute_t1(&cfg, &T1Task::mm(Block16::dense(), Block16::dense()));
        let sd = gating_savings(8, rd.cycles, rd.events.unit_cycles);
        assert!(sd > 2.0, "dense savings {sd}");
    }

    #[test]
    fn no_gating_means_no_savings() {
        assert_eq!(gating_savings(8, 10, 80), 1.0);
        assert_eq!(gating_savings(8, 0, 0), 1.0);
    }
}
