//! Tier-1 fault-tolerance sweep (robustness acceptance criteria).
//!
//! Sweeps bit-flip fault rates over BBC operands and asserts the three
//! pillars of the fault model:
//!
//! 1. **Detection** — every injected *metadata* fault (bitmaps and value
//!    pointers) is detected by [`BbcMatrix::validate`]; stream-level
//!    corruption is caught by the BBC2 section CRCs.
//! 2. **Containment** — the static gate (`KernelSpec::verify`) rejects
//!    every metadata-corrupted operand with `USTC012` before a cycle is
//!    simulated; an operand that passes it runs bit-identically to the
//!    fault-free reference, on one unit and in the multi-unit model.
//! 3. **No panics** — corrupted operands and corrupted streams surface as
//!    `Err`, never as a panic.

use analysis::UstcVerifier;
use simkit::driver::{self, Kernel, KernelSpec};
use simkit::fault::{FaultOutcome, FaultPlan};
use simkit::EnergyModel;
use sparse::rng::Rng64;
use sparse::{BbcMatrix, CooMatrix, CsrMatrix};
use uni_stc::multi::parallel_kernel;
use uni_stc::{UniStc, UniStcConfig};

/// The swept per-bit fault rates from the issue's acceptance criteria.
const RATES: [f64; 3] = [1e-4, 1e-3, 1e-2];

/// A seeded random CSR matrix sized to give every fault class a healthy
/// number of target bits.
fn random_matrix(seed: u64) -> CsrMatrix {
    let mut rng = Rng64::new(seed);
    let n = 24 + rng.next_range(56);
    let nnz = 40 + rng.next_range(300);
    let mut coo = CooMatrix::new(n, n);
    for _ in 0..nnz {
        let v = rng.next_f64_range(-4.0, 4.0);
        if v != 0.0 {
            coo.push(rng.next_range(n), rng.next_range(n), v);
        }
    }
    CsrMatrix::try_from(coo).unwrap()
}

fn inject(seed: u64, rate: f64, value_rate: f64) -> (BbcMatrix, BbcMatrix, FaultOutcome) {
    let clean = BbcMatrix::from_csr(&random_matrix(seed));
    let plan = FaultPlan {
        seed: seed ^ 0xFA17,
        bitmap_rate: rate,
        pointer_rate: rate,
        value_rate,
    };
    let (corrupted, outcome) = plan.inject_into(&clean);
    (clean, corrupted, outcome)
}

#[test]
fn metadata_fault_detection_is_total_across_rates() {
    // 100% of metadata corruptions must be detected by validate(): the
    // detected count can only fall short of the injected count by the
    // finite FP value flips, which no structural check can see.
    for (si, &rate) in RATES.iter().enumerate() {
        for seed in 0..24u64 {
            let seed = seed * RATES.len() as u64 + si as u64;
            let (_, corrupted, outcome) = inject(seed, rate, rate);
            let metadata = outcome.log.metadata_faults();
            assert!(
                outcome.detected >= metadata,
                "rate {rate} seed {seed}: {} of {metadata} metadata faults detected",
                outcome.detected
            );
            if metadata > 0 {
                assert!(
                    corrupted.validate().is_err(),
                    "rate {rate} seed {seed}: corrupted matrix passed validate()"
                );
            }
        }
    }
}

#[test]
fn stream_corruption_is_detected_by_crc() {
    // Serialize a clean matrix, flip bits in the byte stream at each swept
    // rate: read_bbc must reject every corrupted stream (CRC mismatch or
    // post-decode validation) without ever panicking.
    for &rate in &RATES {
        for seed in 0..12u64 {
            let clean = BbcMatrix::from_csr(&random_matrix(seed));
            let mut buf = Vec::new();
            clean.write_bbc(&mut buf).unwrap();
            let mut rng = Rng64::new(seed ^ 0xC4C);
            let mut flipped = 0u32;
            for byte in buf.iter_mut().skip(4) {
                for bit in 0..8 {
                    if rng.next_bool(rate) {
                        *byte ^= 1 << bit;
                        flipped += 1;
                    }
                }
            }
            let back = sparse::bbc::read_bbc(buf.as_slice());
            if flipped == 0 {
                assert_eq!(back.unwrap(), clean, "rate {rate} seed {seed}");
            } else {
                assert!(back.is_err(), "rate {rate} seed {seed}: {flipped} flips undetected");
            }
        }
    }
}

/// A degraded run is one over a fault-injected operand: the gate either
/// rejects it with `USTC012` or it injected nothing and runs bitwise
/// identically to the pristine operand.
#[test]
fn degraded_runs_are_bitwise_identical_to_reference() {
    let engine = UniStc::default();
    let em = EnergyModel::default();
    let verifier = UstcVerifier::new(UniStcConfig::default());
    let (mut rejected, mut clean) = (0, 0);
    for (si, &rate) in RATES.iter().enumerate() {
        for seed in 0..12u64 {
            let seed = seed * RATES.len() as u64 + si as u64;
            // Metadata-only plans: finite FP value flips are physically
            // undetectable without ECC, so containment is only promised
            // for pointer/bitmap corruption.
            let (pristine, corrupted, outcome) = inject(seed, rate, 0.0);
            let spec = KernelSpec::SpMV { a: &corrupted };
            match spec.verify(&verifier) {
                Err(e) => {
                    assert_eq!(e.code, "USTC012", "rate {rate} seed {seed}: {e}");
                    assert!(outcome.log.injected() > 0, "rate {rate} seed {seed}: clean rejected");
                    rejected += 1;
                }
                Ok(()) => {
                    assert_eq!(
                        outcome.log.injected(),
                        0,
                        "rate {rate} seed {seed}: injected faults passed the gate"
                    );
                    let run = driver::run_tasks(&engine, &em, spec.kernel(), spec.tasks());
                    let reference = driver::run_spmv(&engine, &em, &pristine);
                    assert_eq!(run, reference, "rate {rate} seed {seed}");
                    clean += 1;
                }
            }
        }
    }
    // The sweep must exercise both outcomes.
    assert!(rejected > 0 && clean > 0, "rejected {rejected}, clean {clean}");
}

/// Multi-unit cycle reports over fault-injected operands: a rejected
/// operand is never simulated, and an admitted one bills exactly the
/// pristine operand's per-unit cycles, whose total is the serial driver's.
#[test]
fn degraded_cycle_reports_stay_consistent() {
    let engine = UniStc::default();
    let em = EnergyModel::default();
    let verifier = UstcVerifier::new(UniStcConfig::default());
    let n_units = 4;
    for &rate in &RATES {
        for seed in 0..6u64 {
            let (pristine, corrupted, outcome) = inject(seed ^ 0x90, rate, 0.0);
            assert!(outcome.detected <= outcome.log.injected(), "rate {rate} seed {seed}");
            let clean = parallel_kernel(&engine, &pristine, Kernel::SpMV, 1, n_units);
            assert_eq!(clean.unit_cycles.iter().sum::<u64>(), clean.serial_cycles);
            assert!(clean.makespan <= clean.serial_cycles);
            assert_eq!(
                clean.serial_cycles,
                driver::run_spmv(&engine, &em, &pristine).cycles,
                "rate {rate} seed {seed}"
            );
            let spec = KernelSpec::SpMV { a: &corrupted };
            match spec.verify(&verifier) {
                Err(e) => {
                    assert_eq!(e.code, "USTC012", "rate {rate} seed {seed}: {e}");
                    assert!(outcome.structure_corrupt, "rate {rate} seed {seed}");
                }
                Ok(()) => {
                    let rep = parallel_kernel(&engine, &corrupted, Kernel::SpMV, 1, n_units);
                    assert_eq!(rep, clean, "rate {rate} seed {seed}");
                }
            }
        }
    }
}
