//! Golden regression tests: exact accuracy counts for pinned seeds.
//!
//! Everything in this repository is deterministic — workload generation,
//! predictor state, evaluation order — so these exact values must never
//! drift silently. If a test here fails after an *intentional* change to
//! the workload generator or a predictor, re-derive the constants with
//! the printed actual values and record the change in CHANGELOG.md; any
//! other failure is a real regression.

use dfcm_suite::predictors::{DfcmPredictor, FcmPredictor, StridePredictor, ValuePredictor};
use dfcm_suite::sim::simulate_trace;
use dfcm_suite::trace::suite::{standard_suite, standard_traces};
use dfcm_suite::vm::{assemble, programs, Vm};

const SEED: u64 = 0xD15EA5E;

fn suite_correct<P: ValuePredictor>(mut make: impl FnMut() -> P) -> u64 {
    let mut total = 0;
    for spec in standard_suite() {
        let bench = spec.trace(SEED, 0.01);
        let mut p = make();
        total += simulate_trace(&mut p, &bench.trace).correct;
    }
    total
}

#[test]
fn suite_length_is_pinned() {
    let total: usize = standard_suite().iter().map(|b| b.predictions(0.01)).sum();
    assert_eq!(total, 109_500);
}

#[test]
fn golden_fcm_suite_accuracy() {
    let correct = suite_correct(|| {
        FcmPredictor::builder()
            .l1_bits(12)
            .l2_bits(12)
            .build()
            .expect("valid")
    });
    assert_eq!(correct, 59_364, "FCM golden value drifted");
}

#[test]
fn golden_dfcm_suite_accuracy() {
    let correct = suite_correct(|| {
        DfcmPredictor::builder()
            .l1_bits(12)
            .l2_bits(12)
            .build()
            .expect("valid")
    });
    assert_eq!(correct, 72_725, "DFCM golden value drifted");
}

#[test]
fn golden_stride_suite_accuracy() {
    let correct = suite_correct(|| StridePredictor::new(12));
    assert_eq!(correct, 67_724, "stride golden value drifted");
}

#[test]
fn golden_vm_kernel_trace() {
    // Each kernel's trace is a pure function of its program: the first
    // 200,000 records, or the whole run where `halt` comes first.
    let golden: [(&str, usize, u64); 10] = [
        ("norm", 200_000, 8229268450666171212),
        ("queens", 200_000, 13560105003285176757),
        ("lzw", 200_000, 7487529846486637590),
        ("matmul", 200_000, 9628434535135658503),
        ("hashstr", 200_000, 6337607752106892291),
        ("treeins", 200_000, 2576298745308805246),
        ("sieve", 200_000, 16346103368239759631),
        ("bubble", 200_000, 6617401208198937546),
        ("fib", 164_179, 12363686736776066848),
        ("strsearch", 167_694, 5339343666567379813),
    ];
    let names: Vec<&str> = programs::all().iter().map(|&(n, _)| n).collect();
    assert_eq!(names, golden.map(|(n, _, _)| n), "kernel registry changed");
    for (name, len, checksum) in golden {
        let mut vm = Vm::new(assemble(programs::by_name(name).unwrap()).unwrap());
        let trace = vm.try_take_trace(200_000).expect("kernels do not fault");
        let actual = trace.iter().fold(0u64, |acc, r| {
            acc.wrapping_mul(1099511628211).wrapping_add(r.pc ^ r.value)
        });
        assert_eq!(trace.len(), len, "{name}: VM trace length drifted");
        assert_eq!(actual, checksum, "{name}: VM trace checksum drifted");
    }
}

#[test]
fn golden_suite_trace() {
    // Every record of the synthetic suite, in suite order, through the
    // VM checksum's fold: pins the generator, pointer-chase node
    // placement included, record for record.
    let checksum: u64 = standard_traces(SEED, 0.01)
        .iter()
        .flat_map(|bench| bench.trace.iter())
        .fold(0u64, |acc, r| {
            acc.wrapping_mul(1099511628211).wrapping_add(r.pc ^ r.value)
        });
    assert_eq!(
        checksum, 12018577575201589225,
        "suite trace checksum drifted"
    );
}
