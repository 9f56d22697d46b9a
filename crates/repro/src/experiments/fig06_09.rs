//! Figures 6 and 9: number of accesses to each level-2 entry that are
//! part of a stride pattern, sorted descending.
//!
//! The paper instruments an FCM (Figure 6) and a DFCM (Figure 9) with
//! 64K-entry level-1 tables and 4096-entry level-2 tables, plus a
//! 64K-entry stride predictor acting as the stride-pattern detector.
//! Workloads: the `norm` kernel of Figure 5 and the `li` benchmark. We run
//! `norm` on the VM (a faithful translation) and `queens` as the
//! li-equivalent real program, plus the synthetic `li` profile.

use dfcm::{DfcmPredictor, FcmPredictor, L2Indexed, StrideOccupancyProfiler, ValuePredictor};
use dfcm_sim::report::TextTable;
use dfcm_trace::Trace;
use dfcm_vm::suite::kernel_trace;

use crate::common::{banner, Options};

const L1_BITS: u32 = 16;
const L2_BITS: u32 = 12;
const DETECTOR_BITS: u32 = 16;

fn profile<P: ValuePredictor + L2Indexed>(predictor: P, trace: &Trace) -> Vec<u64> {
    let mut profiler = StrideOccupancyProfiler::new(predictor, DETECTOR_BITS);
    for r in trace {
        profiler.access(r.pc, r.value);
    }
    profiler.stats().sorted_desc().to_vec()
}

fn run_workload(label: &str, trace: &Trace, opts: &Options) {
    let fcm = profile(
        FcmPredictor::builder()
            .l1_bits(L1_BITS)
            .l2_bits(L2_BITS)
            .build()
            .expect("valid"),
        trace,
    );
    let dfcm = profile(
        DfcmPredictor::builder()
            .l1_bits(L1_BITS)
            .l2_bits(L2_BITS)
            .build()
            .expect("valid"),
        trace,
    );

    println!("Workload `{label}` ({} records):", trace.len());
    let mut summary = TextTable::new(vec!["metric", "FCM", "DFCM"]);
    for threshold in [100u64, 1000] {
        let f = fcm.iter().filter(|&&c| c >= threshold).count();
        let d = dfcm.iter().filter(|&&c| c >= threshold).count();
        summary.row(vec![
            format!("entries with >= {threshold} stride accesses"),
            f.to_string(),
            d.to_string(),
        ]);
    }
    summary.row(vec![
        "total stride accesses".into(),
        fcm.iter().sum::<u64>().to_string(),
        dfcm.iter().sum::<u64>().to_string(),
    ]);
    print!("{}", summary.render());

    // The sorted series itself (the plotted curve), decimated for print,
    // full in the CSV.
    let mut curve = TextTable::new(vec!["rank", "fcm_accesses", "dfcm_accesses"]);
    for rank in 0..fcm.len() {
        curve.row(vec![
            rank.to_string(),
            fcm[rank].to_string(),
            dfcm[rank].to_string(),
        ]);
    }
    opts.emit(&curve, &format!("fig06_09_{label}"));
    print!("  head of sorted curve:");
    for rank in [0usize, 1, 3, 7, 15, 31, 63, 127, 511, 2047, 4095] {
        if rank < fcm.len() {
            print!("  r{rank}: {}/{}", fcm[rank], dfcm[rank]);
        }
    }
    println!();
    println!();
}

/// Runs the Figure 6 / Figure 9 reproduction.
pub fn run(opts: &Options) {
    banner(
        "Figures 6 and 9: stride accesses per level-2 entry (sorted)",
        "L1 = 2^16 entries, L2 = 4096 entries, 64K-entry stride detector. \
         Counts how many accesses to each level-2 entry carry stride-predictable values.",
    );

    // VM trace lengths follow --scale (default 0.1 -> 1.5 M records).
    let vm_records = ((opts.scale * 15_000_000.0) as usize).clamp(50_000, 5_000_000);
    for name in ["norm", "queens"] {
        let kernel = kernel_trace(name, vm_records).expect("bundled kernel");
        run_workload(name, &kernel.trace, opts);
    }

    let traces = opts.traces();
    let li = traces.iter().find(|b| b.name == "li").expect("li in suite");
    run_workload("li", &li.trace, opts);

    println!(
        "Check (paper): the DFCM stores stride patterns in far fewer level-2 entries \
         (norm: >100 entries above 100 accesses for FCM vs ~12 for DFCM; \
         li: 3801 vs 582 entries above 1000 accesses, a ~7x reduction)."
    );
}
