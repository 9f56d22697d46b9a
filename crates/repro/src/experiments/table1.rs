//! Table 1: description of the benchmarks.
//!
//! The paper's Table 1 lists each SPECint95 benchmark with its input and
//! the number of predicted instructions. Our analogue lists the synthetic
//! stand-ins (with their block mixes and measured trace statistics) and
//! the VM kernels.

use dfcm_sim::engine::{TaskError, TaskOutput};
use dfcm_sim::report::TextTable;
use dfcm_trace::stats::{TraceStats, TraceStatsFold};
use dfcm_trace::suite::standard_suite;
use dfcm_vm::{assemble, programs, Vm, VmLimits};

use crate::common::{banner, Options};

/// The records Table 1 describes a kernel by: its whole run, up to this
/// bound. Every bundled kernel halts below it (after 0.16–1.21M records),
/// whatever `--scale` says.
const KERNEL_RECORDS: usize = 2_000_000;

/// The records one VM pull hands to the statistics fold.
const PULL_RECORDS: usize = 1 << 16;

/// Runs the Table 1 reproduction.
///
/// The suite half measures the run's memoized suite and the VM half runs
/// each kernel on the VM's interpreter; statistics are independent per
/// trace, so both halves run as engine task batches whose metrics land in
/// `metrics/table1.jsonl`.
///
/// The VM half describes each kernel, so it runs each one to completion
/// (up to `KERNEL_RECORDS`) at any `--scale`, where vmbench and fig6_9
/// evaluate prefixes that `--scale` caps. Its records stream through a
/// [`TraceStatsFold`] in pulls of `PULL_RECORDS`, so a kernel's trace
/// is never held whole.
pub fn run(opts: &Options) {
    banner(
        "Table 1: benchmark descriptions",
        "Synthetic SPECint95 stand-ins (paper: SimpleScalar traces, counts in M; ours scaled by --scale) \
         plus the VM kernels used for Figures 6 and 9.",
    );

    let specs = standard_suite();
    // The whole suite comes from the run's memo up front, so with
    // `--traces DIR` a damaged file fails the experiment before any row
    // is computed.
    let traces = opts.traces();
    let labels = specs.iter().map(|s| s.name().to_owned()).collect();
    let mut run = opts.experiment("table1");
    let rows = run.rows("suite", labels, |i| {
        let spec = &specs[i];
        let stats = TraceStats::measure(&traces[i].trace);
        let paper_m = spec.predictions(1.0) as f64 / 10_000.0;
        Ok(TaskOutput {
            value: vec![
                spec.name().to_owned(),
                stats.records.to_string(),
                format!("{paper_m:.0}"),
                stats.static_instructions.to_string(),
                format!("{:.2}", stats.last_value_fraction),
                format!("{:.2}", stats.stride_fraction),
                format!("{:.2}", stats.reuse_fraction),
            ],
            records: stats.records as u64,
        })
    });
    let mut table = TextTable::new(vec![
        "benchmark",
        "predictions",
        "paper (M)",
        "statics",
        "lv-frac",
        "stride-frac",
        "reuse-frac",
    ]);
    for row in rows {
        table.row(row);
    }
    print!("{}", table.render());
    opts.emit(&table, "table1");

    println!();
    println!("VM kernels (trace-generating real programs):");
    let kernels = programs::all();
    let labels = kernels.iter().map(|(name, _)| (*name).to_owned()).collect();
    let rows = run.rows("vm", labels, |i| {
        let (name, src) = kernels[i];
        // Budgeted so a kernel that regresses into an infinite loop
        // fails its task instead of hanging the sweep.
        let limits = VmLimits {
            max_instructions: Some(1_000_000_000),
            ..VmLimits::default()
        };
        let program = assemble(src).expect("bundled kernel assembles");
        let mut vm = Vm::with_limits(program, limits)?;
        let mut fold = TraceStatsFold::default();
        let mut left = KERNEL_RECORDS;
        while left > 0 && !vm.halted() {
            let pull = vm
                .try_take_trace(left.min(PULL_RECORDS))
                .map_err(|e| TaskError::Permanent(format!("{name} faulted: {e}")))?;
            left -= pull.len();
            fold.add(pull.records());
        }
        let stats = fold.finish();
        Ok(TaskOutput {
            value: vec![
                name.to_owned(),
                stats.records.to_string(),
                stats.static_instructions.to_string(),
                format!("{:.2}", stats.last_value_fraction),
                format!("{:.2}", stats.stride_fraction),
            ],
            records: stats.records as u64,
        })
    });
    run.finish();
    let mut vm_table = TextTable::new(vec![
        "kernel",
        "records",
        "statics",
        "lv-frac",
        "stride-frac",
    ]);
    for row in rows {
        vm_table.row(row);
    }
    print!("{}", vm_table.render());
    opts.emit(&vm_table, "table1_vm");
}
