//! Execution profiling for VM runs: instruction mix, hot spots and
//! per-PC execution counts.
//!
//! The paper's workload characterization (which instructions produce the
//! stride patterns, where the `slt` constants come from) is easier to
//! follow with a profile of the actual kernel execution; this module
//! produces one without disturbing the traced run.

use std::collections::HashMap;
use std::fmt;

use crate::isa::Inst;
use crate::vm::{Vm, VmError, TEXT_BASE};

/// Coarse instruction classes for the mix report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstClass {
    /// Arithmetic and logic (including shifts and immediates).
    Alu,
    /// Comparison producers (`slt`, `slti`) — the paper's near-constant
    /// pattern source.
    Compare,
    /// Constant loads (`li`, including lowered `la`).
    Constant,
    /// Memory loads.
    Load,
    /// Memory stores.
    Store,
    /// Branches and jumps.
    Control,
    /// `nop` and `halt`.
    Other,
}

impl InstClass {
    /// Classifies one instruction.
    pub fn of(inst: &Inst) -> InstClass {
        match inst {
            Inst::Slt(..) | Inst::Slti(..) => InstClass::Compare,
            Inst::Li(..) => InstClass::Constant,
            Inst::Lw(..) => InstClass::Load,
            Inst::Sw(..) => InstClass::Store,
            Inst::Nop | Inst::Halt => InstClass::Other,
            i if i.is_control() => InstClass::Control,
            _ => InstClass::Alu,
        }
    }

    /// All classes, in report order.
    pub const ALL: [InstClass; 7] = [
        InstClass::Alu,
        InstClass::Compare,
        InstClass::Constant,
        InstClass::Load,
        InstClass::Store,
        InstClass::Control,
        InstClass::Other,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            InstClass::Alu => "alu",
            InstClass::Compare => "compare",
            InstClass::Constant => "constant",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::Control => "control",
            InstClass::Other => "other",
        }
    }
}

/// An execution profile of a VM run.
#[derive(Debug, Clone, Default)]
pub struct ExecutionProfile {
    /// Executed-instruction count per static instruction index.
    pub per_pc: HashMap<usize, u64>,
    /// Executed-instruction count per class.
    pub per_class: HashMap<InstClass, u64>,
    /// Total instructions executed.
    pub total: u64,
    /// Trace records emitted (value-producing executions).
    pub emitted: u64,
}

impl ExecutionProfile {
    /// Fraction of executed instructions in `class`.
    pub fn class_fraction(&self, class: InstClass) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            *self.per_class.get(&class).unwrap_or(&0) as f64 / self.total as f64
        }
    }

    /// The `n` most-executed static instructions, as
    /// `(instruction index, count)` sorted by descending count.
    pub fn hottest(&self, n: usize) -> Vec<(usize, u64)> {
        let mut entries: Vec<(usize, u64)> = self.per_pc.iter().map(|(&i, &c)| (i, c)).collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        entries.truncate(n);
        entries
    }

    /// Fraction of all executed instructions covered by the `n` hottest
    /// static instructions — the power-law hotness the table predictors
    /// rely on.
    pub fn hot_coverage(&self, n: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hot: u64 = self.hottest(n).iter().map(|&(_, c)| c).sum();
        hot as f64 / self.total as f64
    }
}

impl fmt::Display for ExecutionProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} instructions executed, {} records emitted",
            self.total, self.emitted
        )?;
        for class in InstClass::ALL {
            let fraction = self.class_fraction(class);
            if fraction > 0.0 {
                writeln!(f, "  {:<9} {:>5.1}%", class.label(), 100.0 * fraction)?;
            }
        }
        write!(
            f,
            "  top-10 static instructions cover {:.1}%",
            100.0 * self.hot_coverage(10)
        )
    }
}

/// Runs `vm` for at most `max_steps`, collecting an execution profile.
/// The machine's architectural behaviour is identical to [`Vm::run`].
///
/// # Errors
///
/// Propagates [`VmError`] from the underlying execution, a run off the
/// end of the program included.
pub fn run_profiled(vm: &mut Vm, max_steps: u64) -> Result<ExecutionProfile, VmError> {
    let mut profile = ExecutionProfile::default();
    let start = vm.steps();
    while !vm.halted() && vm.steps() - start < max_steps {
        let pc_index = vm.pc_index();
        // `step` faults on a pc outside the program, so a step that
        // returns has executed the instruction at `pc_index`.
        let emitted = vm.step()?.is_some();
        let inst = vm.inst_at(pc_index).expect("executed instruction exists");
        *profile.per_pc.entry(pc_index).or_default() += 1;
        *profile.per_class.entry(InstClass::of(&inst)).or_default() += 1;
        profile.total += 1;
        profile.emitted += u64::from(emitted);
    }
    Ok(profile)
}

/// Maps an instruction index back to its trace PC.
pub fn pc_of_index(index: usize) -> u64 {
    TEXT_BASE + 4 * index as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use crate::programs;

    fn profile_of(src: &str, max: u64) -> ExecutionProfile {
        let mut vm = Vm::new(assemble(src).unwrap());
        run_profiled(&mut vm, max).unwrap()
    }

    #[test]
    fn counts_match_simple_program() {
        let profile = profile_of(
            ".text
             main: li r1, 3
             loop: addi r1, r1, -1
                   bne r1, r0, loop
                   halt",
            1000,
        );
        // li once; addi and bne three times each; halt executes but does
        // not advance past itself.
        assert_eq!(profile.per_pc[&0], 1);
        assert_eq!(profile.per_pc[&1], 3);
        assert_eq!(profile.per_pc[&2], 3);
        assert_eq!(profile.total, 8);
        assert_eq!(profile.emitted, 4); // li + 3x addi
    }

    #[test]
    fn class_mix_sums_to_one() {
        let profile = profile_of(programs::SIEVE, 2_000_000);
        let sum: f64 = InstClass::ALL
            .iter()
            .map(|&c| profile.class_fraction(c))
            .sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(profile.class_fraction(InstClass::Store) > 0.0);
        assert!(profile.class_fraction(InstClass::Control) > 0.1);
    }

    #[test]
    fn hottest_identifies_inner_loops() {
        let profile = profile_of(programs::MATMUL, 10_000_000);
        let hottest = profile.hottest(12);
        // The 12 instructions of the mk inner loop dominate a 32^3 matmul.
        assert!(
            profile.hot_coverage(12) > 0.6,
            "{}",
            profile.hot_coverage(12)
        );
        assert!(hottest[0].1 > 30_000);
    }

    #[test]
    fn profiled_run_matches_plain_run() {
        let src = programs::QUEENS;
        let mut plain = Vm::new(assemble(src).unwrap());
        let plain_result = plain.run(50_000_000).unwrap();
        let mut profiled = Vm::new(assemble(src).unwrap());
        let profile = run_profiled(&mut profiled, 50_000_000).unwrap();
        assert_eq!(profile.total, plain_result.steps);
        assert_eq!(profile.emitted, plain_result.trace.len() as u64);
        assert_eq!(profiled.reg(25), plain.reg(25));
    }

    #[test]
    fn display_renders_report() {
        let profile = profile_of(programs::QUEENS, 100_000);
        let report = profile.to_string();
        assert!(report.contains("instructions executed"));
        assert!(report.contains("alu"));
        assert!(report.contains("top-10"));
    }

    #[test]
    fn classes_cover_isa() {
        assert_eq!(InstClass::of(&Inst::Slt(1, 2, 3)), InstClass::Compare);
        assert_eq!(InstClass::of(&Inst::Li(1, 0)), InstClass::Constant);
        assert_eq!(InstClass::of(&Inst::Lw(1, 0, 2)), InstClass::Load);
        assert_eq!(InstClass::of(&Inst::Sw(1, 0, 2)), InstClass::Store);
        assert_eq!(InstClass::of(&Inst::Jal(0)), InstClass::Control);
        assert_eq!(InstClass::of(&Inst::Add(1, 2, 3)), InstClass::Alu);
        assert_eq!(InstClass::of(&Inst::Halt), InstClass::Other);
    }

    #[test]
    fn pc_mapping() {
        assert_eq!(pc_of_index(0), TEXT_BASE);
        assert_eq!(pc_of_index(3), TEXT_BASE + 12);
    }
}
