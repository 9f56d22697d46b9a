//! The instruction set of the mini RISC virtual machine.
//!
//! A deliberately small MIPS-like integer ISA: 32 general-purpose 64-bit
//! registers (`r0` hardwired to zero), word-addressed data memory, and a
//! separate instruction space (Harvard style — code is not readable as
//! data). It is just large enough to express the integer kernels whose
//! value traces the paper studies: arithmetic, logic, shifts, comparisons
//! (`slt`, the paper's example of a near-constant producer), loads/stores,
//! and branches.

/// A register number, 0..=31. Register 0 always reads as zero and ignores
/// writes.
pub type Reg = u8;

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 32;

/// One decoded instruction.
///
/// Branch and jump targets are absolute instruction indices (the assembler
/// resolves labels to these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Inst {
    /// `rd = rs + rt`
    Add(Reg, Reg, Reg),
    /// `rd = rs - rt`
    Sub(Reg, Reg, Reg),
    /// `rd = rs * rt` (wrapping)
    Mul(Reg, Reg, Reg),
    /// `rd = rs / rt` (0 if `rt` is 0, like MIPS leaving HI/LO undefined —
    /// we define it for determinism)
    Div(Reg, Reg, Reg),
    /// `rd = rs % rt` (0 if `rt` is 0)
    Rem(Reg, Reg, Reg),
    /// `rd = rs + imm`
    Addi(Reg, Reg, i64),
    /// `rd = rs & rt`
    And(Reg, Reg, Reg),
    /// `rd = rs | rt`
    Or(Reg, Reg, Reg),
    /// `rd = rs ^ rt`
    Xor(Reg, Reg, Reg),
    /// `rd = rs & imm`
    Andi(Reg, Reg, i64),
    /// `rd = rs | imm`
    Ori(Reg, Reg, i64),
    /// `rd = rs ^ imm`
    Xori(Reg, Reg, i64),
    /// `rd = rs << shamt`
    Sll(Reg, Reg, u8),
    /// `rd = (rs as u64) >> shamt`
    Srl(Reg, Reg, u8),
    /// `rd = rs >> shamt` (arithmetic)
    Sra(Reg, Reg, u8),
    /// `rd = (rs < rt) ? 1 : 0` (signed)
    Slt(Reg, Reg, Reg),
    /// `rd = (rs < imm) ? 1 : 0` (signed)
    Slti(Reg, Reg, i64),
    /// `rd = imm` (also used for `la`, with the label's address)
    Li(Reg, i64),
    /// `rd = mem[rs + offset]`
    Lw(Reg, i64, Reg),
    /// `mem[rs + offset] = rt`
    Sw(Reg, i64, Reg),
    /// Branch to `target` if `rs == rt`
    Beq(Reg, Reg, usize),
    /// Branch to `target` if `rs != rt`
    Bne(Reg, Reg, usize),
    /// Branch to `target` if `rs < rt` (signed)
    Blt(Reg, Reg, usize),
    /// Branch to `target` if `rs >= rt` (signed)
    Bge(Reg, Reg, usize),
    /// Unconditional jump
    J(usize),
    /// Jump and link: `r31 = return index`, jump to `target`
    Jal(usize),
    /// Jump to the instruction index in `rs`
    Jr(Reg),
    /// No operation
    Nop,
    /// Stop execution
    Halt,
}

impl Inst {
    /// The destination register this instruction writes, if any.
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Inst::Add(rd, ..)
            | Inst::Sub(rd, ..)
            | Inst::Mul(rd, ..)
            | Inst::Div(rd, ..)
            | Inst::Rem(rd, ..)
            | Inst::Addi(rd, ..)
            | Inst::And(rd, ..)
            | Inst::Or(rd, ..)
            | Inst::Xor(rd, ..)
            | Inst::Andi(rd, ..)
            | Inst::Ori(rd, ..)
            | Inst::Xori(rd, ..)
            | Inst::Sll(rd, ..)
            | Inst::Srl(rd, ..)
            | Inst::Sra(rd, ..)
            | Inst::Slt(rd, ..)
            | Inst::Slti(rd, ..)
            | Inst::Li(rd, ..)
            | Inst::Lw(rd, ..) => Some(rd),
            // jal writes r31, but jumps are excluded from value prediction
            // (§4 of the paper), so it is not reported as a value producer.
            _ => None,
        }
    }

    /// True if this instruction is a branch or jump (excluded from value
    /// prediction per the paper's methodology).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Beq(..)
                | Inst::Bne(..)
                | Inst::Blt(..)
                | Inst::Bge(..)
                | Inst::J(..)
                | Inst::Jal(..)
                | Inst::Jr(..)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dest_reported_for_value_producers() {
        assert_eq!(Inst::Add(3, 1, 2).dest(), Some(3));
        assert_eq!(Inst::Lw(5, 0, 1).dest(), Some(5));
        assert_eq!(Inst::Slti(7, 1, 4).dest(), Some(7));
        assert_eq!(Inst::Li(9, -2).dest(), Some(9));
    }

    #[test]
    fn stores_branches_and_jumps_produce_no_value() {
        for inst in [
            Inst::Sw(1, 0, 2),
            Inst::Beq(1, 2, 0),
            Inst::J(0),
            Inst::Jal(0),
            Inst::Jr(31),
            Inst::Nop,
            Inst::Halt,
        ] {
            assert_eq!(inst.dest(), None, "{inst:?}");
        }
    }

    #[test]
    fn control_classification() {
        assert!(Inst::Beq(0, 0, 0).is_control());
        assert!(Inst::Jal(4).is_control());
        assert!(!Inst::Add(1, 2, 3).is_control());
        assert!(!Inst::Sw(1, 0, 2).is_control());
    }
}
