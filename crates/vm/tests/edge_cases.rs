//! Edge-case and failure-injection tests for the VM and assembler.

use std::time::Duration;

use dfcm_trace::{Trace, TraceSource};
use dfcm_vm::{
    assemble, programs, suite, Inst, StopReason, Vm, VmError, VmLimits, DATA_BASE,
    DEFAULT_MEMORY_WORDS, TEXT_BASE,
};
use proptest::prelude::*;

#[test]
fn load_at_exact_memory_boundary() {
    // Address == memory size is out of bounds; size-1 is the last valid.
    let words = 1usize << 14;
    let src = format!(".text\nmain: li r1, {}\nlw r2, 0(r1)\nhalt\n", words - 1);
    let mut vm = Vm::with_memory(assemble(&src).unwrap(), words);
    assert!(vm.run(100).unwrap().halted);

    let src = format!(".text\nmain: li r1, {words}\nlw r2, 0(r1)\nhalt\n");
    let mut vm = Vm::with_memory(assemble(&src).unwrap(), words);
    let e = vm.run(100).unwrap_err();
    assert!(matches!(e, VmError::MemoryOutOfBounds { addr, .. } if addr == words as i64));
}

#[test]
fn store_fault_reports_instruction_index() {
    let mut vm = Vm::new(assemble(".text\nmain: li r1, -1\nsw r1, 0(r1)\nhalt\n").unwrap());
    let e = vm.run(100).unwrap_err();
    assert_eq!(e, VmError::MemoryOutOfBounds { pc: 1, addr: -1 });
}

#[test]
fn jr_to_one_past_end_faults_on_next_step() {
    let p = assemble(".text\nmain: li r1, 2\njr r1\n").unwrap();
    assert_eq!(p.insts.len(), 2);
    let mut vm = Vm::new(p);
    // The jump itself is in range (== len is tolerated as a target), but
    // fetching from there faults.
    let e = vm.run(10).unwrap_err();
    assert!(matches!(e, VmError::PcOutOfRange { target: 2 }));
}

#[test]
fn faulted_machine_stays_halted_and_emits_nothing() {
    let mut vm =
        Vm::new(assemble(".text\nmain: li r1, -9\nlw r2, 0(r1)\nli r3, 5\nhalt\n").unwrap());
    assert!(vm.run(100).is_err());
    assert!(vm.halted());
    // Stepping after a fault is a quiet no-op.
    assert_eq!(vm.step().unwrap(), None);
    assert_eq!(vm.next_record(), None);
    // r3 was never reached.
    assert_eq!(vm.reg(3), 0);
}

#[test]
fn data_image_larger_than_memory_rejected() {
    let src = ".data\nbig: .space 100\n.text\nmain: halt\n";
    let program = assemble(src).unwrap();
    let result = std::panic::catch_unwind(|| Vm::with_memory(program, 64));
    assert!(result.is_err(), "oversized data image must be rejected");
}

#[test]
fn empty_space_and_word_directives() {
    let p = assemble(".data\nempty: .space 0\nafter: .word 5\n.text\nmain: la r1, after\nhalt\n")
        .unwrap();
    assert_eq!(p.data, vec![5]);
    assert_eq!(p.insts[0], Inst::Li(1, DATA_BASE));
}

#[test]
fn program_without_halt_runs_off_the_end() {
    let mut vm = Vm::new(assemble(".text\nmain: li r1, 1\n").unwrap());
    let e = vm.run(10).unwrap_err();
    assert!(matches!(e, VmError::PcOutOfRange { .. }));
    // The one instruction still executed and emitted.
    assert_eq!(vm.reg(1), 1);
}

#[test]
fn profiled_run_off_the_end_faults_like_run() {
    let src = ".text\nmain: li r1, 1\n";
    let mut plain = Vm::new(assemble(src).unwrap());
    let mut profiled = Vm::new(assemble(src).unwrap());
    let e = dfcm_vm::profile::run_profiled(&mut profiled, 10).unwrap_err();
    assert_eq!(e, VmError::PcOutOfRange { target: 1 });
    assert_eq!(plain.run(10).unwrap_err(), e);
    assert!(profiled.halted());
    assert_eq!(profiled.error(), Some(&e));
    assert_eq!(profiled.steps(), plain.steps());
}

#[test]
fn zero_step_budget_is_a_noop() {
    let mut vm = Vm::new(assemble(".text\nmain: li r1, 1\nhalt\n").unwrap());
    let result = vm.run(0).unwrap();
    assert_eq!(result.steps, 0);
    assert!(!result.halted);
    assert_eq!(vm.reg(1), 0);
}

#[test]
fn run_can_be_resumed_across_budgets() {
    let src =
        ".text\nmain: li r1, 0\nloop: addi r1, r1, 1\nslti r2, r1, 100\nbne r2, r0, loop\nhalt\n";
    let mut vm = Vm::new(assemble(src).unwrap());
    let mut all_records = 0;
    loop {
        let result = vm.run(37).unwrap();
        all_records += result.trace.len();
        if result.halted {
            break;
        }
    }
    assert_eq!(vm.reg(1), 100);
    // li + 100x addi + 100x slti.
    assert_eq!(all_records, 201);
}

#[test]
fn default_memory_fits_all_kernels() {
    // DEFAULT_MEMORY_WORDS must hold the largest bundled data image with
    // room for stacks.
    for (name, src) in dfcm_vm::programs::all() {
        let p = assemble(src).unwrap();
        assert!(
            (DATA_BASE as usize + p.data.len()) * 4 < DEFAULT_MEMORY_WORDS,
            "{name} data image too large for defaults"
        );
    }
}

#[test]
fn trace_pcs_are_stable_across_reruns_and_resume() {
    let src = ".text\nmain: li r1, 7\nadd r2, r1, r1\nhalt\n";
    let mut a = Vm::new(assemble(src).unwrap());
    let ra = a.run(100).unwrap();
    let mut b = Vm::new(assemble(src).unwrap());
    b.run(1).unwrap();
    let rb = b.run(100).unwrap();
    let pcs_a: Vec<u64> = ra.trace.iter().map(|r| r.pc).collect();
    let pcs_b: Vec<u64> = rb.trace.iter().map(|r| r.pc).collect();
    assert_eq!(pcs_a, vec![TEXT_BASE, TEXT_BASE + 4]);
    assert_eq!(pcs_b, vec![TEXT_BASE + 4]);
}

#[test]
fn negative_space_rejected_at_assembly() {
    let e = assemble(".data\nx: .space -4\n.text\nmain: halt\n").unwrap_err();
    assert!(e.message.contains("negative"));
}

#[test]
fn division_extremes_are_defined() {
    let src = format!(
        ".text\nmain: li r1, {}\nli r2, -1\ndiv r3, r1, r2\nrem r4, r1, r2\nhalt\n",
        i64::MIN
    );
    let mut vm = Vm::new(assemble(&src).unwrap());
    // i64::MIN / -1 overflows in two's complement; the VM must not panic.
    let outcome = vm.run(100);
    assert!(outcome.is_ok(), "{outcome:?}");
}

#[test]
fn short_deadline_trips_on_a_poll_boundary() {
    // The clock is polled every 4096 steps, so an endless loop stops on
    // a multiple of 4096 and is charged nothing past it.
    let deadline = Duration::from_millis(20);
    let limits = VmLimits {
        deadline: Some(deadline),
        ..VmLimits::default()
    };
    let src = ".text\nmain: li r1, 0\nloop: addi r1, r1, 1\nj loop\n";
    let mut vm = Vm::with_limits(assemble(src).unwrap(), limits).unwrap();
    let e = vm.run(u64::MAX).unwrap_err();
    assert_eq!(e, VmError::DeadlineExceeded { deadline });
    assert_eq!(
        vm.limit_stop(),
        Some(StopReason::DeadlineExceeded { deadline })
    );
    assert!(vm.halted());
    assert!(vm.steps() > 0);
    assert_eq!(vm.steps() & 0xFFF, 0, "trip must land on a poll boundary");
}

/// Asserts that two machines stopped in the same architectural state.
fn assert_same_machine(a: &Vm, b: &Vm, context: &str) {
    assert_eq!(a.steps(), b.steps(), "{context}: steps");
    assert_eq!(a.halted(), b.halted(), "{context}: halted");
    assert_eq!(a.pc_index(), b.pc_index(), "{context}: pc");
    assert_eq!(a.error(), b.error(), "{context}: error");
    assert_eq!(a.limit_stop(), b.limit_stop(), "{context}: limit_stop");
    for r in 0..32 {
        assert_eq!(a.reg(r), b.reg(r), "{context}: r{r}");
    }
}

#[test]
fn kernel_run_windows_match_one_run() {
    // Odd window sizes stop every kernel at arbitrary points; resuming
    // from each must give what one uninterrupted run gives.
    for (name, src) in programs::all() {
        let mut windowed = Vm::new(assemble(src).unwrap());
        let mut trace = Trace::new();
        let (mut steps, mut last) = (0, None);
        for window in 0..40 {
            let max_steps = 7_001 + 13 * window;
            let result = windowed.run(max_steps).expect("kernels do not fault");
            steps += max_steps;
            last = Some(result.stop_reason());
            trace.extend(result.trace);
            if last == Some(StopReason::Halted) {
                break;
            }
        }
        let mut whole = Vm::new(assemble(src).unwrap());
        let result = whole.run(steps).expect("kernels do not fault");
        assert_eq!(result.trace, trace, "{name}: trace");
        assert_eq!(Some(result.stop_reason()), last, "{name}: stop reason");
        assert_same_machine(&windowed, &whole, name);
    }
}

#[test]
fn streaming_fib_matches_try_take_trace() {
    // Record-at-a-time streaming (the `TraceSource` path) re-enters the
    // machine once per record and must not change what it emits.
    let src = programs::by_name("fib").unwrap();
    let mut streamed = Vm::new(assemble(src).unwrap());
    let records: Vec<_> = std::iter::from_fn(|| streamed.next_record()).collect();
    let mut pulled = Vm::new(assemble(src).unwrap());
    let trace = pulled.try_take_trace(1_000_000).unwrap();
    assert!(pulled.halted());
    assert_eq!(records, trace.records());
    assert_same_machine(&streamed, &pulled, "fib");
}

#[test]
fn kernel_suite_traces_bit_identical() {
    // The suite pulls each kernel's trace in one `try_take_trace`;
    // streaming the kernel record by record must give the same bits.
    for kernel in suite::kernel_traces(25_000) {
        let src = programs::by_name(kernel.name).unwrap();
        let mut streamed = Vm::new(assemble(src).unwrap());
        let records: Vec<_> = std::iter::from_fn(|| streamed.next_record())
            .take(25_000)
            .collect();
        assert_eq!(records, kernel.trace.records(), "kernel {}", kernel.name);
    }
}

#[test]
fn step_interleaves_soundly_with_run_windows() {
    // `run(501)` windows with seven single `step`s between them emit what
    // one uninterrupted run emits and halt in the same state.
    let src = programs::by_name("fib").unwrap();
    let mut whole = Vm::new(assemble(src).unwrap());
    let expected = whole.run(u64::MAX).unwrap().trace;
    let mut mixed = Vm::new(assemble(src).unwrap());
    let mut trace = Trace::new();
    while !mixed.halted() {
        trace.extend(mixed.run(501).unwrap().trace);
        for _ in 0..7 {
            trace.extend(mixed.step().unwrap());
        }
    }
    assert_eq!(trace, expected);
    assert_same_machine(&mixed, &whole, "fib");
}

#[test]
fn record_caps_split_runs_identically() {
    // Pulls capped at 1..=12 records return exactly the cap until the
    // machine halts, and resume where they stopped: concatenated, they
    // are one uninterrupted pull.
    let src = ".data
                v: .word 5, 6, 7, 8
                .text
                main: la r1, v
                      li r2, 0
                loop: lw r3, 0(r1)
                      add r2, r2, r3
                      addi r1, r1, 1
                      slti r4, r1, 1028
                      bne r4, r0, loop
                      halt";
    let mut whole = Vm::new(assemble(src).unwrap());
    let expected = whole.try_take_trace(1_000).unwrap();
    assert!(whole.halted());
    for cap in 1..=12 {
        let mut pulled = Vm::new(assemble(src).unwrap());
        let mut trace = Trace::new();
        while !pulled.halted() {
            let part = pulled.try_take_trace(cap).expect("no fault");
            assert!(
                part.len() == cap || pulled.halted(),
                "cap {cap}: short pull"
            );
            trace.extend(part);
        }
        assert_eq!(trace, expected, "cap {cap}");
        assert_same_machine(&pulled, &whole, &format!("cap {cap}"));
    }
}

#[test]
fn instruction_budget_trips_on_the_exact_step() {
    // A budget sweep over a loop kernel (4095..4097 straddle the deadline
    // poll mask): `try_take_trace` and `run` both trip after exactly
    // `budget` instructions, where a `run(budget)` without a budget stops.
    let src = programs::by_name("sieve").unwrap();
    let budgets = [
        1u64, 2, 3, 17, 100, 101, 1_000, 4_095, 4_096, 4_097, 10_000, 20_011, 50_000,
    ];
    for budget in budgets {
        let context = format!("budget {budget}");
        let limits = VmLimits {
            max_instructions: Some(budget),
            ..VmLimits::default()
        };
        let expected = VmError::InstructionBudgetExhausted { budget };
        let mut pulled = Vm::with_limits(assemble(src).unwrap(), limits).unwrap();
        assert_eq!(
            pulled.try_take_trace(1_000_000),
            Err(expected.clone()),
            "{context}"
        );
        let mut ran = Vm::with_limits(assemble(src).unwrap(), limits).unwrap();
        assert_eq!(ran.run(u64::MAX), Err(expected), "{context}");
        assert_same_machine(&pulled, &ran, &context);
        assert_eq!(pulled.steps(), budget, "{context}: charged exactly");
        let mut bounded = Vm::new(assemble(src).unwrap());
        assert!(!bounded.run(budget).unwrap().halted, "{context}");
        assert_eq!(bounded.pc_index(), pulled.pc_index(), "{context}: pc");
        for r in 0..32 {
            assert_eq!(bounded.reg(r), pulled.reg(r), "{context}: r{r}");
        }
    }
}

#[test]
fn zero_deadline_trips_every_entry_point_at_step_zero() {
    // `run`, `try_take_trace`, `next_record` and `step` all poll the
    // clock before the first instruction.
    let deadline = Duration::ZERO;
    let limits = VmLimits {
        deadline: Some(deadline),
        ..VmLimits::default()
    };
    let fresh = || Vm::with_limits(assemble(".text\nmain: j main").unwrap(), limits).unwrap();
    let expected = VmError::DeadlineExceeded { deadline };
    let mut ran = fresh();
    assert_eq!(ran.run(u64::MAX), Err(expected.clone()));
    assert_eq!(ran.steps(), 0);
    assert_eq!(ran.error(), Some(&expected));
    let mut pulled = fresh();
    assert_eq!(pulled.try_take_trace(1), Err(expected.clone()));
    let mut streamed = fresh();
    assert_eq!(streamed.next_record(), None);
    let mut stepped = fresh();
    assert_eq!(stepped.step(), Err(expected));
    for (name, vm) in [
        ("try_take_trace", &pulled),
        ("next_record", &streamed),
        ("step", &stepped),
    ] {
        assert_same_machine(vm, &ran, name);
    }
}

#[test]
fn generous_deadline_is_invisible() {
    // fib crosses many deadline polls on its way to `halt`; a deadline it
    // never reaches changes nothing it does.
    let src = programs::by_name("fib").unwrap();
    let limits = VmLimits {
        deadline: Some(Duration::from_secs(60)),
        ..VmLimits::default()
    };
    let mut guarded = Vm::with_limits(assemble(src).unwrap(), limits).unwrap();
    let mut plain = Vm::new(assemble(src).unwrap());
    let result = guarded.run(10_000_000).unwrap();
    assert!(result.halted);
    assert!(result.steps > 16 * 4096, "only {} steps", result.steps);
    assert_eq!(result, plain.run(10_000_000).unwrap());
    assert_same_machine(&guarded, &plain, "fib");
}

/// Runs `src` to its fault through `run`, `try_take_trace`,
/// `next_record` and `step`, checks that all four stop on the same
/// instruction with the same error latched, after the same records, and
/// returns the fault.
fn fault_on_every_entry_point(src: &str) -> VmError {
    let fresh = || Vm::new(assemble(src).unwrap());
    let mut ran = fresh();
    let error = ran.run(1_000_000).unwrap_err();
    let mut pulled = fresh();
    assert_eq!(pulled.try_take_trace(1_000_000), Err(error.clone()));
    let mut streamed = fresh();
    let records: Vec<_> = std::iter::from_fn(|| streamed.next_record()).collect();
    let mut stepped = fresh();
    let mut stepped_records = Vec::new();
    let stepped_error = loop {
        match stepped.step() {
            Ok(record) => stepped_records.extend(record),
            Err(e) => break e,
        }
    };
    assert_eq!(stepped_error, error);
    assert_eq!(records, stepped_records);
    for (name, vm) in [
        ("try_take_trace", &pulled),
        ("next_record", &streamed),
        ("step", &stepped),
    ] {
        assert_same_machine(vm, &ran, name);
    }
    error
}

#[test]
fn faults_surface_identically() {
    // A memory fault inside a loop, and a wild `jr`.
    let oob = ".data
               v: .word 1
               .text
               main: la r1, v
                     li r2, 0
               loop: lw r3, 0(r1)
                     add r2, r2, r3
                     addi r1, r1, 97
                     slti r4, r2, 2000000000
                     bne r4, r0, loop
                     halt";
    assert!(matches!(
        fault_on_every_entry_point(oob),
        VmError::MemoryOutOfBounds { .. }
    ));
    assert_eq!(
        fault_on_every_entry_point(".text\nmain: li r1, 123456\njr r1"),
        VmError::PcOutOfRange { target: 123_456 }
    );
}

// ---------------------------------------------------------------------------
// Proptest: random valid programs.
// ---------------------------------------------------------------------------

/// One random — but always assemblable — instruction line. Branches and
/// jumps only reference the always-emitted labels `lab0..lab3`, so
/// control flow is arbitrary (loops included); loads/stores use
/// arbitrary registers, so faults are reachable. Termination is not
/// guaranteed by construction: each test bounds its runs by steps or by
/// an instruction budget.
fn arb_inst() -> impl Strategy<Value = String> {
    let reg = 0u8..32;
    prop_oneof![
        (
            prop_oneof![
                Just("add"),
                Just("sub"),
                Just("mul"),
                Just("div"),
                Just("rem"),
                Just("and"),
                Just("or"),
                Just("xor"),
                Just("slt"),
            ],
            reg.clone(),
            reg.clone(),
            reg.clone()
        )
            .prop_map(|(m, d, s, t)| format!("{m} r{d}, r{s}, r{t}")),
        (
            prop_oneof![
                Just("addi"),
                Just("andi"),
                Just("ori"),
                Just("xori"),
                Just("slti"),
            ],
            reg.clone(),
            reg.clone(),
            -64i64..64
        )
            .prop_map(|(m, d, s, i)| format!("{m} r{d}, r{s}, {i}")),
        (
            prop_oneof![Just("sll"), Just("srl"), Just("sra")],
            reg.clone(),
            reg.clone(),
            0u8..64
        )
            .prop_map(|(m, d, s, sh)| format!("{m} r{d}, r{s}, {sh}")),
        (reg.clone(), any::<i32>()).prop_map(|(d, i)| format!("li r{d}, {i}")),
        (reg.clone(), -8i64..8, reg.clone()).prop_map(|(d, o, s)| format!("lw r{d}, {o}(r{s})")),
        (reg.clone(), -8i64..8, reg.clone()).prop_map(|(t, o, s)| format!("sw r{t}, {o}(r{s})")),
        (
            prop_oneof![Just("beq"), Just("bne"), Just("blt"), Just("bge")],
            reg.clone(),
            reg.clone(),
            0u8..4
        )
            .prop_map(|(m, s, t, l)| format!("{m} r{s}, r{t}, lab{l}")),
        (0u8..4).prop_map(|l| format!("j lab{l}")),
        (0u8..4).prop_map(|l| format!("jal lab{l}")),
        reg.prop_map(|s| format!("jr r{s}")),
        Just("nop".to_owned()),
        Just("halt".to_owned()),
    ]
}

/// A program: four labelled blocks of random instructions, a final halt.
fn arb_program() -> impl Strategy<Value = String> {
    prop::collection::vec(prop::collection::vec(arb_inst(), 1..12), 4..5).prop_map(|blocks| {
        let mut src = String::from(".text\nmain:\n");
        for (i, block) in blocks.iter().enumerate() {
            src.push_str(&format!("lab{i}:\n"));
            for inst in block {
                src.push_str(inst);
                src.push('\n');
            }
        }
        src.push_str("halt\n");
        src
    })
}

/// A machine for a generated program in a small memory, so that wild
/// loads and stores fault.
fn machine(src: &str, max_instructions: Option<u64>) -> Vm {
    let limits = VmLimits {
        memory_words: 1 << 16,
        max_instructions,
        deadline: None,
    };
    Vm::with_limits(assemble(src).expect("generated programs assemble"), limits).expect("loads")
}

proptest! {
    /// `run` windows that add up to 20,000 steps give what one `run` of
    /// 20,000 steps gives: the same trace or fault, and the same machine
    /// after it. Looping programs stop at the step bound, not at an
    /// error, so their traces are compared too.
    #[test]
    fn random_programs_run_in_windows_like_one_run(
        src in arb_program(),
        window in 1u64..1_000,
    ) {
        const STEPS: u64 = 20_000;
        let mut whole = machine(&src, None);
        let expected = whole.run(STEPS).map(|r| r.trace);
        let mut windowed = machine(&src, None);
        let mut trace = Trace::new();
        let outcome = loop {
            match windowed.run(window.min(STEPS - windowed.steps())) {
                Ok(r) => {
                    trace.extend(r.trace);
                    if windowed.halted() || windowed.steps() == STEPS {
                        break Ok(trace);
                    }
                }
                Err(e) => break Err(e),
            }
        };
        prop_assert_eq!(outcome, expected);
        assert_same_machine(&windowed, &whole, &src);
    }

    /// Two `try_take_trace(4_000)` pulls give what one pull of 8,000
    /// gives, under a 20,000-instruction budget: a stop after a record
    /// cap resumes exactly where it left off, and a budget trip lands on
    /// the same instruction.
    #[test]
    fn random_programs_execute_identically(src in arb_program()) {
        let mut whole = machine(&src, Some(20_000));
        let expected = whole.try_take_trace(8_000);
        let mut pulled = machine(&src, Some(20_000));
        let outcome = pulled.try_take_trace(4_000).and_then(|mut trace| {
            trace.extend(pulled.try_take_trace(4_000)?);
            Ok(trace)
        });
        prop_assert_eq!(outcome, expected);
        assert_same_machine(&pulled, &whole, &src);
    }
}
