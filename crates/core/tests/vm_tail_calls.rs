//! Edge cases of the bytecode VM's tail calls, which run inside its
//! dispatch loop over one reused register file: calls through closures,
//! the errors a tail call can raise, the step budget at a call boundary,
//! what the garbage collector sees of the register file, and pinned step
//! counts.

use mojave_core::backend::Instr;
use mojave_core::{BackendKind, Process, ProcessConfig, RunOutcome, RuntimeError};
use mojave_fir::builder::{term, ProgramBuilder};
use mojave_fir::{Atom, Binop, FunId, Program, Ty};
use mojave_heap::HeapConfig;

fn config(backend: BackendKind, step_budget: Option<u64>) -> ProcessConfig {
    ProcessConfig {
        backend,
        step_budget,
        ..ProcessConfig::default()
    }
}

fn run(backend: BackendKind, program: Program) -> (Result<RunOutcome, RuntimeError>, u64) {
    let mut p = Process::new(program, config(backend, None)).expect("program verifies");
    let outcome = p.run();
    (outcome, p.stats().steps)
}

/// Like [`run`], for programs that deliberately fail verification.
fn run_unverified(program: Program) -> Result<RunOutcome, RuntimeError> {
    let cfg = ProcessConfig {
        verify: false,
        ..config(BackendKind::Bytecode, None)
    };
    Process::new(program, cfg).expect("program compiles").run()
}

/// `count(i, acc)` adds `i` to `acc` for `i` in `0..n` by tail-calling
/// itself directly, then halts with `acc`.
fn counting_loop(n: i64) -> Program {
    let mut pb = ProgramBuilder::new();
    let (count, params) = pb.declare("count", &[("i", Ty::Int), ("acc", Ty::Int)]);
    let (i, acc) = (params[0], params[1]);
    let mut b = pb.block();
    let done = b.binop("done", Binop::Ge, i, Atom::Int(n));
    let next_i = b.binop("next_i", Binop::Add, i, Atom::Int(1));
    let next_acc = b.binop("next_acc", Binop::Add, acc, i);
    let body = b.finish(term::branch(
        done,
        term::halt(acc),
        term::call(count, vec![Atom::Var(next_i), Atom::Var(next_acc)]),
    ));
    pb.define(count, body);
    let (main, _) = pb.declare("main", &[]);
    pb.define(main, term::call(count, vec![Atom::Int(0), Atom::Int(0)]));
    pb.set_entry(main);
    pb.finish()
}

/// `step(env, i, acc)` adds the captured `env[1]` to `acc` `n` times,
/// looping by tail-calling its own closure `env` with `call_args`
/// arguments (two is the correct number).
fn closure_loop(n: i64, call_args: usize) -> Program {
    let mut pb = ProgramBuilder::new();
    let (step, params) = pb.declare(
        "step",
        &[("env", Ty::Any), ("i", Ty::Int), ("acc", Ty::Int)],
    );
    let (env, i, acc) = (params[0], params[1], params[2]);
    let mut b = pb.block();
    let done = b.binop("done", Binop::Ge, i, Atom::Int(n));
    let k = b.load("k", Ty::Int, env, Atom::Int(1));
    let next_i = b.binop("next_i", Binop::Add, i, Atom::Int(1));
    let next_acc = b.binop("next_acc", Binop::Add, acc, k);
    let args = [Atom::Var(next_i), Atom::Var(next_acc)];
    let body = b.finish(term::branch(
        done,
        term::halt(acc),
        term::call_var(env, args[..call_args].to_vec()),
    ));
    pb.define(step, body);
    let (main, _) = pb.declare("main", &[]);
    let mut b = pb.block();
    let clo = b.closure("clo", step, vec![Atom::Int(3)], vec![Ty::Int, Ty::Int]);
    let body = b.finish(term::call_var(clo, vec![Atom::Int(0), Atom::Int(0)]));
    pb.define(main, body);
    pb.set_entry(main);
    pb.finish()
}

/// `looper(i)` tail-calls itself until `i` reaches 3, then tail-calls
/// `callee` (or, when `None`, `pair(a, b)` itself) with the one argument
/// `i`.  Returns the program and `pair`'s id.
fn loop_then_call(callee: Option<FunId>) -> (Program, FunId) {
    let mut pb = ProgramBuilder::new();
    let (pair, params) = pb.declare("pair", &[("a", Ty::Int), ("b", Ty::Int)]);
    let mut b = pb.block();
    let sum = b.binop("sum", Binop::Add, params[0], params[1]);
    let body = b.finish(term::halt(sum));
    pb.define(pair, body);
    let (looper, params) = pb.declare("looper", &[("i", Ty::Int)]);
    let i = params[0];
    let mut b = pb.block();
    let done = b.binop("done", Binop::Ge, i, Atom::Int(3));
    let next = b.binop("next", Binop::Add, i, Atom::Int(1));
    let body = b.finish(term::branch(
        done,
        term::call(callee.unwrap_or(pair), vec![Atom::Var(i)]),
        term::call(looper, vec![Atom::Var(next)]),
    ));
    pb.define(looper, body);
    let (main, _) = pb.declare("main", &[]);
    pb.define(main, term::call(looper, vec![Atom::Int(0)]));
    pb.set_entry(main);
    (pb.finish(), pair)
}

#[test]
fn tail_calls_through_a_closure_receive_the_environment() {
    for backend in [BackendKind::Bytecode, BackendKind::Interp] {
        let (outcome, _) = run(backend, closure_loop(100, 2));
        assert_eq!(outcome, Ok(RunOutcome::Exit(300)), "{backend:?}");
    }
}

#[test]
fn in_loop_tail_calls_raise_the_same_errors() {
    let (program, pair) = loop_then_call(None);
    assert_eq!(
        run_unverified(program),
        Err(RuntimeError::ArityMismatch {
            callee: format!("vm call (f{})", pair.0),
            expected: 2,
            found: 1,
        })
    );
    let (program, _) = loop_then_call(Some(FunId(99)));
    assert_eq!(
        run_unverified(program),
        Err(RuntimeError::UnknownFunction(99))
    );
    // Through a closure the environment counts towards the arity.
    assert_eq!(
        run_unverified(closure_loop(5, 1)),
        Err(RuntimeError::ArityMismatch {
            callee: "vm call (f0)".into(),
            expected: 3,
            found: 2,
        })
    );
}

#[test]
fn step_budget_trips_on_the_first_instruction_after_a_tail_call() {
    // `spin(i)` tail-calls `spin(i + 1)` forever; neither function
    // branches, so every run of `spin`'s code ends in its tail call.
    let mut pb = ProgramBuilder::new();
    let (spin, params) = pb.declare("spin", &[("i", Ty::Int)]);
    let mut b = pb.block();
    let next = b.binop("next", Binop::Add, params[0], Atom::Int(1));
    let body = b.finish(term::call(spin, vec![Atom::Var(next)]));
    pb.define(spin, body);
    let (main, _) = pb.declare("main", &[]);
    pb.define(main, term::call(spin, vec![Atom::Int(0)]));
    pb.set_entry(main);
    let program = pb.finish();

    let probe = Process::new(program.clone(), config(BackendKind::Bytecode, None)).unwrap();
    let bc = probe.bytecode().unwrap();
    let len = |f: FunId| {
        let code = &bc.funs[f.0 as usize].code;
        assert!(matches!(code.last(), Some(Instr::TailCallDirect { .. })));
        assert!(!code
            .iter()
            .any(|i| matches!(i, Instr::Jump { .. } | Instr::JumpIfFalse { .. })));
        code.len() as u64
    };
    let (main_len, spin_len) = (len(main), len(spin));

    for calls in 0..4 {
        // The budget ends exactly on a tail call; the next step is the
        // callee's first instruction, and it is the one refused.
        let budget = main_len + calls * spin_len;
        let mut p =
            Process::new(program.clone(), config(BackendKind::Bytecode, Some(budget))).unwrap();
        assert_eq!(p.run(), Err(RuntimeError::StepBudgetExhausted { budget }));
        assert_eq!(p.stats().steps, budget + 1);
    }
}

#[test]
fn step_budget_of_exactly_the_run_length_suffices() {
    let (outcome, total) = run(BackendKind::Bytecode, counting_loop(50));
    assert_eq!(outcome, Ok(RunOutcome::Exit(1225)));
    let mut p = Process::new(
        counting_loop(50),
        config(BackendKind::Bytecode, Some(total)),
    )
    .unwrap();
    assert_eq!(p.run(), Ok(RunOutcome::Exit(1225)));
    let budget = total - 1;
    let mut p = Process::new(
        counting_loop(50),
        config(BackendKind::Bytecode, Some(budget)),
    )
    .unwrap();
    assert_eq!(p.run(), Err(RuntimeError::StepBudgetExhausted { budget }));
    assert_eq!(p.stats().steps, total);
}

#[test]
fn a_smaller_frame_never_roots_the_previous_frames_registers() {
    const BIG_LEN: i64 = 4096;
    // `main` fills a large frame, allocates a big array into one of its
    // highest registers and tail-calls `churn(0)`, whose small frame
    // allocates small arrays until collections have run.  Nothing refers
    // to the big array after the call.
    let mut pb = ProgramBuilder::new();
    let (churn, params) = pb.declare("churn", &[("i", Ty::Int)]);
    let i = params[0];
    let mut b = pb.block();
    let done = b.binop("done", Binop::Ge, i, Atom::Int(400));
    let _junk = b.alloc("junk", Ty::Int, Atom::Int(64), Atom::Int(0));
    let next = b.binop("next", Binop::Add, i, Atom::Int(1));
    let body = b.finish(term::branch(
        done,
        term::halt(i),
        term::call(churn, vec![Atom::Var(next)]),
    ));
    pb.define(churn, body);
    let (main, _) = pb.declare("main", &[]);
    let mut b = pb.block();
    let mut x = b.int("x0", 0);
    for k in 1..24 {
        x = b.binop(&format!("x{k}"), Binop::Add, x, Atom::Int(k));
    }
    let _big = b.alloc("big", Ty::Int, Atom::Int(BIG_LEN), x);
    let body = b.finish(term::call(churn, vec![Atom::Int(0)]));
    pb.define(main, body);
    pb.set_entry(main);

    let cfg = ProcessConfig {
        heap: HeapConfig {
            minor_threshold_bytes: 16 * 1024,
            major_threshold_bytes: 1 << 20,
            max_alloc: 1 << 20,
        },
        ..config(BackendKind::Bytecode, None)
    };
    let mut p = Process::new(pb.finish(), cfg).unwrap();
    let bc = p.bytecode().unwrap();
    let big_reg = bc.funs[main.0 as usize]
        .code
        .iter()
        .find_map(|i| match i {
            Instr::Alloc { dst, .. } => Some(*dst),
            _ => None,
        })
        .unwrap();
    assert!(
        big_reg >= bc.funs[churn.0 as usize].nregs,
        "the big array must live above the smaller frame's registers"
    );

    assert_eq!(p.run(), Ok(RunOutcome::Exit(400)));
    assert!(p.heap().stats().total_collections() > 0);
    assert!(
        p.heap().live_bytes() < BIG_LEN as usize * 8,
        "the big array survived: {} live bytes",
        p.heap().live_bytes()
    );
}

#[test]
fn step_counts_are_pinned() {
    // Exact instructions executed; a VM change must not move them.
    assert_eq!(
        run(BackendKind::Bytecode, counting_loop(1000)),
        (Ok(RunOutcome::Exit(499_500)), 7010)
    );
    assert_eq!(
        run(BackendKind::Bytecode, closure_loop(100, 2)),
        (Ok(RunOutcome::Exit(300)), 914)
    );
}
