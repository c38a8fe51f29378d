//! The linker/loader: lays out globals and string literals in VM memory,
//! compiles every function, and fills the function table.
//!
//! Direct calls are routed through a function table in data memory so
//! compilation order never matters (and so `&f` has a well-defined value
//! before anything runs). The table is filled once all code is emitted.

use crate::lower::{lower_function, LinkEnv, LowerScratch, OptLevel};
use crate::opt::Optimizer;
use std::cell::Cell;
use std::collections::HashMap;
use std::time::Instant;
use tcc_front::ast::{ExprKind, Init, Program};
use tcc_front::types::Type;
use tcc_icode::{IcodeBuf, IcodeCompiler};
use tcc_vm::{CodeSpace, Memory, VmError};

/// A loaded program image: code, initialized data memory, and symbol
/// addresses.
#[derive(Clone, Debug)]
pub struct Image {
    /// Emitted code.
    pub code: CodeSpace,
    /// Data memory with globals, strings and the function table placed.
    pub mem: Memory,
    /// Function addresses by function index.
    pub func_addrs: Vec<u64>,
    /// Function names (same order).
    pub func_names: Vec<String>,
    /// Global addresses by global index.
    pub global_addrs: Vec<u64>,
    /// VM address of the function table.
    pub fn_table: u64,
    /// Address of every string literal a tick body mentions:
    /// `tick_strs[t][j]` is where `prog.ticks[t].str_lits[j]` lives.
    /// Laid out here, after everything static code refers to, so dynamic
    /// code bakes in an address that is the same in every session of
    /// the program.
    pub tick_strs: Vec<Vec<u64>>,
    /// Total instructions emitted for static code.
    pub static_insns: u64,
    /// Where the build's time went, stage by stage.
    pub build_ns: BuildTimes,
}

/// Wall-clock nanoseconds of an image build's stages, summed over its
/// functions. The rest of the build — laying out globals, strings and
/// the function table — is what these leave of its whole.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BuildTimes {
    /// Lowering the AST to ICODE IR.
    pub lower_ns: u64,
    /// The mid-level optimizer (zero under [`OptLevel::Naive`]).
    pub optimize_ns: u64,
    /// ICODE's compile of the IR to machine code.
    pub icode_ns: u64,
}

impl Image {
    /// Address of the function named `name`.
    pub fn addr_of(&self, name: &str) -> Option<u64> {
        let i = self.func_names.iter().position(|n| n == name)?;
        Some(self.func_addrs[i])
    }

    /// Address of the global named `name` (requires the original
    /// program).
    pub fn global_addr_of(&self, prog: &Program, name: &str) -> Option<u64> {
        let i = prog.globals.iter().position(|g| g.name == name)?;
        Some(self.global_addrs[i])
    }
}

/// The static compiler's working storage: the IR buffer, the
/// lowering's tables, the optimizer's and every ICODE phase's. Every
/// pass re-zeroes what it reads, so nothing one function — or one
/// image — leaves behind reaches the next.
#[derive(Default)]
struct Workshop {
    buf: IcodeBuf,
    lower: LowerScratch,
    optimizer: Optimizer,
    compiler: IcodeCompiler,
}

thread_local! {
    /// Each thread's [`Workshop`], kept between images: a build grows
    /// its tables only past what an earlier build on the thread grew.
    /// A build takes it for its duration (one that panics leaves none,
    /// and the next starts afresh).
    static WORKSHOP: Cell<Option<Box<Workshop>>> = const { Cell::new(None) };
}

struct Env {
    global_addrs: Vec<u64>,
    fn_table: u64,
    strings: HashMap<Vec<u8>, u64>,
    mem: Memory,
}

impl LinkEnv for Env {
    fn global_addr(&self, i: usize) -> u64 {
        self.global_addrs[i]
    }

    fn intern_str(&mut self, bytes: &[u8]) -> u64 {
        if let Some(&a) = self.strings.get(bytes) {
            return a;
        }
        let a = self
            .mem
            .alloc(bytes.len() as u64 + 1, 1)
            .expect("string space");
        self.mem.write_bytes(a, bytes).expect("in range");
        self.mem
            .store_u8(a + bytes.len() as u64, 0)
            .expect("in range");
        self.strings.insert(bytes.to_vec(), a);
        a
    }

    fn fn_table_entry(&self, i: usize) -> u64 {
        self.fn_table + 8 * i as u64
    }
}

/// Builds an image from an analyzed program with the fusion-aware
/// scheduler on (the default configuration).
///
/// # Errors
///
/// Fails if the data memory cannot hold the globals.
///
/// # Panics
///
/// Panics on lowering bugs (malformed programs are rejected by sema).
pub fn build_image(prog: &Program, opt: OptLevel, mem_size: usize) -> Result<Image, VmError> {
    build_image_scheduled(prog, opt, mem_size, true)
}

/// [`build_image`] with an explicit fusion-scheduler toggle. The
/// `icode_schedule` ablation knob must cover static code too: the
/// suite's `fused_pairs_icode_*` comparison translates every function a
/// kernel executes (setup, drivers, and the dynamic function alike), so
/// an unscheduled measurement that still schedules the static image
/// would understate what the scheduler contributes.
///
/// # Errors
///
/// Fails if the data memory cannot hold the globals.
///
/// # Panics
///
/// Panics on lowering bugs (malformed programs are rejected by sema).
pub fn build_image_scheduled(
    prog: &Program,
    opt: OptLevel,
    mem_size: usize,
    schedule: bool,
) -> Result<Image, VmError> {
    let mut mem = Memory::new(mem_size);
    // Globals.
    let mut global_addrs = Vec::new();
    for g in &prog.globals {
        let size = g.ty.size(&prog.structs);
        let align = g.ty.align(&prog.structs).max(8);
        global_addrs.push(mem.alloc(size, align)?);
    }
    // Function table.
    let fn_table = mem.alloc(8 * prog.funcs.len().max(1) as u64, 8)?;

    let mut env = Env {
        global_addrs,
        fn_table,
        strings: HashMap::new(),
        mem,
    };

    // Write global initializers (after env so strings can intern).
    for (gi, g) in prog.globals.iter().enumerate() {
        if let Some(init) = &g.init {
            let addr = env.global_addrs[gi];
            write_init(&mut env, prog, &g.ty, addr, init)?;
        }
    }

    // Compile every function, each through the same IR buffer, lowering
    // tables, optimizer and ICODE compiler (linear scan, peephole on).
    let mut code = CodeSpace::new();
    let mut work = WORKSHOP.take().unwrap_or_default();
    let Workshop {
        buf,
        lower,
        optimizer,
        compiler,
    } = &mut *work;
    compiler.schedule_fusion = schedule;
    let mut build_ns = BuildTimes::default();
    let nfuncs = prog.funcs.len();
    let mut func_addrs = Vec::with_capacity(nfuncs);
    let mut func_names = Vec::with_capacity(nfuncs);
    let mut static_insns = 0;
    for (fi, func) in prog.funcs.iter().enumerate() {
        let t0 = Instant::now();
        lower_function(prog, fi, opt, &mut env, lower, buf);
        let mut t1 = Instant::now();
        build_ns.lower_ns += (t1 - t0).as_nanos() as u64;
        if opt == OptLevel::Optimizing {
            optimizer.run(buf);
            let t2 = Instant::now();
            build_ns.optimize_ns += (t2 - t1).as_nanos() as u64;
            t1 = t2;
        }
        let r = compiler
            .compile(&mut code, &func.name, buf)
            .expect("the full translator table covers every instruction");
        build_ns.icode_ns += t1.elapsed().as_nanos() as u64;
        func_addrs.push(r.func.addr);
        func_names.push(func.name.clone());
        static_insns += r.func.insns;
    }
    WORKSHOP.set(Some(work));
    // Fill the function table.
    for (i, &a) in func_addrs.iter().enumerate() {
        env.mem.store_u64(fn_table + 8 * i as u64, a)?;
    }
    let tick_strs = prog
        .ticks
        .iter()
        .map(|t| t.str_lits.iter().map(|s| env.intern_str(s)).collect())
        .collect();
    Ok(Image {
        code,
        mem: env.mem,
        func_addrs,
        func_names,
        global_addrs: env.global_addrs,
        fn_table,
        tick_strs,
        static_insns,
        build_ns,
    })
}

fn write_init(
    env: &mut Env,
    prog: &Program,
    ty: &Type,
    addr: u64,
    init: &Init,
) -> Result<(), VmError> {
    match (ty, init) {
        (Type::Array(elem, _), Init::List(items)) => {
            let stride = elem.size(&prog.structs);
            for (i, item) in items.iter().enumerate() {
                write_init(env, prog, elem, addr + stride * i as u64, item)?;
            }
            Ok(())
        }
        (Type::Array(elem, _), Init::Expr(e)) if matches!(e.kind, ExprKind::StrLit(_)) => {
            let ExprKind::StrLit(bytes) = &e.kind else {
                unreachable!()
            };
            debug_assert_eq!(**elem, Type::Char);
            env.mem.write_bytes(addr, bytes)?;
            env.mem.store_u8(addr + bytes.len() as u64, 0)
        }
        (_, Init::Expr(e)) => {
            match (&e.kind, ty) {
                (ExprKind::StrLit(bytes), _) => {
                    let s = env.intern_str(bytes);
                    env.mem.store_u64(addr, s)
                }
                (ExprKind::IntLit(v), Type::Double) => env.mem.store_f64(addr, *v as f64),
                (ExprKind::FloatLit(v), Type::Double) => env.mem.store_f64(addr, *v),
                (ExprKind::IntLit(v), _) => match ty.size(&prog.structs) {
                    1 => env.mem.store_u8(addr, *v as u8),
                    2 => env.mem.store_u16(addr, *v as u16),
                    4 => env.mem.store_u32(addr, *v as u32),
                    _ => env.mem.store_u64(addr, *v as u64),
                },
                (ExprKind::FloatLit(v), _) => {
                    // float literal initializing an int global
                    env.mem.store_u32(addr, *v as i32 as u32)
                }
                other => panic!("unsupported constant initializer {other:?}"),
            }
        }
        (_, Init::List(_)) => panic!("sema rejects brace init on scalars"),
    }
}
