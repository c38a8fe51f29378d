//! The inputs: which programs, back ends and parameters the workloads
//! draw from, and how a session for each is built. Everything here is
//! fixed; only the order and mix of requests is seeded.

use tcc::{Backend, Config, ExecEngine, Session, Strategy};
use tcc_suite::{benchmarks, BenchDef, BLUR_SMALL};

/// Data memory for a suite-program session. The largest program
/// (`blur`, two 300 KiB images) needs under 1 MiB; 8 MiB leaves the
/// memo-off workloads room for every closure a slice allocates.
pub const SUITE_MEM: usize = 2 << 20;

/// The three dynamic back ends every suite program is compiled with.
/// VCODE first: it is the default back end and the one the `exec_*`
/// workloads compile with.
pub const BACKENDS: [Backend; 3] = [
    Backend::Vcode { unchecked: false },
    Backend::Icode {
        strategy: Strategy::LinearScan,
    },
    Backend::Icode {
        strategy: Strategy::GraphColor,
    },
];

/// The loop kernels of the `exec_*` workloads, with the number of runs
/// that make one round-robin block of `exec_steady` (about 5 ms of
/// execution each on the box the benchmark was sized on, so every
/// kernel gets an equal share of a slice).
pub const LOOP_KERNELS: [(&str, u32); 7] = [
    ("ms", 10),
    ("heap", 3),
    ("cmp", 36),
    ("query", 16),
    ("blur", 2),
    ("filter", 18),
    ("demux", 9),
];

/// The 14 suite programs (paper §6.2 plus `dp`, `blur` at 64×48,
/// `filter`, `demux`), in registry order.
pub fn suite() -> Vec<BenchDef> {
    benchmarks(BLUR_SMALL)
}

/// The [`LOOP_KERNELS`] programs, in that order.
pub fn loop_kernels() -> Vec<(BenchDef, u32)> {
    let all = suite();
    LOOP_KERNELS
        .iter()
        .map(|(name, runs)| {
            let b = all
                .iter()
                .find(|b| b.name == *name)
                .unwrap_or_else(|| panic!("suite has no program named {name}"));
            (b.clone(), *runs)
        })
        .collect()
}

/// Builds a session for a suite program and runs its one-time set-up.
pub fn open_suite(bench: &BenchDef, config: Config) -> Session {
    let mut s = Session::new(bench.src, config)
        .unwrap_or_else(|e| panic!("{}: front end failed: {e}", bench.name));
    (bench.setup)(&mut s);
    s
}

/// Suite-session configuration: `memo` off recompiles on every
/// `compile` call; `engine` `None` is the default (adaptive) engine.
pub fn suite_config(backend: &Backend, memo: bool, engine: Option<ExecEngine>) -> Config {
    Config {
        backend: backend.clone(),
        cache: memo,
        engine,
        mem_size: SUITE_MEM,
        ..Config::default()
    }
}

/// The serve program: five kernels and a static-C twin of each.
pub const SERVE_SRC: &str = include_str!("../programs/serve.tc");

/// (code-generating entry, static twin) per kernel; cell `c` uses
/// `SERVE_KERNELS[c % 5]`.
pub const SERVE_KERNELS: [(&str, &str); 5] = [
    ("srv_pow", "ref_pow"),
    ("srv_poly", "ref_poly"),
    ("srv_filter", "ref_filter"),
    ("srv_hash", "ref_hash"),
    ("srv_dot", "ref_dot"),
];

/// Parameter values per kernel at the large cell count (`serve_churn`,
/// `warm_restart`) and the small one (`serve_hot`).
pub const PARAMS_LARGE: u32 = 64;
pub const PARAMS_SMALL: u32 = 8;

/// One (kernel, parameter) pair. Cell numbering matches `tcc-serve`:
/// consecutive cells rotate through the kernels, the parameter grows
/// every fifth cell — so under a Zipf draw the popular cells are the
/// small ones, as in a service whose common rules are the simple ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cell(pub u32);

impl Cell {
    pub fn compile_entry(self) -> &'static str {
        SERVE_KERNELS[self.0 as usize % SERVE_KERNELS.len()].0
    }

    pub fn twin_entry(self) -> &'static str {
        SERVE_KERNELS[self.0 as usize % SERVE_KERNELS.len()].1
    }

    pub fn param(self) -> u64 {
        (self.0 as usize / SERVE_KERNELS.len()) as u64 + 1
    }

    /// The argument the generated function is executed on.
    pub fn arg(self) -> u64 {
        (self.0 as u64 * 7 + 3) % 97 + 1
    }
}

/// Cells for `params` parameter values per kernel.
pub fn cell_count(params: u32) -> u32 {
    SERVE_KERNELS.len() as u32 * params
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_cover_every_kernel_and_parameter() {
        let mut seen = std::collections::BTreeSet::new();
        for c in 0..cell_count(PARAMS_LARGE) {
            let cell = Cell(c);
            assert!((1..=PARAMS_LARGE as u64).contains(&cell.param()));
            assert!((1..=97).contains(&cell.arg()));
            seen.insert((cell.compile_entry(), cell.param()));
        }
        assert_eq!(seen.len(), 320);
        assert_eq!(Cell(7).compile_entry(), "srv_filter");
        assert_eq!(Cell(7).twin_entry(), "ref_filter");
        assert_eq!(Cell(7).param(), 2);
    }

    #[test]
    fn loop_kernels_exist_in_the_suite() {
        let k = loop_kernels();
        assert_eq!(k.len(), LOOP_KERNELS.len());
        assert_eq!(suite().len(), 14);
        assert!(k.iter().all(|(_, runs)| *runs >= 1));
    }
}
