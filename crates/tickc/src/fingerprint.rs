//! The closure scan before every `compile`: the memo key and the
//! `param` vspecs, in one pass over the closure tree.
//!
//! A dynamic compilation is a pure function of (a) the selected back end
//! and its options, (b) the closure tree — CGF identities, `$`-bound
//! run-time constant values, free-variable addresses, vspec objects, and
//! composed cspec structure — and (c) the static program, which is fixed
//! for a session. `scan_closure` encodes (b) into an injective
//! [`Fingerprint`] so the runtime can answer a repeated `compile` with
//! the previously generated function address. The same pass checks how
//! deep the composition nests and lists the `param` vspecs a compile
//! binds at entry.
//!
//! The scan reads each closure's plan (`plan`), never a tick's AST: the
//! plan knows what each closure field holds and whether the tick can be
//! keyed at all. Two subtleties:
//!
//! * **Memory-reading `$`-expressions are uncacheable.** Sema captures
//!   scalar `$x` by value, so most `$` operands are pure. An operand like
//!   `$arr[i]`, however, is evaluated against VM memory *at dynamic
//!   compile time*, so the generated code depends on state the closure
//!   does not carry. Lowering marks such a tick's plan `reads_memory`; a
//!   tree that reaches one gets no key, and the runtime counts the
//!   compile `uncacheable` and bypasses the cache.
//! * **Vspec and label identity is α-normalized.** `local()` vspecs and
//!   `label()` objects carry globally unique sequence numbers, but
//!   codegen only distinguishes *which* object is *where* in the tree.
//!   Numbering objects by first occurrence in the scan makes two
//!   structurally identical trees (built from different `local()` calls)
//!   fingerprint equal — sound because the compile binds parameters in
//!   exactly this traversal order and then walks the closures in it.

use std::collections::HashMap;

use crate::dyncomp::{DynInput, COMPOSE_DEPTH_LIMIT};
use crate::plan::Cap;
use tcc_cache::{Fingerprint, FingerprintBuilder};
use tcc_rt::{ClosureRef, VspecObj, VspecTag, ARGLIST_MARKER, LABEL_MARKER};
use tcc_vm::{Memory, VmError};

/// Version of the fingerprint encoding scheme — folded into the
/// persistent store's ABI salt so a store written under a different
/// encoding (different tags, capture walk, or α-normalization) is
/// rejected whole as `version_rejected` instead of mis-keying loads.
/// Bump on any change to the encoding below or to `scan_closure`'s
/// traversal.
pub const SCHEME_VERSION: u32 = 1;

/// Structural tags for the fingerprint encoding (arbitrary but fixed).
mod tag {
    pub const CLOSURE: u8 = 1;
    pub const ARGLIST: u8 = 2;
    pub const DOLLAR: u8 = 3;
    pub const FREEVAR: u8 = 4;
    pub const LABEL: u8 = 5;
    pub const VSPEC_PARAM: u8 = 6;
    pub const VSPEC_LOCAL: u8 = 7;
}

/// A key being encoded, with its α-normalization maps (object address →
/// first-occurrence ordinal).
struct Encoder {
    b: FingerprintBuilder,
    vspecs: HashMap<u64, u64>,
    labels: HashMap<u64, u64>,
}

fn ordinal(map: &mut HashMap<u64, u64>, addr: u64) -> u64 {
    let next = map.len() as u64;
    *map.entry(addr).or_insert(next)
}

impl Encoder {
    /// Encodes a field that holds no closure: a `$` value, a free
    /// variable's address, a vspec (`obj`, read), or (a cspec field) a
    /// label object.
    fn leaf(&mut self, cap: Cap, field: u64, obj: Option<VspecObj>) {
        let b = &mut self.b;
        match cap {
            // Captured by value at specification time: the raw bits (int
            // or float) are the run-time constant itself.
            Cap::Dollar => {
                b.push_tag(tag::DOLLAR);
                b.push_u64(field);
            }
            // The *address* is the captured datum; generated code loads
            // through it at run time.
            Cap::FreeVar => {
                b.push_tag(tag::FREEVAR);
                b.push_u64(field);
            }
            Cap::Vspec => {
                let obj = obj.expect("a vspec field is read before it is encoded");
                let (t, id) = match obj.tag {
                    VspecTag::Param => (tag::VSPEC_PARAM, obj.index),
                    VspecTag::Local => (tag::VSPEC_LOCAL, ordinal(&mut self.vspecs, field)),
                };
                b.push_tag(t);
                b.push_u64(obj.kind.code() as u64);
                b.push_u64(id);
            }
            Cap::Cspec => {
                b.push_tag(tag::LABEL);
                b.push_u64(ordinal(&mut self.labels, field));
            }
        }
    }
}

/// Longest path the scan follows, in closures: the entry at depth 0 and
/// `COMPOSE_DEPTH_LIMIT` levels below it. (The walk itself opens at most
/// `COMPOSE_DEPTH_LIMIT` frames, so the deepest path it accepts is one
/// closure shorter.)
pub(crate) const MAX_PATH: usize = COMPOSE_DEPTH_LIMIT as usize + 1;

/// One closure on the scan's current path and how far its field scan
/// got.
#[derive(Clone, Copy, Default)]
pub(crate) struct Frame {
    addr: u64,
    /// The closure's tick.
    id: u64,
    /// Next field to look at.
    cap: usize,
    /// Next element of the argument list at `cap`, when it is one.
    arg: u64,
}

impl Frame {
    /// Reads the closure at `addr` and opens its encoding — or drops the
    /// key, when the closure's tick reads memory under `$`.
    fn open(
        mem: &Memory,
        input: DynInput<'_>,
        addr: u64,
        enc: &mut Option<Encoder>,
    ) -> Result<Frame, VmError> {
        let id = ClosureRef { addr }.cgf_id(mem)?;
        if input.plan(id)?.reads_memory {
            *enc = None;
        }
        if let Some(e) = enc {
            e.b.open(tag::CLOSURE);
            e.b.push_u64(id);
        }
        Ok(Frame {
            addr,
            id,
            cap: 0,
            arg: 0,
        })
    }

    /// Encodes fields up to the next closure child and returns it: the
    /// closure in a cspec field, or the next element of an argument
    /// list. Label objects are leaves; `param` vspecs go on `params`.
    fn next_child(
        &mut self,
        mem: &Memory,
        input: DynInput<'_>,
        enc: &mut Option<Encoder>,
        params: &mut Vec<(u64, VspecObj)>,
    ) -> Result<Option<u64>, VmError> {
        let caps = &input.plan(self.id)?.caps;
        while let Some(&cap) = caps.get(self.cap) {
            let field = ClosureRef { addr: self.addr }.field(mem, self.cap)?;
            let marker = match cap {
                Cap::Cspec => Some(mem.load_u64(field)?),
                _ => None,
            };
            match marker {
                None | Some(LABEL_MARKER) => {
                    let obj = (cap == Cap::Vspec).then(|| VspecObj::read(mem, field));
                    let obj = obj.transpose()?;
                    if let Some(o) = obj.filter(|o| o.tag == VspecTag::Param) {
                        params.push((field, o));
                    }
                    if let Some(e) = enc {
                        e.leaf(cap, field, obj);
                    }
                }
                Some(ARGLIST_MARKER) => {
                    let n = mem.load_u64(field + 8)?;
                    if let (Some(e), 0) = (enc.as_mut(), self.arg) {
                        e.b.open(tag::ARGLIST);
                        e.b.push_u64(n);
                    }
                    if self.arg < n {
                        let child = mem.load_u64(field + 16 + 8 * self.arg)?;
                        self.arg += 1;
                        return Ok(Some(child));
                    }
                    if let Some(e) = enc {
                        e.b.close();
                    }
                    self.arg = 0;
                }
                Some(_) => {
                    self.cap += 1;
                    return Ok(Some(field));
                }
            }
            self.cap += 1;
        }
        Ok(None)
    }
}

/// Walks the closure tree at `entry` once, before a compile. Returns,
/// when `key` brings the encoding's prefix (back end and options), the
/// closure's memo key — `None` when some tick in the tree reads memory
/// under `$` — and leaves in `params` every `param` vspec field of the
/// tree with its object, in the order met (repeats included). The plans
/// of the ticks the tree names are lowered on the way, if no compile has
/// yet.
///
/// Iterative, so arbitrarily deep (or cyclic) compositions are refused
/// before any code is emitted. A closure's children are the closures in
/// its cspec fields, directly or through argument lists: what the
/// compile walk splices. The path is a fixed array of
/// `COMPOSE_DEPTH_LIMIT + 1` frames the caller keeps (`path`; its
/// contents on entry do not matter), each resuming its closure's field
/// scan where it left off, so without a key the scan allocates nothing.
/// The path bound is also the cycle check — a cycle is a path that never
/// ends. Like the compile walk, it visits a closure once per path that
/// reaches it. A closure is encoded when it is pushed, field by field as
/// the scan passes, and closed when it is popped; after a tick that
/// reads memory the encoding stops, but the scan runs to the end.
///
/// # Errors
///
/// `"closure composition too deep"` when the nesting exceeds
/// `COMPOSE_DEPTH_LIMIT` or the graph is cyclic, `"bad cgf id ..."` on
/// malformed closures, matching the errors the compile walk itself
/// raises, and [`VmError`]s from closure and vspec reads.
pub(crate) fn scan_closure(
    mem: &Memory,
    input: DynInput<'_>,
    path: &mut [Frame; MAX_PATH],
    entry: u64,
    key: Option<FingerprintBuilder>,
    params: &mut Vec<(u64, VspecObj)>,
) -> Result<Option<Fingerprint>, VmError> {
    let mut enc = key.map(|b| Encoder {
        b,
        vspecs: HashMap::new(),
        labels: HashMap::new(),
    });
    params.clear();
    path[0] = Frame::open(mem, input, entry, &mut enc)?;
    let mut len = 1;
    while len > 0 {
        match path[len - 1].next_child(mem, input, &mut enc, params)? {
            Some(child) => {
                // Opened before the bound is checked: a malformed closure
                // one past the limit reports its bad id, as it always has.
                let frame = Frame::open(mem, input, child, &mut enc)?;
                if len == MAX_PATH {
                    return Err(VmError::Host("closure composition too deep".into()));
                }
                path[len] = frame;
                len += 1;
            }
            None => {
                if let Some(e) = &mut enc {
                    e.b.close();
                }
                len -= 1;
            }
        }
    }
    Ok(enc.map(|e| e.b.build()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::TickPlan;
    use std::cell::OnceCell;
    use tcc_front::Program;

    /// A program whose ticks supply the three closure shapes the probe
    /// tests build by hand: no captures, one cspec capture, two.
    const SHAPES: &str = r#"
        int f(void) {
            int cspec leaf = `1;
            int cspec one = `(leaf + 1);
            int cspec two = `(leaf + one);
            return 0;
        }
    "#;

    struct Heap {
        mem: Memory,
        prog: Program,
        plans: Box<[OnceCell<TickPlan>]>,
        tick_strs: Vec<Vec<u64>>,
    }

    impl Heap {
        fn new() -> Heap {
            let prog = tcc_front::compile_unit(SHAPES).expect("front end");
            Heap {
                mem: Memory::new(1 << 20),
                plans: prog.ticks.iter().map(|_| OnceCell::new()).collect(),
                tick_strs: vec![Vec::new(); prog.ticks.len()],
                prog,
            }
        }

        fn input(&self) -> DynInput<'_> {
            DynInput {
                prog: &self.prog,
                func_addrs: &[],
                global_addrs: &[],
                tick_strs: &self.tick_strs,
                plans: &self.plans,
                cspec_first: true,
                enable_unroll: true,
            }
        }

        /// Id of the tick with exactly `n` captures (all cspecs here).
        fn tick_with(&self, n: usize) -> u64 {
            let input = self.input();
            let id = (0..self.plans.len() as u64).find(|&id| {
                let caps = &input.plan(id).expect("lowers").caps;
                caps.len() == n && caps.iter().all(|&c| c == Cap::Cspec)
            });
            id.expect("shape present")
        }

        /// Allocates `[header, fields...]` and returns its address.
        fn object(&mut self, header: u64, fields: &[u64]) -> u64 {
            let addr = self.mem.alloc(8 * (1 + fields.len() as u64), 8).unwrap();
            self.mem.store_u64(addr, header).unwrap();
            for (i, &f) in fields.iter().enumerate() {
                self.mem.store_u64(addr + 8 * (1 + i as u64), f).unwrap();
            }
            addr
        }

        fn closure(&mut self, children: &[u64]) -> u64 {
            let id = self.tick_with(children.len());
            self.object(id, children)
        }

        /// A linear composition nested `depth` levels below its entry.
        fn chain(&mut self, depth: u32) -> u64 {
            let mut c = self.closure(&[]);
            for _ in 0..depth {
                c = self.closure(&[c]);
            }
            c
        }

        fn probe(&self, entry: u64) -> Result<(), String> {
            let path = &mut [Frame::default(); MAX_PATH];
            let scan = scan_closure(&self.mem, self.input(), path, entry, None, &mut Vec::new());
            scan.map(|_| ()).map_err(|e| e.to_string())
        }
    }

    fn too_deep(r: Result<(), String>) -> bool {
        r.is_err_and(|e| e.contains("closure composition too deep"))
    }

    #[test]
    fn probe_bounds_the_deepest_path() {
        let mut h = Heap::new();
        let leaf = h.closure(&[]);
        assert_eq!(h.probe(leaf), Ok(()));
        let shallow = h.chain(2);
        let (fits, deep) = (
            h.chain(COMPOSE_DEPTH_LIMIT - 1),
            h.chain(COMPOSE_DEPTH_LIMIT),
        );
        // The deep child second, then first: scan order is not depth.
        for (a, b) in [(shallow, fits), (fits, shallow)] {
            let parent = h.closure(&[a, b]);
            assert_eq!(h.probe(parent), Ok(()));
        }
        for (a, b) in [(shallow, deep), (deep, shallow)] {
            let parent = h.closure(&[a, b]);
            assert!(too_deep(h.probe(parent)));
        }
        // A shared child (DAG) is a child of each parent.
        let dag = h.closure(&[fits, fits]);
        assert_eq!(h.probe(dag), Ok(()));
    }

    #[test]
    fn probe_accepts_the_limit_and_rejects_one_past_it() {
        let mut h = Heap::new();
        let at_limit = h.chain(COMPOSE_DEPTH_LIMIT);
        assert_eq!(h.probe(at_limit), Ok(()));
        let past = h.closure(&[at_limit]);
        assert!(too_deep(h.probe(past)));
        // Only the deepest path matters, wherever the scan meets it.
        let wide = h.closure(&[at_limit, at_limit]);
        assert!(too_deep(h.probe(wide)));
    }

    #[test]
    fn probe_rejects_cycles_as_too_deep() {
        let mut h = Heap::new();
        let selfish = h.closure(&[0]);
        h.mem.store_u64(selfish + 8, selfish).unwrap();
        assert!(too_deep(h.probe(selfish)));
        // A two-closure cycle entered from outside, behind a leaf.
        let leaf = h.closure(&[]);
        let x = h.closure(&[0]);
        let y = h.closure(&[leaf, x]);
        h.mem.store_u64(x + 8, y).unwrap();
        let entry = h.closure(&[y]);
        assert!(too_deep(h.probe(entry)));
    }

    #[test]
    fn probe_reports_bad_cgf_ids_like_the_compile_walk() {
        let mut h = Heap::new();
        let junk = h.object(9999, &[]);
        let err = h.probe(junk).unwrap_err();
        assert!(err.contains("bad cgf id 9999"), "{err}");
        let parent = h.closure(&[junk]);
        assert!(h.probe(parent).unwrap_err().contains("bad cgf id 9999"));
        // Neither marker is a closure: as an entry both are malformed.
        let label = h.object(LABEL_MARKER, &[1]);
        assert!(h.probe(label).unwrap_err().contains("bad cgf id"));
    }

    #[test]
    fn probe_descends_argument_lists_and_stops_at_labels() {
        let mut h = Heap::new();
        let label = h.object(LABEL_MARKER, &[1]);
        let jumps = h.closure(&[label]);
        assert_eq!(h.probe(jumps), Ok(()), "a label object is a leaf");
        let (short, long) = (h.chain(1), h.chain(COMPOSE_DEPTH_LIMIT - 1));
        let args = h.object(ARGLIST_MARKER, &[3, short, long, short]);
        let apply = h.closure(&[args, label]);
        assert_eq!(h.probe(apply), Ok(()));
        let outer = h.closure(&[apply]);
        assert!(
            too_deep(h.probe(outer)),
            "elements are children of the owner"
        );
        let none = h.object(ARGLIST_MARKER, &[0]);
        let apply0 = h.closure(&[none, long]);
        let outer0 = h.closure(&[apply0]);
        assert!(
            too_deep(h.probe(outer0)),
            "the scan resumes after an empty list"
        );
        // Elements are closures, nothing else.
        let bad = h.object(ARGLIST_MARKER, &[1, label]);
        let apply_bad = h.closure(&[bad]);
        assert!(h.probe(apply_bad).unwrap_err().contains("bad cgf id"));
    }
}
