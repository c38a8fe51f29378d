//! tcc-bench: the benches with no `suite` twin (see `benches/`).

/// Criterion driver for benchmarks whose routine *allocates VM memory
/// every call* (dynamic compilation allocates closures, vspecs and code):
/// runs `iters` calls in chunks, recreating the state with `fresh`
/// between chunks **outside** the timed region, so unbounded iteration
/// counts never exhaust the machine's data memory.
pub fn iter_chunked<S, F, R>(b: &mut criterion::Bencher<'_>, chunk: u64, mut fresh: F, mut run: R)
where
    F: FnMut() -> S,
    R: FnMut(&mut S),
{
    b.iter_custom(|iters| {
        let mut total = std::time::Duration::ZERO;
        let mut done = 0u64;
        while done < iters {
            let mut s = fresh();
            let n = (iters - done).min(chunk);
            let t = std::time::Instant::now();
            for _ in 0..n {
                run(&mut s);
            }
            total += t.elapsed();
            done += n;
        }
        total
    });
}
