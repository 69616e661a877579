// Seeded violation for the `spawn` rule, scanned as a runtime-crate file
// (never compiled): a scoped fan-out still creates threads outside the
// sanctioned pool module.

fn fan_out(items: &[u64]) {
    std::thread::scope(|scope| {
        for _ in items {
            scope.spawn(|| {});
        }
    });
}
