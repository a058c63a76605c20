// permperf is a module of its own so the benchmark carries its own build
// file; the replace directive makes it build against the checkout it sits in
// (module path perm/benchmarks may import perm/internal/...).
module perm/benchmarks

go 1.22

require perm v0.0.0

replace perm => ../
