module hybriddem/benchmarks

go 1.22

require hybriddem v0.0.0

replace hybriddem => ../
